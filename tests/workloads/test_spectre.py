"""The spectre victim: registration, layout contract, and leak shape.

The gadget's whole trick is the data layout — ``table[n]`` *is* the
secret — plus an in-program training schedule that mistrains exactly
one static branch.  These tests pin the contract pieces separately:
parameter validation, the committed result's key-independence (the
reference model and the machine agree for every key), the channel
declaration, and the leak verdicts per defense (transient-memory
leaks under every architectural scheme, dies only under the fence).
"""

import pytest

from repro.security import victim_report
from repro.workloads.registry import get_workload
from repro.workloads.spectre import (
    spectre_reference,
    spectre_source,
    spectre_tables,
)


def test_registered_with_transient_channel_only():
    spec = get_workload("spectre")
    assert spec.channels == ("transient-memory",)
    assert spec.secret == "key"
    assert spec.resolve() == {"n": 8, "train": 16, "stride": 8,
                              "mask": 7}


@pytest.mark.parametrize("kwargs", [
    {"n": 7},                 # not a power of two
    {"n": 0},
    {"train": 12},            # not a multiple of n=8
    {"train": 0},
    {"mask": 6},              # not 2^k - 1
])
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        spectre_source(**kwargs)


def test_reference_is_key_independent():
    """Committed execution never takes the out-of-bounds body, so the
    architectural result must not move with the secret."""
    values = {spectre_reference(key) for key in (0, 1, 3, 6, 255)}
    assert len(values) == 1


@pytest.mark.parametrize("params", [{}, {"n": 16, "mask": 15}])
def test_machine_matches_reference_model(params, fast_config):
    """The mini-C gadget and the Python model compute the same ``out``
    for every representative key — on the grid variant too."""
    from repro.core.engine import poke_secrets

    spec = get_workload("spectre")
    resolved = spec.resolve(params)
    compiled = spec.compile("plain", **resolved)
    expected = spectre_reference(0, **resolved)
    for key in (0, 2, 5):
        from repro.arch.fast_executor import FastExecutor

        executor = FastExecutor(compiled.program, sempe=False)
        poke_secrets(executor.state.memory, compiled.program.symbols,
                     {"key": key})
        for _chunk in executor.run_chunks(64):
            pass
        out = executor.state.memory.load(
            compiled.program.symbols["out"], 8)
        assert out == expected, (params, key)


def test_table_layout_places_secret_at_first_oob_slot():
    """``table[n]`` and ``key`` share an address: the declaration-order
    global layout is what makes the bypass read the secret."""
    spec = get_workload("spectre")
    compiled = spec.compile("plain", **spec.resolve())
    symbols = compiled.program.symbols
    n = spec.resolve()["n"]
    assert symbols["key"] == symbols["table"] + 8 * n


def test_tables_helper_matches_compiled_initialization():
    table, probe = spectre_tables(8, 8, 7)
    assert table == [(i * 11 + 5) & 7 for i in range(8)]
    assert len(probe) == 64
    # One probe line per key value: stride 8 elements x 8 bytes = 64B.
    assert probe[:3] == [0, 3, 6]


@pytest.mark.slow
def test_plain_leaks_transient_memory_only(fast_config):
    """victim_report auto-enables the window for a transient victim;
    the unprotected machine leaks the declared channel and nothing
    architectural."""
    report = victim_report("spectre", "plain", config=fast_config)
    assert report.leaking_channels() == ["transient-memory"]
    assert not report.secure


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["sempe", "cte"])
def test_architectural_defenses_do_not_help(mode, fast_config):
    """Dual-path execution and predication close committed channels —
    the wrong path is not committed execution."""
    report = victim_report("spectre", mode, config=fast_config)
    assert "transient-memory" in report.leaking_channels(), mode


@pytest.mark.slow
def test_fence_closes_the_window(fast_config):
    report = victim_report("spectre", "fence", config=fast_config)
    assert report.secure, report.leaking_channels()
