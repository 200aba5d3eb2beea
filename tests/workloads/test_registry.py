"""The victim-workload registry: registration, compilation, fingerprints."""

import pytest

from repro.harness.experiments import victims_cells
from repro.fingerprint import canonical_json, fingerprint
from repro.harness.sweep import SweepSpec
from repro.workloads import registry
from repro.workloads.registry import (
    WorkloadError,
    WorkloadRunSpec,
    WorkloadSpec,
    get_workload,
    iter_workloads,
    workload_names,
)

NEW_VICTIMS = ("memcmp", "table_lookup", "bsearch", "gcd")


def _dummy_spec(name, **overrides):
    fields = dict(
        name=name,
        title="dummy",
        builder=lambda: "int x = 0;\nvoid main() { x = 1; }",
        secret="x",
        params={},
        leak_values=lambda params: [0, 1],
        channels=("timing",),
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


# --------------------------------------------------------------------------
# Registration rules
# --------------------------------------------------------------------------


def test_registry_has_the_full_victim_matrix():
    names = workload_names()
    assert len(names) >= 6
    assert {"modexp", "djpeg", *NEW_VICTIMS} <= set(names)


def test_duplicate_name_rejected():
    with pytest.raises(WorkloadError, match="already registered"):
        registry.register(_dummy_spec("memcmp"))


def test_unknown_channel_rejected():
    with pytest.raises(WorkloadError, match="unknown channels"):
        registry.register(_dummy_spec("dummy-chan",
                                      channels=("psychic",)))
    assert "dummy-chan" not in workload_names()


def test_transient_channel_is_declarable():
    """Victim channel declarations validate against ALL_CHANNELS: the
    spectre gadget declares only the transient channel."""
    assert "spectre" in workload_names()
    from repro.workloads.registry import get_workload

    assert get_workload("spectre").channels == ("transient-memory",)


def test_unknown_mode_rejected():
    with pytest.raises(WorkloadError, match="unknown mode"):
        registry.register(_dummy_spec("dummy-mode", modes=("turbo",)))


def test_bad_grid_key_rejected_at_registration():
    with pytest.raises(WorkloadError, match="no parameter"):
        registry.register(_dummy_spec("dummy-grid",
                                      grid=({"nope": 1},)))


def test_unknown_workload_lookup():
    with pytest.raises(WorkloadError, match="unknown workload"):
        get_workload("nope")


def test_unknown_param_override_rejected():
    spec = get_workload("gcd")
    with pytest.raises(WorkloadError, match="no parameter"):
        spec.compile("plain", nope=3)


# --------------------------------------------------------------------------
# Every registered workload compiles in every declared mode
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_workload_compiles_in_all_declared_modes(name):
    spec = get_workload(name)
    # The whole matrix must be expressible under both transforms.
    assert "sempe" in spec.modes and "cte" in spec.modes
    for mode in spec.modes:
        compiled = spec.compile(mode)
        assert len(compiled.program) > 0
        assert spec.secret in compiled.program.symbols
        if mode == "sempe":
            if name == "spectre":
                # spectre's secret never reaches a branch — the leak is
                # purely transient — so SeMPE has nothing to dual-path.
                assert compiled.program.count_secure_branches() == 0
            else:
                assert compiled.program.count_secure_branches() > 0
    with pytest.raises(WorkloadError, match="does not support"):
        spec.compile("not-a-mode")


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_grid_points_compile_under_sempe(name):
    spec = get_workload(name)
    for params in spec.grid_points():
        assert len(spec.compile("sempe", **params).program) > 0


def test_leak_params_applied():
    """djpeg's leak configuration must disable the in-program fill so
    poked secret images survive to the decode loop."""
    spec = get_workload("djpeg")
    assert spec.resolve()["fill"] is True
    assert spec.leak_resolve()["fill"] is False
    # ... but an explicit override beats the leak default — the user
    # must never be silently audited at a different parameterization.
    assert spec.leak_resolve({"fill": True})["fill"] is True
    with pytest.raises(WorkloadError, match="no parameter"):
        spec.leak_resolve({"nope": 1})
    for spec in iter_workloads():
        values = spec.secret_values()
        assert len(values) >= 2       # a leak needs at least a pair


# --------------------------------------------------------------------------
# Parameter grids round-trip through SweepSpec fingerprints
# --------------------------------------------------------------------------


def test_run_spec_descriptor_is_json_safe():
    for spec in iter_workloads():
        for params in spec.grid_points():
            run_spec = WorkloadRunSpec(spec.name, params)
            import dataclasses

            descriptor = dataclasses.asdict(run_spec)
            canonical_json(descriptor)    # must not raise
            assert fingerprint(descriptor) == fingerprint(
                dataclasses.asdict(WorkloadRunSpec(spec.name,
                                                   dict(params))))


def test_victims_cells_fingerprints_stable_and_unique():
    first = sorted(cell.fingerprint() for cell in victims_cells())
    second = sorted(cell.fingerprint() for cell in victims_cells())
    assert first == second                      # reproducible
    assert len(set(first)) == len(first)        # every cell distinct


def test_sweep_spec_dedupe_keeps_every_grid_point():
    cells = victims_cells()
    spec = SweepSpec("victims", cells + victims_cells())  # doubled input
    assert len(spec) == len(cells)
    names = {cell.spec.name for cell in spec.cells}
    # Distinct parameter points keep distinct labels too.
    assert len(names) == len(cells) // 2        # plain+sempe share a name


def test_compile_supports_collapse_ifs():
    """The §IV-E nesting-reduction flag works through WorkloadSpec
    (the CLI's `run --workload --collapse-ifs` path)."""
    spec = _dummy_spec("collapsible", builder=lambda: """
secret int a = 0;
secret int b = 0;
int out = 0;
void main() {
  int acc = 1;
  if (a) { if (b) { acc = acc + 5; } }
  out = acc;
}
""")
    nested = spec.compile("sempe").program.count_secure_branches()
    collapsed = spec.compile(
        "sempe", collapse_ifs=True).program.count_secure_branches()
    assert collapsed < nested


def test_param_change_re_addresses_cell():
    spec = get_workload("gcd")
    base = WorkloadRunSpec("gcd", spec.resolve())
    bumped = WorkloadRunSpec("gcd", spec.resolve({"other": 123}))
    from repro.harness.sweep import SweepCell

    assert SweepCell("workload", base, "plain").fingerprint() != \
        SweepCell("workload", bumped, "plain").fingerprint()
