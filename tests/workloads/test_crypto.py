"""Modular exponentiation workload (Fig. 1)."""

import pytest

from repro.arch.executor import Executor
from repro.lang.compiler import compile_source
from repro.security import noninterference_report
from repro.workloads.crypto import modexp_reference, modexp_source


def run_modexp(mode, sempe, key, bits=8, base=7, modulus=1009):
    source = modexp_source(bits=bits, base=base, modulus=modulus, key=key)
    compiled = compile_source(source, mode=mode)
    executor = Executor(compiled.program, sempe=sempe)
    executor.run_to_completion()
    return executor.state.memory.load(compiled.program.symbols["result"])


@pytest.mark.parametrize("key", [0, 1, 0x55, 0xFF, 0xA3])
def test_modexp_correct_all_modes(key):
    expected = modexp_reference(8, 7, 1009, key)
    assert run_modexp("plain", False, key) == expected
    assert run_modexp("sempe", True, key) == expected
    assert run_modexp("cte", False, key) == expected


def test_reference_agrees_with_pow():
    for key in (0, 3, 77, 255):
        assert modexp_reference(8, 7, 1009, key) == pow(7, key, 1009)


def test_modexp_baseline_leaks_key_hamming_weight(fast_config):
    """The classic RSA timing channel: more set bits -> more multiplies."""
    source = modexp_source(bits=8, key=0)
    compiled = compile_source(source, mode="plain")
    report = noninterference_report(
        compiled.program, "ekey", [0x00, 0x0F, 0xFF], defense="plain",
        config=fast_config,
    )
    assert "timing" in report.leaking_channels()


def test_modexp_sempe_closes_channel(fast_config):
    source = modexp_source(bits=8, key=0)
    compiled = compile_source(source, mode="sempe")
    report = noninterference_report(
        compiled.program, "ekey", [0x00, 0x0F, 0xFF, 0x5A], defense="sempe",
        config=fast_config,
    )
    assert report.secure, report.leaking_channels()


def test_key_masked_to_bit_width():
    assert "65535" not in modexp_source(bits=4, key=0xFFFF)
