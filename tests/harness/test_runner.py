"""Run caching."""

from repro.fingerprint import config_fingerprint
from repro.harness.runner import (
    cache_info,
    clear_cache,
    run_djpeg,
    run_microbench,
)
from repro.uarch.config import MachineConfig
from repro.workloads.djpeg import DjpegSpec
from repro.workloads.microbench import MicrobenchSpec


def setup_function(_function):
    clear_cache()


def test_microbench_run_cached():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    first = run_microbench(spec, "plain")
    second = run_microbench(spec, "plain")
    assert first is second


def test_different_modes_not_conflated():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    base = run_microbench(spec, "plain")
    sempe = run_microbench(spec, "sempe")
    assert base is not sempe
    assert sempe.instructions > base.instructions


def test_djpeg_run_cached():
    spec = DjpegSpec("bmp", 128)
    first = run_djpeg(spec, "plain")
    second = run_djpeg(spec, "plain")
    assert first is second
    assert first.cycles > 0


def test_result_surface():
    spec = MicrobenchSpec("ones", w=1, iters=1)
    result = run_microbench(spec, "sempe")
    assert result.mode == "sempe"
    assert result.cycles == result.report.cycles
    assert set(result.miss_rates) == {"IL1", "DL1", "L2"}


def test_equal_configs_share_cache_entry():
    """The key is structural, not object identity: two equal configs
    built independently must hit the same entry."""
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    first = run_microbench(spec, "plain", config=MachineConfig())
    second = run_microbench(spec, "plain", config=MachineConfig())
    assert first is second


def test_different_configs_not_conflated():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    small = MachineConfig()
    small.rob_entries = 32
    default = run_microbench(spec, "plain", config=MachineConfig())
    shrunk = run_microbench(spec, "plain", config=small)
    assert default is not shrunk
    assert config_fingerprint(small) != config_fingerprint(MachineConfig())


def test_engines_cached_separately_but_identical():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    fast = run_microbench(spec, "sempe", engine="fast")
    reference = run_microbench(spec, "sempe", engine="reference")
    assert fast is not reference
    assert fast.cycles == reference.cycles
    assert fast.report.final_regs == reference.report.final_regs


def test_cache_info_counts():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    assert cache_info() == {"hits": 0, "misses": 0, "entries": 0}
    run_microbench(spec, "plain")
    run_microbench(spec, "plain")
    run_microbench(spec, "sempe")
    info = cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["entries"] == 2
