"""Golden parity: the registry path reproduces the legacy modes
bit-identically, and both engines agree under every defense."""

import pytest

from repro.core.engine import simulate
from repro.defenses import defense_names, get_defense
from repro.harness import clear_cache, run_microbench, run_workload
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import WorkloadRunSpec, get_workload

pytestmark = pytest.mark.parity

MICRO = MicrobenchSpec("fibonacci", w=2, iters=2)


def _legacy_simulate(program, sempe):
    """The pre-registry machine choice: SeMPE hardware or the baseline
    (the legacy ``cte`` mode ran on the baseline)."""
    return simulate(program, defense="sempe" if sempe else "plain")


@pytest.mark.parametrize("mode", ["plain", "sempe", "cte"])
def test_legacy_modes_bit_identical_through_registry(mode):
    """defense=<legacy mode> must reproduce simulate(sempe=...) exactly."""
    variant = "oblivious" if mode == "cte" else "natural"
    spec = MicrobenchSpec("fibonacci", w=2, iters=2, variant=variant)
    program = compile_microbench(spec, mode).program
    legacy = _legacy_simulate(program, sempe=(mode == "sempe"))
    registry = simulate(program, defense=mode)
    assert registry.to_dict() == legacy.to_dict()


@pytest.mark.parametrize("mode", ["plain", "sempe", "cte"])
def test_runner_path_matches_direct_simulation(mode):
    """run_workload through the defense registry = direct simulate."""
    clear_cache()
    workload = get_workload("gcd")
    result = run_workload(WorkloadRunSpec("gcd", workload.resolve()), mode)
    direct = _legacy_simulate(workload.compile(mode).program,
                              sempe=(mode == "sempe"))
    assert result.report.to_dict() == direct.to_dict()
    clear_cache()


@pytest.mark.parametrize("defense", sorted(defense_names()))
def test_engines_bit_identical_under_every_defense(defense):
    """The fast and reference engines agree for all seven schemes."""
    workload = get_workload("memcmp")
    program = workload.compile(get_defense(defense).compile_mode).program
    fast = simulate(program, defense=defense, engine="fast")
    reference = simulate(program, defense=defense, engine="reference")
    assert fast.to_dict() == reference.to_dict()


def test_sempe_kwarg_removed():
    """The deprecated ``sempe=`` alias is gone from every entry point."""
    from repro.core.engine import SempeMachine
    from repro.security.leakage import noninterference_report
    from repro.security.observer import (
        collect_observation,
        collect_observations_batch,
    )

    program = compile_microbench(MICRO, "plain").program
    for call in (lambda: simulate(program, sempe=False),
                 lambda: SempeMachine(sempe=False),
                 lambda: collect_observation(program, sempe=False),
                 lambda: collect_observations_batch(program, [{}],
                                                    sempe=False),
                 lambda: noninterference_report(program, "x", [0],
                                                sempe=False)):
        with pytest.raises(TypeError, match="sempe"):
            call()


def test_default_defense_is_sempe():
    """simulate(program) keeps its historical meaning (SeMPE machine)."""
    program = compile_microbench(MICRO, "sempe").program
    assert simulate(program).to_dict() == \
        simulate(program, defense="sempe").to_dict()


def test_microbench_runner_defense_cells_distinct():
    """Each defense addresses its own cache entry (no aliasing)."""
    clear_cache()
    cycles = {name: run_microbench(MICRO, name).cycles
              for name in ("plain", "fence", "flush-local")}
    assert cycles["fence"] > cycles["plain"]        # serialization cost
    assert cycles["flush-local"] > cycles["plain"]  # flush cost
    clear_cache()
