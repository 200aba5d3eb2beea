"""Every entry point times the same machine.

``simulate``, ``collect_observation`` and ``collect_observations_batch``
must report identical cycles for the same program, defense, engine and
config — including the machine knobs only the timing model reads (the
snapshot mechanism's drain scale and rename overhead, the SPM
bandwidth).  The engine-vs-engine parity suites cannot catch a knob
that every engine's observer ignores alike; this gate compares entry
points instead.
"""

import pytest

from repro.core.engine import ENGINES, simulate
from repro.defenses import defense_names, get_defense
from repro.security.observer import (
    collect_observation,
    collect_observations_batch,
)
from repro.uarch.config import MachineConfig
from repro.workloads.microbench import MicrobenchSpec, compile_microbench

pytestmark = pytest.mark.parity

ONES = MicrobenchSpec("ones", w=2)


def _assert_entry_points_agree(defense, config):
    program = compile_microbench(
        ONES, get_defense(defense).compile_mode).program
    batched = collect_observations_batch(program, [None], config=config,
                                         defense=defense)[0].cycles
    for engine in ENGINES:
        cycles = simulate(program, config=config, engine=engine,
                          defense=defense).cycles
        observed = collect_observation(program, config=config,
                                       engine=engine,
                                       defense=defense).cycles
        assert observed == cycles, (defense, engine)
        assert batched == cycles, (defense, engine)


@pytest.mark.parametrize("defense", sorted(defense_names()))
@pytest.mark.parametrize("mechanism", ["archrs", "phyrs", "lrs"])
def test_observers_time_the_simulated_machine(mechanism, defense):
    config = MachineConfig()
    config.snapshot_mechanism = mechanism
    _assert_entry_points_agree(defense, config)


def test_observers_see_spm_bandwidth():
    config = MachineConfig()
    config.spm_bytes_per_cycle = 16
    _assert_entry_points_agree("sempe", config)
