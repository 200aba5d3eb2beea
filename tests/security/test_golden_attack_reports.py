"""Golden attack reports for the benchmark's attack cells.

The fixture pins every field of :class:`AttackReport` — verdict, key
bits, the chosen pair, ``profiled_mi``, and the distinguisher's exact
``statistic`` and ``p_value`` — for memcmp against every applicable
attacker plus one cell per other channel, each on the unprotected and
the SeMPE machine, on the batch engine at ``ATTACK_TRIALS`` and a fixed
seed.  A change to the statistics, the observation keys, or the trial
loop that moves any number (even in the last float bit) shows up as a
readable JSON diff.  Regenerate the fixture only when the change is
intentional:

    PYTHONPATH=src python -c "
    import json, pathlib, sys
    sys.path.insert(0, 'tests/security')
    from test_golden_attack_reports import CELLS, FIXTURE, report
    golden = {key: report(*cell).to_dict()
              for key, cell in CELLS.items()}
    FIXTURE.write_text(json.dumps(golden, indent=2,
                                  sort_keys=True) + chr(10))"
"""

import json
import pathlib

import pytest

from repro.harness.experiments import ATTACK_TRIALS
from repro.security.attackers import (
    AttackReport,
    AttackSpec,
    applicable_attackers,
    execute_attack,
)

pytestmark = pytest.mark.attack

FIXTURE = pathlib.Path(__file__).parent / "golden" / "attack_reports.json"
SEED = 7
MODES = ("plain", "sempe")
PAIRS = ([("memcmp", attacker)
          for attacker in applicable_attackers("memcmp")]
         + [("modexp", "prime-probe"), ("gcd", "flush-reload"),
            ("table_lookup", "timing"), ("bsearch", "branch-trace"),
            ("spectre", "mistrain-reload")])
CELLS = {f"{workload}+{attacker}:{mode}": (workload, attacker, mode)
         for workload, attacker in PAIRS for mode in MODES}


def report(workload: str, attacker: str, mode: str) -> AttackReport:
    spec = AttackSpec(workload, attacker, trials=ATTACK_TRIALS, seed=SEED)
    return execute_attack(spec, mode, engine="batch")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_attack_report_matches_golden(key, golden):
    assert report(*CELLS[key]).to_dict() == golden[key]
