"""Golden simulation reports: committed numbers pin the timing model.

The fixture holds :meth:`SimulationReport.to_dict` — cycles, miss
rates, final registers, every functional counter and every pipeline
counter — for each microbenchmark (W=1, one iteration) and each
registry victim at its first grid point, run under ``plain``,
``fence`` and ``sempe`` (each on its own compiled binary), every
snapshot mechanism, and the speculation window off and on, on the
small test machine.  The fast engine must reproduce the whole grid
exactly; the reference and batch engines must reproduce the ArchRS,
speculation-off slice, so every engine's path into the one timing loop
is pinned by the same numbers.

A change that moves any number shows up as a one-line JSON diff per
report field.  Regenerate the fixture only when the change is
intentional (from the repository root):

    PYTHONPATH=src python -c "
    import sys; sys.path[:0] = ['tests', 'tests/core']
    from test_golden_simulation_reports import write_fixture
    write_fixture()"
"""

import functools
import json
import pathlib

import pytest

from machines import make_fast_config
from repro.core.engine import simulate
from repro.defenses import get_defense
from repro.uarch.config import SpeculationConfig
from repro.workloads.microbench import (
    MicrobenchSpec,
    WORKLOADS,
    compile_microbench,
)
from repro.workloads.registry import get_workload, workload_names

pytestmark = pytest.mark.parity

FIXTURE = (pathlib.Path(__file__).parent / "golden"
           / "simulation_reports.json")
DEFENSES = ("plain", "fence", "sempe")
MECHANISMS = ("archrs", "phyrs", "lrs")
SPECULATION = ("off", "on")
PROGRAMS = ([f"micro/{name}" for name in WORKLOADS]
            + [f"victim/{name}" for name in workload_names()])
CELLS = {f"{program}:{defense}:{mechanism}:spec-{speculation}":
         (program, defense, mechanism, speculation)
         for program in PROGRAMS for defense in DEFENSES
         for mechanism in MECHANISMS for speculation in SPECULATION}
# The slice every engine must reproduce (the full grid runs on fast).
SLICE = sorted(key for key, cell in CELLS.items()
               if cell[2:] == ("archrs", "off"))


@functools.lru_cache(maxsize=None)
def program_for(program: str, mode: str):
    kind, name = program.split("/")
    if kind == "micro":
        return compile_microbench(MicrobenchSpec(name, w=1, iters=1),
                                  mode).program
    spec = get_workload(name)
    return spec.compile(mode, **spec.grid[0]).program


def report(program: str, defense: str, mechanism: str, speculation: str,
           engine: str = "fast") -> dict:
    config = make_fast_config()
    config.snapshot_mechanism = mechanism
    config.speculation = SpeculationConfig(enabled=speculation == "on")
    binary = program_for(program, get_defense(defense).compile_mode)
    return simulate(binary, config=config, engine=engine,
                    defense=defense).to_dict()


def dump(golden: dict) -> str:
    """The fixture's text form: one line per report field, so a moved
    number diffs as one line naming its cell and field."""
    lines = []
    for key in sorted(golden):
        fields = golden[key]
        body = ",\n".join(f"    {json.dumps(name)}: "
                          f"{json.dumps(fields[name], sort_keys=True)}"
                          for name in sorted(fields))
        lines.append(f"  {json.dumps(key)}: {{\n{body}\n  }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_fixture() -> None:
    FIXTURE.write_text(dump({key: report(*cell)
                             for key, cell in CELLS.items()}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)
    assert len(CELLS) == 198


@pytest.mark.parametrize("key", sorted(CELLS))
def test_fast_engine_matches_golden(key, golden):
    assert report(*CELLS[key]) == golden[key]


@pytest.mark.parametrize("engine", ["reference", "batch"])
@pytest.mark.parametrize("key", SLICE)
def test_every_engine_matches_golden(key, engine, golden):
    assert report(*CELLS[key], engine=engine) == golden[key]
