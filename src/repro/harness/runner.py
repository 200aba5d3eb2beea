"""Run management: in-process memo cache backed by a persistent store.

Fig. 8 and Fig. 9 come from the same djpeg sweep, Fig. 10a/10b share the
microbenchmark sweep, and ``table1_comparison`` re-simulates the same
baselines repeatedly, so runs are memoized by ``(workload spec, mode,
config, engine)`` — each configuration is simulated once per session.

The cache key is the *structural fingerprint* of the whole cell: a
SHA-256 over the canonical JSON of a descriptor covering every spec
field, the compiler mode, all :class:`~repro.uarch.config.MachineConfig`
fields (recursively), and the engine.  Two equal configs built
independently hit the same entry; a config mutated between runs misses
instead of aliasing a stale report.  The same fingerprint addresses the
optional on-disk :class:`~repro.harness.store.ResultStore` (see
:func:`set_store`), which turns the memo cache into a two-level
hierarchy — L1 in-process, L2 persistent across runs — so a repeated
sweep is served from disk instead of re-simulated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.differential import (
    VerifyReport,
    VerifySpec,
    execute_verify,
)
from repro.core.engine import SimulationReport, get_default_engine, simulate
from repro.defenses.registry import get_defense
from repro.fingerprint import fingerprint
from repro.harness.store import ResultStore, SCHEMA_VERSION
from repro.security.attackers import AttackReport, AttackSpec, execute_attack
from repro.uarch.config import MachineConfig
from repro.workloads.djpeg import DjpegSpec, compile_djpeg
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import WorkloadRunSpec, compile_workload

_CACHE: dict[str, "RunResult"] = {}
_HITS = 0
_MISSES = 0
_STORE: ResultStore | None = None


@dataclass
class RunResult:
    """One evaluated configuration.

    ``report`` is a :class:`SimulationReport` for simulation cells, an
    :class:`~repro.security.attackers.AttackReport` for ``attack``
    cells, and a :class:`~repro.analysis.differential.VerifyReport` for
    ``verify`` cells; all round-trip through ``to_dict``/``from_dict``,
    which is all the cache hierarchy relies on.
    """

    name: str
    mode: str          # registered defense name (plain | sempe | ...)
    report: SimulationReport | AttackReport | VerifyReport

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def instructions(self) -> int:
        return self.report.instructions

    @property
    def miss_rates(self) -> dict[str, float]:
        return self.report.miss_rates


def cell_descriptor(kind: str, spec, mode: str,
                    config: MachineConfig | None, engine: str) -> dict:
    """JSON-safe structural identity of one run (the store key).

    Covers every field that can change the simulation's output: the
    full workload spec, the defense (by name *and* structural
    fingerprint, so changing a scheme's hooks or overrides re-addresses
    its cached results), the whole machine configuration (recursively),
    the engine, and the report schema version so a schema bump
    re-addresses rather than misreads old records.
    """
    return {
        "kind": kind,
        "spec": dataclasses.asdict(spec),
        "mode": mode,
        "defense": get_defense(mode).fingerprint(),
        "config": None if config is None else dataclasses.asdict(config),
        "engine": engine,
        "schema": SCHEMA_VERSION,
    }


# --------------------------------------------------------------------------
# Cache / store management
# --------------------------------------------------------------------------

def clear_cache() -> None:
    """Drop all cached runs and reset the counters (used by tests).

    Also clears the pipeline-level timing memo
    (:mod:`repro.uarch.batch_pipeline`): tests that reset the run cache
    expect the *whole* memo hierarchy cold, not just the report level.
    """
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
    from repro.uarch.batch_pipeline import clear_memo

    clear_memo()


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the in-process run cache."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def set_store(store: ResultStore | None) -> ResultStore | None:
    """Install (or clear, with ``None``) the persistent result store.

    Returns the previously-installed store so callers can restore it.
    """
    global _STORE
    previous = _STORE
    _STORE = store
    return previous


def get_store() -> ResultStore | None:
    """The currently-installed persistent store, if any."""
    return _STORE


def store_info() -> dict[str, int] | None:
    """Hit/miss/store/invalidation counters, or ``None`` if no store."""
    if _STORE is None:
        return None
    return _STORE.stats.as_dict()


def _report_from_dict(kind: str, data: dict):
    """Rebuild the kind-appropriate report object from a store record."""
    if kind == "attack":
        return AttackReport.from_dict(data)
    if kind == "verify":
        return VerifyReport.from_dict(data)
    return SimulationReport.from_dict(data)


def install_result(descriptor: dict, name: str, mode: str,
                   report: SimulationReport | AttackReport) -> RunResult:
    """Adopt an externally-computed report into the cache hierarchy.

    Used by the parallel sweep layer: worker processes return report
    dicts, and the parent installs them here so later lookups (table
    assembly, further experiments) hit L1, and a configured store
    persists them exactly as if they had been simulated in-process.
    """
    fp = fingerprint(descriptor)
    result = RunResult(name=name, mode=mode, report=report)
    _CACHE[fp] = result
    if _STORE is not None and not _STORE.contains(fp):
        _STORE.put(fp, descriptor, report.to_dict())
    return result


def probe(descriptor: dict) -> str | None:
    """Where a cell's result currently lives: ``"cache"``, ``"store"``,
    or ``None`` (would have to be simulated).

    A probe is a cache lookup and counts like one — a resident cell is
    a hit, anything else a miss — so ``--cache-stats`` reflects sweep
    partitioning, not just table assembly.  A store probe *loads* the
    record into L1 (counting a store hit), so after
    ``probe(...) == "store"`` the next lookup is an L1 hit.
    """
    global _HITS, _MISSES
    fp = fingerprint(descriptor)
    if fp in _CACHE:
        _HITS += 1
        return "cache"
    _MISSES += 1
    if _STORE is not None:
        stored = _STORE.get(fp, descriptor)
        if stored is not None:
            spec = descriptor["spec"]
            name = _spec_name(descriptor["kind"], spec)
            _CACHE[fp] = RunResult(
                name=name, mode=descriptor["mode"],
                report=_report_from_dict(descriptor["kind"], stored))
            return "store"
    return None


def _spec_name(kind: str, spec_fields: dict) -> str:
    if kind == "micro":
        return MicrobenchSpec(**spec_fields).name
    if kind == "workload":
        return WorkloadRunSpec(**spec_fields).name
    if kind == "attack":
        return AttackSpec(**spec_fields).name
    if kind == "verify":
        return VerifySpec(**spec_fields).name
    return DjpegSpec(**spec_fields).name


# --------------------------------------------------------------------------
# Cached execution
# --------------------------------------------------------------------------

def _cached_run(descriptor: dict, compute, name: str, mode: str) -> RunResult:
    """L1 -> store -> *compute()* for one cell.

    ``compute`` produces the cell's report object (a simulation for the
    workload kinds, an attack run for ``attack`` cells); everything
    else — lookup, rebuild, installation — is kind-independent.
    """
    global _HITS, _MISSES
    fp = fingerprint(descriptor)
    cached = _CACHE.get(fp)
    if cached is not None:
        _HITS += 1
        return cached
    _MISSES += 1
    if _STORE is not None:
        stored = _STORE.get(fp, descriptor)
        if stored is not None:
            result = RunResult(
                name=name, mode=mode,
                report=_report_from_dict(descriptor["kind"], stored))
            _CACHE[fp] = result
            return result
    report = compute()
    result = RunResult(name=name, mode=mode, report=report)
    _CACHE[fp] = result
    if _STORE is not None:
        _STORE.put(fp, descriptor, report.to_dict())
    return result


def run_microbench(spec: MicrobenchSpec, mode: str,
                   config: MachineConfig | None = None,
                   engine: str | None = None) -> RunResult:
    """Simulate one microbenchmark configuration (cached).

    ``mode`` names the registered defense: it selects both the compiler
    transform and the machine hooks through the defense registry.
    """
    engine = engine or get_default_engine()
    defense = get_defense(mode)
    descriptor = cell_descriptor("micro", spec, mode, config, engine)
    return _cached_run(
        descriptor,
        lambda: simulate(
            compile_microbench(spec, defense.compile_mode).program,
            defense=defense, config=config, engine=engine),
        spec.name, mode)


def run_djpeg(spec: DjpegSpec, mode: str,
              config: MachineConfig | None = None,
              engine: str | None = None) -> RunResult:
    """Simulate one djpeg configuration (cached)."""
    engine = engine or get_default_engine()
    defense = get_defense(mode)
    descriptor = cell_descriptor("djpeg", spec, mode, config, engine)
    return _cached_run(
        descriptor,
        lambda: simulate(
            compile_djpeg(spec, defense.compile_mode).program,
            defense=defense, config=config, engine=engine),
        spec.name, mode)


def run_workload(spec: WorkloadRunSpec, mode: str,
                 config: MachineConfig | None = None,
                 engine: str | None = None) -> RunResult:
    """Simulate one registry-workload configuration (cached)."""
    engine = engine or get_default_engine()
    defense = get_defense(mode)
    descriptor = cell_descriptor("workload", spec, mode, config, engine)
    return _cached_run(
        descriptor,
        lambda: simulate(
            compile_workload(spec, defense.compile_mode).program,
            defense=defense, config=config, engine=engine),
        spec.name, mode)


def run_attack(spec: AttackSpec, mode: str,
               config: MachineConfig | None = None,
               engine: str | None = None) -> RunResult:
    """Evaluate one attack cell (cached).

    ``mode`` names the defense the victim runs under (``plain`` =
    unprotected baseline, ``sempe``, or any registered scheme); the
    resulting
    :class:`~repro.security.attackers.AttackReport` flows through the
    same two-level cache as simulation reports, so a repeated attack
    sweep is served from the store instead of re-attacked.
    """
    engine = engine or get_default_engine()
    descriptor = cell_descriptor("attack", spec, mode, config, engine)
    return _cached_run(
        descriptor,
        lambda: execute_attack(spec, mode, config=config, engine=engine),
        spec.name, mode)


def run_verify(spec: VerifySpec, mode: str,
               config: MachineConfig | None = None,
               engine: str | None = None) -> RunResult:
    """Evaluate one static-vs-dynamic verify cell (cached).

    Runs the workload × defense pair through the static analyzer, the
    defense-transform verifier, and the dynamic noninterference
    experiment; the resulting
    :class:`~repro.analysis.differential.VerifyReport` flows through
    the same two-level cache as simulation reports, so a repeated
    ``repro verify`` is served from the store.
    """
    engine = engine or get_default_engine()
    descriptor = cell_descriptor("verify", spec, mode, config, engine)
    return _cached_run(
        descriptor,
        lambda: execute_verify(spec, mode, config=config, engine=engine),
        spec.name, mode)
