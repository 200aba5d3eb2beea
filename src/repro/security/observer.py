"""Attacker observation collection.

An :class:`ObservationTrace` bundles everything the threat model allows
the adversary to see for one victim run:

* ``cycles`` — coarse end-to-end timing;
* ``pc_sequence`` — the committed control-flow trace (what an attacker
  reconstructs from a shared fetch engine / branch history);
* ``mem_addresses`` — the data-access address stream (shared-cache
  channel at line granularity);
* ``cache_digest`` — post-run cache tag state (prime-and-probe residue);
* ``predictor_digest`` — post-run branch-predictor state (the branch
  predictor channel);
* ``instruction_count`` — committed instruction count.

:func:`collect_observation` runs a program on the full machine
(functional + timing) and gathers all of them; the machine itself is
assembled by :class:`~repro.core.engine.SempeMachine`, so an
observation's ``cycles`` always equal :func:`~repro.core.engine.simulate`'s
for the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.engine import SempeMachine
from repro.defenses.registry import DefenseSpec
from repro.isa.program import Program
from repro.uarch.config import MachineConfig


@dataclass
class ObservationTrace:
    """Everything the §III attacker can observe for one run."""

    cycles: int
    instruction_count: int
    pc_digest: str
    mem_digest: str
    cache_digest: str
    predictor_digest: str
    # Wrong-path (speculation window) fetch/access stream.  The constant
    # hash-of-nothing whenever speculation is disabled, so the channel is
    # trivially closed on machines without a transient window.
    transient_digest: str = ""
    pc_sequence: list[int] = field(default_factory=list, repr=False)
    mem_addresses: list[int] = field(default_factory=list, repr=False)
    # Per-set valid-line counts (IL1, DL1, L2) — the prime-and-probe
    # residue an attacker measures by timing its own primed lines.
    cache_occupancy: tuple = ()

    def channels(self) -> dict[str, object]:
        """Channel name -> observable value (digests for big streams)."""
        return {
            "timing": self.cycles,
            "instruction-count": self.instruction_count,
            "control-flow": self.pc_digest,
            "memory-address": self.mem_digest,
            "cache-state": self.cache_digest,
            "branch-predictor": self.predictor_digest,
            "transient-memory": self.transient_digest,
        }


class TraceObserver:
    """Streams a functional trace, accumulating observable digests.

    :class:`~repro.core.engine.SempeMachine` feeds it (record by record
    on the serial engines, :meth:`observe_streams` per batch lane) and
    sets ``outcome`` — the post-run timing and residue — once the run
    has finished; :meth:`trace` then assembles the observation.
    """

    def __init__(self, line_bytes: int = 64, keep_streams: bool = False) -> None:
        self.line_bytes = line_bytes
        self.keep_streams = keep_streams
        self.pc_sequence: list[int] = []
        self.mem_addresses: list[int] = []
        self._pc_hash = hashlib.sha256()
        self._mem_hash = hashlib.sha256()
        self.instruction_count = 0
        self.outcome = None

    def observe(self, record) -> None:
        # Committed instructions only: the machine digests the wrong
        # path itself (``outcome.transient_digest``).
        if record.kind != "inst":
            return
        self.instruction_count += 1
        self._pc_hash.update(record.pc.to_bytes(8, "little"))
        if self.keep_streams:
            self.pc_sequence.append(record.pc)
        if record.mem_addr is not None:
            line = record.mem_addr // self.line_bytes
            self._mem_hash.update(line.to_bytes(8, "little", signed=False))
            if self.keep_streams:
                self.mem_addresses.append(line)

    def observe_streams(self, instruction_count: int, pc_values,
                        mem_lines) -> None:
        """Batch twin of :meth:`observe`: one lane's committed PC and
        data-line streams at once (numpy arrays, as
        :meth:`~repro.arch.batch.BatchExecutor.lane_streams` returns
        them), hashed to the same digests record-by-record observation
        produces."""
        self.instruction_count += instruction_count
        self._pc_hash.update(pc_values.astype("<u8").tobytes())
        self._mem_hash.update(mem_lines.astype("<u8").tobytes())
        if self.keep_streams:
            self.pc_sequence.extend(pc_values.tolist())
            self.mem_addresses.extend(mem_lines.tolist())

    def trace(self) -> ObservationTrace:
        """The observation of the finished run (requires ``outcome``)."""
        outcome = self.outcome
        return ObservationTrace(
            cycles=outcome.stats.cycles,
            instruction_count=self.instruction_count,
            pc_digest=self.pc_digest,
            mem_digest=self.mem_digest,
            cache_digest=outcome.cache_digest,
            predictor_digest=outcome.predictor_digest,
            transient_digest=outcome.transient_digest,
            pc_sequence=self.pc_sequence,
            mem_addresses=self.mem_addresses,
            cache_occupancy=outcome.cache_occupancy,
        )

    @property
    def pc_digest(self) -> str:
        return self._pc_hash.hexdigest()

    @property
    def mem_digest(self) -> str:
        return self._mem_hash.hexdigest()


def collect_observation(
    program: Program,
    secret_values: dict[str, object] | None = None,
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    keep_streams: bool = False,
    max_instructions: int = 50_000_000,
    engine: str | None = None,
    defense: str | DefenseSpec | None = None,
) -> ObservationTrace:
    """Run *program* with the given secrets and collect the observation.

    ``secret_values`` maps symbol names (resolved through ``symbols`` or
    ``program.symbols``) to the values poked into memory before the run.

    ``defense`` (a registered name or a :class:`DefenseSpec`) selects
    the protection scheme whose machine-side hooks the victim runs
    under (config overrides, SeMPE hardware, fences, exit flush) *and*
    whose attacker model shapes the residue channels: partitioned or
    randomized caches expose their attacker-facing views (see
    :meth:`repro.mem.cache.Cache.attacker_occupancy`), an exit flush
    clears the residue before it is digested.

    ``engine`` selects the engine (default the session default); all
    three produce identical observations, so leak verdicts are
    engine-independent — which the victim test suite asserts for every
    registered workload.

    **Hermeticity contract:** every call builds a fresh executor,
    pipeline, cache hierarchy, prefetchers, and predictors, and never
    mutates *program* or *config*.  Two calls with the same arguments
    return identical traces regardless of what ran in between — the
    multi-trial attack engine depends on this (residue from a previous
    trial, e.g. a trained ``StridePrefetcher`` table, must never
    masquerade as a leak), and ``tests/security/test_observer.py``
    pins it on every engine.
    """
    machine = SempeMachine(config, engine=engine, defense=defense)
    observer = TraceObserver(machine.config.hierarchy.dl1.line_bytes,
                             keep_streams)
    machine.run(program, max_instructions, secret_values=secret_values,
                symbols=symbols, observer=observer)
    return observer.trace()


def collect_observations_batch(
    program: Program,
    secret_sets: list[dict[str, object] | None],
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    keep_streams: bool = False,
    max_instructions: int = 50_000_000,
    defense: str | DefenseSpec | None = None,
) -> list[ObservationTrace]:
    """One observation per secret set, executed as a single batch.

    The batch engine (:meth:`~repro.core.engine.SempeMachine.run_lanes`)
    decodes the program once and steps every trial together, so a
    whole profiling campaign pays one functional execution instead of
    ``len(secret_sets)``; each lane's observation is byte-identical to
    :func:`collect_observation` on the same secrets (the batch-parity
    suite pins this under every registered defense).

    The hermeticity contract carries over per lane: every lane gets a
    fresh timing pipeline, cache hierarchy, and predictors, and the
    residue digests are taken per lane, so trials cannot contaminate
    each other any more than back-to-back serial calls could.
    """
    machine = SempeMachine(config, engine="batch", defense=defense)
    line_bytes = machine.config.hierarchy.dl1.line_bytes
    observers = [TraceObserver(line_bytes, keep_streams)
                 for _ in secret_sets]
    machine.run_lanes(program, secret_sets, max_instructions,
                      symbols=symbols, observers=observers)
    return [observer.trace() for observer in observers]
