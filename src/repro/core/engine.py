"""The SeMPE machine: functional execution + timing in one call.

:func:`simulate` is the main entry point of the library::

    from repro import simulate
    report = simulate(program, defense="sempe")
    print(report.cycles, report.pipeline.ipc)

``defense`` names a registered protection scheme
(:mod:`repro.defenses`): ``sempe`` (the default) is the paper's
machine; ``plain`` models the unprotected baseline running the same
binary (SecPrefix ignored, ``eosJMP`` decoded as NOP) — identical
core, no security; the other schemes apply their machine hooks
(fences, cache partitioning/randomization, exit flush) on the
baseline core.

Three functional engines produce bit-identical
:class:`SimulationReport`\\ s, all timed by the one out-of-order loop,
:meth:`~repro.uarch.pipeline.OutOfOrderPipeline.run_chunks`:

* ``fast`` (the default) — predecoded dispatch plus a columnar batched
  trace (:class:`~repro.arch.fast_executor.FastExecutor`);
* ``batch`` — the trial-batched vectorized engine
  (:class:`~repro.arch.batch.BatchExecutor`, numpy-backed); a single
  ``simulate`` call runs it with one lane, but observation campaigns
  (:func:`repro.security.observer.collect_observations_batch`, through
  :meth:`SempeMachine.run_lanes`) share one decode and one batched
  execution across all their trials;
* ``reference`` — the original object-per-instruction executor, kept
  as the readable *functional* oracle; its record stream reaches the
  timing loop encoded as chunks (:meth:`Executor.run_chunks
  <repro.arch.executor.Executor.run_chunks>`).

The timing itself is pinned by committed golden reports
(``tests/core/golden/``).

Select with the ``engine=`` argument, :func:`set_default_engine` (the
CLI's ``--engine`` flag), or the ``REPRO_ENGINE`` environment variable.

:class:`SempeMachine` is the one place a ``(config, defense, engine)``
triple becomes a timed run: :func:`simulate` and both observation
collectors are thin wrappers around it, so every entry point reports
the same machine for the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from dataclasses import dataclass, field

from repro.arch.executor import ExecutionResult, Executor
from repro.arch.fast_executor import FastExecutor
from repro.core.jbtable import JumpBackTable
from repro.core.snapshots import ArchRS, make_snapshot_mechanism
from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.mem.scratchpad import ScratchpadMemory
from repro.uarch.batch_pipeline import (
    PipelineOutcome,
    lane_outcomes,
    residue_digests,
    scale_chunk_drains,
    transient_tee,
)
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import OutOfOrderPipeline, PipelineStats


@dataclass
class SimulationReport:
    """Everything a benchmark or experiment needs from one run."""

    program_name: str
    sempe: bool
    cycles: int
    functional: ExecutionResult
    pipeline: PipelineStats
    miss_rates: dict[str, float] = field(default_factory=dict)
    final_regs: list[int] = field(default_factory=list)

    @property
    def instructions(self) -> int:
        return self.functional.instructions

    @property
    def ipc(self) -> float:
        return self.pipeline.ipc

    def overhead_vs(self, baseline: "SimulationReport") -> float:
        """Execution-time ratio against *baseline* (1.0 = equal)."""
        if baseline.cycles == 0:
            return float("inf")
        return self.cycles / baseline.cycles

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe) for the on-disk result store."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationReport":
        """Rebuild a report from :meth:`to_dict` output.

        Round-trips bit-exactly: every field of the nested
        :class:`~repro.arch.executor.ExecutionResult` and
        :class:`~repro.uarch.pipeline.PipelineStats` is a plain int,
        bool, float, or str-keyed dict of ints.
        """
        return cls(
            program_name=data["program_name"],
            sempe=data["sempe"],
            cycles=data["cycles"],
            functional=ExecutionResult(**data["functional"]),
            pipeline=PipelineStats(**data["pipeline"]),
            miss_rates=dict(data["miss_rates"]),
            final_regs=list(data["final_regs"]),
        )


# Engine registry.  All three are bit-identical (the golden reports and
# the parity suites enforce it); "reference" stays as the readable
# functional oracle.  "batch" requires numpy and shines on multi-trial
# campaigns.
ENGINES = ("fast", "batch", "reference")
_default_engine = "fast"
_default_engine_overridden = False


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (the CLI's ``--engine``).

    An explicit call wins over the ``REPRO_ENGINE`` environment
    variable; the env var only steers runs that never chose an engine.
    """
    global _default_engine, _default_engine_overridden
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    _default_engine = name
    _default_engine_overridden = True


def get_default_engine() -> str:
    """The engine used when ``simulate`` is called without ``engine=``."""
    if _default_engine_overridden:
        return _default_engine
    return os.environ.get("REPRO_ENGINE") or _default_engine


def _resolve_engine(name: str | None) -> str:
    resolved = (name or get_default_engine()).lower()
    if resolved not in ENGINES:
        raise ValueError(f"unknown engine {resolved!r}; choose from {ENGINES}")
    return resolved


def resolve_defense(defense: "str | DefenseSpec | None") -> DefenseSpec:
    """The :class:`DefenseSpec` a machine should run under: a spec
    passes through, a name is looked up in the registry, and ``None``
    is the SeMPE machine."""
    if isinstance(defense, DefenseSpec):
        return defense
    return get_defense(defense or "sempe")


def flush_penalty_cycles(config: MachineConfig) -> int:
    """Cycles a full transient-state flush costs (flush-local defense).

    One cycle per cache *frame* (set x way), every level, independent
    of what is resident — a secret-dependent flush time would itself be
    a channel, so the model charges the constant worst case.
    """
    hierarchy = config.hierarchy
    return sum(cache.n_sets * cache.assoc
               for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2))


def poke_secrets(memory, symbols: dict[str, int],
                 secret_values: dict[str, object] | None) -> None:
    """Install secret values into *memory* before a victim run.

    This is the one place secrets are encoded into the machine: scalar
    secrets are masked to the 8-byte word their ``secret int`` symbol
    occupies, and array secrets (lists/tuples) fill consecutive 8-byte
    words.  Every consumer — observation collection, the attack
    engine, the leak experiments — must poke through here so attacker
    and victim agree on the secret's width and encoding.
    """
    for name, value in (secret_values or {}).items():
        if isinstance(value, (list, tuple)):
            for index, element in enumerate(value):
                memory.store(symbols[name] + 8 * index,
                             element & ((1 << 64) - 1), 8)
        else:
            memory.store(symbols[name], value & ((1 << 64) - 1), 8)


class SempeMachine:
    """A configured machine that can run programs.

    ``defense`` names the protection scheme whose *machine-side* hooks
    apply (config overrides, SeMPE hardware, fences, exit flush); the
    scheme's compiler transform is the caller's business — this class
    runs already-compiled programs.

    The constructor resolves everything a run depends on, once: the
    scheme and its applied config, the engine, the SPM and jbTable
    geometry, the snapshot mechanism's rename overhead and drain
    scale, and the exit-flush penalty.  No other timed-run code reads
    those config fields, so :func:`simulate` and the observation
    collectors (:mod:`repro.security.observer`) all time this same
    machine.
    """

    def __init__(self, config: MachineConfig | None = None,
                 engine: str | None = None,
                 defense: str | DefenseSpec | None = None) -> None:
        self.defense = resolve_defense(defense)
        self.config = config = self.defense.apply_config(
            config or MachineConfig())
        self.sempe = self.defense.sempe_machine
        self.fence = self.defense.fence_branches
        self.engine = _resolve_engine(engine)
        # The SPM *timing* uses the paper's architectural state size so
        # snapshot traffic matches the paper's machine even though our ISA
        # has fewer registers.
        mechanism = make_snapshot_mechanism(
            config.snapshot_mechanism,
            n_arch_regs=config.spm_arch_regs,
            n_phys_regs=config.int_phys_regs,
            spm_bytes_per_cycle=config.spm_bytes_per_cycle,
        )
        self.rename_overhead = mechanism.rename_overhead_per_instruction()
        self.drain_scale = _drain_scale(mechanism)
        self.flush_penalty = (flush_penalty_cycles(config)
                              if self.defense.flush_on_exit else 0)

    def _executor_args(self, max_instructions: int) -> dict:
        """Constructor arguments every engine's executor shares; the SPM
        and jbTable are fresh per run (the serial executors mutate them,
        the batch executor reads them as geometry prototypes)."""
        config = self.config
        return dict(
            sempe=self.sempe,
            spm=ScratchpadMemory(
                n_slots=config.spm_slots,
                n_arch_regs=NUM_REGS,
                bytes_per_cycle=config.spm_bytes_per_cycle,
            ),
            jbtable=JumpBackTable(depth=config.jbtable_depth),
            max_instructions=max_instructions,
            speculation=config.speculation,
            fence=self.fence,
        )

    def run(self, program: Program, max_instructions: int = 50_000_000,
            *, secret_values: dict[str, object] | None = None,
            symbols: dict[str, int] | None = None,
            observer=None) -> SimulationReport:
        """Execute *program* functionally and through the timing model.

        ``secret_values`` are poked into memory before the run (symbol
        names resolved through ``symbols`` or ``program.symbols``).  An
        ``observer`` (:class:`~repro.security.observer.TraceObserver`)
        is fed the run's trace record by record, and afterwards gets
        the post-run :class:`~repro.uarch.batch_pipeline.PipelineOutcome`
        (residue and transient digests included) as ``observer.outcome``.

        The fast and reference engines share this serial path —
        ``run_chunks`` → drain scaling → observer tee → the timing
        loop; the batch engine runs as one lane of :meth:`run_lanes`.
        """
        if self.engine == "batch":
            return self.run_lanes(
                program, [secret_values], max_instructions, symbols=symbols,
                observers=None if observer is None else [observer])[0]
        config = self.config
        executor_cls = FastExecutor if self.engine == "fast" else Executor
        executor = executor_cls(program, **self._executor_args(
            max_instructions))
        poke_secrets(executor.state.memory,
                     program.symbols if symbols is None else symbols,
                     secret_values)
        pipeline = OutOfOrderPipeline(config, sempe=self.sempe,
                                      fence=self.fence)
        pipeline.rename_overhead = self.rename_overhead
        stream = executor.run_chunks(
            line_bytes=config.hierarchy.il1.line_bytes)
        if self.drain_scale != 1.0:
            stream = scale_chunk_drains(stream, self.drain_scale)
        transient_hash = hashlib.sha256()
        if observer is not None:
            if config.speculation.enabled:
                stream = transient_tee(stream, transient_hash,
                                       config.hierarchy.dl1.line_bytes)
            stream = _observed_chunks(stream, observer)
        stats = pipeline.run_chunks(stream)
        if self.flush_penalty:
            # Constant-cost exit flush; the residue itself is cleared
            # so post-run observers see a secret-independent machine.
            stats.cycles += self.flush_penalty
            pipeline.flush_transient_state()
        miss_rates = pipeline.hierarchy.miss_rates()
        if observer is not None:
            observer.outcome = PipelineOutcome(
                stats, miss_rates,
                *residue_digests(pipeline.hierarchy, pipeline.predictor,
                                 pipeline.btb, pipeline.ittage,
                                 pipeline.ras),
                transient_digest=transient_hash.hexdigest())
        return SimulationReport(
            program_name=program.name,
            sempe=self.sempe,
            cycles=stats.cycles,
            functional=executor.result,
            pipeline=stats,
            miss_rates=miss_rates,
            final_regs=executor.state.snapshot_regs(),
        )

    def run_lanes(self, program: Program,
                  secret_sets: list[dict[str, object] | None],
                  max_instructions: int = 50_000_000, *,
                  symbols: dict[str, int] | None = None,
                  observers: list | None = None) -> list[SimulationReport]:
        """One run per secret set, as the lanes of one batched execution.

        The :class:`~repro.arch.batch.BatchExecutor` decodes *program*
        once and steps every lane together;
        :func:`~repro.uarch.batch_pipeline.lane_outcomes` times them
        (lockstep sharing plus the cross-call memo) and applies the exit
        flush, drain scaling and rename overhead itself.  Each lane's
        report equals a serial :meth:`run` on the same secrets.  With
        ``observers`` (one per lane), each gets its lane's committed
        streams (:meth:`TraceObserver.observe_streams`) and outcome.
        """
        from repro.arch.batch import BatchExecutor

        config = self.config
        executor = BatchExecutor(program, n_lanes=len(secret_sets),
                                 **self._executor_args(max_instructions))
        symbol_table = program.symbols if symbols is None else symbols
        for lane, secret_values in enumerate(secret_sets):
            poke_secrets(executor.memory.lane_view(lane), symbol_table,
                         secret_values)
        executor.run(line_bytes=config.hierarchy.il1.line_bytes)
        outcomes = lane_outcomes(
            executor, config,
            sempe=self.sempe,
            fence=self.fence,
            defense_fingerprint=self.defense.fingerprint(),
            flush_penalty=self.flush_penalty,
            drain_scale=self.drain_scale,
            rename_overhead=self.rename_overhead,
        )
        reports = []
        for lane, outcome in enumerate(outcomes):
            if outcome is None:
                # Faulted lane: raise in lane order, exactly where the
                # serial per-lane generator would have.
                raise executor.lane_error(lane)
            if observers is not None:
                observer = observers[lane]
                observer.observe_streams(
                    *executor.lane_streams(lane, observer.line_bytes))
                observer.outcome = outcome
            reports.append(SimulationReport(
                program_name=program.name,
                sempe=self.sempe,
                cycles=outcome.stats.cycles,
                functional=executor.lane_result(lane),
                pipeline=outcome.stats,
                miss_rates=outcome.miss_rates,
                final_regs=executor.lane_regs(lane),
            ))
        return reports


def _drain_scale(mechanism) -> float:
    """SPM-traffic ratio of the configured mechanism vs ArchRS.

    The functional executor charges ArchRS-shaped SPM cycles into its
    drain events; alternative mechanisms (PhyRS, LRS) scale that traffic
    by the ratio of their per-snapshot footprint.
    """
    if mechanism.name == "ArchRS":
        return 1.0
    reference = ArchRS(
        n_arch_regs=mechanism.n_arch_regs,
        n_phys_regs=mechanism.n_phys_regs,
        reg_bytes=mechanism.reg_bytes,
        spm_bytes_per_cycle=mechanism.spm_bytes_per_cycle,
    )
    return mechanism.snapshot_bytes() / max(reference.snapshot_bytes(), 1)


def _observed_chunks(chunks, observer):
    """Tee a chunk stream into *observer* through the re-materializing
    ``records()`` adapter (bit-identical to the reference stream by the
    chunk protocol) while the timing model consumes the chunks natively."""
    for chunk in chunks:
        for record in chunk.records():
            observer.observe(record)
        yield chunk


def simulate(
    program: Program,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str | None = None,
    defense: str | DefenseSpec | None = None,
) -> SimulationReport:
    """Run *program* under a protection scheme and report.

    ``defense`` names a registered scheme (``repro defenses list``) or
    is a :class:`DefenseSpec`; its machine-side hooks apply, and the
    default is ``"sempe"``.

    ``engine`` selects the simulation engine (``"fast"``, ``"batch"``
    or ``"reference"``, default :func:`get_default_engine`); all three
    produce bit-identical reports.
    """
    machine = SempeMachine(config=config, engine=engine, defense=defense)
    return machine.run(program, max_instructions=max_instructions)
