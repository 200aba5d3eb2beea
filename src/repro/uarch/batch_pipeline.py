"""Batched timing path: lockstep lane sharing + digest-keyed memoization.

PR 7 vectorized the *functional* half of the engine; this module batches
the *timing* half.  :func:`lane_outcomes` serves every lane of a
:class:`~repro.arch.batch.BatchExecutor` with far fewer pipeline passes
than lanes, exact per lane, through two cooperating mechanisms:

1. **Lockstep lane sharing.**  Lanes are keyed by
   :meth:`~repro.arch.batch.BatchExecutor.lane_timing_digest` — a
   content digest of everything the timing model reads (static tables,
   dynamic ``(pc, addr, taken)`` columns, per-lane address patches).
   Lanes with equal digests feed the pipeline byte-identical input, so
   one pass serves all of them.  SeMPE lanes are lockstep *by
   construction*: their only per-lane trace values are secure-branch
   outcomes, which the pipeline never consults (§IV-E), so a whole
   SeMPE campaign usually collapses to a single digest.  When a batch
   group holds several distinct digests (secret-indexed addresses), the
   predictor pass — whose inputs are group-invariant — still runs once
   per group (:meth:`~repro.uarch.pipeline.OutOfOrderPipeline.branch_schedule`,
   Phase A) and only the per-lane scheduling/memory pass (Phase B)
   repeats per digest.

2. **Digest-keyed memoization.**  Each pass's full
   :class:`PipelineOutcome` (stats, miss rates, residue digests,
   transient digest) is cached under ``(machine-config fingerprint,
   defense fingerprint, machine flags, lane digest)`` in a bounded
   process-wide table, so identical lanes *across* calls — and
   identical cells across a sweep — cost one pass.  Hit/miss counters
   surface through the CLI's ``--cache-stats`` plumbing
   (:func:`memo_info`); :func:`set_memo_enabled` exists so the parity
   suite can prove the cache is semantically transparent.

The serial pipeline (:meth:`OutOfOrderPipeline.run_chunks` without a
schedule) stays the oracle: ``tests/uarch/test_pipeline_batch_parity.py``
pins per-lane bit-identical :class:`~repro.uarch.pipeline.PipelineStats`
under every registered defense, speculation on and off.

Faulted lanes are never timed or memoized: their entry in the returned
list is ``None`` and callers re-raise
:meth:`~repro.arch.batch.BatchExecutor.lane_error` exactly where the
serial generator would have.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.arch.trace import TRANSIENT_PC_BASE
from repro.fingerprint import config_fingerprint
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import BranchSchedule, OutOfOrderPipeline, \
    PipelineStats


@dataclass
class PipelineOutcome:
    """Everything one lane's timing pass produces.

    The full observable surface of a serial per-lane pipeline run —
    stats, miss rates, the attacker-facing residue digests, and the
    wrong-path (transient) digest — so a memo hit can serve
    ``simulate`` and ``collect_observations_batch`` without touching a
    pipeline at all.
    """

    stats: PipelineStats
    miss_rates: dict[str, float] = field(default_factory=dict)
    cache_digest: str = ""
    cache_occupancy: tuple = ()
    predictor_digest: str = ""
    transient_digest: str = ""


def residue_digests(hierarchy, predictor, btb, ittage, ras):
    """Post-run residue channels of one machine: cache digest, per-set
    occupancy, predictor digest.

    Residue channels expose the *attacker-facing* views: identical to
    the ground truth on an undefended machine, narrowed by the cache
    defenses (partitioning hides the reserved ways, randomization
    denies per-set resolution).  Takes the structures explicitly so
    the predictor residue can come from the group-shared Phase-A pass
    while the cache residue stays per lane.
    """
    caches = (hierarchy.il1, hierarchy.dl1, hierarchy.l2)
    cache_state = tuple(
        tuple(sorted(cache.attacker_resident_lines())) for cache in caches)
    cache_digest = hashlib.sha256(repr(cache_state).encode()).hexdigest()
    cache_occupancy = tuple(
        tuple(cache.attacker_occupancy()) for cache in caches)
    predictor_state = (
        predictor.state_digest(),
        btb.state_digest(),
        ittage.state_digest(),
        ras.state_digest(),
    )
    predictor_digest = hashlib.sha256(
        repr(predictor_state).encode()
    ).hexdigest()
    return cache_digest, cache_occupancy, predictor_digest


def scale_chunk_drains(chunks, scale: float):
    """Scale drain-row SPM cycles in a chunk stream (non-ArchRS snapshot
    mechanisms).  Drain rows have ``-3 <= pc < 0`` and carry their SPM
    cycles in the addr column; transient rows sit at ``pc <= -4`` and
    carry memory addresses, so they must never be scaled.  Mutates the
    chunk columns in place — callers must hold per-lane copies (which
    :meth:`BatchExecutor.lane_chunks` always yields).
    """
    for chunk in chunks:
        pc = chunk.pc
        addr = chunk.addr
        for i in range(chunk.n):
            if TRANSIENT_PC_BASE < pc[i] < 0:
                addr[i] = max(1, int(round(addr[i] * scale)))
        yield chunk


def transient_tee(chunks, transient_hash, line_bytes: int):
    """Tee a chunk stream, hashing its transient rows column-wise into
    the ``transient-memory`` channel's digest: what a same-core attacker
    reconstructs from the lines the squashed instructions touched —
    static pc, then the touched data line for rows that carry a memory
    address.  The one implementation both the serial
    (:meth:`~repro.core.engine.SempeMachine.run`) and the batched
    timing paths use."""
    for chunk in chunks:
        for pc, addr in zip(chunk.pc, chunk.addr):
            if pc <= TRANSIENT_PC_BASE:
                transient_hash.update(
                    (TRANSIENT_PC_BASE - pc).to_bytes(8, "little"))
                if addr >= 0:
                    transient_hash.update(
                        (addr // line_bytes).to_bytes(8, "little",
                                                      signed=False))
        yield chunk


# --------------------------------------------------------------------------
# The memo cache
# --------------------------------------------------------------------------

# Entries are small (a few dozen ints and hex digests each); 4096 covers
# a large sweep's worth of distinct (stream, machine) pairs.
MEMO_CAPACITY = 4096

_MEMO: OrderedDict[tuple, PipelineOutcome] = OrderedDict()
_HITS = 0
_MISSES = 0
_SHARED = 0
_memo_enabled = True


def set_memo_enabled(enabled: bool) -> bool:
    """Toggle the cross-call memo (the parity suite's transparency
    switch).  In-call lane sharing is a structural property of the
    batch, not a cache, and stays on.  Returns the previous setting."""
    global _memo_enabled
    previous = _memo_enabled
    _memo_enabled = enabled
    return previous


def clear_memo() -> None:
    """Drop every memoized outcome and reset the counters."""
    global _HITS, _MISSES, _SHARED
    _MEMO.clear()
    _HITS = 0
    _MISSES = 0
    _SHARED = 0


def memo_info() -> dict[str, int]:
    """Hit/miss/share counters for the pipeline memo (``--cache-stats``).

    ``hits`` are lanes served from the cross-call memo, ``misses`` are
    actual pipeline passes, and ``shared`` are lanes served by another
    lane's pass within the same batch (the lockstep-sharing win).
    """
    return {"hits": _HITS, "misses": _MISSES, "shared": _SHARED,
            "entries": len(_MEMO)}


def _memo_get(key: tuple) -> PipelineOutcome | None:
    if not _memo_enabled:
        return None
    outcome = _MEMO.get(key)
    if outcome is not None:
        _MEMO.move_to_end(key)
    return outcome


def _memo_put(key: tuple, outcome: PipelineOutcome) -> None:
    if not _memo_enabled:
        return
    _MEMO[key] = _clone(outcome)
    while len(_MEMO) > MEMO_CAPACITY:
        _MEMO.popitem(last=False)


def _clone(outcome: PipelineOutcome) -> PipelineOutcome:
    """A mutation-isolated copy (stats are mutable dataclasses; the
    digests and occupancy tuples are immutable and safely shared)."""
    return PipelineOutcome(
        stats=dataclasses.replace(outcome.stats),
        miss_rates=dict(outcome.miss_rates),
        cache_digest=outcome.cache_digest,
        cache_occupancy=outcome.cache_occupancy,
        predictor_digest=outcome.predictor_digest,
        transient_digest=outcome.transient_digest,
    )


# --------------------------------------------------------------------------
# The batched timing path
# --------------------------------------------------------------------------

def lane_outcomes(
    executor,
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool = False,
    defense_fingerprint: str = "",
    flush_penalty: int = 0,
    drain_scale: float = 1.0,
    rename_overhead: float = 0.0,
) -> list[PipelineOutcome | None]:
    """One :class:`PipelineOutcome` per lane of a finished batch run.

    *executor* is a :class:`~repro.arch.batch.BatchExecutor` whose
    :meth:`run` has completed.  Faulted lanes get ``None`` — callers
    must re-raise :meth:`lane_error` in lane order, exactly where the
    serial chunk generator would have raised.

    ``flush_penalty`` is the flush-on-exit cycle cost (0 disables the
    exit flush); ``drain_scale`` rescales drain-row SPM cycles for
    non-ArchRS snapshot mechanisms; ``rename_overhead`` is the LRS-style
    per-instruction rename penalty.  All three join the machine-config
    and defense fingerprints in the memo key, so outcomes never alias
    across machines that would time the same stream differently.
    """
    global _HITS, _MISSES, _SHARED

    base_key = (
        config_fingerprint(config),
        defense_fingerprint,
        sempe,
        fence,
        flush_penalty,
        drain_scale,
        rename_overhead,
    )
    n_lanes = executor.n_lanes
    outcomes: list[PipelineOutcome | None] = [None] * n_lanes

    # Pass 1: digest every healthy lane; serve memo hits immediately and
    # queue distinct missing digests (with every lane that wants them).
    missing: "OrderedDict[str, list[int]]" = OrderedDict()
    for lane in range(n_lanes):
        if executor.lane_error(lane) is not None:
            continue
        digest = executor.lane_timing_digest(lane)
        cached = _memo_get(base_key + (digest,))
        if cached is not None:
            _HITS += 1
            outcomes[lane] = _clone(cached)
        else:
            missing.setdefault(digest, []).append(lane)

    if not missing:
        return outcomes

    # Pass 2: group the missing digests by lockstep group.  A group
    # with several distinct digests shares one Phase-A predictor pass;
    # a single-digest group (or a delegated speculation lane) runs the
    # fused single pass.
    by_group: "OrderedDict[object, list[str]]" = OrderedDict()
    for digest, lanes in missing.items():
        by_group.setdefault(
            executor.lane_group_ref(lanes[0]), []).append(digest)

    for _group_ref, digests in by_group.items():
        schedule: BranchSchedule | None = None
        phase_a: OutOfOrderPipeline | None = None
        if len(digests) > 1:
            representative = missing[digests[0]][0]
            phase_a = OutOfOrderPipeline(config, sempe=sempe, fence=fence)
            schedule = phase_a.branch_schedule(
                executor.group_template_chunks(representative))
        for digest in digests:
            lanes = missing[digest]
            outcome = _compute_outcome(
                executor, lanes[0], config, sempe=sempe, fence=fence,
                flush_penalty=flush_penalty, drain_scale=drain_scale,
                rename_overhead=rename_overhead,
                schedule=schedule, phase_a=phase_a)
            _MISSES += 1
            _memo_put(base_key + (digest,), outcome)
            outcomes[lanes[0]] = outcome
            for lane in lanes[1:]:
                _SHARED += 1
                outcomes[lane] = _clone(outcome)
    return outcomes


def _compute_outcome(
    executor,
    lane: int,
    config: MachineConfig,
    *,
    sempe: bool,
    fence: bool,
    flush_penalty: int,
    drain_scale: float,
    rename_overhead: float,
    schedule: BranchSchedule | None,
    phase_a: OutOfOrderPipeline | None,
) -> PipelineOutcome:
    """One actual pipeline pass over one lane's stream (Phase B when a
    group schedule is supplied, the fused single pass otherwise)."""
    pipeline = OutOfOrderPipeline(config, sempe=sempe, fence=fence)
    pipeline.rename_overhead = rename_overhead

    stream = executor.lane_chunks(lane)
    if drain_scale != 1.0:
        # lane_chunks yields per-lane column copies, so the in-place
        # drain scaling can never leak into another lane's stream.
        stream = scale_chunk_drains(stream, drain_scale)
    transient_hash = hashlib.sha256()
    if config.speculation.enabled:
        stream = transient_tee(stream, transient_hash,
                                config.hierarchy.dl1.line_bytes)

    stats = pipeline.run_chunks(stream, schedule)

    if flush_penalty:
        # Constant-cost exit flush: charge it and clear the residue, so
        # the memoized outcome carries the post-flush machine exactly
        # like the serial path.
        stats.cycles += flush_penalty
        pipeline.flush_transient_state()

    # The predictor residue comes from the group-shared Phase-A pass
    # when one ran (this lane's pipeline never touched its predictors);
    # after an exit flush both are power-on fresh, so the per-lane
    # structures are always correct then.
    source = pipeline if (schedule is None or flush_penalty) else phase_a
    cache_digest, cache_occupancy, predictor_digest = residue_digests(
        pipeline.hierarchy, source.predictor, source.btb,
        source.ittage, source.ras)

    return PipelineOutcome(
        stats=stats,
        miss_rates=pipeline.hierarchy.miss_rates(),
        cache_digest=cache_digest,
        cache_occupancy=cache_occupancy,
        predictor_digest=predictor_digest,
        transient_digest=transient_hash.hexdigest(),
    )
