"""Engine performance benchmark: reference vs fast vs batch, inst/second.

Runs the microbenchmark sweep (all four workloads x {sempe, plain}) on
all three engines, measures end-to-end ``simulate()`` throughput,
verifies the engines agree bit-for-bit on cycles and final registers,
times a 64-trial functional campaign (one :class:`BatchExecutor` vs 64
serial :class:`FastExecutor` runs over per-trial secrets — the attack
profiling shape), and appends one entry to the ``BENCH_perf.json``
trajectory artifact at the repo root so throughput is tracked across
commits.

Every entry carries the **same** schema (:data:`SCHEMA_KEYS`) — all
engine rows plus python/CPU provenance — so downstream tooling
(``bench_gate.py``, plots) never has to special-case old shapes.

Run directly::

    REPRO_BENCH_SCALE=quick python -m pytest benchmarks/bench_perf_engine.py -q -s

or via ``make bench-perf``.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.arch.fast_executor import FastExecutor
from repro.core.engine import simulate
from repro.core.engine import poke_secrets
from repro.workloads.microbench import (
    MicrobenchSpec,
    compile_microbench,
)

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCH_perf.json")

# The end-to-end speedup the fast engine must beat; the recorded
# artifact carries the actual measurement (>= 3x on an idle machine).
MIN_SPEEDUP = 2.0

# The aggregate functional speedup the batched engine must beat on a
# 64-trial campaign (the PR acceptance criterion; ~18x measured).
MIN_CAMPAIGN_SPEEDUP = 10.0

# The aggregate *with-timing* speedup the batched pipeline (lockstep
# lane sharing + digest-keyed memoization) must beat on the same
# campaign (this PR's acceptance criterion; the SeMPE campaign
# collapses to a single pipeline pass, so the measured value is far
# higher).
MIN_CAMPAIGN_CYCLES_SPEEDUP = 5.0

CAMPAIGN_TRIALS = 64
CAMPAIGN_WORKLOAD = "memcmp"

# The fixed trajectory-entry schema.  Every run emits exactly these
# keys; ``validate_entry`` is the single checker shared with the CI
# bench-smoke job (via ``bench_gate.py --check-schema``).
SCHEMA_KEYS = (
    "timestamp",
    "scale",
    "python",
    "cpu",
    "workloads",
    "total_instructions",
    "reference_ips",
    "fast_ips",
    "batch_ips",
    "reference_seconds",
    "fast_seconds",
    "batch_seconds",
    "speedup",
    "batch_speedup",
    "pipeline_ips",
    "pipeline_spec_ips",
    "fast_functional_ips",
    "campaign_trials",
    "campaign_serial_ips",
    "campaign_ips",
    "campaign_speedup",
    "campaign_cycles_serial_ips",
    "campaign_cycles_ips",
    "campaign_cycles_speedup",
    "pipeline_batch_ips",
    "defense_overheads",
)


def validate_entry(entry: dict) -> list[str]:
    """Return a list of schema violations for one trajectory entry
    (empty when the entry conforms)."""
    problems = []
    missing = [key for key in SCHEMA_KEYS if key not in entry]
    extra = [key for key in entry if key not in SCHEMA_KEYS]
    if missing:
        problems.append(f"missing keys: {missing}")
    if extra:
        problems.append(f"unexpected keys: {extra}")
    for key in ("reference_ips", "fast_ips", "batch_ips",
                "pipeline_ips", "pipeline_spec_ips",
                "fast_functional_ips", "campaign_serial_ips",
                "campaign_ips", "campaign_cycles_serial_ips",
                "campaign_cycles_ips", "pipeline_batch_ips"):
        value = entry.get(key)
        if key in entry and (not isinstance(value, (int, float))
                             or value <= 0):
            problems.append(f"{key} must be a positive number, got {value!r}")
    if "defense_overheads" in entry and \
            not isinstance(entry["defense_overheads"], dict):
        problems.append("defense_overheads must be a mapping")
    if "python" in entry and not isinstance(entry["python"], str):
        problems.append("python must be a version string")
    return problems


def _cpu_model() -> str:
    """Best-effort CPU identification without third-party deps."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _sweep_programs(scale):
    w = scale["w_sweep"][1] if len(scale["w_sweep"]) > 1 else scale["w_sweep"][0]
    programs = []
    for workload in scale["workloads"]:
        for mode in ("sempe", "plain"):
            spec = MicrobenchSpec(workload, w=w, iters=2)
            compiled = compile_microbench(spec, mode)
            programs.append((spec.name, compiled.program, mode))
    return programs


def _time_engine(programs, engine):
    instructions = 0
    reports = {}
    started = time.perf_counter()
    for name, program, defense in programs:
        report = simulate(program, defense=defense, engine=engine)
        instructions += report.instructions
        reports[(name, defense)] = report
    elapsed = time.perf_counter() - started
    return instructions / elapsed, elapsed, reports


def _time_fast_functional(programs):
    """Functional-only throughput of the serial fast engine (chunks
    drained, no timing pipeline) — the hot-loop recovery record."""
    instructions = 0
    started = time.perf_counter()
    for _name, program, defense in programs:
        executor = FastExecutor(program, sempe=(defense == "sempe"))
        for _chunk in executor.run_chunks(64):
            pass
        instructions += executor.result.instructions
    return instructions / (time.perf_counter() - started)


def _time_speculation(programs, enabled):
    """End-to-end pipeline throughput (fast engine) with the
    transient-execution window off vs on.  The two rows track the cost
    of the speculation machinery: the ``enabled=False`` row guards the
    default path (the window must stay ~free when off), the
    ``enabled=True`` row guards the wrong-path replay itself."""
    from repro.uarch.config import MachineConfig

    config = MachineConfig()
    config.speculation.enabled = enabled
    instructions = 0
    started = time.perf_counter()
    for _name, program, defense in programs:
        report = simulate(program, defense=defense, engine="fast",
                          config=config)
        instructions += report.instructions
    return instructions / (time.perf_counter() - started)


def _campaign_secrets(spec, trials):
    """Deterministic per-trial secret sets shaped like the workload's
    canonical secrets (byte tuples for memcmp)."""
    sample = spec.secret_values({})[0]
    width = len(sample)
    secrets = []
    for trial in range(trials):
        secrets.append(tuple((trial * 37 + index * 11 + 3) % 256
                             for index in range(width)))
    return secrets


def _time_campaign(trials=CAMPAIGN_TRIALS):
    """Aggregate functional throughput of a *trials*-lane campaign:
    one batched execution vs the same trials run serially.

    Matches the attack-profiling shape (`collect_observations_batch`):
    one predecoded program, per-trial secrets, full chunk streams
    materialised per lane.  The timing pipeline is excluded on both
    sides — it is per-lane serial either way (see README).
    """
    from repro.arch.batch import BatchExecutor
    from repro.workloads.registry import get_workload

    spec = get_workload(CAMPAIGN_WORKLOAD)
    program = spec.compile("sempe").program
    secrets = _campaign_secrets(spec, trials)

    started = time.perf_counter()
    serial_instructions = 0
    serial_chunks = 0
    for secret in secrets:
        executor = FastExecutor(program, sempe=True)
        poke_secrets(executor.state.memory, program.symbols,
                     {spec.secret: secret})
        for chunk in executor.run_chunks(64):
            serial_chunks += chunk.n
        serial_instructions += executor.result.instructions
    serial_seconds = time.perf_counter() - started
    serial_ips = serial_instructions / serial_seconds

    started = time.perf_counter()
    executor = BatchExecutor(program, sempe=True, n_lanes=trials)
    for lane, secret in enumerate(secrets):
        poke_secrets(executor.memory.lane_view(lane), program.symbols,
                     {spec.secret: secret})
    executor.run(line_bytes=64)
    batch_instructions = 0
    batch_chunks = 0
    for lane in range(trials):
        for chunk in executor.lane_chunks(lane):
            batch_chunks += chunk.n
        batch_instructions += executor.lane_result(lane).instructions
    batch_seconds = time.perf_counter() - started
    batch_ips = batch_instructions / batch_seconds

    assert batch_instructions == serial_instructions, \
        "campaign engines executed different instruction counts"
    assert batch_chunks == serial_chunks, \
        "campaign engines emitted different trace lengths"
    return serial_ips, batch_ips


def _time_campaign_cycles(trials=CAMPAIGN_TRIALS):
    """Aggregate throughput of a *trials*-lane campaign **with timing**:
    per-lane serial pipelines vs the batched timing path
    (:func:`repro.uarch.batch_pipeline.lane_outcomes` — lockstep lane
    sharing + digest-keyed memoization, measured cold).

    Returns ``(serial_ips, batched_ips, pipeline_batch_ips)`` where the
    first two are end-to-end (functional + timing) and the last is the
    timing-model side alone — the batched counterpart of the serial
    ``pipeline_ips`` row.  Exactness is asserted per lane, so the
    speedup claim only counts because the stats agree bit-for-bit.
    """
    from repro.arch.batch import BatchExecutor
    from repro.defenses import get_defense
    from repro.uarch import batch_pipeline
    from repro.uarch.config import MachineConfig
    from repro.uarch.pipeline import OutOfOrderPipeline
    from repro.workloads.registry import get_workload

    spec = get_workload(CAMPAIGN_WORKLOAD)
    program = spec.compile("sempe").program
    secrets = _campaign_secrets(spec, trials)
    defense = get_defense("sempe")
    config = defense.apply_config(MachineConfig())
    line_bytes = config.hierarchy.il1.line_bytes

    started = time.perf_counter()
    serial_stats = []
    serial_instructions = 0
    for secret in secrets:
        executor = FastExecutor(program, sempe=True)
        poke_secrets(executor.state.memory, program.symbols,
                     {spec.secret: secret})
        pipeline = OutOfOrderPipeline(config, sempe=True)
        serial_stats.append(
            pipeline.run_chunks(executor.run_chunks(line_bytes=line_bytes)))
        serial_instructions += executor.result.instructions
    serial_seconds = time.perf_counter() - started
    serial_ips = serial_instructions / serial_seconds

    # Best of three cold runs: the batched path finishes in a fraction
    # of a second, so a single sample would sit inside scheduler jitter.
    batch_seconds = timing_seconds = float("inf")
    for _attempt in range(3):
        batch_pipeline.clear_memo()   # measure the batched path cold
        started = time.perf_counter()
        executor = BatchExecutor(program, sempe=True, n_lanes=trials)
        for lane, secret in enumerate(secrets):
            poke_secrets(executor.memory.lane_view(lane), program.symbols,
                         {spec.secret: secret})
        executor.run(line_bytes=line_bytes)
        timing_started = time.perf_counter()
        outcomes = batch_pipeline.lane_outcomes(
            executor, config, sempe=True,
            defense_fingerprint=defense.fingerprint())
        finished = time.perf_counter()
        timing_seconds = min(timing_seconds, finished - timing_started)
        batch_seconds = min(batch_seconds, finished - started)
    batch_instructions = sum(executor.lane_result(lane).instructions
                             for lane in range(trials))

    assert batch_instructions == serial_instructions, \
        "campaign engines executed different instruction counts"
    for lane, stats in enumerate(serial_stats):
        assert outcomes[lane].stats == stats, \
            f"batched pipeline diverged from serial on lane {lane}"
    return (serial_ips, batch_instructions / batch_seconds,
            batch_instructions / timing_seconds)


def _defense_overheads(scale):
    """Cycle overhead of every registered defense vs the unprotected
    baseline on one representative microbenchmark (fast engine)."""
    from repro.defenses import iter_defenses
    from repro.workloads.microbench import compile_microbench as _compile

    w = scale["w_sweep"][0]
    spec = MicrobenchSpec(scale["workloads"][0], w=w, iters=2)
    base = simulate(_compile(spec, "plain").program, defense="plain",
                    engine="fast").cycles
    overheads = {}
    for defense in iter_defenses():
        program = _compile(spec, defense.compile_mode).program
        cycles = simulate(program, defense=defense.name,
                          engine="fast").cycles
        overheads[defense.name] = round(cycles / base, 3)
    return overheads


def _append_trajectory(entry):
    trajectory = []
    if os.path.exists(ARTIFACT):
        try:
            with open(ARTIFACT, "r", encoding="utf-8") as handle:
                trajectory = json.load(handle)
        except (json.JSONDecodeError, OSError):
            trajectory = []
    trajectory.append(entry)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")


def measure(scale) -> dict:
    """Run every measurement and return one schema-complete entry.

    Shared with ``bench_gate.py`` so the CI perf gate and the
    trajectory artifact can never drift apart on methodology.
    """
    programs = _sweep_programs(scale)

    # Warm all code paths (predecode caches, imports) outside the clock.
    for engine in ("fast", "reference", "batch"):
        simulate(programs[0][1], defense=programs[0][2], engine=engine)

    reference_ips, reference_s, reference_reports = _time_engine(
        programs, "reference")
    fast_ips, fast_s, fast_reports = _time_engine(programs, "fast")
    batch_ips, batch_s, batch_reports = _time_engine(programs, "batch")
    speedup = fast_ips / reference_ips
    batch_speedup = batch_ips / reference_ips

    # The speedup claims only count because the engines agree exactly.
    for key, reference in reference_reports.items():
        for contender in (fast_reports[key], batch_reports[key]):
            assert reference.cycles == contender.cycles, key
            assert reference.final_regs == contender.final_regs, key
            assert reference.miss_rates == contender.miss_rates, key

    pipeline_ips = _time_speculation(programs, enabled=False)
    pipeline_spec_ips = _time_speculation(programs, enabled=True)
    fast_functional_ips = _time_fast_functional(programs)
    campaign_serial_ips, campaign_ips = _time_campaign()
    campaign_cycles_serial_ips, campaign_cycles_ips, pipeline_batch_ips = \
        _time_campaign_cycles()

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "quick"),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "workloads": list(scale["workloads"]),
        "total_instructions": sum(
            report.instructions for report in reference_reports.values()),
        "reference_ips": round(reference_ips),
        "fast_ips": round(fast_ips),
        "batch_ips": round(batch_ips),
        "reference_seconds": round(reference_s, 3),
        "fast_seconds": round(fast_s, 3),
        "batch_seconds": round(batch_s, 3),
        "speedup": round(speedup, 2),
        "batch_speedup": round(batch_speedup, 2),
        # Speculation-window cost rows: same sweep through the full
        # pipeline with the window off (default path; must stay ~free)
        # and on (wrong-path replay cost).
        "pipeline_ips": round(pipeline_ips),
        "pipeline_spec_ips": round(pipeline_spec_ips),
        # Satellite record: serial fast engine with the pipeline
        # excluded — where the hot-loop hoists actually show up.
        "fast_functional_ips": round(fast_functional_ips),
        "campaign_trials": CAMPAIGN_TRIALS,
        "campaign_serial_ips": round(campaign_serial_ips),
        "campaign_ips": round(campaign_ips),
        "campaign_speedup": round(campaign_ips / campaign_serial_ips, 2),
        # The with-timing campaign rows: end-to-end (functional +
        # pipeline) serial vs batched, plus the timing-model side alone
        # (the batched counterpart of pipeline_ips).
        "campaign_cycles_serial_ips": round(campaign_cycles_serial_ips),
        "campaign_cycles_ips": round(campaign_cycles_ips),
        "campaign_cycles_speedup": round(
            campaign_cycles_ips / campaign_cycles_serial_ips, 2),
        "pipeline_batch_ips": round(pipeline_batch_ips),
        # Per-defense execution-time overhead (x vs plain) on the first
        # workload, so the trajectory tracks the cost of every scheme.
        "defense_overheads": _defense_overheads(scale),
    }


def test_bench_perf_engine(scale):
    entry = measure(scale)
    assert not validate_entry(entry), validate_entry(entry)
    _append_trajectory(entry)

    print(f"\nreference: {entry['reference_ips']:,} inst/s   "
          f"fast: {entry['fast_ips']:,} inst/s   "
          f"batch(1): {entry['batch_ips']:,} inst/s   "
          f"speedup: {entry['speedup']:.2f}x")
    print(f"campaign x{entry['campaign_trials']}: "
          f"serial {entry['campaign_serial_ips']:,} inst/s   "
          f"batched {entry['campaign_ips']:,} inst/s   "
          f"speedup: {entry['campaign_speedup']:.2f}x")
    print(f"campaign+timing x{entry['campaign_trials']}: "
          f"serial {entry['campaign_cycles_serial_ips']:,} inst/s   "
          f"batched {entry['campaign_cycles_ips']:,} inst/s   "
          f"speedup: {entry['campaign_cycles_speedup']:.2f}x   "
          f"pipeline-only {entry['pipeline_batch_ips']:,} inst/s")
    assert entry["speedup"] >= MIN_SPEEDUP, (
        f"fast engine only {entry['speedup']:.2f}x faster "
        f"(floor {MIN_SPEEDUP}x); see {ARTIFACT}"
    )
    assert entry["campaign_speedup"] >= MIN_CAMPAIGN_SPEEDUP, (
        f"batched campaign only {entry['campaign_speedup']:.2f}x over "
        f"serial (floor {MIN_CAMPAIGN_SPEEDUP}x); see {ARTIFACT}"
    )
    assert entry["campaign_cycles_speedup"] >= MIN_CAMPAIGN_CYCLES_SPEEDUP, (
        f"batched timing campaign only "
        f"{entry['campaign_cycles_speedup']:.2f}x over serial "
        f"(floor {MIN_CAMPAIGN_CYCLES_SPEEDUP}x); see {ARTIFACT}"
    )
