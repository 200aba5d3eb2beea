"""The repository benchmark: end-to-end host metrics of ``repro sweep``,
``repro attack run`` and ``repro verify`` workloads, and a traced run
that attributes their time to the simulator's layers.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from ``BENCHMARK.json``; which workload each per-layer
metric should move is in ``perfbench/interactions.json``.

End-to-end pass and op times are scaled to a reference host speed
measured during the same pass (``perfbench/hostspeed.py``); the raw
times go to standard error.  Set-up times are raw.

``--record-reference`` re-records ``perfbench/reference.json``, the
simulated results each operation is checked against.  Do that only for
a deliberate change to the timing model, never to make a check pass.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
INTERACTIONS = os.path.join(HERE, "interactions.json")
SETUP_PROBES = 4        # extra set-ups in fresh processes per run


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def manifest() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str, seed: int, reference: dict | None):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, reference)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes (imports included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(args, workload, setup_main: float) -> dict:
    from hostspeed import HostSpeed

    # --seconds covers the set-up probes and the passes.
    start = time.perf_counter()
    setups = [setup_main] + setup_probes(args)
    passes, speeds, spans = [], [], []
    while True:
        pass_start = time.perf_counter()
        # Every pass starts from a collected heap (untimed), so a pass
        # does not pay for garbage the one before it left.
        gc.collect()
        speeds.append(HostSpeed())
        passes.append(workload.run_pass(speeds[-1]))
        now = time.perf_counter()
        spans.append(now - pass_start)
        if now - start + statistics.median(spans) > args.seconds:
            break
    # Pass and op times are scaled to the reference host speed by the
    # slowdown measured around them (hostspeed.py); raw ones go to
    # stderr.  Set-up times are not: imports and compilation do not
    # track the slices' speed.
    slowdowns = [speed.slowdown for speed in speeds]
    walls = [p.wall_s / k for p, k in zip(passes, slowdowns)]
    # Each op's latency is its median over the run's passes: one slow
    # moment of the host moves one sample of an op, not the op, and the
    # tail's percentile does not depend on how many passes fit.
    op_latencies = [statistics.median(samples) for samples in zip(
        *([lat / k for lat, k in zip(p.latencies, speed.op_slowdowns())]
          for p, speed in zip(passes, speeds)))]
    op_tail, percentile = tail(op_latencies)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    cycles = {p.sim_cycles for p in passes}
    print(f"passes {len(passes)}, ops {attempted}, set-up samples "
          f"{len(setups)}, op tail = p{percentile:.1f} of "
          f"{len(op_latencies)} per-op medians", file=sys.stderr)
    print("raw wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + ", slowdown " + " ".join(f"{k:.3f}" for k in slowdowns)
          + ", setup_s " + " ".join(f"{s:.3f}" for s in setups),
          file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(op_latencies),
        "op_tail_s": op_tail,
        "sim_ips": statistics.median(p.sim_insts / wall
                                     for p, wall in zip(passes, walls)),
        "sim_cycles": passes[0].sim_cycles,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    problems = []
    if len(cycles) != 1:
        problems.append(f"simulated cycles differ between passes: {cycles}")
    return {"values": values, "attempted": attempted, "failed": failed,
            "problems": problems}


def per_layer(workload) -> dict:
    from layers import Tracer, install

    plain = workload.run_pass()
    tracer = Tracer()
    install(tracer)
    try:
        traced = workload.run_pass()
    finally:
        tracer.restore()
    s, calls = tracer.self_s, tracer.calls
    counters = defaultdict(float, traced.counters)
    counters.update(tracer.counters)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    observer_spans = ("security.observer.collect",
                      "security.observer.observe",
                      "security.observer.adapter")
    values = {
        "lang.compile_s": s["lang.compile"],
        "lang.compile_calls": calls["lang.compile"],
        "isa.predecode_s": s["isa.predecode"],
        "arch.functional_s": s["arch.functional"],
        "arch.functional_insts": counters["arch.functional_insts"],
        "uarch.pipeline_self_s": s["uarch.pipeline"],
        "uarch.pipeline_calls": calls["uarch.pipeline"],
        "uarch.pipeline.build_s": s["uarch.pipeline.build"],
        "uarch.branch.predict_s": s["uarch.branch.predict"],
        "uarch.branch.update_s": s["uarch.branch.update"],
        "uarch.branch.predict_calls": calls["uarch.branch.predict"],
        "uarch.branch.mispredict_ratio": ratio(
            counters["pipeline.mispredicts"], counters["pipeline.branches"]),
        "mem.data_latency_s": s["mem.data_latency"],
        "mem.fetch_latency_s": s["mem.fetch_latency"],
        "mem.accesses": calls["mem.data_latency"]
        + calls["mem.fetch_latency"],
        "mem.dl1_miss_ratio": ratio(counters["pipeline.dl1_misses"],
                                    counters["pipeline.dl1_accesses"]),
        "mem.l2_miss_ratio": ratio(counters["pipeline.l2_misses"],
                                   counters["pipeline.l2_accesses"]),
        "uarch.batch_pipeline.lane_outcomes_s":
            s["uarch.batch_pipeline.lane_outcomes"],
        "uarch.batch_pipeline.memo_hit_ratio":
            counters["uarch.batch_pipeline.memo_hit_ratio"],
        "uarch.batch_pipeline.passes_per_lane":
            counters["uarch.batch_pipeline.passes_per_lane"],
        "security.observer.collect_s": sum(s[n] for n in observer_spans),
        "security.observer.records": calls["security.observer.observe"]
        + counters["security.observer.batch_records"],
        "security.stats.permutation_s": s["security.stats.permutation"],
        "security.stats.permutation_calls":
            calls["security.stats.permutation"],
        "security.leakage.observation_key_s":
            s["security.leakage.observation_key"],
        "analysis.dataflow_s": s["analysis.dataflow"],
        "analysis.verifier_s": s["analysis.verifier"],
        "analysis.report_s": s["analysis.report"],
        "harness.store.put_s": s["harness.store.put"],
        "harness.store.get_s": s["harness.store.get"],
        "harness.store.bytes_written":
            counters["harness.store.bytes_written"],
        "harness.runner.cache_hit_ratio":
            counters["harness.runner.cache_hit_ratio"],
        "harness.sweep.dispatch_self_s": s["harness.sweep.dispatch"],
        "core.simulate_s": s["core.simulate"],
        "unattributed_s": traced.wall_s - tracer.spanned_s,
        "traced_wall_s": traced.wall_s,
        "trace_overhead_s": traced.wall_s - plain.wall_s,
    }
    problems = self_check(workload.name, tracer, traced.wall_s)
    if plain.sim_cycles != traced.sim_cycles:
        problems.append("tracing changed the simulated cycles")
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    top = sorted(s.items(), key=lambda item: -item[1])[:6]
    print("largest self times: " + ", ".join(
        f"{name} {sec:.2f}s" for name, sec in top), file=sys.stderr)
    return {"values": values, "attempted": attempted, "failed": failed,
            "problems": problems}


def self_check(workload: str, tracer, traced_wall: float) -> list[str]:
    """The traced run's predictions (``interactions.json``) and its
    accounting identity; returns what does not hold."""
    with open(INTERACTIONS, encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    problems = []
    mapped = {metric for layer in layers for metric in layer["metrics"]}
    listed = {m["name"] for m in manifest()["per_layer"]}
    if mapped != listed:
        problems.append("interactions.json and BENCHMARK.json disagree on "
                        f"{sorted(mapped ^ listed)}")
    known = {span for layer in layers for span in layer["spans"]}
    unknown = set(tracer.calls) - known
    if unknown:
        problems.append(f"spans missing from interactions.json: {unknown}")
    for layer in layers:
        count = sum(tracer.calls[span] for span in layer["spans"])
        if workload in layer["calls_nonzero_on"] and count == 0:
            problems.append(f"{layer['layer']}: no calls on {workload}")
        if workload in layer["calls_zero_on"] and count != 0:
            problems.append(
                f"{layer['layer']}: {count} calls on {workload}, "
                "predicted none")
    negative = {n: v for n, v in tracer.self_s.items() if v < -1e-9}
    if negative:
        problems.append(f"negative self times: {negative}")
    unattributed = traced_wall - tracer.spanned_s
    total = sum(tracer.self_s.values()) + unattributed
    if unattributed < 0 or abs(total - traced_wall) > 1e-6 * traced_wall:
        problems.append(
            f"self times + unattributed = {total:.6f}s, traced wall "
            f"{traced_wall:.6f}s")
    return problems


def record_reference() -> int:
    from workloads import WORKLOADS

    reference = {}
    for name in WORKLOADS:
        workload = make_workload(name, 0, None)
        workload.setup()
        result = workload.run_pass()
        if result.failed:
            return die(f"{name}: {result.failed} ops failed; "
                       "reference not written")
        fields = ("sim_cycles", "sim_insts", "miss_rates")
        reference[name] = {
            key: {f: out[f] for f in fields if f in out}
            for key, out in sorted(result.outputs.items())}
        print(f"{name}: {len(result.outputs)} ops, "
              f"{result.sim_cycles} cycles", file=sys.stderr)
    from workloads import REFERENCE

    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        return die("run from the repository root: src/repro not found")
    sys.path.insert(0, os.path.abspath("src"))
    if args.record_reference:
        return record_reference()
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        return die(f"unknown workload {args.workload!r}; "
                   f"choose from {sorted(WORKLOADS)}")
    workload = make_workload(args.workload, args.seed, load_reference())
    workload.setup()
    setup_main = time.perf_counter() - _T0
    if args.setup_probe:
        print(setup_main)
        return 0

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest()[section]}
    result = (per_layer(workload) if args.trace
              else end_to_end(args, workload, setup_main))
    values = result["values"]
    if set(values) != set(units):
        return die(f"metrics {sorted(set(values) ^ set(units))} disagree "
                   f"with BENCHMARK.json {section}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name in units:
        print(f"{name:40s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
