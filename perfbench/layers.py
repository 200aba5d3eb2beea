"""Per-layer spans for the traced benchmark run.

The traced run wraps the public functions and methods each layer's
callers invoke, from outside the program: nothing in ``src/`` knows it
is being measured.  A wrapper is installed on the attribute the caller
actually resolves at call time:

* a module-level function imported by name (``from m import f``) is
  replaced in every loaded ``repro`` module that bound it, because the
  importer's global is what its call site reads;
* a method is replaced on its class, so instances built afterwards
  (and hot loops that bind ``obj.method`` once before the loop) get
  the wrapper.

Self time is exclusive: a span's duration minus the part its child
spans cover.  Every span's full duration is added to its parent's child
total, so the self times of all spans sum to the time spent inside
top-level spans, and ``traced wall - that sum`` is time no layer claims.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Span self times, span counts, and named counters for one pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        # Child-time accumulators, one per open span; the base entry
        # collects the duration of every top-level span.
        self._stack: list[float] = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def spanned_s(self) -> float:
        """Total duration of the top-level spans (= sum of self times)."""
        return self._stack[0]

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """*fn* timed as one span per call; ``after(result, args)`` runs
        once the span has closed (for counters read off the result)."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - stack.pop()
                stack[-1] += duration
                calls[name] += 1
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_iter(self, name: str, fn, done=None):
        """A generator function whose every step is one span.

        The consumer's work between steps is not inside the span — for
        a chunk stream that is the timing model, not the executor.
        ``done(args)`` runs when the stream is exhausted.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def steps(it, args):
            step = it.__next__
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = step()
                except StopIteration:
                    break
                finally:
                    duration = clock() - start
                    self_s[name] += duration - stack.pop()
                    stack[-1] += duration
                    calls[name] += 1
                yield item
            if done is not None:
                done(args)

        def wrapper(*args, **kwargs):
            return steps(iter(fn(*args, **kwargs)), args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value*; :meth:`restore` undoes it."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, *, after=None,
                    steps: bool = False, done=None) -> None:
        """Wrap ``cls.attr`` (defined on *cls* itself) as span *name*."""
        original = cls.__dict__[attr]
        wrapper = (self.span_iter(name, original, done) if steps
                   else self.span(name, original, after))
        self.replace(cls, attr, wrapper)

    def wrap_function(self, module: str, attr: str, name: str, *,
                      after=None, recursive: bool = False) -> int:
        """Wrap function ``module.attr`` wherever a ``repro`` module bound
        it; returns how many bindings were replaced.

        A *recursive* function keeps its own module's binding, so only
        the outside call opens a span and the recursion stays inside it.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.span(name, original, after)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if recursive and mod_name == module:
                continue
            if mod.__dict__.get(attr) is original:
                self.replace(mod, attr, wrapper)
                replaced += 1
        if replaced == 0:
            raise RuntimeError(f"no caller binds {module}.{attr}")
        return replaced

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    Span names are the per-layer metric stems in ``interactions.json``.
    Call after the workload's set-up has imported everything it runs,
    so by-name imports are already bound and can be found.
    """
    from repro.analysis import dataflow
    from repro.arch import batch, fast_executor, trace
    from repro.harness import store
    from repro.isa import program
    from repro.mem import hierarchy
    from repro.security import observer
    from repro.uarch import pipeline
    from repro.uarch.branch import base, bimodal, btb, gshare, ittage, tage

    counters = tracer.counters

    # lang / isa
    tracer.wrap_function("repro.lang.compiler", "compile_source",
                         "lang.compile")
    tracer.wrap_method(program.Program, "predecode", "isa.predecode")

    # arch: functional execution (chunk generation and batch runs)
    def fast_done(args):
        counters["arch.functional_insts"] += args[0].result.instructions

    def batch_after(_result, args):
        executor = args[0]
        counters["arch.functional_insts"] += sum(
            executor.lane_result(lane).instructions
            for lane in range(executor.n_lanes)
            if executor.lane_error(lane) is None)

    tracer.wrap_method(fast_executor.FastExecutor, "run_chunks",
                       "arch.functional", steps=True, done=fast_done)
    tracer.wrap_method(batch.BatchExecutor, "run", "arch.functional",
                       after=batch_after)
    for attr in ("lane_chunks", "group_template_chunks"):
        tracer.wrap_method(batch.BatchExecutor, attr, "arch.functional",
                           steps=True)

    # uarch: the timing loop, machine construction, branch prediction
    def pipeline_after(stats, _args):
        for field in ("branches", "mispredicts", "dl1_accesses",
                      "dl1_misses", "l2_accesses", "l2_misses"):
            counters[f"pipeline.{field}"] += getattr(stats, field)

    tracer.wrap_method(pipeline.OutOfOrderPipeline, "run_chunks",
                       "uarch.pipeline", after=pipeline_after)
    tracer.wrap_method(pipeline.OutOfOrderPipeline, "branch_schedule",
                       "uarch.pipeline")
    tracer.wrap_method(pipeline.OutOfOrderPipeline, "__init__",
                       "uarch.pipeline.build")
    # Every direction predictor, ITTAGE and the BTB.
    for cls in [cls for module in (base, bimodal, gshare, tage, ittage, btb)
                for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and "predict" in cls.__dict__]:
        tracer.wrap_method(cls, "predict", "uarch.branch.predict")
        tracer.wrap_method(cls, "update", "uarch.branch.update")

    # mem
    tracer.wrap_method(hierarchy.MemoryHierarchy, "data_latency",
                       "mem.data_latency")
    tracer.wrap_method(hierarchy.MemoryHierarchy, "fetch_latency",
                       "mem.fetch_latency")

    # uarch.batch_pipeline
    tracer.wrap_function("repro.uarch.batch_pipeline", "lane_outcomes",
                         "uarch.batch_pipeline.lane_outcomes")

    # security: observation, statistics, observation keys
    def batch_observed(traces, _args):
        counters["security.observer.batch_records"] += sum(
            t.instruction_count for t in traces)

    tracer.wrap_function("repro.security.observer", "collect_observation",
                         "security.observer.collect")
    tracer.wrap_function("repro.security.observer",
                         "collect_observations_batch",
                         "security.observer.collect", after=batch_observed)
    tracer.wrap_method(observer.TraceObserver, "observe",
                       "security.observer.observe")
    # The observer's record adapter; one span per chunk, materialized
    # inside it so the re-materialization cost is the observer's.
    records = trace.TraceChunk.__dict__["records"]
    tracer.replace(trace.TraceChunk, "records", tracer.span(
        "security.observer.adapter",
        lambda chunk: iter(list(records(chunk)))))
    tracer.wrap_function("repro.security.stats", "permutation_test",
                         "security.stats.permutation")
    tracer.wrap_function("repro.security.leakage", "observation_key",
                         "security.leakage.observation_key", recursive=True)

    # analysis
    tracer.wrap_method(dataflow.TaintDataflow, "__init__",
                       "analysis.dataflow")
    tracer.wrap_function("repro.analysis.verifier",
                         "verify_defense_transform", "analysis.verifier")
    tracer.wrap_function("repro.analysis.report", "build_report",
                         "analysis.report")

    # harness: store I/O, sweep dispatch, the simulate entry point
    tracer.wrap_method(store.ResultStore, "put", "harness.store.put")
    tracer.wrap_method(store.ResultStore, "get", "harness.store.get")
    tracer.wrap_function("repro.harness.sweep", "run_sweep",
                         "harness.sweep.dispatch")
    tracer.wrap_function("repro.harness.parallel", "run_cells",
                         "harness.sweep.dispatch")
    tracer.wrap_function("repro.core.engine", "simulate", "core.simulate")
