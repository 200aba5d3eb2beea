"""The benchmark's three workloads: what one pass runs and how each
operation's output is checked.

Every workload is a fixed list of operations (a sweep cell, an attack
cell, a verify pair) evaluated in order in one process with
``jobs=1``.  The seed is the attack campaigns' ``AttackSpec.seed`` (the
trial noise, class order and key they draw); the sweep and verify grids
have no generated inputs, so their outputs do not depend on it.  A pass starts from the state a first-time
user has: the run cache and the pipeline memo cleared, and for the
sweep an empty result store.  Imports, compilation, predecoding and a
warm-up operation happen in :meth:`Workload.setup`, before any pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# The sweep grid: Fig. 10a at nesting depths 1 and 2 plus Fig. 8 djpeg
# at the smallest default image size.
SWEEP_W = (1, 2)
SWEEP_DJPEG_SIZES = (512,)

# Attack cells beyond memcmp x every applicable attacker.  djpeg
# flush-reload is left out: at ~88 s it would swamp every other cell.
ATTACK_PAIRS = (("modexp", "prime-probe"), ("gcd", "flush-reload"),
                ("table_lookup", "timing"), ("bsearch", "branch-trace"),
                ("spectre", "mistrain-reload"))
ATTACK_MODES = ("plain", "sempe")


@dataclass
class Op:
    """One operation: ``run()`` returns the output dict ``check`` judges
    (``None`` when correct, else what is wrong)."""

    key: str
    run: object
    check: object


@dataclass
class PassResult:
    """What one pass measured."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    sim_cycles: int = 0
    sim_insts: int = 0
    outputs: dict[str, dict] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


class SimTotals:
    """Simulated cycles and instructions of every observation built.

    Attack and verify operations return verdicts, not simulation
    reports; the simulated work behind a verdict is the set of
    :class:`~repro.security.observer.ObservationTrace` objects it
    built, which this counts at construction (a few hundred per pass).
    """

    def __init__(self) -> None:
        self.cycles = 0
        self.insts = 0

    def install(self) -> None:
        from repro.security.observer import ObservationTrace

        original = ObservationTrace.__init__
        totals = self

        def __init__(trace, *args, **kwargs):
            original(trace, *args, **kwargs)
            totals.cycles += trace.cycles
            totals.insts += trace.instruction_count

        ObservationTrace.__init__ = __init__


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """Base class: subclasses build ops and their set-up."""

    name = ""

    def __init__(self, seed: int, reference: dict | None) -> None:
        self.seed = seed
        self.reference = None if reference is None \
            else reference.get(self.name, {})
        self.ops = self.build_ops()
        self.sims = SimTotals()

    # -- subclass hooks ----------------------------------------------------

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def programs(self):
        """Every (compiled program, icache line size) the ops run."""
        raise NotImplementedError

    def warm_up_op(self) -> Op:
        raise NotImplementedError

    def begin_pass(self) -> None:
        from repro.harness.runner import clear_cache, set_store

        clear_cache()           # run cache and pipeline memo
        set_store(None)

    def end_pass(self, result: PassResult) -> None:
        from repro.harness.runner import cache_info
        from repro.uarch.batch_pipeline import memo_info

        info = cache_info()
        lookups = info["hits"] + info["misses"]
        result.counters["harness.runner.cache_hit_ratio"] = \
            info["hits"] / lookups if lookups else 0.0
        memo = memo_info()
        lanes = memo["hits"] + memo["misses"] + memo["shared"]
        result.counters["uarch.batch_pipeline.memo_hit_ratio"] = \
            memo["hits"] / lanes if lanes else 0.0
        result.counters["uarch.batch_pipeline.passes_per_lane"] = \
            memo["misses"] / lanes if lanes else 0.0

    def finish_pass(self) -> None:
        """Undo what ``begin_pass`` set up (untimed)."""

    # -- passes ------------------------------------------------------------

    def setup(self) -> None:
        """Compile and predecode every program, then warm up once."""
        self.sims.install()
        for program, line_bytes in self.programs():
            program.predecode(line_bytes)
        self.begin_pass()
        try:
            op = self.warm_up_op()
            problem = op.check(self.evaluate(op))
            if problem:
                raise RuntimeError(f"warm-up {op.key}: {problem}")
        finally:
            self.finish_pass()

    def run_pass(self, speed=None) -> PassResult:
        """One pass over every op.  With a :class:`hostspeed.HostSpeed`,
        slices run during the pass; their time is left out of the pass's
        wall time and its latencies."""
        result = PassResult()
        self.begin_pass()
        try:
            with speed if speed is not None else contextlib.nullcontext():
                self._timed_ops(result, speed)
            self.end_pass(result)
        finally:
            self.finish_pass()
        return result

    def _timed_ops(self, result: PassResult, speed) -> None:
        clock = time.perf_counter

        def sliced() -> float:
            return speed.total_s if speed is not None else 0.0

        start, start_sliced = clock(), sliced()
        for op in self.ops:
            op_start, op_sliced = clock(), sliced()
            try:
                output = self.evaluate(op)
            except Exception:
                output = None
                result.failed += 1
                print(f"op {op.key} raised:", file=sys.stderr)
                traceback.print_exc()
            result.latencies.append(clock() - op_start
                                    - (sliced() - op_sliced))
            if speed is not None:
                speed.end_op()
            if output is None:
                continue
            result.sim_cycles += output["sim_cycles"]
            result.sim_insts += output["sim_insts"]
            result.outputs[op.key] = output
            problem = op.check(output)
            if problem:
                result.failed += 1
                print(f"op {op.key} wrong: {problem}", file=sys.stderr)
        self.after_ops()
        result.wall_s = clock() - start - (sliced() - start_sliced)

    def evaluate(self, op: Op) -> dict:
        """Run *op*; its output with the simulated work it did."""
        cycles, insts = self.sims.cycles, self.sims.insts
        output = op.run()
        output.setdefault("sim_cycles", self.sims.cycles - cycles)
        output.setdefault("sim_insts", self.sims.insts - insts)
        return output

    def after_ops(self) -> None:
        """Work a user pays after the last op (inside the timed pass)."""

    def check_reference(self, key: str, output: dict,
                        fields: tuple[str, ...]) -> str | None:
        """Mismatch against the recorded reference, or ``None``.

        Without a reference file (while recording one) there is nothing
        to compare; a missing *entry* is a mismatch, never a skip.
        """
        if self.reference is None:
            return None
        want = self.reference.get(key)
        if want is None:
            return "no reference entry"
        got = {name: output[name] for name in fields}
        want = {name: want.get(name) for name in fields}
        if got != want:
            return f"reference mismatch: got {got}, want {want}"
        return None


class SweepWorkload(Workload):
    """Fig. 10a (W in {1, 2}) and Fig. 8 djpeg (512 px) through
    ``run_sweep`` on the default engine into a fresh store."""

    name = "sweep"
    FIELDS = ("sim_cycles", "sim_insts", "miss_rates")

    def build_ops(self) -> list[Op]:
        from repro.harness.experiments import experiment_cells

        self.cells = (
            experiment_cells("fig10a", w_sweep=SWEEP_W)
            + experiment_cells("fig8", sizes=SWEEP_DJPEG_SIZES))
        return [self._op(cell) for cell in self.cells]

    def _op(self, cell) -> Op:
        from repro.harness.sweep import SweepSpec, run_sweep

        key = f"{cell.kind}:{cell.spec.name}:{cell.mode}"

        def run():
            stats = run_sweep(SweepSpec(key, [cell]), jobs=1)
            if not stats.ok or stats.computed != 1:
                raise RuntimeError(stats.summary())
            report = cell.run().report
            return {"sim_cycles": report.cycles,
                    "sim_insts": report.instructions,
                    "miss_rates": dict(report.miss_rates)}

        return Op(key, run,
                  lambda output: self.check_reference(key, output,
                                                      self.FIELDS))

    def programs(self):
        from repro.defenses.registry import get_defense
        from repro.uarch.config import MachineConfig
        from repro.workloads.djpeg import compile_djpeg
        from repro.workloads.microbench import compile_microbench

        line_bytes = MachineConfig().hierarchy.il1.line_bytes
        for cell in self.cells:
            compile_fn = (compile_microbench if cell.kind == "micro"
                          else compile_djpeg)
            compiled = compile_fn(cell.spec,
                                  get_defense(cell.mode).compile_mode)
            yield compiled.program, line_bytes

    def warm_up_op(self) -> Op:
        cell = next(c for c in self.cells if c.kind == "micro"
                    and c.spec.workload == "fibonacci" and c.spec.w == 1
                    and c.mode == "plain")
        return self._op(cell)

    def begin_pass(self) -> None:
        from repro.harness.runner import set_store
        from repro.harness.store import ResultStore

        super().begin_pass()
        self.store_dir = tempfile.mkdtemp(prefix=".perfbench-store-",
                                          dir=os.getcwd())
        set_store(ResultStore(self.store_dir))

    def after_ops(self) -> None:
        from repro.harness.experiments import render_experiment

        # What `repro sweep fig10a fig8` does once the cells are warm.
        render_experiment("fig10a", w_sweep=SWEEP_W)
        render_experiment("fig8", sizes=SWEEP_DJPEG_SIZES)

    def end_pass(self, result: PassResult) -> None:
        super().end_pass(result)
        result.counters["harness.store.bytes_written"] = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(self.store_dir)
            for name in names)

    def finish_pass(self) -> None:
        from repro.harness.runner import set_store

        set_store(None)
        shutil.rmtree(self.store_dir, ignore_errors=True)


class AttackWorkload(Workload):
    """Plain and SeMPE attack cells on the batch engine, store off."""

    name = "attack"

    def build_ops(self) -> list[Op]:
        from repro.harness.experiments import ATTACK_TRIALS
        from repro.security.attackers import (
            AttackSpec,
            applicable_attackers,
        )

        pairs = [("memcmp", attacker)
                 for attacker in applicable_attackers("memcmp")]
        pairs += list(ATTACK_PAIRS)
        self.specs = [AttackSpec(workload, attacker, trials=ATTACK_TRIALS,
                                 seed=self.seed)
                      for workload, attacker in pairs]
        return [self._op(spec, mode)
                for spec in self.specs for mode in ATTACK_MODES]

    def _op(self, spec, mode: str) -> Op:
        from repro.harness.runner import run_attack
        from repro.security.attackers import expected_verdict

        key = f"{spec.workload}+{spec.attacker}:{mode}"
        expected = expected_verdict(spec.attacker, mode)

        def run():
            report = run_attack(spec, mode, engine="batch").report
            return {"verdict": report.verdict}

        def check(output):
            # A scheme that makes no claim about the attacker's channel
            # (expected None) is informative; its simulated work is
            # still checked below.
            if expected is not None and output["verdict"] != expected:
                return f"verdict {output['verdict']}, expected {expected}"
            return self.check_reference(key, output,
                                        ("sim_cycles", "sim_insts"))

        return Op(key, run, check)

    def programs(self):
        from repro.defenses.registry import get_defense
        from repro.security.attackers import attack_config
        from repro.workloads.registry import get_workload

        line_bytes = attack_config().hierarchy.il1.line_bytes
        for spec in self.specs:
            workload = get_workload(spec.workload)
            params = workload.leak_resolve(spec.params)
            for mode in ATTACK_MODES:
                compiled = workload.compile(
                    get_defense(mode).compile_mode, **params)
                yield compiled.program, line_bytes

    def warm_up_op(self) -> Op:
        spec = next(s for s in self.specs
                    if (s.workload, s.attacker) == ("memcmp", "timing"))
        return self._op(spec, "plain")


class VerifyWorkload(Workload):
    """Every victim x every defense through the static-vs-dynamic
    differential on the default engine, store off."""

    name = "verify"

    def build_ops(self) -> list[Op]:
        from repro.harness.experiments import verify_cells

        self.cells = verify_cells()
        return [self._op(cell) for cell in self.cells]

    def _op(self, cell) -> Op:
        from repro.harness.sweep import ensure_cells

        key = f"{cell.spec.workload}:{cell.mode}"

        def run():
            stats = ensure_cells("verify", [cell], jobs=1)
            if not stats.ok:
                raise RuntimeError(stats.summary())
            report = cell.run().report
            return {"ok": report.ok, "dynamic": list(report.dynamic)}

        def check(output):
            if not output["ok"]:
                return f"verify report not ok (dynamic {output['dynamic']})"
            return self.check_reference(key, output,
                                        ("sim_cycles", "sim_insts"))

        return Op(key, run, check)

    def programs(self):
        from repro.defenses.registry import get_defense
        from repro.workloads.registry import get_workload

        for cell in self.cells:
            workload = get_workload(cell.spec.workload)
            params = workload.leak_resolve(cell.spec.params)
            compiled = workload.compile(
                get_defense(cell.mode).compile_mode, **params)
            yield compiled.program, cell.config.hierarchy.il1.line_bytes

    def warm_up_op(self) -> Op:
        cell = next(c for c in self.cells
                    if (c.spec.workload, c.mode) == ("gcd", "plain"))
        return self._op(cell)


WORKLOADS = {cls.name: cls
             for cls in (SweepWorkload, AttackWorkload, VerifyWorkload)}
