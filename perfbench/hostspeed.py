"""How fast the host runs Python right now, so host times can be scaled
to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 1.6x within minutes as other tenants come and go; within one
pass it moves the simulator's time and any other pure-Python loop
together.  A *slice* is a fixed piece of that kind of code: a toy
in-order machine (register file, direct-mapped cache, 2-bit branch
predictor) stepping a fixed program.  It lives here, outside the
program, so no change to ``src/`` changes its work.

During a pass a timer runs a slice every :data:`SLICE_SPACING_S`, also
inside operations, and one more runs after each operation; slice time
is taken out of the pass's wall time and its latencies.  A *slowdown*
is a mean slice time over :data:`REFERENCE_SLICE_S`: dividing a host
time by the slowdown measured around it gives it at the reference
speed.  A pass's wall time is scaled by the pass's slowdown, an
operation's latency by the slowdown of the slices during and next to it
(the host switches speed within a pass, often within an operation).
Simulated results are never scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

# Mean slice time between the operations of a pass on the reference
# host (Intel Xeon at 2.0 GHz, two shared vCPUs, CPython 3.11), so that
# scaled times read close to raw ones there.  Only a unit: another host
# shifts every scaled time by the same factor.
REFERENCE_SLICE_S = 0.005
# Timer period between slices; one more slice runs after each operation.
SLICE_SPACING_S = 0.1
SLICE_STEPS = 12000

# (op, dst, src, imm)
_PROGRAM = (("add", 1, 1, 7), ("mul", 2, 1, 3), ("load", 3, 2, 0),
            ("xor", 4, 3, 1), ("store", 4, 1, 0), ("and", 5, 4, 255),
            ("br", 5, 0, 128), ("add", 6, 6, 1))


class _Machine:
    """The toy machine one slice steps, built fresh for every slice."""

    def __init__(self) -> None:
        self.regs = [0] * 16
        self.tags = [-1] * 1024
        self.counters = [1] * 4096
        self.memory: dict[int, int] = {}
        self.hits = self.misses = self.mispredicts = 0

    def access(self, addr: int) -> None:
        line = addr >> 6
        index = line & 1023
        if self.tags[index] == line:
            self.hits += 1
        else:
            self.tags[index] = line
            self.misses += 1

    def run(self, steps: int) -> int:
        regs, memory, counters = self.regs, self.memory, self.counters
        for step in range(steps):
            op, dst, src, imm = _PROGRAM[step % len(_PROGRAM)]
            if op == "add":
                regs[dst] = (regs[src] + imm) & 0xFFFFFFFF
            elif op == "mul":
                regs[dst] = (regs[src] * imm) & 0xFFFFFFFF
            elif op == "xor":
                regs[dst] = regs[src] ^ imm
            elif op == "and":
                regs[dst] = regs[src] & imm
            elif op == "load":
                addr = regs[src] & 0xFFFFF
                self.access(addr)
                regs[dst] = memory.get(addr, addr)
            elif op == "store":
                addr = regs[src] & 0xFFFFF
                self.access(addr)
                memory[addr] = regs[dst]
            else:
                slot = (step * 2654435761 >> 8) & 4095
                taken = regs[dst] < imm
                if (counters[slot] >= 2) != taken:
                    self.mispredicts += 1
                counters[slot] = (min(3, counters[slot] + 1) if taken
                                  else max(0, counters[slot] - 1))
        return regs[6]


class HostSpeed:
    """The slices of one pass: while it is entered, a timer runs one
    every :data:`SLICE_SPACING_S` (inside operations too), and
    :meth:`end_op` runs one more after each operation."""

    def __init__(self) -> None:
        self.slices = 0
        self.total_s = 0.0
        # Slice times since the previous operation ended, one list per
        # operation.
        self.op_slices: list[list[float]] = []
        self._current: list[float] = []
        self._busy = False
        self._previous_handler = None

    def _slice(self) -> None:
        if self._busy:          # a timer tick inside a slice
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _Machine().run(SLICE_STEPS)
            took = time.perf_counter() - start
        finally:
            self._busy = False
        self.total_s += took
        self.slices += 1
        self._current.append(took)

    def _on_timer(self, _signum, _frame) -> None:
        self._slice()

    def __enter__(self) -> HostSpeed:
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SLICE_SPACING_S,
                         SLICE_SPACING_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def end_op(self) -> None:
        self._slice()
        self.op_slices.append(self._current)
        self._current = []

    @property
    def slowdown(self) -> float:
        """Mean slice time over the reference's (1.0 before any slice)."""
        if not self.slices:
            return 1.0
        return self.total_s / self.slices / REFERENCE_SLICE_S

    def op_slowdowns(self) -> list[float]:
        """Each operation's slowdown: the mean of the slices from the end
        of the operation two before it to right after it (a short one
        has only its own slice, which alone is noisy)."""
        spans = self.op_slices
        return [statistics.mean(spans[i - 1] + spans[i] if i else spans[i])
                / REFERENCE_SLICE_S for i in range(len(spans))]
