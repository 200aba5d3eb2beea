"""Concrete attacks against SDBCB — the adversary's side of the story.

The noninterference checker asks "do any two secrets look different?".
These classes go further and *recover* the secret from the observation,
demonstrating the §III threat model end-to-end:

* :class:`TimingAttack` — the classic attack on square-and-multiply
  (Fig. 1 of the paper): per-iteration execution time reveals each key
  bit; total time reveals the Hamming weight.
* :class:`BranchTraceAttack` — a stronger adversary who reconstructs
  the victim's committed control-flow trace (e.g. through a shared BTB
  or an execution port / fetch contention probe) and reads the branch
  outcomes directly.
* :class:`NoisyBranchTraceAttack` — the same adversary with an
  imperfect probe: each observed direction flips with some
  probability, and the key is recovered by per-bit majority vote
  across repeated trials (:mod:`repro.security.stats`).

All of them succeed against the baseline machine and fail against the
SeMPE machine (see ``tests/security/test_attacks.py``).  The
statistical multi-trial engine generalizing these to the full victim
registry lives in :mod:`repro.security.attackers`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch.executor import Executor
from repro.core.engine import poke_secrets
from repro.isa.program import Program
from repro.security.stats import majority_vote_bits


@dataclass
class AttackResult:
    """What the adversary learned.

    ``recovered_bits[i]`` is bit *i* of the key (LSB first, matching
    the per-iteration order the victim's loop tests them in), so
    :meth:`as_int` reassembles the key as ``sum(bit << i)``.
    """

    recovered_bits: list[int]
    confidence: str

    def as_int(self) -> int:
        value = 0
        for index, bit in enumerate(self.recovered_bits):
            value |= (bit & 1) << index
        return value


class BranchTraceAttack:
    """Recover secret key bits from the committed branch outcomes.

    The attacker knows the victim's code (per §III) and therefore which
    static branch tests each key bit.  Observing the per-instance
    outcome stream of that branch yields the key directly on a
    conventional machine.  On a SeMPE machine the sJMP always proceeds
    to the NT path first and both paths commit, so the *observable*
    direction sequence is the same for every key.
    """

    def __init__(self, program: Program, sempe: bool) -> None:
        self.program = program
        self.sempe = sempe

    def observed_directions(self, secret_values: dict[str, int],
                            branch_pc: int) -> list[int]:
        """The attacker-visible next-PC direction at each execution of
        *branch_pc*: 1 if the fetch stream continued at the branch
        target, 0 if it fell through.

        The direction is read off the committed record stream itself —
        the PC of the next committed instruction after each execution
        of the branch — not off any machine-mode flag.  On the SeMPE
        machine the stream after an sJMP genuinely continues on the
        fall-through path for every key (the jump-back happens at the
        eosJMP inside a drain), so the observed direction carries no
        information; no special-casing is needed to model that.
        """
        executor = Executor(self.program, sempe=self.sempe)
        poke_secrets(executor.state.memory, self.program.symbols,
                     secret_values)
        target = self.program.instructions[branch_pc].target
        directions: list[int] = []
        pending = False
        for record in executor.run():
            if record.kind != "inst":
                continue          # drains are not fetch redirects
            if pending:
                directions.append(1 if record.pc == target else 0)
                pending = False
            if record.pc == branch_pc and record.taken is not None:
                pending = True
        if pending:
            # The branch was the last committed instruction: the fetch
            # stream ended, i.e. it did not continue at the target.
            directions.append(0)
        return directions

    def recover_key(self, secret_name: str, true_key: int, bits: int,
                    branch_pc: int) -> AttackResult:
        """Run the victim with *true_key* and read the bits back.

        Confidence comes from calibration, not from a machine flag: the
        attacker first runs two known keys (all-zeros and all-ones) and
        only claims ``exact`` recovery when the channel actually
        separates them.  On a SeMPE machine both calibration streams
        are identical, so the verdict is ``none`` regardless of what
        the direction stream happens to look like.
        """
        directions = self.observed_directions({secret_name: true_key},
                                              branch_pc)
        # The modexp loop tests bit i on its i-th execution of the
        # branch; codegen emits "branch-if-zero to skip", so a taken
        # branch means bit == 0.
        bits_seen = [1 - direction for direction in directions[:bits]]
        informative = self.channel_informative(secret_name, bits, branch_pc)
        return AttackResult(
            recovered_bits=bits_seen,
            confidence="exact" if informative else "none",
        )

    def channel_informative(self, secret_name: str, bits: int,
                            branch_pc: int) -> bool:
        """Whether the direction stream separates two known keys —
        the attacker's calibration step."""
        all_ones = (1 << bits) - 1
        return (self.observed_directions({secret_name: 0}, branch_pc)
                != self.observed_directions({secret_name: all_ones},
                                            branch_pc))


class NoisyBranchTraceAttack(BranchTraceAttack):
    """:class:`BranchTraceAttack` through an unreliable probe.

    A real contention probe misreads some rounds; each observed
    direction is flipped with probability *flip* per trial, and the
    adversary repeats the measurement *trials* times, recovering each
    key bit by majority vote.  With ``flip < 0.5`` the vote converges
    on the baseline machine; on SeMPE there is nothing to converge to.
    """

    def __init__(self, program: Program, sempe: bool,
                 flip: float = 0.2, trials: int = 15,
                 seed: int = 0) -> None:
        super().__init__(program, sempe)
        if not 0.0 <= flip < 0.5:
            raise ValueError("flip probability must be in [0, 0.5)")
        self.flip = flip
        self.trials = trials
        self.rng = random.Random(seed)

    def _corrupt(self, directions: list[int]) -> list[int]:
        """One noisy read of an observed direction stream."""
        return [direction ^ (1 if self.rng.random() < self.flip else 0)
                for direction in directions]

    def recover_key(self, secret_name: str, true_key: int, bits: int,
                    branch_pc: int) -> AttackResult:
        # The victim is deterministic, so one clean simulation suffices;
        # only the probe noise is resampled across the repeated trials.
        clean = self.observed_directions({secret_name: true_key}, branch_pc)
        rows = [[1 - d for d in self._corrupt(clean)[:bits]]
                for _ in range(self.trials)]
        voted = majority_vote_bits(rows, self.rng)
        informative = self.channel_informative(secret_name, bits, branch_pc)
        return AttackResult(recovered_bits=voted,
                            confidence="exact" if informative else "none")


class TimingAttack:
    """Recover the key's Hamming weight from end-to-end cycles.

    Calibrates on two known keys (all-zeros and all-ones) and inverts
    the linear time-vs-weight model.  Works whenever the per-bit work
    difference exceeds the noise — which it does on the baseline and
    does not under SeMPE (both paths always run).
    """

    def __init__(self, program: Program, sempe: bool,
                 secret_name: str, bits: int, config=None) -> None:
        self.program = program
        self.sempe = sempe
        self.secret_name = secret_name
        self.bits = bits
        self.config = config

    def _cycles(self, key: int) -> int:
        from repro.security.observer import collect_observation

        trace = collect_observation(
            self.program, defense="sempe" if self.sempe else "plain",
            secret_values={self.secret_name: key}, config=self.config,
        )
        return trace.cycles

    def estimate_weight(self, true_key: int) -> tuple[int | None, int]:
        """Return (estimated Hamming weight or None, actual weight)."""
        zero_cycles = self._cycles(0)
        ones_cycles = self._cycles((1 << self.bits) - 1)
        victim_cycles = self._cycles(true_key)
        actual = bin(true_key & ((1 << self.bits) - 1)).count("1")
        if ones_cycles == zero_cycles:
            return None, actual           # flat timing: attack defeated
        per_bit = (ones_cycles - zero_cycles) / self.bits
        estimate = round((victim_cycles - zero_cycles) / per_bit)
        return max(0, min(self.bits, estimate)), actual
