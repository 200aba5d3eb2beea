"""The Fig. 1 scenario on the one machine: square-and-multiply ``modexp``.

Key recovery is read straight off what :func:`collect_observation`
gives the §III attacker — the committed PC stream and end-to-end
cycles of a :class:`~repro.core.engine.SempeMachine` run — and then
checked end to end through the registry engine
(:func:`~repro.security.attackers.execute_attack`).  On the baseline
machine the per-bit guard's committed direction is the key bit and the
cycle count is linear in the key's Hamming weight; under SeMPE the
committed stream and the timing are the same for every key.
"""

import pytest

pytestmark = pytest.mark.attack

from repro.security import collect_observation
from repro.security.attackers import (
    AttackSpec,
    applicable_attackers,
    execute_attack,
)
from repro.workloads.registry import get_workload

BITS = 8
KEYS = [0x00, 0x01, 0x5A, 0x80, 0xC3, 0xF0, 0xFF]
MASK = (1 << BITS) - 1


@pytest.fixture(scope="module")
def victims():
    spec = get_workload("modexp")
    return {mode: spec.compile(mode, bits=BITS).program
            for mode in ("plain", "sempe")}


def observe(program, defense, key, config=None):
    return collect_observation(program, defense=defense,
                               secret_values={"ekey": key},
                               config=config, keep_streams=True)


def guard_branch_pc(program, pcs):
    """The key-bit guard: the conditional branch committed exactly BITS
    times (once per loop iteration) in the stream *pcs*."""
    counts = {}
    for pc in pcs:
        counts[pc] = counts.get(pc, 0) + 1
    candidates = [pc for pc, count in counts.items()
                  if count == BITS and program.instructions[pc].is_cond_branch]
    assert candidates
    return candidates[0]


def secure_branch_pc(program):
    for index, inst in enumerate(program.instructions):
        if inst.is_secure_branch:
            return index
    raise AssertionError("no secure branch found")


def directions(program, pcs, branch_pc):
    """1 where the committed stream continued at the branch target right
    after *branch_pc*, 0 where it fell through."""
    target = program.instructions[branch_pc].target
    return [1 if pcs[i + 1] == target else 0
            for i, pc in enumerate(pcs[:-1]) if pc == branch_pc]


def key_from_directions(seen):
    # The loop tests bit i on its i-th execution of the guard, and
    # codegen emits "branch-if-zero to skip": taken means bit == 0.
    return sum((1 - direction) << i for i, direction in enumerate(seen))


@pytest.fixture(scope="module")
def plain_guard(victims):
    program = victims["plain"]
    return guard_branch_pc(program, observe(program, "plain", 0).pc_sequence)


# --------------------------------------------------------------------------
# Branch trace: the committed control flow
# --------------------------------------------------------------------------

@pytest.mark.parametrize("key", KEYS)
def test_committed_guard_directions_spell_key_on_baseline(victims,
                                                          plain_guard, key):
    program = victims["plain"]
    pcs = observe(program, "plain", key).pc_sequence
    seen = directions(program, pcs, plain_guard)
    assert len(seen) == BITS
    assert key_from_directions(seen) == key


@pytest.mark.parametrize("key", KEYS)
def test_committed_stream_is_key_independent_under_sempe(victims, key):
    program = victims["sempe"]
    branch_pc = secure_branch_pc(program)
    # The two directions are distinguishable, so a constant observed
    # direction comes from the machine, not from the encoding.
    assert program.instructions[branch_pc].target != branch_pc + 1
    trace = observe(program, "sempe", key)
    seen = directions(program, trace.pc_sequence, branch_pc)
    assert seen == [0] * BITS          # always the fall-through path first
    other = observe(program, "sempe", ~key & MASK)
    assert other.pc_sequence == trace.pc_sequence
    assert other.pc_digest == trace.pc_digest


def test_word_sized_secret_recovers_low_key_bits(victims, plain_guard):
    """The secret symbol is an 8-byte word; poking a value that fills
    the whole word (garbage above the attacked bits, high word bit set)
    still yields the low key bits exactly."""
    program = victims["plain"]
    full_word = (1 << 63) | (0xABCD << 16) | 0x5A
    pcs = observe(program, "plain", full_word).pc_sequence
    assert key_from_directions(directions(program, pcs,
                                          plain_guard)[:BITS]) == 0x5A


def test_calibration_keys_separate_only_on_baseline(victims, plain_guard):
    plain = victims["plain"]
    assert (directions(plain, observe(plain, "plain", 0).pc_sequence,
                       plain_guard)
            != directions(plain, observe(plain, "plain", MASK).pc_sequence,
                          plain_guard))
    sempe = victims["sempe"]
    assert (observe(sempe, "sempe", 0).pc_digest
            == observe(sempe, "sempe", MASK).pc_digest)


# --------------------------------------------------------------------------
# Timing: end-to-end cycles
# --------------------------------------------------------------------------

def test_cycles_give_hamming_weight_on_baseline(victims, fast_config):
    program = victims["plain"]
    zero = observe(program, "plain", 0, fast_config).cycles
    ones = observe(program, "plain", MASK, fast_config).cycles
    assert ones > zero
    per_bit = (ones - zero) / BITS
    for key in (0x01, 0x0F, 0x5A, 0xC3):
        cycles = observe(program, "plain", key, fast_config).cycles
        estimate = round((cycles - zero) / per_bit)
        assert abs(estimate - bin(key).count("1")) <= 1, hex(key)


def test_cycles_are_flat_under_sempe(victims, fast_config):
    program = victims["sempe"]
    cycles = {observe(program, "sempe", key, fast_config).cycles
              for key in (0x00, 0x5A, 0xFF)}
    assert len(cycles) == 1


# --------------------------------------------------------------------------
# The registry engine on the Fig. 1 pairs
# --------------------------------------------------------------------------

def test_modexp_declares_the_fig1_channels():
    names = applicable_attackers("modexp")
    assert {"timing", "branch-trace"} <= set(names)


@pytest.mark.parametrize("attacker", ["timing", "branch-trace"])
def test_fig1_attack_recovers_key_on_baseline(attacker):
    report = execute_attack(AttackSpec("modexp", attacker, trials=16),
                            "plain")
    assert report.verdict == "recovered"
    assert report.success_rate >= 0.9


@pytest.mark.parametrize("attacker", ["timing", "branch-trace"])
def test_fig1_attack_at_chance_under_sempe(attacker):
    report = execute_attack(AttackSpec("modexp", attacker, trials=16),
                            "sempe")
    assert report.verdict == "chance"
    assert report.profiled_mi == 0.0


def test_noisy_branch_trace_still_recovers_on_baseline():
    # One probe round in five corrupted: probe rejection and the
    # per-bit majority vote still recover every key bit.
    spec = AttackSpec("modexp", "branch-trace", trials=16, flip=0.2)
    report = execute_attack(spec, "plain")
    assert report.verdict == "recovered"
    assert report.bits_recovered == report.bits_total


def test_noisy_branch_trace_still_at_chance_under_sempe():
    spec = AttackSpec("modexp", "branch-trace", trials=16, flip=0.2)
    assert execute_attack(spec, "sempe").verdict == "chance"
