"""TAGE and ITTAGE pinned to committed numbers on seeded branch streams.

Each test drives a predictor with 20k seeded branches and compares a
hash of its prediction sequence and its final ``state_digest()`` with
constants recorded from the predictors as they stood before the
incremental folded-history rewrite (which had to be exact).  CPython
hashes tuples of ints and bools independently of ``PYTHONHASHSEED``,
so the constants hold in every process.
"""

from __future__ import annotations

import random

from repro.uarch.branch import Ittage, Tage

STEPS = 20_000

TAGE_PREDICTIONS = -395206113998617259
TAGE_DIGEST = 1299655401840577724
TAGE_AGED_PREDICTIONS = -3302165309608760514
TAGE_AGED_DIGEST = -3770036742350720590
# (hash of predictions and mispredict flags, digest, lookups, mispredicts)
ITTAGE_PINNED = (-3811854274758471145, -8782910423262498080, 18461, 12641)


def _branch_sites(rng: random.Random, count: int) -> list[int]:
    """Distinct word-aligned PCs spread over a 4 MB code region."""
    return [4 * pc for pc in rng.sample(range(1 << 20), count)]


def _tage_run(seed: int, age_at: int | None = None) -> tuple[int, int]:
    """(hash of predictions, final digest) for one seeded stream.

    Sites mix three behaviours: biased, periodic (needs history) and
    correlated with the previous outcome.  Every 13th branch is updated
    without a preceding ``predict`` (``update`` then predicts itself).
    ``age_at`` forces the useful-bit aging on that step.
    """
    rng = random.Random(seed)
    sites = _branch_sites(rng, 64)
    periods = [rng.randrange(2, 24) for _ in sites]
    visits = [0] * len(sites)
    tage = Tage()
    predictions = []
    previous = False
    for step in range(STEPS):
        site = rng.randrange(len(sites))
        pc = sites[site]
        kind = site % 3
        if kind == 0:
            taken = rng.random() < 0.9
        elif kind == 1:
            taken = visits[site] % periods[site] < periods[site] // 2
        else:
            taken = previous ^ (rng.random() < 0.1)
        visits[site] += 1
        if step == age_at:
            tage._allocation_tick = 262143
        if step % 13:
            predictions.append(tage.predict(pc))
        tage.update(pc, taken)
        previous = taken
    return hash(tuple(predictions)), tage.state_digest()


def _ittage_run(seed: int) -> tuple[int, int, int, int]:
    """(hash of predictions, final digest, lookups, mispredicts).

    Each site picks among a few targets: half of the sites cycle through
    theirs (a path-history pattern), half choose at random.
    """
    rng = random.Random(seed)
    sites = _branch_sites(rng, 48)
    targets = [_branch_sites(rng, rng.randrange(1, 6)) for _ in sites]
    visits = [0] * len(sites)
    ittage = Ittage()
    predictions = []
    for step in range(STEPS):
        site = rng.randrange(len(sites))
        pc = sites[site]
        choices = targets[site]
        if site % 2:
            target = choices[visits[site] % len(choices)]
        else:
            target = rng.choice(choices)
        visits[site] += 1
        if step % 13:
            predictions.append(ittage.predict(pc))
        predictions.append(ittage.update(pc, target))
    return (hash(tuple(predictions)), ittage.state_digest(),
            ittage.lookups, ittage.mispredicts)


def test_tage_stream_pinned():
    assert _tage_run(2024) == (TAGE_PREDICTIONS, TAGE_DIGEST)


def test_tage_useful_aging_pinned():
    assert _tage_run(7, age_at=STEPS // 2) == (TAGE_AGED_PREDICTIONS,
                                               TAGE_AGED_DIGEST)


def test_ittage_stream_pinned():
    assert _ittage_run(2024) == ITTAGE_PINNED
