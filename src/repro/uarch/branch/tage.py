"""TAGE conditional branch predictor (Seznec), sized ~31 KB per Table II.

This is a faithful-in-structure, compact-in-detail TAGE: a bimodal base
predictor plus N tagged components with geometrically increasing history
lengths.  Prediction comes from the longest-history component whose tag
matches; allocation on mispredictions picks a longer-history entry with
the useful bit clear.  The ``use_alt_on_new`` heuristic and the useful-bit
aging are implemented; (the full TAGE's loop predictor and statistical
corrector are omitted — they matter for SPEC-level accuracy, not for the
branch-channel behaviour studied here).

Each component hashes its pc with the newest ``length`` history bits
XOR-folded to the index and tag widths.  Those folds are
:class:`FoldedHistory` circular-shift registers (Seznec & Michaud, "A
case for (partially) TAgged GEometric history length branch
predictors", JILP 2006), advanced in O(1) per history push in
``update``; ``predict`` only XORs them with the pc.  A component is
three flat int lists (tag, signed 3-bit counter, 2-bit useful), and
``predict`` leaves every component's index and tag in ``_last`` for
``update`` and allocation to reuse.
"""

from __future__ import annotations

from itertools import chain

from repro.uarch.branch.base import BranchPredictor


class FoldedHistory:
    """The newest ``length`` history bits XOR-folded into ``bits`` bits.

    Kept current in O(1) per push instead of refolding O(length / bits)
    bits per lookup (the CBP TAGE reference code's ``folded_history``).
    """

    __slots__ = ("bits", "value", "_old_shift", "_out_shift", "_mask")

    def __init__(self, length: int, bits: int) -> None:
        self.bits = bits
        self.value = 0
        self._old_shift = length - 1      # history bit that leaves the window
        self._out_shift = length % bits   # where it sits after the rotate
        self._mask = (1 << bits) - 1

    def push(self, new: int, history: int) -> None:
        """Push bit ``new``; ``history`` is the global history before it."""
        folded = ((self.value << 1) | new) \
            ^ (((history >> self._old_shift) & 1) << self._out_shift)
        self.value = (folded ^ (folded >> self.bits)) & self._mask


class Tage(BranchPredictor):
    """TAGE with a bimodal base and ``n_components`` tagged tables."""

    name = "tage"

    def __init__(
        self,
        n_components: int = 6,
        base_bits: int = 12,
        tagged_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
    ) -> None:
        super().__init__()
        self.n_components = n_components
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_bits = tag_bits

        # Geometric history lengths.
        self.history_lengths = []
        ratio = (max_history / min_history) ** (1 / max(n_components - 1, 1))
        length = float(min_history)
        for _ in range(n_components):
            self.history_lengths.append(int(round(length)))
            length *= ratio

        self._history_bits = max_history
        self._salts = [component << 3 for component in range(n_components)]
        # Longest history first: the order predict scans the components.
        self._scan = range(n_components - 1, -1, -1)
        self.reset()

    def predict(self, pc: int) -> bool:
        index_mask = self.tagged_size - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc_index = pc ^ (pc >> 4)
        pc_tag = pc ^ (pc >> 7)
        indices = [(pc_index ^ fold.value ^ salt) & index_mask
                   for fold, salt in zip(self._index_folds, self._salts)]
        tags = [(pc_tag ^ (fold.value << 1)) & tag_mask
                for fold in self._tag_folds]
        tag_tables = self._tags
        provider = -1
        alt = -1
        for component in self._scan:
            if tag_tables[component][indices[component]] == tags[component]:
                if provider < 0:
                    provider = component
                else:
                    alt = component
                    break

        counters = self._counters
        if alt >= 0:
            alt_prediction = counters[alt][indices[alt]] >= 0
        else:
            alt_prediction = self._base[pc & (self.base_size - 1)] >= 2
        if provider >= 0:
            index = indices[provider]
            counter = counters[provider][index]
            if (counter in (-1, 0) and self._useful[provider][index] == 0
                    and self._use_alt_on_new >= 8):
                prediction = alt_prediction
            else:
                prediction = counter >= 0
        else:
            prediction = alt_prediction

        self._last = (pc, provider, indices, tags, alt_prediction, prediction)
        return prediction

    def update(self, pc: int, taken: bool) -> None:
        if self._last is None or self._last[0] != pc:
            self.predict(pc)
        _, provider, indices, tags, alt_prediction, prediction = self._last
        self._last = None

        if provider >= 0:
            index = indices[provider]
            counters = self._counters[provider]
            useful = self._useful[provider]
            counter = counters[index]
            # use_alt_on_new bookkeeping.
            if (useful[index] == 0 and counter in (-1, 0)
                    and (counter >= 0) != alt_prediction):
                if alt_prediction == taken:
                    self._use_alt_on_new = min(self._use_alt_on_new + 1, 15)
                else:
                    self._use_alt_on_new = max(self._use_alt_on_new - 1, 0)
            # Update the provider.
            if taken:
                counters[index] = min(counter + 1, 3)
            else:
                counters[index] = max(counter - 1, -4)
            if prediction == taken and alt_prediction != taken:
                useful[index] = min(useful[index] + 1, 3)
        else:
            index = pc & (self.base_size - 1)
            if taken:
                self._base[index] = min(self._base[index] + 1, 3)
            else:
                self._base[index] = max(self._base[index] - 1, 0)

        # Allocate on misprediction in a longer-history component: the
        # first candidate with a clear useful counter, else decay them all.
        if prediction != taken and provider < self.n_components - 1:
            candidates = range(provider + 1, self.n_components)
            for component in candidates:
                index = indices[component]
                if self._useful[component][index] == 0:
                    self._tags[component][index] = tags[component]
                    self._counters[component][index] = 0 if taken else -1
                    break
            else:
                for component in candidates:
                    useful = self._useful[component]
                    index = indices[component]
                    useful[index] = max(useful[index] - 1, 0)

        # Useful-bit aging.
        self._allocation_tick += 1
        if self._allocation_tick % 262144 == 0:
            self._useful = [[value >> 1 for value in useful]
                            for useful in self._useful]

        # History update: every fold first, from the pre-push history.
        history = self._history
        bit = int(taken)
        for fold in self._folds:
            fold.push(bit, history)
        self._history = ((history << 1) | bit) \
            & ((1 << self._history_bits) - 1)

    def state_digest(self) -> int:
        # (tag, counter, useful) per entry, component-major.
        tagged = tuple(chain.from_iterable(map(
            zip, self._tags, self._counters, self._useful)))
        return hash((tuple(self._base), tagged, self._history,
                     self._use_alt_on_new))

    def reset(self) -> None:
        self._base = [2] * self.base_size  # 2-bit counters
        self._tags, self._counters, self._useful = (
            [[0] * self.tagged_size for _ in range(self.n_components)]
            for _ in range(3))
        index_bits = self.tagged_size.bit_length() - 1
        self._index_folds = [FoldedHistory(length, index_bits)
                             for length in self.history_lengths]
        self._tag_folds = [FoldedHistory(length, self.tag_bits)
                           for length in self.history_lengths]
        self._folds = self._index_folds + self._tag_folds
        self._history = 0          # global history as an int (newest bit 0)
        self._use_alt_on_new = 8   # 4-bit counter, >=8 favours alt
        self._allocation_tick = 0
        # Per-prediction scratch (filled by predict, used by update).
        self._last: tuple | None = None

    def storage_bits(self) -> int:
        """Approximate hardware budget (to check the ~31 KB target)."""
        base_bits = 2 * self.base_size
        entry_bits = self.tag_bits + 3 + 2
        tagged_bits = self.n_components * self.tagged_size * entry_bits
        return base_bits + tagged_bits
