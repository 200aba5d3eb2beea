"""ITTAGE-style indirect-target predictor (~6 KB per Table II).

Predicts the *target address* of indirect jumps (JALR) rather than a
taken/not-taken bit.  Structure mirrors TAGE: a PC-indexed base target
table plus tagged components indexed by folded global path history,
kept in the same :class:`~repro.uarch.branch.tage.FoldedHistory`
circular-shift registers (Seznec & Michaud, JILP 2006).  A component
is four flat int lists (tag, target, 2-bit confidence, useful), and
``predict`` leaves every component's index and tag in ``_last``.
"""

from __future__ import annotations

from itertools import chain

from repro.uarch.branch.tage import FoldedHistory


class Ittage:
    """Indirect-target predictor with TAGE-style tagged components."""

    name = "ittage"

    def __init__(
        self,
        n_components: int = 4,
        base_bits: int = 9,
        tagged_bits: int = 7,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 64,
    ) -> None:
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_bits = tag_bits
        self.n_components = n_components
        ratio = (max_history / min_history) ** (1 / max(n_components - 1, 1))
        self.history_lengths = [
            int(round(min_history * ratio ** index)) for index in range(n_components)
        ]
        self._history_bits = max_history
        # Longest history first: the order predict scans the components.
        self._scan = range(n_components - 1, -1, -1)
        self.reset()

    def predict(self, pc: int) -> int:
        """Predicted target address (0 = no prediction)."""
        self.lookups += 1
        index_mask = self.tagged_size - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc_index = pc ^ (pc >> 3)
        indices = [(pc_index ^ fold.value ^ component) & index_mask
                   for component, fold in enumerate(self._index_folds)]
        tags = [(pc ^ (fold.value << 1)) & tag_mask
                for fold in self._tag_folds]
        provider = -1
        for component in self._scan:
            if self._tags[component][indices[component]] == tags[component]:
                provider = component
                break
        if provider >= 0:
            prediction = self._targets[provider][indices[provider]]
        else:
            prediction = self._base[pc & (self.base_size - 1)]
        self._last = (pc, provider, indices, tags, prediction)
        return prediction

    def update(self, pc: int, target: int) -> bool:
        """Update with the real target; returns True on mispredict."""
        if self._last is None or self._last[0] != pc:
            self.predict(pc)
            self.lookups -= 1
        _, provider, indices, tags, prediction = self._last
        self._last = None
        mispredicted = prediction != target
        if mispredicted:
            self.mispredicts += 1

        if provider >= 0:
            index = indices[provider]
            confidence = self._confidence[provider]
            if self._targets[provider][index] == target:
                confidence[index] = min(confidence[index] + 1, 3)
                useful = self._useful[provider]
                useful[index] = min(useful[index] + 1, 3)
            elif confidence[index] > 0:
                confidence[index] -= 1
            else:
                self._targets[provider][index] = target
        else:
            self._base[pc & (self.base_size - 1)] = target

        # Allocate in the first longer component with a clear useful
        # counter, decaying the busy ones passed on the way.
        if mispredicted and provider < self.n_components - 1:
            for component in range(provider + 1, self.n_components):
                index = indices[component]
                useful = self._useful[component]
                if useful[index] == 0:
                    self._tags[component][index] = tags[component]
                    self._targets[component][index] = target
                    self._confidence[component][index] = 0
                    break
                useful[index] = max(useful[index] - 1, 0)

        # Fold several target-address bits into one path-history bit so
        # that targets differing only in high bits are distinguishable.
        folded_target = target ^ (target >> 4) ^ (target >> 8) ^ (target >> 12)
        path_bit = (folded_target ^ pc) & 1
        history = self._history
        for fold in self._folds:
            fold.push(path_bit, history)
        self._history = ((history << 1) | path_bit) \
            & ((1 << self._history_bits) - 1)
        return mispredicted

    def state_digest(self) -> int:
        # (tag, target, confidence, useful) per entry, component-major.
        tagged = tuple(chain.from_iterable(map(
            zip, self._tags, self._targets, self._confidence, self._useful)))
        return hash((tuple(self._base), tagged, self._history))

    def reset(self) -> None:
        self._base = [0] * self.base_size
        self._tags, self._targets, self._confidence, self._useful = (
            [[0] * self.tagged_size for _ in range(self.n_components)]
            for _ in range(4)
        )
        index_bits = self.tagged_size.bit_length() - 1
        self._index_folds = [FoldedHistory(length, index_bits)
                             for length in self.history_lengths]
        self._tag_folds = [FoldedHistory(length, self.tag_bits)
                           for length in self.history_lengths]
        self._folds = self._index_folds + self._tag_folds
        self._history = 0
        self.lookups = 0
        self.mispredicts = 0
        self._last: tuple | None = None
