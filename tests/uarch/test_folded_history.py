"""FoldedHistory: the O(1) register equals a brute-force refold.

After every push of a random bit stream, the register must equal the
chunk-XOR fold of a shadow history int's newest ``length`` bits: the
fold TAGE and ITTAGE hash into their component indices and tags.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch.tage import FoldedHistory

MAX_HISTORY = 128


def _brute_fold(history: int, length: int, bits: int) -> int:
    window = history & ((1 << length) - 1)
    folded = 0
    while window:
        folded ^= window & ((1 << bits) - 1)
        window >>= bits
    return folded


def _check_stream(length: int, bits: int, stream: list[bool]) -> None:
    fold = FoldedHistory(length, bits)
    history = 0
    for taken in stream:
        fold.push(int(taken), history)
        history = ((history << 1) | int(taken)) & ((1 << MAX_HISTORY) - 1)
        assert fold.value == _brute_fold(history, length, bits)


# Long enough that bits leave even a 128-bit window.
_streams = st.lists(st.booleans(), min_size=MAX_HISTORY + 32, max_size=320)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(length=st.integers(min_value=1, max_value=MAX_HISTORY),
       bits=st.integers(min_value=1, max_value=16), stream=_streams)
def test_fold_matches_brute_force(length, bits, stream):
    _check_stream(length, bits, stream)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(stream=_streams)
def test_length_shorter_than_width(stream):
    """TAGE component 0: 4 history bits folded to the 9 tag bits."""
    _check_stream(4, 9, stream)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(chunks=st.integers(min_value=1, max_value=8),
       bits=st.integers(min_value=2, max_value=16), stream=_streams)
def test_length_a_multiple_of_width(chunks, bits, stream):
    _check_stream(min(chunks * bits, MAX_HISTORY // bits * bits), bits,
                  stream)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(bits=st.sampled_from([9, 10, 7]), stream=_streams)
def test_length_equal_to_max_history(bits, stream):
    """The longest TAGE component folds the whole 128-bit history."""
    _check_stream(MAX_HISTORY, bits, stream)

