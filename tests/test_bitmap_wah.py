"""Property tests for the WAH codec (Hypothesis).

The hierarchical index and the multi-variable exchange both lean on
three WAH contracts: encode/decode is lossless, the positions-based
encoder agrees with the dense one, and compressed-domain operations
(group AND/OR, pad-blind cardinality) match their dense counterparts.
Each is pinned here over randomized lengths and densities, including
the all-zeros / all-ones extremes where fill runs dominate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.bitmap as bitmap_mod
from repro.index.bitmap import (
    Bitmap,
    groups_to_bitmap,
    wah_cardinality,
    wah_decode,
    wah_encode,
    wah_expand_groups,
    wah_from_positions,
)

# Lengths straddle several 63-bit group boundaries, including exact
# multiples (no tail padding) and off-by-one neighbours.
_NBITS = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.sampled_from([63, 64, 125, 126, 127, 630, 1260, 1261]),
)


@st.composite
def _bit_sets(draw, nbits=None):
    """(nbits, sorted unique positions) across sparse/dense regimes."""
    if nbits is None:
        nbits = draw(_NBITS)
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.5, 0.95, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    positions = np.flatnonzero(rng.random(nbits) < density).astype(np.int64)
    return nbits, positions


@settings(max_examples=80, deadline=None)
@given(case=_bit_sets())
def test_encode_decode_roundtrip(case):
    nbits, positions = case
    bm = Bitmap.from_positions(positions, nbits)
    words = wah_encode(bm.buffer, nbits)
    assert np.array_equal(wah_decode(words, nbits), bm.buffer)
    # Re-encoding the expansion reproduces the words exactly: the
    # encoder emits maximal runs, so the encoding is canonical.
    assert np.array_equal(
        bitmap_mod._groups_to_words(wah_expand_groups(words)), words
    )


@settings(max_examples=80, deadline=None)
@given(case=_bit_sets())
def test_positions_encoder_matches_dense(case):
    nbits, positions = case
    dense = wah_encode(Bitmap.from_positions(positions, nbits).buffer, nbits)
    assert np.array_equal(wah_from_positions(positions, nbits), dense)


@settings(max_examples=80, deadline=None)
@given(case=_bit_sets())
def test_cardinality_matches_count(case):
    nbits, positions = case
    bm = Bitmap.from_positions(positions, nbits)
    words = wah_encode(bm.buffer, nbits)
    assert wah_cardinality(words) == bm.count() == positions.size


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_domain_and_or_match_dense(data):
    nbits = data.draw(_NBITS)
    _, pos_a = data.draw(_bit_sets(nbits=nbits))
    _, pos_b = data.draw(_bit_sets(nbits=nbits))
    a = Bitmap.from_positions(pos_a, nbits)
    b = Bitmap.from_positions(pos_b, nbits)
    ga = wah_expand_groups(wah_encode(a.buffer, nbits))
    gb = wah_expand_groups(wah_encode(b.buffer, nbits))
    assert groups_to_bitmap(ga & gb, nbits) == (a & b)
    assert groups_to_bitmap(ga | gb, nbits) == (a | b)


def test_empty_bitmap_is_one_zero_fill():
    words = wah_from_positions(np.empty(0, dtype=np.int64), 1000)
    assert words.size == 1
    assert wah_cardinality(words) == 0
    assert np.array_equal(wah_decode(words, 1000), np.zeros(125, dtype=np.uint8))


def test_fill_run_count_guard(monkeypatch):
    """Regression: oversized fill runs must raise, not wrap silently.

    A real overflow needs 2**62 groups, so the guard is exercised by
    shrinking the count mask — the comparison path is identical.
    """
    assert int(bitmap_mod._COUNT_MASK) == (1 << 62) - 1
    monkeypatch.setattr(bitmap_mod, "_COUNT_MASK", np.uint64(3))
    ok = bitmap_mod._groups_to_words(np.zeros(3, dtype=np.uint64))
    assert ok.size == 1
    with pytest.raises(ValueError, match="62-bit count field"):
        bitmap_mod._groups_to_words(np.zeros(4, dtype=np.uint64))


@st.composite
def _group_matrices(draw):
    """(rows, row length) matrices mixing all-zero, all-ones and literal
    groups, with whole rows of each kind thrown in."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    row_len = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    ones = bitmap_mod._ALL_ONES_GROUP
    literal = rng.integers(1, int(ones), size=(n_rows, row_len), dtype=np.uint64)
    kind = rng.integers(0, 3, size=(n_rows, row_len))
    groups = np.where(kind == 0, np.uint64(0), np.where(kind == 1, ones, literal))
    for row in range(n_rows):
        whole = draw(st.sampled_from(["mixed", "mixed", "zeros", "ones"]))
        if whole != "mixed":
            groups[row] = 0 if whole == "zeros" else ones
    return groups


@settings(max_examples=80, deadline=None)
@given(groups=_group_matrices())
def test_row_batched_encoder_matches_per_row(groups):
    """One pass over the matrix yields each row's own encoding: fill
    runs break at every row start, even between two all-zero rows."""
    words, lengths = bitmap_mod._group_rows_to_words(groups)
    per_row = [bitmap_mod._groups_to_words(row) for row in groups]
    assert lengths.tolist() == [row.size for row in per_row]
    assert np.array_equal(words, np.concatenate(per_row))
    for row, row_words in zip(groups, per_row):
        assert np.array_equal(wah_expand_groups(row_words), row)


def _reference_buffer(positions, nbits):
    """The bit buffer set one bit at a time, in plain Python."""
    buf = bytearray((nbits + 7) // 8)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return np.frombuffer(bytes(buf), dtype=np.uint8)


# Lengths that are multiples of neither 8 nor 63, so both the byte tail
# and the last 63-bit group are partial.
_ODD_NBITS = st.integers(min_value=1, max_value=1300).filter(
    lambda n: n % 8 and n % 63
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_position_scatters_match_a_bit_by_bit_reference(data):
    nbits = data.draw(st.one_of(_NBITS, _ODD_NBITS))
    kind = data.draw(st.sampled_from(["random", "empty", "all"]))
    if kind == "random":
        positions = data.draw(
            st.lists(st.integers(min_value=0, max_value=nbits - 1), max_size=200)
        )  # unsorted, with repeats
    else:
        positions = list(range(nbits)) if kind == "all" else []
    expected = _reference_buffer(positions, nbits)
    pos = np.array(positions, dtype=np.int64)
    assert np.array_equal(Bitmap.from_positions(pos, nbits).buffer, expected)
    words = wah_from_positions(pos, nbits)
    assert np.array_equal(words, wah_encode(expected, nbits))
    assert np.array_equal(wah_decode(words, nbits), expected)


@pytest.mark.parametrize(
    "nbits,positions",
    [
        (200, [3, 70, 71, 199]),  # sorted and unique: the fast path
        (200, [199, 3, 71, 70]),  # unsorted
        (200, [3, 3, 70, 70, 70, 199]),  # sorted with repeats
        (200, [70, 3, 199, 3, 70]),  # unsorted with repeats
        (200, []),
        (1, [0]),
        (63, [0, 62]),  # the first group's two ends
        (126, [62, 63, 125]),  # both sides of a group boundary
        (127, list(range(127))),  # every bit, one past two groups
    ],
)
def test_sorted_input_fast_path_matches_the_reference(nbits, positions):
    """Sorted, unique positions skip ``np.unique``; every other input is
    normalised first.  Both give the dense encoder's words."""
    expected = wah_encode(_reference_buffer(positions, nbits), nbits)
    for dtype in (np.int64, np.int32):
        words = wah_from_positions(np.array(positions, dtype=dtype), nbits)
        assert np.array_equal(words, expected)
    for bad in ([-1, 5], [5, nbits], [nbits, 5]):
        with pytest.raises(ValueError, match="out of range"):
            wah_from_positions(np.array(bad, dtype=np.int64), nbits)
