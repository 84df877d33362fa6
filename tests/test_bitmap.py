"""Tests for bitmaps and WAH compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bitmap import (
    Bitmap,
    groups_to_bitmap,
    wah_decode,
    wah_encode,
    wah_expand_groups,
    wah_from_positions,
)


class TestBitmapBasics:
    def test_from_to_positions(self):
        pos = np.array([0, 7, 8, 63, 64, 99])
        bm = Bitmap.from_positions(pos, 100)
        assert np.array_equal(bm.to_positions(), pos)
        assert bm.count() == 6

    def test_get_membership(self):
        bm = Bitmap.from_positions(np.array([2, 5]), 10)
        assert bm.get(np.array([2, 3, 5, 9])).tolist() == [True, False, True, False]

    def test_positions_out_of_range(self):
        with pytest.raises(ValueError):
            Bitmap.from_positions(np.array([10]), 10)
        bm = Bitmap(10)
        with pytest.raises(ValueError):
            bm.get(np.array([10]))

    def test_ops(self):
        a = Bitmap.from_positions(np.array([1, 3]), 8)
        b = Bitmap.from_positions(np.array([3, 5]), 8)
        assert (a | b).to_positions().tolist() == [1, 3, 5]
        assert (a & b).to_positions().tolist() == [3]
        assert (~a).to_positions().tolist() == [0, 2, 4, 5, 6, 7]

    def test_invert_clears_padding(self):
        bm = Bitmap(5)  # 3 padding bits in the single byte
        assert (~bm).count() == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Bitmap(8) | Bitmap(9)

    def test_equality(self):
        a = Bitmap.from_positions(np.array([1]), 8)
        b = Bitmap.from_positions(np.array([1]), 8)
        assert a == b
        assert a != Bitmap(8)

    def test_empty_bitmap(self):
        bm = Bitmap(0)
        assert bm.count() == 0
        assert bm.to_positions().size == 0

    def test_buffer_size_checked(self):
        with pytest.raises(ValueError, match="bytes"):
            Bitmap(16, np.zeros(1, dtype=np.uint8))

    def test_nbytes(self):
        assert Bitmap(100).nbytes == 13


class TestWAH:
    @pytest.mark.parametrize("nbits", [1, 62, 63, 64, 126, 127, 1000])
    def test_roundtrip_sizes(self, nbits, rng):
        pos = rng.choice(nbits, size=max(1, nbits // 3), replace=False)
        bm = Bitmap.from_positions(pos, nbits)
        assert np.array_equal(wah_decode(wah_encode(bm.buffer, nbits), nbits), bm.buffer)

    def test_empty_and_full(self):
        for nbits in (63, 100):
            empty = Bitmap(nbits)
            full = ~empty
            for bm in (empty, full):
                words = wah_encode(bm.buffer, nbits)
                assert np.array_equal(wah_decode(words, nbits), bm.buffer)

    def test_fills_compress_runs(self):
        # 10^6 zeros compress to a couple of words.
        words = wah_encode(Bitmap(1_000_000).buffer, 1_000_000)
        assert words.size <= 2

    def test_clustered_much_smaller_than_dense(self):
        pos = np.arange(5000, 9000)
        bm = Bitmap.from_positions(pos, 1_000_000)
        words = wah_encode(bm.buffer, 1_000_000)
        assert words.size < 100

    def test_from_positions_equivalent_to_dense_encode(self, rng):
        nbits = 50_000
        pos = rng.choice(nbits, 700, replace=False)
        dense = wah_encode(Bitmap.from_positions(pos, nbits).buffer, nbits)
        sparse = wah_from_positions(pos, nbits)
        assert np.array_equal(
            wah_decode(dense, nbits), wah_decode(sparse, nbits)
        )

    def test_from_positions_empty(self):
        words = wah_from_positions(np.array([], dtype=np.int64), 1000)
        assert np.array_equal(wah_decode(words, 1000), Bitmap(1000).buffer)

    def test_from_positions_out_of_range(self):
        with pytest.raises(ValueError):
            wah_from_positions(np.array([100]), 100)

    def test_decode_length_check(self):
        words = wah_encode(Bitmap(100).buffer, 100)
        with pytest.raises(ValueError, match="expected"):
            wah_decode(words, 200)

    def test_bitmap_wah_serialization(self, rng):
        pos = rng.choice(10_000, 300, replace=False)
        bm = Bitmap.from_positions(pos, 10_000)
        words = np.frombuffer(bm.wah_bytes(), dtype=np.uint64)
        assert Bitmap(10_000, wah_decode(words, 10_000)) == bm


class TestGroupDomain:
    def test_expand_then_pack_roundtrip(self, rng):
        nbits = 20_000
        pos = rng.choice(nbits, 500, replace=False)
        words = wah_from_positions(pos, nbits)
        groups = wah_expand_groups(words)
        bm = groups_to_bitmap(groups, nbits)
        assert np.array_equal(np.sort(pos), bm.to_positions())

    def test_group_domain_or_matches_bitmap_or(self, rng):
        nbits = 8_000
        a_pos = rng.choice(nbits, 200, replace=False)
        b_pos = rng.choice(nbits, 200, replace=False)
        ga = wah_expand_groups(wah_from_positions(a_pos, nbits))
        gb = wah_expand_groups(wah_from_positions(b_pos, nbits))
        merged = groups_to_bitmap(ga | gb, nbits)
        expected = Bitmap.from_positions(a_pos, nbits) | Bitmap.from_positions(
            b_pos, nbits
        )
        assert merged == expected

    def test_group_count_checked(self):
        with pytest.raises(ValueError, match="expected"):
            groups_to_bitmap(np.zeros(3, dtype=np.uint64), 63)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bitmap_matches_set_semantics(data):
    nbits = data.draw(st.integers(min_value=1, max_value=400))
    a_pos = data.draw(st.sets(st.integers(min_value=0, max_value=nbits - 1)))
    b_pos = data.draw(st.sets(st.integers(min_value=0, max_value=nbits - 1)))
    a = Bitmap.from_positions(np.array(sorted(a_pos), dtype=np.int64), nbits)
    b = Bitmap.from_positions(np.array(sorted(b_pos), dtype=np.int64), nbits)
    assert set((a | b).to_positions().tolist()) == a_pos | b_pos
    assert set((a & b).to_positions().tolist()) == a_pos & b_pos
    assert set((~a).to_positions().tolist()) == set(range(nbits)) - a_pos
    # WAH roundtrip preserves content.
    words = np.frombuffer(a.wah_bytes(), dtype=np.uint64)
    assert Bitmap(nbits, wah_decode(words, nbits)) == a
