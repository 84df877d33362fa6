"""Tests for PLoD byte-plane decomposition (Fig. 3 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plod.byteplanes import (
    FULL_PLOD_LEVEL,
    GROUP_OFFSETS,
    GROUP_WIDTHS,
    N_GROUPS,
    assemble_from_groups,
    plod_degrade,
    split_byte_groups,
)


class TestLevelArithmetic:
    def test_paper_byte_counts(self):
        # Level k fetches k+1 bytes: level 2 -> 3 bytes (paper's example).
        assert list(np.cumsum(GROUP_WIDTHS)) == [2, 3, 4, 5, 6, 7, 8]

    def test_group_geometry(self):
        assert N_GROUPS == 7
        assert GROUP_WIDTHS == (2, 1, 1, 1, 1, 1, 1)
        assert GROUP_OFFSETS == (0, 2, 3, 4, 5, 6, 7)
        assert sum(GROUP_WIDTHS) == 8

    def test_level_range_checked(self):
        for bad in (0, 8, -1):
            with pytest.raises(ValueError):
                plod_degrade(np.ones(4), bad)


class TestSplitAssemble:
    def test_full_level_exact(self, rng):
        v = rng.uniform(-1e6, 1e6, 1000)
        groups = split_byte_groups(v)
        assert np.array_equal(assemble_from_groups(groups, v.size, FULL_PLOD_LEVEL), v)

    def test_group_sizes(self, rng):
        v = rng.uniform(0, 1, 100)
        groups = split_byte_groups(v)
        assert groups[0].size == 200  # two bytes per value
        assert all(g.size == 100 for g in groups[1:])

    def test_group0_is_big_endian_prefix(self):
        v = np.array([1.5])  # 0x3FF8000000000000
        groups = split_byte_groups(v)
        assert groups[0].tolist() == [0x3F, 0xF8]
        assert all(g.tolist() == [0x00] for g in groups[1:])

    def test_dummy_fill_is_midpoint_not_zero(self):
        """The paper fills 0x7F then 0xFF so truncated values land near
        the midpoint of the compatible interval, not at its bottom."""
        v = np.array([1.0 + 0.4999, 1000.25])
        approx = plod_degrade(v, 2)  # keep 3 bytes
        # Reconstruction must not be uniformly below the originals.
        assert np.all(approx != v)
        err_signed = approx - v
        assert err_signed.max() > 0 or np.abs(err_signed).max() < 1e-3

    def test_error_decreases_with_level(self, rng):
        v = rng.uniform(100, 5000, 20_000)
        prev = np.inf
        for level in range(1, 8):
            err = np.abs(plod_degrade(v, level) - v).max()
            assert err <= prev
            prev = err
        assert prev == 0.0

    def test_level2_error_matches_paper_magnitude(self, rng):
        """Paper: 3 bytes -> max per-point relative error ~0.008%-scale."""
        v = rng.uniform(100, 5000, 50_000)
        rel = np.abs(plod_degrade(v, 2) - v) / v
        assert rel.max() < 2e-4

    def test_negative_values(self, rng):
        v = -rng.uniform(1, 100, 1000)
        assert np.array_equal(plod_degrade(v, 7), v)
        rel = np.abs(plod_degrade(v, 3) - v) / np.abs(v)
        assert rel.max() < 1e-6

    def test_validation(self, rng):
        v = rng.uniform(0, 1, 10)
        groups = split_byte_groups(v)
        with pytest.raises(ValueError, match="1-D"):
            split_byte_groups(v.reshape(2, 5))
        with pytest.raises(ValueError, match="need 3 byte groups"):
            assemble_from_groups(groups[:2], 10, 3)
        with pytest.raises(ValueError, match="expected"):
            assemble_from_groups([groups[0][:-1]], 10, 1)

    def test_empty(self):
        groups = split_byte_groups(np.empty(0))
        assert assemble_from_groups(groups, 0, 7).size == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=7),
)
def test_degrade_properties(values, level):
    v = np.array(values, dtype=np.float64)
    approx = plod_degrade(v, level)
    if level == 7:
        assert np.array_equal(approx, v)
    else:
        # Sign and exponent are always preserved (they live in group 0),
        # so the relative error of *normal* values is bounded by the
        # mantissa truncation of the kept bytes.  Subnormals carry their
        # entire magnitude in the mantissa, so no relative bound applies
        # to them (physical simulation values are normal).
        normal = np.abs(v) >= np.finfo(np.float64).tiny
        if normal.any():
            rel = np.abs(approx[normal] - v[normal]) / np.abs(v[normal])
            mantissa_bits_kept = max(8 * (level + 1) - 12, 4)
            assert rel.max() <= 2.0 ** -(mantissa_bits_kept - 1)


#: Bit patterns of the values a mask can get wrong: ±0, the smallest
#: and largest subnormals, ±inf, quiet and signalling NaNs with
#: payloads, and the extremes of the normal range.
_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000123,
    0x7FF0000000000001, 0x7FF7FFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=FULL_PLOD_LEVEL),
)
def test_degrade_is_the_byte_plane_reassembly(bits, level):
    """Masking the bit pattern rebuilds, bit for bit, what the planes
    of the first ``level`` groups reassemble to, for every float64."""
    v = np.array(bits, dtype=np.uint64).view(np.float64)
    planes = split_byte_groups(v)[:level]
    want = assemble_from_groups(planes, v.size, level)
    assert np.array_equal(plod_degrade(v, level).view(np.uint64), want.view(np.uint64))
