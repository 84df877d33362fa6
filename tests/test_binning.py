"""Tests for bin boundaries, assignment, and aligned-bin classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.binner import BinScheme, per_bin_segments
from repro.binning.boundaries import equal_frequency_boundaries, equal_width_boundaries


class TestEqualFrequencyBoundaries:
    def test_balances_counts(self, rng):
        sample = rng.normal(0, 1, 100_000)
        edges = equal_frequency_boundaries(sample, 50)
        counts = np.bincount(BinScheme(edges).assign(sample), minlength=50)
        assert counts.max() / counts.min() < 1.1

    def test_edge_count_and_monotonicity(self, rng):
        edges = equal_frequency_boundaries(rng.uniform(0, 1, 1000), 10)
        assert edges.shape == (11,)
        assert np.all(np.diff(edges) > 0)

    def test_duplicated_values_nudged(self):
        sample = np.array([1.0] * 100 + [2.0] * 100)
        edges = equal_frequency_boundaries(sample, 4)
        assert np.all(np.diff(edges) > 0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="empty"):
            equal_frequency_boundaries(np.array([]), 4)
        with pytest.raises(ValueError, match="non-finite"):
            equal_frequency_boundaries(np.array([1.0, np.nan]), 2)
        with pytest.raises(ValueError, match="positive"):
            equal_frequency_boundaries(np.array([1.0]), 0)


class TestEqualWidthBoundaries:
    def test_uniform_spacing(self):
        edges = equal_width_boundaries(0.0, 10.0, 5)
        assert np.allclose(np.diff(edges), 2.0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            equal_width_boundaries(5.0, 5.0, 3)
        with pytest.raises(ValueError):
            equal_width_boundaries(0.0, np.inf, 3)


class TestBinScheme:
    def test_assignment_semantics(self):
        scheme = BinScheme(np.array([0.0, 1.0, 2.0, 3.0]))
        values = np.array([-5.0, 0.0, 0.999, 1.0, 2.5, 3.0, 99.0])
        # Half-open bins, ends clamped, last bin closed.
        assert scheme.assign(values).tolist() == [0, 0, 0, 1, 2, 2, 2]

    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BinScheme(np.array([0.0, 0.0, 1.0]))

    def test_bins_overlapping_interior(self):
        scheme = BinScheme(np.linspace(0, 10, 11))  # bins [0,1) .. [9,10]
        bin_ids, aligned = scheme.bins_overlapping(2.5, 6.5)
        assert bin_ids.tolist() == [2, 3, 4, 5, 6]
        # bins [3,4), [4,5), [5,6) fully inside [2.5, 6.5]
        assert aligned.tolist() == [False, True, True, True, False]

    def test_bins_overlapping_exact_edges(self):
        scheme = BinScheme(np.linspace(0, 10, 11))
        bin_ids, aligned = scheme.bins_overlapping(3.0, 5.0)
        assert bin_ids.tolist() == [3, 4, 5]
        # [3,4) and [4,5) aligned; bin 5 only touched at its left edge.
        assert aligned.tolist() == [True, True, False]

    def test_end_bins_never_aligned_for_finite_constraints(self):
        """First/last bins hold clamped outliers, so a finite constraint
        can never treat them as aligned."""
        scheme = BinScheme(np.linspace(0, 10, 11))
        bin_ids, aligned = scheme.bins_overlapping(-100.0, 100.0)
        assert bin_ids.tolist() == list(range(10))
        assert not aligned[0]
        assert not aligned[-1]
        assert aligned[1:-1].all()

    def test_end_bins_aligned_for_infinite_constraints(self):
        scheme = BinScheme(np.linspace(0, 10, 11))
        _, aligned = scheme.bins_overlapping(-np.inf, np.inf)
        assert aligned.all()

    def test_empty_constraint_rejected(self):
        scheme = BinScheme(np.linspace(0, 1, 3))
        with pytest.raises(ValueError, match="empty"):
            scheme.bins_overlapping(0.7, 0.2)

    def test_constraint_below_range_clamps_to_first_bin(self):
        scheme = BinScheme(np.linspace(0, 10, 11))
        bin_ids, aligned = scheme.bins_overlapping(-5.0, -1.0)
        assert bin_ids.tolist() == [0]
        assert not aligned[0]


class TestPerBinSegments:
    def test_grouping_and_offsets(self):
        values = np.array([5.0, 1.0, 7.0, 3.0, 9.0])
        bin_ids = np.array([1, 0, 1, 0, 2])
        perm, sorted_vals, offsets = per_bin_segments(values, bin_ids, 3)
        assert sorted_vals.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert offsets.tolist() == [0, 2, 4, 5]
        # Stability: within a bin the original order (ascending index).
        assert perm.tolist() == [1, 3, 0, 2, 4]

    def test_stability_gives_increasing_local_ids(self, rng):
        values = rng.uniform(0, 1, 500)
        scheme = BinScheme(equal_frequency_boundaries(values, 8))
        perm, _, offsets = per_bin_segments(values, scheme.assign(values), 8)
        for b in range(8):
            seg = perm[offsets[b] : offsets[b + 1]]
            assert np.all(np.diff(seg) > 0)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match=">= n_bins"):
            per_bin_segments(np.ones(2), np.array([0, 5]), 3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            per_bin_segments(np.ones(3), np.array([0, 1]), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=20,
        max_size=400,
    ),
    st.integers(min_value=1, max_value=16),
)
def test_assignment_respects_edges_property(values, n_bins):
    sample = np.array(values)
    edges = equal_frequency_boundaries(sample, n_bins)
    scheme = BinScheme(edges)
    ids = scheme.assign(sample)
    assert ids.min() >= 0 and ids.max() < n_bins
    # Values strictly inside a bin's interval get that bin.
    interior = (sample > edges[0]) & (sample < edges[-1])
    for v, b in zip(sample[interior], ids[interior]):
        assert edges[b] <= v < edges[b + 1] or np.isclose(v, edges[b])
