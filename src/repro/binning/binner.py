"""Bin assignment and aligned-bin classification.

A :class:`BinScheme` wraps a set of bin edges and provides the two
operations MLOC's planner needs:

* ``assign`` — vectorized mapping from values to bin ids (used by the
  writer when scattering chunk elements into bin streams);
* ``bins_overlapping`` — which bins a value constraint touches, and
  which of those are *aligned* (bin interval fully inside the
  constraint), enabling the paper's index-only fast path for
  region-only queries (Section III-D1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BinScheme", "per_bin_segments"]


class BinScheme:
    """Half-open value bins ``[edges[i], edges[i+1])``, last bin closed.

    Values below ``edges[0]`` or above ``edges[-1]`` are clamped into
    the first/last bin (boundaries come from a sample, so the full
    dataset can slightly exceed the sampled range).  Because of the
    clamping, the *effective* coverage of the first and last bins is
    unbounded, and they are therefore never classified as aligned
    unless the constraint itself is unbounded on that side.
    """

    def __init__(self, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D array with at least two entries")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges

    @property
    def n_bins(self) -> int:
        return int(self.edges.size - 1)

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Bin id of every value (vectorized, clamped at the ends)."""
        values = np.asarray(values)
        ids = np.searchsorted(self.edges, values, side="right") - 1
        return np.clip(ids, 0, self.n_bins - 1).astype(np.int32)

    def bins_overlapping(
        self, lo: float, hi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bins intersecting the closed value constraint ``[lo, hi]``.

        Returns
        -------
        (bin_ids, aligned)
            ``bin_ids`` — sorted ids of the bins that can contain
            qualifying values; ``aligned`` — boolean mask marking bins
            whose entire content is guaranteed to satisfy the
            constraint (no value filtering needed).
        """
        if hi < lo:
            raise ValueError(f"empty value constraint [{lo}, {hi}]")
        first = int(np.clip(np.searchsorted(self.edges, lo, side="right") - 1, 0, self.n_bins - 1))
        last = int(np.clip(np.searchsorted(self.edges, hi, side="right") - 1, 0, self.n_bins - 1))
        # A constraint entirely below/above all edges still clamps into
        # the end bins, which is correct: clamped outliers live there.
        bin_ids = np.arange(first, last + 1, dtype=np.int32)

        lo_edges = self.edges[bin_ids]
        hi_edges = self.edges[bin_ids + 1]
        aligned = (lo_edges >= lo) & (hi_edges <= hi)
        # End bins hold clamped out-of-range values, so their effective
        # coverage is unbounded: only aligned if the constraint is too.
        aligned[bin_ids == 0] &= np.isneginf(lo)
        aligned[bin_ids == self.n_bins - 1] &= np.isposinf(hi)
        return bin_ids, aligned


def per_bin_segments(
    values: np.ndarray, bin_ids: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-sort elements by bin, returning the grouped layout.

    Parameters
    ----------
    values:
        The element values of one chunk, or of any number of chunks
        concatenated (1-D).
    bin_ids:
        Bin id of each element, as returned by :meth:`BinScheme.assign`.
    n_bins:
        Total number of bins.

    Returns
    -------
    (perm, sorted_values, offsets)
        ``perm`` — stable permutation grouping elements by bin (within
        a bin the original order — i.e. chunk by chunk, increasing
        local position within a chunk — is preserved);
        ``sorted_values = values[perm]``;
        ``offsets`` — length ``n_bins + 1`` prefix offsets such that
        bin ``b``'s elements occupy ``[offsets[b], offsets[b+1])``.
    """
    values = np.asarray(values)
    bin_ids = np.asarray(bin_ids)
    if values.shape != bin_ids.shape or values.ndim != 1:
        raise ValueError("values and bin_ids must be equal-length 1-D arrays")
    counts = np.bincount(bin_ids, minlength=n_bins)
    if counts.size > n_bins:
        raise ValueError("bin_ids contains ids >= n_bins")
    # Every id is now known to lie in [0, n_bins): a 16-bit key sorts
    # the same way and takes NumPy's radix path instead of a merge sort.
    keys = bin_ids.astype(np.int16) if n_bins <= 1 << 15 else bin_ids
    perm = np.argsort(keys, kind="stable")
    offsets = np.zeros(n_bins + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return perm, values[perm], offsets
