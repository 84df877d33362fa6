"""Chunk-grid linearization: map a grid of chunks onto a 1-D curve order.

The MLOC writer places data chunks on disk in space-filling-curve order
(Section III-B2).  Because the curve order is a pure function of the
grid dimensions, *no metadata beyond the grid shape* is needed to
recover it at query time — the property the paper highlights for its
light-weight indexing.

Grids whose per-axis chunk counts are not powers of two are handled by
computing the curve on the smallest enclosing power-of-two cube and
dropping positions that fall outside the real grid; the relative order
of the remaining chunks is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.sfc.hilbert import hilbert_encode
from repro.sfc.zorder import zorder_encode

__all__ = ["chunk_curve_order", "CurveOrder", "CURVES"]

CURVES = ("hilbert", "zorder", "rowmajor")


class CurveOrder:
    """A bidirectional chunk ordering.

    Attributes
    ----------
    order:
        ``order[pos]`` = row-major chunk id stored at on-disk position
        ``pos``.
    rank:
        Inverse permutation: ``rank[chunk_id]`` = on-disk position.

    Both arrays are read-only.
    """

    def __init__(self, order: np.ndarray) -> None:
        self.order = np.array(order, dtype=np.int64, order="C")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.order.size, dtype=np.int64)
        # Instances are shared (``make_curve`` memoises them per grid).
        self.order.setflags(write=False)
        self.rank.setflags(write=False)

    def __len__(self) -> int:
        return int(self.order.size)

    def positions_of(self, chunk_ids: np.ndarray) -> np.ndarray:
        """On-disk positions of the given row-major chunk ids."""
        return self.rank[np.asarray(chunk_ids, dtype=np.int64)]

    def chunks_at(self, positions: np.ndarray) -> np.ndarray:
        """Row-major chunk ids stored at the given on-disk positions."""
        return self.order[np.asarray(positions, dtype=np.int64)]


def _grid_coords(grid_shape: tuple[int, ...]) -> np.ndarray:
    """Row-major coordinates of every cell of the grid, shape (n, ndims)."""
    axes = [np.arange(extent, dtype=np.int64) for extent in grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def chunk_curve_order(grid_shape: tuple[int, ...], curve: str = "hilbert") -> CurveOrder:
    """Compute the on-disk ordering of a chunk grid.

    Parameters
    ----------
    grid_shape:
        Number of chunks along each axis.
    curve:
        ``"hilbert"`` (MLOC's choice), ``"zorder"`` or ``"rowmajor"``
        (ablation comparators).

    Returns
    -------
    CurveOrder
        The permutation between row-major chunk ids and disk positions.
    """
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; expected one of {CURVES}")
    if len(grid_shape) == 0:
        raise ValueError("grid_shape must have at least one dimension")
    if any(extent <= 0 for extent in grid_shape):
        raise ValueError(f"grid extents must be positive, got {grid_shape}")

    n_chunks = int(np.prod(grid_shape))
    if curve == "rowmajor" or n_chunks == 1 or len(grid_shape) == 1:
        return CurveOrder(np.arange(n_chunks, dtype=np.int64))

    nbits = max(int(extent - 1).bit_length() for extent in grid_shape)
    nbits = max(nbits, 1)
    coords = _grid_coords(grid_shape)
    if curve == "hilbert":
        keys = hilbert_encode(coords, nbits)
    else:
        keys = zorder_encode(coords, nbits)
    # Chunk ids are row-major positions; sort them by curve key.  For a
    # power-of-two grid this is a pure permutation of the full curve;
    # otherwise it is the curve restricted to the real grid.
    order = np.argsort(keys, kind="stable").astype(np.int64)
    return CurveOrder(order)
