"""Chunk grid geometry: the spatial decomposition under every MLOC level.

MLOC divides multidimensional arrays into fixed-shape chunks
(Section III-B2); chunks are the unit of Hilbert-curve ordering, of
spatial query planning, and (with PLoD byte groups and value bins) one
of the three keys of the smallest layout unit.  This module is pure
geometry — positions, coordinates, regions — with every mapping
vectorized.

Conventions
-----------
* A *global position* is the row-major linear index of an element in
  the full array.
* A *chunk id* is the row-major linear index of a chunk in the chunk
  grid.
* A *local id* is the row-major linear index of an element within its
  chunk.
* A *region* is a tuple of per-axis half-open ``(lo, hi)`` integer
  bounds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChunkGrid", "normalize_region"]

Region = tuple[tuple[int, int], ...]


def check_shape_chunks(shape: tuple[int, ...], chunk_shape: tuple[int, ...]) -> None:
    """Validate that ``chunk_shape`` tiles ``shape`` exactly.

    MLOC's layout kernels assume the dataset is an exact grid of chunks;
    ragged edges would complicate the curve ordering without adding
    anything to the reproduction, so we require exact tiling (the
    synthetic datasets are generated at tiling-friendly shapes).
    """
    if len(shape) != len(chunk_shape):
        raise ValueError(
            f"chunk rank {len(chunk_shape)} does not match data rank {len(shape)}"
        )
    for dim, (extent, chunk) in enumerate(zip(shape, chunk_shape)):
        if chunk <= 0:
            raise ValueError(f"chunk_shape[{dim}] must be positive, got {chunk}")
        if extent % chunk != 0:
            raise ValueError(
                f"dimension {dim}: extent {extent} is not a multiple of chunk {chunk}"
            )


def normalize_region(region, shape: tuple[int, ...]) -> Region:
    """Validate and normalize a region against an array shape.

    Accepts per-axis ``(lo, hi)`` pairs or ``slice`` objects (with step
    1); returns canonical ``(lo, hi)`` tuples clipped-checked against
    the shape.
    """
    if len(region) != len(shape):
        raise ValueError(f"region rank {len(region)} != array rank {len(shape)}")
    out = []
    for axis, (bound, extent) in enumerate(zip(region, shape)):
        if isinstance(bound, slice):
            if bound.step not in (None, 1):
                raise ValueError(f"axis {axis}: region slices must have step 1")
            lo = 0 if bound.start is None else int(bound.start)
            hi = extent if bound.stop is None else int(bound.stop)
        else:
            lo, hi = int(bound[0]), int(bound[1])
        if not (0 <= lo < hi <= extent):
            raise ValueError(
                f"axis {axis}: region [{lo}, {hi}) invalid for extent {extent}"
            )
        out.append((lo, hi))
    return tuple(out)


class ChunkGrid:
    """Exact tiling of an N-D array by fixed-shape chunks."""

    def __init__(self, shape: tuple[int, ...], chunk_shape: tuple[int, ...]) -> None:
        shape = tuple(int(s) for s in shape)
        chunk_shape = tuple(int(c) for c in chunk_shape)
        check_shape_chunks(shape, chunk_shape)
        self.shape = shape
        self.chunk_shape = chunk_shape
        self.ndims = len(shape)
        self.grid_shape = tuple(s // c for s, c in zip(shape, chunk_shape))
        self.n_chunks = int(np.prod(self.grid_shape))
        self.chunk_size = int(np.prod(chunk_shape))
        self.n_elements = int(np.prod(shape))
        # Row-major strides in elements.
        self._strides = np.array(
            [int(np.prod(shape[d + 1 :])) for d in range(self.ndims)], dtype=np.int64
        )
        self._grid_strides = np.array(
            [int(np.prod(self.grid_shape[d + 1 :])) for d in range(self.ndims)],
            dtype=np.int64,
        )
        self._chunk_strides = np.array(
            [int(np.prod(chunk_shape[d + 1 :])) for d in range(self.ndims)],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Chunk id <-> chunk coordinates
    # ------------------------------------------------------------------
    def chunk_coords(self, chunk_ids: np.ndarray) -> np.ndarray:
        """Grid coordinates of chunks, shape ``(n, ndims)``."""
        ids = np.asarray(chunk_ids, dtype=np.int64)
        coords = np.empty(ids.shape + (self.ndims,), dtype=np.int64)
        rem = ids
        for d in range(self.ndims):
            coords[..., d], rem = np.divmod(rem, self._grid_strides[d])
        return coords

    def chunk_ids(self, coords: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`chunk_coords`."""
        coords = np.asarray(coords, dtype=np.int64)
        return coords @ self._grid_strides

    def chunk_slices(self, chunk_id: int) -> tuple[slice, ...]:
        """NumPy slices selecting one chunk out of the full array."""
        coords = self.chunk_coords(np.array([chunk_id]))[0]
        return tuple(
            slice(int(c * w), int((c + 1) * w))
            for c, w in zip(coords, self.chunk_shape)
        )

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def chunks_overlapping(self, region: Region) -> np.ndarray:
        """Row-major ids of all chunks intersecting a normalized region."""
        region = normalize_region(region, self.shape)
        axis_ranges = []
        for (lo, hi), w in zip(region, self.chunk_shape):
            axis_ranges.append(np.arange(lo // w, (hi - 1) // w + 1, dtype=np.int64))
        mesh = np.meshgrid(*axis_ranges, indexing="ij")
        coords = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return self.chunk_ids(coords)

    def chunks_within_region(self, chunk_ids: np.ndarray, region: Region) -> np.ndarray:
        """Vectorized interiority: per chunk, True if it lies entirely
        inside the region (its elements need no coordinate filtering)."""
        region = normalize_region(region, self.shape)
        ids = np.asarray(chunk_ids, dtype=np.int64)
        coords = self.chunk_coords(ids)
        mask = np.ones(ids.shape, dtype=bool)
        for d, ((lo, hi), w) in enumerate(zip(region, self.chunk_shape)):
            origin = coords[..., d] * w
            mask &= (origin >= lo) & (origin + w <= hi)
        return mask

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------
    def global_positions(self, chunk_id: int, local_ids: np.ndarray) -> np.ndarray:
        """Global row-major positions of elements given by local ids."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        chunk_origin = self.chunk_coords(np.array([chunk_id]))[0] * np.array(
            self.chunk_shape, dtype=np.int64
        )
        coords = np.empty((local_ids.size, self.ndims), dtype=np.int64)
        rem = local_ids
        for d in range(self.ndims):
            coords[:, d], rem = np.divmod(rem, self._chunk_strides[d])
        coords += chunk_origin[None, :]
        return coords @ self._strides

    def global_coords_batch(
        self,
        chunk_ids: np.ndarray,
        local_ids: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Array coordinates, shape ``(n, ndims)``, of elements given by
        local ids over many chunks.

        ``local_ids`` is the concatenation of each chunk's local ids in
        the order given by ``chunk_ids``; ``counts[i]`` elements belong
        to ``chunk_ids[i]``.
        """
        chunk_ids = np.asarray(chunk_ids, dtype=np.int64)
        local_ids = np.asarray(local_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if int(counts.sum()) != local_ids.size:
            raise ValueError(
                f"counts sum {int(counts.sum())} != local id count {local_ids.size}"
            )
        origins = self.chunk_coords(chunk_ids) * np.array(self.chunk_shape, dtype=np.int64)
        coords = np.repeat(origins, counts, axis=0)
        rem = local_ids
        for d in range(self.ndims):
            local, rem = np.divmod(rem, self._chunk_strides[d])
            coords[:, d] += local
        return coords

    def global_positions_batch(
        self,
        chunk_ids: np.ndarray,
        local_ids: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`global_positions` over many chunks (the
        row-major positions of :meth:`global_coords_batch`)."""
        return self.global_coords_batch(chunk_ids, local_ids, counts) @ self._strides

    def positions_to_coords(self, positions: np.ndarray) -> np.ndarray:
        """Array coordinates of global positions, shape ``(n, ndims)``."""
        pos = np.asarray(positions, dtype=np.int64)
        coords = np.empty(pos.shape + (self.ndims,), dtype=np.int64)
        rem = pos
        for d in range(self.ndims):
            coords[..., d], rem = np.divmod(rem, self._strides[d])
        return coords

    def coords_to_positions(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=np.int64) @ self._strides

    def positions_in_region(self, positions: np.ndarray, region: Region) -> np.ndarray:
        """Boolean mask of positions lying inside a normalized region."""
        region = normalize_region(region, self.shape)
        coords = self.positions_to_coords(positions)
        mask = np.ones(coords.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(region):
            mask &= (coords[:, d] >= lo) & (coords[:, d] < hi)
        return mask

    def chunk_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Chunk id containing each global position."""
        coords = self.positions_to_coords(positions)
        chunk_coords = coords // np.array(self.chunk_shape, dtype=np.int64)
        return self.chunk_ids(chunk_coords)

    def __repr__(self) -> str:
        return (
            f"ChunkGrid(shape={self.shape}, chunk_shape={self.chunk_shape}, "
            f"grid={self.grid_shape}, n_chunks={self.n_chunks})"
        )
