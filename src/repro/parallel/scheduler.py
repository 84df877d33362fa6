"""Block-to-rank assignment policies for parallel query execution.

Section III-D of the paper: blocks selected for a query are assigned to
MPI processes in *column order* — equal counts per process, filling as
many blocks as possible from a single bin before moving to the next —
so that each process touches the fewest bin files and file contention
is minimized.  A round-robin policy is provided for the scheduling
ablation benchmark.

Work-lists are columnar: a :class:`BlockList` carries the planned
(bin, chunk) work items as three parallel int64 arrays, and both
policies operate on it with one ``lexsort`` plus span slicing — no
per-block Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockList",
    "column_order_assignment",
    "round_robin_assignment",
    "assignment_file_counts",
    "weighted_bin_partition",
]


@dataclass(frozen=True)
class BlockList:
    """A columnar block work-list: parallel int64 arrays, one row per
    (bin, chunk) work item.

    Row ``i`` is the block of chunk ``chunk_ids[i]`` (global id,
    row-major over the chunk grid) at on-disk curve position
    ``cpos[i]`` inside bin ``bin_ids[i]``, the value bin whose subfile
    holds it.
    """

    bin_ids: np.ndarray
    cpos: np.ndarray
    chunk_ids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("bin_ids", "cpos", "chunk_ids"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.int64)
            )
        if not (self.bin_ids.size == self.cpos.size == self.chunk_ids.size):
            raise ValueError(
                f"column lengths differ: {self.bin_ids.size}, "
                f"{self.cpos.size}, {self.chunk_ids.size}"
            )

    def __len__(self) -> int:
        return int(self.bin_ids.size)

    def take(self, indices: np.ndarray) -> "BlockList":
        return BlockList(
            bin_ids=self.bin_ids[indices],
            cpos=self.cpos[indices],
            chunk_ids=self.chunk_ids[indices],
        )

    def span(self, start: int, stop: int) -> "BlockList":
        return BlockList(
            bin_ids=self.bin_ids[start:stop],
            cpos=self.cpos[start:stop],
            chunk_ids=self.chunk_ids[start:stop],
        )

    def lexsorted(self) -> "BlockList":
        """Rows sorted by (bin, on-disk position, chunk id)."""
        order = np.lexsort((self.chunk_ids, self.cpos, self.bin_ids))
        return self.take(order)


def _span_bounds(n: int, n_parts: int) -> np.ndarray:
    """Start offsets of ``n_parts`` near-equal contiguous spans of ``n``."""
    base, extra = divmod(n, n_parts)
    sizes = np.full(n_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def column_order_assignment(blocks: BlockList, n_ranks: int) -> list[BlockList]:
    """Assign blocks to ranks in column (bin-major) order.

    Blocks are sorted by (bin, on-disk position) and split into
    ``n_ranks`` contiguous spans of near-equal length.  Contiguity in
    bin-major order means a rank's span crosses the fewest possible bin
    boundaries, i.e. it opens the fewest files — the paper's stated
    policy for minimizing I/O contention.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    ordered = blocks.lexsorted()
    bounds = _span_bounds(len(ordered), n_ranks)
    return [ordered.span(int(bounds[i]), int(bounds[i + 1])) for i in range(n_ranks)]


def round_robin_assignment(blocks: BlockList, n_ranks: int) -> list[BlockList]:
    """Deal blocks to ranks round-robin (the ablation's strawman).

    Counts stay balanced but every rank touches nearly every bin file,
    maximizing opens and cross-rank contention on the same files.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    ordered = blocks.lexsorted()
    return [
        ordered.take(np.arange(rank, len(ordered), n_ranks, dtype=np.int64))
        for rank in range(n_ranks)
    ]


def weighted_bin_partition(weights: np.ndarray, n_shards: int) -> np.ndarray:
    """Partition bins into ``n_shards`` contiguous ranges of near-equal
    total weight.

    The shard-level extension of the column-order idea: a shard owns a
    *contiguous* range of bin ids — every bin subfile lives in exactly
    one shard and a narrow value-range query touches the fewest shards
    — while the ranges are cut where the cumulative weight (per-bin
    stored bytes in practice) crosses the ideal equal-share points, so
    shards carry comparable data volumes rather than comparable bin
    *counts* (equal-frequency binning balances element counts, not
    compressed bytes).

    Returns the ``n_shards + 1`` boundary array ``b``; shard ``s`` owns
    bins ``[b[s], b[s+1])``.  Boundaries are monotone and cover every
    bin; shards past the weight mass come out empty rather than the cut
    points going non-monotone.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D array, got {weights.shape}")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    n_bins = weights.size
    if n_shards >= n_bins:
        # One bin per shard, trailing shards empty.
        bounds = np.minimum(np.arange(n_shards + 1, dtype=np.int64), n_bins)
        return bounds
    cum = np.cumsum(weights)
    total = cum[-1]
    if total == 0:
        return _span_bounds(n_bins, n_shards)
    ideal = total * np.arange(1, n_shards, dtype=np.float64) / n_shards
    cuts = np.searchsorted(cum, ideal, side="left") + 1
    bounds = np.concatenate(([0], cuts, [n_bins])).astype(np.int64)
    # Weight-driven cuts can collide on one heavy bin; keep them
    # monotone (an empty shard beats splitting a bin).
    np.maximum.accumulate(bounds, out=bounds)
    np.minimum(bounds, n_bins, out=bounds)
    return bounds


def assignment_file_counts(assignment: list[BlockList]) -> np.ndarray:
    """Distinct bins (files) touched by each rank — the contention metric."""
    return np.array(
        [np.unique(rank_blocks.bin_ids).size for rank_blocks in assignment],
        dtype=np.int64,
    )
