"""Query planning: bin selection, aligned-bin classification, chunk
selection, and the block work-list (Section III-D).

Given a query, the planner decides — entirely from in-memory metadata,
without touching data — which value bins must be visited (and which of
those are *aligned*, i.e. guaranteed to contain only qualifying values),
which chunks intersect the spatial constraint (and which lie fully
inside it, needing no position filtering), and materializes the
per-(bin, chunk) work items handed to the scheduler.

The planning phase is an end-to-end array pipeline: the work-list is a
columnar :class:`~repro.parallel.scheduler.BlockList` (no per-block
Python objects), chunk interiority is one vectorized kernel, and the
per-query constants — store-wide position and cell offset tables, int64
count views, the block tables flattened into sorted global keys — are
precomputed once per store in a :class:`PlanContext`, which also fronts
an optional :class:`PlanCache` LRU so repeated query shapes skip
planning entirely.  The same tables answer, for a whole rank's rows at
once, which block holds each row and where inside it
(:meth:`PlanContext.index_extents`, :meth:`PlanContext.data_extents`,
:func:`merge_extents`) — the arithmetic of the engine's columnar pass.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.binning.binner import BinScheme
from repro.core.chunking import ChunkGrid, normalize_region
from repro.core.query import Query
from repro.parallel.scheduler import BlockList
from repro.plod.byteplanes import GROUP_WIDTHS
from repro.sfc.hierarchical import level_prefix_counts
from repro.sfc.linearize import CurveOrder

if TYPE_CHECKING:
    from repro.core.meta import BlockTable, StoreMeta

__all__ = [
    "QueryPlan",
    "PlanCache",
    "PlanContext",
    "plan_query",
    "cell_sizes",
    "merge_extents",
]


@dataclass
class QueryPlan:
    """The planner's decisions for one query.

    Plans may be shared through a :class:`PlanCache`; treat instances
    handed out by :meth:`PlanContext.plan` as immutable.
    """

    #: Ids of the bins that can contain qualifying values, sorted.
    bin_ids: np.ndarray
    #: Per selected bin: True if its whole content satisfies the VC.
    aligned: np.ndarray
    #: Curve positions of the chunks to visit, sorted.
    cpos: np.ndarray
    #: Row-major chunk ids aligned with ``cpos``.
    chunk_ids: np.ndarray
    #: Per chunk: True if it lies entirely inside the region (no SC filter).
    interior: np.ndarray
    #: Normalized region or None.
    region: tuple[tuple[int, int], ...] | None

    def is_aligned(self, bin_id: int) -> bool:
        idx = int(np.searchsorted(self.bin_ids, bin_id))
        if idx >= self.bin_ids.size or self.bin_ids[idx] != bin_id:
            raise ValueError(f"bin {bin_id} is not part of this plan")
        return bool(self.aligned[idx])

    def interior_of(self, cpos: np.ndarray) -> np.ndarray:
        """Vectorized interior flags for an array of chunk positions."""
        cpos = np.asarray(cpos, dtype=np.int64)
        if self.cpos.size == 0:
            if cpos.size:
                raise ValueError(
                    f"chunk positions {cpos.tolist()} are not part of this plan"
                )
            return np.empty(0, dtype=bool)
        idx = np.searchsorted(self.cpos, cpos)
        clipped = np.minimum(idx, self.cpos.size - 1)
        unknown = self.cpos[clipped] != cpos
        if unknown.any():
            raise ValueError(
                f"chunk positions {cpos[unknown].tolist()} are not part of this plan"
            )
        return self.interior[clipped]

    def block_list(self) -> BlockList:
        """The (bin, chunk) work items as a columnar array work-list.

        Bins and chunk positions are each sorted ascending, so the
        repeat/tile product is already bin-major ordered — exactly the
        order the column scheduler wants.
        """
        n_chunks = self.cpos.size
        n_bins = self.bin_ids.size
        return BlockList(
            bin_ids=np.repeat(self.bin_ids.astype(np.int64), n_chunks),
            cpos=np.tile(self.cpos, n_bins),
            chunk_ids=np.tile(self.chunk_ids, n_bins),
        )

    def narrow(self, keep: np.ndarray) -> int:
        """Drop the chunks where ``keep`` is False, in place.

        Only valid on caller-owned plans (:meth:`PlanContext.
        plan_uncached`) — plans served by the cache are shared and must
        not be mutated.  Keeping a subsequence preserves the sorted
        order the ``searchsorted`` lookups rely on.  Returns the number
        of chunks dropped.
        """
        dropped = int(self.cpos.size - np.count_nonzero(keep))
        if dropped:
            self.cpos = self.cpos[keep]
            self.chunk_ids = self.chunk_ids[keep]
            self.interior = self.interior[keep]
        return dropped

    def narrow_bins(self, keep: np.ndarray) -> int:
        """Drop the bins where ``keep`` is False, in place.

        The bin-axis counterpart of :meth:`narrow`, with the same
        caller-owned-plan contract.  Returns the number of bins
        dropped.
        """
        dropped = int(self.bin_ids.size - np.count_nonzero(keep))
        if dropped:
            self.bin_ids = self.bin_ids[keep]
            self.aligned = self.aligned[keep]
        return dropped

    @property
    def n_blocks(self) -> int:
        return int(self.bin_ids.size) * int(self.cpos.size)


def cell_sizes(config, counts: np.ndarray, n_chunks: int) -> np.ndarray:
    """Byte size of every cell of a bin, in file cell order.

    ``counts`` is one bin's per-chunk counts or the whole
    ``(n_bins, n_chunks)`` matrix (one row of cells per bin).
    """
    counts = counts.astype(np.int64)
    if not config.plod_enabled:
        return counts * 8
    widths = np.array(GROUP_WIDTHS, dtype=np.int64)
    cells = counts.shape[:-1] + (-1,)
    if config.group_major:  # cell = g * n_chunks + cpos
        return (widths[:, None] * counts[..., None, :]).reshape(cells)
    # cell = cpos * n_groups + g
    return (counts[..., :, None] * widths).reshape(cells)


def _flatten_block_tables(
    table: BlockTable, stride: int, offsets: np.ndarray, raw_col: int | None
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """A block table as one store-wide lookup.

    ``table`` rows are ``(first, end, offset, length, ..., crc)`` with
    ``[first, end)`` the chunk positions (index) or layout cells (data)
    the block covers; ``stride`` is the size of a bin's key space and
    ``offsets[b]`` its prefix sums.  Returns, in global block id order:
    every block as a tuple ``(bin, row_in_bin, first, end, offset,
    length, raw_bytes, crc)``, the sorted keys ``bin * stride + first``,
    and the base offsets ``offsets[bin, first]``.  ``raw_bytes`` is
    column ``raw_col``, or 8 B per covered position where the table
    (the index's) records none.
    """
    rows = table.rows
    bins = table.bins()
    row_in_bin = np.arange(bins.size, dtype=np.int64) - table.bounds[bins]
    first, end = rows[:, 0], rows[:, 1]
    base = offsets[bins, first]
    raw = rows[:, raw_col] if raw_col is not None else (offsets[bins, end] - base) * 8
    reads = np.column_stack((bins, row_in_bin, rows[:, :4], raw, rows[:, -1]))
    return list(map(tuple, reads.tolist())), bins * stride + first, base


class PlanCache:
    """Small LRU of query plans keyed by a query fingerprint.

    Planning is deterministic, so serving a cached plan can never
    change results — it only skips the planning work.  Cached plans
    are shared between queries and must not be mutated.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple) -> QueryPlan | None:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: tuple, plan: QueryPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)


class PlanContext:
    """Store-resident planning context, built once per opened store.

    Precomputes everything per-query planning and rank-work assembly
    would otherwise rebuild from the raw metadata on every call.  Every
    table is store-wide — addressable for the rows of a whole rank in
    one indexing operation — and shared by the handle's shard engines
    and sessions:

    * ``counts64`` — the ``(n_bins, n_chunks)`` element counts as int64;
    * ``pos_offsets`` — ``(n_bins, n_chunks + 1)`` cumulative element
      counts over chunk positions (where a chunk starts inside its
      bin's decoded position stream);
    * ``cell_offsets`` — ``(n_bins, n_cells + 1)`` cumulative byte
      offsets of the layout cells (prefix sums over :func:`cell_sizes`;
      every bin has the same ``n_groups x n_chunks`` cell grid);
    * ``index_keys`` / ``data_keys`` — the first chunk position / first
      cell of every block of every bin as sorted global keys
      ``bin * n_chunks + cpos_start`` / ``bin * n_cells + first_cell``:
      one ``searchsorted`` maps any set of (bin, chunk) or (bin, cell)
      pairs to global block ids;
    * ``index_base`` / ``data_base`` — per global block id, the
      ``pos_offsets`` / ``cell_offsets`` entry of its first chunk / cell
      (subtract to address inside the decoded block);
    * ``index_reads`` / ``data_reads`` — per global block id, the block
      as a plain tuple ``(bin, row_in_bin, first, end, offset, length,
      raw_bytes, crc)``, ready for a read request;
    * the hierarchical-curve level prefix table, when applicable.

    With ``plan_cache > 0`` the context also keeps a :class:`PlanCache`
    so repeated query shapes — the hot case for a serving workload —
    skip planning entirely.
    """

    def __init__(
        self,
        meta: "StoreMeta",
        grid: ChunkGrid,
        curve: CurveOrder,
        scheme: BinScheme,
        *,
        plan_cache: int = 0,
    ) -> None:
        if plan_cache < 0:
            raise ValueError(f"plan_cache must be >= 0, got {plan_cache}")
        self.grid = grid
        self.curve = curve
        self.scheme = scheme
        self.hierarchical = meta.config.curve == "hierarchical"
        self.level_prefixes = (
            level_prefix_counts(grid.grid_shape) if self.hierarchical else None
        )
        self.cache = PlanCache(plan_cache) if plan_cache > 0 else None
        self.config = meta.config
        self.counts64 = meta.counts.astype(np.int64)
        #: Per-bin element totals (``counts.sum(axis=1)``), hoisted here
        #: so selectivity estimation never rebuilds them per call.
        self.bin_totals = self.counts64.sum(axis=1)
        n_bins, n_chunks = self.counts64.shape
        self.pos_offsets = np.zeros((n_bins, n_chunks + 1), dtype=np.int64)
        np.cumsum(self.counts64, axis=1, out=self.pos_offsets[:, 1:])
        sizes = cell_sizes(meta.config, self.counts64, n_chunks)
        self.n_chunks, self.n_cells = n_chunks, sizes.shape[1]
        self.cell_offsets = np.zeros((n_bins, self.n_cells + 1), dtype=np.int64)
        np.cumsum(sizes, axis=1, out=self.cell_offsets[:, 1:])
        self.index_reads, self.index_keys, self.index_base = _flatten_block_tables(
            meta.index_blocks, n_chunks, self.pos_offsets, raw_col=None
        )
        self.data_reads, self.data_keys, self.data_base = _flatten_block_tables(
            meta.data_blocks, self.n_cells, self.cell_offsets, raw_col=4
        )

    # ------------------------------------------------------------------
    def fingerprint(self, query: Query) -> tuple:
        """Cache key: everything a plan (or its execution shape) can
        depend on — value range, normalized region, levels, output."""
        region = (
            None
            if query.region is None
            else normalize_region(query.region, self.grid.shape)
        )
        return (
            query.value_range,
            region,
            query.plod_level,
            query.resolution_level,
            query.output,
            query.tol,
            query.tol_metric,
        )

    def plan(self, query: Query) -> QueryPlan:
        """Plan a query, through the LRU when one is configured.

        The returned plan may be shared with other queries — treat it
        as immutable (use :meth:`plan_uncached` for a private copy).
        """
        if self.cache is None:
            return self.plan_uncached(query)
        key = self.fingerprint(query)
        plan = self.cache.get(key)
        if plan is None:
            plan = self.plan_uncached(query)
            self.cache.put(key, plan)
        return plan

    def plan_uncached(self, query: Query) -> QueryPlan:
        """Always plan from scratch; the result is caller-owned."""
        return plan_query(
            self.grid,
            self.curve,
            self.scheme,
            query,
            hierarchical=self.hierarchical,
            prefixes=self.level_prefixes,
        )

    def estimated_raw_bytes(
        self,
        query: Query,
        plan: QueryPlan,
        chunk_levels: np.ndarray | None = None,
    ) -> int:
        """Raw (decoded) bytes this planned query will demand, estimated.

        Used for admission control and fair-scheduling cost accounting
        (the broker layer); never consulted by execution, so it can
        stay cheap: per planned bin, the position index contributes
        8 B/point, and — when the bin needs its data subfile at all —
        the data payload contributes one byte per point per requested
        PLoD group (8 B/point on whole-value layouts).  Block rounding
        is ignored, so this is a slight underestimate of the exact
        per-block raw footprint.

        ``chunk_levels`` (a per-curve-position level array from an
        error-bounded plan) replaces the uniform group count with each
        chunk's own requested level, so broker admission costing sees
        the bytes a ``tol`` query will actually demand.
        """
        config = self.config
        counts = self.counts64[np.ix_(plan.bin_ids, plan.cpos)]
        total = int(counts.sum()) * 8  # index positions
        if not query.wants_values:
            counts = counts[~plan.aligned]
        if config.plod_enabled and chunk_levels is not None:
            levels = np.clip(chunk_levels[plan.cpos], 1, config.n_groups)
            return total + int((counts * levels).sum())
        n_groups = (
            min(query.plod_level, config.n_groups) if config.plod_enabled else 8
        )
        return total + int(counts.sum()) * n_groups

    # ------------------------------------------------------------------
    def index_blocks(self, bin_ids: np.ndarray, cpos: np.ndarray) -> np.ndarray:
        """The global index block id holding each (bin, chunk) row."""
        keys = bin_ids * self.n_chunks + cpos
        return np.searchsorted(self.index_keys, keys, side="right") - 1

    def index_extents(
        self, bin_ids: np.ndarray, cpos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each (bin, chunk) row's positions sit: the global index
        block id and the ``[lo, hi)`` element extent inside its decoded
        position array, one entry per row."""
        block = self.index_blocks(bin_ids, cpos)
        base = self.index_base[block]
        return (
            block,
            self.pos_offsets[bin_ids, cpos] - base,
            self.pos_offsets[bin_ids, cpos + 1] - base,
        )

    def data_blocks(
        self, bin_ids: np.ndarray, cpos: np.ndarray, n_groups: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The global data block id of cell (group ``g``, row) and the
        cell's number in its bin's layout, as ``(n_groups, n_rows)``
        matrices (whole-value layouts have the single group 0)."""
        config = self.config
        groups = np.arange(n_groups, dtype=np.int64)[:, None]
        if not config.plod_enabled:
            cell = cpos[None, :]
        elif config.group_major:  # V-M-S
            cell = groups * self.n_chunks + cpos
        else:  # V-S-M
            cell = cpos * config.n_groups + groups
        key = bin_ids * self.n_cells + cell
        block = (
            np.searchsorted(self.data_keys, key.reshape(-1), side="right") - 1
        ).reshape(key.shape)
        return block, cell

    def data_extents(
        self, bin_ids: np.ndarray, cpos: np.ndarray, n_groups: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each row's value bytes sit, per leading byte group.

        Returns three ``(n_groups, n_rows)`` matrices: the global data
        block id of cell (group ``g``, row) and its ``[lo, hi)`` extent
        inside the decoded block, in items of that block — bytes on
        PLoD layouts, float64 values on whole-value layouts.
        """
        block, cell = self.data_blocks(bin_ids, cpos, n_groups)
        base = self.data_base[block]
        lo = self.cell_offsets[bin_ids, cell] - base
        hi = self.cell_offsets[bin_ids, cell + 1] - base
        if not self.config.plod_enabled:
            lo, hi = lo // 8, hi // 8
        return block, lo, hi

    def prune_plan(self, plan: QueryPlan, hbi) -> int:
        """Drop plan chunks the hierarchical index proves empty.

        Two-stage refinement over a caller-owned plan: interior tree
        nodes first rule out whole chunk-runs whose cardinality over
        the plan's bin range is zero (no per-chunk work at all), then
        the exact per-chunk counts narrow the surviving runs.  A chunk
        holding zero elements of the selected bins contributes no
        positions and no values, so dropping it cannot change the
        answer — pruned plans stay bit-identical to unpruned ones
        (DESIGN.md §6).  Returns the number of chunks dropped.
        """
        if plan.bin_ids.size == 0 or plan.cpos.size == 0:
            return 0
        bins = plan.bin_ids.astype(np.int64)
        bin_lo, bin_hi = int(bins[0]), int(bins[-1]) + 1
        run_totals, _ = hbi.range_run_counts(bin_lo, bin_hi)
        keep = run_totals[plan.cpos // hbi.leaf_span] > 0
        survivors = np.flatnonzero(keep)
        if survivors.size:
            sub = plan.cpos[survivors]
            if bin_hi - bin_lo == bins.size:  # contiguous bin range
                exact = self.counts64[bin_lo:bin_hi, sub].sum(axis=0)
            else:
                exact = self.counts64[bins][:, sub].sum(axis=0)
            keep[survivors[exact == 0]] = False
        return plan.narrow(keep)


def plan_query(
    grid: ChunkGrid,
    curve: CurveOrder,
    scheme: BinScheme,
    query: Query,
    *,
    hierarchical: bool = False,
    prefixes: np.ndarray | None = None,
) -> QueryPlan:
    """Plan a query against one stored variable.

    Parameters
    ----------
    grid, curve, scheme:
        The store's geometry, chunk ordering, and bin scheme.
    query:
        The access request.
    hierarchical:
        Whether the store uses the hierarchical (subset-multiresolution)
        curve; required for ``query.resolution_level``.
    prefixes:
        Optional precomputed hierarchical level prefix table (from a
        :class:`PlanContext`); derived from the grid when omitted.
    """
    # --- Value constraint -> bins -------------------------------------
    if query.value_range is not None:
        lo, hi = query.value_range
        bin_ids, aligned = scheme.bins_overlapping(float(lo), float(hi))
    else:
        # No VC: every bin participates and no value filtering is
        # needed anywhere, which is exactly the "aligned" property.
        bin_ids = np.arange(scheme.n_bins, dtype=np.int32)
        aligned = np.ones(scheme.n_bins, dtype=bool)

    # --- Spatial constraint -> chunks ----------------------------------
    if query.region is not None:
        region = normalize_region(query.region, grid.shape)
        chunk_ids = grid.chunks_overlapping(region)
        interior = grid.chunks_within_region(chunk_ids, region)
    else:
        region = None
        chunk_ids = np.arange(grid.n_chunks, dtype=np.int64)
        interior = np.ones(grid.n_chunks, dtype=bool)

    cpos = curve.positions_of(chunk_ids)

    # --- Subset-based multiresolution ----------------------------------
    if query.resolution_level is not None:
        if not hierarchical:
            raise ValueError(
                "resolution_level requires a store written with the "
                "'hierarchical' curve (subset-based multiresolution)"
            )
        if prefixes is None:
            prefixes = level_prefix_counts(grid.grid_shape)
        level = min(query.resolution_level, prefixes.size - 1)
        keep = cpos < prefixes[level]
        cpos, chunk_ids, interior = cpos[keep], chunk_ids[keep], interior[keep]

    order = np.argsort(cpos)
    return QueryPlan(
        bin_ids=bin_ids,
        aligned=aligned,
        cpos=cpos[order],
        chunk_ids=chunk_ids[order],
        interior=interior[order],
        region=region,
    )


def merge_extents(
    block: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    wanted: np.ndarray | None = None,
) -> list[tuple[int, int, int, int]]:
    """Maximal copy runs ``(block, lo, hi, dest)`` over a set of extents.

    Extent ``i`` is the items ``[lo[i], hi[i])`` of decoded block
    ``block[i]``; inputs are one entry per extent, or a matrix with one
    row per output plane, each plane ascending in the source (as rows
    in curve order do).  The output is the concatenation of all extents
    in (plane, entry) order, so ``dest`` — where a run lands in it — is
    the running sum of the extent lengths; an un-``wanted`` extent keeps
    its place there (left for the caller's fill value) but is not
    copied.  Neighbours merge when they share a block and a plane and
    touch in the source; whatever was dropped between them is empty,
    or it would separate them in the block too, so they touch in the
    output as well.  Under Hilbert order a box touches few chunk runs:
    a rank's hundreds of cells collapse into a handful of slices.
    """
    n_cols = block.shape[-1]
    block, lo, hi = (a.reshape(-1) for a in (block, lo, hi))
    length = hi - lo
    dest = np.cumsum(length) - length
    keep = length > 0
    if wanted is not None:
        keep &= wanted.reshape(-1)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return []
    plane = idx // n_cols
    block, lo, hi, dest = block[idx], lo[idx], hi[idx], dest[idx]
    joined = (
        (block[1:] == block[:-1])
        & (plane[1:] == plane[:-1])
        & (lo[1:] == hi[:-1])
    )
    first = np.flatnonzero(np.concatenate(([True], ~joined)))
    last = np.concatenate((first[1:], [idx.size])) - 1
    return list(
        zip(
            block[first].tolist(),
            lo[first].tolist(),
            hi[last].tolist(),
            dest[first].tolist(),
        )
    )
