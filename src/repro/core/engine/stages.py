"""Staged query engine: Plan → IOScheduler → Decode, then Assemble.

This is the middle engine layer: it turns a
:class:`~repro.core.planner.QueryPlan` into the bulk-synchronous
parallel program the paper describes (Section III-D, Fig. 5).  The
program is split where the simulated clock stops caring:

**Stage** — :meth:`QueryEngine.stage`, once per query, in submission
order.  Everything that is *charged* happens here:

1. **Plan** — the planner's output is split over simulated MPI ranks
   (column order by default: each rank touches the fewest bin files).
   The query's work is one set of parallel row arrays (bin, curve
   position, chunk id — rank-major, bin-major inside a rank, positions
   ascending inside a bin) with the rank as a column; the store-wide
   tables of the :class:`~repro.core.planner.PlanContext` give every
   row's index block and the ``(byte group, row)`` matrix of data
   blocks in a constant number of NumPy calls;
2. **IOScheduler** — each rank's distinct blocks are requested in
   ascending ``(bin, row)`` order (which with the rank fixes the
   ``order_key`` that replays cache insertions), *deferred* into the
   rank's :class:`~repro.core.engine.scheduler.IOScheduler` and flushed
   sorted by ``(subfile, offset)`` in two waves — all index reads, then
   all data reads — in deterministic rank order.  All verified-read /
   retry / quarantine semantics live in the scheduler; with
   ``coalesce_gap=0`` every block is its own read;
3. **Classify** — blocks whose read exhausted its retries are mapped
   onto the degradation policy: rows of a lost index block leave the
   answer, a lost base plane drops its points, a lost refinement plane
   caps the row's effective level — or, in strict mode, the structured
   :class:`~repro.core.errors.DegradedResultError` is raised;
4. **Decode** — pending decode jobs run inline (``serial``), on a
   thread pool (``threads``), or as picklable specs on the persistent
   worker pool (``processes``); results commit in plan order.

A :class:`StagedQuery` is what is left: the row columns, the decoded
blocks its ranks hold, and every simulated second and counter but the
two that depend on the answer's size (``communication``,
``n_results``), all counted in one
:class:`~repro.core.engine.scheduler.QueryCounters` record and the
ranks' schedulers.  Which query and which rank pays each block, every
``PFSSession`` and the LRU's touch/insert order are fixed before any
value is gathered.

**Assemble** — :meth:`QueryEngine.assemble`, once per *list* of staged
queries (a ``query_many`` batch, a broker round; a single query is a
list of one).  Nothing here is charged, so nothing here can be seen by
the simulated accounting — which is why it may be shared:

* the rows of the queries that can share are unioned (sorted global
  ``bin * n_chunks + cpos`` keys), and the extents, the slice copies
  out of the decoded blocks (neighbours that share a block and touch
  in the source collapse into one slice — under Hilbert order a box is
  a handful of copies), the global positions and the PLoD byte-plane
  assembly run **once** over the union (:meth:`QueryEngine._gather_cells`);
* each query then takes its rows' elements out of the union and
  applies its own value range, boundary-chunk region test, position
  filter and degradation masks, splits the survivors by rank for the
  simulated gather, and sorts (:meth:`QueryEngine._filter_gather`).

The **fuse rule** is derived from the staged queries, never
configured: two queries share a union when a gathered row means the
same thing to both — the same PLoD level on every row (a uniform
``plod_level``; per-chunk ``tol`` levels differ row by row) and no
quarantined block (a lost plane leaves zeros that only its own query's
masks know how to discard).  Anything else is a group of one through
the same two functions.  Overlapping boxes under Hilbert order share
few, long curve ranges, so the union of a round is a small multiple of
one query and its cost is paid once instead of once per tenant.

Response time = simulated parallel I/O (max-loaded OST / node link +
max-rank overhead) + max-rank decompression + max-rank reconstruction +
communication.  Both CPU components are modeled from counted bytes by
:meth:`~repro.pfs.costmodel.PFSCostModel.cpu_seconds` (DESIGN.md §5):
decompression from the raw bytes a rank decoded, reconstruction from
the candidate bytes its rows hold (8 B per position plus 8 B per value,
before any filter) — both functions of the query's own plan, whoever
shares the pass.  Aligned bins under region-only output never touch
the data subfiles — the index-only fast path of Section III-D1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.compression.base import make_codec
from repro.core.chunking import ChunkGrid
from repro.core.config import ExecutionConfig
from repro.core.engine.scheduler import (
    IOScheduler,
    PendingRead,
    QueryCounters,
    _BlockFetcher,
    _DecodeJob,
    _job_lost,
)
from repro.core.errors import DegradedResultError
from repro.core.meta import StoreMeta
from repro.core.planner import PlanContext, QueryPlan, merge_extents
from repro.core.query import Query
from repro.core.result import ComponentTimes, QueryResult
from repro.index.binindex import PositionBlock
from repro.index.bitmap import Bitmap
from repro.parallel.procpool import get_pool
from repro.parallel.scheduler import (
    column_order_assignment,
    round_robin_assignment,
)
from repro.parallel.simmpi import CommCostModel, SimCommunicator
from repro.pfs.blockcache import BlockCache
from repro.pfs.costmodel import (
    ASSEMBLY_THROUGHPUT,
    FILTER_GATHER_THROUGHPUT,
    INDEX_DECODE_THROUGHPUT,
    PFSCostModel,
)
from repro.pfs.layout import BinFileSet, aggregate_parallel_time
from repro.pfs.simfs import SimulatedPFS
from repro.plod.byteplanes import (
    GROUP_OFFSETS,
    GROUP_WIDTHS,
    assemble_from_groups,
    assemble_from_groups_degraded,
)
from repro.sfc.linearize import CurveOrder

__all__ = ["QueryEngine", "StagedQuery", "modeled_decompression"]

_SCHEDULERS = {
    "column": column_order_assignment,
    "round-robin": round_robin_assignment,
}
#: ``order_key`` block kinds: a bin's index blocks replay before its
#: data blocks.
_INDEX, _DATA = 0, 1


def modeled_decompression(
    codec, byte_scale: float, data_raw_bytes: int, index_raw_bytes: int
) -> float:
    """Modeled decompression seconds of one rank (DESIGN.md §5): codec
    decode + index decode + cell-gather/PLoD-assembly of the raw bytes
    it decoded."""
    cpu_seconds = PFSCostModel(byte_scale=byte_scale).cpu_seconds
    return (
        cpu_seconds(data_raw_bytes, codec.decode_throughput)
        + cpu_seconds(index_raw_bytes, INDEX_DECODE_THROUGHPUT)
        + cpu_seconds(data_raw_bytes, ASSEMBLY_THROUGHPUT)
    )


def _run_starts(values: np.ndarray, rank_starts: np.ndarray) -> np.ndarray:
    """First row of every run of equal ``values`` that does not cross a
    rank's first row."""
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    new[rank_starts[rank_starts < values.size]] = True
    return np.flatnonzero(new)


@dataclass
class _Rank:
    """One simulated rank's accounting context.

    The rank's rows are ``rank_of_row == rank`` of its staged query;
    its ``(rank, bin)`` runs are ``runs`` of the query's run table, and
    a run's index inside that slice is the ``bin_seq`` of its blocks'
    order keys.  Its scheduler holds its PFS session, file handles and
    raw-byte counts.
    """

    rank: int
    sched: IOScheduler
    runs: slice
    #: Per subfile kind: global block id -> deferred decode.
    jobs: dict[int, dict[int, _DecodeJob]] = field(default_factory=dict)


@dataclass
class StagedQuery:
    """A query after Plan → IOScheduler → Classify → Decode.

    Every block it needs has been requested, read (or classified lost)
    and decoded, and all simulated accounting but the answer-sized
    part is final; nothing is gathered yet.  A row is one planned
    (bin, chunk); rows are rank-major, bin-major inside a rank, curve
    positions ascending inside a bin, and every row array below is
    aligned with them.
    """

    query: Query
    plan: QueryPlan
    position_filter: Bitmap | None
    rank_of_row: np.ndarray
    bin_ids: np.ndarray
    cpos: np.ndarray
    #: Elements per row, and whether the row's bin is aligned.
    counts: np.ndarray
    aligned: np.ndarray
    ranks: list[_Rank] = field(default_factory=list)
    #: The engine rows of ``QueryResult.stats``; ``degraded_points`` and
    #: ``n_results`` are filled by the assemble step.
    stats: dict = field(default_factory=dict)
    #: Final but for ``communication``.
    times: ComponentTimes = field(default_factory=ComponentTimes)
    #: Whether some block the query touched is quarantined.
    quarantined: bool = False
    #: Rows whose values are fetched, and the PLoD level requested of
    #: each (1 on whole-value layouts).
    need: np.ndarray | None = None
    level: np.ndarray | None = None
    #: The one level of every row, or ``None`` under per-chunk levels.
    uniform_level: int | None = None
    #: Per-row effective PLoD level where refinement blocks were
    #: quarantined; ``None`` if no precision was lost.
    effective: np.ndarray | None = None

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False."""
        for name in (
            "rank_of_row", "bin_ids", "cpos", "counts", "aligned",
            "need", "level", "effective",
        ):  # fmt: skip
            column = getattr(self, name)
            if column is not None:
                setattr(self, name, column[keep])

    def rank_bounds(self) -> np.ndarray:
        """First row of every rank, and the row count."""
        return np.searchsorted(self.rank_of_row, np.arange(len(self.ranks) + 1))

    def lost(self, kind: int, block: np.ndarray) -> np.ndarray:
        """Where ``block`` (global ids of one kind, rows on the last
        axis) names a block the row's own rank lost."""
        lost = np.zeros(block.shape, dtype=bool)
        for state in self.ranks:
            lost_ids = [b for b, job in state.jobs[kind].items() if _job_lost(job)]
            if lost_ids:
                lost |= (self.rank_of_row == state.rank) & np.isin(block, lost_ids)
        return lost

    def jobs(self, kind: int) -> dict[int, _DecodeJob]:
        """Every block of one kind the ranks hold, by global block id."""
        held: dict[int, _DecodeJob] = {}
        for state in self.ranks:
            held.update(state.jobs[kind])
        if self.quarantined:
            # A block one rank lost may be another rank's good decode.
            for state in self.ranks:
                held.update(
                    {b: j for b, j in state.jobs[kind].items() if not _job_lost(j)}
                )
        return held


@dataclass
class _Cells:
    """The gathered elements of a union of staged rows.

    Rows ascend by ``keys`` (``bin * n_chunks + cpos``).  Element
    arrays hold every row's elements back to back, ``counts[i]`` per
    row; ``values`` holds those of the rows some member fetches values
    for (``value_counts[i]`` per row, no room for the others).
    """

    keys: np.ndarray
    counts: np.ndarray
    value_counts: np.ndarray
    positions: np.ndarray
    #: Array coordinates, one contiguous row per axis, kept only when
    #: some member tests them against its region.
    coords: np.ndarray | None
    values: np.ndarray

    @cached_property
    def elem_end(self) -> np.ndarray:
        return np.cumsum(self.counts)

    @cached_property
    def value_elem(self) -> np.ndarray | slice:
        """The element every value belongs to."""
        if self.value_counts is self.counts:
            return slice(None)
        return np.flatnonzero(np.repeat(self.value_counts > 0, self.counts))


class QueryEngine:
    """Executes planned queries over one stored variable.

    How the stages run — decode backend and pool width, read retries
    and backoff, partial-answer policy, read coalescing —
    is the handle's :class:`~repro.core.config.ExecutionConfig`, held
    whole as ``execution`` (documented and validated there, and only
    there).  Every backend produces bit-identical results and identical
    simulated seconds.  :meth:`MLOCStore._new_engine
    <repro.core.store.MLOCStore._new_engine>` builds every engine.

    Parameters
    ----------
    n_ranks, scheduler:
        The simulated parallel program: rank count and block-to-rank
        assignment (``"column"`` or ``"round-robin"``).  Its collective
        cost model, ``comm_cost``, scales with the dataset
        magnification (DESIGN.md §5).
    cache:
        The handle's shared :class:`~repro.pfs.blockcache.BlockCache` of
        decoded blocks, or ``None``; hits skip simulated I/O and modeled
        decode time.
    generation:
        Fingerprint of the store metadata, namespacing cache keys so a
        rewritten-and-reopened store never serves stale blocks.
    context:
        The handle's shared :class:`~repro.core.planner.PlanContext`
        with the precomputed per-bin planning tables.
    """

    def __init__(
        self,
        fs: SimulatedPFS,
        files: BinFileSet,
        meta: StoreMeta,
        grid: ChunkGrid,
        curve: CurveOrder,
        *,
        n_ranks: int = 8,
        scheduler: str = "column",
        cache: BlockCache | None,
        generation: int,
        context: PlanContext,
        execution: ExecutionConfig,
    ) -> None:
        if scheduler not in _SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {sorted(_SCHEDULERS)}, got {scheduler!r}"
            )
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.fs = fs
        self.files = files
        self.meta = meta
        self.grid = grid
        self.curve = curve
        self.n_ranks = n_ranks
        self.scheduler = scheduler
        self.execution = execution
        self.cache = cache
        self.generation = generation
        #: Blocks whose verified read exhausted its retries, as
        #: (path, offset) -> reason.  Persists across queries: a
        #: quarantined block is never re-read (its damage is sticky as
        #: far as this engine could tell), it is answered by the
        #: degradation policy instead.
        self.quarantine: dict[tuple[str, int], str] = {}
        self.context = context
        # Collective payload costs scale with the dataset magnification
        # so communication stays commensurate with the paper-equivalent
        # I/O seconds (DESIGN.md §5).
        base = CommCostModel()
        self.comm_cost = CommCostModel(
            latency=base.latency,
            byte_time=base.byte_time * fs.cost_model.byte_scale,
        )
        self._codec = make_codec(meta.config.codec)
        #: Per subfile kind: :meth:`_blocks_of`, built on first use.
        self._block_tables: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def new_fetcher(self, shared: bool = False) -> _BlockFetcher:
        """A fetcher for one query (or, with ``shared=True``, a batch)."""
        return _BlockFetcher(self.cache, self.generation, shared=shared)

    def execute(
        self,
        query: Query,
        plan: QueryPlan,
        position_filter: Bitmap | None = None,
        fetcher: _BlockFetcher | None = None,
        chunk_levels: np.ndarray | None = None,
    ) -> QueryResult:
        """Run the staged parallel access program for one planned query:
        a batch of one."""
        return self.assemble(
            [self.stage(query, plan, position_filter, fetcher, chunk_levels)]
        )[0]

    # ------------------------------------------------------------------
    # Stage
    # ------------------------------------------------------------------
    def stage(
        self,
        query: Query,
        plan: QueryPlan,
        position_filter: Bitmap | None = None,
        fetcher: _BlockFetcher | None = None,
        chunk_levels: np.ndarray | None = None,
    ) -> StagedQuery:
        """Plan, read, classify and decode one planned query.

        ``chunk_levels`` switches PLoD stores to a *mixed-level* plan:
        a per-curve-position array of requested levels (clipped to
        ``[1, n_groups]``) from which each chunk fetches only its own
        leading byte groups.  The store derives it from the ``peb``
        bounds table for error-bounded (``tol``) queries.
        """
        if fetcher is None:
            fetcher = self.new_fetcher()
        counters = QueryCounters()
        context = self.context

        blocks = plan.block_list()
        assignment = _SCHEDULERS[self.scheduler](blocks, self.n_ranks)
        bin_ids = np.concatenate([part.bin_ids for part in assignment])
        cpos = np.concatenate([part.cpos for part in assignment])
        rank_starts = np.cumsum([0] + [len(part) for part in assignment])
        # One run per (rank, bin): the unit of file opens and order keys.
        run_starts = _run_starts(bin_ids, rank_starts[:-1])
        run_bins = bin_ids[run_starts]
        run_aligned = plan.aligned[np.searchsorted(plan.bin_ids, run_bins)]
        run_lengths = np.diff(run_starts, append=bin_ids.size)
        run_bounds = np.searchsorted(run_starts, rank_starts).tolist()
        staged = StagedQuery(
            query=query,
            plan=plan,
            position_filter=position_filter,
            rank_of_row=np.repeat(np.arange(self.n_ranks), np.diff(rank_starts)),
            bin_ids=bin_ids,
            cpos=cpos,
            counts=context.counts64[bin_ids, cpos],
            aligned=np.repeat(run_aligned, run_lengths),
        )
        run_of_row = np.repeat(np.arange(run_starts.size), run_lengths)

        # Stage 1 (Plan) + Stage 2 (IOScheduler), first wave: every
        # rank defers its index-block reads, then flushes in
        # deterministic rank order — this fixes which rank pays each
        # block's simulated I/O and modeled decode time.
        index_block = context.index_blocks(bin_ids, cpos)
        # Rows ascend by (bin, cpos) inside a rank, so their block ids
        # never decrease: a rank's distinct blocks are its value runs.
        block_starts = _run_starts(index_block, rank_starts[:-1])
        block_bounds = np.searchsorted(block_starts, rank_starts).tolist()
        distinct = index_block[block_starts].tolist()
        bins = run_bins.tolist()
        for rank in range(self.n_ranks):
            state = _Rank(
                rank=rank,
                sched=IOScheduler(
                    self.fs.session(),
                    fetcher,
                    counters,
                    quarantine=self.quarantine,
                    execution=self.execution,
                ),
                runs=slice(run_bounds[rank], run_bounds[rank + 1]),
            )
            staged.ranks.append(state)
            state.jobs[_INDEX] = self._request_blocks(
                state,
                fetcher,
                _INDEX,
                {bin_id: seq for seq, bin_id in enumerate(bins[state.runs])},
                distinct[block_bounds[rank] : block_bounds[rank + 1]],
            )
        for state in staged.ranks:
            state.sched.flush()

        # Index losses resolved, value reads deferred; second wave.  A
        # lost index block loses the membership of every chunk it
        # covered: those rows leave the answer entirely.
        if counters.quarantined:
            lost = staged.lost(_INDEX, index_block)
            if lost.any():
                self._lose_rows(staged, lost, index_block, _INDEX, counters)
                staged.keep_rows(~lost)
                run_of_row = run_of_row[~lost]
        config = self.meta.config
        if query.wants_values or position_filter is not None:
            staged.need = np.ones(staged.cpos.size, dtype=bool)
            value_run = np.ones(run_bins.size, dtype=bool)
        else:
            staged.need = ~staged.aligned
            value_run = ~run_aligned
        value_counts = np.where(staged.need, staged.counts, 0)
        # A (rank, bin) whose planned chunks hold no element requests no
        # block; one that does also requests the blocks under its empty
        # cells.
        run_totals = np.bincount(run_of_row, value_counts, minlength=run_bins.size)
        active = staged.need & (run_totals[run_of_row] > 0)
        if config.plod_enabled and chunk_levels is not None:
            staged.level = np.clip(chunk_levels[staged.cpos], 1, config.n_groups)
        else:
            uniform = min(query.plod_level, config.n_groups) if config.plod_enabled else 1
            staged.level = np.full(staged.cpos.size, uniform, dtype=np.int64)
            staged.uniform_level = uniform
        n_groups = int(staged.level[active].max()) if active.any() else 0
        data_block, _ = context.data_blocks(staged.bin_ids, staged.cpos, n_groups)
        wanted = active & (np.arange(n_groups, dtype=np.int64)[:, None] < staged.level)
        # Every rank's distinct wanted blocks, ascending, in one sort.
        n_blocks = len(context.data_reads)
        pairs = np.unique((staged.rank_of_row * n_blocks + data_block)[wanted])
        pair_bounds = np.searchsorted(
            pairs, np.arange(self.n_ranks + 1) * n_blocks
        ).tolist()
        pairs = (pairs % n_blocks).tolist()
        value_run = value_run.tolist()
        for state in staged.ranks:
            state.jobs[_DATA] = self._request_blocks(
                state,
                fetcher,
                _DATA,
                {
                    bin_id: seq
                    for seq, bin_id in enumerate(bins[state.runs])
                    if value_run[state.runs.start + seq]
                },
                pairs[pair_bounds[state.rank] : pair_bounds[state.rank + 1]],
            )
        for state in staged.ranks:
            state.sched.flush()
        # Per-curve-position effective levels of chunks degraded below
        # their requested level by sticky faults — the store uses this
        # to compute an *honest* achieved bound for tol queries.
        degraded_levels: dict[int, int] = {}
        fatal = None
        if counters.quarantined:  # a lost block always registers here first
            staged.quarantined = True
            fatal = self._classify_values(
                staged, data_block, wanted, counters, degraded_levels
            )

        # Stage 3 (Decode): the only concurrent part (threads or
        # processes backend).
        blocks_decoded = self._run_decodes(fetcher, counters)

        sessions = [state.sched.session for state in staged.ranks]
        cost_model = self.fs.cost_model
        # What a rank filters and gathers, counted before any filter:
        # 8 B per candidate position plus 8 B per assembled candidate
        # value — independent of PLoD level and of block-cache hits.
        candidates = np.concatenate(([0], np.cumsum(staged.counts + value_counts)))
        candidate_bytes = 8 * np.diff(candidates[staged.rank_bounds()])
        staged.times = ComponentTimes(
            io=aggregate_parallel_time(cost_model, sessions),
            decompression=max(
                modeled_decompression(
                    self._codec,
                    cost_model.byte_scale,
                    state.sched.raw["data"],
                    state.sched.raw["index"],
                )
                for state in staged.ranks
            ),
            reconstruction=cost_model.cpu_seconds(
                int(candidate_bytes.max()), FILTER_GATHER_THROUGHPUT
            ),
        )
        staged.stats = {
            "blocks_planned": len(blocks),
            "blocks_decoded": blocks_decoded,
            "decode_pool_failures": counters.decode_pool_failures,
            "cache_hits": counters.cache_hits,
            "cache_misses": counters.cache_misses,
            "cache_hit_raw_bytes": counters.cache_hit_raw_bytes,
            "dedup_blocks": counters.dedup_blocks,
            "dedup_raw_bytes": counters.dedup_raw_bytes,
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "files_opened": int(sum(s.stats.opens for s in sessions)),
            "seeks": int(sum(s.stats.seeks for s in sessions)),
            "vectored_reads": int(sum(s.stats.vectored_reads for s in sessions)),
            "coalesced_reads": counters.coalesced_reads,
            "stall_seconds": float(sum(s.stats.stall_seconds for s in sessions)),
            "crc_failures": counters.crc_failures,
            "io_retries": counters.io_retries,
            "degraded_points": 0,
            "dropped_points": counters.dropped_points,
            "quarantined_blocks": len(counters.quarantined),
            "partial_chunks": sorted(counters.partial_chunks),
            "degraded_chunk_levels": degraded_levels,
            "n_results": 0,
        }
        if fatal is not None:
            # Points of unrecoverable chunks leave the answer
            # (allow_partial — otherwise classification raised).
            staged.keep_rows(~fatal)
        return staged

    # ------------------------------------------------------------------
    def _run_decodes(self, fetcher: _BlockFetcher, counters: QueryCounters) -> int:
        """Run the decode stage on the configured backend.

        Returns the number of blocks decoded.  A pool is only engaged
        when it can actually overlap work: with one effective worker
        (or fewer than two pending jobs) every backend decodes inline,
        avoiding pure dispatch overhead on single-core machines.
        """
        n_pending = fetcher.pending_count()
        backend = self.execution.backend
        if backend != "serial" and n_pending > 1:
            width = self.execution.workers or os.cpu_count() or 1
            if backend == "threads" and width > 1:
                with ThreadPoolExecutor(max_workers=min(width, n_pending)) as pool:
                    return fetcher.run(pool, counters)
            if backend == "processes" and width > 1:
                return fetcher.run(get_pool(width), counters)
        return fetcher.run(None, counters)

    # ------------------------------------------------------------------
    def _blocks_of(self, kind: int) -> tuple[list[tuple], list[str], list[tuple]]:
        """One subfile kind's block table, its per-bin paths, and every
        block's fetcher key by global block id."""
        table = self._block_tables.get(kind)
        if table is None:
            if kind == _INDEX:
                reads, path_of = self.context.index_reads, self.files.index_path
            else:
                reads, path_of = self.context.data_reads, self.files.data_path
            paths = [path_of(b) for b in range(self.meta.config.n_bins)]
            keys = [(self.generation, paths[r[0]], r[4]) for r in reads]
            table = self._block_tables[kind] = (reads, paths, keys)
        return table

    def _request_blocks(
        self,
        state: _Rank,
        fetcher: _BlockFetcher,
        kind: int,
        bin_seq: dict[int, int],
        block_ids: list[int],
    ) -> dict[int, _DecodeJob]:
        """Defer one read per distinct block of one subfile kind.

        ``block_ids`` are global block ids, ascending — i.e. in
        ``(bin, row)`` order, which with the rank is the plan order
        that ``order_key`` replays.  ``bin_seq`` maps the bins whose
        subfile of this kind the rank touches to their ``bin_seq``.
        """
        reads, paths, keys = self._blocks_of(kind)
        raw_kind = "index" if kind == _INDEX else "data"
        sched = state.sched
        if not fetcher.caching:
            # Without caching every planned block is read, and the rank
            # opens each subfile it touches up front even if none of
            # its blocks ends up requested.  With caching, the open
            # waits for the first actual read: a file whose blocks all
            # come from the cache costs no metadata operation.  The
            # session opens (and charges) each path once.
            for bin_id in bin_seq:
                sched.session.open(paths[bin_id])
        # Blocks another requester already holds are claimed in bulk.
        held = fetcher.claim_held(
            [keys[b] for b in block_ids], [reads[b][6] for b in block_ids], sched.counters
        )
        for i, job in enumerate(held):
            if job is not None:
                continue
            block_id = block_ids[i]
            bin_id, row_idx, first, end, offset, length, raw_bytes, crc = reads[
                block_id
            ]
            key = keys[block_id]
            order_key = (state.rank, bin_seq[bin_id], kind, row_idx)
            job, hit = fetcher.request_deferred(key, raw_bytes, order_key, sched.counters)
            if not hit:
                decode, spec = self._block_decoder(kind, bin_id, first, end, raw_bytes)
                sched.submit(
                    PendingRead(
                        path=paths[bin_id],
                        offset=offset,
                        length=length,
                        crc=crc,
                        job=job,
                        decode=decode,
                        raw_bytes=raw_bytes,
                        raw_kind=raw_kind,
                        key=key if fetcher.caching else None,
                        order_key=order_key,
                        spec=spec,
                    )
                )
            held[i] = job
        return dict(zip(block_ids, held))

    def _block_decoder(
        self, kind: int, bin_id: int, first: int, end: int, raw_bytes: int
    ):
        """``(payload -> decoded block, picklable spec)`` of one block."""
        if kind == _INDEX:
            counts_slice = self.context.counts64[bin_id, first:end]
            return (
                lambda payload: PositionBlock(payload, counts_slice),
                ("index", counts_slice),
            )
        codec = self._codec
        codec_name, codec_params = codec.spec()
        if self.meta.config.plod_enabled:
            return (
                lambda payload: np.frombuffer(
                    codec.decode(payload, raw_bytes), dtype=np.uint8
                ),
                ("bytes", codec_name, codec_params, raw_bytes),
            )
        return (
            lambda payload: codec.decode(payload, raw_bytes // 8),
            ("float", codec_name, codec_params, raw_bytes // 8),
        )

    # ------------------------------------------------------------------
    def _lose_rows(
        self,
        staged: StagedQuery,
        lost: np.ndarray,
        block: np.ndarray,
        kind: int,
        counters: QueryCounters,
    ) -> None:
        """Rows ``lost`` (blocks ``block`` of one subfile kind) leave the
        answer: strict mode raises the structured error for the first
        bin, in rank order, that lost points; ``allow_partial`` records
        their chunks and points instead."""
        chunk_ids = self.curve.chunks_at(staged.cpos)
        if not self.execution.allow_partial:
            reads, paths, _ = self._blocks_of(kind)
            row = int(np.argmax(lost))
            bin_id, rank = int(staged.bin_ids[row]), staged.rank_of_row[row]
            if kind == _INDEX:
                error_kind = "index"
            else:
                error_kind = "data-base" if self.meta.config.plod_enabled else "data"
            raise DegradedResultError(
                kind=error_kind,
                path=paths[bin_id],
                offset=reads[block[row]][4],
                bin_id=bin_id,
                chunk_ids=tuple(
                    chunk_ids[
                        lost & (staged.bin_ids == bin_id) & (staged.rank_of_row == rank)
                    ].tolist()
                ),
            )
        counters.partial_chunks.update(chunk_ids[lost].tolist())
        counters.dropped_points += int(staged.counts[lost].sum())

    def _classify_values(
        self,
        staged: StagedQuery,
        data_block: np.ndarray,
        wanted: np.ndarray,
        counters: QueryCounters,
        degraded_levels: dict[int, int],
    ) -> np.ndarray | None:
        """Map quarantined data blocks onto the degradation policy.

        A lost group-0 cell (the PLoD base plane, or the whole value
        when PLoD is off) makes the row's points unrecoverable: those
        rows are returned (``None`` if none).  A lost refinement cell
        ``g >= 1`` only caps the row's effective level at ``g``
        (``effective``) — the dummy-fill reconstruction applies from
        there down.
        """
        lost = staged.lost(_DATA, data_block) & wanted
        if not lost.any():
            return None
        n_groups = wanted.shape[0]
        groups = np.arange(n_groups, dtype=np.int64)[:, None]
        first_lost = np.where(lost & (groups >= 1), groups, n_groups).min(axis=0)
        effective = np.minimum(staged.level, first_lost)
        dropped = effective < staged.level
        if dropped.any():
            staged.effective = effective
            # Rank order: a chunk two ranks degrade keeps its minimum.
            for c, lvl in zip(staged.cpos[dropped].tolist(), effective[dropped].tolist()):
                degraded_levels[c] = min(degraded_levels.get(c, lvl), lvl)
        fatal = lost[0]
        if not fatal.any():
            return None
        self._lose_rows(staged, fatal, data_block[0], _DATA, counters)
        return fatal

    # ------------------------------------------------------------------
    # Assemble
    # ------------------------------------------------------------------
    def assemble(self, staged: list[StagedQuery]) -> list[QueryResult]:
        """Gather, filter and sort the answers of a list of staged
        queries, sharing one cell gather among those that can.

        Queries fuse when a gathered row means the same thing to each
        of them: one PLoD level on every row and nothing quarantined.
        The grouping is read off the staged queries; a query that
        fuses with no other is a group of one through the same code.
        """
        groups: dict[object, list[int]] = {}
        for i, query in enumerate(staged):
            fusable = query.uniform_level is not None and not query.quarantined
            groups.setdefault(query.uniform_level if fusable else (i,), []).append(i)
        results: list[QueryResult | None] = [None] * len(staged)
        for members in groups.values():
            queries = [staged[i] for i in members]
            cells = self._gather_cells(queries)
            for i, query in zip(members, queries):
                results[i] = self._filter_gather(query, cells)
        return results

    def _gather_cells(self, queries: list[StagedQuery]) -> _Cells:
        """Slice the union of the queries' rows out of the decoded
        blocks: every row's global positions, and the assembled values
        of the rows some query fetches values for.  Rows that share a
        block and follow each other in it are one slice."""
        n_chunks = self.context.n_chunks
        keys, inverse = np.unique(
            np.concatenate([q.bin_ids * n_chunks + q.cpos for q in queries]),
            return_inverse=True,
        )
        bin_ids, cpos = np.divmod(keys, n_chunks)
        counts = self.context.counts64[bin_ids, cpos]
        need = np.zeros(keys.size, dtype=bool)
        need[inverse[np.concatenate([q.need for q in queries])]] = True
        # One level per union row: fused queries agree on it.
        level = np.empty(keys.size, dtype=np.int64)
        level[inverse] = np.concatenate(
            [q.level if q.effective is None else q.effective for q in queries]
        )
        index_jobs: dict[int, _DecodeJob] = {}
        data_jobs: dict[int, _DecodeJob] = {}
        for query in queries:
            index_jobs.update(query.jobs(_INDEX))
            data_jobs.update(query.jobs(_DATA))

        local_ids = np.empty(int(counts.sum()), dtype=np.int64)
        block, lo, hi = self.context.index_extents(bin_ids, cpos)
        # Rows without positions add nothing to the output, nor to a span.
        held = np.flatnonzero(hi > lo)
        block, lo, hi = block[held], lo[held], hi[held]
        if block.size:
            # Rows come in block order and ascend inside a block: one
            # request per block for the span from its first row's lo to
            # its last row's hi, then runs are sliced out of the span.
            bounds = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1], [True])))
            span_lo, span_hi = lo[bounds[:-1]], hi[bounds[1:] - 1]
            spans = {
                b: index_jobs[b].result.positions(a, z)
                for b, a, z in zip(
                    block[bounds[:-1]].tolist(), span_lo.tolist(), span_hi.tolist()
                )
            }
            base = np.repeat(span_lo, np.diff(bounds))
            for b, a, z, dest in merge_extents(block, lo - base, hi - base):
                local_ids[dest : dest + z - a] = spans[b][a:z]
        coords = self.grid.global_coords_batch(
            self.curve.chunks_at(cpos), local_ids, counts
        )
        tested = any(
            q.plan.region is not None and not q.plan.interior.all() for q in queries
        )
        value_counts = counts if need.all() else np.where(need, counts, 0)
        return _Cells(
            keys=keys,
            counts=counts,
            value_counts=value_counts,
            positions=self.grid.coords_to_positions(coords),
            coords=np.ascontiguousarray(coords.T) if tested else None,
            values=self._gather_values(bin_ids, cpos, value_counts, level, data_jobs),
        )

    def _gather_values(
        self,
        bin_ids: np.ndarray,
        cpos: np.ndarray,
        value_counts: np.ndarray,
        level: np.ndarray,
        jobs: dict[int, _DecodeJob],
    ) -> np.ndarray:
        """Slice the rows' cells out of the decoded data blocks into
        group-major planes and assemble ``value_counts`` values per row.

        Cell gathering + PLoD byte-plane assembly belong to the
        *decompression* component (charged at stage time from the raw
        bytes each rank decoded): they are part of recovering values
        from the stored representation and scale with the bytes
        fetched, whereas the paper's "reconstruction" (filtering +
        final assembly of results) is independent of the PLoD level
        (Fig. 8's flat reconstruction line).

        A quarantined block or a cell beyond its row's level is never
        copied: its bytes stay zero, later either dropped (fatal loss)
        or overwritten by the dummy-fill reconstruction — they never
        reach a result as-is.
        """
        n_elem = int(value_counts.sum())
        if n_elem == 0:
            return np.empty(0, dtype=np.float64)
        holds = value_counts > 0
        n_groups = int(level[holds].max())
        plod = self.meta.config.plod_enabled
        if plod:
            # Planes back to back in one buffer: plane g starts at byte
            # n_elem * GROUP_OFFSETS[g], where merge_extents' dest puts it.
            plane_ends = [
                n_elem * (GROUP_OFFSETS[g] + GROUP_WIDTHS[g]) for g in range(n_groups)
            ]
            out = np.zeros(plane_ends[-1], dtype=np.uint8)
        else:
            out = np.zeros(n_elem, dtype=np.float64)
        data_block, data_lo, data_hi = self.context.data_extents(bin_ids, cpos, n_groups)
        # Rows without values take no room in the planes.
        data_hi = np.where(holds, data_hi, data_lo)
        wanted = np.arange(n_groups, dtype=np.int64)[:, None] < level
        for block, lo, hi, dest in merge_extents(data_block, data_lo, data_hi, wanted):
            decoded = jobs[block].result
            if decoded is not None:
                out[dest : dest + hi - lo] = decoded[lo:hi]
        if not plod:
            return out
        planes = np.split(out, plane_ends[:-1])
        if int(level[holds].min()) < n_groups:
            return assemble_from_groups_degraded(
                planes, n_elem, n_groups, np.repeat(level, value_counts)
            )
        return assemble_from_groups(planes, n_elem, n_groups)

    def _filter_gather(self, staged: StagedQuery, cells: _Cells) -> QueryResult:
        """One query's answer out of the gathered cells: the elements
        of its rows that pass its own filters, split by rank for the
        simulated gather, then sorted.

        The filters run over the union's elements: an element is in the
        answer iff its row is the query's, its value is in range (rows
        of aligned bins pass whole), its coordinates are in the region
        (tested on boundary chunks only: interior ones pass whole) and
        the position filter holds it.
        """
        query, plan = staged.query, staged.plan
        n_rows = cells.keys.size
        rows = np.searchsorted(
            cells.keys, staged.bin_ids * self.context.n_chunks + staged.cpos
        )

        def flag(which: np.ndarray) -> np.ndarray:
            """The union rows that are the given ones of the query's."""
            flags = np.zeros(n_rows, dtype=bool)
            flags[which] = True
            return flags

        selected = np.repeat(flag(rows), cells.counts)
        if query.value_range is not None and not staged.aligned.all():
            # Aligned rows pass whole; the others hold values to test.
            lo, hi = query.value_range
            out_of_range = np.repeat(flag(rows[~staged.aligned]), cells.value_counts)
            out_of_range &= ~((cells.values >= lo) & (cells.values <= hi))
            selected[cells.value_elem] &= ~out_of_range
        if plan.region is not None:
            interior = plan.interior_of(staged.cpos)
            if not interior.all():
                # Only elements of boundary chunks need the
                # coordinate test; interior chunks pass whole.
                edge = np.flatnonzero(np.repeat(flag(rows[~interior]), cells.counts))
                outside = np.zeros(edge.size, dtype=bool)
                for axis, (lo, hi) in zip(cells.coords, plan.region):
                    at = axis[edge]
                    outside |= (at < lo) | (at >= hi)
                selected[edge[outside]] = False
        positions = cells.positions[selected]
        if staged.position_filter is not None:
            hit = staged.position_filter.get(positions)
            selected[np.flatnonzero(selected)[~hit]] = False
            positions = positions[hit]
        # Survivors per union row, then per rank: what each rank
        # contributes to the gather.
        upto = np.zeros(selected.size + 1, dtype=np.int64)
        np.cumsum(selected, out=upto[1:])
        survivors = upto[cells.elem_end] - upto[cells.elem_end - cells.counts]
        rank_of = np.zeros(n_rows, dtype=np.int64)
        rank_of[rows] = staged.rank_of_row
        shares = np.bincount(rank_of, weights=survivors, minlength=self.n_ranks)
        shares = np.cumsum(shares.astype(np.int64))[:-1]
        stats = staged.stats
        if staged.effective is not None:
            # Count degraded points that actually reach the
            # result (dummy-filled below the requested level).
            degraded = staged.effective < staged.level
            stats["degraded_points"] = int(survivors[rows[degraded]].sum())
        comm = SimCommunicator(self.n_ranks, self.comm_cost)
        comm.gather(np.split(positions, shares))
        values = None
        if query.wants_values:
            values = cells.values[selected[cells.value_elem]]
            comm.gather(np.split(values, shares))

        # An element sits in one bin and one chunk: positions are unique.
        order = np.argsort(positions)
        stats["n_results"] = int(positions.size)
        times = staged.times
        return QueryResult(
            positions=positions[order],
            values=values[order] if values is not None else None,
            times=ComponentTimes(
                io=times.io,
                decompression=times.decompression,
                reconstruction=times.reconstruction,
                communication=comm.comm_seconds,
            ),
            stats=stats,
        )
