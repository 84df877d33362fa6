"""Staged query engine: Plan → IOScheduler → Decode → Assemble.

This is the middle engine layer: it turns a
:class:`~repro.core.planner.QueryPlan` into the bulk-synchronous
parallel program the paper describes (Section III-D, Fig. 5), but with
the monolithic executor's control flow rebuilt around explicit stages:

1. **Plan** — the planner's output is split over simulated MPI ranks
   (column order by default: each rank touches the fewest bin files);
2. **IOScheduler** — each rank's block reads are *deferred* into its
   :class:`~repro.core.engine.scheduler.IOScheduler` and flushed
   sorted by ``(subfile, offset)``, optionally coalescing
   near-adjacent extents into vectored reads (``coalesce_gap``) and
   prefetching ahead (``readahead``).  All verified-read / retry /
   quarantine semantics live in the scheduler;
3. **Decode** — pending decode jobs run inline (``serial``), on a
   thread pool (``threads``), or as picklable specs on the persistent
   spawned worker pool (``processes``, the GIL-free path); accounting
   was fixed during planning and results commit in plan order, so
   every backend produces bit-identical results and identical
   simulated seconds;
4. **Assemble** — positions and values are gathered out of the
   decoded blocks as contiguous runs, byte planes are reassembled,
   degradation is accounted, and the root gathers per-rank results
   through the simulated communicator.

The engine flushes in two waves — all index reads, then all data
reads — in deterministic rank order.  With ``coalesce_gap=0`` the
per-subfile read sequences are exactly the pre-refactor executor's
(each bin subfile was already visited once, ascending), so seeks,
bytes, stalls, fault draws, and simulated seconds are reproduced
bit-for-bit; ``tests/test_engine_equivalence.py`` pins this against a
golden capture of the monolithic executor.

Response time = simulated parallel I/O (max-loaded OST / node link +
max-rank overhead) + max-rank decompression + max-rank reconstruction +
communication.  Both CPU components are modeled from counted bytes by
:meth:`~repro.pfs.costmodel.PFSCostModel.cpu_seconds` (DESIGN.md §5):
decompression from the raw bytes decoded and assembled, reconstruction
from the candidate bytes filtered and gathered.  Aligned bins under
region-only output never touch the data subfiles — the index-only fast
path of Section III-D1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import make_codec
from repro.core.chunking import ChunkGrid
from repro.core.config import ExecutionConfig, fold_execution
from repro.core.engine.scheduler import (
    IOScheduler,
    PendingRead,
    _BlockFetcher,
    _DecodeJob,
    _FaultContext,
    _HandleOpener,
    _IOCounters,
    _job_lost,
)
from repro.core.errors import DegradedResultError
from repro.core.meta import StoreMeta
from repro.core.planner import PlanContext, QueryPlan, covering_rows
from repro.core.query import Query
from repro.core.result import ComponentTimes, QueryResult
from repro.index.binindex import decode_position_block_flat
from repro.index.bitmap import Bitmap
from repro.parallel.procpool import AUTO_PROCESS_MIN_BYTES, get_pool
from repro.parallel.scheduler import (
    BlockList,
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
from repro.pfs.simfs import PFSSession, SimulatedPFS
from repro.plod.byteplanes import (
    GROUP_WIDTHS,
    assemble_from_groups,
    assemble_from_groups_degraded,
)
from repro.sfc.linearize import CurveOrder

__all__ = ["QueryEngine", "RankOutput", "AUTO_PROCESS_MIN_BYTES"]

_SCHEDULERS = {
    "column": column_order_assignment,
    "round-robin": round_robin_assignment,
}


@dataclass
class RankOutput:
    """What one simulated rank produced before the gather."""

    positions: np.ndarray
    values: np.ndarray | None
    session: PFSSession
    #: Raw bytes this rank decompressed from data blocks.
    data_raw_bytes: int = 0
    #: Bytes of position payload (8 B/position) this rank decoded.
    index_raw_bytes: int = 0
    #: Bytes this rank filtered and gathered: 8 B per candidate
    #: position plus 8 B per assembled candidate value — independent of
    #: PLoD level and of block-cache hits.
    candidate_bytes: int = 0

    def modeled_decompression(self, codec, byte_scale: float) -> float:
        """Modeled decompression seconds for this rank (DESIGN.md §5):
        codec decode + index decode + cell-gather/PLoD-assembly."""
        cpu_seconds = PFSCostModel(byte_scale=byte_scale).cpu_seconds
        return (
            cpu_seconds(self.data_raw_bytes, codec.decode_throughput)
            + cpu_seconds(self.index_raw_bytes, INDEX_DECODE_THROUGHPUT)
            + cpu_seconds(self.data_raw_bytes, ASSEMBLY_THROUGHPUT)
        )


@dataclass
class _ValueWork:
    """Planned data-block work of one (rank, bin): jobs + cell geometry."""

    n_elem: int
    n_groups: int = 1
    cells_per_group: list[np.ndarray] = field(default_factory=list)
    cell_offsets: np.ndarray | None = None
    row_starts: np.ndarray | None = None
    jobs: dict[int, _DecodeJob] = field(default_factory=dict)
    #: Per-cpos mask of chunks whose points are unrecoverable (base
    #: byte-plane or full-value block quarantined); ``None`` if none.
    fatal_mask: np.ndarray | None = None
    #: Per-cpos effective PLoD level (below the requested level where
    #: refinement blocks were quarantined); ``None`` if no precision
    #: was lost.
    cell_levels: np.ndarray | None = None
    #: Per-cpos *requested* PLoD level under an error-bounded
    #: (``tol``) mixed-level plan; ``None`` = uniform ``n_groups``.
    requested_levels: np.ndarray | None = None
    #: Per-group indices into ``cpos`` of the chunks that actually
    #: need that group (mixed-level plans); ``None`` = every group
    #: covers every chunk.
    group_members: list[np.ndarray] | None = None
    #: (path, offset) of the first quarantined block behind
    #: ``fatal_mask``, for the structured error.
    fatal_block: tuple[str, int] | None = None


@dataclass
class _BinPlan:
    """Planned work of one (rank, bin), built up stage by stage."""

    seq: int
    bin_id: int
    cpos: np.ndarray
    chunk_ids: np.ndarray
    aligned: bool
    need_values: bool = False
    #: (cpos_start, cpos_end, offset, job) per requested index block.
    index_entries: list[tuple[int, int, int, _DecodeJob]] = field(
        default_factory=list
    )
    #: (cpos_start, cpos_end, job -> flat positions), losses filtered.
    index_parts: list[tuple[int, int, _DecodeJob]] = field(default_factory=list)
    value_work: _ValueWork | None = None


@dataclass
class _RankState:
    """One rank's in-flight work plus its accounting context."""

    rank: int
    session: PFSSession
    raw: dict[str, int]
    sched: IOScheduler
    bins: list[_BinPlan]


class QueryEngine:
    """Executes planned queries over one stored variable.

    How the stages run — decode backend and pool width, read retries
    and backoff, partial-answer policy, read coalescing and readahead —
    is the handle's :class:`~repro.core.config.ExecutionConfig`, held
    whole as ``execution`` (documented and validated there, and only
    there); its fields may also be given as keywords.  Every backend
    produces bit-identical results and identical simulated seconds.

    Parameters
    ----------
    n_ranks, scheduler, comm_cost:
        The simulated parallel program: rank count, block-to-rank
        assignment (``"column"`` or ``"round-robin"``), and the
        collective cost model (default: scaled with the dataset
        magnification, DESIGN.md §5).
    cache:
        Optional shared :class:`~repro.pfs.blockcache.BlockCache` of
        decoded blocks; hits skip simulated I/O and modeled decode time.
    generation:
        Fingerprint of the store metadata, namespacing cache keys so a
        rewritten-and-reopened store never serves stale blocks.
    context:
        Optional shared :class:`~repro.core.planner.PlanContext` with
        the precomputed per-bin planning tables; built from the
        metadata when omitted (one-off engines).
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
        comm_cost: CommCostModel | None = None,
        cache: BlockCache | None = None,
        generation: int = 0,
        context: PlanContext | None = None,
        execution: ExecutionConfig | None = None,
        **overrides,
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
        self.execution = fold_execution(execution, overrides)
        self.cache = cache
        self.generation = generation
        #: Blocks whose verified read exhausted its retries, as
        #: (path, offset) -> reason.  Persists across queries: a
        #: quarantined block is never re-read (its damage is sticky as
        #: far as this engine could tell), it is answered by the
        #: degradation policy instead.
        self.quarantine: dict[tuple[str, int], str] = {}
        #: Per-subfile spans warmed by readahead, for hit attribution.
        self.readahead_spans: dict[str, list[tuple[int, int]]] = {}
        self.context = (
            context if context is not None else PlanContext.for_store(meta, grid, curve)
        )
        if comm_cost is None:
            # Scale collective payload costs with the dataset
            # magnification so communication stays commensurate with
            # the paper-equivalent I/O seconds (DESIGN.md §5).
            base = CommCostModel()
            comm_cost = CommCostModel(
                latency=base.latency,
                byte_time=base.byte_time * fs.cost_model.byte_scale,
            )
        self.comm_cost = comm_cost
        self._codec = make_codec(meta.config.codec, **meta.config.codec_params)

    # ------------------------------------------------------------------
    def new_fetcher(self, shared: bool = False) -> _BlockFetcher:
        """A fetcher for one query (or, with ``shared=True``, a batch)."""
        return _BlockFetcher(self.cache, self.generation, shared=shared)

    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        plan: QueryPlan,
        position_filter: Bitmap | None = None,
        fetcher: _BlockFetcher | None = None,
        chunk_levels: np.ndarray | None = None,
    ) -> QueryResult:
        """Run the staged parallel access program for one planned query.

        ``chunk_levels`` switches PLoD stores to a *mixed-level* plan:
        a per-curve-position array of requested levels (clipped to
        ``[1, n_groups]``) from which each chunk fetches only its own
        leading byte groups.  The store derives it from the ``peb``
        bounds table for error-bounded (``tol``) queries.
        """
        if fetcher is None:
            fetcher = self.new_fetcher()
        hits0, misses0 = fetcher.hits, fetcher.misses
        hit_raw0 = fetcher.hit_raw_bytes
        dedup0, dedup_raw0 = fetcher.dedup_hits, fetcher.dedup_raw_bytes
        fctx = _FaultContext()
        counters = _IOCounters()

        blocks = plan.block_list()
        assignment = _SCHEDULERS[self.scheduler](blocks, self.n_ranks)

        # Stage 1 (Plan) + Stage 2 (IOScheduler), first wave: every
        # rank defers its index-block reads, then flushes in
        # deterministic rank order — this fixes which rank pays each
        # block's simulated I/O and modeled decode time.
        states = [
            self._plan_rank_index(rank, rank_blocks, plan, fetcher, fctx, counters)
            for rank, rank_blocks in enumerate(assignment)
        ]
        for state in states:
            state.sched.flush()
        # Index losses resolved, value reads deferred; second wave.
        for state in states:
            self._plan_rank_values(
                state, query, position_filter, fetcher, fctx, chunk_levels
            )
        for state in states:
            state.sched.flush()
        # Per-curve-position effective levels of chunks degraded below
        # their requested level by sticky faults — the store uses this
        # to compute an *honest* achieved bound for tol queries.
        degraded_levels: dict[int, int] = {}
        for state in states:
            self._classify_rank_values(state, fctx, degraded_levels)

        # Stage 3 (Decode): the only concurrent part (threads or
        # processes backend).
        pool_failures0 = fetcher.pool_failures
        blocks_decoded, decode_backend = self._run_decodes(fetcher)
        # Stage 4 (Assemble): deterministic rank order.
        rank_outputs = [
            self._finish_rank(state, query, plan, position_filter, fctx)
            for state in states
        ]

        comm = SimCommunicator(self.n_ranks, self.comm_cost)
        gathered = comm.gather([r.positions for r in rank_outputs])
        positions = (
            np.concatenate(gathered) if gathered else np.empty(0, dtype=np.int64)
        )
        values: np.ndarray | None = None
        if query.wants_values:
            gathered_v = comm.gather(
                [r.values if r.values is not None else np.empty(0) for r in rank_outputs]
            )
            values = np.concatenate(gathered_v)

        order = np.argsort(positions, kind="stable")
        positions = positions[order]
        if values is not None:
            values = values[order]

        sessions = [r.session for r in rank_outputs]
        cost_model = self.fs.cost_model
        times = ComponentTimes(
            io=aggregate_parallel_time(cost_model, sessions),
            decompression=max(
                (
                    r.modeled_decompression(self._codec, cost_model.byte_scale)
                    for r in rank_outputs
                ),
                default=0.0,
            ),
            reconstruction=cost_model.cpu_seconds(
                max((r.candidate_bytes for r in rank_outputs), default=0),
                FILTER_GATHER_THROUGHPUT,
            ),
            communication=comm.comm_seconds,
        )
        stats = {
            "n_ranks": self.n_ranks,
            "backend": self.execution.backend,
            "bins_accessed": int(plan.bin_ids.size),
            "aligned_bins": int(plan.aligned.sum()),
            "chunks_accessed": int(plan.cpos.size),
            "blocks_planned": len(blocks),
            "blocks_decoded": blocks_decoded,
            "decode_backend": decode_backend,
            "decode_pool_failures": fetcher.pool_failures - pool_failures0,
            "cache_hits": fetcher.hits - hits0,
            "cache_misses": fetcher.misses - misses0,
            "cache_hit_raw_bytes": fetcher.hit_raw_bytes - hit_raw0,
            "dedup_blocks": fetcher.dedup_hits - dedup0,
            "dedup_raw_bytes": fetcher.dedup_raw_bytes - dedup_raw0,
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "files_opened": int(sum(s.stats.opens for s in sessions)),
            "seeks": int(sum(s.stats.seeks for s in sessions)),
            "vectored_reads": int(sum(s.stats.vectored_reads for s in sessions)),
            "coalesced_reads": counters.coalesced_reads,
            "readahead_hits": counters.readahead_hits,
            "stall_seconds": float(sum(s.stats.stall_seconds for s in sessions)),
            "crc_failures": fctx.crc_failures,
            "io_retries": fctx.io_retries,
            "degraded_points": fctx.degraded_points,
            "dropped_points": fctx.dropped_points,
            "quarantined_blocks": len(fctx.quarantined),
            "partial_chunks": sorted(fctx.partial_chunks),
            "degraded_chunk_levels": degraded_levels,
            "n_results": int(positions.size),
            # Error-bounded retrieval: the store stamps the real values
            # (tol_target, achieved_bound, levels_histogram) on tol
            # queries; the registered additive counter defaults here.
            "tol_bytes_saved": 0,
            # Broker request-lifecycle counters (repro.server stamps the
            # real values on requests it serves); zero for direct queries
            # so every registered counter is emitted on every path.
            "admitted": 0,
            "rejected": 0,
            "queued": 0,
            "completed": 0,
            "cancelled": 0,
            "quota_rejections": 0,
            "quota_evictions": 0,
            # Ingest lifecycle counters (repro.server.ingest stamps the
            # real values on broker/replay aggregates); same contract.
            "generations_seen": 0,
            "snapshot_refreshes": 0,
            "ingest_stall_seconds": 0.0,
        }
        return QueryResult(positions=positions, values=values, times=times, stats=stats)

    # ------------------------------------------------------------------
    def _run_decodes(self, fetcher: _BlockFetcher) -> tuple[int, str]:
        """Run the decode stage on the configured backend.

        Returns ``(blocks_decoded, resolved_backend)``.  A pool is
        only engaged when it can actually overlap work: with one
        effective worker (or fewer than two pending jobs) every
        backend decodes inline, avoiding pure dispatch overhead on
        single-core machines.  ``"auto"`` resolves to the process pool
        only when the pending raw decode bytes clear
        :data:`AUTO_PROCESS_MIN_BYTES` — below that, pickling payloads
        to workers costs more than the GIL-free decode saves.
        """
        n_pending = fetcher.pending_count()
        width = self.execution.workers or os.cpu_count() or 1
        resolved = self.execution.backend
        if resolved == "auto":
            resolved = (
                "processes"
                if width > 1
                and fetcher.pending_raw_bytes() >= AUTO_PROCESS_MIN_BYTES
                else "serial"
            )
        if resolved == "threads" and min(width, n_pending) > 1:
            with ThreadPoolExecutor(max_workers=min(width, n_pending)) as pool:
                return fetcher.run(pool), resolved
        if resolved == "processes" and width > 1 and n_pending > 1:
            return fetcher.run(get_pool(width)), resolved
        return fetcher.run(None), resolved

    # ------------------------------------------------------------------
    def _plan_rank_index(
        self,
        rank: int,
        rank_blocks: BlockList,
        plan: QueryPlan,
        fetcher: _BlockFetcher,
        fctx: _FaultContext,
        counters: _IOCounters,
    ) -> _RankState:
        """Set up one rank's state and defer its index-block reads."""
        session = self.fs.session()
        state = _RankState(
            rank=rank,
            session=session,
            raw={"data": 0, "index": 0},
            sched=IOScheduler(
                self.fs,
                session,
                fetcher,
                fctx,
                quarantine=self.quarantine,
                execution=self.execution,
                counters=counters,
                readahead_spans=self.readahead_spans,
            ),
            bins=[],
        )
        # The rank's blocks arrive bin-major and cpos-sorted within each
        # bin, so each bin is one contiguous segment of the arrays.
        for seq, (bin_id, cpos, chunk_ids) in enumerate(rank_blocks.bin_segments()):
            bin_plan = _BinPlan(
                seq=seq,
                bin_id=bin_id,
                cpos=cpos,
                chunk_ids=chunk_ids,
                aligned=plan.is_aligned(bin_id),
            )
            self._request_index_blocks(state, bin_plan, fetcher)
            state.bins.append(bin_plan)
        return state

    def _request_index_blocks(
        self, state: _RankState, bin_plan: _BinPlan, fetcher: _BlockFetcher
    ) -> None:
        """Defer the index blocks covering the bin's planned chunks."""
        table = self.meta.index_blocks[bin_plan.bin_id]
        bin_counts = self.context.counts64[bin_plan.bin_id]
        path = self.files.index_path(bin_plan.bin_id)
        opener = _HandleOpener(state.session, path, eager=not fetcher.caching)
        for row_idx in covering_rows(
            self.context.index_row_starts[bin_plan.bin_id], bin_plan.cpos
        ):
            cpos_start, cpos_end, offset, comp_len = (
                int(v) for v in table[row_idx][:4]
            )
            crc = int(table[row_idx][4])
            counts_slice = bin_counts[cpos_start:cpos_end]
            raw_bytes = int(counts_slice.sum()) * 8
            key = (fetcher.generation, path, offset)
            order_key = (state.rank, bin_plan.seq, 0, row_idx)
            job, hit = fetcher.request_deferred(key, raw_bytes, order_key)
            if not hit:
                state.sched.submit(
                    PendingRead(
                        path=path,
                        offset=offset,
                        length=comp_len,
                        crc=crc,
                        opener=opener,
                        job=job,
                        decode=lambda payload, counts_slice=counts_slice: (
                            decode_position_block_flat(payload, counts_slice)
                        ),
                        raw_bytes=raw_bytes,
                        raw_kind="index",
                        raw=state.raw,
                        key=key if fetcher.caching else None,
                        order_key=order_key,
                        spec=("index", counts_slice),
                    )
                )
            bin_plan.index_entries.append((cpos_start, cpos_end, offset, job))

    # ------------------------------------------------------------------
    def _plan_rank_values(
        self,
        state: _RankState,
        query: Query,
        position_filter: Bitmap | None,
        fetcher: _BlockFetcher,
        fctx: _FaultContext,
        chunk_levels: np.ndarray | None = None,
    ) -> None:
        """Resolve index losses, then defer the rank's data-block reads."""
        for bin_plan in state.bins:
            lost_index = [
                (s, e, off)
                for (s, e, off, job) in bin_plan.index_entries
                if _job_lost(job)
            ]
            bin_plan.index_parts = [
                (s, e, job)
                for (s, e, off, job) in bin_plan.index_entries
                if not _job_lost(job)
            ]
            counts64 = self.context.counts64[bin_plan.bin_id]
            if lost_index:
                # A lost index block loses the membership of every chunk
                # it covered: those chunks leave the answer entirely.
                lost_mask = np.zeros(bin_plan.cpos.size, dtype=bool)
                for cpos_start, cpos_end, _ in lost_index:
                    lost_mask |= (bin_plan.cpos >= cpos_start) & (
                        bin_plan.cpos < cpos_end
                    )
                lost_ids = bin_plan.chunk_ids[lost_mask]
                if not self.execution.allow_partial:
                    raise DegradedResultError(
                        kind="index",
                        path=self.files.index_path(bin_plan.bin_id),
                        offset=lost_index[0][2],
                        bin_id=bin_plan.bin_id,
                        chunk_ids=tuple(int(c) for c in lost_ids),
                    )
                fctx.partial_chunks.update(int(c) for c in lost_ids)
                fctx.dropped_points += int(counts64[bin_plan.cpos[lost_mask]].sum())
                bin_plan.cpos = bin_plan.cpos[~lost_mask]
                bin_plan.chunk_ids = bin_plan.chunk_ids[~lost_mask]
            bin_plan.need_values = (
                query.wants_values
                or not bin_plan.aligned
                or position_filter is not None
            )
            if bin_plan.need_values:
                bin_plan.value_work = self._request_value_blocks(
                    state, bin_plan, query.plod_level, fetcher, chunk_levels
                )

    def _request_value_blocks(
        self,
        state: _RankState,
        bin_plan: _BinPlan,
        plod_level: int,
        fetcher: _BlockFetcher,
        chunk_levels: np.ndarray | None = None,
    ) -> _ValueWork:
        """Defer the data blocks covering the needed cells.

        With ``chunk_levels`` (mixed-level plans), byte group ``g`` is
        requested only for the chunks whose level exceeds ``g`` — the
        per-chunk minimal fetch of error-bounded retrieval.
        """
        config = self.meta.config
        n_chunks = self.meta.n_chunks
        counts = self.context.counts64[bin_plan.bin_id]
        table = self.meta.data_blocks[bin_plan.bin_id]
        path = self.files.data_path(bin_plan.bin_id)
        opener = _HandleOpener(state.session, path, eager=not fetcher.caching)
        cpos = bin_plan.cpos
        n_elem = int(counts[cpos].sum())
        if n_elem == 0:
            return _ValueWork(n_elem=0)

        mixed = config.plod_enabled and chunk_levels is not None
        if mixed:
            requested = np.clip(chunk_levels[cpos], 1, config.n_groups).astype(
                np.int64
            )
            n_groups = int(requested.max())
        else:
            requested = None
            n_groups = min(plod_level, config.n_groups) if config.plod_enabled else 1
        cell_offsets = self.context.cell_offsets[bin_plan.bin_id]
        row_starts = self.context.data_row_starts[bin_plan.bin_id]

        # The cells needed, grouped per byte group (so each group's
        # payload concatenates contiguously in cpos order).
        group_members: list[np.ndarray] | None = None
        if config.plod_enabled:
            if mixed and int(requested.min()) < n_groups:
                # Group g serves only the chunks requesting beyond it
                # (group 0, the base plane, always serves every chunk).
                group_members = [
                    np.arange(cpos.size) if g == 0 else np.flatnonzero(requested > g)
                    for g in range(n_groups)
                ]
                selected = [cpos[idx] for idx in group_members]
            else:
                selected = [cpos] * n_groups
            if config.group_major:  # V-M-S: cell = g * n_chunks + cpos
                cells_per_group = [
                    g * n_chunks + c for g, c in enumerate(selected)
                ]
            else:  # V-S-M: cell = cpos * 7 + g
                cells_per_group = [
                    c * config.n_groups + g for g, c in enumerate(selected)
                ]
        else:
            cells_per_group = [cpos]

        # Request each covering compression block exactly once.
        all_cells = np.unique(np.concatenate(cells_per_group))
        jobs: dict[int, _DecodeJob] = {}
        codec = self._codec
        codec_name, codec_params = codec.spec()
        for row_idx in covering_rows(row_starts, all_cells):
            offset, comp_len, raw_len = (int(v) for v in table[row_idx][2:5])
            crc = int(table[row_idx][5])
            if config.plod_enabled:
                decode = lambda payload, raw_len=raw_len: np.frombuffer(  # noqa: E731
                    codec.decode(payload, raw_len), dtype=np.uint8
                )
                spec = ("bytes", codec_name, codec_params, raw_len)
            else:
                decode = lambda payload, raw_len=raw_len: codec.decode(  # noqa: E731
                    payload, raw_len // 8
                )
                spec = ("float", codec_name, codec_params, raw_len // 8)
            key = (fetcher.generation, path, offset)
            order_key = (state.rank, bin_plan.seq, 1, row_idx)
            job, hit = fetcher.request_deferred(key, raw_len, order_key)
            if not hit:
                state.sched.submit(
                    PendingRead(
                        path=path,
                        offset=offset,
                        length=comp_len,
                        crc=crc,
                        opener=opener,
                        job=job,
                        decode=decode,
                        raw_bytes=raw_len,
                        raw_kind="data",
                        raw=state.raw,
                        key=key if fetcher.caching else None,
                        order_key=order_key,
                        spec=spec,
                    )
                )
            jobs[row_idx] = job

        return _ValueWork(
            n_elem=n_elem,
            n_groups=n_groups,
            cells_per_group=cells_per_group,
            cell_offsets=cell_offsets,
            row_starts=row_starts,
            jobs=jobs,
            requested_levels=requested,
            group_members=group_members,
        )

    def _classify_rank_values(
        self,
        state: _RankState,
        fctx: _FaultContext,
        degraded_levels: dict[int, int] | None = None,
    ) -> None:
        """Map quarantined data blocks onto the degradation policy."""
        for bin_plan in state.bins:
            vw = bin_plan.value_work
            if vw is None or not vw.jobs:
                continue
            lost_rows = [r for r, job in vw.jobs.items() if _job_lost(job)]
            if not lost_rows:
                continue
            table = self.meta.data_blocks[bin_plan.bin_id]
            path = self.files.data_path(bin_plan.bin_id)
            self._classify_data_loss(vw, bin_plan.cpos, lost_rows, table, path)
            if vw.cell_levels is not None and degraded_levels is not None:
                base = (
                    vw.requested_levels
                    if vw.requested_levels is not None
                    else vw.n_groups
                )
                drop = vw.cell_levels < base
                for c, lvl in zip(bin_plan.cpos[drop], vw.cell_levels[drop]):
                    c, lvl = int(c), int(lvl)
                    degraded_levels[c] = min(degraded_levels.get(c, lvl), lvl)
            if vw.fatal_mask is not None:
                lost_ids = bin_plan.chunk_ids[vw.fatal_mask]
                if not self.execution.allow_partial:
                    fatal_path, offset = vw.fatal_block
                    raise DegradedResultError(
                        kind="data-base"
                        if self.meta.config.plod_enabled
                        else "data",
                        path=fatal_path,
                        offset=offset,
                        bin_id=bin_plan.bin_id,
                        chunk_ids=tuple(int(c) for c in lost_ids),
                    )
                fctx.partial_chunks.update(int(c) for c in lost_ids)
                fctx.dropped_points += int(
                    self.context.counts64[bin_plan.bin_id][
                        bin_plan.cpos[vw.fatal_mask]
                    ].sum()
                )

    def _classify_data_loss(
        self,
        vw: _ValueWork,
        cpos: np.ndarray,
        lost_rows: list[int],
        table: np.ndarray,
        path: str,
    ) -> None:
        """Intersect quarantined blocks with the requested byte groups.

        Group-0 cells (the PLoD base plane, or the whole value when
        PLoD is off) make the chunk's points unrecoverable
        (``fatal_mask``); cells of a refinement group ``g >= 1`` only
        cap the affected chunk's effective level at ``g``
        (``cell_levels``) — the dummy-fill reconstruction applies from
        there down.
        """
        row_starts = vw.row_starts
        # End cell (exclusive) of each block row; the table is
        # contiguous, so the last row ends at the bin's total cells.
        row_ends = np.append(row_starts[1:], vw.cell_offsets.size - 1)
        base_levels = (
            vw.requested_levels.copy()
            if vw.requested_levels is not None
            else np.full(cpos.size, vw.n_groups, dtype=np.int64)
        )
        levels = base_levels.copy()
        fatal = np.zeros(cpos.size, dtype=bool)
        fatal_row: int | None = None
        for g, cells in enumerate(vw.cells_per_group):
            # Mixed-level plans request group g for a subset of the
            # chunks; map subset hits back to cpos indices.
            members = vw.group_members[g] if vw.group_members is not None else None
            hit = np.zeros(cells.size, dtype=bool)
            for row_idx in lost_rows:
                row_hit = (cells >= row_starts[row_idx]) & (cells < row_ends[row_idx])
                if g == 0 and fatal_row is None and row_hit.any():
                    fatal_row = row_idx
                hit |= row_hit
            if not hit.any():
                continue
            idx = members[hit] if members is not None else np.flatnonzero(hit)
            if g == 0:
                fatal[idx] = True
            else:
                levels[idx] = np.minimum(levels[idx], g)
        if fatal.any():
            vw.fatal_mask = fatal
            vw.fatal_block = (path, int(table[fatal_row][2]))
        if (levels < base_levels).any():
            vw.cell_levels = levels

    # ------------------------------------------------------------------
    def _finish_rank(
        self,
        state: _RankState,
        query: Query,
        plan: QueryPlan,
        position_filter: Bitmap | None,
        fctx: _FaultContext,
    ) -> RankOutput:
        """Gather, filter and assemble one rank's results."""
        out_positions: list[np.ndarray] = []
        out_values: list[np.ndarray] = []
        candidate_bytes = 0

        for bin_plan in state.bins:
            positions, counts = self._gather_positions(bin_plan)
            candidate_bytes += positions.nbytes
            values: np.ndarray | None = None
            if bin_plan.need_values:
                values = self._assemble_values(bin_plan)
                candidate_bytes += values.nbytes

            vw = bin_plan.value_work
            mask: np.ndarray | None = None
            if query.value_range is not None and not bin_plan.aligned:
                lo, hi = query.value_range
                mask = (values >= lo) & (values <= hi)
            if plan.region is not None:
                interior = plan.interior_of(bin_plan.cpos)
                if not interior.all():
                    # Only elements of boundary chunks need the
                    # coordinate test; interior chunks pass whole.
                    in_region = np.ones(positions.size, dtype=bool)
                    boundary = ~np.repeat(interior, counts)
                    in_region[boundary] = self.grid.positions_in_region(
                        positions[boundary], plan.region
                    )
                    mask = in_region if mask is None else (mask & in_region)
            if position_filter is not None:
                hit = position_filter.get(positions)
                mask = hit if mask is None else (mask & hit)
            if vw is not None and vw.fatal_mask is not None:
                # Points of unrecoverable chunks leave the answer
                # (allow_partial — otherwise the plan phase raised).
                keep = ~np.repeat(vw.fatal_mask, counts)
                mask = keep if mask is None else (mask & keep)
            if vw is not None and vw.cell_levels is not None:
                # Count degraded points that actually reach the
                # result (dummy-filled below the requested level).
                base = (
                    vw.requested_levels
                    if vw.requested_levels is not None
                    else vw.n_groups
                )
                deg = np.repeat(vw.cell_levels < base, counts)
                if mask is not None:
                    deg = deg & mask
                fctx.degraded_points += int(deg.sum())
            if mask is not None:
                positions = positions[mask]
                if values is not None:
                    values = values[mask]
            out_positions.append(positions)
            if query.wants_values:
                out_values.append(values)

        positions = (
            np.concatenate(out_positions) if out_positions else np.empty(0, dtype=np.int64)
        )
        values = None
        if query.wants_values:
            values = (
                np.concatenate(out_values) if out_values else np.empty(0, dtype=np.float64)
            )
        return RankOutput(
            positions=positions,
            values=values,
            session=state.session,
            data_raw_bytes=state.raw["data"],
            index_raw_bytes=state.raw["index"],
            candidate_bytes=candidate_bytes,
        )

    def _gather_positions(self, bin_plan: _BinPlan) -> tuple[np.ndarray, np.ndarray]:
        """Slice the wanted chunks out of the decoded index blocks.

        Returns the concatenated global positions (in ``cpos`` order)
        and the per-chunk element counts.  Wanted chunks are gathered as
        maximal runs of consecutive chunk positions — one slice per run
        instead of one Python-level slice per chunk.
        """
        bin_counts = self.context.counts64[bin_plan.bin_id]
        # Cumulative element counts over the whole bin: the offset of a
        # chunk inside a decoded block is pos_offsets[cpos] minus the
        # block's base (precomputed once per store, DESIGN.md §7).
        pos_offsets = self.context.pos_offsets[bin_plan.bin_id]
        local_parts: list[np.ndarray] = []
        for cpos_start, cpos_end, job in bin_plan.index_parts:
            flat = job.result
            base = int(pos_offsets[cpos_start])
            lo = int(np.searchsorted(bin_plan.cpos, cpos_start, side="left"))
            hi = int(np.searchsorted(bin_plan.cpos, cpos_end, side="left"))
            wanted = bin_plan.cpos[lo:hi]
            if wanted.size == 0:
                continue
            breaks = np.flatnonzero(np.diff(wanted) != 1) + 1
            starts = np.concatenate(([0], breaks))
            ends = np.concatenate((breaks, [wanted.size]))
            for s, e in zip(starts, ends):
                local_parts.append(
                    flat[
                        int(pos_offsets[wanted[s]]) - base :
                        int(pos_offsets[wanted[e - 1] + 1]) - base
                    ]
                )
        counts = bin_counts[bin_plan.cpos]
        local_ids = (
            np.concatenate(local_parts)
            if local_parts
            else np.empty(0, dtype=np.int64)
        )
        positions = self.grid.global_positions_batch(
            bin_plan.chunk_ids, local_ids, counts
        )
        return positions, counts

    def _assemble_values(self, bin_plan: _BinPlan) -> np.ndarray:
        """Gather cells from decoded data blocks and assemble values.

        Cell gathering + PLoD byte-plane assembly belong to the
        *decompression* component: they are part of recovering values
        from the stored representation and scale with the bytes
        fetched, whereas the paper's "reconstruction" (filtering +
        final assembly of results) is independent of the PLoD level
        (Fig. 8's flat reconstruction line).
        """
        vw = bin_plan.value_work
        config = self.meta.config
        if vw is None or vw.n_elem == 0:
            return np.empty(0, dtype=np.float64)
        decoded = {row_idx: job.result for row_idx, job in vw.jobs.items()}
        group_payloads = [
            self._gather_cells(
                decoded,
                vw.row_starts,
                vw.cell_offsets,
                cells,
                as_float=not config.plod_enabled,
            )
            for cells in vw.cells_per_group
        ]
        if config.plod_enabled:
            counts = self.context.counts64[bin_plan.bin_id][bin_plan.cpos]
            if vw.group_members is not None:
                # Mixed-level plans fetched subset payloads; scatter
                # them into full-size planes (gaps stay zero — the
                # dummy-fill rule overwrites every byte beyond a
                # point's effective level).
                elem_starts = np.concatenate(
                    ([0], np.cumsum(counts))
                ).astype(np.int64)
                group_payloads = [
                    payload
                    if members.size == counts.size
                    else _scatter_subset(
                        payload,
                        members,
                        elem_starts,
                        GROUP_WIDTHS[g],
                        vw.n_elem,
                    )
                    for g, (payload, members) in enumerate(
                        zip(group_payloads, vw.group_members)
                    )
                ]
            levels = vw.cell_levels
            if levels is None and vw.requested_levels is not None:
                if int(vw.requested_levels.min()) < vw.n_groups:
                    levels = vw.requested_levels
            if levels is not None:
                point_levels = np.repeat(np.maximum(levels, 1), counts)
                return assemble_from_groups_degraded(
                    group_payloads, vw.n_elem, vw.n_groups, point_levels
                )
            return assemble_from_groups(group_payloads, vw.n_elem, vw.n_groups)
        return group_payloads[0]

    def _gather_cells(
        self,
        decoded: dict[int, np.ndarray],
        row_starts: np.ndarray,
        cell_offsets: np.ndarray,
        cells: np.ndarray,
        as_float: bool,
    ) -> np.ndarray:
        """Concatenate the payloads of ``cells`` (ascending) out of the
        decoded blocks, slicing maximal runs of consecutive cells.

        A ``None`` entry in ``decoded`` is a quarantined block: its
        cells are zero-filled placeholders, later either dropped
        (fatal loss) or overwritten by the dummy-fill reconstruction
        (refinement loss) — they never reach a result as-is.
        """
        rows = np.searchsorted(row_starts, cells, side="right") - 1
        breaks = np.flatnonzero((np.diff(cells) != 1) | (np.diff(rows) != 0)) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [cells.size]))
        parts: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            row_idx = int(rows[s])
            buf = decoded[row_idx]
            block_base = int(cell_offsets[row_starts[row_idx]])
            lo = int(cell_offsets[cells[s]]) - block_base
            hi = int(cell_offsets[cells[e - 1] + 1]) - block_base
            if buf is None:
                parts.append(
                    np.zeros(
                        (hi - lo) // 8 if as_float else hi - lo,
                        dtype=np.float64 if as_float else np.uint8,
                    )
                )
            else:
                parts.append(buf[lo // 8 : hi // 8] if as_float else buf[lo:hi])
        if not parts:
            return np.empty(0, dtype=np.float64 if as_float else np.uint8)
        return np.concatenate(parts)


def _scatter_subset(
    payload: np.ndarray,
    members: np.ndarray,
    elem_starts: np.ndarray,
    width: int,
    n_elem: int,
) -> np.ndarray:
    """Scatter a subset byte-group payload into a full-size plane.

    ``payload`` concatenates the group's bytes for the chunks indexed by
    ``members`` (ascending indices into the bin's planned cpos array);
    ``elem_starts`` is the cumulative element count over all planned
    chunks.  Chunks outside the subset stay zero — assembly's per-point
    dummy-fill rule overwrites those bytes, so they never reach a value.
    Copies maximal runs of consecutive members, mirroring the run-sliced
    cell gather.
    """
    plane = np.zeros(n_elem * width, dtype=np.uint8)
    if members.size:
        breaks = np.flatnonzero(np.diff(members) != 1) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [members.size]))
        src = 0
        for s, e in zip(starts, ends):
            lo = int(elem_starts[members[s]]) * width
            hi = int(elem_starts[members[e - 1] + 1]) * width
            plane[lo:hi] = payload[src : src + (hi - lo)]
            src += hi - lo
    return plane
