"""Staged query engine: Plan → IOScheduler → Decode → Assemble.

This is the middle engine layer: it turns a
:class:`~repro.core.planner.QueryPlan` into the bulk-synchronous
parallel program the paper describes (Section III-D, Fig. 5), but with
the monolithic executor's control flow rebuilt around explicit stages:

1. **Plan** — the planner's output is split over simulated MPI ranks
   (column order by default: each rank touches the fewest bin files).
   A rank's work *is* its span of the plan's
   :class:`~repro.parallel.scheduler.BlockList`: parallel row arrays
   (bin, curve position, chunk id — bin-major, positions ascending
   within a bin) that every later stage extends with per-row columns
   (element counts, alignment, requested PLoD level) and never unpacks
   into per-bin objects;
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
4. **Assemble** — once per rank: the merged extents are sliced out of
   the decoded blocks into one position array and group-major byte
   planes, the planes are reassembled, the value / region / position
   filters and the degradation accounting run on whole-rank arrays,
   and the root gathers per-rank results through the simulated
   communicator.

Rank execution is one columnar pass.  The store-wide tables of the
:class:`~repro.core.planner.PlanContext` turn all of a rank's rows, in a
constant number of NumPy calls, into the index block and element extent
of every row and the ``(byte group, row)`` matrix of data blocks and
byte extents (masked by ``group < level[row]`` under mixed-level
``tol`` plans).  Two Python loops per rank and stage remain: one over
the *distinct* blocks to request (ascending ``(bin, row)``, which with
the rank fixes the ``order_key`` that replays cache insertions), and
one over the *merged* extents to slice — neighbours that share a block
and are contiguous in the source collapse into one slice, so under
Hilbert order a box costs a handful of copies.  A quarantined block or
a level-masked cell simply leaves zeros in its plane.

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
from repro.core.planner import PlanContext, QueryPlan, merge_extents
from repro.core.query import Query
from repro.core.result import ComponentTimes, QueryResult
from repro.index.binindex import decode_position_block_flat
from repro.index.bitmap import Bitmap
from repro.parallel.procpool import get_pool
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
    GROUP_OFFSETS,
    GROUP_WIDTHS,
    assemble_from_groups,
    assemble_from_groups_degraded,
)
from repro.sfc.linearize import CurveOrder

__all__ = ["QueryEngine", "RankOutput"]

_SCHEDULERS = {
    "column": column_order_assignment,
    "round-robin": round_robin_assignment,
}
#: ``order_key`` block kinds: a bin's index blocks replay before its
#: data blocks.
_INDEX, _DATA = 0, 1


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
class _RankState:
    """One rank's work as parallel row arrays plus its accounting context.

    A row is one planned (bin, chunk); rows are bin-major with curve
    positions ascending inside a bin, and every array below — the
    ``(group, row)`` matrices by their second axis — is aligned with
    them.  The value-stage fields are filled by ``_plan_rank_values``.
    """

    rank: int
    session: PFSSession
    raw: dict[str, int]
    sched: IOScheduler
    #: The rank's distinct bins in row order, with their aligned flags;
    #: a bin's index here is the ``bin_seq`` of its blocks' order keys.
    bins: np.ndarray
    bin_aligned: np.ndarray
    bin_ids: np.ndarray
    cpos: np.ndarray
    chunk_ids: np.ndarray
    #: Elements per row, and whether the row's bin is aligned.
    counts: np.ndarray
    aligned: np.ndarray
    #: Global index block id and ``[lo, hi)`` element extent per row.
    index_block: np.ndarray
    index_lo: np.ndarray
    index_hi: np.ndarray
    #: Global block id -> deferred decode, per subfile kind.
    index_jobs: dict[int, _DecodeJob] = field(default_factory=dict)
    data_jobs: dict[int, _DecodeJob] = field(default_factory=dict)
    #: Rows whose values are fetched, and their element counts (zero on
    #: the other rows).
    need: np.ndarray | None = None
    value_counts: np.ndarray | None = None
    #: Requested PLoD level per row and the deepest one fetched (1 on
    #: whole-value layouts).
    level: np.ndarray | None = None
    n_groups: int = 0
    #: ``(n_groups, n_rows)``: global data block id and ``[lo, hi)``
    #: extent of every cell, and whether it is fetched at all (its row
    #: needs values, its bin holds elements, its group is below the
    #: row's level).
    data_block: np.ndarray | None = None
    data_lo: np.ndarray | None = None
    data_hi: np.ndarray | None = None
    wanted: np.ndarray | None = None
    #: Rows whose points are unrecoverable (base byte-plane or
    #: whole-value block quarantined); ``None`` if none.
    fatal: np.ndarray | None = None
    #: Per-row effective PLoD level where refinement blocks were
    #: quarantined; ``None`` if no precision was lost.
    effective: np.ndarray | None = None

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False (index-stage arrays)."""
        for name in (
            "bin_ids", "cpos", "chunk_ids", "counts", "aligned",
            "index_block", "index_lo", "index_hi",
        ):  # fmt: skip
            setattr(self, name, getattr(self, name)[keep])


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
        if fctx.quarantined:  # a lost block always registers here first
            for state in states:
                self._classify_rank_values(state, fctx, degraded_levels)

        # Stage 3 (Decode): the only concurrent part (threads or
        # processes backend).
        pool_failures0 = fetcher.pool_failures
        blocks_decoded = self._run_decodes(fetcher)
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
        }
        return QueryResult(positions=positions, values=values, times=times, stats=stats)

    # ------------------------------------------------------------------
    def _run_decodes(self, fetcher: _BlockFetcher) -> int:
        """Run the decode stage on the configured backend.

        Returns the number of blocks decoded.  A pool is only engaged
        when it can actually overlap work: with one effective worker
        (or fewer than two pending jobs) every backend decodes inline,
        avoiding pure dispatch overhead on single-core machines.
        """
        n_pending = fetcher.pending_count()
        width = self.execution.workers or os.cpu_count() or 1
        backend = self.execution.backend
        if backend == "threads" and min(width, n_pending) > 1:
            with ThreadPoolExecutor(max_workers=min(width, n_pending)) as pool:
                return fetcher.run(pool)
        if backend == "processes" and width > 1 and n_pending > 1:
            return fetcher.run(get_pool(width))
        return fetcher.run(None)

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
        """Set up one rank's row arrays and defer its index-block reads."""
        session = self.fs.session()
        bin_ids, cpos = rank_blocks.bin_ids, rank_blocks.cpos
        # Bin-major rows: each bin is one contiguous run.
        run_starts = np.flatnonzero(np.diff(bin_ids, prepend=-1))
        bins = bin_ids[run_starts]
        bin_aligned = plan.aligned[np.searchsorted(plan.bin_ids, bins)]
        run_lengths = np.diff(run_starts, append=bin_ids.size)
        index_block, index_lo, index_hi = self.context.index_extents(bin_ids, cpos)
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
            bins=bins,
            bin_aligned=bin_aligned,
            bin_ids=bin_ids,
            cpos=cpos,
            chunk_ids=rank_blocks.chunk_ids,
            counts=self.context.counts64[bin_ids, cpos],
            aligned=np.repeat(bin_aligned, run_lengths),
            index_block=index_block,
            index_lo=index_lo,
            index_hi=index_hi,
        )
        # Rows ascend by (bin, cpos), so their block ids never decrease.
        distinct = index_block[np.flatnonzero(np.diff(index_block, prepend=-1))]
        state.index_jobs = self._request_blocks(
            state, fetcher, _INDEX, np.arange(bins.size), distinct
        )
        return state

    def _request_blocks(
        self,
        state: _RankState,
        fetcher: _BlockFetcher,
        kind: int,
        bin_seqs: np.ndarray,
        block_ids: np.ndarray,
    ) -> dict[int, _DecodeJob]:
        """Defer one read per distinct block of one subfile kind.

        ``block_ids`` are global block ids, ascending — i.e. in
        ``(bin, row)`` order, which with the rank is the plan order
        that ``order_key`` replays.  ``bin_seqs`` indexes the bins of
        ``state.bins`` whose subfile of this kind the rank touches; each
        gets its opener even if none of its blocks is requested (a
        non-caching fetcher opens the file regardless).
        """
        if kind == _INDEX:
            reads, path_of, raw_kind = (
                self.context.index_reads, self.files.index_path, "index",
            )  # fmt: skip
        else:
            reads, path_of, raw_kind = (
                self.context.data_reads, self.files.data_path, "data",
            )  # fmt: skip
        bins = state.bins.tolist()
        openers = {}
        for seq in bin_seqs.tolist():
            path = path_of(bins[seq])
            openers[bins[seq]] = (
                seq,
                path,
                _HandleOpener(state.session, path, eager=not fetcher.caching),
            )
        jobs: dict[int, _DecodeJob] = {}
        for block_id in block_ids.tolist():
            bin_id, row_idx, first, end, offset, length, raw_bytes, crc = reads[
                block_id
            ]
            seq, path, opener = openers[bin_id]
            key = (fetcher.generation, path, offset)
            order_key = (state.rank, seq, kind, row_idx)
            job, hit = fetcher.request_deferred(key, raw_bytes, order_key)
            if not hit:
                decode, spec = self._block_decoder(kind, bin_id, first, end, raw_bytes)
                state.sched.submit(
                    PendingRead(
                        path=path,
                        offset=offset,
                        length=length,
                        crc=crc,
                        opener=opener,
                        job=job,
                        decode=decode,
                        raw_bytes=raw_bytes,
                        raw_kind=raw_kind,
                        raw=state.raw,
                        key=key if fetcher.caching else None,
                        order_key=order_key,
                        spec=spec,
                    )
                )
            jobs[block_id] = job
        return jobs

    def _block_decoder(
        self, kind: int, bin_id: int, first: int, end: int, raw_bytes: int
    ):
        """``(payload -> decoded block, picklable spec)`` of one block."""
        if kind == _INDEX:
            counts_slice = self.context.counts64[bin_id, first:end]
            return (
                lambda payload: decode_position_block_flat(payload, counts_slice),
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
    def _plan_rank_values(
        self,
        state: _RankState,
        query: Query,
        position_filter: Bitmap | None,
        fetcher: _BlockFetcher,
        fctx: _FaultContext,
        chunk_levels: np.ndarray | None = None,
    ) -> None:
        """Resolve index losses, then defer the rank's data-block reads.

        With ``chunk_levels`` (mixed-level plans), byte group ``g`` is
        requested only for the chunks whose level exceeds ``g`` — the
        per-chunk minimal fetch of error-bounded retrieval.
        """
        if fctx.quarantined:
            self._drop_lost_index_rows(state, fctx)
        config = self.meta.config
        if query.wants_values or position_filter is not None:
            state.need = np.ones(state.cpos.size, dtype=bool)
            value_bins = np.arange(state.bins.size)
        else:
            state.need = ~state.aligned
            value_bins = np.flatnonzero(~state.bin_aligned)
        state.value_counts = np.where(state.need, state.counts, 0)
        # A bin whose planned chunks hold no element requests no block;
        # one that does also requests the blocks under its empty cells.
        active = state.need & (
            np.bincount(state.bin_ids, state.value_counts)[state.bin_ids] > 0
        )
        if config.plod_enabled and chunk_levels is not None:
            state.level = np.clip(chunk_levels[state.cpos], 1, config.n_groups)
        else:
            uniform = min(query.plod_level, config.n_groups) if config.plod_enabled else 1
            state.level = np.full(state.cpos.size, uniform, dtype=np.int64)
        state.n_groups = int(state.level[active].max()) if active.any() else 0
        state.data_block, state.data_lo, hi = self.context.data_extents(
            state.bin_ids, state.cpos, state.n_groups
        )
        # Rows without values take no room in the rank's planes.
        state.data_hi = np.where(state.need, hi, state.data_lo)
        state.wanted = active & (
            np.arange(state.n_groups, dtype=np.int64)[:, None] < state.level
        )
        state.data_jobs = self._request_blocks(
            state,
            fetcher,
            _DATA,
            value_bins,
            np.unique(state.data_block[state.wanted]),
        )

    def _drop_lost_index_rows(self, state: _RankState, fctx: _FaultContext) -> None:
        """A lost index block loses the membership of every chunk it
        covered: those rows leave the answer entirely."""
        lost_ids = [b for b, job in state.index_jobs.items() if _job_lost(job)]
        lost = np.isin(state.index_block, lost_ids)
        if not lost.any():
            return
        if not self.execution.allow_partial:
            # Report the first bin (in rank order) that lost a block.
            row = int(np.argmax(lost))
            bin_id = int(state.bin_ids[row])
            raise DegradedResultError(
                kind="index",
                path=self.files.index_path(bin_id),
                offset=self.context.index_reads[state.index_block[row]][4],
                bin_id=bin_id,
                chunk_ids=tuple(
                    state.chunk_ids[lost & (state.bin_ids == bin_id)].tolist()
                ),
            )
        fctx.partial_chunks.update(state.chunk_ids[lost].tolist())
        fctx.dropped_points += int(state.counts[lost].sum())
        state.keep_rows(~lost)

    def _classify_rank_values(
        self,
        state: _RankState,
        fctx: _FaultContext,
        degraded_levels: dict[int, int],
    ) -> None:
        """Map quarantined data blocks onto the degradation policy.

        A lost group-0 cell (the PLoD base plane, or the whole value
        when PLoD is off) makes the row's points unrecoverable
        (``fatal``); a lost refinement cell ``g >= 1`` only caps the
        row's effective level at ``g`` (``effective``) — the dummy-fill
        reconstruction applies from there down.
        """
        lost_ids = [b for b, job in state.data_jobs.items() if _job_lost(job)]
        if not lost_ids:
            return
        lost = np.isin(state.data_block, lost_ids) & state.wanted
        groups = np.arange(state.n_groups, dtype=np.int64)[:, None]
        first_lost = np.where(lost & (groups >= 1), groups, state.n_groups).min(axis=0)
        effective = np.minimum(state.level, first_lost)
        dropped = effective < state.level
        if dropped.any():
            state.effective = effective
            for c, lvl in zip(state.cpos[dropped].tolist(), effective[dropped].tolist()):
                degraded_levels[c] = min(degraded_levels.get(c, lvl), lvl)
        fatal = lost[0]
        if fatal.any():
            if not self.execution.allow_partial:
                # Report the first bin (in rank order) that lost points.
                row = int(np.argmax(fatal))
                bin_id = int(state.bin_ids[row])
                raise DegradedResultError(
                    kind="data-base" if self.meta.config.plod_enabled else "data",
                    path=self.files.data_path(bin_id),
                    offset=self.context.data_reads[state.data_block[0, row]][4],
                    bin_id=bin_id,
                    chunk_ids=tuple(
                        state.chunk_ids[fatal & (state.bin_ids == bin_id)].tolist()
                    ),
                )
            state.fatal = fatal
            fctx.partial_chunks.update(state.chunk_ids[fatal].tolist())
            fctx.dropped_points += int(state.counts[fatal].sum())

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
        counts = state.counts
        positions = self._rank_positions(state)
        values = self._rank_values(state)
        # Counted before any filter: what the rank gathered.
        candidate_bytes = positions.nbytes + values.nbytes

        mask: np.ndarray | None = None
        if query.value_range is not None and not state.aligned.all():
            # Aligned rows pass whole; the others hold values to test.
            lo, hi = query.value_range
            mask = np.repeat(state.aligned, counts)
            mask[np.repeat(state.need, counts)] |= (values >= lo) & (values <= hi)
        if plan.region is not None:
            interior = plan.interior_of(state.cpos)
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
        if state.fatal is not None:
            # Points of unrecoverable chunks leave the answer
            # (allow_partial — otherwise classification raised).
            keep = ~np.repeat(state.fatal, counts)
            mask = keep if mask is None else (mask & keep)
        if state.effective is not None:
            # Count degraded points that actually reach the
            # result (dummy-filled below the requested level).
            deg = np.repeat(state.effective < state.level, counts)
            if mask is not None:
                deg = deg & mask
            fctx.degraded_points += int(deg.sum())
        if mask is not None:
            positions = positions[mask]
            if query.wants_values:
                values = values[mask]
        return RankOutput(
            positions=positions,
            values=values if query.wants_values else None,
            session=state.session,
            data_raw_bytes=state.raw["data"],
            index_raw_bytes=state.raw["index"],
            candidate_bytes=candidate_bytes,
        )

    def _rank_positions(self, state: _RankState) -> np.ndarray:
        """Slice the rank's rows out of the decoded index blocks.

        Returns the global positions of every row's elements, in row
        order.  Rows that share a block and follow each other in it
        are one slice.
        """
        counts = state.counts
        local_ids = np.empty(int(counts.sum()), dtype=np.int64)
        jobs = state.index_jobs
        for block, lo, hi, dest in merge_extents(
            state.index_block, state.index_lo, state.index_hi
        ):
            local_ids[dest : dest + hi - lo] = jobs[block].result[lo:hi]
        return self.grid.global_positions_batch(state.chunk_ids, local_ids, counts)

    def _rank_values(self, state: _RankState) -> np.ndarray:
        """Slice the rank's cells out of the decoded data blocks into
        group-major planes and assemble the values of its ``need`` rows.

        Cell gathering + PLoD byte-plane assembly belong to the
        *decompression* component: they are part of recovering values
        from the stored representation and scale with the bytes
        fetched, whereas the paper's "reconstruction" (filtering +
        final assembly of results) is independent of the PLoD level
        (Fig. 8's flat reconstruction line).

        A quarantined block or a cell beyond its row's level is never
        copied: its bytes stay zero, later either dropped (fatal loss)
        or overwritten by the dummy-fill reconstruction — they never
        reach a result as-is.
        """
        counts = state.value_counts
        n_elem = int(counts.sum())
        if n_elem == 0:
            return np.empty(0, dtype=np.float64)
        n_groups = state.n_groups
        if self.meta.config.plod_enabled:
            # Planes back to back in one buffer: plane g starts at byte
            # n_elem * GROUP_OFFSETS[g], where merge_extents' dest puts it.
            plane_ends = [
                n_elem * (GROUP_OFFSETS[g] + GROUP_WIDTHS[g]) for g in range(n_groups)
            ]
            out = np.zeros(plane_ends[-1], dtype=np.uint8)
        else:
            out = np.zeros(n_elem, dtype=np.float64)
        jobs = state.data_jobs
        for block, lo, hi, dest in merge_extents(
            state.data_block, state.data_lo, state.data_hi, state.wanted
        ):
            decoded = jobs[block].result
            if decoded is not None:
                out[dest : dest + hi - lo] = decoded[lo:hi]
        if not self.meta.config.plod_enabled:
            return out
        planes = np.split(out, plane_ends[:-1])
        levels = state.level if state.effective is None else state.effective
        if int(levels.min()) < n_groups:
            return assemble_from_groups_degraded(
                planes, n_elem, n_groups, np.repeat(levels, counts)
            )
        return assemble_from_groups(planes, n_elem, n_groups)
