"""MLOCStore: the user-facing query interface over a written dataset.

Opens the metadata of a variable previously written by
:class:`~repro.core.writer.MLOCWriter`, reconstructs the geometry (chunk
grid, curve order, bin scheme), and serves queries through the planner
and parallel executor.  Storage accounting for Table I is exposed via
:meth:`storage_report`.

:class:`MLOCStore` is everything a read handle is — geometry,
planning context, caches, the
:class:`~repro.core.config.ExecutionConfig`, the engine(s) that execute
its plans — and the one query pipeline (plan → narrow → resolve levels
→ stage → assemble).  :meth:`MLOCStore.stage` does everything a query
is charged for and returns a :class:`StagedRequest`; :func:`assemble`
turns a *list* of them — from any handles — into results, gathering
cells once per engine for the queries that can share (DESIGN.md §7).  A
single query is a list of one.

A handle runs one engine per bin-range shard (``n_shards``, default
one): the scatter (:meth:`MLOCStore.stage_planned`) narrows the plan to
each shard's contiguous bin range — the shard-level extension of the
column-order rule, cut by
:func:`~repro.parallel.scheduler.weighted_bin_partition` over per-bin
stored bytes — and the gather (:meth:`MLOCStore.gather_parts`) merges
the parts.  Sharding is metadata-level only: every shard reads the same
subfiles, and a one-shard scatter/gather is the plain one-engine path.
The engines do not know they are parallelised; only the handle
scatters.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.binning.binner import BinScheme
from repro.core.chunking import ChunkGrid
from repro.core.config import ExecutionConfig, fold_execution
from repro.core.engine.session import RefinementSession
from repro.core.engine.stages import QueryEngine, StagedQuery
from repro.core.errors import DegradedResultError, MissingRecordError
from repro.core.meta import StoreMeta
from repro.core.planner import PlanContext, QueryPlan
from repro.core.query import Query
from repro.core.result import (
    BatchResult,
    ComponentTimes,
    QueryResult,
    aggregate_stats,
)
from repro.core.writer import make_curve
from repro.index.bitmap import Bitmap
from repro.index.hbi import HBIndex, hbi_path
from repro.parallel.scheduler import weighted_bin_partition
from repro.plod.bounds import ErrorBoundsTable, peb_path
from repro.pfs.blockcache import BlockCache
from repro.pfs.layout import BinFileSet
from repro.pfs.simfs import SimulatedPFS

__all__ = [
    "MLOCStore",
    "StagedRequest",
    "StorageReport",
    "assemble",
    "quarantine_report",
]


@dataclass(frozen=True)
class StorageReport:
    """On-disk footprint of one variable (Table I accounting)."""

    data_bytes: int
    index_bytes: int
    meta_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes + self.meta_bytes


def quarantine_report(quarantine: dict[tuple[str, int], str]) -> dict[str, str]:
    """A quarantine registry as sorted ``"path@offset" -> reason`` rows."""
    return {
        f"{path}@{offset}": reason
        for (path, offset), reason in sorted(quarantine.items())
    }


@dataclass
class StagedRequest:
    """One request after :meth:`MLOCStore.stage`: charged, not gathered."""

    store: "MLOCStore"
    query: Query
    plan: QueryPlan
    #: The engines running part of the plan, each with its staged part.
    parts: list[tuple[QueryEngine, StagedQuery]]
    #: The plan and tol rows, stamped over the gathered engine rows.
    stats: dict


def assemble(staged: list[StagedRequest]) -> list[QueryResult]:
    """Assemble a batch of staged requests, of any handles, at once.

    Every engine assembles its parts of the whole batch in one call —
    that is where requests share a cell gather — then each request's
    handle gathers its parts into the request's result.
    """
    parts = [pair for request in staged for pair in request.parts]
    answers: dict[int, QueryResult] = {}
    for engine in dict.fromkeys(engine for engine, _ in parts):
        mine = [part for owner, part in parts if owner is engine]
        answers.update(zip(map(id, mine), engine.assemble(mine)))
    results = []
    for request in staged:
        result = request.store.gather_parts(
            request, [answers[id(part)] for _, part in request.parts]
        )
        result.stats.update(request.stats)
        results.append(result)
    return results


class MLOCStore:
    """Read-side handle on one stored variable.

    Execution options arrive as one ``execution`` object, optionally
    overridden by :class:`~repro.core.config.ExecutionConfig` field
    keywords; the remaining arguments are topology, not options.
    ``n_ranks`` is each shard's rank count, so total simulated
    parallelism is ``n_shards * n_ranks``.
    """

    def __init__(
        self,
        fs: SimulatedPFS,
        root: str,
        meta: StoreMeta,
        *,
        n_ranks: int = 8,
        n_shards: int = 1,
        scheduler: str = "column",
        cache: BlockCache | None = None,
        use_hbi: bool = False,
        generation: int | None = None,
        execution: ExecutionConfig | None = None,
        **overrides,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.execution = fold_execution(execution, overrides)
        self.fs = fs
        self.root = root.rstrip("/")
        self.meta = meta
        self._engine_topology = {"n_ranks": n_ranks, "scheduler": scheduler}
        self._peb: ErrorBoundsTable | None = None
        # Hierarchical bitmap index: opt-in where the handle is opened,
        # because enabling it changes plan *work*, not results — the
        # flat path stays the accounting baseline.
        self.use_hbi = bool(use_hbi)
        self._hbi: HBIndex | None = None
        self.grid = ChunkGrid(meta.shape, meta.config.chunk_shape)
        self.curve = make_curve(meta.config, self.grid)
        self.scheme = BinScheme(meta.edges)
        self.files = BinFileSet(self.root, meta.config.n_bins)
        if cache is None and self.execution.cache_bytes > 0:
            cache = BlockCache(self.execution.cache_bytes)
        self.cache = cache
        # Store-resident planning context: per-bin prefix sums and
        # block-table row starts computed once at open, plus (when
        # enabled) the LRU of finished plans keyed by query fingerprint.
        # Every engine of the handle (one per shard) shares it, so the
        # tables are built exactly once.
        self.context = PlanContext(
            meta, self.grid, self.curve, self.scheme,
            plan_cache=self.execution.plan_cache,
        )
        # Fingerprint the metadata so decoded blocks cached by a
        # previous layout of the same paths can never be served after a
        # rewrite-and-reopen.  A dataset snapshot passes the sealed
        # member's recorded ``meta_crc`` explicitly, pinning cache keys
        # to the manifest generation that sealed the member.
        if generation is None:
            generation = meta.fingerprint() if cache is not None else 0
        self.generation = generation
        self.n_shards = n_shards
        #: The engines executing this handle's plans; shard ``s``
        #: executes bin range ``s``.  They share cache, generation and
        #: planning context, so any one mints fetchers.
        self.engines: list[QueryEngine] = [self._new_engine() for _ in range(n_shards)]
        #: Bin-range boundaries; shard ``s`` owns ``[b[s], b[s+1])``.
        self.shard_bounds = weighted_bin_partition(self._bin_weights(), n_shards)

    def _new_engine(self) -> QueryEngine:
        """One engine over this handle's shared state."""
        return QueryEngine(
            self.fs,
            self.files,
            self.meta,
            self.grid,
            self.curve,
            cache=self.cache,
            generation=self.generation,
            context=self.context,
            execution=self.execution,
            **self._engine_topology,
        )

    @classmethod
    def open(
        cls, fs: SimulatedPFS, root: str, variable: str = "var", **options
    ) -> "MLOCStore":
        """Open the variable stored under ``root/variable``.

        The metadata file is read once here (the store keeps it in
        memory for its lifetime, as any long-running analysis service
        would); per-query index/data reads are charged to each query.
        ``options`` are the constructor's keywords.
        """
        var_root = f"{root.rstrip('/')}/{variable}"
        return cls(fs, var_root, StoreMeta.load(fs, var_root), **options)

    def with_ranks(self, n_ranks: int) -> "MLOCStore":
        """A view of the same store using a different rank count.

        The view shares everything but the engines (so it starts with
        an empty quarantine registry, like a fresh handle).
        """
        clone = copy.copy(self)
        clone._engine_topology = {**self._engine_topology, "n_ranks": n_ranks}
        clone.engines = [clone._new_engine() for _ in self.engines]
        return clone

    # ------------------------------------------------------------------
    def _bin_weights(self) -> np.ndarray:
        """Stored bytes per bin (data + index payloads) — the partition
        weight, so shards balance compressed volume, not bin count."""
        n_bins = self.meta.config.n_bins
        return sum(
            np.bincount(table.bins(), weights=table.rows[:, 3], minlength=n_bins)
            for table in (self.meta.data_blocks, self.meta.index_blocks)
        )

    def shard_weights(self) -> np.ndarray:
        """Stored bytes owned by each shard (the balance diagnostic)."""
        weights = self._bin_weights()
        return np.array(
            [
                float(weights[self.shard_bounds[s] : self.shard_bounds[s + 1]].sum())
                for s in range(self.n_shards)
            ]
        )

    # ------------------------------------------------------------------
    @property
    def executor(self) -> QueryEngine:
        """The (first) engine: rank count and collective cost model."""
        return self.engines[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.meta.shape

    @property
    def n_elements(self) -> int:
        return self.grid.n_elements

    @property
    def variable(self) -> str:
        return self.meta.variable

    def _read_record(self, path: str) -> bytes:
        """A persisted record's bytes, read through an uncharged
        session like the metadata at open."""
        if not self.fs.exists(path):
            raise MissingRecordError(path)
        return bytes(self.fs.session().open(path).read_all())

    @property
    def hbi(self) -> HBIndex:
        """The hierarchical count index, loaded on first use.

        Raises :class:`MissingRecordError` when the ``hbi`` record every
        writer persists is absent.
        """
        if self._hbi is None:
            self._hbi = HBIndex.from_bytes(self._read_record(hbi_path(self.root)))
        return self._hbi

    @property
    def peb(self) -> ErrorBoundsTable:
        """The per-chunk PLoD error-bounds table, loaded on first use.

        Raises :class:`MissingRecordError` when the ``peb`` record is
        absent — every writer persists it on PLoD layouts, and only
        there.
        """
        if self._peb is None:
            self._peb = ErrorBoundsTable.from_bytes(
                self._read_record(peb_path(self.root))
            )
        return self._peb

    @property
    def quarantined_blocks(self) -> dict[tuple[str, int], str]:
        """Blocks the read path quarantined, as (path, offset) -> reason.

        A block lands here after a verified read exhausts its retries
        (persistent CRC mismatch, torn read, or repeated transient
        errors); it stays quarantined for this store handle's lifetime
        and is answered by the degradation policy instead of re-read.
        Shard bin ranges are disjoint, so a block extent can only be
        quarantined by the engine that owns its bin — the union over
        engines is a plain merge.
        """
        merged: dict[tuple[str, int], str] = {}
        for engine in self.engines:
            merged.update(engine.quarantine)
        return merged

    def new_fetcher(self, shared: bool = False):
        """A block fetcher for one query (``shared=True``: a session/batch).

        Fetcher keys are ``(generation, path, offset)``; every engine
        of the handle has the same generation and shard bin ranges are
        disjoint, so one fetcher serves a whole scatter.
        """
        return self.executor.new_fetcher(shared=shared)

    # ------------------------------------------------------------------
    def plan(
        self, query: Query, chunk_subset: np.ndarray | None = None
    ) -> tuple[QueryPlan, dict[str, int]]:
        """Plan ``query``, returning the narrowed plan and its counters.

        Planning is deterministic, so serving a cached plan can never
        change results — only skip the plan-phase work (DESIGN.md §6).

        ``chunk_subset`` restricts the plan to the given chunk ids
        (compound-query pushdown: the running intersection's surviving
        chunks); with ``use_hbi`` a value-constrained plan is
        additionally pruned through the hierarchical index.  Both only
        drop chunks proven to contribute nothing, so results stay
        bit-identical to the unpruned plan.

        Public so front-ends can separate admission from execution:
        the broker plans at admission to cost a request, then executes
        the same plan later via the ``planned`` argument of
        :meth:`query`.
        """
        cache = self.context.cache
        hits_before = cache.hits if cache is not None else 0
        plan = self.context.plan(query)
        hit = cache is not None and cache.hits > hits_before
        plan_stats = {
            "plan_cache_hits": int(hit),
            "plan_cache_misses": int(cache is not None and not hit),
            "chunks_pruned": 0,
            "bins_pruned": 0,
        }
        prune = self.use_hbi and query.value_range is not None
        if chunk_subset is not None or prune:
            # Cached plans are shared and must not change; narrowing
            # only rebinds the chunk/bin-axis fields, so a shallow copy
            # keeps the cache's arrays intact while this query prunes.
            plan = copy.copy(plan)
            pruned = 0
            if chunk_subset is not None:
                pruned += plan.narrow(np.isin(plan.chunk_ids, chunk_subset))
            if prune:
                pruned += self.context.prune_plan(plan, self.hbi)
            plan_stats["chunks_pruned"] = pruned
        return plan, plan_stats

    def estimated_raw_bytes(self, query: Query, plan: QueryPlan) -> int:
        """Estimated raw decode bytes of a planned query (admission cost).

        For error-bounded queries the estimate reflects the per-chunk
        levels the bounds table selects, so broker admission costing
        sees the bytes a ``tol`` query will actually demand.
        """
        return self.context.estimated_raw_bytes(
            query, plan, self.resolve_levels(query)
        )

    # ------------------------------------------------------------------
    def resolve_levels(self, query: Query) -> np.ndarray | None:
        """Per-chunk PLoD levels meeting the query's error bound.

        Returns a per-curve-position ``int64`` array of the minimal
        level whose recorded bound is ``<= tol`` for every chunk, or
        ``None`` when the query carries no (effective) tol.  Raises
        ``ValueError`` on non-PLoD layouts and when ``query.plod_level``
        caps the plan below the level ``tol`` requires — the engine
        never claims an accuracy it cannot prove from stored bounds.
        """
        if not query.tol:
            # tol=0 demands full precision, which is exactly the
            # tol-less path: results *and* stats stay bit-identical.
            return None
        tol, metric = query.tol, query.tol_metric
        if not self.meta.config.plod_enabled:
            raise ValueError(
                "tol requires a PLoD layout (level order containing 'M'); "
                f"this store uses {self.meta.config.level_order!r}"
            )
        levels = self.peb.min_level_for(tol, metric)
        deepest = int(levels.max()) if levels.size else 1
        if deepest > query.plod_level:
            raise ValueError(
                f"tol={tol} ({metric}) needs PLoD level {deepest} on some "
                f"chunks, but the query caps plod_level at {query.plod_level}"
            )
        return levels

    def stage_planned(
        self,
        query: Query,
        plan: QueryPlan,
        *,
        position_filter: Bitmap | None = None,
        fetcher=None,
        chunk_levels: np.ndarray | None = None,
    ) -> StagedRequest:
        """Stage an already-planned query on the shards it touches: the
        scatter (:meth:`gather_parts` is the gather).

        The plan is narrowed to each shard's bin range by bin mask; the
        chunk columns stay whole (chunk selection is bin-independent),
        so the narrowed block lists exactly partition the planned work.
        A shard whose range holds no planned bin is skipped, a plan
        that touches no shard is staged on shard 0, and an all-true
        mask stages the plan itself.  A shared ``fetcher`` serves every
        shard: cache keys are ``(generation, path, offset)`` and shard
        bin ranges are disjoint, so one fetcher dedups across the whole
        scatter without shards ever colliding on a key.
        """
        owner = np.searchsorted(self.shard_bounds, plan.bin_ids, side="right") - 1
        parts = []
        for s in np.unique(owner).tolist() or [0]:
            mine = owner == s
            sub = plan
            if not mine.all():
                sub = copy.copy(plan)  # plans may be cached: narrow a shallow copy
                sub.narrow_bins(mine)
            engine = self.engines[s]
            parts.append(
                (engine, engine.stage(query, sub, position_filter, fetcher, chunk_levels))
            )
        return StagedRequest(self, query, plan, parts, {})

    def gather_parts(
        self, staged: StagedRequest, answers: list[QueryResult]
    ) -> QueryResult:
        """Merge the shards' answers into the request's result.

        Every stored element belongs to exactly one bin, hence one
        shard, so the concatenated positions sorted back reproduce the
        one-engine answer bit for bit.  Shards are notionally concurrent
        store servers: the slowest gates each time component.  The
        engine rows the parts carry are folded; the handle rows are
        stamped once, from the union plan.
        """
        plan = staged.plan
        positions = np.concatenate([r.positions for r in answers])
        order = np.argsort(positions, kind="stable")
        values = None
        if staged.query.wants_values:
            values = np.concatenate([r.values for r in answers])[order]
        stats = {
            "n_ranks": sum(engine.n_ranks for engine in self.engines),
            "backend": self.execution.backend,
            "bins_accessed": int(plan.bin_ids.size),
            "aligned_bins": int(plan.aligned.sum()),
            "chunks_accessed": int(plan.cpos.size),
            **aggregate_stats((r.stats for r in answers), owner="engine"),
            "quarantined_blocks": sum(r.stats["quarantined_blocks"] for r in answers),
            "n_shards": self.n_shards,
            "shards_hit": len(answers),
        }
        return QueryResult(
            positions=positions[order],
            values=values,
            times=ComponentTimes(
                io=max(r.times.io for r in answers),
                decompression=max(r.times.decompression for r in answers),
                reconstruction=max(r.times.reconstruction for r in answers),
                communication=max(r.times.communication for r in answers),
            ),
            stats=stats,
        )

    def _tol_stats(
        self,
        query: Query,
        plan: QueryPlan,
        levels: np.ndarray,
        degraded: dict[int, int],
        enforce: bool,
    ) -> dict:
        """The tol rows of a request's stats: its accuracy contract,
        reported and (with ``enforce``) enforced.

        ``achieved_bound`` is computed from the *effective* levels — the
        fetched per-chunk levels reduced by the sticky-fault
        degradation the engine reported (``degraded``, its
        ``degraded_chunk_levels``) — so a dummy-filled plane can never
        silently count as meeting the bound.  All of it is known once
        the request is staged.  When the provable bound exceeds ``tol``
        and ``enforce`` is set, strict mode raises
        :class:`DegradedResultError` (kind ``"tol"``); with
        ``allow_partial`` (or under a binding ``level_cap``, where
        :meth:`stage` does not enforce) the shortfall is disclosed via
        ``tol_met=False`` instead.
        """
        tol, metric = query.tol, query.tol_metric
        effective = levels.copy()
        for c, lvl in degraded.items():
            effective[c] = min(int(effective[c]), int(lvl))
        planned_eff = effective[plan.cpos]
        achieved = (
            float(self.peb.bound_at(planned_eff, metric, cpos=plan.cpos).max())
            if planned_eff.size
            else 0.0
        )
        uniq, cnt = np.unique(levels[plan.cpos], return_counts=True)
        full_bytes = self.context.estimated_raw_bytes(query, plan)
        tol_bytes = self.context.estimated_raw_bytes(query, plan, levels)
        if enforce and achieved > tol and not self.execution.allow_partial:
            quarantined = sorted(self.quarantined_blocks)
            path, offset = quarantined[0] if quarantined else ("", 0)
            hit = np.isin(plan.cpos, np.fromiter(degraded, dtype=np.int64))
            raise DegradedResultError(
                kind="tol",
                path=path,
                offset=offset,
                bin_id=-1,
                chunk_ids=tuple(int(c) for c in plan.chunk_ids[hit]),
            )
        return {
            "tol_target": float(tol),
            "tol_metric": metric,
            "achieved_bound": achieved,
            "levels_histogram": {int(u): int(c) for u, c in zip(uniq, cnt)},
            "tol_bytes_saved": int(full_bytes - tol_bytes),
            "tol_met": bool(achieved <= tol),
        }

    def stage(
        self,
        query: Query,
        position_filter: Bitmap | None = None,
        *,
        fetcher=None,
        planned: tuple[QueryPlan, dict[str, int]] | None = None,
        chunk_subset: np.ndarray | None = None,
        level_cap: int | None = None,
    ) -> StagedRequest:
        """Plan, read, classify and decode one access request.

        Everything the request is charged for — simulated I/O, modeled
        decode, fetcher and cache accounting, the tol contract — is
        final when this returns; :func:`assemble` turns a batch of
        staged requests into results.

        ``fetcher`` optionally shares a block fetcher with other
        queries (batch/broker dedup: a block already decoded for an
        earlier sharer is never decoded again); ``planned`` supplies a
        plan obtained earlier from :meth:`plan` (``chunk_subset`` is
        then already applied or ignored).  Neither changes the result
        — only what work is re-done.

        ``level_cap`` is a refinement step of an error-bounded request
        (DESIGN.md §7): every chunk is fetched at ``min(cap, the level
        its tol resolves to)``, and the tol contract is enforced iff the
        cap does not bind — a binding cap discloses the step's honest
        ``achieved_bound`` with ``tol_met=False`` instead.
        """
        plan, plan_stats = (
            self.plan(query, chunk_subset) if planned is None else planned
        )
        levels = target = self.resolve_levels(query)
        if target is not None and level_cap is not None:
            levels = np.minimum(target, level_cap)
        staged = self.stage_planned(
            query,
            plan,
            position_filter=position_filter,
            fetcher=fetcher,
            chunk_levels=levels,
        )
        staged.stats.update(plan_stats)
        staged.stats["tol_bytes_saved"] = 0  # overwritten on a tol query
        if levels is not None:
            degraded = aggregate_stats(part.stats for _, part in staged.parts)
            staged.stats.update(
                self._tol_stats(
                    query,
                    plan,
                    levels,
                    degraded["degraded_chunk_levels"],
                    enforce=np.array_equal(levels, target),
                )
            )
        return staged

    def query(
        self,
        query: Query,
        position_filter: Bitmap | None = None,
        **how,
    ) -> QueryResult:
        """Plan and execute one access request: :meth:`stage` (``how``
        is its keywords), then :func:`assemble` as a batch of one."""
        return assemble([self.stage(query, position_filter, **how)])[0]

    def query_many(self, queries: list[Query]) -> BatchResult:
        """Plan and execute a batch of queries as one pipeline.

        All queries are planned up front and staged in submission
        order through one shared block fetcher: a compression block
        covered by several queries of the batch is read and decoded
        exactly once (the first query in submission order pays its
        simulated I/O and modeled decode seconds; later queries record
        cache hits), even when the store has no persistent
        :class:`BlockCache`.  With a cache, the batch additionally
        warms — and benefits from — the cross-batch LRU.  The batch is
        then assembled once: queries that can share gather their cells
        in one pass over the union of their plans.

        Returns per-query results (each with its own component times
        and counters) plus the batch aggregate.
        """
        planned = [self.plan(q) for q in queries]
        fetcher = self.new_fetcher(shared=True)
        results = assemble(
            [self.stage(q, fetcher=fetcher, planned=p) for q, p in zip(queries, planned)]
        )
        batch = BatchResult.of(results, quarantined_blocks=len(self.quarantined_blocks))
        if self.cache is not None:
            batch.stats["cache"] = self.cache.stats.as_dict()
        return batch

    def open_session(self, query: Query) -> RefinementSession:
        """Open a progressive refinement session on ``query``.

        The initial step executes immediately at ``query.plod_level``;
        subsequent :meth:`RefinementSession.refine` calls fetch only the
        byte-plane blocks the session does not already hold.  Every
        step is one :meth:`query` through the session's shared fetcher,
        whatever the shard count.
        """
        return RefinementSession(self, query)

    def runtime_stats(self) -> dict:
        """Open-state counters of this store handle (``mloc stats``).

        Unlike per-query ``QueryResult.stats`` these describe the
        *current* state of the handle's long-lived structures: the plan
        cache, the decoded-block cache, and the quarantine registry —
        the engines share the first two, so they are reported once,
        and their quarantines are unioned — plus the shard map and
        each shard's own quarantine under ``"shards"``.
        """
        out: dict = {
            "n_ranks": sum(engine.n_ranks for engine in self.engines),
            "backend": self.execution.backend,
            "coalesce_gap": self.execution.coalesce_gap,
        }
        plan_cache = self.context.cache
        if plan_cache is not None:
            out["plan_cache"] = {
                "hits": plan_cache.hits,
                "misses": plan_cache.misses,
                "size": len(plan_cache),
                "capacity": plan_cache.capacity,
            }
        if self.cache is not None:
            cache_stats = self.cache.stats.as_dict()
            cache_stats["pinned_blocks"] = len(self.cache.pinned_keys())
            out["block_cache"] = cache_stats
        out["quarantine"] = quarantine_report(self.quarantined_blocks)
        out["n_shards"] = self.n_shards
        out["shard_bounds"] = [int(b) for b in self.shard_bounds]
        out["shard_weights"] = [float(w) for w in self.shard_weights()]
        out["shards"] = [
            {"quarantine": quarantine_report(engine.quarantine)}
            for engine in self.engines
        ]
        return out

    def storage_report(self) -> StorageReport:
        """On-disk footprint of this variable (Table I accounting;
        sharding is metadata-level only and adds no bytes)."""
        return StorageReport(
            data_bytes=self.files.data_bytes(self.fs),
            index_bytes=self.files.index_bytes(self.fs),
            meta_bytes=self.fs.size(self.files.meta_path),
        )

    def fetch_positions(
        self,
        bitmap: Bitmap,
        *,
        region: tuple[tuple[int, int], ...] | None = None,
        plod_level: int | None = None,
        ranges: tuple[tuple[float, float], ...] | None = None,
        fetcher=None,
    ) -> QueryResult:
        """Retrieve values at the positions set in ``bitmap``.

        The second step of multi-variable access (Section III-D4): the
        bitmap produced by a region-only step on another variable masks
        the value retrieval on this one.  Only chunks containing set
        positions are visited.  ``ranges`` are value ranges every set
        position is known to satisfy, so only the bins they overlap are
        read; no value filter runs, so this is exact at any PLoD level.
        ``fetcher`` is :meth:`stage`'s.
        """
        if bitmap.nbits != self.n_elements:
            raise ValueError(
                f"bitmap covers {bitmap.nbits} positions, store has {self.n_elements}"
            )
        positions = bitmap.to_positions()
        query = Query(
            region=region,
            output="values",
            plod_level=plod_level if plod_level is not None else 7,
        )
        # Uncached on purpose: the plan is narrowed in place below, and
        # cached plans are shared between queries.
        plan = self.context.plan_uncached(query)
        bins_pruned = 0
        if positions.size:
            hit_chunks = np.unique(self.grid.chunk_of_positions(positions))
            plan.narrow(np.isin(plan.chunk_ids, hit_chunks))
            if ranges:
                spans = [self.scheme.bins_overlapping(lo, hi)[0] for lo, hi in ranges]
                bins_pruned = plan.narrow_bins(np.isin(plan.bin_ids, np.concatenate(spans)))
        else:
            plan.narrow(np.zeros(plan.cpos.size, dtype=bool))
        plan_stats = {"chunks_pruned": 0, "bins_pruned": bins_pruned}
        return self.query(query, bitmap, fetcher=fetcher, planned=(plan, plan_stats))
