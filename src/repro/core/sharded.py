"""ShardedMLOCStore: bin-range scale-out over independent stores.

One :class:`~repro.core.store.MLOCStore` serves a variable through a
single engine.  For datasets past what one engine should own (the
512 GB harness configurations), this module partitions the *bin axis*
across ``n_shards`` independent engines: shard ``s``
owns the contiguous bin range ``[bounds[s], bounds[s+1])`` — the
shard-level extension of the column-order rule (each executor touches
the fewest bin subfiles, and a narrow value-range query touches the
fewest shards).  Ranges are cut by
:func:`~repro.parallel.scheduler.weighted_bin_partition` over per-bin
stored bytes, so shards carry near-equal data volumes.

Sharding is **metadata-level only**: the on-disk layout (subfiles,
block tables, metadata — FORMAT.md) is byte-identical to the
unsharded store; a shard is an ordinary
:class:`~repro.core.engine.stages.QueryEngine` (own quarantine
registry, shared context and cache) that only ever sees plans narrowed
to its bin range; a batch is staged shard by shard and each shard
engine assembles its parts of the whole batch at once.  Consequently any store can be opened
with any shard count, and reads scatter/gather:

* **scatter** — the query is planned once against the shared
  :class:`~repro.core.planner.PlanContext`, then the plan is narrowed
  per shard by bin mask.  The narrowed plans exactly partition the
  planned work (every (bin, chunk) block lands in exactly one shard),
  and shards whose range contains no planned bin are skipped.
* **gather** — every stored element belongs to exactly one bin, hence
  one shard, so concatenating shard results and sorting by position
  reproduces the unsharded answer bit-for-bit (positions are unique;
  pinned by the sharded-store suite under ``tests/``).

Shards are notionally concurrent store servers: merged component
times take the per-component **max** over shards (the slowest shard
gates the answer), which is what produces the near-linear simulated
scaling of the harness' per-shard scaling rows.  Stats are merged
through the canonical :data:`~repro.core.result.COUNTERS` table.
Decode work of every shard lands on the same persistent process pool
under ``backend="processes"`` (one warm pool per width,
:func:`~repro.parallel.procpool.get_pool`).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.engine.stages import QueryEngine
from repro.core.planner import QueryPlan
from repro.core.query import Query
from repro.core.result import BatchResult, ComponentTimes, QueryResult, aggregate_stats
from repro.core.store import MLOCStore, StagedRequest, quarantine_report
from repro.index.bitmap import Bitmap
from repro.parallel.scheduler import weighted_bin_partition
from repro.pfs.simfs import SimulatedPFS

__all__ = ["ShardedMLOCStore"]


def _max_times(times: list[ComponentTimes]) -> ComponentTimes:
    """Component-wise max: concurrent shards, slowest gates each phase."""
    return ComponentTimes(
        io=max((t.io for t in times), default=0.0),
        decompression=max((t.decompression for t in times), default=0.0),
        reconstruction=max((t.reconstruction for t in times), default=0.0),
        communication=max((t.communication for t in times), default=0.0),
    )


class ShardedMLOCStore(MLOCStore):
    """Scatter/gather over one engine per bin-range shard.

    An :class:`~repro.core.store.MLOCStore` whose plans execute on
    ``n_shards`` independent engines (``shards``), all sharing the
    handle's metadata, planning context (the per-bin tables are built
    exactly once), block cache and ``execution``.  Planning, level
    resolution, tol stamping, batches and sessions are the base
    class's; this class supplies the scatter (:meth:`stage_planned`)
    and the gather (:meth:`gather_parts`) and the shard-map
    diagnostics.  ``n_ranks`` is each shard's rank count, so total
    simulated parallelism is ``n_shards * n_ranks``.
    """

    def __init__(
        self,
        fs: SimulatedPFS,
        root: str,
        meta,
        *,
        n_shards: int = 2,
        **store_options,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        super().__init__(fs, root, meta, **store_options)
        self.n_shards = n_shards
        self.engines += [self._new_engine() for _ in range(n_shards - 1)]
        #: Bin-range boundaries; shard ``s`` owns ``[b[s], b[s+1])``.
        self.shard_bounds = weighted_bin_partition(
            self._bin_weights(), n_shards
        )

    @property
    def shards(self) -> list[QueryEngine]:
        """The per-shard engines; shard ``s`` executes bin range ``s``."""
        return self.engines

    # ------------------------------------------------------------------
    def _bin_weights(self) -> np.ndarray:
        """Stored bytes per bin (data + index payloads) — the partition
        weight, so shards balance compressed volume, not bin count."""
        n_bins = self.meta.config.n_bins
        weights = np.zeros(n_bins, dtype=np.float64)
        for b in range(n_bins):
            data = self.meta.data_blocks[b]
            index = self.meta.index_blocks[b]
            weights[b] = (
                float(data[:, 3].sum()) if data.size else 0.0
            ) + (float(index[:, 3].sum()) if index.size else 0.0)
        return weights

    # ------------------------------------------------------------------
    def shard_of_bin(self, bin_id: int) -> int:
        """Which shard owns ``bin_id``."""
        if not (0 <= bin_id < self.meta.config.n_bins):
            raise ValueError(f"bin {bin_id} out of range")
        return int(
            np.searchsorted(self.shard_bounds, bin_id, side="right") - 1
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
    def _narrow(self, plan: QueryPlan, shard: int) -> QueryPlan | None:
        """The sub-plan of ``plan`` restricted to one shard's bin range.

        Returns ``None`` when no planned bin falls in the range.  The
        chunk columns are kept whole: chunk selection is the spatial
        half of the plan and is bin-independent, so the narrowed
        block lists (bins x chunks) exactly partition the original.
        """
        lo, hi = int(self.shard_bounds[shard]), int(self.shard_bounds[shard + 1])
        mask = (plan.bin_ids >= lo) & (plan.bin_ids < hi)
        if not mask.any():
            return None
        sub = copy.copy(plan)  # plans may be cached: narrow a shallow copy
        sub.narrow_bins(mask)
        return sub

    def stage_planned(
        self,
        query: Query,
        plan: QueryPlan,
        *,
        position_filter: Bitmap | None = None,
        fetcher=None,
        chunk_levels: np.ndarray | None = None,
    ) -> StagedRequest:
        """Stage the narrowed sub-plan of every shard the plan touches.

        A shared ``fetcher`` is passed to every shard's engine:
        cache keys are ``(generation, path, offset)`` and shard bin
        ranges are disjoint, so one fetcher dedups across the whole
        scatter (and, when the broker shares it further, across
        queries) without shards ever colliding on a key.
        """
        parts = []
        for s, engine in enumerate(self.shards):
            sub = self._narrow(plan, s)
            if sub is not None:
                parts.append(
                    (engine, engine.stage(query, sub, position_filter, fetcher, chunk_levels))
                )
        return StagedRequest(self, query, plan, parts, {})

    def gather_parts(
        self, staged: StagedRequest, answers: list[QueryResult]
    ) -> QueryResult:
        """Merge the shards' answers into the request's result."""
        query, plan = staged.query, staged.plan
        if answers:
            positions = np.concatenate([r.positions for r in answers])
            order = np.argsort(positions, kind="stable")
            positions = positions[order]
            values = None
            if query.wants_values:
                values = np.concatenate([r.values for r in answers])[order]
        else:
            positions = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64) if query.wants_values else None

        stats = aggregate_stats(r.stats for r in answers)
        stats["n_shards"] = self.n_shards
        stats["shards_hit"] = len(answers)
        stats["n_ranks"] = sum(engine.n_ranks for engine in self.shards)
        stats["backend"] = self.execution.backend
        stats["n_results"] = int(positions.size)
        # Plan-derived counters the per-shard sum would misstate: every
        # shard repeats the whole chunk column (summing overcounts
        # chunks by shards_hit), and the flat store emits these per
        # query, so the session-parity contract stamps the union-plan
        # values here instead of dropping them.
        stats["bins_accessed"] = int(plan.bin_ids.size)
        stats["aligned_bins"] = int(plan.aligned.sum())
        stats["chunks_accessed"] = int(plan.cpos.size)
        stats["quarantined_blocks"] = len(self.quarantined_blocks)
        return QueryResult(
            positions=positions,
            values=values,
            times=_max_times([r.times for r in answers]),
            stats=stats,
        )

    def query_many(self, queries: list[Query]) -> BatchResult:
        """Run a batch; per-query scatter/gather, batch-level aggregate."""
        batch = super().query_many(queries)
        batch.stats["n_shards"] = self.n_shards
        return batch

    def runtime_stats(self) -> dict:
        """Open-state counters, aggregated across shards.

        The base class's snapshot — shards share one planning context
        and one block cache, so those are reported once, and the
        per-shard quarantine registries are unioned — plus the shard
        map and each shard's own quarantine under ``"shards"``.
        """
        out = super().runtime_stats()
        out["n_shards"] = self.n_shards
        out["shard_bounds"] = [int(b) for b in self.shard_bounds]
        out["shard_weights"] = [float(w) for w in self.shard_weights()]
        out["shards"] = [
            {"quarantine": quarantine_report(engine.quarantine)}
            for engine in self.shards
        ]
        return out
