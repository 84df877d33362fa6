"""Query results and the component-time decomposition of Fig. 6.

Every data access in the paper's evaluation is decomposed into I/O
(seek + read), decompression, and reconstruction (filtering and final
assembly); the reproduction adds the modeled communication time of the
simulated MPI collectives as a fourth explicit component.  See
DESIGN.md §5 for the timing methodology: all four are simulated
seconds from the cost models — decompression and reconstruction are
counted bytes over calibrated throughputs on the parallel critical
path (max over ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ComponentTimes",
    "QueryResult",
    "BatchResult",
    "Counter",
    "COUNTERS",
    "FAULT_STAT_KEYS",
    "counter_names",
    "aggregate_stats",
]


class Counter(NamedTuple):
    """One row of the stats registry: who emits it, how it aggregates."""

    name: str
    #: How :func:`aggregate_stats` folds the per-query values:
    #:
    #: * ``"sum"`` / ``"fsum"`` — integer / float addition; always
    #:   emitted (missing inputs count as zero);
    #: * ``"union"`` — set union of collections, as a sorted list;
    #:   always emitted;
    #: * ``"max"`` — worst case (an aggregate bound is the loosest
    #:   per-query bound); emitted only when some input carried it;
    #: * ``"dict_sum"`` / ``"dict_min"`` — dicts merged key-wise by
    #:   addition / minimum; emitted only when some input carried it.
    fold: str
    #: The one layer that stamps real values into it: ``"engine"``
    #: (``QueryEngine.stage`` / ``assemble``), ``"plan"`` (``MLOCStore.plan``),
    #: ``"tol"`` (``MLOCStore.stage``) or
    #: ``"broker"`` (``repro.server.broker``, per tenant).  A layer emits only the
    #: rows it owns; rows of a layer a request never passed through
    #: are absent from its stats and fold as zero.
    owner: str


#: The canonical ``QueryResult.stats`` counters, in aggregate-output
#: order.  Every path that rolls per-query stats into an aggregate
#: (``query_many``, the store's shard gather, the broker,
#: ``cold_batch``, the CLI) folds exactly this table — a new counter
#: is one new row and flows everywhere.  Non-additive values
#: (``quarantined_blocks`` of a batch is registry state, not a
#: per-query delta; ``n_ranks``/``backend``/``n_shards`` are
#: configuration) are not counters and stay the caller's business.
COUNTERS: tuple[Counter, ...] = (
    Counter("blocks_planned", "sum", "engine"),
    Counter("blocks_decoded", "sum", "engine"),
    Counter("decode_pool_failures", "sum", "engine"),
    Counter("cache_hits", "sum", "engine"),
    Counter("cache_misses", "sum", "engine"),
    Counter("cache_hit_raw_bytes", "sum", "engine"),
    Counter("bytes_read", "sum", "engine"),
    Counter("files_opened", "sum", "engine"),
    Counter("seeks", "sum", "engine"),
    Counter("vectored_reads", "sum", "engine"),
    Counter("coalesced_reads", "sum", "engine"),
    Counter("stall_seconds", "fsum", "engine"),
    Counter("crc_failures", "sum", "engine"),
    Counter("io_retries", "sum", "engine"),
    Counter("degraded_points", "sum", "engine"),
    Counter("dropped_points", "sum", "engine"),
    Counter("n_results", "sum", "engine"),
    Counter("plan_cache_hits", "sum", "plan"),
    Counter("plan_cache_misses", "sum", "plan"),
    # Chunks dropped by hierarchical-index pruning / compound pushdown
    # (repro.index.hbi): proven-empty plan chunks never fetched.
    Counter("chunks_pruned", "sum", "plan"),
    # Bins dropped from a position-masked fetch because the value
    # ranges its positions are known to satisfy do not overlap them.
    Counter("bins_pruned", "sum", "plan"),
    # Cross-query fetch-merge dedup (shared fetchers: batches, sessions,
    # and the broker's continuous merge loop).
    Counter("dedup_blocks", "sum", "engine"),
    Counter("dedup_raw_bytes", "sum", "engine"),
    # Request lifecycle, counted per tenant by the broker.
    Counter("admitted", "sum", "broker"),
    Counter("rejected", "sum", "broker"),
    Counter("queued", "sum", "broker"),
    Counter("completed", "sum", "broker"),
    Counter("cancelled", "sum", "broker"),
    Counter("quota_rejections", "sum", "broker"),
    Counter("quota_evictions", "sum", "broker"),
    # Error-bounded retrieval (query tol=...): raw bytes the per-chunk
    # level selection avoided reading vs the full-precision plan.
    Counter("tol_bytes_saved", "sum", "tol"),
    Counter("partial_chunks", "union", "engine"),
    Counter("achieved_bound", "max", "tol"),
    Counter("tol_target", "max", "tol"),
    # PLoD level -> chunk count.
    Counter("levels_histogram", "dict_sum", "tol"),
    # Curve position -> effective level: the minimum is the honest
    # (deepest-loss) level per chunk.
    Counter("degraded_chunk_levels", "dict_min", "engine"),
)

#: The fault-accounting engine rows the CLI prints (a reporting
#: selection, not a fold family).
FAULT_STAT_KEYS: tuple[str, ...] = (
    "crc_failures",
    "io_retries",
    "degraded_points",
    "dropped_points",
)


def counter_names(*, owner: str | None = None, fold: str | None = None) -> tuple[str, ...]:
    """Names of the table's rows, optionally of one owner and/or fold."""
    return tuple(
        c.name
        for c in COUNTERS
        if (owner is None or c.owner == owner) and (fold is None or c.fold == fold)
    )


def _fold_dicts(dicts: list[dict], merge) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = merge(out[k], v) if k in out else v
    return out


#: fold name -> (values present in the inputs) -> aggregate.  The
#: always-emitted folds accept an empty list; the rest only run when
#: some input carried the counter.
_FOLDS = {
    "sum": lambda vals: int(sum(vals)),
    "fsum": lambda vals: float(sum(vals)),
    "union": lambda vals: sorted(set().union(*vals)),
    "max": max,
    "dict_sum": lambda vals: _fold_dicts(vals, lambda a, b: a + b),
    "dict_min": lambda vals: _fold_dicts(vals, min),
}
_ALWAYS_EMITTED = frozenset({"sum", "fsum", "union"})


def aggregate_stats(
    per_query: "list[dict] | tuple[dict, ...]", *, owner: str | None = None
) -> dict:
    """Fold per-query ``stats`` dicts into one aggregate dict.

    Every row of :data:`COUNTERS` (with ``owner``, every row that layer
    owns: the store's shard gather folds the engine's) is folded as its
    ``fold`` column says (see :class:`Counter`); a stats dict that lacks
    a counter — an older recording, or a request that never passed
    through the counter's owning layer — simply contributes nothing to
    it.
    """
    per_query = list(per_query)
    out: dict = {}
    for name, fold, row_owner in COUNTERS:
        if owner is not None and row_owner != owner:
            continue
        vals = [v for s in per_query if (v := s.get(name)) is not None]
        if vals or fold in _ALWAYS_EMITTED:
            out[name] = _FOLDS[fold](vals)
    return out


@dataclass
class ComponentTimes:
    """Response-time decomposition of one query."""

    io: float = 0.0
    decompression: float = 0.0
    reconstruction: float = 0.0
    communication: float = 0.0

    @property
    def total(self) -> float:
        return self.io + self.decompression + self.reconstruction + self.communication

    def __add__(self, other: "ComponentTimes") -> "ComponentTimes":
        return ComponentTimes(
            io=self.io + other.io,
            decompression=self.decompression + other.decompression,
            reconstruction=self.reconstruction + other.reconstruction,
            communication=self.communication + other.communication,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "io": self.io,
            "decompression": self.decompression,
            "reconstruction": self.reconstruction,
            "communication": self.communication,
            "total": self.total,
        }


@dataclass
class QueryResult:
    """The answer to one :class:`~repro.core.query.Query`.

    Attributes
    ----------
    positions:
        Global row-major positions of the qualifying points, sorted.
    values:
        The corresponding values (``None`` for region-only output).
        For lossy codecs or reduced PLoD levels these are approximate.
    times:
        The component-time decomposition.
    stats:
        Execution counters: bins/chunks/blocks touched, aligned bins,
        bytes read, ranks used.
    """

    positions: np.ndarray
    values: np.ndarray | None
    times: ComponentTimes
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def n_results(self) -> int:
        return int(self.positions.size)

    def coords(self, shape: tuple[int, ...]) -> np.ndarray:
        """Positions as array coordinates, shape ``(n, ndims)``."""
        strides = [int(np.prod(shape[d + 1 :])) for d in range(len(shape))]
        coords = np.empty((self.positions.size, len(shape)), dtype=np.int64)
        rem = self.positions
        for d, s in enumerate(strides):
            coords[:, d], rem = np.divmod(rem, s)
        return coords


@dataclass
class BatchResult:
    """The answer to many queries: a
    :meth:`~repro.core.store.MLOCStore.query_many` batch or a cold
    replay (:func:`repro.harness.systems.cold_batch`).

    Attributes
    ----------
    results:
        Per-query :class:`QueryResult`, in submission order.  Each
        carries its own component times and cache counters.
    times:
        Aggregate component times: the sum over the batch (queries run
        back to back in one service pipeline).
    stats:
        Batch-level counters: query count, total blocks planned vs
        decoded (the gap is the batch's dedup + cache savings),
        aggregate cache hits/misses, total bytes read.
    """

    results: list[QueryResult]
    times: ComponentTimes
    stats: dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, results: list[QueryResult], **stats) -> "BatchResult":
        """The one summary of many results: times summed in order,
        stats folded by :func:`aggregate_stats` plus ``n_queries``, then
        the caller's non-additive ``stats`` (registry state, cache)."""
        times = ComponentTimes()
        for result in results:
            times = times + result.times
        folded = aggregate_stats(r.stats for r in results)
        return cls(results, times, {**folded, "n_queries": len(results), **stats})

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx: int) -> QueryResult:
        return self.results[idx]
