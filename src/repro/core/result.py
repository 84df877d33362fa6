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

import numpy as np

__all__ = [
    "ComponentTimes",
    "QueryResult",
    "BatchResult",
    "SUMMED_STAT_KEYS",
    "FLOAT_SUMMED_STAT_KEYS",
    "FAULT_STAT_KEYS",
    "UNION_STAT_KEYS",
    "MAX_STAT_KEYS",
    "DICT_SUM_STAT_KEYS",
    "DICT_MIN_STAT_KEYS",
    "aggregate_stats",
]

#: The canonical additive ``QueryResult.stats`` counters.  Every path
#: that rolls per-query stats into an aggregate (``query_many``,
#: ``replay_trace``, the CLI) sums exactly this list — new counters
#: register here once and flow everywhere, instead of each aggregator
#: maintaining its own drifting copy.  ``stall_seconds`` is a float;
#: everything else is integral.
SUMMED_STAT_KEYS: tuple[str, ...] = (
    "blocks_planned",
    "blocks_decoded",
    "decode_pool_failures",
    "cache_hits",
    "cache_misses",
    "cache_hit_raw_bytes",
    "bytes_read",
    "files_opened",
    "seeks",
    "vectored_reads",
    "coalesced_reads",
    "readahead_hits",
    "stall_seconds",
    "crc_failures",
    "io_retries",
    "degraded_points",
    "dropped_points",
    "n_results",
    "plan_cache_hits",
    "plan_cache_misses",
    # Chunks dropped by hierarchical-index pruning / compound pushdown
    # (repro.index.hbi): proven-empty plan chunks never fetched.
    "chunks_pruned",
    # Bins dropped from a position-masked fetch by the group-domain
    # AND against the hierarchical index's leaves.
    "bins_pruned",
    # Cross-query fetch-merge dedup (shared fetchers: batches, sessions,
    # and the broker's continuous merge loop).
    "dedup_blocks",
    "dedup_raw_bytes",
    # Broker-level counters (repro.server): per-tenant dicts fold into
    # broker totals through the same registry as everything else.
    "admitted",
    "rejected",
    "queued",
    "completed",
    "cancelled",
    "quota_rejections",
    "quota_evictions",
    # Error-bounded retrieval (query tol=...): raw bytes the per-chunk
    # level selection avoided reading vs the full-precision plan.
    "tol_bytes_saved",
    # Ingest-aware serving (repro.server.ingest): manifest generations
    # a broker observed, snapshot re-pins it performed, and simulated
    # seconds queries stalled waiting for a timestep still being
    # appended.  ``ingest_stall_seconds`` is a float like
    # ``stall_seconds``.
    "generations_seen",
    "snapshot_refreshes",
    "ingest_stall_seconds",
)

#: The float-valued members of :data:`SUMMED_STAT_KEYS` (everything
#: else is integral).
FLOAT_SUMMED_STAT_KEYS: frozenset = frozenset(
    {"stall_seconds", "ingest_stall_seconds"}
)

#: The fault-accounting subset (printed by the CLI, swept by the
#: fault-tolerance experiment).
FAULT_STAT_KEYS: tuple[str, ...] = (
    "crc_failures",
    "io_retries",
    "degraded_points",
    "dropped_points",
)

#: Collection-valued counters aggregated by set union, not addition.
UNION_STAT_KEYS: tuple[str, ...] = ("partial_chunks",)

#: Worst-case counters aggregated by max, emitted only when present
#: (an aggregate bound is the loosest per-query bound).
MAX_STAT_KEYS: tuple[str, ...] = ("achieved_bound", "tol_target")

#: Dict-valued counters merged key-wise, emitted only when present:
#: ``levels_histogram`` (PLoD level -> chunk count) sums per key;
#: ``degraded_chunk_levels`` (curve position -> effective level) keeps
#: the minimum — the honest (deepest-loss) level per chunk.
DICT_SUM_STAT_KEYS: tuple[str, ...] = ("levels_histogram",)
DICT_MIN_STAT_KEYS: tuple[str, ...] = ("degraded_chunk_levels",)


def aggregate_stats(per_query: "list[dict] | tuple[dict, ...]") -> dict:
    """Fold per-query ``stats`` dicts into one aggregate dict.

    Sums every key in :data:`SUMMED_STAT_KEYS` (missing keys count as
    zero, so older recorded stats aggregate cleanly), unions the keys
    in :data:`UNION_STAT_KEYS` into sorted lists, maxes the keys in
    :data:`MAX_STAT_KEYS`, and merges the dict-valued keys key-wise
    (:data:`DICT_SUM_STAT_KEYS` by addition,
    :data:`DICT_MIN_STAT_KEYS` by minimum); the latter two families
    appear in the aggregate only when some input carried them.
    Non-additive counters (``quarantined_blocks`` is registry state,
    not a per-query delta; ``n_ranks``/``backend`` are configuration)
    are the caller's responsibility.
    """
    per_query = list(per_query)
    out: dict = {}
    for key in SUMMED_STAT_KEYS:
        if key in FLOAT_SUMMED_STAT_KEYS:
            out[key] = float(sum(s.get(key, 0) for s in per_query))
        else:
            out[key] = int(sum(s.get(key, 0) for s in per_query))
    for key in UNION_STAT_KEYS:
        merged: set = set()
        for s in per_query:
            merged.update(s.get(key, ()))
        out[key] = sorted(merged)
    for key in MAX_STAT_KEYS:
        vals = [s[key] for s in per_query if key in s]
        if vals:
            out[key] = max(vals)
    for key, fold in (
        *((k, lambda a, b: a + b) for k in DICT_SUM_STAT_KEYS),
        *((k, min) for k in DICT_MIN_STAT_KEYS),
    ):
        seen = False
        merged_d: dict = {}
        for s in per_query:
            d = s.get(key)
            if d is None:
                continue
            seen = True
            for k, v in d.items():
                merged_d[k] = fold(merged_d[k], v) if k in merged_d else v
        if seen:
            out[key] = merged_d
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
    """The answer to one :meth:`~repro.core.store.MLOCStore.query_many`.

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

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx: int) -> QueryResult:
        return self.results[idx]
