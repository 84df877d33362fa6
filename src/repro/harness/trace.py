"""Query-trace recording and replay.

The paper's target users run *iterative* exploration: "typical
analytical workflows consist of iterative data querying for patterns
of interest and fetching subsets of data" (Section I).  Traces make
those workflows first-class artifacts:

* :class:`TracingStore` wraps an :class:`~repro.core.store.MLOCStore`
  and records every query it serves;
* :class:`QueryTrace` serializes to/from JSON, so a session captured
  against one layout can be replayed against another (different level
  order, bin count, codec, rank count) for an apples-to-apples layout
  comparison — the empirical input the level-order advisor formalizes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.query import Query
from repro.core.result import FAULT_STAT_KEYS, ComponentTimes, QueryResult
from repro.core.store import MLOCStore

__all__ = [
    "FAULT_STAT_KEYS",
    "QueryTrace",
    "TracingStore",
    "ReplayReport",
    "replay_trace",
]

_TRACE_VERSION = 1


def _tuples(value):
    """JSON arrays back to the (nested) tuples ``Query`` fields hold."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _query_from_dict(payload: dict) -> Query:
    """Every ``Query`` field the payload has; a field an older trace
    lacks takes its default."""
    return Query(
        **{f.name: _tuples(payload[f.name]) for f in fields(Query) if f.name in payload}
    )


@dataclass
class QueryTrace:
    """An ordered list of queries, serializable to JSON."""

    queries: list[Query] = field(default_factory=list)

    def append(self, query: Query) -> None:
        self.queries.append(query)

    def __len__(self) -> int:
        return len(self.queries)

    def save(self, path: str | Path) -> None:
        payload = {
            "version": _TRACE_VERSION,
            "queries": [asdict(q) for q in self.queries],
        }
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "QueryTrace":
        payload = json.loads(Path(path).read_text())
        version = payload.get("version")
        if version != _TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version!r}")
        return cls([_query_from_dict(q) for q in payload["queries"]])


class TracingStore:
    """Store wrapper that records every query into a trace."""

    def __init__(self, store: MLOCStore, trace: QueryTrace | None = None) -> None:
        self.store = store
        self.trace = trace if trace is not None else QueryTrace()

    def query(self, query: Query, **kwargs) -> QueryResult:
        self.trace.append(query)
        return self.store.query(query, **kwargs)

    def __getattr__(self, name):
        # Delegate everything else (shape, meta, fetch_positions, ...).
        return getattr(self.store, name)


# FAULT_STAT_KEYS is re-exported from repro.core.result — the canonical
# counter registry — so replay aggregation can never drift from the
# executor's emitted stats.


@dataclass
class ReplayReport:
    """Outcome of replaying a trace against one store."""

    results: list[QueryResult]
    fault_stats: dict = field(default_factory=dict)

    @property
    def per_query(self) -> list[ComponentTimes]:
        return [result.times for result in self.results]

    @property
    def n_results(self) -> list[int]:
        return [result.n_results for result in self.results]

    @property
    def total(self) -> ComponentTimes:
        out = ComponentTimes()
        for times in self.per_query:
            out = out + times
        return out

    @property
    def mean_seconds(self) -> float:
        return self.total.total / len(self.per_query) if self.per_query else 0.0


def replay_trace(
    store: MLOCStore,
    trace: QueryTrace,
    *,
    cold_cache: bool = True,
) -> ReplayReport:
    """Run every traced query against ``store``; gather the timings.

    ``cold_cache`` clears the PFS cache before each query (the paper's
    methodology); pass ``False`` to measure a warm iterative session.
    """
    results: list[QueryResult] = []
    fault_stats: dict = {key: 0 for key in FAULT_STAT_KEYS}
    partial: set[int] = set()
    for query in trace.queries:
        if cold_cache:
            store.fs.clear_cache()
        result = store.query(query)
        results.append(result)
        for key in FAULT_STAT_KEYS:
            fault_stats[key] += int(result.stats.get(key, 0))
        partial.update(result.stats.get("partial_chunks", ()))
    fault_stats["partial_chunks"] = sorted(partial)
    fault_stats["quarantined_blocks"] = len(store.quarantined_blocks)
    return ReplayReport(results=results, fault_stats=fault_stats)
