"""Query-trace recording and replay.

The paper's target users run *iterative* exploration: "typical
analytical workflows consist of iterative data querying for patterns
of interest and fetching subsets of data" (Section I).  Traces make
those workflows first-class artifacts:

* :class:`QueryTrace` records a session: the caller appends each query
  beside its ``store.query`` call;
* the trace serializes to/from JSON, so a session captured against one
  layout can be replayed against another (different level order, bin
  count, codec, rank count) with :func:`replay_trace` for an
  apples-to-apples layout comparison — the empirical input the
  level-order advisor formalizes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.query import Query
from repro.core.result import BatchResult, QueryResult
from repro.core.store import MLOCStore

__all__ = [
    "QueryTrace",
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


def replay_trace(
    store: MLOCStore,
    trace: QueryTrace,
    *,
    cold_cache: bool = True,
) -> BatchResult:
    """Run every traced query against ``store``, one at a time, and
    summarize them as a :class:`~repro.core.result.BatchResult`: times
    summed, stats folded, plus the store's ``quarantined_blocks``.

    ``cold_cache`` clears the PFS cache before each query (the paper's
    methodology); pass ``False`` to measure a warm iterative session.
    """
    results: list[QueryResult] = []
    for query in trace.queries:
        if cold_cache:
            store.fs.clear_cache()
        results.append(store.query(query))
    return BatchResult.of(results, quarantined_blocks=len(store.quarantined_blocks))
