"""Serving layer: the multi-tenant query broker (docs/serving.md).

Sits strictly *above* ``repro.core`` — it consumes the store's public
planning/execution surface and never reaches into engine internals
from outside the fetcher contract (``scripts/check_layers.py`` rule 3
enforces that nothing below imports this package).
"""

from repro.server.broker import (
    BrokerConfig,
    BrokerCore,
    BrokerRejected,
    QueryBroker,
    QuotaExceededError,
    Request,
    TenantQuota,
)
from repro.server.fetchmerge import FetchMergeLoop
from repro.server.ingest import (
    AppendRecord,
    IngestQueryEvent,
    IngestReplayReport,
    IngestSession,
    TimestepArrival,
    replay_ingest,
)
from repro.server.replay import (
    ReplayEvent,
    ReplayReport,
    open_loop_events,
    poisson_arrivals,
    replay_closed_loop,
    replay_open_loop,
)

__all__ = [
    "BrokerConfig",
    "BrokerCore",
    "BrokerRejected",
    "QueryBroker",
    "QuotaExceededError",
    "Request",
    "TenantQuota",
    "FetchMergeLoop",
    "AppendRecord",
    "IngestQueryEvent",
    "IngestReplayReport",
    "IngestSession",
    "TimestepArrival",
    "replay_ingest",
    "ReplayEvent",
    "ReplayReport",
    "open_loop_events",
    "poisson_arrivals",
    "replay_closed_loop",
    "replay_open_loop",
]
