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
    IngestReplay,
    IngestSession,
    TimestepArrival,
)
from repro.server.replay import ClosedLoop, OpenLoop, ReplayReport, replay

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
    "IngestReplay",
    "IngestSession",
    "TimestepArrival",
    "ClosedLoop",
    "OpenLoop",
    "ReplayReport",
    "replay",
]
