"""Traffic replay for the broker on the simulated clock.

The store's component times are modeled/simulated seconds (DESIGN.md
§5), so serving latency can be replayed deterministically without
wall-clock sleeps.  One loop, :func:`replay`, keeps the simulated
clock: it submits the arrivals that are due, lets the
:class:`~.broker.BrokerCore` run a round, and advances the clock by
each served query's component total, in service order (on the
simulated clock a round's queries are serviced back to back: what each
is charged is fixed when it is staged, and the shared assemble is not
on that clock).  A request's **latency** is its completion time minus
its *original* arrival time — queueing delay, admission retries, and
service all included.

The loop does not know which arrival process drives it; a source
decides *when* requests arrive, given the completions so far:
:class:`OpenLoop` (seeded Poisson, fixed in advance, so queueing delay
shows up in the tail), :class:`ClosedLoop` (one outstanding request
per tenant, so throughput adapts to service capacity) and
:class:`~.ingest.IngestReplay` (analyst queries against a dataset that
is still being appended to).

Admission is one rule for every source: a rejected request is retried
:data:`RETRY_S` simulated seconds later while anything is pending and
dropped when nothing is (nothing in flight can free capacity); a quota
rejection is permanent by construction and drops the request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

import numpy as np

from repro.core.query import Query
from repro.server.broker import BrokerCore, BrokerRejected, QuotaExceededError

__all__ = ["RETRY_S", "Arrival", "Source", "OpenLoop", "ClosedLoop", "ReplayReport", "replay"]

#: Simulated seconds between an admission rejection and its retry.
RETRY_S = 0.001

#: ``ReplayReport.as_dict`` columns of an ingest replay, in recorded order.
_INGEST_COLUMNS = (
    "n_requests", "dropped", "makespan_s", "first_queryable_s", "latency_p50_s",
    "latency_p99_s", "latency_mean_s", "stalled_requests", "ingest_stall_seconds",
    "generations_seen", "snapshot_refreshes", "n_appends", "ingest_throughput_bps",
    "bytes_read", "blocks_decoded", "cache_hits",
)  # fmt: skip


class Arrival(NamedTuple):
    """One request a source hands the loop: ``tenant`` submits ``query``
    at ``at``, on ``store`` (``None``: the core's own store)."""

    tenant: str
    query: Query
    at: float
    #: Rank among the arrivals due together, retries included; lower first.
    order: int = 0
    store: object = None
    #: Seconds (an ingest stall) the loop's clock advances by before submit.
    wait: float = 0.0
    #: Appended to the request's sample after ``(tenant, at, completion)``.
    extra: tuple = ()


class Source:
    """An arrival process; :func:`replay` says what it is asked."""

    def done(self, arrival: Arrival, clock: float, outcome) -> None:
        """``arrival`` ended at ``clock``: ``outcome`` is its served
        request, or the exception that dropped it."""

    def finish(self, report: "ReplayReport") -> None:
        """Fill the source's own report fields once the replay ends."""


class OpenLoop(Source):
    """Seeded Poisson trace: each tenant arrives at ``rate`` queries/s
    (tenant ``i`` of the sorted names draws from ``seed + i``); equal
    arrival times keep that order."""

    mode = "open"

    def __init__(self, tenant_queries: dict[str, list[Query]], rate: float, seed: int = 0):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        trace = []
        for i, (tenant, queries) in enumerate(sorted(tenant_queries.items())):
            rng = np.random.default_rng(seed + i)
            times = np.cumsum(rng.exponential(1.0 / rate, size=len(queries)))
            trace.extend(Arrival(tenant, q, float(t)) for q, t in zip(queries, times))
        self._trace = deque(sorted(trace, key=lambda a: a.at))

    def next_arrival(self) -> float:
        return self._trace[0].at if self._trace else inf

    def due(self, clock: float) -> list[Arrival]:
        out = []
        while self._trace and self._trace[0].at <= clock:
            out.append(self._trace.popleft())
        return out


class ClosedLoop(Source):
    """One outstanding request per tenant.

    Each tenant submits query ``k+1`` exactly ``think_time`` simulated
    seconds after query ``k`` completes or is dropped; every tenant's
    first query arrives at time zero, and tenants due together submit
    in sorted order.  A quota drop ends the tenant's stream.
    """

    mode = "closed"

    def __init__(self, tenant_queries: dict[str, list[Query]], think_time: float = 0.0):
        self.think_time = think_time
        self._streams = {t: deque(qs) for t, qs in sorted(tenant_queries.items()) if qs}
        #: When each tenant's next query arrives; ``None`` while one is
        #: outstanding or the stream is over.  Keys never move.
        self._next_at: dict[str, float | None] = dict.fromkeys(self._streams, 0.0)

    def next_arrival(self) -> float:
        return min((t for t in self._next_at.values() if t is not None), default=inf)

    def due(self, clock: float) -> list[Arrival]:
        out = []
        for k, (tenant, at) in enumerate(self._next_at.items()):
            if at is not None and at <= clock:
                self._next_at[tenant] = None
                out.append(Arrival(tenant, self._streams[tenant].popleft(), at, k))
        return out

    def done(self, arrival: Arrival, clock: float, outcome) -> None:
        queries = self._streams[arrival.tenant]
        if isinstance(outcome, QuotaExceededError):
            queries.clear()  # the budget never recovers
        if queries:
            self._next_at[arrival.tenant] = clock + self.think_time


@dataclass
class ReplayReport:
    """Outcome of one replay: per-request samples plus broker totals;
    an ingest replay also fills the fields after ``broker``."""

    mode: str
    #: ``(tenant, arrival, completion) + extra`` per served request; an
    #: ingest replay's extra is ``(generation, timestep, stall_seconds)``.
    samples: list = field(default_factory=list)
    #: Admission rejections that were retried.
    rejected: int = 0
    #: Requests dropped permanently (quota, unadmittable, or — in an
    #: ingest replay — a timestep the schedule never produces).
    dropped: int = 0
    #: Simulated makespan.
    clock: float = 0.0
    #: ``BrokerCore.stats()`` snapshot at the end of the replay.
    broker: dict = field(default_factory=dict)
    #: The served :class:`QueryResult` per sample, kept only when an
    #: ingest replay ran with ``keep_results=True`` (bit-identity checks).
    results: list = field(default_factory=list)
    first_queryable_seconds: float = 0.0
    appends: list = field(default_factory=list)
    ingest_throughput: float = 0.0
    #: Re-pins to a newer sealed generation (the first pin excluded).
    snapshot_refreshes: int = 0
    #: Simulated seconds queries waited for a timestep still in flight.
    ingest_stall_seconds: float = 0.0

    def latencies(self) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.samples])

    def percentile(self, p: float) -> float:
        lat = self.latencies()
        return float(np.percentile(lat, p)) if lat.size else 0.0

    def as_dict(self) -> dict:
        lat = self.latencies()
        totals = self.broker.get("totals", {})
        row = {
            "mode": self.mode,
            "n_requests": len(self.samples),
            "rejected_retries": self.rejected,
            "dropped": self.dropped,
            "makespan_s": self.clock,
            "latency_p50_s": self.percentile(50.0),
            "latency_p99_s": self.percentile(99.0),
            "latency_mean_s": float(lat.mean()) if lat.size else 0.0,
            "dedup_rate": self.broker.get("dedup_rate", 0.0),
            "dedup_blocks": totals.get("dedup_blocks", 0),
            "blocks_decoded": totals.get("blocks_decoded", 0),
            "cache_hits": totals.get("cache_hits", 0),
            "bytes_read": totals.get("bytes_read", 0),
            "rounds": self.broker.get("rounds", 0),
        }
        if self.mode != "ingest":
            return row
        row.update(
            first_queryable_s=self.first_queryable_seconds,
            stalled_requests=sum(1 for s in self.samples if s[5] > 0),
            n_appends=len(self.appends),
            ingest_throughput_bps=self.ingest_throughput,
            ingest_stall_seconds=self.ingest_stall_seconds,
            generations_seen=self.snapshot_refreshes + 1,
            snapshot_refreshes=self.snapshot_refreshes,
        )
        return {k: row[k] for k in _INGEST_COLUMNS}


def replay(core: BrokerCore, source: Source) -> ReplayReport:
    """Replay ``source``'s arrivals through ``core`` on the simulated
    clock; a request that failed aborts the replay with its error.

    The loop asks ``source`` for ``next_arrival()`` (the earliest not
    yet handed over; ``inf``: none until a request ends) and
    ``due(clock)`` (every arrival by ``clock``), tells it ``done(arrival,
    clock, outcome)`` when a request is served or dropped and
    ``finish(report)`` at the end.  When idle the clock jumps to the
    earliest of the next arrival and any pending retry.
    """
    report = ReplayReport(mode=source.mode)
    retries: list[tuple[float, Arrival]] = []  # (eligible time, arrival)
    waiting: dict[int, Arrival] = {}
    clock = 0.0
    while True:
        if not core.pending():
            upcoming = min([source.next_arrival(), *(t for t, _ in retries)])
            if upcoming == inf:
                break
            clock = max(clock, upcoming)
        due = [a for t, a in retries if t <= clock] + source.due(clock)
        retries = [r for r in retries if r[0] > clock]
        for arrival in sorted(due, key=lambda a: a.order):
            clock += arrival.wait
            try:
                req = core.submit(arrival.tenant, arrival.query, store=arrival.store)
            except BrokerRejected as exc:
                # A quota never recovers; a full backlog may, once a request ends.
                quota = isinstance(exc, QuotaExceededError)
                report.rejected += not quota
                if quota or not core.pending():
                    report.dropped += 1
                    source.done(arrival, clock, exc)
                else:
                    retries.append((clock + RETRY_S, arrival._replace(wait=0.0)))
            else:
                waiting[req.ticket] = arrival
        for req in core.run_round() if core.pending() else ():
            if req.error is not None:
                raise req.error
            if req.status == "done":
                clock += req.result.times.total
                arrival = waiting.pop(req.ticket)
                report.samples.append((arrival.tenant, arrival.at, clock) + arrival.extra)
                source.done(arrival, clock, req)
    report.clock = clock
    report.broker = core.stats()
    source.finish(report)
    return report
