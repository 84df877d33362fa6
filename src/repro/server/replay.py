"""Traffic replay for the broker on the simulated clock.

The store's component times are modeled/simulated seconds (DESIGN.md
§5), so serving latency can be replayed deterministically without
wall-clock sleeps: the driver keeps a simulated clock, admits events
whose arrival time has passed, lets the :class:`~.broker.BrokerCore`
run a round, and advances the clock by each served query's component
total, in service order (on the simulated clock a round's queries are
serviced back to back: what each is charged is fixed when it is
staged, and the shared assemble is not on that clock).  A request's
**latency** is its completion time minus its *original* arrival time —
queueing delay, admission retries, and service all included.

Two arrival models, matching the usual load-testing split:

* **open loop** (:func:`replay_open_loop`) — arrivals are fixed in
  advance (seeded Poisson via :func:`poisson_arrivals`); load does
  not slow down when the broker does, so queueing delay shows up in
  the tail percentiles.
* **closed loop** (:func:`replay_closed_loop`) — each tenant keeps
  one request outstanding and submits its next query ``think_time``
  after the previous completion, so throughput adapts to service
  capacity.

Admission rejections are retried after ``retry_backoff`` simulated
seconds (counted in the report); quota rejections are permanent by
construction (the budget never recovers) and drop the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import Query
from repro.server.broker import BrokerCore, BrokerRejected, QuotaExceededError

__all__ = [
    "ReplayEvent",
    "ReplayReport",
    "poisson_arrivals",
    "open_loop_events",
    "replay_open_loop",
    "replay_closed_loop",
]


@dataclass(frozen=True)
class ReplayEvent:
    """One trace entry: ``tenant`` submits ``query`` at ``arrival``."""

    tenant: str
    query: Query
    arrival: float


@dataclass
class ReplayReport:
    """Outcome of one replay: per-request samples plus broker totals."""

    mode: str
    #: ``(tenant, arrival, completion, ...)`` per served request.
    samples: list = field(default_factory=list)
    #: Admission rejections that were retried.
    rejected: int = 0
    #: Events dropped permanently (quota, or unadmittable).
    dropped: int = 0
    #: Simulated makespan.
    clock: float = 0.0
    #: ``BrokerCore.stats()`` snapshot at the end of the replay.
    broker: dict = field(default_factory=dict)

    def latencies(self) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.samples])

    def percentile(self, p: float) -> float:
        lat = self.latencies()
        return float(np.percentile(lat, p)) if lat.size else 0.0

    def as_dict(self) -> dict:
        lat = self.latencies()
        totals = self.broker.get("totals", {})
        return {
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


# ----------------------------------------------------------------------
def poisson_arrivals(n: int, rate: float, seed: int = 0) -> np.ndarray:
    """``n`` arrival times of a Poisson process with ``rate`` events/s."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def open_loop_events(
    tenant_queries: dict[str, list[Query]],
    rate: float,
    seed: int = 0,
) -> list[ReplayEvent]:
    """Seeded Poisson trace: each tenant arrives at ``rate`` queries/s."""
    events: list[ReplayEvent] = []
    for i, (tenant, queries) in enumerate(sorted(tenant_queries.items())):
        arrivals = poisson_arrivals(len(queries), rate, seed=seed + i)
        events.extend(
            ReplayEvent(tenant, q, float(t)) for q, t in zip(queries, arrivals)
        )
    events.sort(key=lambda e: e.arrival)
    return events


# ----------------------------------------------------------------------
def serve_round(core: BrokerCore, clock: float, report: ReplayReport, arrivals) -> float:
    """Run one scheduling round, advancing the simulated clock by each
    served request's component total, in service order; a request that
    failed aborts the replay with its error."""
    for req in core.run_round():
        if req.error is not None:
            raise req.error
        if req.status != "done":
            continue
        clock += req.result.times.total
        report.samples.append((req.tenant, arrivals[req.ticket], clock))
    return clock


def replay_open_loop(
    core: BrokerCore,
    events: list[ReplayEvent],
    *,
    retry_backoff: float = 0.001,
) -> ReplayReport:
    """Replay a fixed arrival trace through the broker."""
    report = ReplayReport(mode="open")
    trace = sorted(events, key=lambda e: e.arrival)
    #: (eligible_time, original_arrival, event) for admission retries.
    retries: list[tuple[float, float, ReplayEvent]] = []
    arrivals: dict[int, float] = {}
    clock = 0.0
    i = 0
    while i < len(trace) or retries or core.pending():
        if not core.pending():
            # Idle: jump the clock to the next thing that can happen.
            upcoming = [e[0] for e in retries]
            if i < len(trace):
                upcoming.append(trace[i].arrival)
            if upcoming:
                clock = max(clock, min(upcoming))
        due: list[tuple[float, ReplayEvent]] = [
            (orig, e) for (elig, orig, e) in retries if elig <= clock
        ]
        retries = [r for r in retries if r[0] > clock]
        while i < len(trace) and trace[i].arrival <= clock:
            due.append((trace[i].arrival, trace[i]))
            i += 1
        for orig, event in due:
            try:
                req = core.submit(event.tenant, event.query)
            except QuotaExceededError:
                report.dropped += 1
            except BrokerRejected:
                report.rejected += 1
                if core.pending():
                    retries.append((clock + retry_backoff, orig, event))
                else:
                    # Nothing in flight can free capacity: unadmittable.
                    report.dropped += 1
            else:
                arrivals[req.ticket] = orig
        if core.pending():
            clock = serve_round(core, clock, report, arrivals)
    report.clock = clock
    report.broker = core.stats()
    return report


def replay_closed_loop(
    core: BrokerCore,
    tenant_queries: dict[str, list[Query]],
    *,
    think_time: float = 0.0,
) -> ReplayReport:
    """Closed-loop replay: one outstanding request per tenant.

    Each tenant submits query ``k+1`` exactly ``think_time`` simulated
    seconds after query ``k`` completes; the first query of every
    tenant arrives at time zero.  Throughput self-regulates, so this
    mode measures service latency under sustainable load.
    """
    report = ReplayReport(mode="closed")
    streams = {t: list(qs) for t, qs in sorted(tenant_queries.items()) if qs}
    next_at = {t: 0.0 for t in streams}
    next_idx = {t: 0 for t in streams}
    outstanding: set[str] = set()
    arrivals: dict[int, float] = {}
    clock = 0.0
    while streams or outstanding:
        for tenant in [
            t for t in streams if t not in outstanding and next_at[t] <= clock
        ]:
            query = streams[tenant][next_idx[tenant]]
            try:
                req = core.submit(tenant, query)
            except QuotaExceededError:
                report.dropped += 1
                del streams[tenant]  # the budget never recovers
            except BrokerRejected:
                report.rejected += 1
                next_at[tenant] = clock + 0.001
            else:
                arrivals[req.ticket] = next_at[tenant]
                outstanding.add(tenant)
        if core.pending():
            served_before = len(report.samples)
            clock = serve_round(core, clock, report, arrivals)
            for tenant, _, completion in report.samples[served_before:]:
                outstanding.discard(tenant)
                next_at[tenant] = completion + think_time
                next_idx[tenant] += 1
                if next_idx[tenant] >= len(streams[tenant]):
                    del streams[tenant]
        elif streams:
            waiting = min(next_at[t] for t in streams if t not in outstanding)
            clock = max(clock, waiting)
        else:
            break
    report.clock = clock
    report.broker = core.stats()
    return report
