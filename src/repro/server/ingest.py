"""Ingest-aware serving: queries overlapping in-situ appends.

ROADMAP scenario 4(b): a simulation emits timesteps continuously and
analysts start exploring before the run finishes.  This module wires
the manifest append protocol (``repro.core.manifest``) into the
serving layer on the simulated clock:

``IngestSession``
    The staging node: a deterministic schedule of timestep arrivals,
    each sealed through :meth:`~repro.core.dataset.MLOCDataset.append`
    (the ordinary three-stage writer, per-member ``hbi``/``peb`` at
    seal time).  One append occupies the staging node for the modeled
    drain time of the member's *stored* bytes, so seal times — and
    therefore which generation is visible at any simulated instant —
    are a pure function of the schedule.
``replay_ingest``
    The sim-clock driver joining both timelines.  A dataset is served
    by the one :class:`~repro.server.broker.BrokerCore` (admission,
    DRR, quotas, shared fetch-merge — all dataset-wide) whose requests
    name a member handle of a pinned
    :class:`~repro.core.dataset.DatasetSnapshot`,
    ``snapshot.store(variable, timestep)``: queries are served against
    the newest generation *sealed by their arrival time*, the driver
    re-pinning when it moves; a query for a timestep still being
    appended stalls until its seal.  Appends never wait for queries
    and queries never wait for appends of members they don't ask for —
    the whole point of per-member sealing.  Because sealed members are
    immutable no open handle, planning table, or cached block is ever
    invalidated by an append or a re-pin.

The replay counts its own re-pins (``snapshot_refreshes``) and stalls
(``ingest_stall_seconds``) on its :class:`IngestReplayReport`; the
broker's totals carry the per-query and per-tenant counters only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import MLOCDataset
from repro.core.manifest import load_manifest_at, member_key
from repro.core.query import Query
from repro.server.broker import BrokerConfig, BrokerCore, TenantQuota
from repro.server.replay import ReplayReport, serve_round

__all__ = [
    "AppendRecord",
    "IngestQueryEvent",
    "IngestReplayReport",
    "IngestSession",
    "TimestepArrival",
    "replay_ingest",
]


@dataclass(frozen=True)
class TimestepArrival:
    """One simulation output event: ``data`` is ready at ``time``."""

    time: float
    variable: str
    timestep: int
    data: np.ndarray


@dataclass(frozen=True)
class AppendRecord:
    """One completed append on the ingest timeline."""

    key: str
    variable: str
    timestep: int
    #: Manifest generation whose commit sealed this member.
    generation: int
    #: Simulation clock at which the data arrived at the stager.
    arrival: float
    #: When the staging node started draining it (>= arrival).
    started: float
    #: When the member (and its manifest bump) became durable —
    #: the first instant a reader can pin a generation containing it.
    sealed_at: float
    raw_bytes: int
    stored_bytes: int


class IngestSession:
    """Deterministic append timeline over one dataset.

    Arrivals are processed in time order by a single staging node:
    an append starts at ``max(arrival, previous seal)`` and occupies
    the node for the member's stored-byte drain time under the PFS
    cost model (the in-situ bargain: the *compressed, organized*
    member drains, not the raw array).  The on-disk manifest is bumped
    eagerly when :meth:`advance_to` (or :meth:`seal`) runs an append;
    *visibility* on the simulated clock is governed by ``sealed_at``
    via :meth:`generation_at` — which is what lets a replay driver
    append ahead of the query clock and still serve each query the
    generation it would really have seen.
    """

    def __init__(
        self, dataset: MLOCDataset, arrivals: list[TimestepArrival]
    ) -> None:
        self.dataset = dataset
        self._pending = sorted(arrivals, key=lambda a: (a.time, a.variable))
        self.base_generation = dataset.generation
        #: Members sealed before this session began: queryable at any
        #: simulated time, with no ingest stall.
        self.base_manifest = load_manifest_at(
            dataset.fs, dataset.root, self.base_generation
        )
        self.appended: list[AppendRecord] = []
        self.busy_until = 0.0
        self.raw_bytes = 0
        self.stored_bytes = 0

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return not self._pending

    @property
    def first_queryable_seconds(self) -> float | None:
        """Seal time of the first member — time-to-first-queryable."""
        return self.appended[0].sealed_at if self.appended else None

    def ingest_throughput(self) -> float:
        """Raw bytes absorbed per simulated second of staging time."""
        busy = sum(r.sealed_at - r.started for r in self.appended)
        return self.raw_bytes / busy if busy else 0.0

    # ------------------------------------------------------------------
    def _append_one(self, arrival: TimestepArrival) -> AppendRecord:
        report = self.dataset.append(
            arrival.data, arrival.variable, arrival.timestep
        )
        model = self.dataset.fs.cost_model
        drain = model.scaled_bytes(report.total_bytes) / model.client_bandwidth
        started = max(arrival.time, self.busy_until)
        self.busy_until = started + drain
        record = AppendRecord(
            key=member_key(arrival.variable, arrival.timestep),
            variable=arrival.variable,
            timestep=arrival.timestep,
            generation=self.dataset.generation,
            arrival=arrival.time,
            started=started,
            sealed_at=self.busy_until,
            raw_bytes=arrival.data.nbytes,
            stored_bytes=report.total_bytes,
        )
        self.appended.append(record)
        self.raw_bytes += record.raw_bytes
        self.stored_bytes += record.stored_bytes
        return record

    def advance_to(self, now: float) -> list[AppendRecord]:
        """Append every arrival with ``time <= now``; returns them."""
        done = []
        while self._pending and self._pending[0].time <= now:
            done.append(self._append_one(self._pending.pop(0)))
        return done

    def seal(self, variable: str, timestep: int | None = None) -> AppendRecord | None:
        """Run ingest until (variable, timestep) is sealed.

        ``timestep=None`` asks for the first member of ``variable``.
        Returns its record, or ``None`` when the schedule never
        produces that member.  Already-appended members return their
        existing record without touching the timeline.
        """
        def wanted(record: AppendRecord) -> bool:
            return record.variable == variable and timestep in (None, record.timestep)

        for record in self.appended:
            if wanted(record):
                return record
        while self._pending:
            record = self._append_one(self._pending.pop(0))
            if wanted(record):
                return record
        return None

    def run_to_completion(self) -> list[AppendRecord]:
        """Append everything remaining; returns the full timeline."""
        while self._pending:
            self._append_one(self._pending.pop(0))
        return self.appended

    # ------------------------------------------------------------------
    def generation_at(self, now: float) -> int:
        """The newest generation sealed by simulated time ``now``."""
        generation = self.base_generation
        for record in self.appended:
            if record.sealed_at <= now:
                generation = max(generation, record.generation)
        return generation

    def sealed_members_at(self, now: float) -> list[AppendRecord]:
        return [r for r in self.appended if r.sealed_at <= now]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestQueryEvent:
    """One analyst query arriving mid-run.

    ``timestep=None`` targets the newest timestep of ``variable``
    sealed at the query's (possibly stalled) service time.
    """

    arrival: float
    tenant: str
    variable: str
    query: Query
    timestep: int | None = None


#: ``IngestReplayReport.as_dict`` columns, in recorded order.
_INGEST_COLUMNS = (
    "n_requests",
    "dropped",
    "makespan_s",
    "first_queryable_s",
    "latency_p50_s",
    "latency_p99_s",
    "latency_mean_s",
    "stalled_requests",
    "ingest_stall_seconds",
    "generations_seen",
    "snapshot_refreshes",
    "n_appends",
    "ingest_throughput_bps",
    "bytes_read",
    "blocks_decoded",
    "cache_hits",
)


@dataclass
class IngestReplayReport(ReplayReport):
    """Outcome of one overlapped ingest/query replay.

    Each sample extends the base triple to ``(tenant, arrival,
    completion, generation, timestep, stall_seconds)``.
    """

    #: The served :class:`QueryResult` per sample, kept only when the
    #: replay ran with ``keep_results=True`` (bit-identity checks).
    results: list = field(default_factory=list)
    first_queryable_seconds: float = 0.0
    appends: list = field(default_factory=list)
    ingest_throughput: float = 0.0
    #: Re-pins to a newer sealed generation (the first pin excluded).
    snapshot_refreshes: int = 0
    #: Simulated seconds queries waited for a timestep still in flight.
    ingest_stall_seconds: float = 0.0

    def as_dict(self) -> dict:
        row = super().as_dict()
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


def replay_ingest(
    session: IngestSession,
    events: list[IngestQueryEvent],
    *,
    config: BrokerConfig | None = None,
    tenants: dict[str, TenantQuota] | None = None,
    keep_results: bool = False,
) -> IngestReplayReport:
    """Serve a query trace while ``session`` appends, on the sim clock.

    Queries are served in arrival order by one analysis front-end, one
    request in service at a time (through the same round loop as the
    open- and closed-loop replays, for as many rounds as the request's
    cost takes to schedule).  At each query's service time the replay
    re-pins to the newest generation *sealed by then* — never a newer
    one, so each result is exactly what a fresh open pinned at that
    generation returns.  A query for a timestep whose append is still
    in flight stalls until its seal; the stall is charged to
    ``ingest_stall_seconds`` and to the query's latency.  Queries for
    timesteps the schedule never produces are dropped (counted, not
    served).
    """
    core = BrokerCore(config=config, tenants=tenants)
    snapshot = session.dataset.snapshot()
    report = IngestReplayReport(mode="ingest")
    arrivals: dict[int, float] = {}
    clock = 0.0
    for event in sorted(events, key=lambda e: e.arrival):
        clock = max(clock, event.arrival)
        session.advance_to(clock)
        stall = 0.0
        timestep = event.timestep
        if timestep is None:
            timestep = max(
                [
                    m.timestep
                    for m in session.base_manifest.members
                    if m.variable == event.variable and m.timestep is not None
                ]
                + [
                    r.timestep
                    for r in session.sealed_members_at(clock)
                    if r.variable == event.variable
                ],
                default=None,
            )
        if timestep is None or session.base_manifest.member(
            member_key(event.variable, timestep)
        ) is None:
            # Not in the base: its seal is on the session's timeline
            # (nothing sealed yet of the variable: wait for the first).
            record = session.seal(event.variable, timestep)
            if record is None:
                report.dropped += 1
                continue
            stall = max(0.0, record.sealed_at - clock)
            timestep = record.timestep
        if stall:
            report.ingest_stall_seconds += stall
            clock += stall
            session.advance_to(clock)
        generation = session.generation_at(clock)
        if generation != snapshot.generation:
            snapshot = session.dataset.snapshot(generation)
            report.snapshot_refreshes += 1
        req = core.submit(
            event.tenant, event.query, store=snapshot.store(event.variable, timestep)
        )
        arrivals[req.ticket] = event.arrival
        while req.status == "queued":
            clock = serve_round(core, clock, report, arrivals)
        report.samples[-1] += (generation, timestep, stall)
        if keep_results:
            report.results.append(req.result)
    report.clock = clock
    report.first_queryable_seconds = session.first_queryable_seconds or 0.0
    report.appends = list(session.appended)
    report.ingest_throughput = session.ingest_throughput()
    report.broker = core.stats()
    return report
