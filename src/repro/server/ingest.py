"""Ingest-aware serving: queries overlapping in-situ appends.

ROADMAP scenario 4(b): a simulation emits timesteps continuously and
analysts start exploring before the run finishes.  This module wires
the manifest append protocol (``repro.core.manifest``) into the
serving layer on the simulated clock:

``IngestSession``
    The staging node: a deterministic schedule of timestep arrivals,
    each sealed through :meth:`~repro.core.dataset.MLOCDataset.append`
    (the ordinary one-pass writer, per-member ``hbi``/``peb`` at
    seal time).  One append occupies the staging node for the modeled
    drain time of the member's *stored* bytes, so seal times — and
    therefore which generation is visible at any simulated instant —
    are a pure function of the schedule.
``IngestReplay``
    The :func:`~repro.server.replay.replay` source joining both
    timelines.  A dataset is served by the one
    :class:`~repro.server.broker.BrokerCore` (admission, DRR, quotas,
    shared fetch-merge — all dataset-wide) whose requests name a member
    handle of a pinned :class:`~repro.core.dataset.DatasetSnapshot`,
    ``snapshot.store(variable, timestep)``: queries are served against
    the newest generation *sealed by their service time*, the source
    re-pinning when it moves; a query for a timestep still being
    appended stalls until its seal.  Appends never wait for queries
    and queries never wait for appends of members they don't ask for —
    the whole point of per-member sealing.  Because sealed members are
    immutable no open handle, planning table, or cached block is ever
    invalidated by an append or a re-pin.

The source counts its own re-pins (``snapshot_refreshes``) and stalls
(``ingest_stall_seconds``) on the :class:`~repro.server.replay.ReplayReport`;
the broker's totals carry the per-query and per-tenant counters only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf

import numpy as np

from repro.core.dataset import MLOCDataset
from repro.core.manifest import load_manifest_at, member_key
from repro.core.query import Query
from repro.server.replay import Arrival, ReplayReport, Source

__all__ = [
    "AppendRecord",
    "IngestQueryEvent",
    "IngestReplay",
    "IngestSession",
    "TimestepArrival",
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


class IngestReplay(Source):
    """Serve a query trace while ``session`` appends, on the sim clock.

    Queries are served in arrival order by one analysis front-end, one
    request in service at a time (for as many rounds as the request's
    cost takes to schedule).  At each query's service time the source
    re-pins to the newest generation *sealed by then* — never a newer
    one, so each result is exactly what a fresh open pinned at that
    generation returns.  A query for a timestep whose append is still
    in flight stalls until its seal; the stall is charged to
    ``ingest_stall_seconds`` and to the query's latency.  Queries for
    timesteps the schedule never produces are dropped (counted, not
    served).
    """

    mode = "ingest"

    def __init__(
        self, session: IngestSession, events: list[IngestQueryEvent], *, keep_results=False
    ) -> None:
        self.session = session
        self.keep_results = keep_results
        self._events = deque(sorted(events, key=lambda e: e.arrival))
        self._snapshot = session.dataset.snapshot()
        self._busy = False
        #: This source's report fields, copied onto the report by finish.
        self._own = ReplayReport(self.mode)

    def next_arrival(self) -> float:
        return inf if self._busy or not self._events else self._events[0].arrival

    def due(self, clock: float) -> list[Arrival]:
        session, own = self.session, self._own
        while not self._busy and self._events and self._events[0].arrival <= clock:
            event = self._events.popleft()
            session.advance_to(clock)
            var, timestep, stall = event.variable, event.timestep, 0.0
            if timestep is None:
                base = session.base_manifest.members
                timestep = max(
                    [m.timestep for m in base if m.variable == var and m.timestep is not None]
                    + [r.timestep for r in session.sealed_members_at(clock) if r.variable == var],
                    default=None,
                )
            if timestep is None or session.base_manifest.member(member_key(var, timestep)) is None:
                # Not in the base: its seal is on the session's timeline
                # (nothing sealed yet of the variable: wait for the first).
                record = session.seal(var, timestep)
                if record is None:
                    own.dropped += 1
                    continue
                stall = max(0.0, record.sealed_at - clock)
                timestep = record.timestep
            # The service instant, computed as the loop's clock advances.
            now = clock + stall
            session.advance_to(now)
            own.ingest_stall_seconds += stall
            generation = session.generation_at(now)
            if generation != self._snapshot.generation:
                self._snapshot = session.dataset.snapshot(generation)
                own.snapshot_refreshes += 1
            self._busy = True
            store = self._snapshot.store(var, timestep)
            extra = (generation, timestep, stall)
            return [Arrival(event.tenant, event.query, event.arrival, 0, store, stall, extra)]
        return []

    def done(self, arrival: Arrival, clock: float, outcome) -> None:
        self._busy = False
        if self.keep_results and not isinstance(outcome, Exception):
            self._own.results.append(outcome.result)

    def finish(self, report: ReplayReport) -> None:
        own, session = self._own, self.session
        report.dropped += own.dropped
        report.results = own.results
        report.snapshot_refreshes = own.snapshot_refreshes
        report.ingest_stall_seconds = own.ingest_stall_seconds
        report.first_queryable_seconds = session.first_queryable_seconds or 0.0
        report.appends = list(session.appended)
        report.ingest_throughput = session.ingest_throughput()
