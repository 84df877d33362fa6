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
``IngestBroker``
    A snapshot-pinned front-end: per-member
    :class:`~repro.server.broker.BrokerCore` instances (admission,
    DRR, shared fetch-merge) that only ever admit queries against the
    broker's *pinned* generation.  ``refresh()`` re-pins; a member
    sealed by a later generation does not exist until then
    (:class:`NotYetSealed`).  Because sealed members are immutable the
    per-member cores survive refreshes untouched — no open handle,
    planning table, or cached block is ever invalidated by an append.
``replay_ingest``
    The sim-clock driver joining both timelines: queries are served
    against the newest generation *sealed by their arrival time*; a
    query for a timestep still being appended stalls until its seal
    (``ingest_stall_seconds``).  Appends never wait for queries and
    queries never wait for appends of members they don't ask for —
    the whole point of per-member sealing.

Lifecycle counters (``generations_seen``, ``snapshot_refreshes``,
``ingest_stall_seconds``) live in the canonical stats registry
(:mod:`repro.core.result`), so they fold through
:func:`~repro.core.result.aggregate_stats` like every other counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.dataset import DatasetSnapshot, MLOCDataset
from repro.core.manifest import load_manifest_at
from repro.core.query import Query
from repro.core.result import QueryResult, aggregate_stats
from repro.server.broker import BrokerConfig, BrokerCore, BrokerRejected, TenantQuota

__all__ = [
    "AppendRecord",
    "IngestBroker",
    "IngestQueryEvent",
    "IngestReplayReport",
    "IngestSession",
    "NotYetSealed",
    "TimestepArrival",
    "replay_ingest",
]


class NotYetSealed(BrokerRejected):
    """The requested member is not sealed in the pinned generation."""


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
    def next_arrival(self) -> float | None:
        return self._pending[0].time if self._pending else None

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
            key=f"{arrival.variable}@{arrival.timestep:06d}",
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

    def seal(self, variable: str, timestep: int) -> AppendRecord | None:
        """Run ingest until (variable, timestep) is sealed.

        Returns its record, or ``None`` when the schedule never
        produces that member.  Already-appended members return their
        existing record without touching the timeline.
        """
        for record in self.appended:
            if record.variable == variable and record.timestep == timestep:
                return record
        while self._pending:
            record = self._append_one(self._pending.pop(0))
            if record.variable == variable and record.timestep == timestep:
                return record
        return None

    def seal_first(self, variable: str) -> AppendRecord | None:
        """Run ingest until the first member of ``variable`` seals."""
        for record in self.appended:
            if record.variable == variable:
                return record
        while self._pending:
            record = self._append_one(self._pending.pop(0))
            if record.variable == variable:
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


class IngestBroker:
    """Snapshot-pinned multi-tenant serving during ingest.

    One :class:`~repro.server.broker.BrokerCore` per sealed member,
    created lazily from the pinned :class:`DatasetSnapshot` and kept
    across refreshes (sealed members are immutable, so a core — its
    admission state, fetch-merge loop, and cache attributions — stays
    valid for the handle's lifetime).  Admission consults only the
    pinned generation: a query for a member the snapshot does not
    contain raises :class:`NotYetSealed` even if a newer generation on
    disk already has it — refreshing is an explicit, observable event.
    """

    def __init__(
        self,
        dataset: MLOCDataset,
        *,
        config: BrokerConfig | None = None,
        tenants: dict[str, TenantQuota] | None = None,
        execution: ExecutionConfig | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or BrokerConfig()
        self._tenants = dict(tenants or {})
        #: Execution options of the member handles this broker opens;
        #: ``None`` shares the dataset's own (registry-cached) handles.
        self.execution = execution
        self._cores: dict[str, BrokerCore] = {}
        self._snapshot = dataset.snapshot()
        self.lifecycle: dict[str, float] = {
            "generations_seen": 1,
            "snapshot_refreshes": 0,
            "ingest_stall_seconds": 0.0,
            "not_yet_sealed": 0,
        }

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> DatasetSnapshot:
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def refresh(self, generation: int | None = None) -> DatasetSnapshot:
        """Re-pin to ``generation`` (default: newest committed)."""
        snap = self.dataset.snapshot(generation)
        self.dataset.snapshot_refreshes += 1
        self.lifecycle["snapshot_refreshes"] += 1
        if snap.generation != self._snapshot.generation:
            self.lifecycle["generations_seen"] += 1
        self._snapshot = snap
        return snap

    # ------------------------------------------------------------------
    def _core(self, key: str) -> BrokerCore:
        core = self._cores.get(key)
        if core is None:
            member = self._snapshot.manifest.member(key)
            options = {} if self.execution is None else {"execution": self.execution}
            store = self.dataset._open_member(
                key, expect_crc=member.meta_crc, **options
            )
            core = BrokerCore(store, self.config, tenants=self._tenants)
            self._cores[key] = core
        return core

    def submit(
        self,
        tenant: str,
        query: Query,
        *,
        variable: str,
        timestep: int | None = None,
    ):
        """Admit one query against the pinned snapshot (or raise)."""
        key = MLOCDataset._key(variable, timestep)
        if self._snapshot.manifest.member(key) is None:
            self.lifecycle["not_yet_sealed"] += 1
            raise NotYetSealed(
                f"member {key!r} is not sealed in pinned generation "
                f"{self.generation}"
            )
        return self._core(key).submit(tenant, query)

    def run_round(self) -> int:
        """One scheduling round across every member core with backlog."""
        served = 0
        for core in self._cores.values():
            if core.pending():
                served += len(core.run_round())
        return served

    def drain(self) -> int:
        rounds = 0
        while any(core.pending() for core in self._cores.values()):
            self.run_round()
            rounds += 1
        return rounds

    def pending(self) -> int:
        return sum(core.pending() for core in self._cores.values())

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Registry totals folded across member cores + lifecycle."""
        totals = aggregate_stats(
            [core.stats()["totals"] for core in self._cores.values()]
        )
        totals["generations_seen"] = int(self.lifecycle["generations_seen"])
        totals["snapshot_refreshes"] = int(self.lifecycle["snapshot_refreshes"])
        totals["ingest_stall_seconds"] = float(
            self.lifecycle["ingest_stall_seconds"]
        )
        return {
            "totals": totals,
            "generation": self.generation,
            "member_cores": len(self._cores),
            "not_yet_sealed": int(self.lifecycle["not_yet_sealed"]),
            "rounds": sum(core.loop.rounds for core in self._cores.values()),
        }


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


@dataclass
class IngestReplayReport:
    """Outcome of one overlapped ingest/query replay."""

    #: Per served query: (tenant, arrival, completion, generation,
    #: timestep, stall_seconds).
    samples: list = field(default_factory=list)
    #: The served :class:`QueryResult` per sample, kept only when the
    #: replay ran with ``keep_results=True`` (bit-identity checks).
    results: list = field(default_factory=list)
    #: Queries whose timestep the schedule never seals.
    dropped: int = 0
    clock: float = 0.0
    first_queryable_seconds: float = 0.0
    appends: list = field(default_factory=list)
    broker: dict = field(default_factory=dict)
    ingest_throughput: float = 0.0

    def latencies(self) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.samples])

    def percentile(self, p: float) -> float:
        lat = self.latencies()
        return float(np.percentile(lat, p)) if lat.size else 0.0

    def as_dict(self) -> dict:
        lat = self.latencies()
        totals = self.broker.get("totals", {})
        stalled = [s for s in self.samples if s[5] > 0]
        return {
            "n_requests": len(self.samples),
            "dropped": self.dropped,
            "makespan_s": self.clock,
            "first_queryable_s": self.first_queryable_seconds,
            "latency_p50_s": self.percentile(50.0),
            "latency_p99_s": self.percentile(99.0),
            "latency_mean_s": float(lat.mean()) if lat.size else 0.0,
            "stalled_requests": len(stalled),
            "ingest_stall_seconds": totals.get("ingest_stall_seconds", 0.0),
            "generations_seen": totals.get("generations_seen", 0),
            "snapshot_refreshes": totals.get("snapshot_refreshes", 0),
            "n_appends": len(self.appends),
            "ingest_throughput_bps": self.ingest_throughput,
            "bytes_read": totals.get("bytes_read", 0),
            "blocks_decoded": totals.get("blocks_decoded", 0),
            "cache_hits": totals.get("cache_hits", 0),
        }


def replay_ingest(
    session: IngestSession,
    events: list[IngestQueryEvent],
    *,
    config: BrokerConfig | None = None,
    tenants: dict[str, TenantQuota] | None = None,
    execution: ExecutionConfig | None = None,
    keep_results: bool = False,
) -> IngestReplayReport:
    """Serve a query trace while ``session`` appends, on the sim clock.

    Queries are served in arrival order by one analysis front-end.
    At each query's service time the broker re-pins to the newest
    generation *sealed by then* — never a newer one, so each result is
    exactly what a fresh open pinned at that generation returns.  A
    query for a timestep whose append is still in flight stalls until
    its seal; the stall is charged to ``ingest_stall_seconds`` and to
    the query's latency.  Queries for timesteps the schedule never
    produces are dropped (counted, not served).
    """
    broker = IngestBroker(
        session.dataset,
        config=config,
        tenants=tenants,
        execution=execution,
    )
    report = IngestReplayReport()
    clock = 0.0
    for event in sorted(events, key=lambda e: e.arrival):
        clock = max(clock, event.arrival)
        session.advance_to(clock)
        stall = 0.0
        timestep = event.timestep
        if timestep is None:
            candidates = [
                m.timestep
                for m in session.base_manifest.members
                if m.variable == event.variable and m.timestep is not None
            ] + [
                r.timestep
                for r in session.sealed_members_at(clock)
                if r.variable == event.variable
            ]
            if candidates:
                timestep = max(candidates)
            else:
                first = session.seal_first(event.variable)
                if first is None:
                    report.dropped += 1
                    continue
                stall = max(0.0, first.sealed_at - clock)
                timestep = first.timestep
        elif (
            session.base_manifest.member(
                MLOCDataset._key(event.variable, timestep)
            )
            is None
        ):
            record = session.seal(event.variable, timestep)
            if record is None:
                report.dropped += 1
                continue
            stall = max(0.0, record.sealed_at - clock)
        if stall:
            broker.lifecycle["ingest_stall_seconds"] += stall
            clock += stall
            session.advance_to(clock)
        generation = session.generation_at(clock)
        if generation != broker.generation:
            broker.refresh(generation)
        req = broker.submit(
            event.tenant, event.query,
            variable=event.variable, timestep=timestep,
        )
        broker.run_round()
        result: QueryResult = req.result
        clock += result.times.total
        report.samples.append(
            (event.tenant, event.arrival, clock, generation, timestep, stall)
        )
        if keep_results:
            report.results.append(result)
    report.clock = clock
    report.first_queryable_seconds = session.first_queryable_seconds or 0.0
    report.appends = list(session.appended)
    report.ingest_throughput = session.ingest_throughput()
    report.broker = broker.stats()
    return report
