"""Serving a dataset: one broker core over a pinned snapshot.

A dataset is served by **one** :class:`~repro.server.BrokerCore` whose
requests name a pinned :class:`~repro.core.dataset.DatasetSnapshot`'s
member handles (``snapshot.store(variable, timestep)``), so every limit
a broker enforces — tenant byte quotas, the pending-bytes ceiling, queue
depth, the in-flight ceiling, the cache budget — holds for the dataset
as a whole, however many members the requests name.  Results stay
bit-identical to direct queries on the pinned member.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import MLOCDataset, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.server import (
    BrokerConfig,
    BrokerCore,
    BrokerRejected,
    IngestQueryEvent,
    IngestReplay,
    IngestSession,
    QuotaExceededError,
    TenantQuota,
    TimestepArrival,
    replay,
)

CONFIG = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
SHAPE = (96, 96)
N_SEALED = 3
FULL = Query(output="values")
BOX = Query(region=((8, 72), (8, 72)), output="values")
CACHE_BYTES = 64 << 10  # smaller than one member's decoded blocks


@pytest.fixture(scope="module")
def campaign_fs() -> SimulatedPFS:
    fs = SimulatedPFS()
    dataset = MLOCDataset(fs, "/ds", CONFIG, n_ranks=2)
    for t in range(N_SEALED):
        dataset.append(gts_like(SHAPE, seed=t), "temp", t)
    return fs


def _dataset(fs, **execution) -> MLOCDataset:
    return MLOCDataset(fs, "/ds", CONFIG, n_ranks=2, **execution)


def _submit(core: BrokerCore, snapshot, tenant: str, query: Query, timestep: int):
    """Admit ``query`` against member ``temp@timestep`` of ``snapshot``."""
    return core.submit(tenant, query, store=snapshot.store("temp", timestep))


@pytest.fixture(scope="module")
def full_cost(campaign_fs) -> int:
    """Admission cost of ``FULL`` on one member (all are one shape)."""
    store = _dataset(campaign_fs).snapshot().store("temp", 0)
    return store.estimated_raw_bytes(FULL, store.plan(FULL)[0])


def _assert_identical(result, expected):
    assert np.array_equal(result.positions, expected.positions)
    assert np.array_equal(result.values, expected.values)


# ----------------------------------------------------------------------
# Limits are broker-wide
# ----------------------------------------------------------------------
class TestLimitsAreBrokerWide:
    def test_byte_quota_is_charged_once_across_members(self, campaign_fs, full_cost):
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(tenants={"a": TenantQuota(max_bytes=2 * full_cost)})
        for t in range(2):
            _submit(core, snapshot, "a", FULL, t)
        core.drain()
        with pytest.raises(QuotaExceededError):
            _submit(core, snapshot, "a", FULL, 2)
        tenant = core.stats()["tenants"]["a"]
        assert tenant["charged_bytes"] == 2 * full_cost
        assert tenant["quota_rejections"] == 1
        # Another tenant still gets service on the same member.
        other = _submit(core, snapshot, "b", FULL, 2)
        core.drain()
        assert other.status == "done"

    def test_pending_bytes_ceiling(self, campaign_fs, full_cost):
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(config=BrokerConfig(max_pending_bytes=full_cost))
        _submit(core, snapshot, "a", FULL, 0)
        with pytest.raises(BrokerRejected):
            _submit(core, snapshot, "b", FULL, 1)
        core.drain()
        _submit(core, snapshot, "b", FULL, 1)  # capacity freed
        assert core.drain() == 1

    def test_queue_depth_is_per_tenant_not_per_member(self, campaign_fs):
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(config=BrokerConfig(max_queued_per_tenant=1))
        _submit(core, snapshot, "a", BOX, 0)
        with pytest.raises(BrokerRejected):
            _submit(core, snapshot, "a", BOX, 1)
        _submit(core, snapshot, "b", BOX, 1)
        assert core.pending() == 2
        core.drain()

    def test_one_round_serves_at_most_max_inflight(self, campaign_fs):
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(config=BrokerConfig(max_inflight=1))
        reqs = [_submit(core, snapshot, f"t{t}", BOX, t) for t in range(N_SEALED)]
        assert len(core.run_round()) == 1
        assert [r.status for r in reqs].count("done") == 1
        assert core.pending() == N_SEALED - 1
        assert core.drain() == N_SEALED - 1

    def test_one_block_cache_of_cache_bytes(self, campaign_fs):
        dataset = _dataset(campaign_fs, cache_bytes=CACHE_BYTES)
        snapshot = dataset.snapshot()
        core = BrokerCore()
        for t in range(N_SEALED):
            _submit(core, snapshot, "a", FULL, t)
        core.drain()
        caches = {id(snapshot.store("temp", t).cache) for t in range(N_SEALED)}
        assert caches == {id(dataset.cache)}
        assert dataset.cache.capacity_bytes == CACHE_BYTES
        cache_stats = dataset.cache.stats.as_dict()
        assert cache_stats["evictions"] > 0  # three members competed for it
        assert cache_stats["current_bytes"] <= CACHE_BYTES
        # The members are the dataset's registry handles, one per member.
        assert dataset.runtime_stats()["open_handles"] == N_SEALED


# ----------------------------------------------------------------------
# What did not change: answers, dedup, pinning
# ----------------------------------------------------------------------
class TestServingContracts:
    def test_results_match_the_pinned_member(self, campaign_fs):
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(config=BrokerConfig(max_inflight=2))
        queries = [FULL, BOX, Query(value_range=(3.5, 4.5), output="values")]
        reqs = [
            (t, q, _submit(core, snapshot, f"t{i % 2}", q, t))
            for i, q in enumerate(queries)
            for t in range(N_SEALED)
        ]
        core.drain()
        fresh = _dataset(campaign_fs).snapshot(snapshot.generation)
        for t, q, req in reqs:
            assert req.status == "done"
            _assert_identical(req.result, fresh.store("temp", t).query(q))

    def test_one_round_over_two_members_assembles_per_member(
        self, campaign_fs, monkeypatch
    ):
        from repro.core import QueryEngine

        batches = []
        assemble = QueryEngine.assemble
        monkeypatch.setattr(
            QueryEngine,
            "assemble",
            lambda self, staged: batches.append((self, len(staged))) or assemble(self, staged),
        )
        asked = [(t, q) for q in (BOX, FULL, BOX) for t in (0, 1)]

        def submit():
            snapshot = _dataset(campaign_fs).snapshot()
            core = BrokerCore(config=BrokerConfig(max_inflight=8))
            return core, snapshot, [
                _submit(core, snapshot, f"t{i % 3}", q, t)
                for i, (t, q) in enumerate(asked)
            ]

        twin, _, one_by_one = submit()
        for req in twin.select_round():
            twin.execute(req)
            twin.complete_round()
        twin.finish_round()
        batches.clear()
        core, snapshot, reqs = submit()
        assert len(core.run_round()) == len(asked)
        # One round, one assemble per member engine: three requests each.
        engines = [snapshot.store("temp", t).executor for t in (0, 1)]
        assert sorted(batches, key=lambda b: engines.index(b[0])) == [
            (engines[0], 3), (engines[1], 3),
        ]  # fmt: skip
        pinned = _dataset(campaign_fs).snapshot(snapshot.generation)
        for (t, q), req, alone in zip(asked, reqs, one_by_one):
            _assert_identical(req.result, pinned.store("temp", t).query(q))
            assert req.result.times == alone.result.times
            assert req.result.stats == alone.result.stats
        assert core.stats() == twin.stats()

    def test_no_block_decoded_twice_while_a_waiter_exists(self, campaign_fs):
        # No persistent cache and one request per round: the repeat on
        # member 0 is served two rounds after the first, with another
        # member's request in between, and must still decode nothing.
        snapshot = _dataset(campaign_fs).snapshot()
        core = BrokerCore(config=BrokerConfig(max_inflight=1))
        first = _submit(core, snapshot, "a", BOX, 0)
        _submit(core, snapshot, "b", BOX, 1)
        repeat = _submit(core, snapshot, "c", BOX, 0)
        core.drain()
        assert first.result.stats["blocks_decoded"] > 0
        assert repeat.result.stats["blocks_decoded"] == 0
        assert repeat.result.stats["dedup_blocks"] > 0
        _assert_identical(repeat.result, first.result)
        stats = core.stats()
        assert stats["retained_jobs"] == 0  # backlog drained: released
        assert stats["released_jobs"] > 0


# ----------------------------------------------------------------------
# The staging node and the replay
# ----------------------------------------------------------------------
def _arrivals(times):
    return [
        TimestepArrival(time, "temp", t, gts_like(SHAPE, seed=t))
        for t, time in enumerate(times)
    ]


class TestIngestSession:
    def test_every_arrival_is_sealed_and_queryable(self):
        fs = SimulatedPFS()
        dataset = _dataset(fs)
        session = IngestSession(dataset, _arrivals([0.0, 1.0, 2.0]))
        assert len(session.advance_to(1.5)) == 2
        assert len(session.advance_to(math.inf)) == 1
        records = session.appended
        assert [r.generation for r in records] == [1, 2, 3]
        assert session.raw_bytes == 3 * SHAPE[0] * SHAPE[1] * 8
        assert session.stored_bytes == sum(r.stored_bytes for r in records)
        assert session.first_queryable_seconds == records[0].sealed_at
        assert session.ingest_throughput() > 0
        assert dataset.snapshot().timesteps("temp") == [0, 1, 2]

    def test_one_staging_node_drains_back_to_back(self):
        # Everything arrives at once: each append starts when the
        # previous one seals, so visibility trails arrival.
        session = IngestSession(_dataset(SimulatedPFS()), _arrivals([0.0, 0.0, 0.0]))
        first, second, third = session.advance_to(math.inf)
        assert first.started == 0.0
        assert second.started == first.sealed_at
        assert third.started == second.sealed_at
        assert session.generation_at(first.sealed_at) == 1
        assert session.generation_at(third.sealed_at) == 3
        assert session.sealed_members_at(second.sealed_at) == [first, second]


class TestReplayIngest:
    def test_request_larger_than_one_quantum_completes(self, full_cost):
        dataset = _dataset(SimulatedPFS())
        session = IngestSession(dataset, _arrivals([0.0]))
        report = replay(
            BrokerCore(config=BrokerConfig(quantum_bytes=-(-full_cost // 4))),
            IngestReplay(
                session, [IngestQueryEvent(1.0, "a", "temp", FULL, 0)], keep_results=True
            ),
        )
        assert report.dropped == 0 and len(report.samples) == 1
        # The deficit needs four quanta: three empty rounds, then service.
        assert report.broker["rounds"] == 4
        _assert_identical(
            report.results[0], dataset.snapshot().store("temp", 0).query(FULL)
        )
        tenant, arrival, completion, generation, timestep, stall = report.samples[0]
        assert (tenant, arrival, generation, timestep, stall) == ("a", 1.0, 1, 0, 0.0)
        assert completion == 1.0 + report.results[0].times.total

    def test_the_replay_counts_its_own_stalls_and_re_pins(self):
        # Both timesteps arrive at once and both queries ask for them
        # at time zero: at least the first waits for its seal.
        session = IngestSession(_dataset(SimulatedPFS()), _arrivals([0.0, 0.0]))
        events = [IngestQueryEvent(0.0, "a", "temp", BOX, t) for t in (0, 1)]
        report = replay(BrokerCore(), IngestReplay(session, events))
        stalls = [s[5] for s in report.samples]
        assert len(stalls) == 2 and stalls[0] > 0.0
        assert report.ingest_stall_seconds == sum(stalls)
        assert report.snapshot_refreshes == len({s[3] for s in report.samples})
        summary = report.as_dict()
        assert summary["ingest_stall_seconds"] == report.ingest_stall_seconds
        assert summary["generations_seen"] == report.snapshot_refreshes + 1

    def test_a_quota_rejection_is_a_drop_and_the_replay_finishes(self):
        # The tenant's byte quota admits nothing: each query is dropped
        # by the loop's one admission rule, and the other tenant's
        # query is still served.
        session = IngestSession(_dataset(SimulatedPFS()), _arrivals([0.0]))
        events = [
            IngestQueryEvent(1.0, "a", "temp", BOX, 0),
            IngestQueryEvent(2.0, "b", "temp", BOX, 0),
        ]
        core = BrokerCore(tenants={"a": TenantQuota(max_bytes=1)})
        report = replay(core, IngestReplay(session, events))
        assert report.dropped == 1 and report.rejected == 0
        assert [s[0] for s in report.samples] == ["b"]
        assert report.broker["tenants"]["a"]["quota_rejections"] == 1
        assert report.as_dict()["n_requests"] == 1
