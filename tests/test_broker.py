"""Multi-tenant query broker: identity, fairness, admission, dedup.

The two tentpole guarantees of ``repro.server``:

* **bit-identity** — a result served through the broker (shared
  fetcher, deferred execution, sharded or flat store) is identical to
  the same query run directly on a fresh store handle (the ``broker``
  rows of ``tests/test_contract_matrix.py``);
* **the §8 invariant** — the broker never decodes a block twice while
  any waiter exists, proven here with *no* persistent cache configured
  (so retained fetcher jobs are the only possible source of reuse).

Async tests drive the :class:`QueryBroker` façade through
``asyncio.run`` (the suite has no asyncio plugin on purpose — the
broker must stay testable with a stock pytest).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import (
    DegradedResultError,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
)
from repro.core.result import aggregate_stats, counter_names
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS
from repro.server import (
    BrokerConfig,
    BrokerCore,
    BrokerRejected,
    QueryBroker,
    QuotaExceededError,
    ClosedLoop,
    OpenLoop,
    TenantQuota,
    replay,
)
from repro.server.replay import RETRY_S
from scripts.gen_engine_golden import fault_plan
from tests.test_contract_matrix import check


@pytest.fixture(scope="module")
def broker_fs():
    fs = SimulatedPFS()
    config = mloc_col(chunk_shape=(32, 32), n_bins=16, target_block_bytes=8 * 1024)
    MLOCWriter(fs, "/s", config).write(gts_like((256, 256), seed=7), variable="f")
    return fs


def _open(fs, **options):
    return MLOCStore.open(fs, "/s", "f", n_ranks=4, **options)


QUERIES = [
    Query(region=((0, 64), (0, 64)), output="values"),
    Query(region=((32, 96), (32, 96)), output="values"),
    Query(region=((16, 80), (16, 80)), output="values", plod_level=3),
    Query(value_range=(4.0, 5.0), output="positions"),
    Query(value_range=(3.5, 4.5), region=((64, 192), (64, 192)), output="values"),
]


def _assert_identical(result, expected):
    assert np.array_equal(result.positions, expected.positions)
    if expected.values is None:
        assert result.values is None
    else:
        assert np.array_equal(result.values, expected.values)


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    """The ``broker`` rows of ``tests/test_contract_matrix.py``."""

    def test_broker_results_match_direct_queries(self):
        check("broker", "col")

    def test_sharded_store_scatter_gather_identical(self):
        check("broker+shards-3", "col")


# ----------------------------------------------------------------------
# The §8 invariant: no re-decode while a waiter exists
# ----------------------------------------------------------------------
class TestFetchMergeDedup:
    def test_never_decodes_twice_while_waiters_exist(self, broker_fs):
        # No persistent cache: cross-round reuse can only come from the
        # fetch-merge loop retaining decoded jobs for queued waiters.
        core = BrokerCore(_open(broker_fs), BrokerConfig(max_inflight=1))
        q = QUERIES[0]
        first = core.submit("a", q)
        second = core.submit("b", q)
        core.run_round()  # serves only tenant a; b still waits
        assert first.status == "done" and second.status == "queued"
        assert core.loop.retained_jobs() > 0
        core.run_round()
        assert second.status == "done"
        assert second.result.stats["blocks_decoded"] == 0
        assert second.result.stats["dedup_blocks"] > 0
        _assert_identical(second.result, first.result)
        # Queue drained: the retained jobs were released at round end.
        assert core.loop.retained_jobs() == 0
        assert core.loop.released_jobs > 0

    def test_overlapping_tenants_coalesce_within_a_round(self, broker_fs):
        core = BrokerCore(_open(broker_fs), BrokerConfig(max_inflight=4))
        overlapping = [
            Query(region=((0, 96), (0, 96)), output="values"),
            Query(region=((32, 128), (32, 128)), output="values"),
            Query(region=((0, 64), (32, 128)), output="values"),
        ]
        for i, q in enumerate(overlapping):
            core.submit(f"t{i}", q)
        core.drain()
        totals = core.stats()["totals"]
        assert totals["dedup_blocks"] > 0
        assert totals["dedup_raw_bytes"] > 0
        # Dedup hits are exactly the gap between block requests and
        # actual decodes (no LRU configured to blur the accounting).
        assert totals["cache_hits"] == totals["dedup_blocks"]

    def test_quarantined_blocks_degrade_identically_for_all_tenants(
        self, broker_fs
    ):
        # Sticky rot on data subfiles; allow_partial degrades instead
        # of failing.  Both tenants ask for everything in different
        # rounds: the second answer must come from the quarantine
        # registry (no fresh retries) and match the first bit-for-bit.
        ffs = FaultyPFS(
            broker_fs,
            FaultPlan(seed=1, sticky_corruption_rate=0.4, fault_suffixes=(".data",)),
        )
        store = _open(ffs, max_read_retries=1, allow_partial=True)
        core = BrokerCore(store, BrokerConfig(max_inflight=1))
        q = Query(output="values")
        first = core.submit("a", q)
        second = core.submit("b", q)
        core.drain()
        assert first.result.stats["quarantined_blocks"] > 0
        _assert_identical(second.result, first.result)
        assert second.result.stats["io_retries"] == 0
        assert (
            second.result.stats["degraded_points"]
            == first.result.stats["degraded_points"]
        )


# ----------------------------------------------------------------------
# A round is its requests, in order
# ----------------------------------------------------------------------
ROUND = QUERIES + [QUERIES[0], Query(output="values")]
TIGHT = {f"t{i}": TenantQuota(max_cache_bytes=48 << 10) for i in range(3)}


def _assert_same_answer(got, want):
    _assert_identical(got, want)
    assert got.times == want.times
    assert got.stats == want.stats


class TestRoundEqualsItsRequestsInOrder:
    """Staging a round's requests in order and assembling them once is
    indistinguishable — results, simulated seconds, every counter,
    quota evictions, retention — from serving them one at a time."""

    @staticmethod
    def _submit(broker_fs):
        core = BrokerCore(
            _open(broker_fs, cache_bytes=256 << 10),
            BrokerConfig(max_inflight=len(ROUND), quantum_bytes=64 << 20),
            tenants=TIGHT,
        )
        return core, [core.submit(f"t{i % 3}", q) for i, q in enumerate(ROUND)]

    @classmethod
    def _one_at_a_time(cls, broker_fs):
        core, reqs = cls._submit(broker_fs)
        late = core.submit("late", QUERIES[1])  # still queued when the round closes
        for req in core.select_round():
            core.execute(req)
            assert [r.ticket for r in core.complete_round()] == [req.ticket]
        core.finish_round()
        assert late.status == "queued"
        return core, reqs

    def test_run_round(self, broker_fs):
        twin, expected = self._one_at_a_time(broker_fs)
        core, reqs = self._submit(broker_fs)
        core.submit("late", QUERIES[1])
        assert sorted(core.run_round(), key=lambda r: r.ticket) == reqs
        for req, want in zip(reqs, expected):
            assert req.status == want.status == "done"
            _assert_same_answer(req.result, want.result)
        for name in TIGHT:
            assert core.tenant_stats(name) == twin.tenant_stats(name)
        stats, want = core.stats(), twin.stats()
        assert stats["totals"]["quota_evictions"] > 0
        assert stats["retained_jobs"] == want["retained_jobs"] > 0  # a waiter is left
        assert stats["released_jobs"] == want["released_jobs"] == 0
        assert stats == want
        assert core.drain() == twin.drain() == 1
        assert core.stats() == twin.stats()
        assert core.stats()["released_jobs"] > 0

    def test_query_broker(self, broker_fs):
        twin, expected = self._one_at_a_time(broker_fs)
        twin.drain()

        async def main():
            store = _open(broker_fs, cache_bytes=256 << 10)
            config = BrokerConfig(max_inflight=len(ROUND), quantum_bytes=64 << 20)
            async with QueryBroker(store, config, TIGHT) as broker:
                futures = [broker.submit(f"t{i % 3}", q) for i, q in enumerate(ROUND)]
                late = broker.submit("late", QUERIES[1])
                results = await asyncio.gather(*futures)
                await late
            return results, broker.stats()

        results, stats = asyncio.run(main())
        for got, want in zip(results, expected):
            _assert_same_answer(got, want.result)
        assert stats == twin.stats()

    def test_a_request_that_raises_fails_alone(self, broker_fs):
        plan = fault_plan(_open(broker_fs), "base")
        direct = []
        for q in ROUND:
            try:
                direct.append(_open(FaultyPFS(broker_fs, plan)).query(q))
            except DegradedResultError as err:
                direct.append(err)
        failing = [i for i, r in enumerate(direct) if isinstance(r, DegradedResultError)]
        assert failing and len(failing) < len(ROUND)

        core = BrokerCore(_open(FaultyPFS(broker_fs, plan)), BrokerConfig(max_inflight=len(ROUND)))
        reqs = [core.submit("a", q) for q in ROUND]
        core.run_round()
        assert [i for i, r in enumerate(reqs) if r.status == "failed"] == failing

        async def main():
            store = _open(FaultyPFS(broker_fs, plan))
            async with QueryBroker(store, BrokerConfig(max_inflight=len(ROUND))) as broker:
                futures = [broker.submit("a", q) for q in ROUND]
                return await asyncio.gather(*futures, return_exceptions=True)

        for i, (served, req, want) in enumerate(zip(asyncio.run(main()), reqs, direct)):
            if i in failing:
                assert isinstance(served, DegradedResultError)
                assert isinstance(req.error, DegradedResultError)
                assert (served.kind, served.path, served.offset) == (want.kind, want.path, want.offset)
            else:
                _assert_identical(served, want)
                _assert_identical(req.result, want)


# ----------------------------------------------------------------------
# Admission control and quotas
# ----------------------------------------------------------------------
class TestAdmission:
    def test_submit_without_any_store_registers_nothing(self):
        core = BrokerCore()
        with pytest.raises(TypeError, match="submit needs store="):
            core.submit("a", Query())
        assert core.stats()["n_tenants"] == 0

    def test_per_tenant_queue_depth(self, broker_fs):
        core = BrokerCore(
            _open(broker_fs), BrokerConfig(max_queued_per_tenant=1)
        )
        core.submit("a", QUERIES[0])
        with pytest.raises(BrokerRejected):
            core.submit("a", QUERIES[1])
        core.submit("b", QUERIES[1])  # other tenants are unaffected
        stats = core.stats()
        assert stats["tenants"]["a"]["rejected"] == 1
        assert stats["tenants"]["a"]["quota_rejections"] == 0
        assert stats["totals"]["admitted"] == 2
        core.drain()

    def test_pending_bytes_ceiling(self, broker_fs):
        store = _open(broker_fs)
        plan, _ = store.plan(QUERIES[0])
        est = store.estimated_raw_bytes(QUERIES[0], plan)
        assert est > 0
        core = BrokerCore(store, BrokerConfig(max_pending_bytes=est))
        core.submit("a", QUERIES[0])
        assert core.stats()["pending_bytes"] == est
        with pytest.raises(BrokerRejected):
            core.submit("b", QUERIES[0])
        core.drain()
        assert core.stats()["pending_bytes"] == 0
        core.submit("b", QUERIES[0])  # capacity freed by completion
        core.drain()

    def test_byte_quota_exhaustion_under_allow_partial(self, broker_fs):
        store = _open(broker_fs, allow_partial=True)
        plan, _ = store.plan(QUERIES[0])
        est = store.estimated_raw_bytes(QUERIES[0], plan)
        core = BrokerCore(
            store, tenants={"a": TenantQuota(max_bytes=int(est * 1.5))}
        )
        req = core.submit("a", QUERIES[0])
        core.drain()
        assert req.status == "done"
        charged = core.stats()["tenants"]["a"]["charged_bytes"]
        assert charged > 0
        with pytest.raises(QuotaExceededError):
            core.submit("a", QUERIES[0])
        stats = core.stats()["tenants"]["a"]
        assert stats["quota_rejections"] == 1
        assert stats["rejected"] == 1
        # Another tenant still gets service.
        other = core.submit("b", QUERIES[0])
        core.drain()
        assert other.status == "done"

    def test_cancel_withdraws_a_selected_request(self, broker_fs):
        core = BrokerCore(_open(broker_fs))
        core.submit("a", QUERIES[0])
        core.submit("b", QUERIES[1])
        batch = core.select_round()
        assert len(batch) == 2
        assert core.cancel(batch[0])
        assert not core.cancel(batch[0])
        for req in batch:
            if req.status == "queued":
                core.execute(req)
        core.finish_round()
        assert [r.status for r in batch] == ["cancelled", "done"]
        totals = core.stats()["totals"]
        assert totals["cancelled"] == 1 and totals["completed"] == 1
        assert core.stats()["pending_bytes"] == 0

    def test_cache_quota_evicts_own_insertions_only(self, broker_fs):
        store = _open(broker_fs, cache_bytes=32 << 20)
        core = BrokerCore(
            store, tenants={"hog": TenantQuota(max_cache_bytes=4096)}
        )
        core.submit("hog", QUERIES[4])
        core.submit("polite", QUERIES[0])
        core.drain()
        stats = core.stats()
        assert stats["tenants"]["hog"]["quota_evictions"] > 0
        assert stats["tenants"]["polite"]["quota_evictions"] == 0
        # Quota pressure changes residency, never answers: a repeat
        # matches a direct query bit for bit.
        repeat = core.submit("polite", QUERIES[0])
        core.drain()
        _assert_identical(repeat.result, _open(broker_fs).query(QUERIES[0]))


# ----------------------------------------------------------------------
# Fair scheduling
# ----------------------------------------------------------------------
class TestFairScheduling:
    def test_drr_interleaves_cheap_tenant_with_expensive_one(self, broker_fs):
        store = _open(broker_fs)
        cheap = Query(region=((0, 32), (0, 32)), output="values")
        expensive = Query(output="values")  # whole domain
        plan, _ = store.plan(cheap)
        cheap_cost = store.estimated_raw_bytes(cheap, plan)
        core = BrokerCore(
            store,
            BrokerConfig(max_inflight=8, quantum_bytes=2 * cheap_cost),
        )
        big_reqs = [core.submit("big", expensive) for _ in range(3)]
        small_reqs = [core.submit("small", cheap) for _ in range(3)]
        order: list[str] = []
        while core.pending():
            for req in core.select_round():
                core.execute(req)
                order.append(req.tenant)
            core.finish_round()
        assert all(r.status == "done" for r in big_reqs + small_reqs)
        # The small tenant drains while the big tenant's deficit is
        # still accruing: every cheap query is served before the last
        # expensive one, not FIFO behind the big tenant's backlog.
        assert order.index("small") < len(order) - 1 - order[::-1].index("big")
        assert order.count("small") == 3

    def test_deficit_accrues_until_expensive_head_runs(self, broker_fs):
        store = _open(broker_fs)
        expensive = Query(output="values")
        plan, _ = store.plan(expensive)
        cost = store.estimated_raw_bytes(expensive, plan)
        # Quantum far below the request cost: several rounds of credit
        # are needed before the head is dequeued, but it must run.
        core = BrokerCore(store, BrokerConfig(quantum_bytes=max(cost // 4, 1)))
        req = core.submit("a", expensive)
        rounds = core.drain()
        assert req.status == "done"
        assert rounds >= 4

    def test_empty_queue_drain_is_a_noop(self, broker_fs):
        core = BrokerCore(_open(broker_fs))
        assert core.pending() == 0
        assert core.select_round() == []
        assert core.drain() == 0
        stats = core.stats()
        assert stats["n_tenants"] == 0
        assert stats["totals"]["admitted"] == 0
        assert stats["rounds"] == 0


# ----------------------------------------------------------------------
# Stats registry integration
# ----------------------------------------------------------------------
class TestBrokerStats:
    def test_totals_fold_through_canonical_registry(self, broker_fs):
        core = BrokerCore(_open(broker_fs, cache_bytes=4 << 20))
        for i, q in enumerate(QUERIES):
            core.submit(f"t{i % 2}", q)
        core.drain()
        stats = core.stats()
        recomputed = aggregate_stats(list(stats["tenants"].values()))
        for key in counter_names(fold="sum") + counter_names(fold="fsum"):
            assert stats["totals"][key] == recomputed[key], key
        assert stats["totals"]["admitted"] == len(QUERIES)
        assert stats["totals"]["completed"] == len(QUERIES)
        assert stats["totals"]["n_results"] == sum(
            t["n_results"] for t in stats["tenants"].values()
        )
        assert 0.0 <= stats["dedup_rate"] <= 1.0

    def test_dedup_rate_is_the_share_of_all_block_requests(self, broker_fs):
        # Four tenants ask for the same box in one round, no LRU: the
        # first decodes every block, the other three dedup every one.
        core = BrokerCore(_open(broker_fs))
        for i in range(4):
            core.submit(f"t{i}", QUERIES[0])
        assert core.drain() == 1
        stats = core.stats()
        totals = stats["totals"]
        assert totals["dedup_blocks"] == totals["cache_hits"] == 3 * totals["blocks_decoded"]
        assert stats["dedup_rate"] == 0.75


# ----------------------------------------------------------------------
# Async façade
# ----------------------------------------------------------------------
class TestQueryBroker:
    def test_concurrent_tenants_get_identical_results(self, broker_fs):
        direct = [_open(broker_fs).query(q) for q in QUERIES[:3]]

        async def main():
            store = _open(broker_fs, cache_bytes=4 << 20)
            async with QueryBroker(store) as broker:
                results = await asyncio.gather(
                    *(
                        broker.query(f"t{i}", q)
                        for i, q in enumerate(QUERIES[:3])
                    )
                )
            return results, broker.stats()

        results, stats = asyncio.run(main())
        for result, expected in zip(results, direct):
            _assert_identical(result, expected)
        assert stats["totals"]["completed"] == 3

    def test_cancellation_mid_fetch_skips_without_serving(self, broker_fs):
        async def main():
            store = _open(broker_fs)
            # One query per round, so the later submissions are still
            # queued (mid-fetch from the tenant's view) when cancelled.
            async with QueryBroker(
                store, BrokerConfig(max_inflight=1)
            ) as broker:
                keep = broker.submit("a", QUERIES[0])
                doomed = broker.submit("b", QUERIES[1])
                also_kept = broker.submit("c", QUERIES[2])
                doomed.cancel()
                first, third = await asyncio.gather(keep, also_kept)
                with pytest.raises(asyncio.CancelledError):
                    await doomed
            return first, third, broker.stats()

        first, third, stats = asyncio.run(main())
        _assert_identical(first, _open(broker_fs).query(QUERIES[0]))
        _assert_identical(third, _open(broker_fs).query(QUERIES[2]))
        assert stats["totals"]["cancelled"] == 1
        assert stats["totals"]["completed"] == 2
        assert stats["tenants"]["b"]["completed"] == 0

    def test_cancellation_after_selection_is_not_served(self, broker_fs):
        # The serve task has selected the round and yielded before the
        # cancel; the future's done-callback has not run when it resumes.
        async def main():
            async with QueryBroker(_open(broker_fs)) as broker:
                doomed = broker.submit("a", QUERIES[0])
                kept = broker.submit("b", QUERIES[1])
                await asyncio.sleep(0)
                doomed.cancel()
                second = await kept
                with pytest.raises(asyncio.CancelledError):
                    await doomed
            return second, broker.stats()

        second, stats = asyncio.run(main())
        _assert_identical(second, _open(broker_fs).query(QUERIES[1]))
        assert stats["totals"]["cancelled"] == 1
        assert stats["totals"]["completed"] == 1
        assert stats["tenants"]["a"]["charged_bytes"] == 0
        assert stats["tenants"]["a"]["completed"] == 0

    def test_zero_tenant_start_and_close(self, broker_fs):
        async def main():
            async with QueryBroker(_open(broker_fs)) as broker:
                await asyncio.sleep(0)
            return broker.stats()

        stats = asyncio.run(main())
        assert stats["totals"]["admitted"] == 0
        assert stats["pending"] == 0

    def test_submit_after_close_raises(self, broker_fs):
        async def main():
            broker = QueryBroker(_open(broker_fs))
            await broker.start()
            await broker.close()
            with pytest.raises(RuntimeError):
                broker.submit("a", QUERIES[0])

        asyncio.run(main())


# ----------------------------------------------------------------------
# Traffic replay
# ----------------------------------------------------------------------
class TestReplay:
    def _tenant_queries(self, n_tenants=4):
        return {
            f"t{t}": [QUERIES[(t + i) % len(QUERIES)] for i in range(3)]
            for t in range(n_tenants)
        }

    def test_open_loop_replay_is_deterministic(self, broker_fs):
        # Every simulated second is modeled from counted work (DESIGN.md
        # §5), so the whole replay — latencies included — is exact.
        def run():
            broker_fs.clear_cache()  # same simulated OS-cache start state
            core = BrokerCore(_open(broker_fs, cache_bytes=4 << 20))
            return replay(core, OpenLoop(self._tenant_queries(), rate=50.0, seed=3))

        a, b = run(), run()
        assert a.samples == b.samples
        for key in ("dedup_blocks", "blocks_decoded", "cache_hits", "bytes_read"):
            assert a.broker["totals"][key] == b.broker["totals"][key], key
        assert a.broker["rounds"] == b.broker["rounds"]
        assert a.as_dict()["n_requests"] == 12
        assert a.percentile(99) >= a.percentile(50) > 0.0

    def test_open_loop_latency_includes_queueing(self, broker_fs):
        # Everything arrives at t=0 but only one query serves per
        # round: later completions carry the backlog's service time.
        core = BrokerCore(_open(broker_fs), BrokerConfig(max_inflight=1))
        report = replay(core, OpenLoop(self._tenant_queries(2), rate=1e9, seed=0))
        lat = report.latencies()
        assert lat.size == 6
        assert lat.max() > lat.min()

    def test_closed_loop_completes_every_stream(self, broker_fs):
        core = BrokerCore(_open(broker_fs, cache_bytes=4 << 20))
        report = replay(core, ClosedLoop(self._tenant_queries(), think_time=0.002))
        assert report.as_dict()["n_requests"] == 12
        assert report.broker["totals"]["completed"] == 12
        assert report.broker["pending"] == 0
        # The simulated clock only moves forward; no request can take
        # longer than the whole replay.
        assert report.clock >= report.latencies().max() > 0.0

    def _est(self, store, query) -> int:
        return store.estimated_raw_bytes(query, store.plan(query)[0])

    def test_an_unadmittable_closed_loop_request_is_dropped(self, broker_fs):
        # Nothing in flight can ever free room for a request larger than
        # the ceiling: the closed loop drops it instead of retrying
        # forever.  The replay runs in a daemon thread so a hang fails
        # the test instead of wedging the suite.
        store = _open(broker_fs)
        ceiling = self._est(store, QUERIES[0]) // 2
        core = BrokerCore(store, BrokerConfig(max_pending_bytes=ceiling))
        reports = []
        worker = threading.Thread(
            target=lambda: reports.append(
                replay(core, ClosedLoop({"a": [QUERIES[0]]}))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "closed-loop replay did not terminate"
        (report,) = reports
        assert report.dropped == 1 and report.rejected == 1
        assert report.samples == []

    def test_a_retried_closed_loop_request_keeps_its_arrival(self, broker_fs):
        # Room for one request: "b" is rejected at t=0 while "a" is
        # pending, retried RETRY_S later, and its latency still counts
        # from t=0.
        store = _open(broker_fs)
        ceiling = 3 * self._est(store, QUERIES[0]) // 2
        core = BrokerCore(store, BrokerConfig(max_pending_bytes=ceiling))
        tenants = {"a": [QUERIES[0]], "b": [QUERIES[0]]}
        report = replay(core, ClosedLoop(tenants))
        assert report.rejected == 1 and report.dropped == 0
        (a, b) = report.samples
        assert a[:2] == ("a", 0.0) and b[:2] == ("b", 0.0)
        assert b[2] > a[2] >= RETRY_S
