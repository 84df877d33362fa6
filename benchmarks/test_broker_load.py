"""Broker traffic replay: 64 overlapping tenants vs per-tenant serial.

The acceptance experiment of the serving layer (docs/serving.md): a
64-tenant exploration workload — one drifting region walk dealt
round-robin across tenants, so *consecutive, heavily overlapping*
boxes belong to *different* tenants — replayed through the broker in
open- and closed-loop arrival modes, against the strongest per-tenant
baseline the library offers (each tenant batching its own stream
through ``query_many``, cold PFS per tenant: serial submission shares
nothing across tenants).

Asserted, not just recorded:

* every tenant's broker-served results are bit-identical to its
  serial run;
* the broker's simulated I/O bytes are at least **2x** below the
  per-tenant serial total on the same trace.

Latency percentiles (simulated seconds), dedup rate, and the I/O
comparison land in ``results/BENCH_broker_load.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core import MLOCStore, Query
from repro.harness import record_result
from repro.server import BrokerConfig, BrokerCore, ClosedLoop, OpenLoop, replay

N_TENANTS = 64
QUERIES_PER_TENANT = 3
SELECTIVITY = 0.02
DRIFT = 0.3
ARRIVAL_RATE = 20.0  # open-loop queries per simulated second per tenant

RESULTS: dict[str, object] = {}


def _tenant_queries(suite) -> dict[str, list[Query]]:
    """The 64-tenant overlapping workload over the 8g GTS field."""
    regions = suite.workload.overlapping_region_constraints(
        SELECTIVITY, N_TENANTS * QUERIES_PER_TENANT, drift=DRIFT
    )
    return {
        f"tenant-{t:03d}": [
            Query(region=regions[i], output="values")
            for i in range(t, len(regions), N_TENANTS)
        ]
        for t in range(N_TENANTS)
    }


def _broker_store(suite) -> MLOCStore:
    base = suite.store("mloc-col")
    return MLOCStore(
        suite.fs,
        base.root,
        base.meta,
        n_ranks=suite.n_ranks,
        cache_bytes=64 << 20,
        plan_cache=64,
    )


def test_broker_halves_io_and_keeps_results_identical(suite_gts_8g):
    suite = suite_gts_8g
    tenants = _tenant_queries(suite)

    # Per-tenant serial baseline: each tenant batches its own stream
    # (within-tenant dedup via query_many's shared fetcher) on a fresh
    # handle with a cold PFS — serial submission shares nothing across
    # tenants.
    base = suite.store("mloc-col")
    serial_bytes = 0
    serial_results: dict[str, list] = {}
    serial_sim_seconds = 0.0
    for tenant, queries in tenants.items():
        handle = MLOCStore(suite.fs, base.root, base.meta, n_ranks=suite.n_ranks)
        suite.fs.clear_cache()
        batch = handle.query_many(queries)
        serial_bytes += batch.stats["bytes_read"]
        serial_sim_seconds += batch.times.total
        serial_results[tenant] = list(batch.results)

    # Broker, phase 1 — bit-identity on the same submission order.
    suite.fs.clear_cache()
    core = BrokerCore(_broker_store(suite), BrokerConfig(max_inflight=16))
    requests = {
        tenant: [core.submit(tenant, q) for q in queries]
        for tenant, queries in tenants.items()
    }
    core.drain()
    for tenant, reqs in requests.items():
        for req, expected in zip(reqs, serial_results[tenant]):
            assert req.status == "done"
            assert np.array_equal(req.result.positions, expected.positions)
            assert np.array_equal(req.result.values, expected.values)

    # Broker, phase 2 — open-loop replay for latency and I/O totals.
    suite.fs.clear_cache()
    open_core = BrokerCore(_broker_store(suite), BrokerConfig(max_inflight=16))
    open_report = replay(
        open_core, OpenLoop(tenants, rate=ARRIVAL_RATE, seed=suite.spec.seed)
    )
    open_summary = open_report.as_dict()
    broker_bytes = open_summary["bytes_read"]

    assert open_summary["n_requests"] == N_TENANTS * QUERIES_PER_TENANT
    assert open_summary["dropped"] == 0
    assert serial_bytes >= 2 * broker_bytes, (
        f"broker read {broker_bytes} simulated bytes vs {serial_bytes} "
        f"serial — less than the required 2x saving"
    )

    RESULTS["workload"] = {
        "n_tenants": N_TENANTS,
        "queries_per_tenant": QUERIES_PER_TENANT,
        "selectivity": SELECTIVITY,
        "drift": DRIFT,
        "dataset": suite.spec.name,
    }
    RESULTS["io_bytes"] = {
        "serial_per_tenant": int(serial_bytes),
        "broker_open_loop": int(broker_bytes),
        "savings_factor": round(serial_bytes / max(broker_bytes, 1), 2),
    }
    RESULTS["serial_baseline"] = {
        "sim_seconds_total": round(serial_sim_seconds, 4),
    }
    RESULTS["open_loop"] = open_summary


def test_closed_loop_replay(suite_gts_8g):
    suite = suite_gts_8g
    tenants = _tenant_queries(suite)
    suite.fs.clear_cache()
    core = BrokerCore(_broker_store(suite), BrokerConfig(max_inflight=16))
    report = replay(core, ClosedLoop(tenants, think_time=0.005))
    summary = report.as_dict()
    assert summary["n_requests"] == N_TENANTS * QUERIES_PER_TENANT
    assert report.broker["pending"] == 0
    assert summary["dedup_rate"] > 0.0
    RESULTS["closed_loop"] = summary


def teardown_module(module) -> None:
    assert RESULTS, "broker load benchmarks did not run"
    path = record_result("BENCH_broker_load", RESULTS)
    print(f"\nbroker load results -> {path}")
