"""Micro-benchmark regression smoke: hot primitives + batch pipeline.

Times the real wall-clock of the hot code paths — varint codec,
Hilbert mapping, index-block decode, cold vs warm ``query_many``, the
serial/threads/processes decode backends, and the sharded
scatter/gather scaling sweep — and records everything to
``results/BENCH_perf_smoke.json`` so the performance trajectory is
tracked across PRs.  Wall-clock numbers are recorded, not asserted
(they depend on the machine); the *deterministic* savings of batching
and caching are asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import N_QUERIES, attach_batch_info, best_of
from repro.core import MLOCStore, Query
from repro.harness import format_table, record_result
from repro.harness.experiments import (
    batch_pipeline_rows,
    coalescing_rows,
    progressive_rows,
    sharded_scaling_rows,
)
from repro.index.binindex import decode_position_block_flat, encode_position_block
from repro.sfc.hilbert import hilbert_decode, hilbert_encode
from repro.util.varint import varint_decode_array, varint_encode_array

RESULTS: dict[str, object] = {}


def test_varint_roundtrip_speed():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 28, size=200_000, dtype=np.uint64)
    encoded = varint_encode_array(values)
    enc_s = best_of(lambda: varint_encode_array(values))
    dec_s = best_of(lambda: varint_decode_array(encoded, values.size))
    decoded = varint_decode_array(encoded, values.size)
    assert np.array_equal(decoded, values)
    RESULTS["varint"] = {
        "n_values": values.size,
        "encode_s": round(enc_s, 6),
        "decode_s": round(dec_s, 6),
        "encode_mvals_per_s": round(values.size / enc_s / 1e6, 2),
        "decode_mvals_per_s": round(values.size / dec_s / 1e6, 2),
    }


def test_hilbert_mapping_speed():
    rng = np.random.default_rng(1)
    nbits = 8
    coords = rng.integers(0, 1 << nbits, size=(100_000, 3), dtype=np.int64)
    keys = hilbert_encode(coords, nbits=nbits)
    enc_s = best_of(lambda: hilbert_encode(coords, nbits=nbits))
    dec_s = best_of(lambda: hilbert_decode(keys, ndims=3, nbits=nbits))
    assert np.array_equal(hilbert_decode(keys, ndims=3, nbits=nbits), coords)
    RESULTS["hilbert"] = {
        "n_points": coords.shape[0],
        "encode_s": round(enc_s, 6),
        "decode_s": round(dec_s, 6),
        "encode_mpts_per_s": round(coords.shape[0] / enc_s / 1e6, 2),
        "decode_mpts_per_s": round(coords.shape[0] / dec_s / 1e6, 2),
    }


def test_index_block_decode_speed():
    rng = np.random.default_rng(2)
    counts = np.full(64, 2_000, dtype=np.int64)
    chunks = [
        np.sort(rng.choice(100_000, size=int(c), replace=False)) for c in counts
    ]
    payload = encode_position_block(chunks)
    dec_s = best_of(lambda: decode_position_block_flat(payload, counts))
    flat = decode_position_block_flat(payload, counts)
    assert np.array_equal(flat, np.concatenate(chunks))
    RESULTS["index_block_decode"] = {
        "n_positions": int(counts.sum()),
        "decode_s": round(dec_s, 6),
        "decode_mpos_per_s": round(int(counts.sum()) / dec_s / 1e6, 2),
    }


def test_batch_cold_vs_warm(benchmark, suite_gts_8g, capsys):
    """Overlapping exploration batch: query_many vs cold one-by-one.

    The deterministic acceptance assertions live here: the batch shows
    cache hits and strictly lower aggregate modeled io + decompression
    than running the same queries cold one at a time.
    """
    suite = suite_gts_8g
    rows, batch = benchmark.pedantic(
        batch_pipeline_rows,
        args=(suite, max(N_QUERIES, 4)),
        rounds=1,
        iterations=1,
    )
    attach_batch_info(benchmark, batch)
    with capsys.disabled():
        print()
        print(format_table("batch_pipeline", rows))
    assert batch.stats["cache_hits"] > 0
    assert batch.times.io < rows["cold one-by-one"][0]
    assert (
        batch.times.io + batch.times.decompression
        < rows["cold one-by-one"][2]
    )
    # Real wall-clock improves too: the batch reads and decodes each
    # shared block once instead of once per query.
    cold_wall, batch_wall = rows["cold one-by-one"][3], rows["batched query_many"][3]
    assert batch_wall < cold_wall
    RESULTS["batch_pipeline"] = {
        "rows": rows,
        "n_queries": batch.stats["n_queries"],
        "cache_hits": batch.stats["cache_hits"],
        "cache_misses": batch.stats["cache_misses"],
        "blocks_decoded": batch.stats["blocks_decoded"],
        "wall_speedup": round(cold_wall / max(batch_wall, 1e-9), 3),
    }


def test_backend_wall_clock(suite_gts_8g):
    """Serial vs threaded vs process decode backend on one batch:
    identical simulated seconds and answers asserted, real wall-clock
    recorded alongside the core count.  The GIL-free process pool is
    the only backend that can beat serial on CPU-bound decode, so its
    speedup is asserted — but only on multi-core machines (on one core
    any pool is pure overhead)."""
    suite = suite_gts_8g
    base = suite.store("mloc-col")
    regions = suite.workload.overlapping_region_constraints(0.01, max(N_QUERIES, 4))
    queries = [Query(region=r, output="values") for r in regions]
    walls = {}
    batches = {}
    for backend in ("serial", "threads", "processes"):
        store = MLOCStore(
            suite.fs,
            base.root,
            base.meta,
            n_ranks=suite.n_ranks,
            backend=backend,
            workers=2 if backend == "processes" else None,
        )
        suite.fs.clear_cache()
        store.query_many(queries)  # warm the page cache / worker pool
        suite.fs.clear_cache()
        t0 = time.perf_counter()
        batches[backend] = store.query_many(queries)
        walls[backend] = time.perf_counter() - t0
    a = batches["serial"]
    for backend in ("threads", "processes"):
        b = batches[backend]
        assert a.times.io == b.times.io
        assert a.times.decompression == b.times.decompression
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.positions, rb.positions)
    assert batches["processes"].stats["decode_pool_failures"] == 0
    RESULTS["backend_wall_clock"] = {
        "n_queries": len(queries),
        "cpu_count": os.cpu_count(),
        "serial_s": round(walls["serial"], 4),
        "threads_s": round(walls["threads"], 4),
        "processes_s": round(walls["processes"], 4),
        "threads_speedup": round(walls["serial"] / max(walls["threads"], 1e-9), 3),
        "processes_speedup": round(
            walls["serial"] / max(walls["processes"], 1e-9), 3
        ),
    }


def test_planning_speed(suite_gts_8g):
    """Plan-cache hit cost on a real store: a repeat of the same query
    shape must skip planning almost entirely."""
    suite = suite_gts_8g
    base = suite.store("mloc-col")
    store = MLOCStore(
        suite.fs, base.root, base.meta, n_ranks=suite.n_ranks, plan_cache=16
    )
    region = suite.workload.overlapping_region_constraints(0.01, 1)[0]
    q = Query(region=region, output="values")
    ctx = store.context
    fresh_s = best_of(lambda: ctx.plan_uncached(q))
    ctx.plan(q)  # warm the LRU
    hit_s = best_of(lambda: ctx.plan(q))
    assert hit_s < fresh_s / 5, (
        f"cache hit ({hit_s:.6f}s) should be far cheaper than planning "
        f"({fresh_s:.6f}s)"
    )
    r1 = store.query(q)
    r2 = store.query(q)
    assert r2.stats["plan_cache_hits"] == 1
    assert np.array_equal(r1.positions, r2.positions)
    RESULTS["planning"] = {
        "plan_fresh_s": round(fresh_s, 6),
        "plan_cache_hit_s": round(hit_s, 6),
        "cache_hit_speedup": round(fresh_s / max(hit_s, 1e-9), 1),
    }


def test_coalescing_seek_savings(suite_gts_8g, capsys):
    """Coalesced vectored I/O vs one read per block on SC queries.

    The deterministic acceptance assertions: identical results, vectored
    reads actually happen, and the coalesced run issues strictly fewer
    seeks than the uncoalesced one (the ISSUE's seek-count comparison)."""
    suite = suite_gts_8g
    rows, info = coalescing_rows(suite, max(N_QUERIES, 3))
    with capsys.disabled():
        print()
        print(format_table("coalescing", rows))
    assert info["identical"], "coalescing changed query results"
    assert info["coalesced_reads"] > 0
    assert info["seeks_coalesced"] < info["seeks_uncoalesced"]
    RESULTS["coalescing"] = {"rows": rows, **info}


def test_progressive_refinement_bytes(suite_gts_8g, capsys):
    """Refinement session vs independent per-level queries.

    The deterministic acceptance assertions: every session step is
    bit-identical to a fresh query at its level, the session reuses
    bytes (> 0), reads strictly less in total than the independent
    per-level queries, and refining to full precision costs at least
    2x fewer bytes than re-querying at full from scratch."""
    suite = suite_gts_8g
    rows, info = progressive_rows(suite)
    with capsys.disabled():
        print()
        print(format_table("progressive", rows))
    assert info["identical"], "session steps diverged from single-shot queries"
    assert info["bytes_reused"] > 0
    assert info["session_bytes"] < info["independent_bytes"]
    assert info["full_step_ratio"] >= 2.0, (
        f"refine-to-full should cost >= 2x fewer bytes, "
        f"got {info['full_step_ratio']:.2f}x"
    )
    RESULTS["progressive"] = {"rows": rows, **info}


def test_sharded_scaling(suite_gts_8g, capsys):
    """``MLOCStore(n_shards=)`` per-shard scaling sweep (1/2/4/8 shards).

    The deterministic acceptance assertions: merged answers identical
    at every shard count, and simulated io+decompression falls
    monotonically with shard count, reaching >= 3x at 8 shards.  The
    per-doubling factor is below 2x by design: the bin partition
    balances the *whole variable's* stored bytes, while any one query
    touches a selectivity-dependent subset of bins that lands unevenly
    across shards (the slowest shard gates the merged time)."""
    suite = suite_gts_8g
    rows, info = sharded_scaling_rows(suite, "mloc-col")
    with capsys.disabled():
        print()
        print(format_table("sharded_scaling", rows))
    assert info["identical"], "sharded answers diverged from 1-shard baseline"
    speedups = [rows[f"{n} shards"][3] for n in (1, 2, 4, 8)]
    assert speedups == sorted(speedups), rows
    assert rows["2 shards"][3] >= 1.25, rows
    assert rows["4 shards"][3] >= 1.75, rows
    assert rows["8 shards"][3] >= 3.0, rows
    RESULTS["sharded_scaling"] = {"rows": rows, **info}


def test_record_perf_smoke():
    # Runs last within this file (pytest preserves definition order).
    assert RESULTS, "micro-benchmarks did not run"
    path = record_result("BENCH_perf_smoke", RESULTS)
    assert path.exists()
