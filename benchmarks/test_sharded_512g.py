"""Sharded scale-out on the 512 GB-class workloads (Tables IV/V scale).

The single-store 512 GB benchmarks answer the paper's MLOC-vs-scan
rows; this suite re-serves the same workloads through bin-range
shards (``MLOCStore(n_shards=)``) to pin the scale-out contract at
that scale:

* the merged answer of every region/value query is identical to the
  unsharded store on the same bytes, for every shard count;
* the per-shard scaling row — merged simulated seconds vs shard count
  with one rank per shard — improves monotonically and reaches a
  multi-x speedup by 8 shards (near-linear until shards outnumber the
  bins a query touches);
* sharding adds no storage: it is a metadata-level view over the same
  subfiles.

Marked slow via the benchmarks conftest, like every 512 GB suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import MLOCStore, Query
from repro.harness import format_table, record_result
from repro.harness.experiments import sharded_scaling_rows

SHARD_COUNTS = (1, 2, 4, 8)


def _open_sharded(suite, n_shards, **options):
    base = suite.store("mloc-col")
    return MLOCStore(suite.fs, base.root, base.meta, n_shards=n_shards, **options)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_region_query_identical_gts_512g(benchmark, suite_gts_512g, n_shards):
    """Table IV's 1% region workload served by a sharded store."""
    suite = suite_gts_512g
    flat = suite.store("mloc-col")
    constraint = suite.workload.value_constraints(0.01, 1)[0]
    query = Query(value_range=tuple(constraint), output="positions")
    suite.fs.clear_cache()
    expected = flat.query(query)

    sharded = _open_sharded(suite, n_shards, n_ranks=suite.n_ranks)

    def run():
        suite.fs.clear_cache()
        return sharded.query(query)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert np.array_equal(result.positions, expected.positions)
    assert result.stats["n_results"] == expected.stats["n_results"]
    attach_sim_info(
        benchmark,
        result.times,
        n_results=result.stats["n_results"],
        n_shards=n_shards,
        shards_hit=result.stats["shards_hit"],
    )


def test_value_query_identical_s3d_512g(suite_s3d_512g):
    """Table V's value workload: sharded == unsharded on S3D too."""
    suite = suite_s3d_512g
    flat = suite.store("mloc-col")
    sharded = _open_sharded(suite, 4, n_ranks=suite.n_ranks)
    for constraint in suite.workload.value_constraints(0.01, max(N_QUERIES, 2)):
        query = Query(value_range=tuple(constraint), output="values")
        suite.fs.clear_cache()
        expected = flat.query(query)
        suite.fs.clear_cache()
        result = sharded.query(query)
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.values, expected.values)


def test_sharded_storage_is_metadata_only(suite_gts_512g):
    """Opening any shard count reads the same subfiles: no extra bytes."""
    suite = suite_gts_512g
    flat = suite.store("mloc-col")
    for n_shards in (2, 8):
        assert _open_sharded(suite, n_shards).storage_report() == (
            flat.storage_report()
        )


@pytest.mark.parametrize("dataset", ["gts", "s3d"])
def test_sharded_scaling_report(
    benchmark, dataset, suite_gts_512g, suite_s3d_512g, capsys
):
    """The per-shard scaling row for the 512 GB report."""
    suite = suite_gts_512g if dataset == "gts" else suite_s3d_512g
    rows, info = benchmark.pedantic(
        sharded_scaling_rows,
        args=(suite, "mloc-col"),
        kwargs={"shard_counts": SHARD_COUNTS, "n_queries": max(N_QUERIES, 3)},
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(format_table(f"sharded_512g_{dataset}", rows))
    record_result(f"sharded_512g_{dataset}", {"rows": rows, **info})
    assert info["identical"], "sharded answers diverged across shard counts"
    speedups = [rows[f"{n} shards"][3] for n in SHARD_COUNTS]
    assert speedups == sorted(speedups), rows
    assert speedups[-1] >= 3.0, rows
