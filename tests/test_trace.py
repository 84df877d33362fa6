"""Tests for the one cold replay of a query list, ``cold_batch``."""

import numpy as np
import pytest

from repro.core import BatchResult, MLOCStore, MLOCWriter, Query, mloc_col
from repro.core.result import aggregate_stats
from repro.datasets import gts_like
from repro.harness import cold_batch
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def traced_setup():
    fs = SimulatedPFS()
    data = gts_like((128, 128), seed=9)
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    MLOCWriter(fs, "/t", cfg).write(data, variable="f")
    store = MLOCStore.open(fs, "/t", "f", n_ranks=4)
    return fs, data, store


class TestReplay:
    def test_replay_matches_direct(self, traced_setup):
        fs, data, store = traced_setup
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.2, 0.4])
        queries = [
            Query(value_range=(lo, hi), output="positions"),
            Query(region=((16, 48), (0, 64))),
        ]
        report = cold_batch(store, queries)
        assert isinstance(report, BatchResult)
        assert [r.n_results for r in report] == [
            int(((flat >= lo) & (flat <= hi)).sum()),
            32 * 64,
        ]
        assert report.times.total > 0
        # One summary of many: the registry fold, the query count, and
        # the store's quarantine registry.
        assert report.stats == {
            **aggregate_stats(r.stats for r in report),
            "n_queries": 2,
            "quarantined_blocks": 0,
        }

    def test_warm_replay_cheaper(self, traced_setup):
        """``cold_batch`` charges every repeat of a query the same
        ``io``; a plain loop on a warm cache charges less."""
        fs, data, store = traced_setup
        queries = [Query(region=((0, 64), (0, 64)))] * 3
        cold = cold_batch(store, queries)
        assert len({r.times.io for r in cold}) == 1
        fs.clear_cache()
        warm = [store.query(q) for q in queries]
        assert sum(r.times.io for r in warm) < cold.times.io

    def test_cross_layout_replay(self, traced_setup):
        """One query list replays against another level order with
        identical answers."""
        fs, data, store = traced_setup
        cfg = mloc_col(
            chunk_shape=(16, 16), n_bins=8, level_order="VSM", target_block_bytes=4096
        )
        MLOCWriter(fs, "/t2", cfg).write(data, variable="f")
        other = MLOCStore.open(fs, "/t2", "f", n_ranks=4)
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.6, 0.8])
        queries = [Query(value_range=(lo, hi), output="positions")]
        a = cold_batch(store, queries)
        b = cold_batch(other, queries)
        assert [r.n_results for r in a] == [r.n_results for r in b]

    def test_empty_trace(self, traced_setup):
        fs, data, store = traced_setup
        report = cold_batch(store, [])
        assert len(report) == 0 and report.times.total == 0.0
        assert report.stats["n_queries"] == 0
