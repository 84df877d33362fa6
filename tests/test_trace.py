"""Tests for query-trace recording and replay."""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.core import BatchResult, MLOCStore, MLOCWriter, Query, mloc_col
from repro.core.result import aggregate_stats
from repro.datasets import gts_like
from repro.harness.trace import QueryTrace, replay_trace
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def traced_setup():
    fs = SimulatedPFS()
    data = gts_like((128, 128), seed=9)
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    MLOCWriter(fs, "/t", cfg).write(data, variable="f")
    store = MLOCStore.open(fs, "/t", "f", n_ranks=4)
    return fs, data, store


class TestQueryTraceSerialization:
    def test_roundtrip(self, tmp_path):
        trace = QueryTrace()
        trace.append(Query(value_range=(1.0, 2.0), output="positions"))
        trace.append(Query(region=((0, 8), (4, 12)), plod_level=2))
        trace.append(Query(value_range=(0.5, 1.5), region=((0, 16), (0, 16))))
        path = tmp_path / "trace.json"
        trace.save(path)
        back = QueryTrace.load(path)
        assert len(back) == 3
        assert back.queries[0] == trace.queries[0]
        assert back.queries[1] == trace.queries[1]
        assert back.queries[2] == trace.queries[2]

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "queries": []}')
        with pytest.raises(ValueError, match="trace version"):
            QueryTrace.load(path)

    def test_resolution_level_preserved(self, tmp_path):
        trace = QueryTrace([Query(resolution_level=2)])
        path = tmp_path / "t.json"
        trace.save(path)
        assert QueryTrace.load(path).queries[0].resolution_level == 2


    def test_every_query_field_round_trips(self, tmp_path):
        """Over ``dataclasses.fields(Query)``: a saved error-bounded
        session must not replay at full precision, and a field added to
        ``Query`` is either covered here or fails here."""
        values = {
            "value_range": (0.25, 0.75),
            "region": ((0, 8), (4, 12)),
            "output": "positions",
            "plod_level": 3,
            "resolution_level": 2,
            "tol": 1e-3,
            "tol_metric": "mean_rel",
        }
        assert set(values) == {f.name for f in fields(Query)}
        assert all(values[f.name] != f.default for f in fields(Query))
        path = tmp_path / "t.json"
        QueryTrace([Query(**values), Query()]).save(path)
        assert QueryTrace.load(path).queries == [Query(**values), Query()]

    def test_fields_an_older_trace_lacks_take_their_defaults(self, tmp_path):
        path = tmp_path / "old.json"
        old = {"value_range": [1.0, 2.0], "region": None, "output": "values",
               "plod_level": 4, "resolution_level": None}  # fmt: skip
        path.write_text(json.dumps({"version": 1, "queries": [old]}))
        assert QueryTrace.load(path).queries == [Query(value_range=(1.0, 2.0), plod_level=4)]


class TestReplay:
    def test_replay_matches_direct(self, traced_setup):
        fs, data, store = traced_setup
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.2, 0.4])
        trace = QueryTrace(
            [
                Query(value_range=(lo, hi), output="positions"),
                Query(region=((16, 48), (0, 64))),
            ]
        )
        report = replay_trace(store, trace)
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
        fs, data, store = traced_setup
        trace = QueryTrace([Query(region=((0, 64), (0, 64)))] * 3)
        cold = replay_trace(store, trace, cold_cache=True)
        warm = replay_trace(store, trace, cold_cache=False)
        assert warm.times.io < cold.times.io

    def test_cross_layout_replay(self, traced_setup, tmp_path):
        """A trace captured against one order replays against another
        with identical answers."""
        fs, data, store = traced_setup
        cfg = mloc_col(
            chunk_shape=(16, 16), n_bins=8, level_order="VSM", target_block_bytes=4096
        )
        MLOCWriter(fs, "/t2", cfg).write(data, variable="f")
        other = MLOCStore.open(fs, "/t2", "f", n_ranks=4)
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.6, 0.8])
        trace = QueryTrace([Query(value_range=(lo, hi), output="positions")])
        a = replay_trace(store, trace)
        b = replay_trace(other, trace)
        assert [r.n_results for r in a] == [r.n_results for r in b]

    def test_empty_trace(self, traced_setup):
        fs, data, store = traced_setup
        report = replay_trace(store, QueryTrace())
        assert len(report) == 0 and report.times.total == 0.0
        assert report.stats["n_queries"] == 0
