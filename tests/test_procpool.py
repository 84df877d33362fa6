"""Process-pool unit and fault tests: ordering, crash recovery, fallback.

Two layers of coverage for the shared-nothing ``processes`` backend:

* the pool itself — results in submission order, spec semantics
  identical to inline :func:`run_task`, a crashed worker raising
  :class:`PoolBrokenError` exactly once and the pool recovering on the
  next batch (never hanging, never dropping work);
* the query engine — a broken pool mid-decode falls back inline, the
  answer stays bit-identical to serial, and the failure is disclosed
  through ``stats["decode_pool_failures"]``.

The real-crash tests use the ``("__crash__",)`` spec (worker calls
``os._exit``); the engine tests monkeypatch the pool instead so the
*point* of failure is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import make_codec
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.index.binindex import decode_position_block_flat, encode_position_block
from repro.parallel.procpool import (
    PoolBrokenError,
    ProcessPool,
    get_pool,
    run_task,
)
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def pool():
    """A private pool so crash tests never reset the shared ones."""
    p = ProcessPool(2)
    yield p
    p.shutdown()


def _decode_tasks(n):
    """``n`` byte-plane decode tasks of distinct sizes."""
    rng = np.random.default_rng(3)
    codec = make_codec("zlib-bytes", level=6)
    tasks = []
    for i in range(n):
        raw = rng.integers(0, 50, size=512 + i, dtype=np.uint8)
        spec = ("bytes", "zlib-bytes", (("level", 6),), raw.size)
        tasks.append((spec, codec.encode(raw)))
    return tasks


def _assert_same(got, tasks):
    want = [run_task(t) for t in tasks]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Pool semantics
# ----------------------------------------------------------------------
class TestPoolSemantics:
    def test_results_in_submission_order(self, pool):
        tasks = _decode_tasks(12)
        _assert_same(pool.run_tasks(tasks), tasks)

    def test_decode_specs_match_inline(self, pool):
        rng = np.random.default_rng(4)
        planes = rng.integers(0, 8, size=2048, dtype=np.uint8)
        floats = rng.normal(size=512)
        parts = [np.flatnonzero(rng.random(64) < 0.4) for _ in range(5)]
        counts = np.array([len(p) for p in parts], dtype=np.uint32)
        tasks = [
            (("bytes", "zlib-bytes", (), planes.size),
             make_codec("zlib-bytes").encode(planes)),
            (("float", "zlib-float", (), floats.size),
             make_codec("zlib-float").encode(floats)),
            (("index", counts), encode_position_block(parts)),
        ]
        got = pool.run_tasks(tasks)
        assert np.array_equal(got[0], planes)
        assert np.array_equal(got[1], floats)
        # The worker returns the checked block; its full positions are
        # the inline decode.
        assert np.array_equal(
            got[2].positions(), decode_position_block_flat(tasks[2][1], counts)
        )

    def test_task_errors_propagate_without_breaking_pool(self, pool):
        before = pool.broken_batches
        with pytest.raises(ValueError, match="unknown task spec"):
            pool.run_tasks([(("no-such-kind",), b"")])
        assert pool.broken_batches == before  # error != pool death
        _assert_same(pool.run_tasks(_decode_tasks(2)), _decode_tasks(2))

    def test_worker_crash_raises_and_pool_recovers(self, pool):
        """A worker dying mid-batch surfaces as PoolBrokenError (never a
        hang, never a silently short result list) and the pool is usable
        again on the very next batch."""
        before = pool.broken_batches
        tasks = _decode_tasks(3)
        tasks.insert(1, (("__crash__",), None))
        with pytest.raises(PoolBrokenError):
            pool.run_tasks(tasks)
        assert pool.broken_batches == before + 1
        # Recovery: a fresh batch on the same ProcessPool object works.
        good = _decode_tasks(4)
        _assert_same(pool.run_tasks(good), good)
        assert pool.broken_batches == before + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPool(0)
        with pytest.raises(ValueError, match="unknown task spec"):
            run_task((("bogus", 1), b""))

    def test_shared_pools_keyed_by_width(self):
        assert get_pool(3) is get_pool(3)
        assert get_pool(3) is not get_pool(5)


# ----------------------------------------------------------------------
# Engine fallback: broken pool mid-query never changes the answer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def store_fs():
    fs = SimulatedPFS()
    config = mloc_col(
        chunk_shape=(32, 32), n_bins=8, target_block_bytes=8 * 1024
    )
    MLOCWriter(fs, "/store", config).write(
        gts_like((128, 128), seed=9), variable="field"
    )
    return fs


def _broken(monkeypatch, method):
    def boom(self, *args, **kwargs):
        raise PoolBrokenError("injected pool death")

    monkeypatch.setattr(ProcessPool, method, boom)


class TestEngineFallback:
    def test_broken_pool_falls_back_bit_identical(self, store_fs, monkeypatch):
        query = Query(value_range=(2.0, 6.0), output="values")
        serial = MLOCStore.open(store_fs, "/store", "field", backend="serial")
        store_fs.clear_cache()
        expected = serial.query(query)

        _broken(monkeypatch, "run_tasks")
        proc = MLOCStore.open(
            store_fs, "/store", "field", backend="processes", workers=2
        )
        store_fs.clear_cache()
        result = proc.query(query)

        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.values, expected.values)
        assert result.times.io == expected.times.io
        assert result.times.decompression == expected.times.decompression
        assert result.stats["backend"] == "processes"
        assert result.stats["decode_pool_failures"] == 1

    def test_pool_failures_sum_across_batch(self, store_fs, monkeypatch):
        _broken(monkeypatch, "run_tasks")
        proc = MLOCStore.open(
            store_fs, "/store", "field", backend="processes", workers=2
        )
        store_fs.clear_cache()
        batch = proc.query_many(
            [
                Query(value_range=(2.0, 6.0), output="values"),
                Query(region=((8, 100), (0, 64)), output="values"),
            ]
        )
        assert batch.stats["decode_pool_failures"] == 2
        assert batch.stats["n_results"] > 0

    def test_healthy_pool_reports_zero_failures(self, store_fs):
        proc = MLOCStore.open(
            store_fs, "/store", "field", backend="processes", workers=2
        )
        store_fs.clear_cache()
        result = proc.query(Query(value_range=(2.0, 6.0), output="values"))
        assert result.stats["decode_pool_failures"] == 0
