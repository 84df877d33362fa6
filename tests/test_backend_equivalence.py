"""Serial vs threaded vs process decode backends: identical answers,
identical simulated seconds.

The deterministic components of the cost model — simulated I/O,
modeled decompression, modeled communication — and every result array
must be bit-identical across backends (the backend only changes which
OS threads or worker processes run the pure block decodes).
Reconstruction is measured CPU and therefore only sanity-checked.

The process pool is swept at the constant widths 1, 2, 4 and 8.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_isa, mloc_iso
from repro.datasets import gts_like, s3d_like
from repro.pfs import SimulatedPFS

PROC_WORKER_COUNTS = (1, 2, 4, 8)

QUERIES = [
    Query(value_range=(0.0, 4.5), output="positions"),
    Query(value_range=(2.0, 6.0), output="values"),
    Query(region=((8, 100), (0, 64)), output="values"),
    Query(region=((8, 100), (0, 64)), output="values", plod_level=3),
    Query(value_range=(1.0, 5.0), region=((0, 128), (32, 96)), output="values"),
    Query(value_range=(100.0, 101.0), output="values"),  # empty result
]


def _build(maker, data, chunk_shape):
    fs = SimulatedPFS()
    config = maker(chunk_shape=chunk_shape, n_bins=8, target_block_bytes=8 * 1024)
    MLOCWriter(fs, "/store", config).write(data, variable="field")
    return fs


@pytest.fixture(scope="module")
def col_fs():
    return _build(mloc_col, gts_like((128, 128), seed=5), (32, 32))


@pytest.fixture(scope="module")
def iso_fs():
    return _build(mloc_iso, gts_like((128, 128), seed=5), (32, 32))


def _run_both(fs, query, **store_options):
    serial = MLOCStore.open(fs, "/store", "field", backend="serial", **store_options)
    threaded = MLOCStore.open(
        fs, "/store", "field", backend="threads", workers=4, **store_options
    )
    fs.clear_cache()
    a = serial.query(query)
    fs.clear_cache()
    b = threaded.query(query)
    return a, b


def _assert_equivalent(a, b):
    assert np.array_equal(a.positions, b.positions)
    if a.values is None:
        assert b.values is None
    else:
        assert np.array_equal(a.values, b.values)
    # All four simulated components: exactly equal, not approx.
    assert a.times == b.times
    for key in ("bytes_read", "files_opened", "seeks", "blocks_planned",
                "cache_hits", "cache_misses", "n_results"):
        assert a.stats[key] == b.stats[key], key


@pytest.mark.parametrize("query", QUERIES)
def test_col_backend_equivalence(col_fs, query):
    a, b = _run_both(col_fs, query)
    _assert_equivalent(a, b)
    assert a.stats["backend"] == "serial"
    assert b.stats["backend"] == "threads"


@pytest.mark.parametrize("query", QUERIES[:3])
def test_iso_backend_equivalence(iso_fs, query):
    _assert_equivalent(*_run_both(iso_fs, query))


@pytest.mark.parametrize("query", QUERIES[:3])
def test_equivalence_with_cache(col_fs, query):
    """Cache hit patterns — and therefore warm simulated times — must
    also be backend-independent (insertion order is deterministic)."""
    for _ in range(2):  # cold round, then warm round
        a, b = _run_both(col_fs, query, cache_bytes=32 << 20)
        _assert_equivalent(a, b)


def test_3d_batch_equivalence():
    fs = _build(mloc_col, s3d_like((32, 32, 32), seed=6), (16, 16, 16))
    queries = [
        Query(region=((0, 24), (0, 32), (8, 32)), output="values"),
        Query(region=((4, 28), (0, 32), (8, 32)), output="values"),
        Query(value_range=(0.1, 0.9), output="positions"),
    ]
    serial = MLOCStore.open(fs, "/store", "field", backend="serial")
    threaded = MLOCStore.open(fs, "/store", "field", backend="threads")
    fs.clear_cache()
    batch_a = serial.query_many(queries)
    fs.clear_cache()
    batch_b = threaded.query_many(queries)
    for a, b in zip(batch_a, batch_b):
        _assert_equivalent(a, b)
    assert batch_a.times.io == batch_b.times.io
    assert batch_a.times.decompression == batch_b.times.decompression
    assert batch_a.stats["cache_hits"] == batch_b.stats["cache_hits"]


@pytest.mark.parametrize("workers", PROC_WORKER_COUNTS)
@pytest.mark.parametrize("query", QUERIES[:4])
def test_col_process_backend_equivalence(col_fs, query, workers):
    serial = MLOCStore.open(col_fs, "/store", "field", backend="serial")
    proc = MLOCStore.open(
        col_fs, "/store", "field", backend="processes", workers=workers
    )
    col_fs.clear_cache()
    a = serial.query(query)
    col_fs.clear_cache()
    b = proc.query(query)
    _assert_equivalent(a, b)
    assert b.stats["backend"] == "processes"
    assert b.stats["decode_pool_failures"] == 0


@pytest.mark.parametrize("query", QUERIES[:3])
def test_iso_process_backend_equivalence(iso_fs, query):
    serial = MLOCStore.open(iso_fs, "/store", "field", backend="serial")
    proc = MLOCStore.open(
        iso_fs, "/store", "field", backend="processes", workers=2
    )
    iso_fs.clear_cache()
    a = serial.query(query)
    iso_fs.clear_cache()
    b = proc.query(query)
    _assert_equivalent(a, b)


def test_isa_process_backend_equivalence():
    """A spawned worker decodes MLOC-ISA's spline windows: it imports
    scipy on its first spline evaluation, since importing ``repro``
    no longer loads it."""
    fs = _build(mloc_isa, gts_like((128, 128), seed=5), (32, 32))
    serial = MLOCStore.open(fs, "/store", "field", backend="serial")
    proc = MLOCStore.open(fs, "/store", "field", backend="processes", workers=2)
    fs.clear_cache()
    a = serial.query(QUERIES[2])
    fs.clear_cache()
    b = proc.query(QUERIES[2])
    _assert_equivalent(a, b)
    assert b.stats["decode_pool_failures"] == 0


def test_backend_validation():
    fs = _build(mloc_col, gts_like((64, 64), seed=1), (32, 32))
    with pytest.raises(ValueError, match="backend"):
        MLOCStore.open(fs, "/store", "field", backend="mpi")
    with pytest.raises(ValueError, match="workers"):
        MLOCStore.open(fs, "/store", "field", backend="threads", workers=0)
    with pytest.raises(ValueError, match="workers"):
        MLOCStore.open(fs, "/store", "field", backend="processes", workers=-1)
