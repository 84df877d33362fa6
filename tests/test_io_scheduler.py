"""Vectored I/O, read coalescing, and cache pinning.

Covers the PFS surface (``SimFileHandle.readv``, ``BlockCache`` pins)
and the :class:`~repro.core.engine.scheduler.IOScheduler` knob end to
end: coalescing may only change the I/O *schedule* — never a
result byte — and ``coalesce_gap=0`` must reproduce the uncoalesced
accounting exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.pfs.blockcache import BlockCache


# ----------------------------------------------------------------------
# SimFileHandle.readv unit contract
# ----------------------------------------------------------------------
def _fs_with_file(payload: bytes, path: str = "/f"):
    fs = SimulatedPFS()
    fs.write_file(path, payload)
    return fs, fs.session()


def test_readv_one_seek_contiguous_transfer():
    payload = bytes(range(200)) * 5  # 1000 bytes
    fs, session = _fs_with_file(payload)
    handle = session.open("/f")
    extents = [(10, 20), (50, 30), (300, 100)]
    seeks0 = session.stats.seeks
    bytes0 = session.stats.bytes_read
    slices = handle.readv(extents)
    assert [bytes(s) for s in slices] == [
        payload[o : o + n] for o, n in extents
    ]
    # One seek, one contiguous transfer spanning first to last extent.
    assert session.stats.seeks - seeks0 == 1
    assert session.stats.bytes_read - bytes0 == 400 - 10
    assert session.stats.vectored_reads == 1


def test_readv_validates_extents():
    payload = b"x" * 100
    fs, session = _fs_with_file(payload)
    handle = session.open("/f")
    with pytest.raises(ValueError):
        handle.readv([(50, 10), (10, 10)])  # not offset-sorted
    with pytest.raises(ValueError):
        handle.readv([(10, -1)])


def test_iostats_copy_and_merge_carry_vectored_reads():
    payload = b"z" * 256
    fs, session = _fs_with_file(payload)
    session.open("/f").readv([(0, 16), (32, 16)])
    snap = session.stats.copy()
    assert snap.vectored_reads == 1
    merged = fs.session().stats
    merged.merge(snap)
    assert merged.vectored_reads == 1


# ----------------------------------------------------------------------
# Engine-level coalescing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built_store():
    fs = SimulatedPFS()
    config = mloc_col(chunk_shape=(32, 32), n_bins=16, target_block_bytes=8 * 1024)
    MLOCWriter(fs, "/store", config).write(
        gts_like((256, 256), seed=7), variable="field"
    )
    return fs


_SC_QUERY = Query(region=((32, 160), (32, 160)), output="values", plod_level=3)


def test_zero_gap_is_identity(built_store):
    """coalesce_gap=0 keeps the exact uncoalesced I/O accounting."""
    fs = built_store
    plain = MLOCStore.open(fs, "/store", "field", n_ranks=4)
    gated = MLOCStore.open(fs, "/store", "field", n_ranks=4, coalesce_gap=0)
    fs.clear_cache()
    a = plain.query(_SC_QUERY)
    fs.clear_cache()
    b = gated.query(_SC_QUERY)
    assert np.array_equal(a.values, b.values)
    for key in ("seeks", "bytes_read", "files_opened", "vectored_reads"):
        assert a.stats[key] == b.stats[key], key
    assert b.stats["coalesced_reads"] == 0
    assert a.times.io == b.times.io


def test_coalescing_reduces_seeks_identical_results(built_store):
    fs = built_store
    plain = MLOCStore.open(fs, "/store", "field", n_ranks=4)
    vectored = MLOCStore.open(
        fs, "/store", "field", n_ranks=4, coalesce_gap=4096
    )
    fs.clear_cache()
    a = plain.query(_SC_QUERY)
    fs.clear_cache()
    b = vectored.query(_SC_QUERY)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.values, b.values)
    assert b.stats["coalesced_reads"] > 0
    assert b.stats["vectored_reads"] > 0
    assert b.stats["seeks"] < a.stats["seeks"]
    # Coalescing may read gap bytes, never fewer than the blocks need.
    assert b.stats["bytes_read"] >= a.stats["bytes_read"]


def test_knob_validation(built_store):
    fs = built_store
    with pytest.raises(ValueError):
        MLOCStore.open(fs, "/store", "field", coalesce_gap=-1)


def test_with_ranks_carries_engine_knobs(built_store):
    fs = built_store
    store = MLOCStore.open(
        fs, "/store", "field", n_ranks=4, coalesce_gap=2048, max_read_retries=5
    )
    view = store.with_ranks(8)
    assert view.execution.coalesce_gap == 2048
    assert view.execution.max_read_retries == 5
    assert view.executor.n_ranks == 8


# ----------------------------------------------------------------------
# BlockCache pinning
# ----------------------------------------------------------------------
def _key(name: str) -> tuple:
    return (0, f"/{name}", 0)


def test_pin_blocks_eviction_and_release_restores_it():
    cache = BlockCache(100)
    cache.put(_key("a"), b"A" * 40)
    cache.put(_key("b"), b"B" * 40)
    assert cache.pin(_key("a"), owner="s1")
    cache.put(_key("c"), b"C" * 40)  # evicts the unpinned LRU victim: "b"
    assert cache.get(_key("a")) is not None
    assert cache.get(_key("b")) is None
    cache.release("s1")
    # "a" is evictable again: the next over-budget put can take it.
    cache.put(_key("d"), b"D" * 40)
    assert cache.get(_key("d")) is not None
    assert cache.stats.current_bytes <= 100


def test_all_pinned_tolerates_overshoot():
    cache = BlockCache(100)
    cache.put(_key("a"), b"A" * 60)
    cache.pin(_key("a"), owner="s")
    cache.put(_key("b"), b"B" * 30)
    cache.pin(_key("b"), owner="s")
    # Re-inserting a pinned key with a larger payload pushes past the
    # budget while everything resident is pinned: the cache tolerates
    # the overshoot instead of evicting a held plane.
    cache.put(_key("b"), b"B" * 50)
    assert cache.get(_key("a")) is not None
    assert cache.get(_key("b")) is not None
    assert cache.stats.current_bytes == 110
    # An unpinned insert is evicted first, restoring the budget.
    cache.put(_key("c"), b"C" * 20)
    assert cache.get(_key("c")) is None
    assert cache.stats.current_bytes == 110


def test_pin_missing_key_is_noop():
    cache = BlockCache(10)
    assert not cache.pin(_key("ghost"), owner="s")
    assert cache.pinned_keys() == []
    assert cache.release("s") == 0


def test_touch_refreshes_recency_without_stats():
    cache = BlockCache(100)
    cache.put(_key("a"), b"A" * 40)
    cache.put(_key("b"), b"B" * 40)
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    assert cache.touch(_key("a"))
    assert not cache.touch(_key("ghost"))
    assert (cache.stats.hits, cache.stats.misses) == (hits0, misses0)
    cache.put(_key("c"), b"C" * 40)  # LRU is now "b", not "a"
    assert cache.get(_key("a")) is not None
    assert cache.get(_key("b")) is None
