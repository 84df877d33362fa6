"""Decoded-block LRU cache: accounting, eviction, thrash, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import BlockCache, SimulatedPFS


def _arr(n_bytes: int) -> np.ndarray:
    return np.zeros(n_bytes, dtype=np.uint8)


class TestBlockCacheUnit:
    def test_hit_miss_accounting(self):
        cache = BlockCache(1024)
        key = (0, "/b/0", 0)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        cache.put(key, _arr(100))
        got = cache.get(key)
        assert isinstance(got, np.ndarray) and got.nbytes == 100
        assert cache.stats.hits == 1
        assert cache.stats.hit_bytes == 100
        assert cache.stats.insertions == 1
        assert cache.stats.current_bytes == 100
        assert len(cache) == 1 and key in cache

    def test_byte_budget_eviction_is_lru_order(self):
        cache = BlockCache(300)
        for i in range(3):
            cache.put((0, "/b", i), _arr(100))
        # Touch key 0 so key 1 becomes the least recently used.
        cache.get((0, "/b", 0))
        cache.put((0, "/b", 3), _arr(100))
        assert cache.stats.evictions == 1
        assert (0, "/b", 1) not in cache
        assert (0, "/b", 0) in cache and (0, "/b", 2) in cache
        assert cache.stats.current_bytes == 300
        # LRU order is oldest-first.
        assert cache.keys()[0] == (0, "/b", 2)

    def test_oversized_entry_rejected(self):
        cache = BlockCache(100)
        cache.put((0, "/b", 0), _arr(50))
        assert not cache.put((0, "/b", 1), _arr(200))
        # The resident entry is untouched: rejecting the oversized block
        # must not thrash the rest of the cache.
        assert (0, "/b", 0) in cache
        assert cache.stats.current_bytes == 50

    def test_replacing_entry_updates_bytes(self):
        cache = BlockCache(1000)
        cache.put((0, "/b", 0), _arr(100))
        cache.put((0, "/b", 0), _arr(300))
        assert cache.stats.current_bytes == 300
        assert len(cache) == 1

    def test_drop_evicts_one_unpinned_entry(self):
        cache = BlockCache(1000)
        cache.put((0, "/a", 0), _arr(10))
        cache.put((0, "/a", 64), _arr(20))
        cache.pin((0, "/a", 64), owner="s")
        assert cache.drop((0, "/a", 0))
        assert (0, "/a", 0) not in cache
        assert cache.stats.current_bytes == 20
        assert cache.stats.evictions == 1
        # Pinned and absent keys refuse.
        assert not cache.drop((0, "/a", 64))
        assert not cache.drop((0, "/ghost", 0))
        assert (0, "/a", 64) in cache
        assert cache.stats.evictions == 1

    def test_entry_nbytes_probe_is_stat_free(self):
        cache = BlockCache(1000)
        cache.put((0, "/a", 0), _arr(42))
        hits0, misses0 = cache.stats.hits, cache.stats.misses
        assert cache.entry_nbytes((0, "/a", 0)) == 42
        assert cache.entry_nbytes((0, "/ghost", 0)) is None
        assert (cache.stats.hits, cache.stats.misses) == (hits0, misses0)

    def test_rejects_bad_budget_and_value(self):
        with pytest.raises(ValueError):
            BlockCache(0)
        cache = BlockCache(10)
        with pytest.raises(TypeError):
            cache.put((0, "/b", 0), object())


def _write(fs, root, data, **config_overrides):
    config = mloc_col(
        chunk_shape=(32, 32),
        n_bins=8,
        target_block_bytes=8 * 1024,
        **config_overrides,
    )
    MLOCWriter(fs, root, config).write(data, variable="field")


class TestStoreCache:
    def _fs_data(self):
        fs = SimulatedPFS()
        data = gts_like((128, 128), seed=3)
        _write(fs, "/store", data)
        return fs, data

    def test_repeat_query_hits_and_skips_io_and_decode(self):
        fs, _ = self._fs_data()
        store = MLOCStore.open(fs, "/store", "field", cache_bytes=64 << 20)
        q = Query(value_range=(0.0, 5.0), region=((0, 96), (16, 128)), output="values")
        fs.clear_cache()
        cold = store.query(q)
        fs.clear_cache()
        warm = store.query(q)
        assert cold.stats["cache_misses"] > 0
        assert warm.stats["cache_hits"] == (
            cold.stats["cache_hits"] + cold.stats["cache_misses"]
        )
        assert warm.stats["cache_misses"] == 0
        # Warm hits skip both the simulated I/O and the modeled decode.
        assert warm.stats["bytes_read"] == 0
        assert warm.stats["files_opened"] == 0
        assert warm.times.io < cold.times.io
        assert warm.times.decompression == 0.0
        # And the answers are identical.
        assert np.array_equal(cold.positions, warm.positions)
        assert np.array_equal(cold.values, warm.values)

    def test_one_block_cache_thrash_is_still_correct(self):
        fs, _ = self._fs_data()
        uncached = MLOCStore.open(fs, "/store", "field")
        # Budget of one decoded block: almost everything evicts, but
        # results must be unchanged.
        thrashed = MLOCStore.open(fs, "/store", "field", cache_bytes=8 * 1024)
        q = Query(value_range=(0.0, 5.0), output="values")
        fs.clear_cache()
        expected = uncached.query(q)
        for _ in range(2):
            fs.clear_cache()
            got = thrashed.query(q)
            assert np.array_equal(expected.positions, got.positions)
            assert np.array_equal(expected.values, got.values)
        assert thrashed.cache.stats.current_bytes <= 8 * 1024
        assert thrashed.cache.stats.evictions > 0

    def test_rewritten_store_does_not_serve_stale_blocks(self):
        fs = SimulatedPFS()
        data_a = gts_like((128, 128), seed=3)
        _write(fs, "/store", data_a)
        cache = BlockCache(64 << 20)
        store_a = MLOCStore.open(fs, "/store", "field", cache=cache)
        q = Query(region=((0, 64), (0, 64)), output="values")
        a = store_a.query(q)
        assert cache.stats.insertions > 0

        # Rewrite the same paths with different data, reopen, share the
        # same cache object: the new generation must miss everything.
        data_b = gts_like((128, 128), seed=99)
        for path in [p for p in fs.list_files() if p.startswith("/store/")]:
            fs.delete(path)
        _write(fs, "/store", data_b)
        store_b = MLOCStore.open(fs, "/store", "field", cache=cache)
        assert store_b.executor.generation != store_a.executor.generation
        b = store_b.query(q)
        assert b.stats["cache_hits"] == 0
        expected = MLOCStore.open(fs, "/store", "field").query(q)
        assert np.array_equal(b.positions, expected.positions)
        assert np.array_equal(b.values, expected.values)

    def test_cache_disabled_by_default(self):
        fs, _ = self._fs_data()
        store = MLOCStore.open(fs, "/store", "field")
        assert store.cache is None
        result = store.query(Query(region=((0, 32), (0, 32)), output="values"))
        assert result.stats["cache_hits"] == 0
