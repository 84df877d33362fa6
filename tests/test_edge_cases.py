"""Edge-case integration tests across the MLOC stack."""

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_iso
from repro.datasets import gts_like
from repro.pfs import PFSCostModel, SimulatedPFS


class TestOneDimensionalData:
    def test_1d_roundtrip(self):
        """The paper's GTS data is natively 1-D; the stack must handle
        rank-1 arrays end to end."""
        fs = SimulatedPFS()
        rng = np.random.default_rng(0)
        data = np.cumsum(rng.normal(0, 0.1, 4096)) + 10.0
        cfg = mloc_iso(chunk_shape=(256,), n_bins=8, target_block_bytes=4096)
        MLOCWriter(fs, "/d1", cfg).write(data, variable="signal")
        store = MLOCStore.open(fs, "/d1", "signal", n_ranks=2)
        lo, hi = np.quantile(data, [0.3, 0.5])
        r = store.query(Query(value_range=(lo, hi), output="values"))
        expect = np.flatnonzero((data >= lo) & (data <= hi))
        assert np.array_equal(r.positions, expect)
        assert np.array_equal(r.values, data[expect])
        r2 = store.query(Query(region=((1000, 2000),), output="values"))
        assert np.array_equal(r2.values, data[1000:2000])


class TestSingleChunkAndSingleBin:
    def test_single_chunk_store(self):
        fs = SimulatedPFS()
        data = gts_like((32, 32), seed=1)
        cfg = mloc_col(chunk_shape=(32, 32), n_bins=4, target_block_bytes=2048)
        MLOCWriter(fs, "/one", cfg).write(data, variable="f")
        store = MLOCStore.open(fs, "/one", "f")
        r = store.query(Query(region=((0, 32), (0, 32)), output="values"))
        assert np.array_equal(r.values, data.reshape(-1))

    def test_single_bin_store(self):
        fs = SimulatedPFS()
        data = gts_like((64, 64), seed=2)
        cfg = mloc_iso(chunk_shape=(16, 16), n_bins=1, target_block_bytes=4096)
        MLOCWriter(fs, "/bin1", cfg).write(data, variable="f")
        store = MLOCStore.open(fs, "/bin1", "f")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.2, 0.8])
        r = store.query(Query(value_range=(lo, hi), output="positions"))
        assert np.array_equal(r.positions, np.flatnonzero((flat >= lo) & (flat <= hi)))


class TestExtremeConstraints:
    @pytest.fixture(scope="class")
    def store(self):
        fs = SimulatedPFS()
        data = gts_like((128, 128), seed=3)
        cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
        MLOCWriter(fs, "/x", cfg).write(data, variable="f")
        return fs, data, MLOCStore.open(fs, "/x", "f", n_ranks=4)

    def test_infinite_value_range(self, store):
        fs, data, s = store
        r = s.query(Query(value_range=(-np.inf, np.inf), output="positions"))
        assert r.n_results == data.size
        # Every bin is aligned for an unbounded constraint.
        assert r.stats["aligned_bins"] == r.stats["bins_accessed"]

    def test_point_value_constraint(self, store):
        fs, data, s = store
        target = float(data[5, 5])
        r = s.query(Query(value_range=(target, target), output="positions"))
        assert (5 * 128 + 5) in r.positions.tolist()
        flat = data.reshape(-1)
        assert np.array_equal(r.positions, np.flatnonzero(flat == target))

    def test_full_domain_region(self, store):
        fs, data, s = store
        r = s.query(Query(region=((0, 128), (0, 128)), output="values"))
        assert np.array_equal(r.values, data.reshape(-1))

    def test_region_of_one_chunk_row(self, store):
        fs, data, s = store
        r = s.query(Query(region=((0, 16), (0, 128)), output="values"))
        assert r.n_results == 16 * 128

    def test_constraint_below_all_values(self, store):
        fs, data, s = store
        below = float(data.min()) - 10.0
        r = s.query(Query(value_range=(below - 1, below), output="positions"))
        assert r.n_results == 0

    def test_more_ranks_than_blocks(self, store):
        fs, data, s = store
        many = s.with_ranks(64)
        lo, hi = np.quantile(data.reshape(-1), [0.50, 0.51])
        r = many.query(Query(value_range=(lo, hi), region=((0, 16), (0, 16))))
        flat = data.reshape(-1)
        mask = np.zeros(data.shape, bool)
        mask[:16, :16] = True
        expect = np.flatnonzero(mask.reshape(-1) & (flat >= lo) & (flat <= hi))
        assert np.array_equal(r.positions, expect)


class TestCostModelPropagation:
    def test_byte_scale_scales_query_times(self):
        data = gts_like((64, 64), seed=4)
        cfg = mloc_iso(chunk_shape=(16, 16), n_bins=4, target_block_bytes=4096)
        totals = {}
        for scale in (1.0, 64.0):
            fs = SimulatedPFS(PFSCostModel(byte_scale=scale))
            MLOCWriter(fs, "/s", cfg).write(data, variable="f")
            store = MLOCStore.open(fs, "/s", "f", n_ranks=2)
            fs.clear_cache()
            r = store.query(Query(region=((0, 32), (0, 32)), output="values"))
            totals[scale] = r.times
        # Transfer-bound components scale with the factor.
        assert totals[64.0].decompression == pytest.approx(
            64 * totals[1.0].decompression, rel=1e-6
        )
        assert totals[64.0].reconstruction == pytest.approx(
            64 * totals[1.0].reconstruction, rel=1e-6
        )
        assert totals[1.0].reconstruction > 0
        assert totals[64.0].io > totals[1.0].io
