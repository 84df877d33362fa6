"""Tests for the multi-variable dataset facade."""

import numpy as np
import pytest

from repro.core import MLOCDataset, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS


@pytest.fixture()
def dataset():
    fs = SimulatedPFS()
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    return MLOCDataset(fs, "/sim", config, n_ranks=4)


class TestMLOCDataset:
    def test_write_and_query_variable(self, dataset):
        data = gts_like((64, 64), seed=1)
        report = dataset.write(data, "temp")
        assert report.raw_bytes == data.nbytes
        store = dataset.store("temp")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.4, 0.6])
        r = store.query(Query(value_range=(lo, hi), output="positions"))
        assert np.array_equal(r.positions, np.flatnonzero((flat >= lo) & (flat <= hi)))

    def test_timestep_catalog(self, dataset):
        for t in (0, 1, 5):
            dataset.write(gts_like((64, 64), seed=t), "temp", timestep=t)
        dataset.write(gts_like((64, 64), seed=9), "grid_mask")
        assert dataset.timesteps("temp") == [0, 1, 5]
        assert "grid_mask" in dataset.variables()
        assert "temp@000005" in dataset.variables()

    def test_timesteps_are_independent_stores(self, dataset):
        a = gts_like((64, 64), seed=1)
        b = gts_like((64, 64), seed=2)
        dataset.write(a, "temp", timestep=0)
        dataset.write(b, "temp", timestep=1)
        r0 = dataset.store("temp", 0).query(Query(region=((0, 8), (0, 8))))
        r1 = dataset.store("temp", 1).query(Query(region=((0, 8), (0, 8))))
        assert np.array_equal(r0.values, a[:8, :8].reshape(-1))
        assert np.array_equal(r1.values, b[:8, :8].reshape(-1))

    def test_rewrite_invalidates_cached_store(self, dataset):
        a = gts_like((64, 64), seed=1)
        dataset.write(a, "temp")
        _ = dataset.store("temp")
        b = a + 1.0
        dataset.write(b, "temp")
        r = dataset.store("temp").query(Query(region=((0, 4), (0, 4))))
        assert np.allclose(r.values, b[:4, :4].reshape(-1))

    def test_multi_variable_query(self, dataset):
        temp = gts_like((64, 64), seed=3)
        hum = gts_like((64, 64), seed=4)
        dataset.write(temp, "temp", timestep=2)
        dataset.write(hum, "humidity", timestep=2)
        lo = float(np.quantile(temp, 0.9))
        result = dataset.multi_variable_query(
            "temp", ["humidity"], (lo, float(temp.max())), timestep=2
        )
        expect = np.flatnonzero(temp.reshape(-1) >= lo)
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["humidity"], hum.reshape(-1)[expect])

    def test_bad_variable_name(self, dataset):
        with pytest.raises(ValueError, match="must not contain"):
            dataset.write(gts_like((64, 64), seed=0), "a@b")

    def test_total_bytes(self, dataset):
        dataset.write(gts_like((64, 64), seed=0), "x")
        assert dataset.total_bytes() > 0
