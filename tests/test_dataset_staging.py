"""The dataset catalog end to end: members enter through ``append`` and
are listed and opened through a pinned snapshot (the manifest record
and commit protocol themselves are ``tests/test_manifest.py``)."""

import numpy as np
import pytest

from repro.core import MLOCDataset, Query, mloc_col, multi_variable_query
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
        report = dataset.append(data, "temp")
        assert report.raw_bytes == data.nbytes
        store = dataset.snapshot().store("temp")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.4, 0.6])
        r = store.query(Query(value_range=(lo, hi), output="positions"))
        assert np.array_equal(r.positions, np.flatnonzero((flat >= lo) & (flat <= hi)))

    def test_timestep_catalog(self, dataset):
        for t in (0, 1, 5):
            dataset.append(gts_like((64, 64), seed=t), "temp", timestep=t)
        dataset.append(gts_like((64, 64), seed=9), "grid_mask")
        snap = dataset.snapshot()
        assert snap.timesteps("temp") == [0, 1, 5]
        assert snap.timesteps("grid_mask") == []
        assert sorted({m.variable for m in snap.members()}) == ["grid_mask", "temp"]
        assert [m.key for m in snap.members()] == [
            "temp@000000", "temp@000001", "temp@000005", "grid_mask",
        ]  # fmt: skip

    def test_timesteps_are_independent_stores(self, dataset):
        a = gts_like((64, 64), seed=1)
        b = gts_like((64, 64), seed=2)
        dataset.append(a, "temp", timestep=0)
        dataset.append(b, "temp", timestep=1)
        snap = dataset.snapshot()
        r0 = snap.store("temp", 0).query(Query(region=((0, 8), (0, 8))))
        r1 = snap.store("temp", 1).query(Query(region=((0, 8), (0, 8))))
        assert np.array_equal(r0.values, a[:8, :8].reshape(-1))
        assert np.array_equal(r1.values, b[:8, :8].reshape(-1))

    def test_multi_variable_query(self, dataset):
        temp = gts_like((64, 64), seed=3)
        hum = gts_like((64, 64), seed=4)
        dataset.append(temp, "temp", timestep=2)
        dataset.append(hum, "humidity", timestep=2)
        snap = dataset.snapshot()
        humidity = snap.store("humidity", 2)
        lo = float(np.quantile(temp, 0.9))
        result = multi_variable_query(
            snap.store("temp", 2), [humidity], (lo, float(temp.max()))
        )
        expect = np.flatnonzero(temp.reshape(-1) >= lo)
        assert np.array_equal(result.positions, expect)
        # member handles are keyed "variable@timestep"
        assert np.array_equal(result.values[humidity.variable], hum.reshape(-1)[expect])

    def test_bad_variable_name(self, dataset):
        with pytest.raises(ValueError, match="must not contain"):
            dataset.append(gts_like((64, 64), seed=0), "a@b")
        assert dataset.generation == 0

    def test_total_bytes(self, dataset):
        """A sealed member's recorded footprint is its write report's
        (Table I) bytes; ``hbi``/``peb`` and the manifests come on top."""
        reports = [dataset.append(gts_like((64, 64), seed=t), "x", t) for t in (0, 1)]
        members = dataset.snapshot().members()
        assert [m.total_bytes for m in members] == [r.total_bytes for r in reports]
        assert 0 < sum(m.total_bytes for m in members) < dataset.fs.total_bytes("/sim/")
