"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    gts_like,
    s3d_like,
    s3d_velocity_triplet,
)


class TestGtsLike:
    def test_shape_and_dtype(self):
        data = gts_like((64, 96), seed=0)
        assert data.shape == (64, 96)
        assert data.dtype == np.float64

    def test_deterministic(self):
        assert np.array_equal(gts_like((32, 32), seed=5), gts_like((32, 32), seed=5))
        assert not np.array_equal(gts_like((32, 32), seed=5), gts_like((32, 32), seed=6))

    def test_positive_and_bounded(self):
        data = gts_like((64, 64), seed=1)
        assert data.min() > 0.0
        assert data.max() < 10.0

    def test_spatially_smooth(self):
        """Neighbour deltas must be far smaller than the global spread —
        the property that gives Hilbert ordering its payoff."""
        data = gts_like((128, 128), seed=2)
        neighbour = np.abs(np.diff(data, axis=0)).mean()
        spread = data.max() - data.min()
        assert neighbour < 0.05 * spread

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            gts_like((8, 8, 8), seed=0)


class TestS3dLike:
    def test_shape(self):
        data = s3d_like((16, 24, 32), seed=0)
        assert data.shape == (16, 24, 32)

    def test_temperature_range(self):
        data = s3d_like((32, 32, 32), seed=3)
        assert 500.0 < data.min() < data.max() < 2600.0

    def test_flame_front_gradient(self):
        """Axis 0 crosses the flame: the ends differ by ~the full
        burnt/unburnt temperature jump."""
        data = s3d_like((64, 32, 32), seed=1)
        assert data[-4:].mean() - data[:4].mean() > 800.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3-D"):
            s3d_like((8, 8), seed=0)


class TestVelocityTriplet:
    def test_components_and_shapes(self):
        tri = s3d_velocity_triplet((16, 16, 16), seed=0)
        assert set(tri) == {"vu", "vv", "vw"}
        assert all(v.shape == (16, 16, 16) for v in tri.values())

    def test_positive_skewed_distribution(self):
        """Velocities must be positive and long-tailed (mean well below
        the midpoint of the range) for Table VI's error behaviour."""
        tri = s3d_velocity_triplet((24, 24, 24), seed=1)
        for v in tri.values():
            flat = v.reshape(-1)
            assert flat.min() > 0
            assert flat.mean() < 0.35 * flat.max()

    def test_components_correlated_but_distinct(self):
        tri = s3d_velocity_triplet((24, 24, 24), seed=2)
        vv, vw = tri["vv"].reshape(-1), tri["vw"].reshape(-1)
        corr = np.corrcoef(vv, vw)[0, 1]
        assert 0.3 < corr < 0.999
