"""Tests for PLoD error metrics (Table VI support)."""

import numpy as np
import pytest

from repro.plod.accuracy import relative_errors
from repro.plod.byteplanes import plod_degrade


class TestRelativeErrors:
    def test_basic(self):
        orig = np.array([2.0, 4.0])
        approx = np.array([2.2, 3.8])
        assert np.allclose(relative_errors(orig, approx), [0.1, 0.05])

    def test_zero_original_uses_absolute(self):
        orig = np.array([0.0])
        approx = np.array([0.5])
        assert relative_errors(orig, approx)[0] == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_errors(np.zeros(2), np.zeros(3))


class TestErrorReport:
    def test_full_precision_report(self, rng):
        v = rng.uniform(0, 1, 100)
        assert not relative_errors(v, plod_degrade(v, 7)).any()

    def test_report_fields_consistent(self, rng):
        v = rng.uniform(100, 1000, 10_000)
        rel = relative_errors(v, plod_degrade(v, 2))
        assert 0 < rel.mean() <= rel.max()

    def test_monotone_over_levels(self, rng):
        v = rng.uniform(100, 1000, 5_000)
        maxes = [relative_errors(v, plod_degrade(v, k)).max() for k in range(1, 8)]
        assert all(a >= b for a, b in zip(maxes, maxes[1:]))
        assert maxes[-1] == 0.0
