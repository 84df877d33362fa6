"""Tests for the argument validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    check_dtype,
    check_positive,
    check_power_of_two,
    check_shape_chunks,
)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    @pytest.mark.parametrize("good", [1, 2, 4, 1024])
    def test_power_of_two_accepts(self, good):
        check_power_of_two("n", good)

    @pytest.mark.parametrize("bad", [0, -2, 3, 6, 1000])
    def test_power_of_two_rejects(self, bad):
        with pytest.raises(ValueError):
            check_power_of_two("n", bad)

    def test_check_dtype(self):
        check_dtype("a", np.zeros(3), np.float64)
        with pytest.raises(TypeError):
            check_dtype("a", np.zeros(3, dtype=np.float32), np.float64)

    def test_shape_chunks_exact_tiling(self):
        check_shape_chunks((64, 128), (16, 32))
        with pytest.raises(ValueError, match="not a multiple"):
            check_shape_chunks((64, 100), (16, 32))
        with pytest.raises(ValueError, match="rank"):
            check_shape_chunks((64, 64), (16,))
        with pytest.raises(ValueError, match="positive"):
            check_shape_chunks((64,), (0,))
