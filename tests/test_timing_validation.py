"""Tests for the argument validation helpers."""

import pytest

from repro.core.chunking import check_shape_chunks


class TestValidation:
    def test_shape_chunks_exact_tiling(self):
        check_shape_chunks((64, 128), (16, 32))
        with pytest.raises(ValueError, match="not a multiple"):
            check_shape_chunks((64, 100), (16, 32))
        with pytest.raises(ValueError, match="rank"):
            check_shape_chunks((64, 64), (16,))
        with pytest.raises(ValueError, match="positive"):
            check_shape_chunks((64,), (0,))
