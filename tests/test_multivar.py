"""Tests for multi-variable access (Section III-D4)."""

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, mloc_col, mloc_iso, multi_variable_query
from repro.datasets import gts_like
from repro.index.bitmap import Bitmap
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def two_vars():
    fs = SimulatedPFS()
    temp = gts_like((128, 128), seed=1)
    humidity = gts_like((128, 128), seed=2)
    cfg = mloc_col((16, 16), n_bins=8, target_block_bytes=4096)
    writer = MLOCWriter(fs, "/mv", cfg)
    writer.write(temp, variable="temp")
    writer.write(humidity, variable="humidity")
    t = MLOCStore.open(fs, "/mv", "temp", n_ranks=4)
    h = MLOCStore.open(fs, "/mv", "humidity", n_ranks=4)
    return fs, temp, humidity, t, h


class TestMultiVariableQuery:
    def test_select_then_fetch(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        flat_t = temp.reshape(-1)
        lo, hi = np.quantile(flat_t, [0.8, 0.95])
        fs.clear_cache()
        result = multi_variable_query(t, [h], value_range=(lo, hi))
        expect = np.flatnonzero((flat_t >= lo) & (flat_t <= hi))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["humidity"], humidity.reshape(-1)[expect])
        assert result.times.communication > 0
        assert result.selections["temp"][0].n_results == expect.size

    def test_with_region(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        flat_t = temp.reshape(-1)
        lo, hi = np.quantile(flat_t, [0.7, 1.0])
        region = ((32, 96), (0, 64))
        fs.clear_cache()
        result = multi_variable_query(t, [h], value_range=(lo, hi), region=region)
        mask = np.zeros(temp.shape, dtype=bool)
        mask[32:96, 0:64] = True
        expect = np.flatnonzero(mask.reshape(-1) & (flat_t >= lo) & (flat_t <= hi))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["humidity"], humidity.reshape(-1)[expect])

    def test_multiple_fetch_stores(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        flat_t = temp.reshape(-1)
        lo, hi = np.quantile(flat_t, [0.9, 1.0])
        result = multi_variable_query(t, [h, t], value_range=(lo, hi))
        # Fetching the selector itself returns values satisfying the VC.
        assert np.all((result.values["temp"] >= lo) & (result.values["temp"] <= hi))
        assert set(result.values) == {"humidity", "temp"}

    def test_empty_selection(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        flat_t = temp.reshape(-1)
        top = float(flat_t.max())
        result = multi_variable_query(t, [h], value_range=(top + 1, top + 2))
        assert result.positions.size == 0
        assert result.values["humidity"].size == 0

    def test_grid_mismatch_rejected(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        other_fs = SimulatedPFS()
        small = gts_like((64, 64), seed=3)
        MLOCWriter(other_fs, "/x", mloc_col((16, 16), n_bins=4)).write(small, "v")
        other = MLOCStore.open(other_fs, "/x", "v")
        with pytest.raises(ValueError, match="grid mismatch"):
            multi_variable_query(t, [other], value_range=(0.0, 1.0))


    def test_same_named_stores_rejected(self, two_vars):
        """Values are keyed by variable name: a second store under the
        selector's name would silently be read as the selector."""
        fs, temp, humidity, t, h = two_vars
        MLOCWriter(fs, "/mv2", mloc_col((16, 16), n_bins=8)).write(humidity, "temp")
        impostor = MLOCStore.open(fs, "/mv2", "temp")
        with pytest.raises(ValueError, match="two different stores"):
            multi_variable_query(t, [impostor], value_range=(0.0, 1.0))


class TestFetchPositions:
    def test_fetch_only_touches_hit_chunks(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        # Positions confined to one chunk.
        positions = np.arange(0, 16) * 128  # column 0 of rows 0..15 -> chunk 0
        bitmap = Bitmap.from_positions(positions, h.n_elements)
        fs.clear_cache()
        result = h.fetch_positions(bitmap)
        assert np.array_equal(result.positions, positions)
        assert result.stats["chunks_accessed"] == 1
        assert np.array_equal(
            result.values, humidity.reshape(-1)[positions]
        )

    def test_fetch_empty_bitmap(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        result = h.fetch_positions(Bitmap(h.n_elements))
        assert result.positions.size == 0
        assert result.values is not None and result.values.size == 0
        # Nothing set -> no chunk visited, no byte read, no block decoded.
        assert result.stats["blocks_planned"] == 0
        assert result.stats["blocks_decoded"] == 0
        assert result.stats["chunks_accessed"] == 0
        assert result.stats["bytes_read"] == 0
        assert result.stats["seeks"] == 0
        assert result.times.io == 0.0
        assert result.times.decompression == 0.0

    def test_fetch_wrong_length_bitmap(self, two_vars):
        _, _, _, _, h = two_vars
        with pytest.raises(ValueError, match="bitmap covers"):
            h.fetch_positions(Bitmap(10))

    def test_fetch_plod_level(self, two_vars):
        fs, temp, humidity, t, h = two_vars
        positions = np.arange(100, 400, 7)
        bitmap = Bitmap.from_positions(positions, h.n_elements)
        result = h.fetch_positions(bitmap, plod_level=2)
        truth = humidity.reshape(-1)[positions]
        rel = np.abs(result.values - truth) / np.abs(truth)
        assert 0 < rel.max() < 3e-4


class TestMixedVariantMultivar:
    def test_col_selects_iso_fetches(self):
        fs = SimulatedPFS()
        a = gts_like((64, 64), seed=5)
        b = gts_like((64, 64), seed=6)
        MLOCWriter(fs, "/m", mloc_col((16, 16), n_bins=4)).write(a, "a")
        MLOCWriter(fs, "/m", mloc_iso((16, 16), n_bins=4)).write(b, "b")
        sa = MLOCStore.open(fs, "/m", "a")
        sb = MLOCStore.open(fs, "/m", "b")
        lo, hi = np.quantile(a.reshape(-1), [0.6, 0.8])
        result = multi_variable_query(sa, [sb], value_range=(lo, hi))
        expect = np.flatnonzero((a.reshape(-1) >= lo) & (a.reshape(-1) <= hi))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["b"], b.reshape(-1)[expect])
