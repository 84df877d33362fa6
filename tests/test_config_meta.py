"""Tests for MLOCConfig and StoreMeta serialization."""

import numpy as np
import pytest

from repro.core.config import LEVEL_ORDERS, MLOCConfig, mloc_col, mloc_isa, mloc_iso
from repro.core.meta import BlockTable, StoreMeta


class TestConfig:
    def test_defaults(self):
        cfg = MLOCConfig(chunk_shape=(16, 16))
        assert cfg.n_bins == 100
        assert cfg.level_order == "VMS"
        assert cfg.plod_enabled
        assert cfg.n_groups == 7
        assert cfg.group_major

    def test_vs_order_disables_plod(self):
        cfg = MLOCConfig(chunk_shape=(8,), level_order="VS", codec="isobar")
        assert not cfg.plod_enabled
        assert cfg.n_groups == 1
        assert not cfg.group_major

    def test_vsm_order(self):
        cfg = MLOCConfig(chunk_shape=(8,), level_order="VSM")
        assert cfg.plod_enabled
        assert not cfg.group_major

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"level_order": "SVM"},
            {"level_order": "XYZ"},
            {"curve": "peano"},
            {"n_bins": 0},
            {"target_block_bytes": 0},
            {"sample_fraction": 0.0},
            {"sample_fraction": 1.5},
            {"chunk_shape": ()},
            {"chunk_shape": (0, 4)},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(chunk_shape=(16, 16))
        base.update(kwargs)
        with pytest.raises(ValueError):
            MLOCConfig(**base)

    def test_level_orders_exported(self):
        assert set(LEVEL_ORDERS) == {"VMS", "VSM", "VS"}

    def test_presets(self):
        col = mloc_col((8, 8))
        iso = mloc_iso((8, 8))
        isa = mloc_isa((8, 8))
        assert col.codec == "zlib-bytes" and col.plod_enabled
        assert iso.codec == "isobar" and not iso.plod_enabled
        assert isa.codec == "isabela" and not isa.plod_enabled

    def test_preset_overrides(self):
        cfg = mloc_col((8, 8), n_bins=7, curve="zorder")
        assert cfg.n_bins == 7 and cfg.curve == "zorder"

    def test_frozen(self):
        cfg = mloc_col((8, 8))
        with pytest.raises(AttributeError):
            cfg.n_bins = 5


class TestStoreMeta:
    def _make(self) -> StoreMeta:
        cfg = MLOCConfig(chunk_shape=(4, 4), n_bins=2, sample_fraction=0.5)
        counts = np.array([[3, 5], [13, 11]], dtype=np.uint32)  # sums to 32 = 8x4? no
        # shape (8, 4) -> 32 elements, 2 chunks of (4,4)
        meta = StoreMeta(
            variable="v",
            shape=(8, 4),
            config=cfg,
            edges=np.array([0.0, 0.5, 1.0]),
            counts=counts,
            # One block per bin over its 2 chunks x 7 byte-group cells
            # (data) and its 2 chunks (index).
            data_blocks=BlockTable.stack([np.array([[0, 14, 0, 0, 0, 0]])] * 2),
            index_blocks=BlockTable.stack([np.array([[0, 2, 0, 0, 0]])] * 2),
        )
        return meta

    def test_roundtrip(self):
        meta = self._make()
        back = StoreMeta.from_bytes(meta.to_bytes())
        assert back.variable == "v"
        assert back.shape == (8, 4)
        assert back.config == meta.config
        assert np.array_equal(back.counts, meta.counts)
        assert back.n_chunks == 2

    def test_validate_counts_sum(self):
        meta = self._make()
        meta.counts = meta.counts + 1
        with pytest.raises(ValueError, match="counts sum"):
            meta.validate()

    def test_validate_edges_shape(self):
        meta = self._make()
        meta.edges = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="edges shape"):
            meta.validate()

    def test_validate_block_tables(self):
        meta = self._make()
        meta.data_blocks = BlockTable.stack([meta.data_blocks.of_bin(0)])
        with pytest.raises(ValueError, match="one entry per bin"):
            meta.validate()
