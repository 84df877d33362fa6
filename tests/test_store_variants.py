"""Integration coverage for the remaining layout variants:

V-S-M order, hierarchical curve, Z-order/row-major curves, equal-width
binning, and the fpzip-like / zlib-float codecs — each exercised
through the full write/query path against NumPy ground truth, plus the
subset-resolution x PLoD combination.
"""

import numpy as np
import pytest

from repro.core import MLOCConfig, MLOCStore, MLOCWriter, Query
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS


def build(data, **config_kwargs):
    fs = SimulatedPFS()
    defaults = dict(
        chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096, codec="zlib-bytes"
    )
    defaults.update(config_kwargs)
    config = MLOCConfig(**defaults)
    MLOCWriter(fs, "/v", config).write(data, variable="f")
    return fs, MLOCStore.open(fs, "/v", "f", n_ranks=4)


@pytest.fixture(scope="module")
def data():
    return gts_like((128, 128), seed=11)


def check_all_patterns(fs, store, data):
    flat = data.reshape(-1)
    lo, hi = np.quantile(flat, [0.35, 0.65])
    region = ((24, 104), (8, 120))

    r = store.query(Query(value_range=(lo, hi), output="positions"))
    assert np.array_equal(r.positions, np.flatnonzero((flat >= lo) & (flat <= hi)))

    r = store.query(Query(region=region, output="values"))
    mask = np.zeros(data.shape, dtype=bool)
    mask[24:104, 8:120] = True
    expect = np.flatnonzero(mask.reshape(-1))
    assert np.array_equal(r.positions, expect)
    assert np.array_equal(r.values, flat[expect])

    r = store.query(Query(value_range=(lo, hi), region=region, output="values"))
    expect2 = np.flatnonzero(mask.reshape(-1) & (flat >= lo) & (flat <= hi))
    assert np.array_equal(r.positions, expect2)


class TestLayoutVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"level_order": "VSM"},
            {"curve": "zorder"},
            {"curve": "rowmajor"},
            {"curve": "hierarchical"},
            {"binning": "equal-width"},
            {"level_order": "VS", "codec": "fpzip-like"},
            {"level_order": "VS", "codec": "zlib-float"},
            {"level_order": "VS", "codec": "null-float"},
            {"level_order": "VSM", "curve": "hierarchical", "binning": "equal-width"},
        ],
        ids=lambda k: ",".join(f"{a}={b}" for a, b in k.items()),
    )
    def test_all_patterns(self, data, kwargs):
        fs, store = build(data, **kwargs)
        check_all_patterns(fs, store, data)


class TestSubsetPlusPLoD:
    """Both multiresolution mechanisms composed in one query."""

    @pytest.fixture(scope="class")
    def hier(self, data):
        return build(data, curve="hierarchical")

    def test_resolution_and_plod_compose(self, hier, data):
        fs, store = hier
        flat = data.reshape(-1)
        fs.clear_cache()
        r = store.query(Query(resolution_level=1, output="values", plod_level=2))
        truth = flat[r.positions]
        rel = np.abs(r.values - truth) / np.abs(truth)
        assert 0 < rel.max() < 3e-4
        # Subset level 1 of an 8x8 grid = 4 chunks of 64.
        assert r.n_results == 4 * 16 * 16

    def test_combined_reads_less_than_either_alone(self, hier, data):
        fs, store = hier
        def bytes_for(**q):
            fs.clear_cache()
            return store.query(Query(output="values", **q)).stats["bytes_read"]

        full = bytes_for()
        plod_only = bytes_for(plod_level=2)
        subset_only = bytes_for(resolution_level=1)
        both = bytes_for(plod_level=2, resolution_level=1)
        assert both < plod_only
        assert both < subset_only
        assert subset_only < full and plod_only < full


class TestVSMPlodSemantics:
    def test_vsm_plod_levels_error_monotone(self, data):
        fs, store = build(data, level_order="VSM")
        flat = data.reshape(-1)
        errs = []
        for level in (1, 3, 7):
            fs.clear_cache()
            r = store.query(
                Query(region=((0, 64), (0, 64)), output="values", plod_level=level)
            )
            errs.append(np.abs(r.values - flat[r.positions]).max())
        assert errs[0] > errs[1] > errs[2] == 0.0

    def test_vsm_full_precision_contiguity_advantage(self, data):
        """V-S-M keeps a chunk's bytes together: full-precision access
        needs fewer seeks than under V-M-S (Table VII's mechanism)."""
        fs_vms, store_vms = build(data, level_order="VMS")
        fs_vsm, store_vsm = build(data, level_order="VSM")
        q = Query(region=((0, 64), (0, 64)), output="values", plod_level=7)
        fs_vms.clear_cache()
        seeks_vms = store_vms.query(q).stats["seeks"]
        fs_vsm.clear_cache()
        seeks_vsm = store_vsm.query(q).stats["seeks"]
        assert seeks_vsm <= seeks_vms
