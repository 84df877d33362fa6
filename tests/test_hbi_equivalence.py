"""Bit-identity of hierarchical-index answers (DESIGN.md's rule).

Enabling the hierarchical bitmap index changes plan *work* — chunks
proven empty from interior nodes are never fetched, compound queries
push the running intersection's chunk footprint into later variables —
but never any answer byte.  This suite pins that equivalence across
level orders, space-filling curves, execution backends, and the three
query families (value, compound, multi-variable).
"""

import numpy as np
import pytest

from repro.core import (
    MLOCDataset,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
    mloc_iso,
    multi_variable_query,
)
from repro.core.compound import VariableConstraint, compound_query
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS

CONFIGS = [
    ("VMS-hilbert", dict(level_order="VMS", curve="hilbert")),
    ("VSM-zorder", dict(level_order="VSM", curve="zorder")),
    ("VMS-rowmajor", dict(level_order="VMS", curve="rowmajor")),
    ("VMS-hierarchical", dict(level_order="VMS", curve="hierarchical")),
]

QUERIES = [
    Query(value_range=(0.2, 0.8), output="values"),
    Query(value_range=(0.7, 0.75), output="positions"),
    Query(value_range=(0.1, 0.5), region=((0, 64), (0, 64)), output="values"),
    Query(region=((16, 96), (32, 128)), output="values", plod_level=3),
]


def _write(config, data, fs=None, variable="field"):
    fs = fs if fs is not None else SimulatedPFS()
    MLOCWriter(fs, "/eq", config).write(data, variable=variable)
    return fs


@pytest.fixture(scope="module")
def eq_field() -> np.ndarray:
    return gts_like((128, 128), seed=21)


class TestValueQueries:
    @pytest.mark.parametrize("label,overrides", CONFIGS)
    def test_bit_identical_across_layouts(self, eq_field, label, overrides):
        config = mloc_col((16, 16), n_bins=8, target_block_bytes=4096, **overrides)
        fs = _write(config, eq_field)
        flat = MLOCStore.open(fs, "/eq", "field", n_ranks=4, use_hbi=False)
        hier = MLOCStore.open(fs, "/eq", "field", n_ranks=4, use_hbi=True)
        for query in QUERIES:
            fs.clear_cache()
            r0 = flat.query(query)
            fs.clear_cache()
            r1 = hier.query(query)
            assert np.array_equal(r0.positions, r1.positions), (label, query)
            if r0.values is None:
                assert r1.values is None
            else:
                assert np.array_equal(r0.values, r1.values), (label, query)
            assert r0.stats["chunks_pruned"] == 0
            assert r1.stats["chunks_pruned"] >= 0
            assert r1.stats["bytes_read"] <= r0.stats["bytes_read"]

    @pytest.mark.parametrize("maker", [mloc_col, mloc_iso])
    def test_bit_identical_across_exec_backends(self, eq_field, maker):
        config = maker((16, 16), n_bins=8, target_block_bytes=4096)
        fs = _write(config, eq_field)
        flat = MLOCStore.open(fs, "/eq", "field", backend="serial", use_hbi=False)
        hier = MLOCStore.open(
            fs, "/eq", "field", backend="threads", workers=4, use_hbi=True
        )
        for query in QUERIES:
            fs.clear_cache()
            r0 = flat.query(query)
            fs.clear_cache()
            r1 = hier.query(query)
            assert np.array_equal(r0.positions, r1.positions)
            if r0.values is not None:
                assert np.array_equal(r0.values, r1.values)

    def test_batch_prunes_like_singles(self, eq_field):
        """``query_many`` goes through the same narrowing step as
        ``query``: same answers, same chunks proven empty."""
        config = mloc_col((16, 16), n_bins=8, target_block_bytes=4096)
        fs = _write(config, eq_field)
        hier = MLOCStore.open(fs, "/eq", "field", n_ranks=4, use_hbi=True)
        singles = []
        for query in QUERIES:
            fs.clear_cache()
            singles.append(hier.query(query))
        fs.clear_cache()
        batch = hier.query_many(QUERIES)
        for one, many in zip(singles, batch.results):
            assert np.array_equal(one.positions, many.positions)
            if one.values is None:
                assert many.values is None
            else:
                assert np.array_equal(one.values, many.values)
            assert many.stats["chunks_pruned"] == one.stats["chunks_pruned"]
        pruned = sum(r.stats["chunks_pruned"] for r in singles)
        assert pruned > 0  # the query set does exercise the index
        assert batch.stats["chunks_pruned"] == pruned

    def test_pinned_snapshot_member_opt_in(self, eq_field):
        """A sealed member is switched where the snapshot opens it:
        same answers, never more bytes, and the default handle of the
        same snapshot stays flat."""
        config = mloc_col((16, 16), n_bins=8, target_block_bytes=4096)
        fs = SimulatedPFS()
        dataset = MLOCDataset(fs, "/ds", config)
        dataset.append(eq_field, "field", timestep=0)
        snapshot = dataset.snapshot()
        flat = snapshot.store("field", 0)
        hier = snapshot.store("field", 0, use_hbi=True)
        assert hier.use_hbi and not flat.use_hbi
        assert snapshot.store("field", 0) is flat
        for query in QUERIES:
            fs.clear_cache()
            r0 = flat.query(query)
            fs.clear_cache()
            r1 = hier.query(query)
            assert np.array_equal(r0.positions, r1.positions), query
            if r0.values is None:
                assert r1.values is None
            else:
                assert np.array_equal(r0.values, r1.values), query
            assert r1.stats["n_results"] == r0.stats["n_results"]
            assert r1.stats["bytes_read"] <= r0.stats["bytes_read"]


@pytest.fixture(scope="module")
def tri_var():
    fs = SimulatedPFS()
    # Small blocks so plans resolve to near-chunk granularity: the
    # pushdown prunes chunks, and reads are block-granular, so byte
    # savings require blocks that don't straddle many chunks.
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=512)
    fields = {
        "temp": gts_like((128, 128), seed=1),
        "humidity": gts_like((128, 128), seed=2),
        "pressure": gts_like((128, 128), seed=3),
    }
    writer = MLOCWriter(fs, "/cv", cfg)
    for name, data in fields.items():
        writer.write(data, variable=name)
    return fs, fields


def _open_all(fs, names, use_hbi):
    return {
        name: MLOCStore.open(fs, "/cv", name, n_ranks=4, use_hbi=use_hbi)
        for name in names
    }


class TestCompoundQueries:
    def test_bit_identical_and_never_more_io(self, tri_var):
        fs, fields = tri_var
        t = fields["temp"].reshape(-1)
        h = fields["humidity"].reshape(-1)
        constraints = [
            VariableConstraint.between(
                "temp", *map(float, np.quantile(t, [0.9, 0.97]))
            ),
            VariableConstraint.above("humidity", float(np.quantile(h, 0.5))),
            VariableConstraint.below(
                "pressure", float(np.quantile(fields["pressure"], 0.6))
            ),
        ]
        fs.clear_cache()
        r0 = compound_query(_open_all(fs, fields, False), constraints)
        fs.clear_cache()
        r1 = compound_query(_open_all(fs, fields, True), constraints)
        assert np.array_equal(r0.positions, r1.positions)
        for name in r0.values:
            assert np.array_equal(r0.values[name], r1.values[name])
        assert r0.stats["chunks_pruned"] == 0
        assert r1.stats["chunks_pruned"] > 0
        assert r1.stats["bytes_read"] < r0.stats["bytes_read"]

    def test_union_of_ranges_bit_identical(self, tri_var):
        fs, fields = tri_var
        t = fields["temp"].reshape(-1)
        q = np.quantile(t, [0.05, 0.1, 0.85, 0.9])
        constraints = [
            VariableConstraint(
                "temp",
                ((float(q[0]), float(q[1])), (float(q[2]), float(q[3]))),
            ),
            VariableConstraint.above(
                "humidity", float(np.quantile(fields["humidity"], 0.3))
            ),
        ]
        fs.clear_cache()
        r0 = compound_query(_open_all(fs, fields, False), constraints)
        fs.clear_cache()
        r1 = compound_query(_open_all(fs, fields, True), constraints)
        assert np.array_equal(r0.positions, r1.positions)
        for name in r0.values:
            assert np.array_equal(r0.values[name], r1.values[name])


class TestMultiVariable:
    def test_bit_identical_with_hierarchical_exchange(self, tri_var):
        fs, fields = tri_var
        t = fields["temp"].reshape(-1)
        lo, hi = map(float, np.quantile(t, [0.8, 0.95]))
        flat_stores = _open_all(fs, ["temp", "humidity"], False)
        hier_stores = _open_all(fs, ["temp", "humidity"], True)
        fs.clear_cache()
        r0 = multi_variable_query(
            flat_stores["temp"], [flat_stores["humidity"]], value_range=(lo, hi)
        )
        fs.clear_cache()
        r1 = multi_variable_query(
            hier_stores["temp"], [hier_stores["humidity"]], value_range=(lo, hi)
        )
        assert np.array_equal(r0.positions, r1.positions)
        assert np.array_equal(r0.values["humidity"], r1.values["humidity"])
        # The flat run exchanges the whole-domain WAH payload verbatim;
        # the hierarchical run records both sizes for comparison.
        assert r0.exchange_bytes == r0.flat_exchange_bytes
        assert r1.flat_exchange_bytes == r0.flat_exchange_bytes
        assert r1.exchange_bytes > 0
