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

from repro.core import MLOCStore, MLOCWriter, mloc_col, multi_variable_query
from repro.core.compound import VariableConstraint, compound_query
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from tests.test_contract_matrix import check, observe, snapshot

#: Level order and curve -> the contract matrix's store of that layout.
LAYOUTS = [
    ("VMS-hilbert", {"kind": "col"}),
    ("VSM-zorder", {"kind": "vsm-zorder"}),
    ("VMS-rowmajor", {"kind": "col-rowmajor"}),
    ("VMS-hierarchical", {"kind": "col-hierarchical"}),
]


class TestValueQueries:
    """Value queries: the ``hbi`` rows of ``tests/test_contract_matrix.py``
    (answers bit-identical, planned work and bytes read never higher)."""

    @pytest.mark.parametrize("label,overrides", LAYOUTS)
    def test_bit_identical_across_layouts(self, label, overrides):
        check("hbi", overrides["kind"])

    @pytest.mark.parametrize("kind", ["col", "iso"], ids=["mloc_col", "mloc_iso"])
    def test_bit_identical_across_exec_backends(self, kind):
        check("hbi+threads-4", kind)

    def test_batch_prunes_like_singles(self):
        """``query_many`` goes through the same narrowing step as
        ``query``: same answers, same chunks proven empty."""
        check("hbi+many", "col")
        *singles, tail = observe("hbi+many", "col")
        pruned = sum(obs["chunks_pruned"] for obs in singles if obs is not None)
        assert pruned > 0  # the requests do exercise the index
        assert tail["batch"]["chunks_pruned"] == pruned

    def test_pinned_snapshot_member_opt_in(self):
        """A sealed member is switched where the snapshot opens it, and
        the default handle of the same snapshot stays flat."""
        check("hbi+member", "col")
        sealed = snapshot("col")
        flat = sealed.store("field", 0)
        assert sealed.store("field", 0, use_hbi=True).use_hbi and not flat.use_hbi
        assert sealed.store("field", 0) is flat


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
