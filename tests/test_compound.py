"""Tests for compound multivariate constraints."""

import numpy as np
import pytest

from repro.core import MLOCDataset, mloc_col
from repro.core.compound import (
    CompoundResult,
    VariableConstraint,
    compound_query,
)
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def tri_var():
    fs = SimulatedPFS()
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    dataset = MLOCDataset(fs, "/cv", cfg, n_ranks=4)
    fields = {
        "temp": gts_like((128, 128), seed=1),
        "humidity": gts_like((128, 128), seed=2),
        "pressure": gts_like((128, 128), seed=3),
    }
    for name, data in fields.items():
        dataset.append(data, name)
    snapshot = dataset.snapshot()
    stores = {name: snapshot.store(name) for name in fields}
    return fs, fields, stores


class TestVariableConstraint:
    def test_helpers(self):
        c = VariableConstraint.above("t", 5.0)
        assert c.ranges == ((5.0, np.inf),)
        c = VariableConstraint.below("t", 5.0)
        assert c.ranges == ((-np.inf, 5.0),)
        c = VariableConstraint.between("t", 1.0, 2.0)
        assert c.ranges == ((1.0, 2.0),)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            VariableConstraint("t", ())
        with pytest.raises(ValueError, match="empty range"):
            VariableConstraint("t", ((2.0, 1.0),))


class TestConjunction:
    def test_two_variable_and(self, tri_var):
        fs, fields, stores = tri_var
        t, h = fields["temp"].reshape(-1), fields["humidity"].reshape(-1)
        t_lo = float(np.quantile(t, 0.6))
        h_lo = float(np.quantile(h, 0.6))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", t_lo),
                VariableConstraint.above("humidity", h_lo),
            ],
        )
        expect = np.flatnonzero((t >= t_lo) & (h >= h_lo))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["temp"], t[expect])
        assert np.array_equal(result.values["humidity"], h[expect])

    def test_three_variable_and_with_region(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        h = fields["humidity"].reshape(-1)
        p = fields["pressure"].reshape(-1)
        t_lo = float(np.quantile(t, 0.5))
        h_lo = float(np.quantile(h, 0.5))
        p_hi = float(np.quantile(p, 0.5))
        region = ((16, 112), (32, 96))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", t_lo),
                VariableConstraint.above("humidity", h_lo),
                VariableConstraint.below("pressure", p_hi),
            ],
            fetch=["pressure"],
            region=region,
        )
        mask = np.zeros((128, 128), dtype=bool)
        mask[16:112, 32:96] = True
        expect = np.flatnonzero(
            mask.reshape(-1) & (t >= t_lo) & (h >= h_lo) & (p <= p_hi)
        )
        assert np.array_equal(result.positions, expect)
        assert list(result.values) == ["pressure"]
        assert np.array_equal(result.values["pressure"], p[expect])

    def test_empty_conjunction_short_circuits(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        impossible = float(t.max()) + 5.0
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", impossible),
                VariableConstraint.above("humidity", -np.inf),
            ],
        )
        assert result.n_results == 0
        # The humidity region-only step must have been skipped.
        assert "humidity" not in result.selections


class TestRangeUnions:
    def test_union_of_ranges(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        q = np.quantile(t, [0.1, 0.2, 0.8, 0.9])
        result = compound_query(
            stores,
            [VariableConstraint("temp", ((q[0], q[1]), (q[2], q[3])))],
        )
        expect = np.flatnonzero(
            ((t >= q[0]) & (t <= q[1])) | ((t >= q[2]) & (t <= q[3]))
        )
        assert np.array_equal(result.positions, expect)
        assert len(result.selections["temp"]) == 2


class TestOrderingAndValidation:
    def test_most_selective_evaluated_first(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        h = fields["humidity"].reshape(-1)
        narrow = float(np.quantile(h, 0.99))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", float(np.quantile(t, 0.1))),
                VariableConstraint.above("humidity", narrow),
            ],
        )
        # Both evaluated (no empty short-circuit) but correct anyway.
        expect = np.flatnonzero((t >= np.quantile(t, 0.1)) & (h >= narrow))
        assert np.array_equal(result.positions, expect)

    def test_duplicate_variable_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="duplicate"):
            compound_query(
                stores,
                [
                    VariableConstraint.above("temp", 0.0),
                    VariableConstraint.below("temp", 1.0),
                ],
            )

    def test_missing_store_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="no store"):
            compound_query(stores, [VariableConstraint.above("vorticity", 0.0)])
        with pytest.raises(ValueError, match="no store"):
            compound_query(
                stores,
                [VariableConstraint.above("temp", 0.0)],
                fetch=["vorticity"],
            )

    def test_empty_constraints_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="at least one"):
            compound_query(stores, [])

    def test_times_accumulate(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        fs.clear_cache()
        result = compound_query(
            stores, [VariableConstraint.above("temp", float(np.quantile(t, 0.9)))]
        )
        assert result.times.total > 0
        assert result.times.communication > 0
        assert isinstance(result, CompoundResult)
