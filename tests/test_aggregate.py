"""Tests for aggregation push-down."""

import numpy as np
import pytest

from repro.core import Query
from repro.core.aggregate import AGGREGATE_OPS, aggregate_query


class TestScalarOps:
    def test_mean_matches_numpy(self, col_store, gts_small):
        fs, store = col_store
        region = ((32, 96), (64, 192))
        result = aggregate_query(store, Query(region=region), "mean")
        truth = gts_small[32:96, 64:192].mean()
        assert result.value == pytest.approx(truth)
        assert result.n_points == 64 * 128

    @pytest.mark.parametrize("op,npfunc", [("sum", np.sum), ("min", np.min), ("max", np.max)])
    def test_reductions(self, col_store, gts_small, op, npfunc):
        fs, store = col_store
        region = ((0, 64), (0, 64))
        result = aggregate_query(store, Query(region=region), op)
        assert result.value == pytest.approx(float(npfunc(gts_small[:64, :64])))

    def test_count_with_vc(self, col_store, gts_small):
        fs, store = col_store
        flat = gts_small.reshape(-1)
        lo, hi = np.quantile(flat, [0.3, 0.6])
        result = aggregate_query(store, Query(value_range=(lo, hi)), "count")
        assert result.value == ((flat >= lo) & (flat <= hi)).sum()

    def test_empty_selection(self, col_store, gts_small):
        fs, store = col_store
        top = float(gts_small.max())
        result = aggregate_query(
            store, Query(value_range=(top + 1, top + 2)), "mean"
        )
        assert result.n_points == 0
        assert np.isnan(result.value)

    def test_output_forced_to_values(self, col_store):
        fs, store = col_store
        result = aggregate_query(
            store, Query(region=((0, 32), (0, 32)), output="positions"), "count"
        )
        assert result.value == 32 * 32


class TestHistogramOp:
    def test_histogram_matches_numpy(self, col_store, gts_small):
        fs, store = col_store
        region = ((0, 128), (0, 128))
        result = aggregate_query(store, Query(region=region), "histogram", n_bins=20)
        counts, edges = result.histogram
        span = (float(store.meta.edges[0]), float(store.meta.edges[-1]))
        expect, _ = np.histogram(gts_small[:128, :128], bins=20, range=span)
        assert np.array_equal(counts, expect)
        assert result.value is None

    def test_explicit_range(self, col_store, gts_small):
        fs, store = col_store
        result = aggregate_query(
            store,
            Query(region=((0, 64), (0, 64))),
            "histogram",
            n_bins=10,
            value_range=(0.0, 10.0),
        )
        counts, edges = result.histogram
        assert edges[0] == 0.0 and edges[-1] == 10.0
        assert counts.sum() <= 64 * 64


class TestPLoDAggregation:
    def test_mean_at_level2_close(self, col_store, gts_small):
        """The paper's motivating use: 3-byte precision is enough for
        mean-value analysis."""
        fs, store = col_store
        region = ((0, 128), (0, 128))
        fs.clear_cache()
        full = aggregate_query(store, Query(region=region), "mean")
        fs.clear_cache()
        lod = aggregate_query(store, Query(region=region, plod_level=2), "mean")
        rel = abs(lod.value - full.value) / abs(full.value)
        assert rel < 1e-4
        # And it reads fewer bytes.
        assert lod.stats["bytes_read"] < full.stats["bytes_read"]


class TestCommunicationSavings:
    def test_comm_smaller_than_full_gather(self, col_store, gts_small):
        fs, store = col_store
        region = ((0, 192), (0, 192))
        fs.clear_cache()
        full = store.query(Query(region=region, output="values"))
        fs.clear_cache()
        agg = aggregate_query(store, Query(region=region), "sum")
        assert agg.times.communication < full.times.communication
        assert agg.stats["gather_bytes_avoided"] > 0

    def test_unknown_op(self, col_store):
        fs, store = col_store
        with pytest.raises(ValueError, match="op must be one of"):
            aggregate_query(store, Query(region=((0, 8), (0, 8))), "median")

    def test_ops_list(self):
        assert set(AGGREGATE_OPS) == {"count", "sum", "mean", "min", "max", "histogram"}


@pytest.mark.parametrize("output", ["values", "positions"])
def test_forcing_values_keeps_the_tol(col_store, output):
    """Only ``output`` is forced: an error-bounded query reads what its
    bound needs and reports its tol rows, whatever output it named."""
    fs, store = col_store
    region = ((0, 128), (0, 128))
    fs.clear_cache()
    want = store.query(Query(region=region, output="values", tol=1e-2))
    fs.clear_cache()
    got = aggregate_query(store, Query(region=region, output=output, tol=1e-2), "mean")
    assert got.stats["tol_target"] == 1e-2
    assert got.stats["bytes_read"] == want.stats["bytes_read"]
    assert got.value == pytest.approx(float(want.values.mean()))
