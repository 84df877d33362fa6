"""Property tests pinning the error-bounded retrieval contract.

Three properties, from strongest to most structural:

* **Accuracy** — for any region and tolerance, ``query(tol=t)``
  returns values whose observed max relative error against the
  full-precision answer is ``<= t``, and the claimed
  ``achieved_bound`` in stats dominates the observed error (the
  engine never claims an accuracy it cannot prove from stored
  bounds — DESIGN.md).
* **Minimality** — the per-chunk level the planner resolves is the
  *shallowest* level whose recorded bound meets ``tol``: one level
  less would exceed it.
* **Exactness escape hatch** — ``tol=0`` is bit-identical to a
  tol-less full-precision query (positions, values, and stats) across
  layouts, space-filling curves, and execution backends.

Value-constrained tol queries get a weaker, still-honest contract:
bin membership is decided on approximate values, so the *position
set* may differ from the exact answer near range edges, but every
returned value is within ``tol`` of the true value at its position.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MLOCStore, Query
from repro.plod.accuracy import relative_errors

TOLS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

_SUPPRESS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def regions_256(draw):
    region = []
    for _ in range(2):
        lo = draw(st.integers(min_value=0, max_value=255))
        hi = draw(st.integers(min_value=lo + 1, max_value=256))
        region.append((lo, hi))
    return tuple(region)


@st.composite
def value_ranges(draw):
    lo_q = draw(st.floats(min_value=0.0, max_value=0.95))
    width = draw(st.floats(min_value=0.001, max_value=0.5))
    return lo_q, min(lo_q + width, 1.0)


# ----------------------------------------------------------------------
# Accuracy contract
# ----------------------------------------------------------------------
@settings(max_examples=30, **_SUPPRESS)
@given(region=regions_256(), tol=st.sampled_from(TOLS))
def test_region_query_meets_tol(col_store, region, tol):
    fs, store = col_store
    query = Query(region=region, output="values")
    full = store.query(query)
    approx = store.query(Query(region=region, output="values", tol=tol))
    assert np.array_equal(approx.positions, full.positions)
    observed = relative_errors(full.values, approx.values)
    worst = float(observed.max()) if observed.size else 0.0
    assert worst <= tol
    # The stamped claim is provable, hence conservative: it must
    # dominate what actually happened.
    assert approx.stats["tol_target"] == tol
    assert approx.stats["achieved_bound"] <= tol
    assert approx.stats["achieved_bound"] >= worst
    assert approx.stats["tol_met"] is True
    hist = approx.stats["levels_histogram"]
    assert sum(hist.values()) == approx.stats["chunks_accessed"]
    assert all(1 <= lv <= 7 for lv in hist)


@settings(max_examples=25, **_SUPPRESS)
@given(qrange=value_ranges(), tol=st.sampled_from(TOLS))
def test_value_query_values_within_tol_of_truth(col_store, gts_small, qrange, tol):
    fs, store = col_store
    flat = gts_small.reshape(-1)
    lo, hi = np.quantile(flat, [qrange[0], qrange[1]])
    approx = store.query(Query(value_range=(lo, hi), output="values", tol=tol))
    observed = relative_errors(flat[approx.positions], approx.values)
    assert (observed.size == 0) or float(observed.max()) <= tol
    assert approx.stats["achieved_bound"] <= tol


@settings(max_examples=15, **_SUPPRESS)
@given(region=regions_256(), tol=st.sampled_from(TOLS[:3]))
def test_progressive_session_converges_to_tol(col_store, region, tol):
    fs, store = col_store
    query = Query(region=region, output="values", tol=tol)
    full = store.query(Query(region=region, output="values"))
    with store.open_session(query) as session:
        steps = list(session.progressive_results())
    assert steps  # at least the initial step
    final = steps[-1]
    assert np.array_equal(final.positions, full.positions)
    observed = relative_errors(full.values, final.values)
    assert (observed.size == 0) or float(observed.max()) <= tol
    assert final.stats["tol_met"] is True
    # Each step honestly discloses whether it met the bound yet.
    for step in steps[:-1]:
        assert "achieved_bound" in step.stats


# ----------------------------------------------------------------------
# Level minimality against the stored bounds
# ----------------------------------------------------------------------
@settings(max_examples=40, **_SUPPRESS)
@given(tol=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_resolved_levels_are_minimal(col_store, tol):
    fs, store = col_store
    table = store.peb
    for metric in ("max_rel", "mean_rel"):
        levels = table.min_level_for(tol, metric)
        assert (table.bound_at(levels, metric) <= tol).all()
        deeper = levels > 1
        if deeper.any():
            shallower = np.where(deeper, levels - 1, levels)
            assert (
                table.bound_at(shallower, metric)[deeper] > tol
            ).all(), "a shallower level would already have met tol"


def test_bounds_monotone_non_increasing(col_store):
    fs, store = col_store
    table = store.peb
    for bounds in (table.max_rel, table.mean_rel):
        assert (np.diff(bounds, axis=0) <= 0).all()
        assert (bounds[-1] == 0.0).all()  # level 7 is exact
    table.validate()


# ----------------------------------------------------------------------
# tol=0 is the exact path, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", ["col_store", "vsm_store", "col_store_3d"])
def test_tol_zero_bit_identical(fixture, request):
    fs, store = request.getfixturevalue(fixture)
    for query in [
        Query(value_range=(0.2, 0.8), output="values"),
        Query(region=((4, 40),) * len(store.meta.shape), output="values"),
    ]:
        fs.clear_cache()
        exact = store.query(query)
        fs.clear_cache()
        zero = store.query(Query(**{**query.__dict__, "tol": 0.0}))
        assert np.array_equal(zero.positions, exact.positions)
        assert np.array_equal(zero.values, exact.values)
        assert zero.stats == exact.stats


@pytest.mark.parametrize(
    "backend,kw",
    [("serial", {}), ("threads", {"workers": 4}), ("processes", {"workers": 2})],
)
def test_tol_zero_bit_identical_across_backends(col_store, backend, kw):
    fs, _ = col_store
    store = MLOCStore.open(fs, "/store", "field", backend=backend, **kw)
    query = Query(value_range=(0.3, 0.7), output="values")
    exact = store.query(query)
    zero = store.query(Query(value_range=(0.3, 0.7), output="values", tol=0.0))
    assert np.array_equal(zero.positions, exact.positions)
    assert np.array_equal(zero.values, exact.values)


# ----------------------------------------------------------------------
# Reading less is the point
# ----------------------------------------------------------------------
def test_loose_tol_reads_strictly_fewer_bytes(col_store):
    fs, store = col_store
    query = Query(region=((0, 256), (0, 256)), output="values")
    fs.clear_cache()
    full = store.query(query)
    fs.clear_cache()
    approx = store.query(Query(region=((0, 256), (0, 256)), output="values", tol=1e-2))
    assert approx.stats["bytes_read"] < full.stats["bytes_read"]
    assert approx.stats["tol_bytes_saved"] > 0


def test_query_is_the_only_carrier_of_tol_and_validates_it(col_store):
    with pytest.raises(ValueError, match="tol must be non-negative"):
        Query(tol=-1e-3)
    with pytest.raises(ValueError, match="tol_metric must be one of"):
        Query(tol=1e-3, tol_metric="median_rel")
    with pytest.raises(TypeError):
        MLOCStore(col_store[0], col_store[1].root, col_store[1].meta, tol=1e-3)
