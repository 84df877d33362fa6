"""Property-based end-to-end tests: random queries vs brute force.

A session-scoped MLOC-COL store over a small GTS field is hammered
with hypothesis-generated value/region constraints; every answer must
match NumPy exactly (the codec is lossless).  This is the strongest
correctness net over the planner + executor + index + codec stack.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Query


@st.composite
def value_ranges(draw):
    lo_q = draw(st.floats(min_value=0.0, max_value=0.95))
    width = draw(st.floats(min_value=0.001, max_value=0.5))
    return lo_q, min(lo_q + width, 1.0)


@st.composite
def regions_256(draw):
    region = []
    for _ in range(2):
        lo = draw(st.integers(min_value=0, max_value=255))
        hi = draw(st.integers(min_value=lo + 1, max_value=256))
        region.append((lo, hi))
    return tuple(region)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(qrange=value_ranges())
def test_random_value_constraints(col_store, gts_small, qrange):
    fs, store = col_store
    flat = gts_small.reshape(-1)
    lo, hi = np.quantile(flat, [qrange[0], qrange[1]])
    result = store.query(Query(value_range=(lo, hi), output="values"))
    expect = np.flatnonzero((flat >= lo) & (flat <= hi))
    assert np.array_equal(result.positions, expect)
    assert np.array_equal(result.values, flat[expect])


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(region=regions_256())
def test_random_regions(col_store, gts_small, region):
    fs, store = col_store
    flat = gts_small.reshape(-1)
    result = store.query(Query(region=region, output="values"))
    mask = np.zeros(gts_small.shape, dtype=bool)
    mask[region[0][0] : region[0][1], region[1][0] : region[1][1]] = True
    expect = np.flatnonzero(mask.reshape(-1))
    assert np.array_equal(result.positions, expect)
    assert np.array_equal(result.values, flat[expect])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(qrange=value_ranges(), region=regions_256())
def test_random_combined_constraints(col_store, gts_small, qrange, region):
    fs, store = col_store
    flat = gts_small.reshape(-1)
    lo, hi = np.quantile(flat, [qrange[0], qrange[1]])
    result = store.query(
        Query(value_range=(lo, hi), region=region, output="values")
    )
    mask = np.zeros(gts_small.shape, dtype=bool)
    mask[region[0][0] : region[0][1], region[1][0] : region[1][1]] = True
    expect = np.flatnonzero(mask.reshape(-1) & (flat >= lo) & (flat <= hi))
    assert np.array_equal(result.positions, expect)
    assert np.array_equal(result.values, flat[expect])


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    region=regions_256(),
    level=st.integers(min_value=1, max_value=7),
)
def test_random_plod_levels_bounded_error(col_store, gts_small, region, level):
    fs, store = col_store
    flat = gts_small.reshape(-1)
    result = store.query(Query(region=region, output="values", plod_level=level))
    truth = flat[result.positions]
    if level == 7:
        assert np.array_equal(result.values, truth)
    else:
        mantissa_bits_kept = max(8 * (level + 1) - 12, 4)
        rel = np.abs(result.values - truth) / np.abs(truth)
        assert rel.max() <= 2.0 ** -(mantissa_bits_kept - 1)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    positions=st.sets(
        st.integers(min_value=0, max_value=256 * 256 - 1), min_size=1, max_size=300
    )
)
def test_random_fetch_positions(col_store, gts_small, positions):
    from repro.index.bitmap import Bitmap

    fs, store = col_store
    flat = gts_small.reshape(-1)
    pos = np.array(sorted(positions), dtype=np.int64)
    bitmap = Bitmap.from_positions(pos, store.n_elements)
    result = store.fetch_positions(bitmap)
    assert np.array_equal(result.positions, pos)
    assert np.array_equal(result.values, flat[pos])
