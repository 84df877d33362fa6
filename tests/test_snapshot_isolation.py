"""Snapshot isolation under interleaved appends and queries.

The tentpole property of the appendable-manifest refactor: a reader
pinned at generation ``G`` sees exactly the members sealed at ``G``,
and every query it runs is **bit-identical** to the same query on a
fresh ``MLOCDataset`` open pinned at ``G`` — no matter how many
appends (or refreshes by other readers) happen in between.

Hypothesis drives randomized interleavings: appends land in random
timestep order, queries arrive at random points with random region
constraints, and the reader refreshes its snapshot at random points.
Each query runs through a randomly chosen execution surface — flat
store, a bin-range sharded one, or a ``RefinementSession`` refined to
full precision — all of which must give the same pinned answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MLOCDataset, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS

GRID = (32, 32)
MAX_TIMESTEPS = 4


def _config():
    return mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)


@st.composite
def interleavings(draw):
    """A schedule of append / refresh / query operations."""
    n_timesteps = draw(st.integers(min_value=2, max_value=MAX_TIMESTEPS))
    appends = [("append", t) for t in draw(st.permutations(range(n_timesteps)))]
    n_queries = draw(st.integers(min_value=1, max_value=4))
    ops = list(appends)
    for _ in range(n_queries):
        lo0 = draw(st.integers(min_value=0, max_value=GRID[0] - 9))
        lo1 = draw(st.integers(min_value=0, max_value=GRID[1] - 9))
        size = draw(st.integers(min_value=8, max_value=16))
        mode = draw(st.sampled_from(["flat", "sharded", "session"]))
        region = (
            (lo0, min(lo0 + size, GRID[0])),
            (lo1, min(lo1 + size, GRID[1])),
        )
        pos = draw(st.integers(min_value=0, max_value=len(ops)))
        ops.insert(pos, ("query", (region, mode)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(ops)))
        ops.insert(pos, ("refresh", None))
    return ops


def _run_query(snap, timestep, region, mode):
    """One query through the drawn execution surface."""
    query = Query(region=region, output="values")
    if mode == "sharded":
        store = snap.store("temp", timestep, n_shards=2)
    else:
        store = snap.store("temp", timestep)
    if mode == "session":
        with store.open_session(
            Query(region=region, output="values", plod_level=3)
        ) as session:
            session.refine(7)
            return session.result
    return store.query(query)


@settings(max_examples=15, deadline=None)
@given(ops=interleavings())
def test_queries_bit_identical_to_fresh_pinned_open(ops):
    fs = SimulatedPFS()
    writer_handle = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    reader_handle = MLOCDataset(fs, "/ds", _config(), n_ranks=4, cache_bytes=1 << 20)
    snap = reader_handle.snapshot()
    served = []  # (generation, timestep, region, mode, result)

    for op, arg in ops:
        if op == "append":
            writer_handle.append(gts_like(GRID, seed=arg), "temp", arg)
        elif op == "refresh":
            snap = reader_handle.snapshot()
        else:
            region, mode = arg
            sealed = snap.timesteps("temp")
            if not sealed:
                # nothing sealed in the pinned generation yet: the
                # member must be invisible even if already on disk
                with pytest.raises(KeyError):
                    snap.store("temp", 0)
                continue
            timestep = sealed[len(served) % len(sealed)]
            result = _run_query(snap, timestep, region, mode)
            served.append((snap.generation, timestep, region, mode, result))

    # Pinned-view invariant: the snapshot never saw unsealed members.
    for generation, timestep, region, mode, result in served:
        fresh = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
        expected = _run_query(
            fresh.snapshot(generation=generation), timestep, region, mode
        )
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.values, expected.values)


@settings(max_examples=10, deadline=None)
@given(
    order=st.permutations(range(3)),
    refresh_before_last=st.booleans(),
)
def test_old_snapshot_frozen_while_appends_land(order, refresh_before_last):
    """A snapshot taken at generation 1 answers identically before and
    after every later append, across all three execution surfaces."""
    fs = SimulatedPFS()
    ds = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    first = order[0]
    ds.append(gts_like(GRID, seed=first), "temp", first)
    snap = ds.snapshot()
    region = ((4, 20), (4, 20))
    before = {
        mode: _run_query(snap, first, region, mode)
        for mode in ("flat", "sharded", "session")
    }
    for t in order[1:]:
        if refresh_before_last:
            ds.snapshot()  # other readers advancing changes nothing
        ds.append(gts_like(GRID, seed=t), "temp", t)
    assert snap.timesteps("temp") == [first]
    for mode, expected in before.items():
        again = _run_query(snap, first, region, mode)
        assert np.array_equal(again.positions, expected.positions)
        assert np.array_equal(again.values, expected.values)
