"""Progressive refinement sessions.

The engine-level contract of :class:`~repro.core.engine.session.
RefinementSession` — every step at PLoD level *k* returns exactly what
a fresh single-shot query at level *k* returns, while never fetching
more, because held planes are never re-fetched (the session-reuse rule
of DESIGN.md §engine) — is checked by the ``session`` rows of
``tests/test_contract_matrix.py``.  This file holds the rest: refine
validation, whole-value layouts, sticky faults and the reuse counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_isa, mloc_iso
from repro.core.result import aggregate_stats
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS
from tests.test_contract_matrix import check

LEVEL_STEPS = (2, 4, 7)


def _build(config, data=None):
    data = gts_like((64, 64), seed=11) if data is None else data
    fs = SimulatedPFS()
    MLOCWriter(fs, "/store", config).write(data, variable="field")
    return fs, data


#: Level order and curve -> the contract matrix's store of that layout.
SESSION_LAYOUTS = {
    "VMS-hilbert": "col-64",
    "VMS-hierarchical": "col-64-hierarchical",
    "VSM-hilbert": "vsm-64",
    "VSM-hierarchical": "vsm-64-hierarchical",
}


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("query_proto", ["value", "region"])
@pytest.mark.parametrize("config", SESSION_LAYOUTS)
def test_steps_bit_identical_to_single_shot(config, query_proto, backend):
    """The contract matrix's ``session`` cell of this layout and
    backend, on the steps of the ``query_proto`` session: each equals a
    fresh query at its level, and together they read fewer bytes."""
    steps = range(3) if query_proto == "value" else range(3, 6)
    row = "session" if backend == "serial" else "session+threads-4"
    check(row, SESSION_LAYOUTS[config], only=steps)


def test_refine_validation():
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    store = MLOCStore.open(fs, "/store", "field", n_ranks=4)
    session = store.open_session(Query(region=((0, 32), (0, 32)), plod_level=3))
    with pytest.raises(ValueError, match="to_level"):
        session.refine(3)  # not strictly deeper
    with pytest.raises(ValueError, match="to_level"):
        session.refine(2)
    with pytest.raises(ValueError):
        session.refine(8)  # beyond full precision
    session.refine(5)
    assert session.level == 5
    session.close()
    with pytest.raises(ValueError, match="closed"):
        session.refine(6)
    session.close()  # idempotent


@pytest.mark.parametrize("maker", [mloc_iso, mloc_isa], ids=["iso", "isa"])
def test_refine_rejected_on_whole_value_layouts(maker):
    """VS layouts have no PLoD planes; refine() must refuse clearly."""
    config = maker(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    store = MLOCStore.open(fs, "/store", "field", n_ranks=4)
    session = store.open_session(Query(region=((0, 32), (0, 32))))
    assert session.result.n_results > 0
    with pytest.raises(ValueError, match="PLoD"):
        session.refine(7)


@pytest.mark.parametrize("level_order", ["VMS", "VSM"])
def test_steps_identical_under_sticky_faults(level_order, chaos_seed):
    """Session steps equal fresh queries even when blocks rot on disk.

    Sticky-only faults are deterministic per extent and persistent, so
    two independent :class:`FaultyPFS` wrappers over the same base
    store damage exactly the same blocks: the session (which answers
    repeats from its quarantine without touching the PFS) and the
    fresh per-level queries must drop exactly the same points.
    """
    from dataclasses import replace

    config = mloc_col(
        chunk_shape=(16, 16),
        n_bins=8,
        target_block_bytes=2 * 1024,
        level_order=level_order,
    )
    fs, _ = _build(config)
    plan = FaultPlan(seed=chaos_seed, sticky_corruption_rate=0.08)
    ffs_session = FaultyPFS(fs, plan)
    ffs_fresh = FaultyPFS(fs, plan)
    store = MLOCStore.open(
        ffs_session, "/store", "field",
        n_ranks=4, allow_partial=True, max_read_retries=1,
    )
    reference = MLOCStore.open(
        ffs_fresh, "/store", "field",
        n_ranks=4, allow_partial=True, max_read_retries=1,
    )

    query = Query(region=((8, 56), (8, 56)), output="values", plod_level=LEVEL_STEPS[0])
    with store.open_session(query) as session:
        for level in LEVEL_STEPS[1:]:
            session.refine(level)
        for level, step in zip(LEVEL_STEPS, session.results):
            ffs_fresh.clear_cache()
            fresh = reference.query(replace(query, plod_level=level))
            assert np.array_equal(step.positions, fresh.positions), level
            assert np.array_equal(step.values, fresh.values), level
            assert step.stats["dropped_points"] == fresh.stats["dropped_points"]
            assert step.stats["partial_chunks"] == fresh.stats["partial_chunks"]


def test_session_pins_cache_blocks_and_close_releases():
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    store = MLOCStore.open(
        fs, "/store", "field", n_ranks=4, cache_bytes=1 << 20
    )
    session = store.open_session(Query(region=((8, 56), (8, 56)), plod_level=2))
    assert len(store.cache.pinned_keys()) > 0
    pinned_at_2 = len(store.cache.pinned_keys())
    session.refine(7)
    assert len(store.cache.pinned_keys()) >= pinned_at_2
    session.close()
    assert store.cache.pinned_keys() == []


def test_concurrent_queries_cannot_evict_session_planes():
    """A tiny LRU under churn keeps every pinned session plane resident."""
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    # Cache far too small for the whole working set: without pins the
    # churn queries would evict the session's planes.
    store = MLOCStore.open(fs, "/store", "field", n_ranks=4, cache_bytes=8 * 1024)
    with store.open_session(
        Query(region=((8, 24), (8, 24)), plod_level=2)
    ) as session:
        pinned = set(store.cache.pinned_keys())
        assert pinned
        for _ in range(3):
            store.query(Query(region=((32, 64), (32, 64)), output="values"))
        still_cached = {key for key in pinned if store.cache.get(key) is not None}
        assert still_cached == pinned


def test_step_counters_fold_to_the_session_total():
    """Each step's ``coalesced_reads`` is its own (a summed counter), so
    folding the steps gives the session total."""
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    store = MLOCStore.open(fs, "/store", "field", n_ranks=4, coalesce_gap=1 << 20)
    with store.open_session(Query(region=((0, 64), (0, 64)), plod_level=1)) as session:
        for level in (3, 7):
            session.refine(level)
    steps = [step.stats for step in session.results]
    assert session.coalesced_reads > 0
    assert aggregate_stats(steps)["coalesced_reads"] == session.coalesced_reads


@pytest.mark.parametrize("n_shards", [1, 3], ids=["flat", "3-shards"])
def test_bytes_reused_is_the_steps_cache_hit_bytes(n_shards):
    """What a session reused is read off its steps: the sum of each
    step's own ``cache_hit_raw_bytes``, whatever the shard count."""
    config = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=2 * 1024)
    fs, _ = _build(config)
    store = MLOCStore.open(fs, "/store", "field", n_ranks=2, n_shards=n_shards)
    with store.open_session(Query(region=((0, 64), (0, 64)), plod_level=1)) as session:
        for level in (3, 7):
            session.refine(level)
    steps = [step.stats["cache_hit_raw_bytes"] for step in session.results]
    assert len(steps) == 3 and session.bytes_reused > 0
    assert session.bytes_reused == sum(steps)
    assert session.result.stats["bytes_reused"] == sum(steps)
