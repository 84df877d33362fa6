"""A batch is the unit of execution: ``stage`` each request, then
``assemble`` them once (``query_many``, a broker round, a single query
as a batch of one).

The contract — a batch returns exactly what the same requests return
one by one, in order, through one shared fetcher, and leaves the same
fetcher and LRU behind — is checked by the ``batch`` rows of
``tests/test_contract_matrix.py``, crossed there with shard count,
cache size and rank count.  This file holds what is particular to
batches: random boxes, filtered members, memory ownership, faults and
aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchResult, DegradedResultError, MLOCStore, Query, assemble
from repro.pfs.faults import FaultyPFS
from scripts.gen_engine_golden import fault_plan
from tests.test_contract_matrix import (
    check,
    compare,
    lru,
    observation,
    requests,
    rounds,
    store,
)

SHAPE = (64, 64)
LAYOUTS = ("col", "vsm", "iso")
SHARDS = {"flat": 1, "3-shards": 3}
CACHES = ("cache-off", "cache-16KiB", "cache-ample")
RANKS = (1, 3, 4)


@pytest.fixture(scope="module")
def stores():
    """layout -> the file system of the contract matrix's 64x64 store."""
    return {layout: store(f"{layout}-64")[0] for layout in LAYOUTS}


@pytest.fixture(scope="module")
def fs(stores):
    return stores["col"]


def _open(fs, shards=1, **options):
    return MLOCStore.open(fs, "/store", "field", n_shards=shards, **options)


def same(got, want, where=()) -> None:
    """Every field equal, by the contract matrix's comparator."""
    compare(observation(got), observation(want), {}, where)


@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_batch_equals_singles(layout, shards, cache, n_ranks):
    """The contract matrix's ``batch/...`` cell of these axis values:
    every field of both rounds' results, what the fetcher still holds,
    and the LRU's keys and counters."""
    check(f"batch/{SHARDS[shards]}-shards/{cache}/ranks-{n_ranks}", f"{layout}-64")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_filtered_member_is_what_fetch_positions_returns(stores, layout):
    store = _open(stores[layout], n_ranks=4)
    mixed = requests(f"{layout}-64", batched=True)
    batch, _ = rounds("batch", store, mixed)
    for (query, keep), got in zip(mixed, batch):
        if keep is not None:
            direct = store.fetch_positions(keep, region=query.region)
            assert np.array_equal(got.positions, direct.positions)
            assert np.array_equal(got.values, direct.values)


_extent = st.integers(0, SHAPE[0] - 1).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, SHAPE[0]))
)
_boxes = st.lists(
    st.tuples(st.tuples(_extent, _extent), st.sampled_from(("values", "positions"))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(boxes=_boxes, n_ranks=st.sampled_from(RANKS))
def test_query_many_equals_singles_on_random_boxes(stores, boxes, n_ranks):
    """``query_many`` equals planned singles through one shared fetcher,
    by the contract matrix's comparator: every field, and the LRU."""
    queries = [Query(region=region, output=output) for region, output in boxes]
    store = _open(stores["col"], n_ranks=n_ranks, cache_bytes=16 << 10)
    store.fs.clear_cache()
    batch = store.query_many(queries)
    assert isinstance(batch, BatchResult) and len(batch) == len(queries)
    twin = _open(stores["col"], n_ranks=n_ranks, cache_bytes=16 << 10)
    twin.fs.clear_cache()
    planned = [twin.plan(q) for q in queries]
    fetcher = twin.new_fetcher(shared=True)
    for i, (got, query, plan) in enumerate(zip(batch, queries, planned)):
        same(got, twin.query(query, fetcher=fetcher, planned=plan), (i, query))
    assert lru(store) == lru(twin)


def test_fused_results_never_share_memory(fs):
    # Interior-only boxes (chunk-aligned): no filter ever copies, so a
    # careless gather would hand out views of the union's buffers.
    queries = [
        Query(region=((0, 32), (0, 32)), output="values"),
        Query(region=((16, 48), (0, 32)), output="values"),
        Query(region=((0, 32), (0, 32)), output="values"),
    ]
    store = _open(fs, cache_bytes=32 << 20)
    first, second, third = store.query_many(queries)
    for a, b in ((first, second), (first, third), (second, third)):
        assert not np.shares_memory(a.positions, b.positions)
        assert not np.shares_memory(a.values, b.values)
    kept = [(r.positions.copy(), r.values.copy()) for r in (second, third)]
    first.positions[:] = -1
    first.values[:] = np.nan
    for result, (positions, values) in zip((second, third), kept):
        assert np.array_equal(result.positions, positions)
        assert np.array_equal(result.values, values)
    again = store.query(queries[0])  # served from the LRU's decoded blocks
    assert np.array_equal(again.positions, kept[1][0])
    assert np.array_equal(again.values, kept[1][1])


def _faulty(stores, **options):
    plan = fault_plan(_open(stores["col"], n_ranks=4), "base")
    return lambda: _open(FaultyPFS(stores["col"], plan), n_ranks=4, **options)


def test_strict_batch_loses_only_the_query_that_lost_a_block(stores):
    """Sticky rot on base-plane blocks, ``allow_partial=False``: the
    request that needs a rotten block raises alone; every other request
    of the batch is answered exactly as the singles answer it."""
    open_store = _faulty(stores)
    outcomes = []
    for batched in (True, False):
        store = open_store()
        store.fs.clear_cache()
        fetcher = store.new_fetcher(shared=True)
        staged, answers = [], {}
        for i, (query, keep) in enumerate(requests("col-64", batched=True)):
            try:
                if batched:
                    staged.append((i, store.stage(query, keep, fetcher=fetcher)))
                else:
                    answers[i] = store.query(query, keep, fetcher=fetcher)
            except DegradedResultError as err:
                answers[i] = (err.kind, err.path, err.offset, err.bin_id, err.chunk_ids)
        for (i, _), result in zip(staged, assemble([s for _, s in staged])):
            answers[i] = result
        outcomes.append(answers)
    batch, singles = outcomes
    failed = [i for i, answer in singles.items() if isinstance(answer, tuple)]
    assert failed and len(failed) < len(singles)
    for i, want in singles.items():
        if isinstance(want, tuple):
            assert batch[i] == want
        else:
            same(batch[i], want, (i,))


def test_partial_batch_degrades_like_the_singles(stores):
    """Sticky rot, ``allow_partial=True``: both rounds of the batch
    degrade exactly as the singles do, and leave the same blocks held."""
    open_store = _faulty(stores, allow_partial=True)
    (batch, after_batch), (singles, after_singles) = (
        rounds(door, open_store(), requests("col-64", batched=True))
        for door in ("batch", "singles")
    )
    assert any(r.stats["dropped_points"] for r in singles)
    for i, (got, want) in enumerate(zip(batch, singles)):
        same(got, want, (i,))
    assert after_batch == after_singles


OVERLAPPING = [
    Query(region=((0, 48), (0, 48)), output="values"),
    Query(region=((8, 56), (0, 48)), output="values"),
    Query(region=((0, 48), (8, 56)), output="values"),
]


def test_batch_decodes_shared_blocks_once(fs):
    for shards in SHARDS.values():
        store = _open(fs, shards)
        fs.clear_cache()
        batch = store.query_many(OVERLAPPING)
        # The boxes overlap heavily: later queries must hit blocks the
        # first query already fetched, even with no persistent cache.
        assert store.cache is None
        assert batch.stats["cache_hits"] > 0
        assert batch.stats["blocks_decoded"] < (
            batch.stats["cache_hits"] + batch.stats["cache_misses"]
        )
        # First query pays cold; a repeat of query 0 inside the batch
        # would be all hits — check the third query benefits already.
        assert batch[2].stats["cache_hits"] > 0


def test_batch_cheaper_than_cold_singles(fs):
    store = MLOCStore.open(fs, "/store", "field")
    fs.clear_cache()
    batch = store.query_many(OVERLAPPING)
    cold_io = cold_dec = 0.0
    for query in OVERLAPPING:
        fs.clear_cache()
        r = MLOCStore.open(fs, "/store", "field").query(query)
        cold_io += r.times.io
        cold_dec += r.times.decompression
    assert batch.times.io < cold_io
    assert batch.times.decompression < cold_dec


def test_batch_aggregate_times_are_sums(fs):
    store = MLOCStore.open(fs, "/store", "field")
    fs.clear_cache()
    batch = store.query_many(OVERLAPPING)
    for component in ("io", "decompression", "reconstruction", "communication"):
        assert getattr(batch.times, component) == pytest.approx(
            sum(getattr(r.times, component) for r in batch)
        )
    assert batch.stats["n_queries"] == len(OVERLAPPING)
    assert batch.stats["n_results"] == sum(r.n_results for r in batch)


def test_batch_aggregates_seeks(fs):
    store = MLOCStore.open(fs, "/store", "field")
    fs.clear_cache()
    batch = store.query_many(OVERLAPPING)
    assert batch.stats["seeks"] == sum(r.stats["seeks"] for r in batch)
    assert batch.stats["seeks"] > 0  # real reads always seek at least once


def test_batch_aggregates_plan_cache_counters(fs):
    meta_store = MLOCStore.open(fs, "/store", "field")
    store = MLOCStore(fs, meta_store.root, meta_store.meta, plan_cache=8)
    fs.clear_cache()
    batch = store.query_many(OVERLAPPING + [OVERLAPPING[0]])
    # The repeated first query is the only plan-cache hit.
    assert batch.stats["plan_cache_hits"] == 1
    assert batch.stats["plan_cache_misses"] == len(OVERLAPPING)
    assert np.array_equal(batch[0].positions, batch[3].positions)


def test_batch_with_persistent_cache_reports_cache_stats(fs):
    store = MLOCStore.open(fs, "/store", "field", cache_bytes=32 << 20)
    fs.clear_cache()
    first = store.query_many(OVERLAPPING)
    assert "cache" in first.stats
    fs.clear_cache()
    again = store.query_many(OVERLAPPING)
    # Second batch is served entirely from the store-level LRU.
    assert again.stats["cache_misses"] == 0
    assert again.stats["bytes_read"] == 0
    for a, b in zip(first, again):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.values, b.values)


def test_empty_and_single_batches(fs):
    store = MLOCStore.open(fs, "/store", "field")
    empty = store.query_many([])
    assert len(empty) == 0 and empty.times.total == 0.0
    # Every aggregate counter of an empty batch is exactly zero (or an
    # empty collection, for list-valued stats like partial_chunks).
    for key, value in empty.stats.items():
        assert not value, f"empty batch stat {key!r} should be empty, got {value}"
    single = store.query_many([OVERLAPPING[0]])
    assert len(single) == 1
    assert list(iter(single))[0] is single[0]


def test_mixed_output_batch(fs):
    store = MLOCStore.open(fs, "/store", "field")
    fs.clear_cache()
    batch = store.query_many(
        [
            Query(value_range=(0.0, 5.0), output="positions"),
            Query(value_range=(0.0, 5.0), output="values"),
        ]
    )
    assert batch[0].values is None
    assert batch[1].values is not None
    assert np.array_equal(batch[0].positions, batch[1].positions)
