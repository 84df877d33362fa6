"""The canonical counter table and its aggregators.

Every path that folds per-query ``QueryResult.stats`` into an aggregate
(``query_many``, the broker, ``replay_trace``, the CLI) consumes the
single table in :mod:`repro.core.result` instead of maintaining its own
key list — the pre-registry ``query_many`` silently dropped
``stall_seconds`` and ``cache_hit_raw_bytes``, exactly the drift this
kills.  The table also names each counter's *owner*: a layer emits only
the rows it owns, so the engine cannot grow a block of zeros for layers
above it.  Tests here are parametrised over the table's rows; a counter
added later is covered without editing this file.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MLOCDataset, MLOCStore, Query, mloc_col
from repro.core.result import (
    COUNTERS,
    FAULT_STAT_KEYS,
    aggregate_stats,
    counter_names,
)
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.server import (
    BrokerCore,
    IngestQueryEvent,
    IngestReplay,
    IngestSession,
    TimestepArrival,
    replay,
)

FOLDS = ("sum", "fsum", "union", "max", "dict_sum", "dict_min")
OWNERS = ("engine", "plan", "tol", "broker")
#: Rows every aggregate carries, whatever its inputs.
ALWAYS = tuple(c.name for c in COUNTERS if c.fold in ("sum", "fsum", "union"))
#: Rows a direct ``store.query`` must emit / must not emit.
DIRECT = tuple(
    c.name for c in COUNTERS
    if c.name in ALWAYS and c.owner in ("engine", "plan", "tol")
)
SERVING = counter_names(owner="broker")

REGION = Query(region=((0, 64), (0, 64)), output="values")


def test_aggregate_stats_sums_and_unions():
    per_query = [
        {"seeks": 3, "stall_seconds": 0.5, "partial_chunks": [2, 7]},
        {"seeks": 4, "stall_seconds": 0.25, "partial_chunks": [7, 1]},
    ]
    out = aggregate_stats(per_query)
    assert out["seeks"] == 7
    assert out["stall_seconds"] == pytest.approx(0.75)
    assert out["partial_chunks"] == [1, 2, 7]
    # Missing keys count as zero, so older recorded stats fold cleanly.
    assert out["bytes_read"] == 0
    assert out["crc_failures"] == 0


def test_aggregate_stats_empty_is_all_falsy():
    out = aggregate_stats([])
    assert tuple(out) == ALWAYS
    for key, value in out.items():
        assert not value, key


@pytest.mark.parametrize("counter", COUNTERS, ids=lambda c: c.name)
def test_every_row_has_one_owner_and_one_fold(counter):
    assert counter.fold in FOLDS
    assert counter.owner in OWNERS
    assert [c.name for c in COUNTERS].count(counter.name) == 1


def test_registry_shape():
    names = counter_names()
    assert set(FAULT_STAT_KEYS) <= set(counter_names(owner="engine", fold="sum"))
    assert counter_names(fold="union") == ("partial_chunks",)
    assert counter_names(owner="ingest") == ()
    for key in ("vectored_reads", "coalesced_reads"):
        assert key in names
    # Non-additive values are not counters.
    for key in ("quarantined_blocks", "n_ranks", "backend", "n_queries"):
        assert key not in names


def test_query_many_aggregates_every_summed_key(col_store):
    """The batch aggregate carries the full table.

    The hand-rolled pre-registry aggregate dropped ``stall_seconds``
    and ``cache_hit_raw_bytes``; folding from the table makes the batch
    total of every additive counter equal the sum of its per-query
    values.
    """
    fs, store = col_store
    queries = [
        REGION,
        Query(region=((32, 96), (32, 96)), output="values", plod_level=3),
        Query(value_range=(4.0, 5.0), output="positions"),
    ]
    fs.clear_cache()
    batch = store.query_many(queries)
    for key in counter_names(fold="sum") + counter_names(fold="fsum"):
        assert key in batch.stats, key
        expected = sum(r.stats.get(key, 0) for r in batch.results)
        assert batch.stats[key] == pytest.approx(expected), key
    assert batch.stats["n_queries"] == 3
    assert "quarantined_blocks" in batch.stats
    # Configuration values are per-store, not batch aggregates.
    assert "backend" not in batch.stats
    assert "n_ranks" not in batch.stats


def test_per_query_stats_cover_the_registry(col_store):
    """A direct query emits every additive row of the layers it passed
    through — and none of the serving layers above the store, whatever
    the handle's shard count."""
    fs, base = col_store
    for n_shards in (1, 3):
        store = MLOCStore(fs, base.root, base.meta, n_shards=n_shards)
        fs.clear_cache()
        result = store.query(REGION)
        for key in DIRECT:
            assert key in result.stats, (n_shards, key)
        for key in SERVING:
            assert key not in result.stats, (n_shards, key)


@pytest.fixture(scope="module")
def ingest_report():
    fs = SimulatedPFS()
    dataset = MLOCDataset(fs, "/ds", mloc_col((16, 16), n_bins=8), n_ranks=2)
    arrivals = [
        TimestepArrival(float(t), "temp", t, gts_like((64, 64), seed=t))
        for t in range(2)
    ]
    events = [IngestQueryEvent(0.5 + t, "a", "temp", REGION, t) for t in range(2)]
    return replay(BrokerCore(), IngestReplay(IngestSession(dataset, arrivals), events))


@pytest.fixture(scope="module")
def broker_stats(col_store):
    core = BrokerCore(col_store[1])
    core.submit("a", REGION)
    core.drain()
    return core.stats()


@pytest.mark.parametrize("name", ALWAYS)
def test_serving_totals_carry_every_row(broker_stats, ingest_report, name):
    assert name in broker_stats["totals"]
    assert name in broker_stats["tenants"]["a"]
    assert name in ingest_report.broker["totals"]


def test_serving_layers_stamp_their_own_rows(ingest_report):
    totals = ingest_report.broker["totals"]
    assert totals["admitted"] == totals["completed"] == 2
    summary = ingest_report.as_dict()
    assert summary["snapshot_refreshes"] >= 1
    assert summary["generations_seen"] == summary["snapshot_refreshes"] + 1
    # The replay counts its own re-pins and stalls; the broker does not.
    for key in ("generations_seen", "snapshot_refreshes", "ingest_stall_seconds"):
        assert key not in totals


# ----------------------------------------------------------------------
# The fold itself: the pre-table implementation, kept as the reference
# ----------------------------------------------------------------------
_REF_SUMMED = (
    "blocks_planned", "blocks_decoded", "decode_pool_failures", "cache_hits",
    "cache_misses", "cache_hit_raw_bytes", "bytes_read", "files_opened",
    "seeks", "vectored_reads", "coalesced_reads",
    "stall_seconds", "crc_failures", "io_retries", "degraded_points",
    "dropped_points", "n_results", "plan_cache_hits", "plan_cache_misses",
    "chunks_pruned", "bins_pruned", "dedup_blocks", "dedup_raw_bytes",
    "admitted", "rejected", "queued", "completed", "cancelled",
    "quota_rejections", "quota_evictions", "tol_bytes_saved",
)
_REF_FLOAT_SUMMED = frozenset({"stall_seconds"})
_REF_UNION = ("partial_chunks",)
_REF_MAX = ("achieved_bound", "tol_target")
_REF_DICT_SUM = ("levels_histogram",)
_REF_DICT_MIN = ("degraded_chunk_levels",)


def _reference_aggregate(per_query: list[dict]) -> dict:
    """``aggregate_stats`` as it was over the seven ``*_STAT_KEYS`` tuples."""
    out: dict = {}
    for key in _REF_SUMMED:
        if key in _REF_FLOAT_SUMMED:
            out[key] = float(sum(s.get(key, 0) for s in per_query))
        else:
            out[key] = int(sum(s.get(key, 0) for s in per_query))
    for key in _REF_UNION:
        merged: set = set()
        for s in per_query:
            merged.update(s.get(key, ()))
        out[key] = sorted(merged)
    for key in _REF_MAX:
        vals = [s[key] for s in per_query if key in s]
        if vals:
            out[key] = max(vals)
    for key, fold in (
        *((k, lambda a, b: a + b) for k in _REF_DICT_SUM),
        *((k, min) for k in _REF_DICT_MIN),
    ):
        seen = False
        merged_d: dict = {}
        for s in per_query:
            d = s.get(key)
            if d is None:
                continue
            seen = True
            for k, v in d.items():
                merged_d[k] = fold(merged_d[k], v) if k in merged_d else v
        if seen:
            out[key] = merged_d
    return out


_small_ints = st.integers(min_value=0, max_value=7)
_int_dicts = st.dictionaries(_small_ints, st.integers(min_value=0, max_value=1 << 20))
_REF_VALUES = {
    **{
        k: st.floats(min_value=0, max_value=1e6)
        if k in _REF_FLOAT_SUMMED
        else st.integers(min_value=0, max_value=1 << 40)
        for k in _REF_SUMMED
    },
    **{k: st.lists(_small_ints, max_size=5) for k in _REF_UNION},
    **{k: st.floats(min_value=0, max_value=1.0) for k in _REF_MAX},
    **{k: _int_dicts for k in _REF_DICT_SUM + _REF_DICT_MIN},
    # Values that are not counters must pass through unfolded.
    "backend": st.just("serial"),
    "quarantined_blocks": _small_ints,
}
_stats_dicts = st.fixed_dictionaries({}, optional=_REF_VALUES)


@given(st.lists(_stats_dicts, max_size=6))
def test_table_fold_equals_the_seven_tuple_fold(per_query):
    want = _reference_aggregate(per_query)
    got = aggregate_stats(per_query)
    assert {k: got[k] for k in want} == want
    # Same column order, and nothing beyond the table's own rows.
    assert [k for k in got if k in want] == list(want)
    assert set(got) <= set(counter_names())
    for key in want:
        assert type(got[key]) is type(want[key]), key


def test_runtime_stats_snapshot(col_store):
    fs, base = col_store
    store = MLOCStore(
        fs, base.root, base.meta, n_ranks=4,
        cache_bytes=256 * 1024, plan_cache=8,
    )
    q = REGION
    store.query(q)
    store.query(q)
    snap = store.runtime_stats()
    assert snap["n_ranks"] == 4
    assert snap["backend"] == "serial"
    assert snap["plan_cache"]["hits"] == 1
    assert snap["plan_cache"]["misses"] == 1
    assert snap["plan_cache"]["size"] == 1
    assert snap["plan_cache"]["capacity"] == 8
    assert snap["block_cache"]["hits"] > 0
    assert snap["block_cache"]["current_bytes"] > 0
    assert snap["block_cache"]["pinned_blocks"] == 0
    assert snap["quarantine"] == {}
    # Without the optional structures the sections are absent/plain.
    bare = MLOCStore(fs, base.root, base.meta, n_ranks=4)
    bare_snap = bare.runtime_stats()
    assert "plan_cache" not in bare_snap
    assert "block_cache" not in bare_snap
