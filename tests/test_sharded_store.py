"""``MLOCStore(n_shards=)``: bit-identical scatter/gather and balanced
bin cuts.

Two contracts, in the order the module builds on them:

* :func:`weighted_bin_partition` — contiguous, monotone, covering bin
  ranges whose stored-byte shares come out near-equal (empty shards
  beat splitting a heavy bin);
* the sharded handle — for every shard count the merged answer
  (positions, values, planned/decoded block totals) is bit-identical
  to the unsharded store on the same bytes, the per-shard sub-plans
  exactly partition the planned work, and merged component times take
  the per-component max so simulated I/O scales near-linearly with
  shard count on bin-spanning queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_iso
from repro.datasets import gts_like
from repro.index.bitmap import Bitmap
from repro.parallel.scheduler import weighted_bin_partition
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS

N_BINS = 16

QUERIES = [
    Query(value_range=(0.0, 4.5), output="positions"),
    Query(value_range=(2.0, 6.0), output="values"),
    Query(region=((8, 100), (0, 64)), output="values"),
    Query(region=((8, 100), (0, 64)), output="values", plod_level=3),
    Query(value_range=(1.0, 5.0), region=((0, 128), (32, 96)), output="values"),
    Query(value_range=(100.0, 101.0), output="values"),  # empty result
]


# ----------------------------------------------------------------------
# weighted_bin_partition
# ----------------------------------------------------------------------
class TestWeightedBinPartition:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_covering_and_monotone(self, n_shards, seed):
        weights = np.random.default_rng(seed).random(24) * 1000
        bounds = weighted_bin_partition(weights, n_shards)
        assert bounds.shape == (n_shards + 1,)
        assert bounds[0] == 0 and bounds[-1] == weights.size
        assert (np.diff(bounds) >= 0).all()
        # Every bin lands in exactly one shard.
        owners = np.concatenate(
            [np.full(bounds[s + 1] - bounds[s], s) for s in range(n_shards)]
        )
        assert owners.size == weights.size

    def test_near_equal_shares_on_smooth_weights(self):
        weights = np.full(32, 10.0)
        bounds = weighted_bin_partition(weights, 4)
        shares = [weights[bounds[s] : bounds[s + 1]].sum() for s in range(4)]
        assert shares == [80.0] * 4

    def test_cuts_follow_weight_not_bin_count(self):
        # All mass in the first two bins: the first cut must fall right
        # after them instead of at the bin-count midpoint.
        weights = np.array([500.0, 500.0] + [1.0] * 10)
        bounds = weighted_bin_partition(weights, 2)
        assert bounds[1] in (1, 2)

    def test_heavy_bin_yields_empty_shard_not_a_split(self):
        weights = np.array([1.0, 1000.0, 1.0, 1.0])
        bounds = weighted_bin_partition(weights, 3)
        assert (np.diff(bounds) >= 0).all()
        assert bounds[-1] == 4  # still covers everything

    def test_more_shards_than_bins(self):
        bounds = weighted_bin_partition(np.ones(3), 5)
        assert list(bounds) == [0, 1, 2, 3, 3, 3]

    def test_zero_weights_fall_back_to_span_split(self):
        bounds = weighted_bin_partition(np.zeros(8), 4)
        assert bounds[0] == 0 and bounds[-1] == 8
        assert (np.diff(bounds) > 0).all()  # no shard starves needlessly

    def test_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            weighted_bin_partition(np.ones(4), 0)
        with pytest.raises(ValueError, match="non-empty"):
            weighted_bin_partition(np.empty(0), 2)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_bin_partition(np.array([1.0, -2.0]), 2)
        with pytest.raises(ValueError, match="1-D"):
            weighted_bin_partition(np.ones((2, 2)), 2)


# ----------------------------------------------------------------------
# Sharded handles vs the one-shard store on the same bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def col_fs():
    fs = SimulatedPFS()
    config = mloc_col(
        chunk_shape=(32, 32), n_bins=N_BINS, target_block_bytes=8 * 1024
    )
    MLOCWriter(fs, "/store", config).write(
        gts_like((128, 128), seed=5), variable="field"
    )
    return fs


@pytest.fixture(scope="module")
def iso_fs():
    fs = SimulatedPFS()
    config = mloc_iso(
        chunk_shape=(32, 32), n_bins=N_BINS, target_block_bytes=8 * 1024
    )
    MLOCWriter(fs, "/store", config).write(
        gts_like((128, 128), seed=5), variable="field"
    )
    return fs


def _assert_same_answer(a, b):
    assert np.array_equal(a.positions, b.positions)
    if a.values is None:
        assert b.values is None
    else:
        assert np.array_equal(a.values, b.values)


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_to_unsharded(self, col_fs, n_shards, query):
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(
            col_fs, "/store", "field", n_shards=n_shards
        )
        col_fs.clear_cache()
        expected = flat.query(query)
        col_fs.clear_cache()
        result = sharded.query(query)
        _assert_same_answer(result, expected)
        # Planning happens once against the shared context, so the
        # plan-level stats are exactly the unsharded ones.  (Decode and
        # read totals are *not* compared: each shard re-balances its
        # bins across its own ranks, which changes how often a bin's
        # index block is decoded per rank — same effect as changing
        # n_ranks on a flat store.)
        for key in ("blocks_planned", "n_results"):
            assert result.stats[key] == expected.stats[key], key
        assert result.stats["n_shards"] == n_shards
        assert result.stats["shards_hit"] <= n_shards

    @pytest.mark.parametrize("query", QUERIES[:3])
    def test_iso_layout(self, iso_fs, query):
        flat = MLOCStore.open(iso_fs, "/store", "field")
        sharded = MLOCStore.open(iso_fs, "/store", "field", n_shards=4)
        iso_fs.clear_cache()
        expected = flat.query(query)
        iso_fs.clear_cache()
        _assert_same_answer(sharded.query(query), expected)

    def test_query_many(self, col_fs):
        queries = QUERIES[:4]
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        col_fs.clear_cache()
        expect = flat.query_many(queries)
        col_fs.clear_cache()
        batch = sharded.query_many(queries)
        for a, b in zip(batch.results, expect.results):
            _assert_same_answer(a, b)
        assert batch.stats["n_queries"] == len(queries)
        # Configuration values are per-query rows, not batch aggregates.
        assert "n_shards" not in batch.stats
        assert batch.stats["quarantined_blocks"] == 0

    def test_position_filter(self, col_fs):
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        base = Query(value_range=(2.0, 6.0), output="positions")
        col_fs.clear_cache()
        keep = Bitmap.from_positions(
            flat.query(base).positions[::2], flat.n_elements
        )
        narrow = Query(value_range=(2.0, 6.0), output="values")
        col_fs.clear_cache()
        expected = flat.query(narrow, position_filter=keep)
        col_fs.clear_cache()
        _assert_same_answer(sharded.query(narrow, position_filter=keep), expected)

    def test_empty_result_hits_no_shard_work(self, col_fs):
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        col_fs.clear_cache()
        result = sharded.query(QUERIES[-1])
        assert result.positions.size == 0
        assert result.stats["n_results"] == 0

    def test_warm_cache_round_stays_identical(self, col_fs):
        flat = MLOCStore.open(col_fs, "/store", "field", cache_bytes=32 << 20)
        sharded = MLOCStore.open(
            col_fs, "/store", "field", n_shards=4, cache_bytes=32 << 20
        )
        for _ in range(2):  # cold, then warm
            col_fs.clear_cache()
            expected = flat.query(QUERIES[1])
            col_fs.clear_cache()
            _assert_same_answer(sharded.query(QUERIES[1]), expected)

    def test_process_backend_per_shard(self, col_fs):
        """Shard fan-out composes with the process decode backend."""
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(
            col_fs, "/store", "field", n_shards=2,
            backend="processes", workers=2,
        )
        col_fs.clear_cache()
        expected = flat.query(QUERIES[1])
        col_fs.clear_cache()
        result = sharded.query(QUERIES[1])
        _assert_same_answer(result, expected)
        assert result.stats["backend"] == "processes"
        assert result.stats["decode_pool_failures"] == 0

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_quarantined_blocks_are_the_querys_own(self, col_fs, n_shards):
        """A query reports the blocks *it* touched that are quarantined,
        not the handle's lifetime registry: the second range misses the
        block the first one lost."""
        faulty = FaultyPFS(col_fs, FaultPlan(seed=3, sticky_corruption_rate=0.03))
        store = MLOCStore.open(
            faulty, "/store", "field", n_shards=n_shards, allow_partial=True
        )
        reported = []
        for value_range in ((0.0, 2.0), (6.0, 9.0)):
            faulty.clear_cache()
            result = store.query(Query(value_range=value_range, output="values"))
            reported.append(result.stats["quarantined_blocks"])
        assert reported == [1, 0]
        assert len(store.quarantined_blocks) == 1


class TestShardedScaling:
    def test_simulated_io_scales_near_linearly(self, col_fs):
        """A bin-spanning query's simulated I/O is gated by the slowest
        shard, so doubling shards should roughly halve it.  One rank
        per shard, so shard count is the only parallelism axis."""
        query = Query(value_range=(0.0, 8.0), output="values")
        io = {}
        for n in (1, 2, 4):
            sharded = MLOCStore.open(
                col_fs, "/store", "field", n_shards=n, n_ranks=1
            )
            col_fs.clear_cache()
            io[n] = sharded.query(query).times.io
        assert io[2] < 0.7 * io[1]
        assert io[4] < 0.7 * io[2]

    def test_total_ranks_multiply(self, col_fs):
        sharded = MLOCStore.open(
            col_fs, "/store", "field", n_shards=4, n_ranks=2
        )
        col_fs.clear_cache()
        result = sharded.query(QUERIES[0])
        assert result.stats["n_ranks"] == 8


class TestShardedHandle:
    def test_shard_map_consistency(self, col_fs):
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        bounds = sharded.shard_bounds
        assert bounds[0] == 0 and bounds[-1] == N_BINS
        assert len(bounds) == 5 and all(np.diff(bounds) >= 0)
        weights = sharded.shard_weights()
        assert weights.shape == (4,)
        assert weights.sum() == pytest.approx(sharded._bin_weights().sum())
        # Balanced by stored bytes: no shard hoards the variable.
        assert weights.max() <= 0.6 * weights.sum()

    def test_open_builds_planning_tables_once(self, col_fs, monkeypatch):
        from repro.core.planner import PlanContext

        built = []
        init = PlanContext.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlanContext, "__init__", counting)
        MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        assert len(built) == 1

    def test_shards_share_context_and_cache(self, col_fs):
        sharded = MLOCStore.open(
            col_fs, "/store", "field", n_shards=3, cache_bytes=16 << 20
        )
        assert all(s.context is sharded.context for s in sharded.engines)
        first = sharded.engines[0]
        assert all(s.cache is first.cache for s in sharded.engines[1:])

    def test_storage_report_matches_unsharded(self, col_fs):
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        assert sharded.storage_report() == flat.storage_report()

    def test_runtime_stats_shape(self, col_fs):
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=2)
        stats = sharded.runtime_stats()
        assert stats["n_shards"] == 2
        assert len(stats["shard_bounds"]) == 3
        assert len(stats["shards"]) == 2

    def test_open_session_parity_with_flat(self, col_fs):
        """Sharded refinement sessions step bit-identically to flat ones.

        Every session step is one ``store.query``, so the same refine
        ladder on a flat and a sharded handle must produce the same
        positions and values per step.
        """
        flat = MLOCStore.open(col_fs, "/store", "field")
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=2)
        query = Query(value_range=(2.0, 6.0), output="values", plod_level=2)
        col_fs.clear_cache()
        with flat.open_session(query) as fsess:
            flat_steps = [fsess.result]
            flat_steps += [fsess.refine(lv) for lv in (4, 7)]
        col_fs.clear_cache()
        with sharded.open_session(query) as ssess:
            assert ssess.level == 2
            shard_steps = [ssess.result]
            shard_steps += [ssess.refine(lv) for lv in (4, 7)]
        for a, b in zip(shard_steps, flat_steps):
            _assert_same_answer(a, b)
        assert shard_steps[-1].stats["refine_steps"] == 2
        assert shard_steps[-1].stats["n_shards"] == 2

    def test_validation(self, col_fs):
        with pytest.raises(ValueError, match="n_shards"):
            MLOCStore.open(col_fs, "/store", "field", n_shards=0)
