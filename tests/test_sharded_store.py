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

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.parallel.scheduler import weighted_bin_partition
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS
from tests.test_contract_matrix import check, observe, requests

N_BINS = 16


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


class TestShardedEquivalence:
    """Request by request, the ``shards-*`` cells of
    ``tests/test_contract_matrix.py``: every field equals the one-shard
    store's, but the read schedule and its seconds."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("query", range(6), ids="query{}".format)
    def test_identical_to_unsharded(self, n_shards, query):
        check("reference" if n_shards == 1 else f"shards-{n_shards}", "col", only=[query])

    @pytest.mark.parametrize("query", range(3), ids="query{}".format)
    def test_iso_layout(self, query):
        check("shards-4", "iso", only=[query])

    def test_query_many(self):
        """Configuration values are per-query rows, not batch aggregates."""
        check("many+shards-3", "col")
        batch = observe("many+shards-3", "col")[-1]["batch"]
        assert batch["n_queries"] == sum(keep is None for _, keep in requests("col"))
        assert "n_shards" not in batch
        assert batch["quarantined_blocks"] == 0

    def test_position_filter(self):
        filtered = [i for i, (_, keep) in enumerate(requests("col")) if keep is not None]
        check("shards-3", "col", only=filtered)

    def test_empty_result_hits_no_shard_work(self, col_fs):
        sharded = MLOCStore.open(col_fs, "/store", "field", n_shards=4)
        col_fs.clear_cache()
        result = sharded.query(Query(value_range=(100.0, 101.0), output="values"))
        assert result.positions.size == 0
        assert result.stats["n_results"] == 0

    def test_warm_cache_round_stays_identical(self):
        check("shards-3+cache-warm", "col")

    def test_process_backend_per_shard(self):
        """Shard fan-out composes with the process decode backend."""
        check("shards-3+processes-2", "col-64")

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
        result = sharded.query(Query(value_range=(0.0, 4.5), output="positions"))
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

    def test_open_session_parity_with_flat(self):
        """Sharded refinement sessions step bit-identically to flat ones:
        the ``session+shards-3`` row of the contract matrix."""
        check("session+shards-3", "col-64")
        last = observe("session+shards-3", "col-64")[2]
        assert last["refine_steps"] == 2 and last["n_shards"] == 3

    def test_validation(self, col_fs):
        with pytest.raises(ValueError, match="n_shards"):
            MLOCStore.open(col_fs, "/store", "field", n_shards=0)
