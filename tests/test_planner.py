"""Tests for query planning: bin/chunk selection and alignment."""

import numpy as np
import pytest

from repro.binning.binner import BinScheme
from repro.core.chunking import ChunkGrid
from repro.core.planner import plan_query
from repro.core.query import Query
from repro.sfc.hierarchical import hierarchical_order
from repro.sfc.linearize import chunk_curve_order


@pytest.fixture()
def setup():
    grid = ChunkGrid((64, 64), (16, 16))
    curve = chunk_curve_order(grid.grid_shape, "hilbert")
    scheme = BinScheme(np.linspace(0.0, 10.0, 11))
    return grid, curve, scheme


class TestBinSelection:
    def test_vc_selects_overlapping_bins(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(value_range=(2.5, 4.5)))
        assert plan.bin_ids.tolist() == [2, 3, 4]
        assert plan.aligned.tolist() == [False, True, False]

    def test_no_vc_selects_all_bins_aligned(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((0, 16), (0, 16))))
        assert plan.bin_ids.size == 10
        assert plan.aligned.all()

    def test_is_aligned_lookup(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(value_range=(2.5, 4.5)))
        assert not plan.is_aligned(2)
        assert plan.is_aligned(3)


class TestChunkSelection:
    def test_sc_selects_overlapping_chunks(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((0, 16), (0, 16))))
        assert plan.chunk_ids.tolist() == [0]
        assert plan.interior.tolist() == [True]

    def test_boundary_chunks_not_interior(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((8, 24), (0, 16))))
        assert sorted(plan.chunk_ids.tolist()) == [0, 4]
        assert not plan.interior.any()

    def test_no_sc_selects_all_interior(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(value_range=(0.0, 1.0)))
        assert plan.cpos.size == grid.n_chunks
        assert plan.interior.all()
        assert plan.region is None

    def test_cpos_sorted_for_sequential_io(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((8, 56), (8, 56))))
        assert np.all(np.diff(plan.cpos) > 0)
        # cpos/chunk_ids stay aligned through the sort
        assert np.array_equal(curve.positions_of(plan.chunk_ids), plan.cpos)

    def test_interior_of_vectorized(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((8, 24), (0, 16))))
        flags = plan.interior_of(plan.cpos)
        assert np.array_equal(flags, plan.interior)


class TestPlanLookupValidation:
    """Unknown ids must fail loudly, never return garbage flags."""

    def test_is_aligned_unknown_bin(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(value_range=(2.5, 4.5)))
        for bad in (0, 5, 99):
            with pytest.raises(ValueError, match=f"bin {bad}"):
                plan.is_aligned(bad)

    def test_interior_of_unknown_positions(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((8, 24), (0, 16))))
        bad = np.append(plan.cpos, 10_000)
        with pytest.raises(ValueError, match="10000"):
            plan.interior_of(bad)

    def test_interior_of_empty_query_on_empty_plan(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(grid, curve, scheme, Query(region=((0, 16), (0, 16))))
        plan.cpos = plan.cpos[:0]
        plan.interior = plan.interior[:0]
        assert plan.interior_of(np.empty(0, dtype=np.int64)).size == 0
        with pytest.raises(ValueError, match="not part of this plan"):
            plan.interior_of(np.array([3]))


class TestBlockRefs:
    def test_cartesian_product(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(
            grid, curve, scheme, Query(value_range=(2.5, 4.5), region=((0, 16), (0, 16)))
        )
        work = plan.block_list()
        assert len(work) == plan.n_blocks == 3 * 1
        assert set(work.bin_ids.tolist()) == {2, 3, 4}

    def test_block_list_matches_refs(self, setup):
        grid, curve, scheme = setup
        plan = plan_query(
            grid, curve, scheme, Query(value_range=(2.5, 6.5), region=((0, 32), (0, 32)))
        )
        work = plan.block_list()
        assert len(work) == plan.n_blocks
        rows = zip(work.bin_ids.tolist(), work.cpos.tolist(), work.chunk_ids.tolist())
        assert list(rows) == [
            (b, cp, cid)
            for b in plan.bin_ids.tolist()
            for cp, cid in zip(plan.cpos.tolist(), plan.chunk_ids.tolist())
        ]
        # Bin-major: bins arrive in sorted runs, cpos sorted within each.
        assert np.array_equal(work.bin_ids, np.sort(work.bin_ids))


class TestSubsetResolution:
    def test_resolution_restricts_to_prefix(self):
        grid = ChunkGrid((64, 64), (8, 8))  # 8x8 chunk grid
        curve = hierarchical_order(grid.grid_shape)
        scheme = BinScheme(np.linspace(0, 1, 5))
        plan = plan_query(
            grid, curve, scheme, Query(resolution_level=1), hierarchical=True
        )
        assert plan.cpos.size == 4  # levels 0..1 of an 8x8 grid
        assert plan.cpos.max() < 4

    def test_resolution_beyond_max_is_full(self):
        grid = ChunkGrid((64, 64), (8, 8))
        curve = hierarchical_order(grid.grid_shape)
        scheme = BinScheme(np.linspace(0, 1, 5))
        plan = plan_query(
            grid, curve, scheme, Query(resolution_level=99), hierarchical=True
        )
        assert plan.cpos.size == grid.n_chunks

    def test_resolution_requires_hierarchical_store(self, setup):
        grid, curve, scheme = setup
        with pytest.raises(ValueError, match="hierarchical"):
            plan_query(grid, curve, scheme, Query(resolution_level=1))


class TestQueryValidation:
    def test_output_checked(self):
        with pytest.raises(ValueError, match="output"):
            Query(output="rows")

    def test_value_range_checked(self):
        with pytest.raises(ValueError, match="empty"):
            Query(value_range=(2.0, 1.0))

    def test_plod_level_checked(self):
        for bad in (0, 8):
            with pytest.raises(ValueError):
                Query(plod_level=bad)

    def test_resolution_level_checked(self):
        with pytest.raises(ValueError):
            Query(resolution_level=-1)

    def test_wants_values(self):
        assert Query(output="values").wants_values
        assert not Query(output="positions").wants_values
