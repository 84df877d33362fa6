"""Plan-equivalence suite: the vectorized planning/scheduling pipeline
must reproduce the seed's object pipeline block-for-block.

The columnar work-list, the lexsort-based assignment policies, the
store-resident :class:`PlanContext`, and the plan cache are pure
performance work — DESIGN.md's plan-equivalence rule says none of them
may change which blocks a rank receives, in what order, or any result
byte or simulated second.  This file pins that rule against embedded
copies of the seed's reference implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.core.planner import PlanCache, PlanContext, QueryPlan, cell_sizes, plan_query
from repro.datasets import gts_like
from repro.parallel.scheduler import (
    BlockList,
    column_order_assignment,
    round_robin_assignment,
)
from repro.pfs import SimulatedPFS
from tests.test_contract_matrix import check

# ----------------------------------------------------------------------
# Reference implementations: one (bin id, curve position, chunk id)
# tuple per block, ``sorted()`` and list slicing.  The equivalence
# oracle for the columnar pipeline.
# ----------------------------------------------------------------------
BlockRef = tuple[int, int, int]


def _seed_block_refs(plan: QueryPlan) -> list[BlockRef]:
    return [
        (int(b), int(cp), int(cid))
        for b in plan.bin_ids
        for cp, cid in zip(plan.cpos, plan.chunk_ids)
    ]


def _to_refs(work: BlockList) -> list[BlockRef]:
    return list(zip(work.bin_ids.tolist(), work.cpos.tolist(), work.chunk_ids.tolist()))


def _seed_column_order(blocks: list[BlockRef], n_ranks: int) -> list[list[BlockRef]]:
    ordered = sorted(blocks)
    base, extra = divmod(len(ordered), n_ranks)
    out, start = [], 0
    for rank in range(n_ranks):
        size = base + (1 if rank < extra else 0)
        out.append(ordered[start : start + size])
        start += size
    return out


def _seed_estimated_raw_bytes(ctx, query, plan, chunk_levels=None) -> int:
    """The per-bin walk ``PlanContext.estimated_raw_bytes`` replaced."""
    config = ctx.config
    mixed = config.plod_enabled and chunk_levels is not None
    n_groups = min(query.plod_level, config.n_groups) if config.plod_enabled else 8
    lv = np.clip(chunk_levels[plan.cpos], 1, config.n_groups) if mixed else None
    total = 0
    for i in range(plan.bin_ids.size):
        counts = ctx.counts64[int(plan.bin_ids[i])][plan.cpos]
        n_elem = int(counts.sum())
        total += n_elem * 8  # index positions
        if query.wants_values or not bool(plan.aligned[i]):
            total += int((counts * lv).sum()) if mixed else n_elem * n_groups
    return total


def _seed_round_robin(blocks: list[BlockRef], n_ranks: int) -> list[list[BlockRef]]:
    ordered = sorted(blocks)
    out: list[list[BlockRef]] = [[] for _ in range(n_ranks)]
    for i, block in enumerate(ordered):
        out[i % n_ranks].append(block)
    return out


def _synthetic_plan(n_bins: int, n_chunks: int, seed: int) -> QueryPlan:
    rng = np.random.default_rng(seed)
    cpos = np.sort(
        rng.choice(4 * n_chunks, size=n_chunks, replace=False)
    ).astype(np.int64)
    return QueryPlan(
        bin_ids=np.sort(rng.choice(64, size=n_bins, replace=False)).astype(np.int64),
        aligned=rng.random(n_bins) < 0.5,
        cpos=cpos,
        chunk_ids=rng.permutation(n_chunks).astype(np.int64),
        interior=rng.random(n_chunks) < 0.5,
        region=None,
    )


def _assert_assignment_equal(seed_assignment, array_assignment):
    assert len(seed_assignment) == len(array_assignment)
    for seed_rank, rank_list in zip(seed_assignment, array_assignment):
        assert isinstance(rank_list, BlockList)
        assert seed_rank == _to_refs(rank_list)


# ----------------------------------------------------------------------
# Scheduler equivalence on synthetic work-lists
# ----------------------------------------------------------------------


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7, 8, 16])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 17), (16, 50), (5, 64)])
    def test_column_order_matches_seed(self, shape, n_ranks):
        plan = _synthetic_plan(*shape, seed=shape[0] * 100 + n_ranks)
        seed = _seed_column_order(_seed_block_refs(plan), n_ranks)
        array = column_order_assignment(plan.block_list(), n_ranks)
        _assert_assignment_equal(seed, array)

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7, 8, 16])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 17), (16, 50), (5, 64)])
    def test_round_robin_matches_seed(self, shape, n_ranks):
        plan = _synthetic_plan(*shape, seed=shape[0] * 300 + n_ranks)
        seed = _seed_round_robin(_seed_block_refs(plan), n_ranks)
        array = round_robin_assignment(plan.block_list(), n_ranks)
        _assert_assignment_equal(seed, array)

    def test_block_list_matches_seed_refs(self):
        plan = _synthetic_plan(7, 33, seed=5)
        assert _to_refs(plan.block_list()) == _seed_block_refs(plan)

    def test_empty_work_list(self):
        empty = BlockList(
            bin_ids=np.empty(0, dtype=np.int64),
            cpos=np.empty(0, dtype=np.int64),
            chunk_ids=np.empty(0, dtype=np.int64),
        )
        for policy in (column_order_assignment, round_robin_assignment):
            spans = policy(empty, 4)
            assert len(spans) == 4
            assert all(len(s) == 0 for s in spans)


# ----------------------------------------------------------------------
# Planner equivalence on real stores across layout variants
# ----------------------------------------------------------------------


def _write_store(config, data, **store_kwargs):
    fs = SimulatedPFS()
    MLOCWriter(fs, "/eq", config).write(data, variable="field")
    return fs, MLOCStore.open(fs, "/eq", "field", **store_kwargs)


@pytest.fixture(scope="module")
def eq_field() -> np.ndarray:
    return gts_like((128, 128), seed=21)


CONFIGS = [
    ("VMS-hilbert", dict(level_order="VMS", curve="hilbert")),
    ("VSM-zorder", dict(level_order="VSM", curve="zorder")),
    ("VMS-rowmajor", dict(level_order="VMS", curve="rowmajor")),
    ("VMS-hierarchical", dict(level_order="VMS", curve="hierarchical")),
]

QUERIES = [
    Query(value_range=(0.2, 0.8), output="values"),
    Query(region=((16, 96), (32, 128)), output="values", plod_level=3),
    Query(value_range=(0.1, 0.5), region=((0, 64), (0, 64)), output="positions"),
]


class TestStoreEquivalence:
    @pytest.mark.parametrize("label,overrides", CONFIGS)
    def test_assignments_match_seed(self, eq_field, label, overrides):
        config = mloc_col(
            (32, 32), n_bins=8, target_block_bytes=8 * 1024, **overrides
        )
        _, store = _write_store(config, eq_field, n_ranks=4)
        for query in QUERIES:
            plan = store.context.plan_uncached(query)
            for n_ranks in (1, 3, 4, 8):
                seed = _seed_column_order(_seed_block_refs(plan), n_ranks)
                array = column_order_assignment(plan.block_list(), n_ranks)
                _assert_assignment_equal(seed, array)

    @pytest.mark.parametrize("kind", ["col", "iso"], ids=["mloc_col", "mloc_iso"])
    def test_results_identical_with_plan_cache(self, kind):
        """Plan cache off, then a miss, then a hit: the ``plan-*`` rows
        of ``tests/test_contract_matrix.py``."""
        check("plan-miss", kind)
        check("plan-hit", kind)

    def test_scheduler_policies_end_to_end(self):
        """Round-robin assignment only redistributes work: the
        ``round-robin`` row of the contract matrix."""
        check("round-robin", "col")


# ----------------------------------------------------------------------
# PlanContext precompute correctness
# ----------------------------------------------------------------------


class TestPlanContext:
    def test_precomputes_match_meta(self, col_store):
        _, store = col_store
        ctx = store.context
        meta = store.meta
        assert ctx.counts64.dtype == np.int64
        assert np.array_equal(ctx.counts64, meta.counts)
        n_chunks = meta.n_chunks
        index_rows = iter(ctx.index_reads)
        data_rows = iter(ctx.data_reads)
        for bin_id in range(meta.config.n_bins):
            counts = meta.counts[bin_id].astype(np.int64)
            assert np.array_equal(
                ctx.pos_offsets[bin_id], np.concatenate(([0], np.cumsum(counts)))
            )
            sizes = cell_sizes(meta.config, counts, n_chunks)
            assert np.array_equal(
                ctx.cell_offsets[bin_id], np.concatenate(([0], np.cumsum(sizes)))
            )
            # Every block, in table order, as (bin, row, first, end,
            # offset, length, raw_bytes, crc) under its global key.
            for row, (first, end, offset, length, crc) in enumerate(
                meta.index_blocks.of_bin(bin_id).tolist()
            ):
                raw = int(counts[first:end].sum()) * 8
                assert next(index_rows) == (
                    bin_id, row, first, end, offset, length, raw, crc
                )  # fmt: skip
            for row, (first, end, offset, length, raw, crc) in enumerate(
                meta.data_blocks.of_bin(bin_id).tolist()
            ):
                assert next(data_rows) == (
                    bin_id, row, first, end, offset, length, raw, crc
                )  # fmt: skip
        assert next(index_rows, None) is None and next(data_rows, None) is None
        for keys, base, reads, offsets, stride in (
            (ctx.index_keys, ctx.index_base, ctx.index_reads, ctx.pos_offsets, n_chunks),
            (ctx.data_keys, ctx.data_base, ctx.data_reads, ctx.cell_offsets, ctx.n_cells),
        ):
            assert (np.diff(keys) > 0).all()
            assert keys.tolist() == [r[0] * stride + r[2] for r in reads]
            assert base.tolist() == [int(offsets[r[0], r[2]]) for r in reads]

    @pytest.mark.parametrize("kind", ["col", "vsm", "iso", "isa"])
    def test_estimated_raw_bytes_matches_per_bin_loop(self, kind, request):
        """Broker admission / tol stamping cost: one reduction over the
        plan's (bins x chunks) counts equals the per-bin walk exactly."""
        _, store = request.getfixturevalue(f"{kind}_store")
        ctx, edges = store.context, store.meta.edges
        on_edges = (float(edges[3]), float(edges[9]))  # interior bins aligned
        off_edges = (float(edges[3:5].mean()), float(edges[9:11].mean()))
        box = ((40, 200), (8, 120))
        chunk_levels = np.random.default_rng(5).integers(0, 9, store.meta.n_chunks)
        for output in ("values", "positions"):
            for query in (
                Query(output=output),
                Query(value_range=on_edges, output=output),
                Query(value_range=off_edges, output=output, plod_level=3),
                Query(value_range=off_edges, region=box, output=output),
                Query(region=box, output=output, plod_level=2),
                Query(value_range=(9e9, 9.1e9), output=output),  # empty plan
            ):
                plan = ctx.plan_uncached(query)
                for levels in (None, chunk_levels):
                    got = ctx.estimated_raw_bytes(query, plan, levels)
                    assert type(got) is int
                    assert got == _seed_estimated_raw_bytes(ctx, query, plan, levels)

    def test_plan_matches_plan_query(self, col_store):
        _, store = col_store
        q = Query(value_range=(0.25, 0.75), region=((32, 96), (0, 64)))
        via_ctx = store.context.plan_uncached(q)
        direct = plan_query(
            store.grid,
            store.curve,
            store.scheme,
            q,
            hierarchical=store.meta.config.curve == "hierarchical",
        )
        for attr in ("bin_ids", "aligned", "cpos", "chunk_ids", "interior"):
            assert np.array_equal(getattr(via_ctx, attr), getattr(direct, attr))
        assert via_ctx.region == direct.region

    def test_rejects_negative_cache(self, col_store):
        _, store = col_store
        with pytest.raises(ValueError, match="plan_cache"):
            PlanContext(
                store.meta, store.grid, store.curve, store.scheme, plan_cache=-1
            )


class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(2)
        plans = {k: _synthetic_plan(2, 4, seed=k) for k in range(3)}
        assert cache.get(("a",)) is None
        cache.put(("a",), plans[0])
        cache.put(("b",), plans[1])
        assert cache.get(("a",)) is plans[0]  # refresh "a"
        cache.put(("c",), plans[2])  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is plans[0]
        assert cache.get(("c",)) is plans[2]
        assert len(cache) == 2
        assert cache.hits == 3
        assert cache.misses == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(0)

    def test_store_fingerprint_distinguishes_queries(self, col_store):
        _, store = col_store
        ctx = store.context
        base = Query(value_range=(0.2, 0.8), output="values")
        assert ctx.fingerprint(base) == ctx.fingerprint(
            Query(value_range=(0.2, 0.8), output="values")
        )
        for other in (
            Query(value_range=(0.2, 0.9), output="values"),
            Query(value_range=(0.2, 0.8), output="positions"),
            Query(value_range=(0.2, 0.8), output="values", plod_level=3),
            Query(
                value_range=(0.2, 0.8),
                region=((0, 32), (0, 32)),
                output="values",
            ),
        ):
            assert ctx.fingerprint(base) != ctx.fingerprint(other)
