"""Unit tests for executor internals (cell geometry, extent arithmetic)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import make_codec
from repro.core.chunking import ChunkGrid
from repro.core.config import mloc_col, mloc_iso
from repro.core.meta import BlockTable
from repro.core.engine.stages import modeled_decompression
from repro.core.planner import PlanContext, merge_extents
from repro.core.planner import cell_sizes as _cell_sizes
from repro.pfs.costmodel import ASSEMBLY_THROUGHPUT, INDEX_DECODE_THROUGHPUT
from repro.plod.byteplanes import GROUP_WIDTHS


class TestCellSizes:
    def test_vs_order_is_counts_times_8(self):
        cfg = mloc_iso(chunk_shape=(4,))
        counts = np.array([3, 0, 5], dtype=np.uint32)
        assert _cell_sizes(cfg, counts, 3).tolist() == [24, 0, 40]

    def test_vms_group_major(self):
        cfg = mloc_col(chunk_shape=(4,))  # VMS
        counts = np.array([2, 1], dtype=np.uint32)
        sizes = _cell_sizes(cfg, counts, 2)
        # group 0 (2 bytes/elem) over both chunks, then groups 1..6.
        assert sizes.tolist() == [4, 2] + [2, 1] * 6

    def test_vsm_chunk_major(self):
        cfg = mloc_col(chunk_shape=(4,), level_order="VSM")
        counts = np.array([2, 1], dtype=np.uint32)
        sizes = _cell_sizes(cfg, counts, 2)
        # chunk 0's seven groups, then chunk 1's.
        assert sizes.tolist() == [4, 2, 2, 2, 2, 2, 2] + [2, 1, 1, 1, 1, 1, 1]

    def test_total_bytes_invariant(self):
        cfg_col = mloc_col(chunk_shape=(4,))
        cfg_vsm = mloc_col(chunk_shape=(4,), level_order="VSM")
        counts = np.array([7, 0, 13, 2], dtype=np.uint32)
        total = int(counts.sum()) * 8
        assert int(_cell_sizes(cfg_col, counts, 4).sum()) == total
        assert int(_cell_sizes(cfg_vsm, counts, 4).sum()) == total


    def test_matrix_is_one_row_of_cells_per_bin(self):
        counts = np.array([[2, 1, 0], [0, 3, 5]], dtype=np.uint32)
        for cfg in (
            mloc_col(chunk_shape=(4,)),
            mloc_col(chunk_shape=(4,), level_order="VSM"),
            mloc_iso(chunk_shape=(4,)),
        ):
            both = _cell_sizes(cfg, counts, 3)
            for bin_id in range(2):
                assert both[bin_id].tolist() == _cell_sizes(cfg, counts[bin_id], 3).tolist()


_LAYOUTS = {
    "VMS": mloc_col(chunk_shape=(4,)),
    "VSM": mloc_col(chunk_shape=(4,), level_order="VSM"),
    "VS": mloc_iso(chunk_shape=(4,)),
}


def _cut(draw, n):
    """A random partition of ``range(n)`` into consecutive blocks."""
    inner = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(inner), n]
    return list(zip(bounds[:-1], bounds[1:]))


@st.composite
def _stores(draw):
    """A random tiny store: counts (zeros included), block cuts, decoded
    blocks, and a rank's rows (ascending cpos per bin) with levels."""
    layout = draw(st.sampled_from(sorted(_LAYOUTS)))
    config = _LAYOUTS[layout]
    n_bins, n_chunks = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, 3), min_size=n_chunks, max_size=n_chunks),
                      min_size=n_bins, max_size=n_bins)),
        dtype=np.uint32,
    )
    n_cells = n_chunks * (7 if config.plod_enabled else 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def cell_items(bin_id, cell):
        """(chunk, group, decoded items) of one layout cell."""
        if layout == "VMS":
            g, c = divmod(cell, n_chunks)
        elif layout == "VSM":
            c, g = divmod(cell, 7)
        else:
            return cell, 0, int(counts[bin_id, cell])
        return c, g, int(counts[bin_id, c]) * GROUP_WIDTHS[g]

    index_tables, data_tables, index_blocks, data_blocks = [], [], [], []
    for bin_id in range(n_bins):
        rows = []
        for first, end in _cut(draw, n_chunks):
            n = int(counts[bin_id, first:end].sum())
            rows.append((first, end, len(index_blocks), 1, 0))
            index_blocks.append((bin_id, first, end, rng.integers(0, 1 << 40, n)))
        index_tables.append(np.array(rows, dtype=np.int64))
        rows = []
        for first, end in _cut(draw, n_cells):
            n = sum(cell_items(bin_id, cell)[2] for cell in range(first, end))
            raw = n if config.plod_enabled else 8 * n
            rows.append((first, end, len(data_blocks), 1, raw, 0))
            decoded = (
                rng.integers(1, 256, n).astype(np.uint8) if config.plod_enabled
                else rng.random(n) + 1.0
            )
            data_blocks.append((bin_id, first, end, decoded))
        data_tables.append(np.array(rows, dtype=np.int64))
    meta = SimpleNamespace(
        config=config,
        counts=counts,
        index_blocks=BlockTable.stack(index_tables),
        data_blocks=BlockTable.stack(data_tables),
    )
    context = PlanContext(meta, ChunkGrid((4 * n_chunks,), (4,)), None, None)

    bin_ids, cpos = [], []
    for bin_id in range(n_bins):
        picked = sorted(draw(st.sets(st.integers(0, n_chunks - 1))))
        bin_ids += [bin_id] * len(picked)
        cpos += picked
    top = 7 if config.plod_enabled else 1
    levels = draw(st.lists(st.integers(1, top), min_size=len(cpos), max_size=len(cpos)))
    rows = tuple(np.array(a, dtype=np.int64) for a in (bin_ids, cpos, levels))
    return layout, context, counts, cell_items, index_blocks, data_blocks, rows


def _copy(runs, blocks, out):
    for block, lo, hi, dest in runs:
        assert 0 <= lo < hi <= blocks[block][3].size  # inside one block
        out[dest : dest + hi - lo] = blocks[block][3][lo:hi]
    return out


class TestExtentArithmetic:
    """``PlanContext.index_extents`` / ``data_extents`` + ``merge_extents``
    against a per-cell loop that walks the block tables."""

    @settings(max_examples=150, deadline=None)
    @given(_stores())
    def test_positions_match_per_row_loop(self, store):
        _, context, counts, _, index_blocks, _, (bin_ids, cpos, _) = store
        expected, touched = [], set()
        for b, c in zip(bin_ids.tolist(), cpos.tolist()):
            (gid,) = [
                i for i, (bb, first, end, _) in enumerate(index_blocks)
                if bb == b and first <= c < end
            ]
            first, decoded = index_blocks[gid][1], index_blocks[gid][3]
            at = int(counts[b, first:c].sum())
            expected.append(decoded[at : at + int(counts[b, c])])
            touched.add(gid)
        block, lo, hi = context.index_extents(bin_ids, cpos)
        assert sorted(touched) == np.unique(block).tolist()
        runs = merge_extents(block, lo, hi)
        out = _copy(runs, index_blocks, np.zeros(int((hi - lo).sum()), dtype=np.int64))
        assert out.tolist() == np.concatenate([np.empty(0, np.int64), *expected]).tolist()
        # Merging is maximal: a block whose rows are consecutive is one run.
        assert len(runs) <= len(touched) + np.count_nonzero(np.diff(cpos) > 1)

    @settings(max_examples=300, deadline=None)
    @given(_stores())
    def test_planes_match_per_cell_loop(self, store):
        layout, context, counts, cell_items, _, data_blocks, rows = store
        bin_ids, cpos, levels = rows
        n_chunks = counts.shape[1]
        n_groups = int(levels.max()) if levels.size else 0
        dtype = np.float64 if layout == "VS" else np.uint8
        planes, touched = [], set()
        for g in range(n_groups):
            plane = [np.empty(0, dtype)]
            for b, c, level in zip(bin_ids.tolist(), cpos.tolist(), levels.tolist()):
                cell = {"VMS": g * n_chunks + c, "VSM": c * 7 + g, "VS": c}[layout]
                n = cell_items(b, cell)[2]
                if g >= level:  # beyond the row's level: zeros, no block
                    plane.append(np.zeros(n, dtype))
                    continue
                (gid,) = [
                    i for i, (bb, first, end, _) in enumerate(data_blocks)
                    if bb == b and first <= cell < end
                ]
                touched.add(gid)  # requested even when the cell is empty
                first, decoded = data_blocks[gid][1], data_blocks[gid][3]
                at = sum(cell_items(b, k)[2] for k in range(first, cell))
                plane.append(decoded[at : at + n])
            planes.append(np.concatenate(plane))
        block, lo, hi = context.data_extents(bin_ids, cpos, n_groups)
        wanted = np.arange(n_groups)[:, None] < levels
        assert sorted(touched) == np.unique(block[wanted]).tolist()
        runs = merge_extents(block, lo, hi, wanted)
        out = _copy(runs, data_blocks, np.zeros(int((hi - lo).sum()), dtype=dtype))
        assert out.tobytes() == b"".join(p.tobytes() for p in planes)
        plane_ends = np.cumsum([p.size for p in planes])
        for _, lo_, hi_, dest in runs:  # inside one plane
            assert np.searchsorted(plane_ends, dest, side="right") == np.searchsorted(
                plane_ends, dest + hi_ - lo_ - 1, side="right"
            )

    def test_adjacent_groups_of_one_chunk_stay_separate_planes(self):
        # Single-chunk V-S-M block: group g + 1 follows group g both in
        # the block and in the output, yet each plane is its own run.
        block = np.zeros((3, 1), dtype=np.int64)
        lo, hi = np.array([[0], [4], [6]]), np.array([[4], [6], [8]])
        assert merge_extents(block, lo, hi) == [(0, 0, 4, 0), (0, 4, 6, 4), (0, 6, 8, 6)]

    def test_merges_over_empty_rows_and_splits_at_masked_ones(self):
        block = np.array([5, 5, 5, 5, 6])
        lo, hi = np.array([0, 3, 3, 7, 0]), np.array([3, 3, 7, 9, 2])
        assert merge_extents(block, lo, hi) == [(5, 0, 9, 0), (6, 0, 2, 9)]
        wanted = np.array([True, True, False, True, True])
        assert merge_extents(block, lo, hi, wanted) == [
            (5, 0, 3, 0), (5, 7, 9, 7), (6, 0, 2, 9),
        ]  # fmt: skip

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        assert merge_extents(empty, empty, empty) == []
        assert merge_extents(np.empty((0, 0), np.int64), empty, empty) == []


class TestModeledDecompression:
    def test_linear_in_bytes_and_scale(self):
        codec = make_codec("zlib-bytes")
        t1 = modeled_decompression(codec, 1.0, data_raw_bytes=1_000_000, index_raw_bytes=0)
        t2 = modeled_decompression(codec, 8.0, data_raw_bytes=1_000_000, index_raw_bytes=0)
        expected = 1_000_000 / codec.decode_throughput + 1_000_000 / ASSEMBLY_THROUGHPUT
        assert t1 == pytest.approx(expected)
        assert t2 == pytest.approx(8 * t1)

    def test_index_component(self):
        codec = make_codec("zlib-bytes")
        assert modeled_decompression(
            codec, 1.0, data_raw_bytes=0, index_raw_bytes=2_400_000
        ) == pytest.approx(2_400_000 / INDEX_DECODE_THROUGHPUT)

    def test_slow_codec_costs_more(self):
        fast = make_codec("isobar")
        slow = make_codec("isabela")
        assert modeled_decompression(slow, 1.0, 10_000_000, 0) > modeled_decompression(
            fast, 1.0, 10_000_000, 0
        )
