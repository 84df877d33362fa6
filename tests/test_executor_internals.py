"""Unit tests for executor internals (cell geometry, block covering)."""

import numpy as np
import pytest

from repro.compression import make_codec
from repro.core.config import MLOCConfig, mloc_col, mloc_iso
from repro.core.engine.stages import RankOutput
from repro.core.planner import cell_sizes as _cell_sizes
from repro.core.planner import covering_rows as _covering_rows
from repro.pfs import SimulatedPFS
from repro.pfs.costmodel import ASSEMBLY_THROUGHPUT, INDEX_DECODE_THROUGHPUT


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


class TestCoveringRows:
    def test_basic_lookup(self):
        row_starts = np.array([0, 10, 20, 30])
        assert _covering_rows(row_starts, np.array([0])) == [0]
        assert _covering_rows(row_starts, np.array([9, 10])) == [0, 1]
        assert _covering_rows(row_starts, np.array([35])) == [3]

    def test_deduplicates_and_sorts(self):
        row_starts = np.array([0, 100])
        cells = np.array([150, 5, 120, 7])
        assert _covering_rows(row_starts, cells) == [0, 1]

    def test_empty(self):
        assert _covering_rows(np.array([0, 10]), np.array([], dtype=np.int64)) == []
        assert _covering_rows(np.array([], dtype=np.int64), np.array([1])) == []


class TestModeledDecompression:
    def _rank(self, data_bytes, index_bytes):
        return RankOutput(
            positions=np.empty(0, dtype=np.int64),
            values=None,
            session=SimulatedPFS().session(),
            data_raw_bytes=data_bytes,
            index_raw_bytes=index_bytes,
        )

    def test_linear_in_bytes_and_scale(self):
        codec = make_codec("zlib-bytes")
        r = self._rank(data_bytes=1_000_000, index_bytes=0)
        t1 = r.modeled_decompression(codec, byte_scale=1.0)
        t2 = r.modeled_decompression(codec, byte_scale=8.0)
        expected = 1_000_000 / codec.decode_throughput + 1_000_000 / ASSEMBLY_THROUGHPUT
        assert t1 == pytest.approx(expected)
        assert t2 == pytest.approx(8 * t1)

    def test_index_component(self):
        codec = make_codec("zlib-bytes")
        r = self._rank(data_bytes=0, index_bytes=2_400_000)
        assert r.modeled_decompression(codec, 1.0) == pytest.approx(
            2_400_000 / INDEX_DECODE_THROUGHPUT
        )

    def test_slow_codec_costs_more(self):
        fast = make_codec("isobar")
        slow = make_codec("isabela")
        r = self._rank(data_bytes=10_000_000, index_bytes=0)
        assert r.modeled_decompression(slow, 1.0) > r.modeled_decompression(fast, 1.0)
