"""Tests for block-to-rank assignment policies (Section III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.scheduler import (
    BlockList,
    assignment_file_counts,
    column_order_assignment,
    round_robin_assignment,
)


Row = tuple[int, int, int]  # (bin id, curve position, chunk id)


def _block_list(rows: list[Row]) -> BlockList:
    bin_ids, cpos, chunk_ids = zip(*rows) if rows else ((), (), ())
    return BlockList(bin_ids=bin_ids, cpos=cpos, chunk_ids=chunk_ids)


def _rows(work: BlockList) -> list[Row]:
    return list(zip(work.bin_ids.tolist(), work.cpos.tolist(), work.chunk_ids.tolist()))


def _grid_rows(n_bins: int, n_chunks: int) -> list[Row]:
    return [(b, c, c * 10 + b) for b in range(n_bins) for c in range(n_chunks)]


def _blocks(n_bins: int, n_chunks: int) -> BlockList:
    return _block_list(_grid_rows(n_bins, n_chunks))


class TestColumnOrder:
    def test_balanced_counts(self):
        blocks = _blocks(4, 10)
        assignment = column_order_assignment(blocks, 8)
        sizes = [len(a) for a in assignment]
        assert sum(sizes) == 40
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_in_bin_major_order(self):
        blocks = _blocks(4, 10)
        assignment = column_order_assignment(blocks, 4)
        # Rank 0 must hold exactly bin 0 (10 blocks per bin, 10 per rank).
        assert set(assignment[0].bin_ids.tolist()) == {0}
        assert set(assignment[3].bin_ids.tolist()) == {3}

    def test_minimizes_files_vs_round_robin(self):
        blocks = _blocks(8, 16)
        col = assignment_file_counts(column_order_assignment(blocks, 8))
        rr = assignment_file_counts(round_robin_assignment(blocks, 8))
        # The paper's policy: column order touches strictly fewer bin
        # files per rank than dealing blocks round robin.
        assert col.sum() < rr.sum()
        assert col.max() <= 2  # contiguous spans cross at most one boundary

    def test_more_ranks_than_blocks(self):
        blocks = _blocks(1, 3)
        assignment = column_order_assignment(blocks, 8)
        assert sum(len(a) for a in assignment) == 3
        assert len(assignment) == 8

    def test_empty_blocks(self):
        assignment = column_order_assignment(_block_list([]), 4)
        assert [len(a) for a in assignment] == [0, 0, 0, 0]

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            column_order_assignment(_block_list([]), 0)
        with pytest.raises(ValueError):
            round_robin_assignment(_block_list([]), -1)


class TestRoundRobin:
    def test_deals_in_turn(self):
        blocks = _blocks(2, 4)
        assignment = round_robin_assignment(blocks, 4)
        sizes = [len(a) for a in assignment]
        assert sizes == [2, 2, 2, 2]
        # every rank sees both bins
        assert all(len(set(a.bin_ids.tolist())) == 2 for a in assignment)


class TestBlockRefOrdering:
    def test_sort_key_is_bin_then_position(self):
        rows = [(1, 0, 5), (0, 9, 1), (0, 2, 7)]
        assert _rows(_block_list(rows).lexsorted()) == [(0, 2, 7), (0, 9, 1), (1, 0, 5)]


class TestBlockList:
    def test_refs_roundtrip(self):
        rows = _grid_rows(3, 5)
        work = _block_list(rows)
        assert len(work) == 15
        assert _rows(work) == rows
        assert work.bin_ids.dtype == np.int64

    def test_lexsorted_matches_sorted_refs(self):
        rows = [(1, 0, 5), (0, 9, 1), (0, 2, 7), (0, 2, 3)]
        assert _rows(_block_list(rows).lexsorted()) == sorted(rows)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="column lengths"):
            BlockList(
                bin_ids=np.zeros(2, dtype=np.int64),
                cpos=np.zeros(3, dtype=np.int64),
                chunk_ids=np.zeros(2, dtype=np.int64),
            )

    def test_bin_segments_are_contiguous_runs(self):
        """A rank's span is bin-major: each bin's rows form one
        contiguous run, curve positions ascending inside it."""
        work = _blocks(3, 4).take(np.random.default_rng(0).permutation(12)).lexsorted()
        assert work.bin_ids.tolist() == [0] * 4 + [1] * 4 + [2] * 4
        assert work.cpos.reshape(3, 4).tolist() == [[0, 1, 2, 3]] * 3

    def test_policies_return_block_lists_for_block_list_input(self):
        work = _blocks(4, 6)
        for policy in (column_order_assignment, round_robin_assignment):
            spans = policy(work, 3)
            assert all(isinstance(s, BlockList) for s in spans)
            assert sum(len(s) for s in spans) == len(work)

    def test_file_counts_match_ref_path(self):
        """``assignment_file_counts`` against a row-at-a-time count."""
        work = _blocks(5, 7)
        for n_ranks in (1, 2, 4):
            assignment = column_order_assignment(work, n_ranks)
            by_row = [len({b for b, _, _ in _rows(span)}) for span in assignment]
            assert assignment_file_counts(assignment).tolist() == by_row


@settings(max_examples=50, deadline=None)
@given(
    n_bins=st.integers(min_value=1, max_value=12),
    n_chunks=st.integers(min_value=1, max_value=20),
    n_ranks=st.integers(min_value=1, max_value=16),
)
def test_partition_property(n_bins, n_chunks, n_ranks):
    """Every policy yields an exact, balanced partition of the blocks."""
    blocks = _blocks(n_bins, n_chunks)
    for policy in (column_order_assignment, round_robin_assignment):
        assignment = policy(blocks, n_ranks)
        flat = [row for rank in assignment for row in _rows(rank)]
        assert sorted(flat) == sorted(_rows(blocks))
        sizes = [len(a) for a in assignment]
        assert max(sizes) - min(sizes) <= 1
