"""Unit tests for the hierarchical count index.

Covers the structural contracts in isolation: the serialized record
must roundtrip and reject corruption, interior-node range queries must
agree with brute-force sums over the exact count matrix in
O(fanout log n_bins) nodes, and a masked fetch through a ``use_hbi``
handle must read exactly what the flat handle reads.
"""

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, mloc_col
from repro.datasets import gts_like
from repro.index import Bitmap
from repro.index.hbi import (
    HBIBuilder,
    HBIndex,
    decode_hierarchical_bitmap,
    encode_hierarchical_bitmap,
    hbi_path,
)
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def store_and_field():
    fs = SimulatedPFS()
    field = gts_like((64, 64), seed=11)
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    MLOCWriter(fs, "/h", cfg).write(field, variable="f")
    return MLOCStore.open(fs, "/h", "f", use_hbi=True), field


class TestConstruction:
    def test_builder_rejects_out_of_order_chunks(self):
        builder = HBIBuilder(2, 4, 16)
        builder.add_chunk(0, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="in order"):
            builder.add_chunk(2, np.zeros(2, dtype=np.int64))

    def test_builder_rejects_missing_chunks(self):
        builder = HBIBuilder(2, 4, 16)
        builder.add_chunk(0, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="before finish"):
            builder.finish()

    def test_run_counts_match_meta(self, store_and_field):
        store, _ = store_and_field
        hbi = store.hbi
        counts = store.meta.counts.astype(np.int64)
        n_runs = hbi.n_runs
        padded = np.zeros((hbi.n_bins, n_runs * hbi.leaf_span), dtype=np.int64)
        padded[:, : hbi.n_chunks] = counts
        expected = padded.reshape(hbi.n_bins, n_runs, hbi.leaf_span).sum(axis=2)
        assert np.array_equal(hbi.run_counts, expected)

    def test_chunk_by_chunk_builds_the_written_record(self, store_and_field):
        store, _ = store_and_field
        counts = store.meta.counts
        builder = HBIBuilder(*counts.shape, store.grid.chunk_size, leaf_span=3)
        builder.add_chunks(0, counts[:, :2])
        for cpos in range(2, counts.shape[1]):
            builder.add_chunk(cpos, counts[:, cpos])
        whole = HBIBuilder(*counts.shape, store.grid.chunk_size, leaf_span=3)
        whole.add_chunks(0, counts)
        assert builder.finish().to_bytes() == whole.finish().to_bytes()
        builder = HBIBuilder(*counts.shape, store.grid.chunk_size)
        for cpos in range(counts.shape[1]):
            builder.add_chunk(cpos, counts[:, cpos])
        raw = bytes(store.fs.session().open(hbi_path(store.root)).read_all())
        assert builder.finish().to_bytes() == raw

    def test_levels_sum_their_children(self, store_and_field):
        store, _ = store_and_field
        hbi = store.hbi
        matrices = [hbi.run_counts, *hbi.levels]
        assert matrices[-1].shape == (1, hbi.n_runs)
        for child, parent in zip(matrices, matrices[1:]):
            for row in range(parent.shape[0]):
                below = child[row * hbi.fanout : (row + 1) * hbi.fanout]
                assert np.array_equal(parent[row], below.sum(axis=0))


class TestSerialization:
    def test_roundtrip(self, store_and_field):
        store, _ = store_and_field
        hbi = store.hbi
        clone = HBIndex.from_bytes(hbi.to_bytes())
        assert clone.to_bytes() == hbi.to_bytes()
        assert np.array_equal(clone.run_counts, hbi.run_counts)
        assert all(map(np.array_equal, clone.levels, hbi.levels))

    @pytest.mark.parametrize("n_bins,n_chunks", [(5, 0), (2**40, 0), (0, 5)])
    def test_levels_of_an_empty_matrix_aggregate(self, n_bins, n_chunks):
        """The interior levels are computed at load, so a record with
        no (bin, run) cell must still load, not fail mid-aggregation."""
        empty = HBIndex(
            leaf_span=8, fanout=4, n_bins=n_bins, n_chunks=n_chunks, chunk_size=16,
            run_counts=np.zeros((n_bins, -(-n_chunks // 8))),
        )
        clone = HBIndex.from_bytes(empty.to_bytes())
        assert clone.cardinality(0, min(n_bins, 3)) == 0

    def test_bad_magic_rejected(self, store_and_field):
        store, _ = store_and_field
        raw = bytearray(store.hbi.to_bytes())
        raw[0] ^= 0xFF
        with pytest.raises(ValueError, match="hierarchical index record: bad magic"):
            HBIndex.from_bytes(bytes(raw))

    def test_any_corruption_fails_crc(self, store_and_field):
        store, _ = store_and_field
        raw = bytearray(store.hbi.to_bytes())
        for offset in (len(raw) // 3, len(raw) // 2, len(raw) - 10):
            flipped = bytearray(raw)
            flipped[offset] ^= 0x40
            with pytest.raises(ValueError, match="CRC|version|hierarchical"):
                HBIndex.from_bytes(bytes(flipped))

    def test_unknown_version_rejected(self, store_and_field):
        import struct
        import zlib

        store, _ = store_and_field
        raw = bytearray(store.hbi.to_bytes())
        struct.pack_into("<I", raw, 8, 99)  # version field after magic
        body = bytes(raw[:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(ValueError, match="version 99"):
            HBIndex.from_bytes(bytes(raw))


class TestInteriorNodes:
    def test_range_counts_match_brute_force_for_every_range(self, store_and_field):
        store, _ = store_and_field
        hbi = store.hbi
        n_levels = len(hbi.levels) + 1
        # Segment-tree decomposition: per level at most fanout-1 nodes
        # peeled off each unaligned edge, plus a fully-covered top.
        bound = 2 * (hbi.fanout - 1) * n_levels + hbi.fanout
        for lo in range(hbi.n_bins + 1):
            for hi in range(lo, hbi.n_bins + 1):
                counts, visited = hbi.range_run_counts(lo, hi)
                assert np.array_equal(counts, hbi.run_counts[lo:hi].sum(axis=0))
                assert visited <= bound, (lo, hi, visited, bound)
                assert hbi.cardinality(lo, hi) == int(counts.sum())

    def test_range_validation(self, store_and_field):
        store, _ = store_and_field
        with pytest.raises(ValueError, match="bad bin range"):
            store.hbi.range_run_counts(-1, 2)
        with pytest.raises(ValueError, match="bad bin range"):
            store.hbi.range_run_counts(0, store.hbi.n_bins + 1)


class TestFsck:
    def test_run_counts_disagreeing_with_meta_are_reported(self, store_and_field):
        from repro.tools import check_store

        store, _ = store_and_field
        fs = SimulatedPFS()
        for path in store.fs.list_files("/h/f/"):
            fs.write_file(path, bytes(store.fs.session().open(path).read_all()))
        assert check_store(fs, "/h", "f") == []
        hbi = HBIndex.from_bytes(store.hbi.to_bytes())
        hbi.run_counts[0, 0] += 1
        fs.write_file(hbi_path("/h/f"), hbi.to_bytes())
        issues = check_store(fs, "/h", "f")
        assert [(i.location, i.message) for i in issues] == [
            ("hbi", "run cardinalities disagree with metadata counts")
        ]


class TestMaskedFetch:
    def test_use_hbi_masked_fetch_reads_what_the_flat_handle_reads(
        self, store_and_field
    ):
        """The index holds counts, not positions, so it cannot tell
        which bins a position mask misses: without ``ranges`` a
        ``use_hbi`` masked fetch plans every bin of the hit chunks,
        exactly like the flat handle."""
        store, field = store_and_field
        bin_ids = store.scheme.assign(field.reshape(-1))
        positions = np.flatnonzero(bin_ids == 3)[:5]
        mask = Bitmap.from_positions(positions, store.n_elements)
        flat = MLOCStore.open(store.fs, "/h", "f")
        results = []
        for handle in (flat, store):
            store.fs.clear_cache()
            results.append(handle.fetch_positions(mask))
        flat_result, hbi_result = results
        assert hbi_result.stats["bins_pruned"] == 0
        assert hbi_result.stats["bytes_read"] == flat_result.stats["bytes_read"]
        assert np.array_equal(hbi_result.positions, positions)
        assert np.array_equal(hbi_result.positions, flat_result.positions)
        assert np.array_equal(hbi_result.values, flat_result.values)
        assert np.array_equal(hbi_result.values, field.reshape(-1)[positions])


class TestExchangePayload:
    def test_roundtrip(self, store_and_field):
        store, field = store_and_field
        flat = field.reshape(-1)
        lo, hi = np.quantile(flat, [0.4, 0.6])
        positions = np.flatnonzero((flat >= lo) & (flat <= hi))
        payload = encode_hierarchical_bitmap(positions, store.grid, store.curve)
        decoded = decode_hierarchical_bitmap(payload, store.grid, store.curve)
        assert np.array_equal(decoded, positions)

    def test_empty_roundtrip(self, store_and_field):
        store, _ = store_and_field
        payload = encode_hierarchical_bitmap(
            np.empty(0, dtype=np.int64), store.grid, store.curve
        )
        decoded = decode_hierarchical_bitmap(payload, store.grid, store.curve)
        assert decoded.size == 0

    def test_payload_overhead_is_bounded(self, store_and_field):
        from repro.index.bitmap import Bitmap

        store, field = store_and_field
        flat_field = field.reshape(-1)
        hbi = store.hbi
        # The run directory costs a fixed header plus one entry per
        # non-empty run, and restarting the 63-bit group phase at each
        # run boundary can split a handful of words that the whole-
        # domain form merges.  Pin that per-run slack so the directory
        # can never silently bloat the exchange.
        for q_lo, q_hi in [(0.0, 0.05), (0.3, 0.5), (0.0, 1.0)]:
            lo, hi = np.quantile(flat_field, [q_lo, q_hi])
            positions = np.flatnonzero((flat_field >= lo) & (flat_field <= hi))
            payload = encode_hierarchical_bitmap(
                positions, store.grid, store.curve, hbi.leaf_span
            )
            flat = Bitmap.from_positions(positions, store.n_elements).wah_bytes()
            assert len(payload) <= len(flat) + 12 + 32 * hbi.n_runs
