"""Tests for the per-bin position index codec."""

import sys
import threading
import zlib
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.binindex as binindex
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import s3d_like
from repro.index.binindex import (
    PositionBlock,
    compress_position_stream,
    encode_position_block,
    encode_position_cells,
)
from repro.pfs import SimulatedPFS
from repro.util.varint import varint_encode_array


def _decode(payload, counts):
    """Per-chunk positions of a block: its positions split at its chunk
    offsets, as fsck reads them."""
    block = PositionBlock(payload, counts)
    positions = block.positions()
    return [positions[lo:hi] for lo, hi in pairwise(block.offsets)]


def _chunks_from_sets(position_sets):
    return [np.array(sorted(s), dtype=np.int64) for s in position_sets]


class TestRoundtrip:
    def test_basic(self):
        chunks = _chunks_from_sets([{0, 5, 6}, {2}, set(), {100, 101}])
        payload = encode_position_block(chunks)
        out = _decode(payload, np.array([3, 1, 0, 2]))
        for got, want in zip(out, chunks):
            assert np.array_equal(got, want)

    def test_empty_block(self):
        payload = encode_position_block([])
        out = _decode(payload, np.array([], dtype=np.int64))
        assert out == []

    def test_all_empty_chunks(self):
        payload = encode_position_block([np.array([], dtype=np.int64)] * 3)
        out = _decode(payload, np.array([0, 0, 0]))
        assert all(a.size == 0 for a in out)

    def test_large_positions(self):
        chunks = [np.array([2**40, 2**40 + 1, 2**50], dtype=np.int64)]
        payload = encode_position_block(chunks)
        out = _decode(payload, np.array([3]))
        assert np.array_equal(out[0], chunks[0])

    def test_compresses_regular_strides(self, rng):
        """Within-chunk positions have regular strides, the whole point
        of delta encoding: the index should be far below 8 B/position."""
        chunks = [np.arange(0, 4096, 2, dtype=np.int64) + i * 5000 for i in range(20)]
        payload = encode_position_block(chunks)
        n_positions = sum(c.size for c in chunks)
        assert len(payload) < n_positions  # < 1 byte per position


class TestValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_position_block([np.array([3, 1])])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_position_block([np.array([1, 1])])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            encode_position_block([np.array([-1, 2])])

    def test_count_mismatch_detected(self):
        payload = encode_position_block([np.array([1, 2, 3])])
        with pytest.raises(ValueError):
            _decode(payload, np.array([2]))

    def test_trailing_bytes_after_the_stream_rejected(self):
        payload = encode_position_block([np.array([1, 2, 3])])
        with pytest.raises(ValueError, match="trailing"):
            _decode(payload + b"junk", np.array([3]))

    def test_truncated_stream_rejected(self):
        payload = encode_position_block([np.arange(0, 3000, 7)])
        with pytest.raises(ValueError, match="truncated"):
            _decode(payload[:-5], np.array([429]))


def _real_block(seed=0):
    """A 64-chunk block as the writer cuts it: each chunk's local ids
    within a 16^3 chunk, some chunks empty, two-byte first values."""
    rng = np.random.default_rng(seed)
    chunks = [
        np.flatnonzero(rng.random(4096) < rng.choice([0.0, 0.01, 0.05])) for _ in range(64)
    ]
    counts = np.array([c.size for c in chunks], dtype=np.int64)
    stream, _ = encode_position_cells(np.concatenate(chunks), counts)
    return chunks, counts, stream.tobytes()


def _deflate(stream: bytes) -> bytes:
    return compress_position_stream(stream)


def _corruptions(case):
    """``(payload, counts)`` variants of the real block that must fail."""
    _, counts, stream = _real_block()
    payload = _deflate(stream)
    nonempty = int(np.flatnonzero(counts)[0])
    if case == "truncated-payload":
        return [(payload[:k], counts) for k in range(len(payload))]
    if case == "truncated-stream":
        return [(_deflate(stream[:k]), counts) for k in range(len(stream))]
    if case == "trailing-byte":
        return [(payload + b"\x00", counts), (_deflate(stream + b"\x05"), counts)]
    if case == "final-continuation":
        return [(_deflate(stream[:-1] + bytes([stream[-1] | 0x80])), counts)]
    if case in ("count-plus-one", "count-minus-one"):
        wrong = counts.copy()
        wrong[nonempty] += 1 if case == "count-plus-one" else -1
        return [(payload, wrong)]
    if case == "empty-counts":
        return [(payload, np.zeros_like(counts))]
    if case == "eleven-byte-varint":
        # The first value padded to eleven bytes: the count still holds.
        padded = bytes([stream[0] | 0x80]) + b"\x80" * 9 + b"\x00"
        return [(_deflate(padded + stream[_first_len(stream) :]), counts)]
    raise AssertionError(case)


def _first_len(stream: bytes) -> int:
    """Bytes of the stream's first varint."""
    return next(i for i, b in enumerate(stream) if b < 0x80) + 1


class TestBlockValidation:
    """Every check runs when the block is built, before any slice; a
    corrupt block is a ``ValueError``, never an ``IndexError``."""

    @pytest.mark.parametrize(
        "case, match",
        [
            ("truncated-payload", "truncated"),
            ("truncated-stream", "continuation bit|expected"),
            ("trailing-byte", "trailing|expected"),
            ("final-continuation", "continuation bit"),
            ("count-plus-one", "expected"),
            ("count-minus-one", "expected"),
            ("empty-counts", "expected 0 values"),
            ("eleven-byte-varint", "exceeds 64 bits"),
        ],
    )
    def test_corrupt_real_block_fails_at_construction(self, case, match):
        variants = _corruptions(case)
        assert variants
        for payload, counts in variants:
            with pytest.raises(ValueError, match=match):
                PositionBlock(payload, counts)

    def test_ten_byte_varint_accepted(self):
        chunks, counts, stream = _real_block()
        first_len = _first_len(stream)
        value = sum((stream[i] & 0x7F) << (7 * i) for i in range(first_len))
        # The same first value, padded to the 64-bit maximum of ten bytes.
        groups = [(value >> (7 * i)) & 0x7F for i in range(10)]
        padded = bytes(g | 0x80 for g in groups[:-1]) + bytes([groups[-1]])
        block = PositionBlock(_deflate(padded + stream[first_len:]), counts)
        assert np.array_equal(block.positions(), np.concatenate(chunks))

    def test_real_block_round_trips(self):
        chunks, counts, stream = _real_block()
        block = PositionBlock(_deflate(stream), counts)
        assert block.size == counts.sum() and block.nbytes == 8 * block.size
        assert np.array_equal(block.positions(), np.concatenate(chunks))


class TestPositionBlockSlices:
    def test_any_range_matches_the_whole_decode(self):
        chunks, counts, stream = _real_block(seed=1)
        payload = _deflate(stream)
        whole = np.concatenate(chunks)
        rng = np.random.default_rng(5)
        for _ in range(200):
            lo, hi = np.sort(rng.integers(0, whole.size + 1, size=2))
            block = PositionBlock(payload, counts)
            assert np.array_equal(block.positions(lo, hi), whole[lo:hi])
            # A second request, inside or outside the first run.
            lo2, hi2 = np.sort(rng.integers(0, whole.size + 1, size=2))
            assert np.array_equal(block.positions(lo2, hi2), whole[lo2:hi2])
            assert np.array_equal(block.positions(), whole)

    def test_out_of_range_request_rejected(self):
        _, counts, stream = _real_block()
        block = PositionBlock(_deflate(stream), counts)
        for lo, hi in ((-1, 3), (5, 4), (0, block.size + 1)):
            with pytest.raises(ValueError, match="outside"):
                block.positions(lo, hi)

    def test_first_run_is_kept_and_a_miss_decodes_the_block_once(self, monkeypatch):
        chunks, counts, stream = _real_block(seed=2)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        decoded = []
        decode = binindex.varint_decode_array

        def spy(buffer, count=None):
            out = decode(buffer, count)
            decoded.append(out.size)
            return out

        monkeypatch.setattr(binindex, "varint_decode_array", spy)
        block = PositionBlock(_deflate(stream), counts)
        assert decoded == []  # construction checks, it does not decode
        lo, hi = int(offsets[10]), int(offsets[14])
        block.positions(lo, hi)
        assert decoded == [hi - lo]
        block.positions(lo + 1, hi - 1)  # inside the kept run
        assert decoded == [hi - lo]
        block.positions(0, 1)  # outside: the whole block, once
        assert decoded == [hi - lo, block.size]
        whole = np.concatenate(chunks)
        assert np.array_equal(block.positions(lo, hi), whole[lo:hi])
        assert decoded == [hi - lo, block.size]
        assert block.nbytes == 8 * whole.size

    def test_concurrent_callers_agree(self):
        """More threads than cores race on one block's memo with a short
        switch interval: every caller gets its own range right."""
        chunks, counts, stream = _real_block(seed=3)
        payload = _deflate(stream)
        whole = np.concatenate(chunks)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        rng = np.random.default_rng(9)
        wrong = []

        def worker(block, seed):
            local = np.random.default_rng(seed)
            for _ in range(20):
                lo, hi = np.sort(local.choice(offsets, size=2))
                if not np.array_equal(block.positions(lo, hi), whole[lo:hi]):
                    wrong.append((lo, hi))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                block = PositionBlock(payload, counts)
                threads = [
                    threading.Thread(target=worker, args=(block, int(rng.integers(1 << 30))))
                    for _ in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestIndexDecodeWorkGuard:
    """Positions varint-decoded by one 0.1 % box value query on a 64^3
    store with 16^3 chunks and 32 bins: they move only if the engine
    stops asking each index block for just the span its rows cover."""

    def test_box_query_decodes_its_span_only(self, monkeypatch):
        fs = SimulatedPFS()
        data = s3d_like((64, 64, 64), seed=0)
        MLOCWriter(fs, "/guard", mloc_col((16, 16, 16), n_bins=32)).write(data, variable="T")
        decoded = []
        decode = binindex.varint_decode_array

        def spy(buffer, count=None):
            out = decode(buffer, count)
            decoded.append(out.size)
            return out

        monkeypatch.setattr(binindex, "varint_decode_array", spy)
        query = Query(region=((20, 27), (30, 36), (40, 46)), output="values")
        cold = MLOCStore.open(fs, "/guard", "T").query(query)
        # The whole-block decode was 262 144 positions: every position
        # of all 32 one-block bins.
        assert (cold.positions.size, sum(decoded)) == (252, 49145)
        cached = MLOCStore.open(fs, "/guard", "T", cache_bytes=64 << 20)
        fs.clear_cache()
        cached.query(query)
        decoded.clear()
        fs.clear_cache()
        again = cached.query(query)
        assert sum(decoded) == 0
        assert np.array_equal(again.positions, cold.positions)
        assert np.array_equal(again.values, cold.values)
        # The cache budgets a block at its whole position array.
        assert cached.runtime_stats()["block_cache"]["current_bytes"] == 3252104


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=10_000), max_size=50),
        min_size=1,
        max_size=12,
    )
)
def test_roundtrip_property(position_sets):
    chunks = _chunks_from_sets(position_sets)
    payload = encode_position_block(chunks)
    counts = np.array([c.size for c in chunks])
    out = _decode(payload, counts)
    assert len(out) == len(chunks)
    for got, want in zip(out, chunks):
        assert np.array_equal(got, want)


def _reference_block(chunks, level=6):
    """The per-chunk loop the slab encoder replaced."""
    deltas = []
    for p in chunks:
        if p.size == 0:
            continue
        if p.size > 1 and np.any(np.diff(p) <= 0):
            raise ValueError("chunk positions must be strictly increasing")
        if p[0] < 0:
            raise ValueError("positions must be non-negative")
        deltas.append(np.concatenate(([p[0]], np.diff(p))).astype(np.uint64))
    if not deltas:
        return zlib.compress(b"", level)
    return zlib.compress(varint_encode_array(np.concatenate(deltas)), level)


_POSITION_SETS = st.lists(
    st.sets(st.integers(min_value=0, max_value=10_000), max_size=50),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(position_sets=_POSITION_SETS, data=st.data())
def test_slab_encoder_yields_every_block_of_its_chunks(position_sets, data):
    """One pass over a slab of chunks; any run of its chunks is then a
    byte range whose deflate is that run's block — a decrease across a
    chunk boundary being legal, the ids restart in every chunk."""
    chunks = _chunks_from_sets(position_sets)
    counts = [c.size for c in chunks]
    stream, bounds = encode_position_cells(np.concatenate(chunks), counts)
    assert bounds.size == len(chunks) + 1 and bounds[0] == 0 and bounds[-1] == stream.size
    lo = data.draw(st.integers(min_value=0, max_value=len(chunks)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(chunks)))
    block = compress_position_stream(stream[bounds[lo] : bounds[hi]])
    assert block == _reference_block(chunks[lo:hi]) == encode_position_block(chunks[lo:hi])


@settings(max_examples=60, deadline=None)
@given(
    position_sets=_POSITION_SETS,
    fault=st.sampled_from(["swap", "repeat", "negative"]),
    data=st.data(),
)
def test_slab_encoder_raises_what_the_per_chunk_loop_raised(position_sets, fault, data):
    chunks = _chunks_from_sets(position_sets)
    least = 1 if fault == "negative" else 2
    candidates = [i for i, c in enumerate(chunks) if c.size >= least]
    if not candidates:
        chunks[0] = np.array([3, 9], dtype=np.int64)
        candidates = [0]
    victim = chunks[data.draw(st.sampled_from(candidates))]
    if fault == "negative":
        victim[0] = -1 - victim[0]
        message = "non-negative"
    else:
        at = data.draw(st.integers(min_value=1, max_value=victim.size - 1))
        victim[at] = victim[at - 1] - (1 if fault == "swap" else 0)
        # A swap at the front of a chunk may also push an id below zero;
        # the loop reports the ordering first, and so does the slab pass.
        message = "strictly increasing"
    with pytest.raises(ValueError, match=message):
        _reference_block(chunks)
    with pytest.raises(ValueError, match=message):
        encode_position_cells(np.concatenate(chunks), [c.size for c in chunks])
    with pytest.raises(ValueError, match=message):
        encode_position_block(chunks)


def test_slab_encoder_rejects_a_count_mismatch():
    with pytest.raises(ValueError, match="position count"):
        encode_position_cells(np.arange(5), [2, 2])
