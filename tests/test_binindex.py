"""Tests for the per-bin position index codec."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.binindex import (
    compress_position_stream,
    decode_position_block,
    encode_position_block,
    encode_position_cells,
)
from repro.util.varint import varint_encode_array


def _chunks_from_sets(position_sets):
    return [np.array(sorted(s), dtype=np.int64) for s in position_sets]


class TestRoundtrip:
    def test_basic(self):
        chunks = _chunks_from_sets([{0, 5, 6}, {2}, set(), {100, 101}])
        payload = encode_position_block(chunks)
        out = decode_position_block(payload, np.array([3, 1, 0, 2]))
        for got, want in zip(out, chunks):
            assert np.array_equal(got, want)

    def test_empty_block(self):
        payload = encode_position_block([])
        out = decode_position_block(payload, np.array([], dtype=np.int64))
        assert out == []

    def test_all_empty_chunks(self):
        payload = encode_position_block([np.array([], dtype=np.int64)] * 3)
        out = decode_position_block(payload, np.array([0, 0, 0]))
        assert all(a.size == 0 for a in out)

    def test_large_positions(self):
        chunks = [np.array([2**40, 2**40 + 1, 2**50], dtype=np.int64)]
        payload = encode_position_block(chunks)
        out = decode_position_block(payload, np.array([3]))
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
            decode_position_block(payload, np.array([2]))

    def test_trailing_bytes_after_the_stream_rejected(self):
        payload = encode_position_block([np.array([1, 2, 3])])
        with pytest.raises(ValueError, match="trailing"):
            decode_position_block(payload + b"junk", np.array([3]))

    def test_truncated_stream_rejected(self):
        payload = encode_position_block([np.arange(0, 3000, 7)])
        with pytest.raises(ValueError, match="truncated"):
            decode_position_block(payload[:-5], np.array([429]))


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
    out = decode_position_block(payload, counts)
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
