"""Unit and property tests for the vectorized varint codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.varint import (
    varint_decode_array,
    varint_encode_array,
    varint_lengths,
    varint_offsets,
)


class TestVarintBasics:
    def test_empty(self):
        assert varint_encode_array(np.empty(0, dtype=np.uint64)) == b""
        out = varint_decode_array(b"")
        assert out.size == 0

    def test_zero(self):
        assert varint_encode_array(np.array([0], dtype=np.uint64)) == b"\x00"

    def test_single_byte_boundary(self):
        # 127 fits in one byte; 128 needs two.
        assert len(varint_encode_array(np.array([127], dtype=np.uint64))) == 1
        assert len(varint_encode_array(np.array([128], dtype=np.uint64))) == 2

    def test_known_encoding(self):
        # LEB128 of 300 = 0xAC 0x02.
        assert varint_encode_array(np.array([300], dtype=np.uint64)) == b"\xac\x02"

    def test_max_uint64(self):
        v = np.array([2**64 - 1], dtype=np.uint64)
        payload = varint_encode_array(v)
        assert len(payload) == 10
        assert np.array_equal(varint_decode_array(payload, 1), v)

    def test_mixed_magnitudes(self):
        v = np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**63], dtype=np.uint64)
        assert np.array_equal(varint_decode_array(varint_encode_array(v), v.size), v)

    def test_order_preserved(self):
        v = np.arange(1000, dtype=np.uint64) * 37
        assert np.array_equal(varint_decode_array(varint_encode_array(v)), v)


class TestVarintErrors:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            varint_encode_array(np.array([-1], dtype=np.int64))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            varint_encode_array(np.zeros((2, 2), dtype=np.uint64))

    def test_truncated_stream(self):
        payload = varint_encode_array(np.array([300], dtype=np.uint64))
        with pytest.raises(ValueError, match="truncated"):
            varint_decode_array(payload[:1])

    def test_count_mismatch(self):
        payload = varint_encode_array(np.array([1, 2, 3], dtype=np.uint64))
        with pytest.raises(ValueError, match="expected 2 values"):
            varint_decode_array(payload, 2)

    def test_empty_with_nonzero_count(self):
        with pytest.raises(ValueError, match="expected 5"):
            varint_decode_array(b"", 5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=200)
)
def test_roundtrip_property(values):
    v = np.array(values, dtype=np.uint64)
    assert np.array_equal(varint_decode_array(varint_encode_array(v), v.size), v)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=100)
)
def test_small_values_one_byte_each(values):
    payload = varint_encode_array(np.array(values, dtype=np.uint64))
    assert len(payload) == len(values)


def _leb128(value: int) -> bytes:
    """Byte-at-a-time reference encoder."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


#: Values of every encoded length 1..10, the edges of each length class
#: (``2**(7k) - 1`` and ``2**(7k)``), and runs of single-byte values so
#: the all-single-byte shortcut and the general path both get streams.
_MIXED_VALUES = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=0, max_value=9).flatmap(
            lambda k: st.integers(
                min_value=(1 << (7 * k)) - (1 if k else 0),
                max_value=min((1 << (7 * (k + 1))) - 1, 2**64 - 1),
            )
        ),
        st.sampled_from([0, 2**63, 2**64 - 1]),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(values=_MIXED_VALUES)
def test_mixed_lengths_match_the_bytewise_reference(values):
    v = np.array(values, dtype=np.uint64)
    stream = varint_encode_array(v)
    assert stream == b"".join(_leb128(x) for x in values)
    assert varint_lengths(v).tolist() == [len(_leb128(x)) for x in values]
    decoded = varint_decode_array(stream, v.size)
    assert decoded.dtype == np.uint64
    assert np.array_equal(decoded, v)
    # An ndarray buffer decodes like bytes.
    assert np.array_equal(varint_decode_array(np.frombuffer(stream, dtype=np.uint8)), v)


@settings(max_examples=60, deadline=None)
@given(values=_MIXED_VALUES.filter(len), data=st.data())
def test_decode_errors_on_mixed_streams(values, data):
    v = np.array(values, dtype=np.uint64)
    stream = varint_encode_array(v)
    with pytest.raises(ValueError, match=f"expected {v.size + 1} values, decoded {v.size}"):
        varint_decode_array(stream, v.size + 1)
    # Dropping the last byte of a multi-byte tail leaves a continuation
    # bit at the end of the stream.
    tail = _leb128(data.draw(st.integers(min_value=128, max_value=2**64 - 1)))
    with pytest.raises(ValueError, match="truncated"):
        varint_decode_array(stream + tail[:-1])
    # Eleven bytes for one value: ten continuation bytes and a last one.
    at = data.draw(st.integers(min_value=0, max_value=len(values)))
    head = b"".join(_leb128(x) for x in values[:at])
    with pytest.raises(ValueError, match="exceeds 64 bits"):
        varint_decode_array(head + b"\x80" * 10 + b"\x01" + stream[len(head):])


@settings(max_examples=100, deadline=None)
@given(values=_MIXED_VALUES, data=st.data())
def test_offsets_cut_the_stream_into_runs_that_decode_alone(values, data):
    v = np.array(values, dtype=np.uint64)
    stream = varint_encode_array(v)
    at = np.arange(v.size + 1)
    offsets = varint_offsets(stream, v.size, at)
    ends = np.concatenate(([0], np.cumsum(varint_lengths(v))))
    assert offsets.tolist() == ends.tolist()
    j = data.draw(st.integers(min_value=0, max_value=v.size))
    k = data.draw(st.integers(min_value=j, max_value=v.size))
    raw = np.frombuffer(stream, dtype=np.uint8)
    assert np.array_equal(varint_decode_array(raw[offsets[j] : offsets[k]], k - j), v[j:k])


def test_offsets_check_what_the_decoder_checks():
    stream = varint_encode_array(np.array([5, 300, 2**63], dtype=np.uint64))
    at = np.arange(4)
    with pytest.raises(ValueError, match="expected 4 values, decoded 3"):
        varint_offsets(stream, 4, at)
    with pytest.raises(ValueError, match="truncated"):
        varint_offsets(stream[:-1], 3, at)
    with pytest.raises(ValueError, match="exceeds 64 bits"):
        varint_offsets(b"\x80" * 10 + b"\x01", 1, np.arange(2))
    assert varint_offsets(b"\x80" * 9 + b"\x01", 1, np.arange(2)).tolist() == [0, 10]
    assert varint_offsets(b"", 0, np.zeros(1, dtype=np.int64)).tolist() == [0]
