"""Vectorized LEB128-style variable-length integer packing.

The per-bin position indices in MLOC are stored as *deltas* between
consecutive (sorted) linear element positions.  Deltas are small, so a
variable-length encoding followed by a general-purpose compressor (zlib)
yields an index of roughly 20% of the raw data size, matching the
index-size column of Table I in the paper.

A pure-Python byte-at-a-time varint codec would be hopelessly slow for
millions of positions, so both directions are vectorized with NumPy:

* ``varint_encode_array`` computes the byte-length of every value up
  front, allocates one output buffer, and scatters the payload bytes of
  each length class with masked writes.
* ``varint_decode_array`` finds the last byte of every value on the
  whole buffer at once, gathers every value's first byte, and ORs in
  one further 7-bit group per pass, each pass touching only the values
  that long.
* ``varint_offsets`` checks a whole stream the way the decoder does and
  says where given values begin, from the indices of its continuation
  bytes alone: a caller then decodes any run of values by passing its
  byte range to ``varint_decode_array``.

In-chunk position deltas are mostly below 128, so both directions
shortcut the stream whose values all fit one byte: it *is* the values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["varint_encode_array", "varint_decode_array", "varint_lengths", "varint_offsets"]

#: Maximum bytes a uint64 can occupy in LEB128 (ceil(64 / 7)).
_MAX_LEN = 10


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """The LEB128 encoded length (in bytes) of each ``uint64`` value:
    where a caller may cut the stream of :func:`varint_encode_array`."""
    lengths = np.ones(values.shape, dtype=np.int64)
    v = values >> np.uint64(7)
    while np.any(v):
        lengths += (v != 0).astype(np.int64)
        v = v >> np.uint64(7)
    return lengths


def varint_encode_array(values: np.ndarray) -> bytes:
    """Encode a 1-D array of unsigned integers as a LEB128 byte stream.

    Parameters
    ----------
    values:
        1-D array of non-negative integers.  Converted to ``uint64``.

    Returns
    -------
    bytes
        The concatenated varint encoding of all values, in order.
    """
    values = np.ascontiguousarray(values)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {values.shape}")
    if np.issubdtype(values.dtype, np.signedinteger) and np.any(values < 0):
        raise ValueError("varint encoding requires non-negative values")
    v = values.astype(np.uint64)

    if v.size == 0 or v.max() < 0x80:
        # Every value is its own single byte.
        return v.astype(np.uint8).tobytes()

    lengths = varint_lengths(v)
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    # Offsets of the first byte of each value in the output stream.
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    # One pass per byte position, each over only the values that long;
    # the continuation bit is set on every byte except a value's last.
    more = lengths > 1
    out[starts] = (v & np.uint64(0x7F)).astype(np.uint8) | (more.astype(np.uint8) << 7)
    longer = np.flatnonzero(more)
    for byte_i in range(1, int(lengths.max())):
        group = (v[longer] >> np.uint64(7 * byte_i)) & np.uint64(0x7F)
        more = lengths[longer] > byte_i + 1
        out[starts[longer] + byte_i] = group.astype(np.uint8) | (more.astype(np.uint8) << 7)
        longer = longer[more]
    return out.tobytes()


def varint_decode_array(buffer: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a LEB128 byte stream back to a ``uint64`` array.

    Parameters
    ----------
    buffer:
        The byte stream produced by :func:`varint_encode_array`.
    count:
        Optional expected number of values; used as a sanity check.

    Returns
    -------
    numpy.ndarray
        1-D ``uint64`` array of the decoded values.
    """
    raw = np.frombuffer(buffer, dtype=np.uint8) if not isinstance(buffer, np.ndarray) else buffer
    if raw.size == 0:
        result = np.empty(0, dtype=np.uint64)
        if count not in (None, 0):
            raise ValueError(f"expected {count} values, decoded 0")
        return result

    if raw[-1] & 0x80:
        raise ValueError("truncated varint stream: final byte has continuation bit set")
    # A value ends at every byte without the continuation bit.
    ends = np.flatnonzero(raw < 0x80)
    if count is not None and ends.size != count:
        raise ValueError(f"expected {count} values, decoded {ends.size}")
    if ends.size == raw.size:
        return raw.astype(np.uint64)

    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > _MAX_LEN:
        raise ValueError("varint value exceeds 64 bits")

    # Least significant group first; each pass ORs in the next 7-bit
    # group of the values that have one.
    out = (raw[starts] & 0x7F).astype(np.uint64)
    longer = np.flatnonzero(lengths > 1)
    for byte_i in range(1, max_len):
        group = (raw[starts[longer] + byte_i] & 0x7F).astype(np.uint64)
        out[longer] |= group << np.uint64(7 * byte_i)
        longer = longer[lengths[longer] > byte_i + 1]
    return out


def varint_offsets(buffer: bytes | np.ndarray, count: int, at: np.ndarray) -> np.ndarray:
    """Validate a whole LEB128 stream and find where values ``at`` begin.

    Runs the checks of :func:`varint_decode_array` without decoding:
    the final byte ends a value, the stream holds ``count`` values, and
    none is longer than 10 bytes.  It reads only the indices of the
    continuation bytes, which are few in a stream of mostly one-byte
    values.  Returns the byte offset at which each value ``at[i]``
    begins (value ``count`` begins at the stream's end), so that the
    values ``[j, k)`` decode on their own from bytes
    ``[offsets(j), offsets(k))``.
    """
    raw = np.frombuffer(buffer, dtype=np.uint8) if not isinstance(buffer, np.ndarray) else buffer
    if raw.size and raw[-1] & 0x80:
        raise ValueError("truncated varint stream: final byte has continuation bit set")
    more = np.flatnonzero(raw >= 0x80)
    if raw.size - more.size != count:
        raise ValueError(f"expected {count} values, decoded {raw.size - more.size}")
    # Ten continuation bytes in a row make a value of eleven bytes.
    run = _MAX_LEN - 1
    if more.size > run and np.any(more[run:] - more[:-run] == run):
        raise ValueError("varint value exceeds 64 bits")
    # Continuation byte i belongs to value ``more[i] - i`` (that many
    # values ended before it), so value k begins after the last bytes of
    # the k values before it plus their continuation bytes.
    owner = more - np.arange(more.size)
    return at + np.searchsorted(owner, at, side="left")
