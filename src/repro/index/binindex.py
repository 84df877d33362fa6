"""Per-bin position index codec.

MLOC's light-weight index (Section III-A3) records, for every element
placed in a bin, its original spatial position, so that region-only
queries over *aligned* bins are answered from the index alone without
touching (or decompressing) the data.  The index is stored in the bin's
separate index file (Fig. 4) in the same chunk order as the data.

Within one chunk the element positions are strictly increasing (the
writer's stable grouping preserves original order), so each chunk's
positions are delta-encoded with an absolute first value, the deltas of
a run of chunks are concatenated, varint-packed and deflated.  The
resulting index is a small fraction of the data (Table I: 1.6 GB for
8 GB raw), in contrast to FastBit's bitmap index which exceeds it.

Delta, validation and varint packing are one vectorized pass over any
number of consecutive chunks (:func:`encode_position_cells`).  A
chunk's first delta being absolute, its varint bytes do not depend on
its neighbours: an index block is the deflate of its chunks' byte range
of that stream (:func:`compress_position_stream`), however batched.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.util.varint import varint_decode_array, varint_encode_array, varint_lengths

__all__ = [
    "compress_position_stream",
    "encode_position_cells",
    "encode_position_block",
    "decode_position_block",
    "decode_position_block_flat",
]


def encode_position_cells(
    positions: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Varint delta stream of the positions of consecutive chunks.

    ``positions`` concatenates the chunks' position arrays (each
    strictly increasing and non-negative; a decrease *across* a chunk
    boundary is legal) and ``counts`` holds each chunk's element count
    (zeros allowed).  Returns the ``uint8`` stream and the
    ``len(counts) + 1`` byte offsets at which the chunks start in it.
    """
    p = np.asarray(positions, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if p.ndim != 1 or offsets[-1] != p.size:
        raise ValueError(f"counts sum {offsets[-1]} != position count {p.size}")
    if p.size == 0:
        return np.empty(0, dtype=np.uint8), np.zeros_like(offsets)
    firsts = offsets[:-1][offsets[1:] > offsets[:-1]]
    deltas = np.empty_like(p)
    np.subtract(p[1:], p[:-1], out=deltas[1:])
    # A chunk's first position has no predecessor to exceed ...
    deltas[firsts] = 1
    if np.any(deltas <= 0):
        raise ValueError("chunk positions must be strictly increasing")
    # ... and is stored absolute.
    deltas[firsts] = p[firsts]
    if np.any(deltas < 0):
        raise ValueError("positions must be non-negative")
    deltas = deltas.view(np.uint64)
    ends = np.zeros(p.size + 1, dtype=np.int64)
    np.cumsum(varint_lengths(deltas), out=ends[1:])
    return np.frombuffer(varint_encode_array(deltas), dtype=np.uint8), ends[offsets]


def compress_position_stream(stream: bytes | np.ndarray, level: int = 6) -> bytes:
    """One index block from its byte range of a position delta stream."""
    return zlib.compress(stream, level)


def encode_position_block(positions_per_chunk: list[np.ndarray], level: int = 6) -> bytes:
    """Encode the positions of a run of chunks into one index block.

    Each array must be strictly increasing (positions of one chunk's
    elements within the bin, in original order).  Empty arrays are
    allowed (a chunk may contribute nothing to a bin).
    """
    chunks = [np.asarray(p, dtype=np.int64).reshape(-1) for p in positions_per_chunk]
    stream, _ = encode_position_cells(
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64),
        [c.size for c in chunks],
    )
    return compress_position_stream(stream, level)


def decode_position_block_flat(payload: bytes, counts: np.ndarray) -> np.ndarray:
    """Decode an index block into one flat position array.

    The returned int64 array concatenates every chunk's positions in
    block order; chunk boundaries are recovered from ``counts`` (the
    caller slices runs of chunks out with a cumulative-sum offset
    table).  This is the vectorized primitive used by the query
    executor — no per-chunk Python objects are materialized.

    Parameters
    ----------
    payload:
        Bytes produced by :func:`encode_position_block`.
    counts:
        Element count of each chunk in the block, in order (from the
        store metadata).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    inflater = zlib.decompressobj()
    stream = inflater.decompress(payload)
    if not inflater.eof or inflater.unused_data:
        raise ValueError("index block is truncated or has trailing bytes")
    deltas = varint_decode_array(stream, total).astype(np.int64)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Per-chunk cumulative sums in one vectorized pass: a chunk's first
    # delta is absolute, so subtracting the running prefix before each
    # chunk start from the global cumsum restores the positions.
    cs = np.cumsum(deltas)
    starts = np.zeros(counts.size, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    prefixes = np.where(starts > 0, cs[starts - 1], 0)
    prefix_stream = np.repeat(prefixes, counts)
    return cs - prefix_stream


def decode_position_block(payload: bytes, counts: np.ndarray) -> list[np.ndarray]:
    """Decode an index block back into per-chunk position arrays.

    Parameters
    ----------
    payload:
        Bytes produced by :func:`encode_position_block`.
    counts:
        Element count of each chunk in the block, in order (from the
        store metadata).

    Returns
    -------
    list of int64 arrays, one per chunk (possibly empty).
    """
    counts = np.asarray(counts, dtype=np.int64)
    positions = decode_position_block_flat(payload, counts)
    out: list[np.ndarray] = []
    cursor = 0
    for c in counts:
        out.append(positions[cursor : cursor + c])
        cursor += int(c)
    return out
