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

The same property serves the reader: a :class:`PositionBlock` inflates
and checks a block once, then decodes only the run of chunks a query's
rows cover.  Under Hilbert order a box's chunks sit close together on
the curve, so that run is a small part of a whole-bin block.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.util.varint import (
    varint_decode_array,
    varint_encode_array,
    varint_lengths,
    varint_offsets,
)

__all__ = [
    "PositionBlock",
    "compress_position_stream",
    "encode_position_cells",
    "encode_position_block",
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


class PositionBlock:
    """A decoded index block whose positions are decoded on demand.

    Construction inflates ``payload`` and checks the whole block: the
    deflate stream ends exactly at its end-of-stream marker, and the
    varint stream holds ``counts.sum()`` values, the last of them
    complete and none longer than 10 bytes.  A corrupt block therefore
    fails here, with ``ValueError``, before any position is asked for.

    :meth:`positions` returns the positions of any element range.  A
    chunk's first delta is absolute, so the enclosing run of whole
    chunks decodes without the chunks before it.  The first request
    decodes its run and keeps it; a request outside it decodes the
    whole block once, keeps it and drops the stream.  Each memo is set
    by one assignment, so callers on several threads at worst decode
    the same positions twice.

    ``nbytes`` is the size of the whole position array, what a cache
    budgets for the block however much of it has been decoded.

    Parameters
    ----------
    payload:
        Bytes produced by :func:`encode_position_block`.
    counts:
        Element count of each chunk in the block, in order (from the
        store metadata).
    """

    __slots__ = ("counts", "offsets", "size", "nbytes", "_source", "_run", "_whole")

    def __init__(self, payload: bytes, counts: np.ndarray) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        inflater = zlib.decompressobj()
        stream = inflater.decompress(payload)
        if not inflater.eof or inflater.unused_data:
            raise ValueError("index block is truncated or has trailing bytes")
        raw = np.frombuffer(stream, dtype=np.uint8)
        self.counts = counts
        #: Element offset of every chunk in the block (``len(counts) + 1``).
        self.offsets = offsets
        self.size = int(offsets[-1])
        self.nbytes = 8 * self.size
        #: The varint stream and the byte offset of every chunk in it;
        #: ``None`` once the whole block is decoded.
        self._source = (raw, varint_offsets(raw, self.size, offsets))
        self._run: tuple[int, int, np.ndarray] | None = None
        self._whole: np.ndarray | None = None

    def positions(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The int64 positions of elements ``[lo, hi)`` of the block
        (default: all of them), in block order.  The result may be a
        view of the memo: callers copy, never write."""
        hi = self.size if hi is None else hi
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"element range [{lo}, {hi}) outside a block of {self.size}")
        whole = self._whole
        if whole is not None:
            return whole[lo:hi]
        run = self._run
        if run is not None and run[0] <= lo and hi <= run[1]:
            return run[2][lo - run[0] : hi - run[0]]
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        # The run of whole chunks that holds the range.
        offsets = self.offsets
        first = int(np.searchsorted(offsets, lo, side="right")) - 1
        end = int(np.searchsorted(offsets, hi, side="left"))
        start, stop = int(offsets[first]), int(offsets[end])
        if run is None and stop - start < self.size:
            run = (start, stop, self._decode(first, end))
            self._run = run
            return run[2][lo - start : hi - start]
        whole = self._decode(0, len(offsets) - 1)
        # Set before the stream goes: a caller that finds no stream
        # finds the whole block.
        self._whole = whole
        self._source = self._run = None
        return whole[lo:hi]

    def _decode(self, first: int, end: int) -> np.ndarray:
        """Positions of chunks ``[first, end)``, decoded from the stream."""
        source = self._source
        if source is None:  # another caller decoded the whole block
            return self._whole[self.offsets[first] : self.offsets[end]]
        raw, byte_offsets = source
        offsets = self.offsets
        # A fresh array: reinterpreted and summed in place.
        cs = varint_decode_array(
            raw[byte_offsets[first] : byte_offsets[end]], int(offsets[end] - offsets[first])
        ).view(np.int64)
        # Per-chunk cumulative sums in one vectorized pass: a chunk's
        # first delta is absolute, so subtracting the running prefix
        # before each chunk start from the run's cumsum restores it.
        np.cumsum(cs, out=cs)
        starts = offsets[first:end] - offsets[first]
        prefixes = np.where(starts > 0, cs[starts - 1], 0)
        return cs - np.repeat(prefixes, self.counts[first:end])


def decode_position_block_flat(payload: bytes, counts: np.ndarray) -> np.ndarray:
    """Decode an index block into one flat position array.

    The returned int64 array concatenates every chunk's positions in
    block order; chunk boundaries are recovered from ``counts``.  The
    query engine keeps the :class:`PositionBlock` instead and decodes
    only the chunks its rows cover.

    Parameters
    ----------
    payload:
        Bytes produced by :func:`encode_position_block`.
    counts:
        Element count of each chunk in the block, in order (from the
        store metadata).
    """
    return PositionBlock(payload, counts).positions()
