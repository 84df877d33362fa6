"""Bitmaps with word-aligned-hybrid (WAH) compression.

Two consumers in the reproduction:

* MLOC's multi-variable access (Section III-D4): the positions
  qualifying a region-only step are exchanged between ranks as
  *bitmaps* to minimize memory footprint and communication, then used
  as the mask for value retrieval on the other variables.
* The FastBit baseline (Section IV-A2): FastBit's index is a set of
  per-bin bitmaps compressed with the WAH scheme; its large on-disk
  footprint (Table I: 10 GB of index for 8 GB of data) is what makes
  its cold-cache queries slow in the paper's experiments.

The WAH variant here uses 64-bit words over 63-bit groups: a *literal*
word (MSB = 0) carries 63 raw bits; a *fill* word (MSB = 1) carries the
fill bit in bit 62 and a 62-bit run length counted in groups.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Bitmap",
    "groups_to_bitmap",
    "wah_cardinality",
    "wah_decode",
    "wah_encode",
    "wah_expand_groups",
    "wah_from_positions",
]

_GROUP_BITS = 63
_FILL_FLAG = np.uint64(1) << np.uint64(63)
_FILL_ONE = np.uint64(1) << np.uint64(62)
_COUNT_MASK = _FILL_ONE - np.uint64(1)
_ALL_ONES_GROUP = (np.uint64(1) << np.uint64(_GROUP_BITS)) - np.uint64(1)

#: Per-byte popcount lookup table: emptiness and cardinality checks run
#: as one table gather + sum over the uint8 buffer instead of expanding
#: every bit through ``np.unpackbits``.
_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8).reshape(256, 1), axis=1
).sum(axis=1).astype(np.uint8)


class Bitmap:
    """A fixed-length bitmap backed by a little-endian uint8 buffer."""

    def __init__(self, nbits: int, buffer: np.ndarray | None = None) -> None:
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        self.nbits = int(nbits)
        nbytes = (self.nbits + 7) // 8
        if buffer is None:
            self.buffer = np.zeros(nbytes, dtype=np.uint8)
        else:
            buffer = np.asarray(buffer, dtype=np.uint8)
            if buffer.size != nbytes:
                raise ValueError(f"buffer must be {nbytes} bytes, got {buffer.size}")
            self.buffer = buffer.copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_positions(cls, positions: np.ndarray, nbits: int) -> "Bitmap":
        """Bitmap with the given bit positions set."""
        bm = cls(nbits)
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= nbits:
                raise ValueError(f"positions out of range [0, {nbits})")
            bits = np.zeros(nbits, dtype=bool)
            bits[pos] = True
            bm.buffer = np.packbits(bits, bitorder="little")
        return bm

    def to_positions(self) -> np.ndarray:
        """Sorted positions of the set bits."""
        bits = np.unpackbits(self.buffer, bitorder="little")[: self.nbits]
        return np.flatnonzero(bits).astype(np.int64)

    def get(self, positions: np.ndarray) -> np.ndarray:
        """Boolean membership test for an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (pos.min() < 0 or pos.max() >= self.nbits):
            raise ValueError(f"positions out of range [0, {self.nbits})")
        return ((self.buffer[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).astype(bool)

    def count(self) -> int:
        """Number of set bits (vectorized per-byte popcount).

        The final byte's padding bits (little-endian: its high bits)
        are masked out, so the count is exact even for buffers whose
        padding was dirtied by external writes.
        """
        if self.nbits == 0:
            return 0
        tail_bits = self.nbits % 8
        if tail_bits == 0:
            return int(_POPCOUNT[self.buffer].sum(dtype=np.int64))
        total = int(_POPCOUNT[self.buffer[:-1]].sum(dtype=np.int64))
        last = self.buffer[-1] & np.uint8((1 << tail_bits) - 1)
        return total + int(_POPCOUNT[last])

    @property
    def nbytes(self) -> int:
        return int(self.buffer.nbytes)

    # ------------------------------------------------------------------
    def _check_compat(self, other: "Bitmap") -> None:
        if self.nbits != other.nbits:
            raise ValueError(f"bitmap length mismatch: {self.nbits} vs {other.nbits}")

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_compat(other)
        return Bitmap(self.nbits, self.buffer | other.buffer)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_compat(other)
        return Bitmap(self.nbits, self.buffer & other.buffer)

    def __invert__(self) -> "Bitmap":
        out = Bitmap(self.nbits, ~self.buffer)
        # Clear the padding bits beyond nbits.
        extra = out.buffer.size * 8 - out.nbits
        if extra:
            out.buffer[-1] &= np.uint8(0xFF >> extra)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and np.array_equal(self.buffer, other.buffer)

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits}, set={self.count()})"

    # ------------------------------------------------------------------
    def wah_bytes(self) -> bytes:
        """WAH-compressed serialization of this bitmap."""
        return wah_encode(self.buffer, self.nbits).tobytes()


def _group_values(buffer: np.ndarray, nbits: int) -> np.ndarray:
    """Split the bit stream into uint64 values of 63 bits each.

    Vectorized by padding every 63-bit group with a zero MSB and
    viewing the result as little-endian uint64 words.
    """
    bits = np.unpackbits(np.asarray(buffer, dtype=np.uint8), bitorder="little")[:nbits]
    n_groups = (nbits + _GROUP_BITS - 1) // _GROUP_BITS
    padded = np.zeros(n_groups * _GROUP_BITS, dtype=np.uint8)
    padded[:nbits] = bits
    matrix = np.concatenate(
        (padded.reshape(n_groups, _GROUP_BITS), np.zeros((n_groups, 1), dtype=np.uint8)),
        axis=1,
    )
    return np.packbits(matrix.reshape(-1), bitorder="little").view("<u8").copy()


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[s, s+1, ..., s+l-1]`` for each (start, length)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)


def _group_rows_to_words(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """WAH-encode every row of a 2-D matrix of 63-bit group values.

    Returns the rows' words concatenated in row order and each row's
    word count.  A fill run never extends across a row boundary, so the
    words of row ``i`` are exactly the encoding of ``groups[i]`` alone.
    """
    n_rows, row_len = groups.shape
    flat = groups.reshape(-1)
    is_zero = flat == 0
    is_one = flat == _ALL_ONES_GROUP
    kind = np.where(is_zero, 0, np.where(is_one, 1, 2)).astype(np.int8)
    breaks = kind[1:] != kind[:-1]
    breaks[row_len - 1 :: row_len] = True
    change = np.flatnonzero(breaks) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [kind.size]))
    run_kind = kind[starts]
    run_len = (ends - starts).astype(np.int64)
    if np.any(run_len[run_kind != 2] > int(_COUNT_MASK)):
        raise ValueError("fill run exceeds the 62-bit count field")

    # Each fill run emits one word; each literal run emits run_len words.
    words_per_run = np.where(run_kind == 2, run_len, 1)
    out = np.empty(int(words_per_run.sum()), dtype=np.uint64)
    out_offsets = np.concatenate(([0], np.cumsum(words_per_run)[:-1]))

    fill_mask = run_kind != 2
    fill_words = _FILL_FLAG | run_len[fill_mask].astype(np.uint64)
    fill_words |= np.where(run_kind[fill_mask] == 1, _FILL_ONE, np.uint64(0))
    out[out_offsets[fill_mask]] = fill_words

    lit_mask = run_kind == 2
    src = _concat_ranges(starts[lit_mask], run_len[lit_mask])
    dst = _concat_ranges(out_offsets[lit_mask], run_len[lit_mask])
    out[dst] = flat[src]
    # Every row opens a run, so the first run of each row is found by
    # position and the per-row totals are one segmented sum.
    row_first_run = np.searchsorted(starts, np.arange(n_rows) * row_len)
    return out, np.add.reduceat(words_per_run, row_first_run)


def _groups_to_words(groups: np.ndarray) -> np.ndarray:
    """Run-length encode a sequence of 63-bit group values into WAH words."""
    return _group_rows_to_words(groups.reshape(1, -1))[0]


def wah_encode(buffer: np.ndarray, nbits: int) -> np.ndarray:
    """Compress a little-endian bit buffer into WAH words (vectorized)."""
    if nbits == 0:
        return np.empty(0, dtype=np.uint64)
    return _groups_to_words(_group_values(buffer, nbits))


def wah_from_positions(positions: np.ndarray, nbits: int) -> np.ndarray:
    """WAH words of the bitmap with the given bits set.

    Builds the encoding from the set positions via the (small) dense
    array of 63-bit group values, skipping the full bit buffer — this
    is what makes indexing thousands of sparse precision bins (the
    FastBit baseline) tractable at benchmark scale.
    """
    if nbits == 0:
        return np.empty(0, dtype=np.uint64)
    pos = np.asarray(positions, dtype=np.int64).ravel()
    if not np.all(pos[1:] > pos[:-1]):  # sorted, unique input skips the sort
        pos = np.unique(pos)
    if pos.size and (pos[0] < 0 or pos[-1] >= nbits):
        raise ValueError(f"positions out of range [0, {nbits})")
    n_groups = (nbits + _GROUP_BITS - 1) // _GROUP_BITS
    if pos.size == 0:
        return np.array([_FILL_FLAG | np.uint64(n_groups)], dtype=np.uint64)

    # ``pos`` is sorted, so each group's bits are one contiguous
    # segment: OR them with one segmented reduction.
    group_ids = pos // _GROUP_BITS
    bits = np.uint64(1) << (pos % _GROUP_BITS).astype(np.uint64)
    starts = np.flatnonzero(np.diff(group_ids, prepend=-1))
    groups = np.zeros(n_groups, dtype=np.uint64)
    groups[group_ids[starts]] = np.bitwise_or.reduceat(bits, starts)
    return _groups_to_words(groups)


def wah_expand_groups(words: np.ndarray) -> np.ndarray:
    """Expand WAH words into the dense array of 63-bit group values.

    Queries that OR many bin bitmaps (FastBit-style) do so in this
    compact group domain — one ``uint64`` per 63 bits — and expand to a
    bit buffer only once at the end, mirroring how real WAH query
    engines avoid materializing every operand bitmap.
    """
    words = np.asarray(words, dtype=np.uint64)
    is_fill = (words & _FILL_FLAG) != 0
    counts = np.where(is_fill, words & _COUNT_MASK, np.uint64(1)).astype(np.int64)
    fill_values = np.where((words & _FILL_ONE) != 0, _ALL_ONES_GROUP, np.uint64(0))
    values = np.where(is_fill, fill_values, words)
    return np.repeat(values, counts)


def wah_cardinality(words: np.ndarray) -> int:
    """Number of set bits in a WAH encoding, without decoding it.

    One-fill words contribute ``63 * run_length`` bits; literal words
    are popcounted directly through the per-byte table (their MSB is 0
    by construction, so no correction is needed).  The tail group's
    padding bits are zero in every encoding produced by this module —
    a one-fill can only cover all-ones groups — so the returned count
    equals ``Bitmap.count()`` of the decoded bitmap for any ``nbits``.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return 0
    is_fill = (words & _FILL_FLAG) != 0
    one_fill = is_fill & ((words & _FILL_ONE) != 0)
    filled = int((words[one_fill] & _COUNT_MASK).sum()) * _GROUP_BITS
    literals = words[~is_fill]
    return filled + int(_POPCOUNT[literals.view(np.uint8)].sum(dtype=np.int64))


def groups_to_bitmap(groups: np.ndarray, nbits: int) -> "Bitmap":
    """Pack dense 63-bit group values back into a :class:`Bitmap`."""
    n_groups = (nbits + _GROUP_BITS - 1) // _GROUP_BITS
    if groups.size != n_groups:
        raise ValueError(f"got {groups.size} groups, expected {n_groups}")
    bits64 = np.unpackbits(
        groups.astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(n_groups, 64)
    bits = bits64[:, :_GROUP_BITS].reshape(-1)[:nbits]
    return Bitmap(nbits, np.packbits(bits, bitorder="little"))


def wah_decode(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`wah_encode`; returns the uint8 bit buffer."""
    words = np.asarray(words, dtype=np.uint64)
    is_fill = (words & _FILL_FLAG) != 0
    counts = np.where(is_fill, words & _COUNT_MASK, np.uint64(1)).astype(np.int64)
    fill_values = np.where((words & _FILL_ONE) != 0, _ALL_ONES_GROUP, np.uint64(0))
    values = np.where(is_fill, fill_values, words)
    groups = np.repeat(values, counts)
    n_groups = (nbits + _GROUP_BITS - 1) // _GROUP_BITS
    if groups.size != n_groups:
        raise ValueError(f"decoded {groups.size} groups, expected {n_groups}")
    # Expand each group value to 64 little-endian bits and drop the pad.
    bits64 = np.unpackbits(
        groups.astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(n_groups, 64)
    bits = bits64[:, :_GROUP_BITS].reshape(-1)[:nbits]
    return np.packbits(bits, bitorder="little")
