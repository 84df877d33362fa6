"""Hierarchical count index (HBI) over (bin, chunk-run)s.

The flat per-bin position index answers "which elements of bin *b*
qualify" only by decoding index blocks; it gives the planner nothing to
prune with and makes multi-variable exchanges ship whole-domain
bitmaps.  Following the hierarchical bitmap indexing idea of
Krčál/Ho/Holub (PAPERS.md), this module adds two things:

* **The index** — per-level cardinality matrices over the bin axis,
  where a *run* is ``leaf_span`` consecutive chunks in curve order:
  level 0 is the exact (bin, run) element-count matrix, level *k*+1
  aggregates ``fanout`` children of level *k*.  A bin-range predicate
  decomposes into O(fanout · log n_bins) covering nodes, so range
  cardinalities — per run and total — resolve from a handful of
  nodes.  Positions stay in the flat index alone.
* **The exchange payload** — qualifying positions shipped between
  variables as one run-local WAH leaf per non-empty run (bit =
  ``chunk_offset_in_run * chunk_size + local_id``), so empty runs cost
  nothing.

The index is built at write time by :class:`HBIBuilder` from the
per-bin chunk counts, in the writer's curve order, so the persisted
bytes are a pure function of the written data.  The on-disk record
(``<variable>/hbi``, see FORMAT.md) is versioned and CRC-terminated
and holds the level-0 matrix; readers aggregate the interior levels
at load and never rebuild the record.

Everything here is *summary* data derived from the authoritative flat
index: queries answered with HBI pruning are bit-identical to the flat
path (DESIGN.md §6), because dropping a (bin, chunk) whose summary
cardinality is zero can never remove a qualifying element.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.index.bitmap import _GROUP_BITS, Bitmap, _group_rows_to_words, wah_decode
from repro.util.record import RecordReader, frame

__all__ = [
    "DEFAULT_FANOUT",
    "DEFAULT_LEAF_SPAN",
    "HBIndex",
    "HBIBuilder",
    "decode_hierarchical_bitmap",
    "encode_hierarchical_bitmap",
    "hbi_path",
]

#: Chunks per run (curve order), the width of the count matrix and of
#: the exchange payload's leaves.  Pruning granularity: a compound
#: pushdown can drop work only in whole runs at the tree level (exact
#: per-chunk counts refine below it), so smaller spans prune finer at
#: the cost of wider matrices.  See docs/tuning.md.
DEFAULT_LEAF_SPAN = 8
#: Tree fanout over the bin axis.
DEFAULT_FANOUT = 4

_MAGIC = b"MLOCHBI\x00"
FORMAT_VERSION = 2
_GEOMETRY = struct.Struct("<IIqqq")  # leaf_span, fanout, n_bins, n_chunks, chunk_size


def hbi_path(root: str) -> str:
    """On-disk path of a variable's hierarchical index file."""
    return f"{root.rstrip('/')}/hbi"


def _aggregate_levels(run_counts: np.ndarray, fanout: int) -> list[np.ndarray]:
    """Interior count matrices, bottom-up, until a single root row."""
    levels: list[np.ndarray] = []
    current = run_counts
    while current.shape[0] > 1:
        rows = current.shape[0]
        padded_rows = -(-rows // fanout) * fanout
        if padded_rows != rows:
            padded = np.zeros((padded_rows, current.shape[1]), dtype=np.int64)
            padded[:rows] = current
            current = padded
        current = current.reshape(padded_rows // fanout, fanout, -1).sum(axis=1)
        levels.append(current)
    return levels


def _encode_leaves(
    rows: np.ndarray, leaf_bits: np.ndarray, n_rows: int, n_leaf_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """WAH words of ``n_rows`` run-local leaves from their set bits.

    ``rows`` (non-decreasing, naming every row in ``range(n_rows)``)
    holds the leaf of every set bit and ``leaf_bits`` its run-local
    position, increasing within a leaf.  Returns the leaves' words
    concatenated in row order and each leaf's word count.  Every leaf
    is encoded at the full ``n_leaf_groups`` width whatever its
    highest bit.
    """
    # Keys are sorted, so one reduceat per constant-key segment ORs
    # each 63-bit group's bits in a single vectorized pass.
    keys = rows * n_leaf_groups + leaf_bits // _GROUP_BITS
    vals = np.uint64(1) << (leaf_bits % _GROUP_BITS).astype(np.uint64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    groups = np.zeros((n_rows, n_leaf_groups), dtype=np.uint64)
    groups.reshape(-1)[keys[starts]] = np.bitwise_or.reduceat(vals, starts)
    return _group_rows_to_words(groups)


class HBIndex:
    """The hierarchical index of one stored variable.

    Construct through :class:`HBIBuilder` (write time) or
    :meth:`from_bytes` (persisted form); the constructor itself takes
    the level-0 run matrix and aggregates the interior levels.
    """

    def __init__(
        self,
        *,
        leaf_span: int,
        fanout: int,
        n_bins: int,
        n_chunks: int,
        chunk_size: int,
        run_counts: np.ndarray,
    ) -> None:
        if leaf_span <= 0 or fanout <= 1:
            raise ValueError(
                f"need leaf_span >= 1 and fanout >= 2, got {leaf_span}/{fanout}"
            )
        self.leaf_span = int(leaf_span)
        self.fanout = int(fanout)
        self.n_bins = int(n_bins)
        self.n_chunks = int(n_chunks)
        self.chunk_size = int(chunk_size)
        self.run_counts = np.asarray(run_counts, dtype=np.int64)
        self.n_runs = self.run_counts.shape[1]
        self.levels = _aggregate_levels(self.run_counts, self.fanout)
        #: Interior matrices bottom-up; level 0 is the exact run matrix.
        self._matrices = [self.run_counts] + self.levels

    def range_run_counts(self, bin_lo: int, bin_hi: int) -> tuple[np.ndarray, int]:
        """Per-run element counts of bins ``[bin_lo, bin_hi)``.

        Decomposes the bin range into covering tree nodes — unaligned
        edges are peeled at each level, fully-covered subtrees are
        answered by one interior node — and sums their per-run count
        vectors.  Returns ``(counts, nodes_visited)``; the node count
        is O(fanout · log n_bins), which the tests pin.
        """
        if not (0 <= bin_lo <= bin_hi <= self.n_bins):
            raise ValueError(f"bad bin range [{bin_lo}, {bin_hi}) of {self.n_bins}")
        counts = np.zeros(self.n_runs, dtype=np.int64)
        lo, hi, level, visited = bin_lo, bin_hi, 0, 0
        while lo < hi:
            matrix = self._matrices[level]
            if level + 1 >= len(self._matrices):
                counts += matrix[lo:hi].sum(axis=0)
                visited += hi - lo
                break
            while lo < hi and lo % self.fanout != 0:
                counts += matrix[lo]
                lo += 1
                visited += 1
            while lo < hi and hi % self.fanout != 0:
                hi -= 1
                counts += matrix[hi]
                visited += 1
            lo //= self.fanout
            hi //= self.fanout
            level += 1
        return counts, visited

    def cardinality(self, bin_lo: int, bin_hi: int) -> int:
        """Total element count of bins ``[bin_lo, bin_hi)`` (tree-resolved)."""
        counts, _ = self.range_run_counts(bin_lo, bin_hi)
        return int(counts.sum())

    def stats(self) -> dict:
        """Structural counters for ``mloc index stats``."""
        return {
            "leaf_span": self.leaf_span,
            "fanout": self.fanout,
            "n_bins": self.n_bins,
            "n_runs": self.n_runs,
            "n_levels": len(self._matrices),
            "interior_nodes": int(sum(m.shape[0] for m in self.levels)) * self.n_runs,
        }

    # ------------------------------------------------------------------
    # Serialization (FORMAT.md: hierarchical index record)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The framed record (FORMAT.md: hierarchical index record)."""
        return frame(
            _MAGIC,
            FORMAT_VERSION,
            _GEOMETRY.pack(
                self.leaf_span, self.fanout, self.n_bins, self.n_chunks, self.chunk_size
            ),
            self.run_counts.astype("<i8").tobytes(),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HBIndex":
        """Parse a framed record; malformed bytes raise ``FormatError``."""
        reader = RecordReader(raw, _MAGIC, FORMAT_VERSION, "hierarchical index record")
        leaf_span, fanout, n_bins, n_chunks, chunk_size = reader.unpack(_GEOMETRY)
        if leaf_span < 1 or fanout < 2 or min(n_bins, n_chunks, chunk_size) < 0:
            reader.fail(
                f"impossible geometry: leaf_span {leaf_span}, fanout {fanout}, "
                f"{n_bins} bins, {n_chunks} chunks of {chunk_size}"
            )
        n_runs = -(-n_chunks // leaf_span)
        run_counts = reader.array("<i8", n_bins * n_runs).reshape(n_bins, n_runs)
        reader.done()
        return cls(
            leaf_span=leaf_span,
            fanout=fanout,
            n_bins=n_bins,
            n_chunks=n_chunks,
            chunk_size=chunk_size,
            run_counts=run_counts,
        )


class HBIBuilder:
    """Write-time builder fed per-bin chunk counts in curve order.

    The writer's ordered commit loop calls :meth:`add_chunks` once per
    slab with the slab's ``(n_bins, k)`` count matrix, the one it
    records in the metadata; :meth:`add_chunk` is the one-chunk entry
    point.  Consuming nothing but those counts, in curve order, it
    yields index bytes that are a pure function of the written data
    (DESIGN.md §6).
    """

    def __init__(
        self,
        n_bins: int,
        n_chunks: int,
        chunk_size: int,
        *,
        leaf_span: int = DEFAULT_LEAF_SPAN,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        self.n_bins = int(n_bins)
        self.n_chunks = int(n_chunks)
        self.chunk_size = int(chunk_size)
        self.leaf_span = int(leaf_span)
        self.fanout = int(fanout)
        n_runs = -(-self.n_chunks // self.leaf_span)
        self.run_counts = np.zeros((self.n_bins, n_runs), dtype=np.int64)
        self._next_cpos = 0

    def add_chunks(self, first_cpos: int, counts: np.ndarray) -> None:
        """Fold the ``(n_bins, k)`` element counts of chunks
        ``[first_cpos, first_cpos + k)`` into their runs."""
        counts = np.asarray(counts, dtype=np.int64)
        if first_cpos != self._next_cpos:
            raise ValueError(f"chunks must arrive in order: expected {self._next_cpos}")
        self._next_cpos = first_cpos + counts.shape[1]
        runs = np.arange(first_cpos, self._next_cpos) // self.leaf_span
        starts = np.flatnonzero(np.diff(runs, prepend=-1))
        self.run_counts[:, runs[starts]] += np.add.reduceat(counts, starts, axis=1)

    def add_chunk(self, cpos: int, counts: np.ndarray) -> None:
        """Fold one chunk's per-bin element counts into its run."""
        self.add_chunks(cpos, np.reshape(counts, (-1, 1)))

    def finish(self) -> HBIndex:
        """The index of every chunk added."""
        if self._next_cpos != self.n_chunks:
            raise ValueError(
                f"saw {self._next_cpos} of {self.n_chunks} chunks before finish"
            )
        return HBIndex(
            leaf_span=self.leaf_span,
            fanout=self.fanout,
            n_bins=self.n_bins,
            n_chunks=self.n_chunks,
            chunk_size=self.chunk_size,
            run_counts=self.run_counts,
        )


# ----------------------------------------------------------------------
# Hierarchical bitmap exchange encoding (multi-variable access)
# ----------------------------------------------------------------------
_PAYLOAD_HEADER = struct.Struct("<III")  # version, leaf_span, runs present
_RUN_HEADER = struct.Struct("<II")  # run id, word count


def _positions_to_run_bits(
    pos: np.ndarray, grid, curve, leaf_span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map global positions to sorted (chunk-run, run-local bit) pairs."""
    coords = grid.positions_to_coords(pos)
    chunk_shape = np.array(grid.chunk_shape, dtype=np.int64)
    chunk_strides = np.array(
        [int(np.prod(grid.chunk_shape[d + 1 :])) for d in range(grid.ndims)],
        dtype=np.int64,
    )
    local = (coords % chunk_shape) @ chunk_strides
    cpos = np.asarray(curve.positions_of(grid.chunk_ids(coords // chunk_shape)))
    leaf_bits = (cpos % leaf_span) * grid.chunk_size + local
    runs = cpos // leaf_span
    order = np.lexsort((leaf_bits, runs))
    return runs[order], leaf_bits[order]


def encode_hierarchical_bitmap(
    positions: np.ndarray, grid, curve, leaf_span: int = DEFAULT_LEAF_SPAN
) -> bytes:
    """Encode qualifying positions as a run directory + WAH leaves.

    The multi-variable exchange payload (Section III-D4): instead of
    one WAH bitmap over the whole domain, ship a summary directory of
    the non-empty chunk-runs plus one run-local WAH leaf each.  Empty
    runs cost nothing (the whole-domain form pays a fill word per gap),
    and receivers can prune per run before touching leaf bits.
    """
    pos = np.asarray(positions, dtype=np.int64)
    leaf_nbits = leaf_span * grid.chunk_size
    n_leaf_groups = -(-leaf_nbits // _GROUP_BITS)
    if pos.size == 0:
        return _PAYLOAD_HEADER.pack(1, leaf_span, 0)
    runs, leaf_bits = _positions_to_run_bits(pos, grid, curve, leaf_span)
    u_runs, rows = np.unique(runs, return_inverse=True)
    words, lengths = _encode_leaves(rows, leaf_bits, u_runs.size, n_leaf_groups)
    # The run directory: one ``_RUN_HEADER`` (run id, word count) per leaf.
    directory = np.stack([u_runs, lengths], axis=1).astype("<u4")
    return b"".join(
        [
            _PAYLOAD_HEADER.pack(1, leaf_span, u_runs.size),
            directory.tobytes(),
            words.astype("<u8").tobytes(),
        ]
    )


def decode_hierarchical_bitmap(payload: bytes, grid, curve) -> np.ndarray:
    """Inverse of :func:`encode_hierarchical_bitmap`: sorted positions."""
    version, leaf_span, n_runs = _PAYLOAD_HEADER.unpack_from(payload, 0)
    if version != 1:
        raise ValueError(f"unsupported hierarchical payload version {version}")
    chunk_size = grid.chunk_size
    leaf_nbits = leaf_span * chunk_size
    off = _PAYLOAD_HEADER.size
    runs_meta = []
    for _ in range(n_runs):
        runs_meta.append(_RUN_HEADER.unpack_from(payload, off))
        off += _RUN_HEADER.size
    order = np.asarray(curve.order, dtype=np.int64)
    parts = []
    for run, n_words in runs_meta:
        words = np.frombuffer(payload, dtype="<u8", count=n_words, offset=off).astype(
            np.uint64
        )
        off += n_words * 8
        leaf_bits = Bitmap(leaf_nbits, wah_decode(words, leaf_nbits)).to_positions()
        cpos = run * leaf_span + leaf_bits // chunk_size
        local = leaf_bits % chunk_size
        u_cpos, counts = np.unique(cpos, return_counts=True)
        parts.append(grid.global_positions_batch(order[u_cpos], local, counts))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))
