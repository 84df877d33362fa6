"""Hierarchical compressed bitmap index (HBI) over (bin, chunk-run)s.

The flat per-bin position index answers "which elements of bin *b*
qualify" only by decoding index blocks; it gives the planner nothing to
prune with and makes multi-variable exchanges ship whole-domain
bitmaps.  Following the hierarchical bitmap indexing idea of
Krčál/Ho/Holub (PAPERS.md), this module adds a tree on top of the
existing WAH machinery:

* **Leaves** — one WAH-compressed bitmap per (bin, chunk-run), where a
  *run* is ``leaf_span`` consecutive chunks in curve order and the
  bitmap's domain is run-local (bit = ``chunk_offset_in_run *
  chunk_size + local_id``).  Run-local domains keep every leaf small,
  make cross-bin OR a same-domain operation in the 63-bit group space
  (:func:`~repro.index.bitmap.wah_expand_groups`), and concatenate
  across runs without overlap (runs partition the chunk space).
* **Interior nodes** — per-level cardinality matrices over the bin
  axis: level 0 is the exact (bin, run) element-count matrix, level
  *k*+1 aggregates ``fanout`` children of level *k*.  A bin-range
  predicate decomposes into O(fanout · log n_bins) covering nodes, so
  range cardinalities — per run and total — resolve from interior
  nodes alone, without touching a single leaf.

The index is built at write time by :class:`HBIBuilder` (one slab of
whole runs at a time, in the writer's curve order, so the persisted
bytes are a pure function of the written data).  The on-disk
record (``<variable>/hbi``, see FORMAT.md) is versioned and
CRC-terminated; readers load it and never rebuild it.

Everything here is *summary* data derived from the authoritative flat
index: queries answered with HBI pruning are bit-identical to the flat
path (DESIGN.md §6), because dropping a (bin, chunk) whose summary
cardinality is zero can never remove a qualifying element.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.index.bitmap import (
    _GROUP_BITS,
    Bitmap,
    _group_rows_to_words,
    groups_to_bitmap,
    wah_cardinality,
    wah_decode,
    wah_expand_groups,
)
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

#: Chunks per leaf run (curve order).  Pruning granularity: a compound
#: pushdown can drop work only in whole runs at the tree level (exact
#: per-chunk counts refine below it), so smaller spans prune finer at
#: the cost of more leaves.  See docs/tuning.md.
DEFAULT_LEAF_SPAN = 8
#: Tree fanout over the bin axis.
DEFAULT_FANOUT = 4

_MAGIC = b"MLOCHBI\x00"
FORMAT_VERSION = 1
_GEOMETRY = struct.Struct("<IIqqq")  # leaf_span, fanout, n_bins, n_chunks, chunk_size
_COUNT = struct.Struct("<I")


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
        current = current.reshape(-1, fanout, current.shape[1]).sum(axis=1)
        levels.append(current)
    return levels


def _encode_leaves(
    rows: np.ndarray, leaf_bits: np.ndarray, n_rows: int, n_leaf_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """WAH words of ``n_rows`` run-local leaves from their set bits.

    ``rows`` (non-decreasing, not empty) names the leaf of every set
    bit and ``leaf_bits`` its run-local position, increasing within a
    leaf.  Returns the leaves' words concatenated in row order and each
    leaf's word count.  Every leaf is encoded at the full
    ``n_leaf_groups`` width whatever its highest bit, except that a
    leaf with no set bit has **no** words, not a zero-fill word.
    """
    # Keys are sorted, so one reduceat per constant-key segment ORs
    # each 63-bit group's bits in a single vectorized pass.
    keys = rows * n_leaf_groups + leaf_bits // _GROUP_BITS
    vals = np.uint64(1) << (leaf_bits % _GROUP_BITS).astype(np.uint64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    groups = np.zeros((n_rows, n_leaf_groups), dtype=np.uint64)
    groups.reshape(-1)[keys[starts]] = np.bitwise_or.reduceat(vals, starts)
    words, lengths = _group_rows_to_words(groups)
    # A leaf with no set bit came out as one zero-fill word: drop it.
    present = np.bincount(rows, minlength=n_rows) > 0
    words = words[np.repeat(present, lengths)]
    lengths[~present] = 0
    return words, lengths


class HBIndex:
    """The hierarchical bitmap index of one stored variable.

    Construct through :class:`HBIBuilder` (write time) or
    :meth:`from_bytes` (persisted form); the constructor itself just
    wires pre-built arrays together.
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
        levels: list[np.ndarray],
        leaf_offsets: np.ndarray,
        leaf_words: np.ndarray,
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
        self.levels = [np.asarray(m, dtype=np.int64) for m in levels]
        self.leaf_offsets = np.asarray(leaf_offsets, dtype=np.int64)
        self.leaf_words = np.asarray(leaf_words, dtype=np.uint64)
        self.n_runs = self.run_counts.shape[1]
        self.leaf_nbits = self.leaf_span * self.chunk_size
        self.n_leaf_groups = -(-self.leaf_nbits // _GROUP_BITS)
        #: Interior matrices bottom-up; level 0 is the exact run matrix.
        self._matrices = [self.run_counts] + self.levels
        #: Per-bin element totals (root of the per-bin axis).
        self.bin_totals = self.run_counts.sum(axis=1)

    # ------------------------------------------------------------------
    # Interior-node queries (no leaf decode)
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def leaf(self, bin_id: int, run: int) -> np.ndarray:
        """WAH words of one (bin, run) leaf (empty for an empty leaf)."""
        idx = bin_id * self.n_runs + run
        return self.leaf_words[self.leaf_offsets[idx] : self.leaf_offsets[idx + 1]]

    def range_run_groups(self, bin_lo: int, bin_hi: int, run: int) -> np.ndarray:
        """OR of the leaves of bins ``[bin_lo, bin_hi)`` in one run,
        as dense 63-bit group values (the compressed-domain AND/OR
        representation)."""
        groups = np.zeros(self.n_leaf_groups, dtype=np.uint64)
        for b in range(bin_lo, bin_hi):
            words = self.leaf(b, run)
            if words.size:
                groups |= wah_expand_groups(words)
        return groups

    def _leaf_bits_to_positions(self, run: int, leaf_bits: np.ndarray, grid, curve):
        """Map sorted run-local bit indices to global positions."""
        if leaf_bits.size == 0:
            return np.empty(0, dtype=np.int64)
        cpos = run * self.leaf_span + leaf_bits // self.chunk_size
        local = leaf_bits % self.chunk_size
        u_cpos, counts = np.unique(cpos, return_counts=True)
        chunk_ids = np.asarray(curve.order, dtype=np.int64)[u_cpos]
        return grid.global_positions_batch(chunk_ids, local, counts)

    def range_positions(self, bin_lo: int, bin_hi: int, grid, curve) -> np.ndarray:
        """Sorted global positions of every element of bins
        ``[bin_lo, bin_hi)``, answered from leaves alone.

        Runs whose interior-node count is zero are skipped without any
        leaf access — the hierarchical fast path.
        """
        run_counts, _ = self.range_run_counts(bin_lo, bin_hi)
        parts = []
        for run in np.flatnonzero(run_counts):
            groups = self.range_run_groups(bin_lo, bin_hi, int(run))
            leaf_bits = groups_to_bitmap(groups, self.leaf_nbits).to_positions()
            parts.append(self._leaf_bits_to_positions(int(run), leaf_bits, grid, curve))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def bin_positions(self, bin_id: int, grid, curve) -> np.ndarray:
        """Sorted global positions of one bin's elements."""
        return self.range_positions(bin_id, bin_id + 1, grid, curve)

    def bins_intersecting(self, positions: np.ndarray, grid, curve) -> np.ndarray:
        """Per-bin boolean mask: does the bin hold any of ``positions``?

        The AND-pushdown primitive for masked fetches: each (bin, run)
        leaf is ANDed against the positions' run-local group vector in
        the compressed 63-bit group domain, and interior-node counts
        skip empty cells without touching a leaf.  Exact, not an upper
        bound — leaves record true membership — so dropping the False
        bins from a position-masked value fetch is answer-preserving.
        """
        out = np.zeros(self.n_bins, dtype=bool)
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return out
        runs, leaf_bits = _positions_to_run_bits(pos, grid, curve, self.leaf_span)
        u_runs, starts = np.unique(runs, return_index=True)
        bounds = np.append(starts, runs.size)
        for i, run in enumerate(u_runs):
            bits = leaf_bits[bounds[i] : bounds[i + 1]]
            groups = np.zeros(self.n_leaf_groups, dtype=np.uint64)
            keys = bits // _GROUP_BITS
            vals = np.uint64(1) << (bits % _GROUP_BITS).astype(np.uint64)
            seg = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
            groups[keys[seg]] = np.bitwise_or.reduceat(vals, seg)
            candidates = np.flatnonzero(~out & (self.run_counts[:, run] > 0))
            for b in candidates:
                if np.any(wah_expand_groups(self.leaf(b, run)) & groups):
                    out[b] = True
        return out

    # ------------------------------------------------------------------
    # Introspection / integrity
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Structural counters for ``mloc index stats`` and benches."""
        n_leaves = self.n_bins * self.n_runs
        nonempty = int(np.count_nonzero(np.diff(self.leaf_offsets)))
        return {
            "leaf_span": self.leaf_span,
            "fanout": self.fanout,
            "n_bins": self.n_bins,
            "n_chunks": self.n_chunks,
            "n_runs": self.n_runs,
            "n_levels": len(self.levels) + 1,
            "n_leaves": n_leaves,
            "nonempty_leaves": nonempty,
            "interior_nodes": int(sum(m.shape[0] for m in self.levels)) * self.n_runs,
            "leaf_bytes": int(self.leaf_words.nbytes),
            "summary_bytes": int(
                self.run_counts.nbytes + sum(m.nbytes for m in self.levels)
            ),
            "total_elements": int(self.run_counts.sum()),
        }

    def validate(self) -> None:
        """Cross-check the tree against the leaves; raise on mismatch.

        Every interior level must sum to its children and every leaf's
        WAH cardinality must equal its level-0 count — the invariant
        that makes interior-node pruning answer-preserving.
        """
        for level, matrix in enumerate(self._matrices[1:]):
            child = self._matrices[level]
            rows = child.shape[0]
            padded_rows = -(-rows // self.fanout) * self.fanout
            padded = np.zeros((padded_rows, self.n_runs), dtype=np.int64)
            padded[:rows] = child
            expected = padded.reshape(-1, self.fanout, self.n_runs).sum(axis=1)
            if not np.array_equal(expected, matrix):
                raise ValueError(f"interior level {level + 1} disagrees with children")
        if self.leaf_offsets.size != self.n_bins * self.n_runs + 1:
            raise ValueError("leaf offset table has the wrong length")
        for b in range(self.n_bins):
            for r in range(self.n_runs):
                if wah_cardinality(self.leaf(b, r)) != self.run_counts[b, r]:
                    raise ValueError(
                        f"leaf ({b}, {r}) cardinality disagrees with its node count"
                    )

    # ------------------------------------------------------------------
    # Serialization (FORMAT.md: hierarchical index record)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The framed record (FORMAT.md: hierarchical index record)."""
        fields = [
            _GEOMETRY.pack(
                self.leaf_span, self.fanout, self.n_bins, self.n_chunks, self.chunk_size
            ),
            _COUNT.pack(len(self.levels)),
            self.run_counts.astype("<i8").tobytes(),
        ]
        for matrix in self.levels:
            fields.append(_COUNT.pack(matrix.shape[0]))
            fields.append(matrix.astype("<i8").tobytes())
        fields.append(self.leaf_offsets.astype("<i8").tobytes())
        fields.append(self.leaf_words.astype("<u8").tobytes())
        return frame(_MAGIC, FORMAT_VERSION, *fields)

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
        (n_levels,) = reader.unpack(_COUNT)
        n_runs = -(-n_chunks // leaf_span)
        run_counts = reader.array("<i8", n_bins * n_runs).reshape(n_bins, n_runs)
        levels, below = [], n_bins
        for _ in range(n_levels):
            (rows,) = reader.unpack(_COUNT)
            if rows != -(-below // fanout):
                reader.fail(f"interior level of {rows} rows over {below}")
            below = rows
            levels.append(reader.array("<i8", rows * n_runs).reshape(rows, n_runs))
        leaf_offsets = reader.array("<i8", n_bins * n_runs + 1)
        leaf_words = reader.array("<u8", int(leaf_offsets[-1]))
        reader.done()
        return cls(
            leaf_span=leaf_span,
            fanout=fanout,
            n_bins=n_bins,
            n_chunks=n_chunks,
            chunk_size=chunk_size,
            run_counts=run_counts,
            levels=levels,
            leaf_offsets=leaf_offsets,
            leaf_words=leaf_words,
        )


class HBIBuilder:
    """Write-time builder fed whole leaf runs at a time.

    The writer's ordered commit loop calls :meth:`add_chunks` once per
    slab — a whole number of runs, in curve order — with the bin-major
    chunk-local ids it feeds the flat index streams; the slab's leaves
    are encoded in one batched pass and only finished words are kept,
    so no state passes from slab to slab.  Consuming nothing but the
    slabs, in curve order, it yields index bytes that are a pure
    function of the written data (DESIGN.md §6).  :meth:`add_chunk`, the one-chunk entry point,
    buffers the open run and hands it over when the run closes.
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
        self.n_runs = -(-self.n_chunks // self.leaf_span)
        self.n_leaf_groups = -(-self.leaf_span * self.chunk_size // _GROUP_BITS)
        self.run_counts = np.zeros((self.n_bins, self.n_runs), dtype=np.int64)
        #: Per bin: the words of its leaves, one array per slab.
        self._words: list[list[np.ndarray]] = [[] for _ in range(self.n_bins)]
        self._leaf_lengths = np.zeros((self.n_bins, self.n_runs), dtype=np.int64)
        #: The open run's chunks handed in one at a time (``add_chunk``).
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._next_cpos = 0

    def add_chunks(
        self, first_cpos: int, local_ids: np.ndarray, counts: np.ndarray
    ) -> None:
        """Encode the leaves of a slab of whole runs.

        ``counts`` is the slab's ``(n_bins, k)`` element-count matrix
        and ``local_ids`` its chunk-local element ids in (bin, chunk,
        local id) order.  The slab must start on a run boundary and end
        on one (or at the last chunk).
        """
        counts = np.asarray(counts, dtype=np.int64)
        k = counts.shape[1]
        end = first_cpos + k
        if first_cpos != self._next_cpos or self._pending:
            raise ValueError(f"chunks must arrive in order: expected {self._next_cpos}")
        if first_cpos % self.leaf_span or (
            end % self.leaf_span and end != self.n_chunks
        ):
            raise ValueError(
                f"chunks [{first_cpos}, {end}) are not whole runs of {self.leaf_span}"
            )
        self._next_cpos = end
        first_run = first_cpos // self.leaf_span
        n_runs = -(-k // self.leaf_span)
        runs = slice(first_run, first_run + n_runs)
        self.run_counts[:, runs] = np.add.reduceat(
            counts, np.arange(0, k, self.leaf_span), axis=1
        )

        # Per (bin, chunk) cell, in the order of ``local_ids``: the
        # leaf it belongs to and the bit offset of its chunk in the run.
        in_slab = np.arange(k, dtype=np.int64)
        bins = np.arange(self.n_bins, dtype=np.int64)[:, None]
        cells = counts.reshape(-1)
        rows = np.repeat((bins * n_runs + in_slab // self.leaf_span).reshape(-1), cells)
        shift = np.repeat(
            np.tile(in_slab % self.leaf_span * self.chunk_size, self.n_bins), cells
        )
        words, lengths = _encode_leaves(
            rows,
            shift + np.asarray(local_ids, dtype=np.int64),
            self.n_bins * n_runs,
            self.n_leaf_groups,
        )
        lengths = lengths.reshape(self.n_bins, n_runs)
        self._leaf_lengths[:, runs] = lengths
        # The record orders leaves (bin, run) over the whole store.
        per_bin = np.split(words, np.cumsum(lengths.sum(axis=1))[:-1])
        for bin_words, part in zip(self._words, per_bin):
            bin_words.append(part)

    def add_chunk(self, cpos: int, local_ids: np.ndarray, offsets: np.ndarray) -> None:
        """Fold one chunk's bin-segmented local ids into the open run.

        ``local_ids`` concatenates each bin's strictly-increasing
        chunk-local element ids; ``offsets`` holds the per-bin
        boundaries (``per_bin_segments`` of one chunk).
        """
        expected = self._next_cpos + len(self._pending)
        if cpos != expected:
            raise ValueError(f"chunks must arrive in order: expected {expected}")
        per_bin = np.diff(np.asarray(offsets, dtype=np.int64))
        self._pending.append((np.asarray(local_ids, dtype=np.int64), per_bin))
        if (cpos + 1) % self.leaf_span == 0 or cpos + 1 == self.n_chunks:
            self._close_run()

    def _close_run(self) -> None:
        """Hand the buffered run to :meth:`add_chunks` in slab order."""
        pending, self._pending = self._pending, []
        counts = np.stack([per_bin for _, per_bin in pending], axis=1)
        # The chunks arrive (chunk, bin, local id)-ordered; a stable
        # sort by bin makes that (bin, chunk, local id).
        bins = np.repeat(
            np.tile(np.arange(self.n_bins), len(pending)), counts.T.reshape(-1)
        )
        ids = np.concatenate([ids for ids, _ in pending])
        self.add_chunks(self._next_cpos, ids[np.argsort(bins, kind="stable")], counts)

    def finish(self) -> HBIndex:
        """Assemble the index from the encoded slabs."""
        seen = self._next_cpos + len(self._pending)
        if seen != self.n_chunks:
            raise ValueError(f"saw {seen} of {self.n_chunks} chunks before finish")
        leaf_offsets = np.zeros(self._leaf_lengths.size + 1, dtype=np.int64)
        np.cumsum(self._leaf_lengths.reshape(-1), out=leaf_offsets[1:])
        words = [part for bin_words in self._words for part in bin_words]
        return HBIndex(
            leaf_span=self.leaf_span,
            fanout=self.fanout,
            n_bins=self.n_bins,
            n_chunks=self.n_chunks,
            chunk_size=self.chunk_size,
            run_counts=self.run_counts,
            levels=_aggregate_levels(self.run_counts, self.fanout),
            leaf_offsets=leaf_offsets,
            leaf_words=np.concatenate(words),
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
