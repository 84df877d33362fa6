"""MLOC writer: the multi-level encode pipeline (Sections III-A/B).

The writer runs the full layout pipeline of Fig. 1 over an input array:

1. chunk the array on the configured grid;
2. order chunks by the configured curve (Hilbert by default,
   hierarchical Hilbert for subset-based multiresolution);
3. estimate equal-frequency bin boundaries from a sample and scatter
   each chunk's elements into bins (stable, preserving within-chunk
   order so position indices stay delta-friendly);
4. split values into PLoD byte groups (orders with 'M') or keep them
   whole (order 'VS');
5. nest the smallest units — (byte group, chunk) cells inside a bin —
   according to the level order, cut them into stripe-sized
   compression blocks, compress them with the configured codec;
6. write one data file and one position-index file per bin (Fig. 4)
   plus one metadata file.

The writer is a single pass over the array, one *slab* at a time: a run
of consecutive curve positions — a whole number of chunks, about
:data:`_SLAB_ELEMENTS` elements — on which every step is array
arithmetic, with no per-chunk and no per-(chunk, bin, byte group)
Python work.  Compressed blocks are staged
in memory per (bin, group) stream and the subfiles are materialized at
the end, because the V-M-S order requires all of byte-group g's cells
to precede group g+1's in the file while generation is chunk-major.

Each slab is binned (``assign``), stable-sorted once by bin id (the
elements lie chunk by chunk, so the result is (bin, chunk, local id)
order: every (bin, chunk) cell contiguous, a bin's cells adjacent),
split into PLoD byte groups once, and reduced to its per-chunk error
bounds and the delta + varint packing of its position index.  Then,
in curve order, every (bin, group) stream is handed its contiguous
slice of the slab with the vector of its cell sizes, and cuts
compression blocks by a running raw-size sum over that vector — where
adding the cells one at a time would cut them, so block *boundaries*
cannot depend on how the array was slabbed.  A stream only cuts raw
blocks; after each slab (the last one also cuts every open block) the
data blocks it cut go to the codec in one ``encode_many`` call
(``zlib-bytes`` probes a whole batch in one vectorised pass), and its
index blocks to ``compress_position_stream``.  A payload depends on its
block alone, never on the batch, and codec encoding is deterministic
(see :mod:`repro.compression.base`), so the subfiles, block tables,
CRCs and metadata are a pure function of (data, config) (DESIGN.md §6).

The slab is bounded because encoding one makes about a dozen transient
copies of its input (sort keys, permutation, byte planes, the bounds'
masked values, the raw blocks awaiting their batch): a few
cache-resident MiB per 64 Ki elements, a multiple of the writer's peak
memory over a whole array.  No written byte depends on the bound —
cells, their order in every stream and the per-chunk reductions are the
same for any slabbing (``tests/test_writer_golden.py`` pins the bytes
at two slab sizes).
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.binning.binner import BinScheme, per_bin_segments
from repro.binning.boundaries import (
    equal_frequency_boundaries,
    equal_width_boundaries,
)
from repro.compression.base import ByteCodec, FloatCodec, make_codec
from repro.core.chunking import ChunkGrid
from repro.core.config import MLOCConfig
from repro.core.meta import BlockTable, StoreMeta
from repro.index.binindex import compress_position_stream, encode_position_cells
from repro.index.hbi import HBIBuilder, hbi_path
from repro.pfs.layout import BinFileSet
from repro.pfs.simfs import SimulatedPFS
from repro.plod.bounds import PEBBuilder, compute_bounds_batch, peb_path
from repro.plod.byteplanes import (
    GROUP_WIDTHS,
    nested_group_index,
    split_byte_groups,
)
from repro.sfc.hierarchical import hierarchical_order
from repro.sfc.linearize import CurveOrder, chunk_curve_order
from repro.util.record import record_crc

__all__ = ["MLOCWriter", "WriteReport", "make_curve"]


#: Elements per slab of the encode pass (see the module docstring).  A
#: constant, not an option: no written byte depends on it.
_SLAB_ELEMENTS = 1 << 16
_INDEX_ZLIB_LEVEL = 6


def make_curve(config: MLOCConfig, grid: ChunkGrid) -> CurveOrder:
    """The chunk ordering a configuration prescribes: memoised, since an
    ingest campaign writes, and a snapshot opens, one grid many times."""
    return _curve_order(grid.grid_shape, config.curve)


@functools.lru_cache(maxsize=8)
def _curve_order(grid_shape: tuple[int, ...], curve: str) -> CurveOrder:
    if curve == "hierarchical":
        return hierarchical_order(grid_shape)
    return chunk_curve_order(grid_shape, curve)


@dataclass(frozen=True)
class WriteReport:
    """Storage accounting of one completed write (Table I inputs)."""

    variable: str
    raw_bytes: int
    data_bytes: int
    index_bytes: int
    meta_bytes: int
    #: Hierarchical bitmap index file size.  Kept out of
    #: ``total_bytes`` so Table I storage accounting is unchanged by
    #: the summary structure.
    hbi_bytes: int = 0
    #: Per-chunk error-bounds file size (0 when the layout has no PLoD
    #: byte planes).  Outside ``total_bytes`` for the same reason as
    #: ``hbi_bytes``.
    peb_bytes: int = 0
    #: Record CRC of the metadata as written — the store generation a
    #: dataset manifest records when it seals this write as a member
    #: (``repro.core.manifest``).
    meta_crc: int = 0

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes + self.meta_bytes

    @property
    def data_ratio(self) -> float:
        return self.data_bytes / self.raw_bytes

    @property
    def total_ratio(self) -> float:
        return self.total_bytes / self.raw_bytes


class _BlockStream:
    """Accumulates the consecutive cells of one stream into blocks.

    One class serves a (bin, group-stream) of data cells, whose blocks
    are codec-compressed runs of values or byte planes, and a bin's
    position index, whose cells are chunks and whose blocks are
    deflated byte ranges of a varint delta stream.  Either way a block
    is cut **after the first cell at which the running raw size
    reaches** ``target_bytes``: empty cells ride in the block they fall
    in, and an empty cell after a cut opens the next block.  That sum
    alone decides block *boundaries*, however the cells were batched
    into :meth:`add` calls.  A stream only cuts: its raw blocks wait in
    ``cut`` until the writer encodes a batch of them (:func:`_encode_cut`).
    """

    def __init__(self, target_bytes: int) -> None:
        self.target = target_bytes
        self._parts: list[np.ndarray] = []
        #: Raw size of the open block so far.
        self._raw = 0
        self._cell_start: int | None = None
        self._next_cell: int | None = None
        #: (cell_start, cell_end, raw buffer) of the blocks not yet encoded.
        self.cut: list[tuple[int, int, np.ndarray]] = []
        #: (cell_start, cell_end, payload, payload raw bytes).
        self.blocks: list[tuple[int, int, bytes, int]] = []

    def add(
        self, first_cell: int, ends: np.ndarray, buffer: np.ndarray, bounds: np.ndarray
    ) -> None:
        """Append the cells ``first_cell, first_cell + 1, ...``.

        ``ends[i]`` is the raw size of cells ``0..i`` of this call
        together (what the block target counts) and cell ``i``'s
        content is ``buffer[bounds[i]:bounds[i + 1]]``.
        """
        if self._next_cell is None:
            self._cell_start = first_cell
        elif first_cell != self._next_cell:
            raise ValueError(
                f"cells must be added consecutively: expected {self._next_cell}, "
                f"got {first_cell}"
            )
        n = len(ends)
        self._next_cell = first_cell + n
        # On the scale of ``ends``, the open block began at ``-_raw``.
        opened = -self._raw
        done = 0
        while (cut := int(ends.searchsorted(opened + self.target))) < n:
            self._parts.append(buffer[bounds[done] : bounds[cut + 1]])
            self._cut(first_cell + cut + 1)
            opened, done = int(ends[cut]), cut + 1
        if done < n:
            # The stream outlives this call's buffer: keep a copy of
            # the open block's tail, not a view that pins the slab.
            self._parts.append(buffer[bounds[done] : bounds[n]].copy())
            self._raw = int(ends[-1]) - opened

    def _cut(self, cell_end: int) -> None:
        # Every cell since the last cut left a part, possibly empty: a
        # block of empty cells is an empty array of the right dtype.
        parts = self._parts
        raw = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.cut.append((self._cell_start, cell_end, raw))
        self._parts = []
        self._raw = 0
        self._cell_start = cell_end

    def flush(self) -> None:
        """Cut the open block, if any cell is in it."""
        if self._next_cell is not None and self._next_cell > self._cell_start:
            self._cut(self._next_cell)


def _encode_cut(
    streams: list[_BlockStream], encode_many: Callable[[list], list[bytes]]
) -> None:
    """Encode every block the streams cut since the last call with one
    ``encode_many`` call, moving each into its stream's ``blocks``."""
    payloads = iter(encode_many([raw for stream in streams for _, _, raw in stream.cut]))
    for stream in streams:
        stream.blocks += [(a, b, next(payloads), raw.nbytes) for a, b, raw in stream.cut]
        stream.cut = []


def _compress_index_blocks(buffers: list[np.ndarray]) -> list[bytes]:
    return [compress_position_stream(raw, level=_INDEX_ZLIB_LEVEL) for raw in buffers]


class MLOCWriter:
    """Encodes arrays into MLOC's multi-level on-disk layout.

    Next to the bin subfiles every write persists the hierarchical
    bitmap index (``hbi``, :mod:`repro.index.hbi`) and, for byte-plane
    layouts, the per-(chunk, PLoD-level) error bounds behind
    ``query(tol=...)`` (``peb``, :mod:`repro.plod.bounds`).  Both
    builders are fed slab by slab, in curve order, like the bin streams.
    """

    def __init__(self, fs: SimulatedPFS, root: str, config: MLOCConfig) -> None:
        self.fs = fs
        self.root = root.rstrip("/")
        self.config = config

    def variable_root(self, variable: str) -> str:
        """Directory of one variable's subfiles under this writer's root."""
        return f"{self.root}/{variable}"

    # ------------------------------------------------------------------
    def write(self, data: np.ndarray, variable: str = "var") -> WriteReport:
        """Run the full pipeline on ``data`` and persist every subfile."""
        data = np.ascontiguousarray(data, dtype=np.float64)
        grid = ChunkGrid(data.shape, self.config.chunk_shape)
        curve = make_curve(self.config, grid)
        codec = self._check_codec()
        scheme = self._estimate_bins(data)
        data_streams, index_streams, counts, hbi, peb = self._encode(
            data, grid, curve, scheme, codec
        )
        return self._commit(
            data, variable, scheme, counts, data_streams, index_streams, hbi, peb
        )

    # ------------------------------------------------------------------
    def _check_codec(self) -> ByteCodec | FloatCodec:
        """Instantiate the codec and verify it matches the level order."""
        config = self.config
        codec = make_codec(config.codec)
        if config.plod_enabled and not isinstance(codec, ByteCodec):
            raise TypeError(
                f"level order {config.level_order!r} splits byte planes and needs a "
                f"ByteCodec; {config.codec!r} is a {type(codec).__name__}"
            )
        if not config.plod_enabled and not isinstance(codec, FloatCodec):
            raise TypeError(
                f"level order {config.level_order!r} keeps whole values and needs a "
                f"FloatCodec; {config.codec!r} is a {type(codec).__name__}"
            )
        return codec

    # ------------------------------------------------------------------
    def _encode(self, data, grid, curve, scheme, codec):
        """Encode the slabs, in curve order, into per-(bin, group) streams."""
        config = self.config
        n_bins, n_chunks = config.n_bins, grid.n_chunks
        n_groups = config.n_groups
        plod = config.plod_enabled
        chunk_size = grid.chunk_size
        counts = np.zeros((n_bins, n_chunks), dtype=np.uint32)

        # One stream per (bin, group) for group-major (V-M-S) nesting;
        # a single stream per bin otherwise (cells arrive in file order).
        streams_per_bin = n_groups if config.group_major else 1
        target = config.target_block_bytes
        data_streams = [
            [_BlockStream(target) for _ in range(streams_per_bin)] for _ in range(n_bins)
        ]
        index_streams = [_BlockStream(target) for _ in range(n_bins)]
        all_data = [stream for streams in data_streams for stream in streams]
        # Both builders consume the slabs in curve order, like the streams.
        hbi = HBIBuilder(n_bins, n_chunks, chunk_size)
        peb = PEBBuilder(n_chunks) if plod else None

        span = max(_SLAB_ELEMENTS // chunk_size, 1)
        # (grid axes..., in-chunk axes...): indexing the grid axes with
        # chunk coordinates gathers whole chunks, row-major inside.
        ndims = grid.ndims
        interleaved = [n for pair in zip(grid.grid_shape, grid.chunk_shape) for n in pair]
        chunks = data.reshape(interleaved).transpose(
            *range(0, 2 * ndims, 2), *range(1, 2 * ndims, 2)
        )

        for lo in range(0, n_chunks, span):
            k = min(span, n_chunks - lo)
            coords = grid.chunk_coords(curve.order[lo : lo + k])
            vals = chunks[tuple(coords.T)].reshape(-1)
            bids = scheme.assign(vals)
            # The elements lie in (chunk, local id) order, so the stable
            # sort by bin leaves them in (bin, chunk, local id) order.
            perm, sorted_vals, _ = per_bin_segments(vals, bids, n_bins)
            local_ids = perm % chunk_size
            cell_of = bids.reshape(k, chunk_size) * np.int64(k) + np.arange(k)[:, None]
            sizes = np.bincount(cell_of.reshape(-1), minlength=n_bins * k).reshape(
                n_bins, k
            )
            counts[:, lo : lo + k] = sizes
            hbi.add_chunks(lo, sizes)
            # What each stream of a bin is fed, its position index first:
            # (first cell, per-bin running raw size, content, cell offsets).
            cum = np.cumsum(sizes, axis=1)
            cells = np.zeros(n_bins * k + 1, dtype=np.int64)
            np.cumsum(sizes.reshape(-1), out=cells[1:])
            feeds = [(lo, cum * 8, *encode_position_cells(local_ids, sizes.reshape(-1)))]
            if not plod:
                feeds.append((lo, cum * 8, sorted_vals, cells))
            else:
                planes = split_byte_groups(sorted_vals)
                peb.add_chunks(lo, *compute_bounds_batch(sorted_vals, sizes))
                if config.group_major:
                    feeds += [
                        (g * n_chunks + lo, cum * w, planes[g], cells * w)
                        for g, w in enumerate(GROUP_WIDTHS)
                    ]
                else:
                    # V-S-M: re-nest the seven planes cell by cell.
                    nested = np.empty(8 * sorted_vals.size, dtype=np.uint8)
                    for at, plane in zip(nested_group_index(sizes.reshape(-1)), planes):
                        nested[at] = plane
                    cell_bytes = sizes[:, :, None] * np.array(GROUP_WIDTHS)
                    cell_bytes = cell_bytes.reshape(n_bins, -1)
                    starts = np.zeros(cell_bytes.size + 1, dtype=np.int64)
                    np.cumsum(cell_bytes.reshape(-1), out=starts[1:])
                    feeds.append((lo * n_groups, np.cumsum(cell_bytes, axis=1), nested, starts))
            for b in range(n_bins):
                streams = (index_streams[b], *data_streams[b])
                for stream, (first_cell, ends, buffer, starts) in zip(streams, feeds):
                    m = ends.shape[1]
                    stream.add(first_cell, ends[b], buffer, starts[b * m : (b + 1) * m + 1])
            if lo + k == n_chunks:  # the last slab also cuts every open block
                for stream in (*all_data, *index_streams):
                    stream.flush()
            _encode_cut(all_data, codec.encode_many)
            _encode_cut(index_streams, _compress_index_blocks)
        return data_streams, index_streams, counts, hbi, peb

    # ------------------------------------------------------------------
    def _commit(
        self, data, variable, scheme, counts, data_streams, index_streams, hbi, peb
    ) -> WriteReport:
        """Materialize subfiles and metadata in deterministic order."""
        n_bins = self.config.n_bins
        files = BinFileSet(self.variable_root(variable), n_bins)
        data_block_tables: list[np.ndarray] = []
        index_block_tables: list[np.ndarray] = []
        for b in range(n_bins):
            table = self._write_blocks(files.data_path(b), data_streams[b])
            data_block_tables.append(table)
            table = self._write_blocks(files.index_path(b), [index_streams[b]])
            # Index rows carry no raw length (FORMAT.md block tables).
            index_block_tables.append(np.delete(table, 4, axis=1))

        meta = StoreMeta(
            variable=variable,
            shape=data.shape,
            config=self.config,
            edges=scheme.edges,
            counts=counts,
            data_blocks=BlockTable.stack(data_block_tables),
            index_blocks=BlockTable.stack(index_block_tables),
        )
        meta.validate()
        meta_blob = meta.to_bytes()
        self.fs.write_file(files.meta_path, meta_blob)

        blob = hbi.finish().to_bytes()
        self.fs.write_file(hbi_path(self.variable_root(variable)), blob)
        hbi_bytes = len(blob)

        peb_bytes = 0
        if peb is not None:
            blob = peb.finish().to_bytes()
            self.fs.write_file(peb_path(self.variable_root(variable)), blob)
            peb_bytes = len(blob)

        return WriteReport(
            variable=variable,
            raw_bytes=data.nbytes,
            data_bytes=files.data_bytes(self.fs),
            index_bytes=files.index_bytes(self.fs),
            meta_bytes=self.fs.size(files.meta_path),
            hbi_bytes=hbi_bytes,
            peb_bytes=peb_bytes,
            meta_crc=record_crc(meta_blob),
        )

    def _write_blocks(self, path: str, streams: list[_BlockStream]) -> np.ndarray:
        """Write the streams' encoded blocks, in order, into one subfile.

        Returns its block table: ``(cell_start, cell_end, offset,
        length, raw_len, crc32)`` rows.
        """
        rows = []
        payloads: list[bytes] = []
        offset = 0
        for stream in streams:
            for cell_start, cell_end, payload, raw_len in stream.blocks:
                rows.append(
                    (cell_start, cell_end, offset, len(payload), raw_len, zlib.crc32(payload))
                )
                payloads.append(payload)
                offset += len(payload)
        self.fs.write_file(path, b"".join(payloads))
        return np.array(rows, dtype=np.int64).reshape(-1, 6)

    # ------------------------------------------------------------------
    def _estimate_bins(self, data: np.ndarray) -> BinScheme:
        """Bin boundaries: sampled quantiles, or true-range equal width.

        Equal-frequency edges come from a random sample (§IV-A1).
        Equal-width edges use the *full-array* min/max — two cheap
        single passes — because sample extremes systematically
        under-cover the data and would silently clamp every outlier
        into the two end bins.
        """
        config = self.config
        flat = data.reshape(-1)
        if config.binning == "equal-width":
            edges = equal_width_boundaries(
                float(flat.min()), float(flat.max()), config.n_bins
            )
            return BinScheme(edges)
        rng = np.random.default_rng(config.seed)
        n_sample = max(int(flat.size * config.sample_fraction), config.n_bins * 8)
        n_sample = min(n_sample, flat.size)
        sample = flat[rng.integers(0, flat.size, size=n_sample)]
        return BinScheme(equal_frequency_boundaries(sample, config.n_bins))
