"""On-disk metadata of an MLOC dataset.

The metadata is everything the store needs besides the bin files
themselves: the layout configuration, the bin edges, the per-bin
per-chunk element counts (in curve order), and the block tables mapping
cell ranges to byte extents in the data/index subfiles.  It is written
to the dataset's ``meta`` file as one framed record (FORMAT.md,
"Metadata") and is small relative to the data (the heavyweight position
information lives in the per-bin index files, read per query).

Block tables are plain int64 arrays for compactness:

* data blocks: rows of ``(cell_start, cell_end, offset, comp_len,
  raw_len, crc32)`` where cells are bin-local in the configured
  nesting order and ``crc32`` covers the compressed payload;
* index blocks: rows of ``(cpos_start, cpos_end, offset, comp_len,
  crc32)`` where ``cpos`` is the chunk's position in curve order.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.compression import codec_names
from repro.compression.base import inflate
from repro.core.chunking import check_shape_chunks
from repro.core.config import MLOCConfig
from repro.util.record import RecordReader, frame, record_crc, text_field

__all__ = ["BlockTable", "StoreMeta", "read_meta_bytes"]

_MAGIC = b"MLOCMETA"
_FORMAT_VERSION = 2
_FIXED = struct.Struct("<qqdqI")  # n_bins, target_block_bytes, sample_fraction, seed, ndim
_PAYLOAD_LEN = struct.Struct("<I")
#: Deflate level of the array payload; fixed, so equal metadata always
#: serializes (and fingerprints) to equal bytes.
_DEFLATE_LEVEL = 1


def read_meta_bytes(fs, var_root: str) -> bytes:
    """The serialized ``meta`` record of the store under ``var_root``.

    Read through a throwaway session: a handle reads its metadata once
    and keeps it in memory for its lifetime (as any long-running
    analysis service would), so the read is charged to no query.
    Callers that pin a sealed member check the CRC of these bytes
    before parsing them with :meth:`StoreMeta.from_bytes`.
    """
    return bytes(fs.session().open(f"{var_root.rstrip('/')}/meta").read_all())


@dataclass
class BlockTable:
    """One kind's block rows for every bin (data or index), bin-major.

    ``rows`` stacks the bins' tables in bin order, and bin ``b`` owns
    ``rows[bounds[b]:bounds[b + 1]]``: the record's row order, so the
    decoder, the checks and the planner all work on the one array.
    """

    rows: np.ndarray
    #: Per-bin row bounds, ``n_bins + 1`` int64 prefix sums.
    bounds: np.ndarray

    @classmethod
    def stack(cls, tables: list[np.ndarray]) -> "BlockTable":
        """The table of per-bin row arrays given in bin order."""
        bounds = np.zeros(len(tables) + 1, dtype=np.int64)
        np.cumsum([len(table) for table in tables], out=bounds[1:])
        return cls(np.concatenate(tables), bounds)

    def of_bin(self, b: int) -> np.ndarray:
        """Bin ``b``'s rows (a view)."""
        return self.rows[self.bounds[b] : self.bounds[b + 1]]

    def bins(self) -> np.ndarray:
        """The bin of every row."""
        return np.repeat(np.arange(self.bounds.size - 1), np.diff(self.bounds))

    def check(self, what: str, n_units: int) -> None:
        """Raise ``ValueError`` unless every bin's rows partition its units.

        Per bin, the rows' ``[start, end)`` ranges are non-empty and
        chain from 0 to ``n_units`` (cells of a data table, chunks of an
        index table), and their byte extents chain from offset 0 with
        lengths >= 0.  One vectorized pass over all bins' rows together.
        """
        lengths = np.diff(self.bounds)
        if lengths.min() == 0:
            raise ValueError(f"{what} block table of bin {int(lengths.argmin())} is empty")
        start, end, offset, length = self.rows[:, :4].T
        first, last = self.bounds[:-1], self.bounds[1:] - 1
        # A bin's first row opens at (0, 0); every other row resumes where
        # the row before it ended, in units and in bytes.
        want_start = np.roll(end, 1)
        want_offset = np.roll(offset + length, 1)
        want_start[first] = 0
        want_offset[first] = 0
        bad = (start != want_start) | (end <= start) | (offset != want_offset)
        bad |= (length < 0) | (offset < 0)
        bad[last] |= end[last] != n_units
        if bad.any():
            at = int(bad.argmax())
            b = int(last.searchsorted(at))
            raise ValueError(
                f"{what} block table of bin {b}: row {at - int(first[b])} "
                f"{self.rows[at, :4].tolist()} breaks the partition of [0, {n_units})"
            )


@dataclass
class StoreMeta:
    """Complete metadata of one stored variable."""

    variable: str
    shape: tuple[int, ...]
    config: MLOCConfig
    edges: np.ndarray
    #: Element counts per (bin, chunk-in-curve-order), uint32.
    counts: np.ndarray
    #: Every bin's data block rows, ``(n_blocks, 6)`` int64.
    data_blocks: BlockTable
    #: Every bin's index block rows, ``(n_blocks, 5)`` int64.
    index_blocks: BlockTable

    def validate(self) -> None:
        n_bins = self.config.n_bins
        if self.edges.shape != (n_bins + 1,):
            raise ValueError(
                f"edges shape {self.edges.shape} != ({n_bins + 1},)"
            )
        if self.counts.ndim != 2 or self.counts.shape[0] != n_bins:
            raise ValueError(f"counts shape {self.counts.shape} invalid for {n_bins} bins")
        if {self.data_blocks.bounds.size, self.index_blocks.bounds.size} != {n_bins + 1}:
            raise ValueError("block tables must have one entry per bin")
        n_elements = math.prod(self.shape)
        if int(self.counts.sum()) != n_elements:
            raise ValueError(
                f"counts sum {int(self.counts.sum())} != element count {n_elements}"
            )
        n_chunks = self.n_chunks
        self.data_blocks.check("data", n_chunks * self.config.n_groups)
        self.index_blocks.check("index", n_chunks)

    @property
    def n_chunks(self) -> int:
        return int(self.counts.shape[1])

    def fingerprint(self) -> int:
        """CRC32 of the serialized metadata (its record CRC).

        The store **generation**: manifests record it per sealed
        member, and the block/plan caches key on it, so state cached
        under one layout of the same paths can never serve a
        rewritten store.
        """
        return record_crc(self.to_bytes())

    def to_bytes(self) -> bytes:
        """The framed record (FORMAT.md, "Metadata")."""
        c = self.config
        tables = (self.data_blocks, self.index_blocks)
        arrays = [self.edges.astype("<f8"), self.counts.astype("<u4")]
        arrays += [table.rows.astype("<i8") for table in tables]
        row_counts = np.concatenate([np.diff(table.bounds) for table in tables])
        payload = zlib.compress(b"".join(a.tobytes() for a in arrays), _DEFLATE_LEVEL)
        return frame(
            _MAGIC, _FORMAT_VERSION,
            _FIXED.pack(
                c.n_bins, c.target_block_bytes, c.sample_fraction, c.seed, len(self.shape)
            ),
            np.array([*c.chunk_shape, *self.shape], dtype="<i8").tobytes(),
            *map(text_field, (c.level_order, c.curve, c.binning, c.codec, self.variable)),
            row_counts.astype("<u4").tobytes(),
            _PAYLOAD_LEN.pack(len(payload)) + payload,
        )

    @classmethod
    def load(cls, fs, var_root: str) -> "StoreMeta":
        """Read and parse the metadata of the store under ``var_root``."""
        return cls.from_bytes(read_meta_bytes(fs, var_root))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StoreMeta":
        """Parse a framed record; malformed bytes raise ``FormatError``."""
        reader = RecordReader(raw, _MAGIC, _FORMAT_VERSION, "store metadata")
        n_bins, block_bytes, fraction, seed, ndim = reader.unpack(_FIXED)
        dims = tuple(int(d) for d in reader.array("<i8", 2 * ndim))
        chunk_shape, shape = dims[:ndim], dims[ndim:]
        level_order, curve, binning, codec, variable = (reader.text() for _ in range(5))
        try:
            config = MLOCConfig(chunk_shape, n_bins, level_order, curve, codec,
                                block_bytes, binning, fraction, seed)
            check_shape_chunks(shape, chunk_shape)
            if codec not in codec_names() or min(shape) <= 0:
                raise ValueError(f"codec {codec!r}, shape {shape}")
        except ValueError as exc:
            reader.fail(f"impossible configuration: {exc}")
        rows = reader.array("<u4", 2 * n_bins).reshape(2, n_bins)
        payload = reader.take(*reader.unpack(_PAYLOAD_LEN))
        reader.done()
        # The checked geometry fixes the inflated size, which bounds the inflate.
        n_chunks = math.prod(s // c for s, c in zip(shape, chunk_shape))
        bounds = np.zeros((2, n_bins + 1), dtype=np.int64)  # row bounds per bin
        np.cumsum(rows, axis=1, out=bounds[:, 1:])
        tables = (48 * int(bounds[0, -1]), 40 * int(bounds[1, -1]))
        ends = list(accumulate([8 * (n_bins + 1), 4 * n_bins * n_chunks, *tables]))
        try:
            body = np.frombuffer(inflate(payload, ends[-1]), np.uint8)
            if body.size != ends[-1]:
                raise ValueError(f"{body.size} bytes; the geometry wants {ends[-1]}")
            edges, counts, data, index = (
                part.view("<" + code).astype(code)
                for part, code in zip(np.split(body, ends[:-1]), ("f8", "u4", "i8", "i8"))
            )
            meta = cls(
                variable, shape, config, edges, counts.reshape(n_bins, n_chunks),
                BlockTable(data.reshape(-1, 6), bounds[0]),
                BlockTable(index.reshape(-1, 5), bounds[1]),
            )
            meta.validate()
        except (ValueError, OverflowError, zlib.error) as exc:
            reader.fail(f"array payload: {exc}")
        return meta
