"""On-disk metadata of an MLOC dataset.

The metadata is everything the store needs besides the bin files
themselves: the layout configuration, the bin edges, the per-bin
per-chunk element counts (in curve order), and the block tables mapping
cell ranges to byte extents in the data/index subfiles.  It is written
to the dataset's ``meta`` file and is small relative to the data (the
heavyweight position information lives in the per-bin index files,
which are read and charged per query).

Block tables are plain int64 arrays for compactness:

* data blocks: rows of ``(cell_start, cell_end, offset, comp_len,
  raw_len, crc32)`` where cells are bin-local in the configured
  nesting order and ``crc32`` covers the compressed payload;
* index blocks: rows of ``(cpos_start, cpos_end, offset, comp_len,
  crc32)`` where ``cpos`` is the chunk's position in curve order.
"""

from __future__ import annotations

import io
import pickle
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MLOCConfig

__all__ = ["StoreMeta", "read_meta_bytes", "DATA_BLOCK_FIELDS", "INDEX_BLOCK_FIELDS"]

DATA_BLOCK_FIELDS = ("cell_start", "cell_end", "offset", "comp_len", "raw_len", "crc32")
INDEX_BLOCK_FIELDS = ("cpos_start", "cpos_end", "offset", "comp_len", "crc32")

_FORMAT_VERSION = 1


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
class StoreMeta:
    """Complete metadata of one stored variable."""

    variable: str
    shape: tuple[int, ...]
    config: MLOCConfig
    edges: np.ndarray
    #: Element counts per (bin, chunk-in-curve-order), uint32.
    counts: np.ndarray
    #: Per-bin data block tables, each ``(n_blocks, 6)`` int64.
    data_blocks: list[np.ndarray] = field(default_factory=list)
    #: Per-bin index block tables, each ``(n_blocks, 5)`` int64.
    index_blocks: list[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        n_bins = self.config.n_bins
        if self.edges.shape != (n_bins + 1,):
            raise ValueError(
                f"edges shape {self.edges.shape} != ({n_bins + 1},)"
            )
        if self.counts.ndim != 2 or self.counts.shape[0] != n_bins:
            raise ValueError(f"counts shape {self.counts.shape} invalid for {n_bins} bins")
        if len(self.data_blocks) != n_bins or len(self.index_blocks) != n_bins:
            raise ValueError("block tables must have one entry per bin")
        n_elements = int(np.prod(self.shape))
        if int(self.counts.sum()) != n_elements:
            raise ValueError(
                f"counts sum {int(self.counts.sum())} != element count {n_elements}"
            )

    @property
    def n_chunks(self) -> int:
        return int(self.counts.shape[1])

    def fingerprint(self) -> int:
        """CRC32 of the serialized metadata.

        The store **generation**: manifests record it per sealed
        member, and the block/plan caches key on it, so state cached
        under one layout of the same paths can never serve a
        rewritten store.
        """
        return zlib.crc32(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialize (pickle protocol 4; a trusted research format)."""
        payload = {
            "version": _FORMAT_VERSION,
            "variable": self.variable,
            "shape": tuple(self.shape),
            "config": self.config,
            "edges": self.edges,
            "counts": self.counts,
            "data_blocks": self.data_blocks,
            "index_blocks": self.index_blocks,
        }
        buf = io.BytesIO()
        pickle.dump(payload, buf, protocol=4)
        return buf.getvalue()

    @classmethod
    def load(cls, fs, var_root: str) -> "StoreMeta":
        """Read and parse the metadata of the store under ``var_root``."""
        return cls.from_bytes(read_meta_bytes(fs, var_root))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StoreMeta":
        payload = pickle.loads(raw)
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported metadata version {version!r}")
        meta = cls(
            variable=payload["variable"],
            shape=tuple(payload["shape"]),
            config=payload["config"],
            edges=payload["edges"],
            counts=payload["counts"],
            data_blocks=payload["data_blocks"],
            index_blocks=payload["index_blocks"],
        )
        meta.validate()
        return meta
