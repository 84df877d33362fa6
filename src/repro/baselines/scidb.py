"""SciDB-like baseline: overlap-replicated chunked array storage.

SciDB (Brown, SIGMOD 2010) stores multidimensional arrays as regular
chunks and answers sub-volume (spatially-constrained) accesses by
reading the covering chunks; to avoid reading neighbour chunks for
window operations it *replicates data along chunk boundaries*, which is
why its footprint exceeds the raw data in Table I (8.8 GB for 8 GB).

Three mechanisms drive its query behaviour in the paper:

* value-constrained queries have no value index to use — **every chunk
  is scanned**;
* every scanned byte passes through the storage-manager/executor
  stack, whose effective processing rate is far below raw streaming
  (the paper measured SciDB an order of magnitude slower than a plain
  sequential scan over the same bytes: 206.8 s vs 19.2 s for the 8 GB
  GTS region query implies ~45 MB/s end-to-end);
* each query pays a fixed coordinator/chunk-map startup cost (visible
  as the ~29 s floor of the 0.1% GTS value query in Table III).

The processing rate and startup cost cannot be reproduced
mechanistically in a simulator, so they are explicit modeled constants
(``scan_bandwidth``, ``startup_seconds``) calibrated from the paper's
own measurements as derived above; see DESIGN.md §2.  I/O (chunk
reads, seeks, striping) is fully simulated like every other system,
and the modeled processing applies to paper-scale-equivalent bytes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineStore
from repro.core.chunking import ChunkGrid, normalize_region
from repro.core.result import ComponentTimes, QueryResult
from repro.pfs.layout import aggregate_parallel_time
from repro.pfs.simfs import SimulatedPFS

__all__ = ["SciDBStore"]


class SciDBStore(BaselineStore):
    """Chunked storage with boundary overlap and modeled executor cost."""

    name = "SciDB"

    def __init__(
        self,
        fs: SimulatedPFS,
        path: str,
        grid: ChunkGrid,
        overlap: int,
        chunk_offsets: np.ndarray,
        stored_shapes: list[tuple[int, ...]],
        scan_bandwidth: float,
        startup_seconds: float,
        n_ranks: int = 8,
    ) -> None:
        self.fs = fs
        self.path = path
        self.grid = grid
        self.overlap = overlap
        self.chunk_offsets = chunk_offsets
        self.stored_shapes = stored_shapes
        self.scan_bandwidth = scan_bandwidth
        self.startup_seconds = startup_seconds
        self.n_ranks = int(n_ranks)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        fs: SimulatedPFS,
        path: str,
        data: np.ndarray,
        chunk_shape: tuple[int, ...],
        overlap: int = 2,
        scan_bandwidth: float = 45e6,
        startup_seconds: float = 12.0,
        n_ranks: int = 8,
    ) -> "SciDBStore":
        data = np.ascontiguousarray(data, dtype=np.float64)
        grid = ChunkGrid(data.shape, chunk_shape)
        payloads: list[bytes] = []
        stored_shapes: list[tuple[int, ...]] = []
        for cid in range(grid.n_chunks):
            slices = grid.chunk_slices(cid)
            extended = tuple(
                slice(max(s.start - overlap, 0), min(s.stop + overlap, dim))
                for s, dim in zip(slices, data.shape)
            )
            block = np.ascontiguousarray(data[extended])
            stored_shapes.append(block.shape)
            payloads.append(block.tobytes())
        offsets = np.zeros(grid.n_chunks + 1, dtype=np.int64)
        np.cumsum([len(p) for p in payloads], out=offsets[1:])
        fs.write_file(path, b"".join(payloads))
        return cls(
            fs,
            path,
            grid,
            overlap,
            offsets,
            stored_shapes,
            scan_bandwidth,
            startup_seconds,
            n_ranks=n_ranks,
        )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.grid.shape

    def storage_bytes(self) -> dict[str, int]:
        return {"data": self.fs.size(self.path), "index": 0}

    # ------------------------------------------------------------------
    def _chunk_core(self, cid: int, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extract the non-overlap core of a stored chunk with its
        global positions."""
        slices = self.grid.chunk_slices(cid)
        stored_lo = [max(s.start - self.overlap, 0) for s in slices]
        core = tuple(
            slice(s.start - lo, s.stop - lo) for s, lo in zip(slices, stored_lo)
        )
        values = block[core].reshape(-1)
        local = np.arange(values.size, dtype=np.int64)
        positions = self.grid.global_positions(cid, local)
        return positions, values

    def _scan_chunks(
        self, chunk_ids: np.ndarray
    ) -> tuple[list[tuple[int, np.ndarray]], ComponentTimes, dict]:
        """Read the given chunks, modeling the executor processing cost.

        SciDB's 2011-era storage manager streams a scan through one
        coordinator, so reads are charged to a single session; every
        scanned byte additionally passes the modeled executor stack at
        ``scan_bandwidth``, and the query pays the coordinator startup
        once.
        """
        session = self.fs.session()
        blocks: list[tuple[int, np.ndarray]] = []
        bytes_processed = 0
        if chunk_ids.size:
            handle = session.open(self.path)
            for cid in chunk_ids:
                cid = int(cid)
                offset = int(self.chunk_offsets[cid])
                length = int(self.chunk_offsets[cid + 1] - offset)
                raw = handle.read(offset, length)
                bytes_processed += length
                block = np.frombuffer(raw, dtype=np.float64).reshape(
                    self.stored_shapes[cid]
                )
                blocks.append((cid, block))
        # The modeled executor cost covers the full processing stack
        # (it was derived from the paper's end-to-end rates), so the
        # filtering in region_query/value_query adds nothing to it.
        times = ComponentTimes(
            io=aggregate_parallel_time(self.fs.cost_model, [session]),
            reconstruction=self.startup_seconds
            + self.fs.cost_model.cpu_seconds(bytes_processed, self.scan_bandwidth),
        )
        stats = {
            "bytes_read": session.stats.bytes_read,
            "seeks": session.stats.seeks,
            "chunks_scanned": int(chunk_ids.size),
        }
        return blocks, times, stats

    # ------------------------------------------------------------------
    def region_query(self, value_range: tuple[float, float]) -> QueryResult:
        """No value index: scan every chunk and filter."""
        lo, hi = value_range
        chunk_ids = np.arange(self.grid.n_chunks, dtype=np.int64)
        blocks, times, stats = self._scan_chunks(chunk_ids)
        parts: list[np.ndarray] = []
        for cid, block in blocks:
            positions, values = self._chunk_core(cid, block)
            mask = (values >= lo) & (values <= hi)
            if mask.any():
                parts.append(positions[mask])
        positions = (
            np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        )
        stats["n_results"] = int(positions.size)
        return QueryResult(positions=positions, values=None, times=times, stats=stats)

    def value_query(self, region) -> QueryResult:
        """Read the covering chunks; filter their cores to the region."""
        region = normalize_region(region, self.grid.shape)
        chunk_ids = self.grid.chunks_overlapping(region)
        blocks, times, stats = self._scan_chunks(chunk_ids)
        pos_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for cid, block in blocks:
            positions, values = self._chunk_core(cid, block)
            mask = self.grid.positions_in_region(positions, region)
            pos_parts.append(positions[mask])
            val_parts.append(values[mask])
        positions = (
            np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        )
        stats["n_results"] = int(positions.size)
        return self._sorted_result(positions, values, times, stats)
