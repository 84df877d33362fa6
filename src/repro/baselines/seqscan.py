"""Sequential-scan baseline.

The paper's naive comparator: the array is linearized row-major in a
single file on the PFS.  Value-constrained (region) queries must read
and filter the *entire* dataset; spatially-constrained (value) queries
compute the file offsets of the contiguous runs inside the region and
read only those — which is why sequential scan is terrible in
Tables II/IV but competitive in Tables III/V.

The scan is given the same rank-level parallelism as MLOC (the paper
used 8 cores for every system): ranks read disjoint contiguous spans
of the file, so OST contention is modeled identically.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineStore
from repro.core.chunking import normalize_region
from repro.core.result import ComponentTimes, QueryResult
from repro.pfs.costmodel import FILTER_GATHER_THROUGHPUT
from repro.pfs.layout import aggregate_parallel_time
from repro.pfs.simfs import SimulatedPFS

__all__ = ["SeqScanStore", "region_runs"]


def region_runs(shape: tuple[int, ...], region) -> tuple[np.ndarray, int]:
    """Contiguous row-major runs covering a region.

    Returns ``(starts, run_length)``: the global positions at which
    each run begins and the (uniform) run length.  Runs that are
    adjacent in linear order (region spans the full final axes) are
    merged by construction because the run length then multiplies up.
    """
    region = normalize_region(region, shape)
    ndims = len(shape)
    strides = [int(np.prod(shape[d + 1 :])) for d in range(ndims)]
    # Find the longest suffix of axes fully covered by the region: runs
    # extend contiguously across those axes.
    run_axes = ndims
    run_length = 1
    partial_axis = None  # innermost axis not fully covered by the region
    for d in range(ndims - 1, -1, -1):
        lo, hi = region[d]
        run_length *= hi - lo
        run_axes = d
        if not (lo == 0 and hi == shape[d]):
            partial_axis = d
            break
    base = 0 if partial_axis is None else region[partial_axis][0] * strides[partial_axis]
    outer = region[:run_axes]
    if not outer:
        return np.array([base], dtype=np.int64), run_length
    axes = [np.arange(lo, hi, dtype=np.int64) for lo, hi in outer]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.full(mesh[0].size, base, dtype=np.int64)
    for d in range(run_axes):
        starts += mesh[d].reshape(-1) * strides[d]
    return starts, run_length


class SeqScanStore(BaselineStore):
    """Row-major raw storage with brute-force scans."""

    name = "Seq. Scan"

    def __init__(
        self, fs: SimulatedPFS, path: str, shape: tuple[int, ...], n_ranks: int = 8
    ) -> None:
        self.fs = fs
        self.path = path
        self._shape = tuple(int(s) for s in shape)
        self.n_ranks = int(n_ranks)
        self.n_elements = int(np.prod(self._shape))

    @classmethod
    def build(
        cls, fs: SimulatedPFS, path: str, data: np.ndarray, n_ranks: int = 8
    ) -> "SeqScanStore":
        data = np.ascontiguousarray(data, dtype=np.float64)
        fs.write_file(path, data.tobytes())
        return cls(fs, path, data.shape, n_ranks=n_ranks)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def storage_bytes(self) -> dict[str, int]:
        return {"data": self.fs.size(self.path), "index": 0}

    # ------------------------------------------------------------------
    def region_query(self, value_range: tuple[float, float]) -> QueryResult:
        """Full scan + filter."""
        lo, hi = value_range
        stripe = self.fs.cost_model.stripe_size
        total_bytes = self.n_elements * 8
        span = (total_bytes + self.n_ranks - 1) // self.n_ranks
        # Align rank spans to whole elements.
        span -= span % 8

        sessions = []
        parts: list[np.ndarray] = []
        max_rank_bytes = 0
        for rank in range(self.n_ranks):
            session = self.fs.session()
            sessions.append(session)
            start = rank * span
            end = min(start + span, total_bytes) if rank < self.n_ranks - 1 else total_bytes
            if start >= end:
                continue
            max_rank_bytes = max(max_rank_bytes, end - start)
            handle = session.open(self.path)
            offset = start
            while offset < end:
                length = min(stripe, end - offset)
                raw = handle.read(offset, length)
                vals = np.frombuffer(raw, dtype=np.float64)
                local = np.flatnonzero((vals >= lo) & (vals <= hi))
                if local.size:
                    parts.append(local + offset // 8)
                offset += length

        positions = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        times = ComponentTimes(
            io=aggregate_parallel_time(self.fs.cost_model, sessions),
            # Each rank filters every byte of its span.
            reconstruction=self.fs.cost_model.cpu_seconds(
                max_rank_bytes, FILTER_GATHER_THROUGHPUT
            ),
        )
        stats = {
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "seeks": int(sum(s.stats.seeks for s in sessions)),
            "n_results": int(positions.size),
        }
        return QueryResult(
            positions=np.sort(positions), values=None, times=times, stats=stats
        )

    # ------------------------------------------------------------------
    def value_query(self, region) -> QueryResult:
        """Offset-computed reads of the runs inside the region."""
        starts, run_length = region_runs(self._shape, region)
        # Distribute runs over ranks in contiguous spans.
        spans = np.array_split(np.arange(starts.size), self.n_ranks)

        sessions = []
        pos_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for rank_runs_idx in spans:
            session = self.fs.session()
            if rank_runs_idx.size:
                handle = session.open(self.path)
                for i in rank_runs_idx:
                    start = int(starts[i])
                    raw = handle.read(start * 8, run_length * 8)
                    pos_parts.append(
                        np.arange(start, start + run_length, dtype=np.int64)
                    )
                    val_parts.append(np.frombuffer(raw, dtype=np.float64))
            sessions.append(session)

        positions = (
            np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        )
        times = ComponentTimes(
            io=aggregate_parallel_time(self.fs.cost_model, sessions),
            # Each rank copies its runs' values and generates as many
            # positions: 16 B per element of its largest span.
            reconstruction=self.fs.cost_model.cpu_seconds(
                max(idx.size for idx in spans) * run_length * 16,
                FILTER_GATHER_THROUGHPUT,
            ),
        )
        stats = {
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "seeks": int(sum(s.stats.seeks for s in sessions)),
            "n_results": int(positions.size),
        }
        return self._sorted_result(positions, values, times, stats)
