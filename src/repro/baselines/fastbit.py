"""FastBit baseline: binned WAH bitmap indexing.

FastBit (Wu, 2005) answers value-constrained queries with per-bin
bitmaps compressed by the word-aligned-hybrid scheme.  Two properties
drive its behaviour in the paper's experiments (Section IV-C2):

* the binned bitmap index is *large* — with precision binning it was
  10 GB for 8 GB of raw data (Table I) — because fine binning
  fragments the bitmaps into mostly-literal words;
* FastBit assumes the index resides in memory; under the paper's
  cold-cache methodology the **entire index must be loaded from disk
  for every query**, which dominates and flattens its response time
  across selectivities and even across query types (Tables II/III).

This implementation reproduces both mechanisms: the index is a single
concatenated file of per-bin WAH bitmaps (default 1024 "precision"
bins), read in full at query start by the parallel ranks; candidate
(boundary-bin) positions are then verified against the raw data file.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineStore
from repro.binning.binner import BinScheme
from repro.binning.boundaries import equal_frequency_boundaries
from repro.baselines.seqscan import region_runs
from repro.core.chunking import normalize_region
from repro.core.result import ComponentTimes, QueryResult
from repro.index.bitmap import (
    groups_to_bitmap,
    wah_expand_groups,
    wah_from_positions,
)
from repro.pfs.costmodel import FILTER_GATHER_THROUGHPUT, WAH_EXPAND_THROUGHPUT
from repro.pfs.layout import aggregate_parallel_time
from repro.pfs.simfs import SimulatedPFS

__all__ = ["FastBitStore"]


class FastBitStore(BaselineStore):
    """Binned WAH-bitmap index over row-major raw data."""

    name = "FastBit"

    def __init__(
        self,
        fs: SimulatedPFS,
        root: str,
        shape: tuple[int, ...],
        scheme: BinScheme,
        bitmap_offsets: np.ndarray,
        n_ranks: int = 8,
    ) -> None:
        self.fs = fs
        self.root = root.rstrip("/")
        self._shape = tuple(int(s) for s in shape)
        self.scheme = scheme
        #: Byte offsets of each bin's WAH payload in the index file
        #: (length n_bins + 1).
        self.bitmap_offsets = bitmap_offsets
        self.n_ranks = int(n_ranks)
        self.n_elements = int(np.prod(self._shape))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        fs: SimulatedPFS,
        root: str,
        data: np.ndarray,
        n_bins: int = 1024,
        n_ranks: int = 8,
        seed: int = 0,
    ) -> "FastBitStore":
        """Index ``data`` with ``n_bins`` precision bins.

        The default bin count models FastBit's precision binning on
        double-precision data (the paper's best-response-time variant),
        which produces the large index footprint of Table I.
        """
        data = np.ascontiguousarray(data, dtype=np.float64)
        root = root.rstrip("/")
        flat = data.reshape(-1)
        rng = np.random.default_rng(seed)
        n_sample = min(flat.size, max(n_bins * 16, int(flat.size * 0.01)))
        sample = flat[rng.integers(0, flat.size, size=n_sample)]
        scheme = BinScheme(equal_frequency_boundaries(sample, n_bins))
        bin_ids = scheme.assign(flat)

        payloads: list[bytes] = []
        order = np.argsort(bin_ids, kind="stable")
        counts = np.bincount(bin_ids, minlength=n_bins)
        offsets = np.zeros(n_bins + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for b in range(n_bins):
            members = order[offsets[b] : offsets[b + 1]]
            payloads.append(wah_from_positions(members, flat.size).tobytes())

        byte_offsets = np.zeros(n_bins + 1, dtype=np.int64)
        np.cumsum([len(p) for p in payloads], out=byte_offsets[1:])
        fs.write_file(f"{root}/index", b"".join(payloads))
        fs.write_file(f"{root}/data", data.tobytes())
        return cls(fs, root, data.shape, scheme, byte_offsets, n_ranks=n_ranks)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def data_path(self) -> str:
        return f"{self.root}/data"

    @property
    def index_path(self) -> str:
        return f"{self.root}/index"

    def storage_bytes(self) -> dict[str, int]:
        return {
            "data": self.fs.size(self.data_path),
            "index": self.fs.size(self.index_path),
        }

    # ------------------------------------------------------------------
    def _load_full_index(self) -> tuple[bytes, list]:
        """Cold read of the complete index file, split across ranks."""
        total = self.fs.size(self.index_path)
        span = (total + self.n_ranks - 1) // self.n_ranks
        sessions = []
        chunks: list[bytes] = []
        for rank in range(self.n_ranks):
            session = self.fs.session()
            start = rank * span
            end = min(start + span, total)
            if start < end:
                chunks.append(session.open(self.index_path).read(start, end - start))
            sessions.append(session)
        return b"".join(chunks), sessions

    def region_query(self, value_range: tuple[float, float]) -> QueryResult:
        lo, hi = value_range
        index_bytes, sessions = self._load_full_index()

        bin_ids, aligned = self.scheme.bins_overlapping(float(lo), float(hi))
        # OR the selected bins in the compact 63-bit-group domain, as a
        # real WAH query engine does, expanding to positions only once.
        n_groups = (self.n_elements + 62) // 63
        hits = np.zeros(n_groups, dtype=np.uint64)
        candidates_acc = np.zeros(n_groups, dtype=np.uint64)
        for b, is_aligned in zip(bin_ids, aligned):
            payload = index_bytes[
                self.bitmap_offsets[b] : self.bitmap_offsets[b + 1]
            ]
            groups = wah_expand_groups(np.frombuffer(payload, dtype=np.uint64))
            if is_aligned:
                hits |= groups
            else:
                candidates_acc |= groups

        # The root materialises every hit and candidate position (8 B
        # each) and verifies each candidate's value (8 B more).
        pos_parts: list[np.ndarray] = []
        gathered_bytes = 0
        if hits.any():
            hit_positions = groups_to_bitmap(hits, self.n_elements).to_positions()
            pos_parts.append(hit_positions)
            gathered_bytes += hit_positions.nbytes

        # Candidate check: boundary bins require reading the raw values.
        if candidates_acc.any():
            candidates = groups_to_bitmap(
                candidates_acc, self.n_elements
            ).to_positions()
            gathered_bytes += 2 * candidates.nbytes
            pos_parts.append(self._verify_candidates(candidates, lo, hi, sessions[0]))

        positions = (
            np.sort(np.concatenate(pos_parts)) if pos_parts else np.empty(0, dtype=np.int64)
        )
        cost_model = self.fs.cost_model
        times = ComponentTimes(
            io=aggregate_parallel_time(cost_model, sessions),
            # One dense group array (as large as ``hits``) per selected bin.
            decompression=cost_model.cpu_seconds(
                len(bin_ids) * hits.nbytes, WAH_EXPAND_THROUGHPUT
            ),
            reconstruction=cost_model.cpu_seconds(
                gathered_bytes, FILTER_GATHER_THROUGHPUT
            ),
        )
        stats = {
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "index_bytes": len(index_bytes),
            "n_results": int(positions.size),
        }
        return QueryResult(positions=positions, values=None, times=times, stats=stats)

    def _verify_candidates(
        self,
        candidates: np.ndarray,
        lo: float,
        hi: float,
        session,
    ) -> np.ndarray:
        """Read candidate positions (merged into runs) and filter."""
        if candidates.size == 0:
            return candidates
        handle = session.open(self.data_path)
        # Merge candidates into page-granular read runs: FastBit reads
        # the candidate *pages*, trading extra sequential bytes for
        # seeks.  The tolerance is one stripe worth of elements.
        page_elements = max(self.fs.cost_model.stripe_size // 8, 1)
        gaps = np.flatnonzero(np.diff(candidates) > page_elements)
        run_starts = np.concatenate(([0], gaps + 1))
        run_ends = np.concatenate((gaps + 1, [candidates.size]))
        keep: list[np.ndarray] = []
        for s, e in zip(run_starts, run_ends):
            first, last = int(candidates[s]), int(candidates[e - 1])
            raw = handle.read(first * 8, (last - first + 1) * 8)
            vals = np.frombuffer(raw, dtype=np.float64)
            local = candidates[s:e] - first
            v = vals[local]
            ok = (v >= lo) & (v <= hi)
            keep.append(candidates[s:e][ok])
        return np.concatenate(keep) if keep else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def value_query(self, region) -> QueryResult:
        """Value retrieval under SC: the index is still loaded in full
        (the paper observes FastBit's value-query time tracks its
        region-query time for exactly this reason), then the region's
        runs are read from the raw data."""
        region = normalize_region(region, self._shape)
        index_bytes, sessions = self._load_full_index()

        starts, run_length = region_runs(self._shape, region)
        handle = sessions[0].open(self.data_path)
        pos_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for start in starts:
            raw = handle.read(int(start) * 8, run_length * 8)
            val_parts.append(np.frombuffer(raw, dtype=np.float64))
            pos_parts.append(np.arange(start, start + run_length, dtype=np.int64))
        positions = (
            np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        )
        times = ComponentTimes(
            io=aggregate_parallel_time(self.fs.cost_model, sessions),
            # The root copies every value and generates its position.
            reconstruction=self.fs.cost_model.cpu_seconds(
                positions.nbytes + values.nbytes, FILTER_GATHER_THROUGHPUT
            ),
        )
        stats = {
            "bytes_read": int(sum(s.stats.bytes_read for s in sessions)),
            "index_bytes": len(index_bytes),
            "n_results": int(positions.size),
        }
        return self._sorted_result(positions, values, times, stats)
