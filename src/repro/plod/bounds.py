"""Per-chunk PLoD error bounds: the ``peb`` record behind ``query(tol=...)``.

The paper's Table VI reports one max-relative-error figure per PLoD
level for a whole dataset; error-bounded retrieval needs the same
information *per chunk*, so the planner can pick the minimal level for
each chunk independently (mixed-level plans).  This module holds that
table:

* :class:`ErrorBoundsTable` — ``(7, n_chunks)`` max and mean relative
  errors of reconstructing each chunk at PLoD levels 1..7 (level 7 is
  exact, so its row is identically zero), indexed by curve position.
  Bounds are monotone non-increasing in level — adding a byte group
  never increases the reconstruction error — which is what lets
  :meth:`ErrorBoundsTable.min_level_for` resolve a tolerance to a
  per-chunk level with one vectorized comparison.
* :func:`compute_bounds_batch` — the one bounds kernel: six partial
  reassemblies (bit masks, :func:`~repro.plod.byteplanes.plod_degrade`)
  over any number of chunks at once, the per-point errors
  laid out one chunk per row so the row reductions are bit for bit the
  per-chunk ones (:func:`compute_chunk_bounds` is its one-chunk form).
* :class:`PEBBuilder` — write-time builder fed by the writer's pass one
  slab of chunks at a time, in ``cpos`` order, exactly like
  :class:`repro.index.hbi.HBIBuilder`: chunk bounds are pure functions
  of the slab, so the persisted record is a pure function of the
  written data (DESIGN.md §6).

A per-chunk **max** relative bound covers every subset of the chunk's
points, so it remains valid for value- and region-restricted queries
that touch only part of a chunk.  The **mean** bound is a chunk-level
statistic only — a selective query's observed mean error may exceed it
(see docs/tuning.md); the accuracy contract the property suite pins is
the max metric.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.plod.accuracy import relative_errors
from repro.plod.byteplanes import FULL_PLOD_LEVEL, N_GROUPS, plod_degrade
from repro.util.record import RecordReader, frame

__all__ = [
    "ErrorBoundsTable",
    "PEBBuilder",
    "TOL_METRICS",
    "compute_bounds_batch",
    "compute_chunk_bounds",
    "peb_path",
]

_MAGIC = b"MLOCPEB\x00"
FORMAT_VERSION = 1
_SHAPE = struct.Struct("<qq")  # n_levels, n_chunks

#: Accepted values of ``Query.tol_metric``.
TOL_METRICS = ("max_rel", "mean_rel")


def peb_path(root: str) -> str:
    """On-disk path of a variable's per-chunk error-bounds file."""
    return f"{root.rstrip('/')}/peb"


def compute_bounds_batch(
    values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max and mean relative reconstruction error per (level, chunk).

    ``values`` holds equal-sized chunks bin-major — (bin, chunk, local
    id) order: the writer's slab order and that of the bin subfiles —
    and ``counts`` is their ``(n_bins, n_chunks)`` element counts.
    The values are scattered one chunk per row, each row in the chunk's
    own bin-segmented order, and both reductions of the per-point errors
    run along the contiguous rows: summation order of the mean
    included, they are the reductions of each chunk computed alone.
    Each level's reassembly is :func:`~repro.plod.byteplanes.plod_degrade`,
    a mask of the bit patterns, not a rebuild from byte planes.

    Returns two ``(N_GROUPS, n_chunks)`` float64 arrays (levels 1..7;
    the level-7 rows are exactly 0.0).
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    counts = np.asarray(counts, dtype=np.int64)
    n_chunks = counts.shape[1]
    max_rel = np.zeros((N_GROUPS, n_chunks), dtype=np.float64)
    mean_rel = np.zeros((N_GROUPS, n_chunks), dtype=np.float64)
    if not values.size:
        return max_rel, mean_rel
    chunk_size = values.size // n_chunks
    if np.any(counts.sum(axis=0) * n_chunks != values.size):
        raise ValueError(
            f"{values.size} values do not fill {n_chunks} equal-sized chunks"
        )
    # Slot of every value in the chunk-per-row array: its row's start,
    # plus the chunk's elements in lower bins, plus its rank in the cell.
    cells = counts.reshape(-1)
    in_chunk = np.cumsum(counts, axis=0) - counts
    shift = (np.arange(n_chunks) * chunk_size + in_chunk).reshape(-1)
    slots = np.repeat(shift - (np.cumsum(cells) - cells), cells) + np.arange(values.size)
    rows = np.empty(values.size, dtype=np.float64)
    rows[slots] = values
    for level in range(1, FULL_PLOD_LEVEL):
        rel = relative_errors(rows, plod_degrade(rows, level)).reshape(n_chunks, chunk_size)
        rel.max(axis=1, out=max_rel[level - 1])
        rel.mean(axis=1, out=mean_rel[level - 1])
    return max_rel, mean_rel


def compute_chunk_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and mean relative reconstruction error of one chunk per level.

    Returns two ``(N_GROUPS,)`` float64 arrays (levels 1..7; the level-7
    entries are exactly 0.0).  ``values`` is the chunk's element vector
    in any fixed order — both reductions are permutation-sensitive only
    through floating-point summation, so the writer and the rebuild
    path must (and do) reduce in the same bin-segmented order.
    """
    max_rel, mean_rel = compute_bounds_batch(values, [[np.size(values)]])
    return max_rel[:, 0], mean_rel[:, 0]


class ErrorBoundsTable:
    """Per-(chunk, PLoD-level) reconstruction error bounds."""

    def __init__(self, max_rel: np.ndarray, mean_rel: np.ndarray) -> None:
        self.max_rel = np.asarray(max_rel, dtype=np.float64)
        self.mean_rel = np.asarray(mean_rel, dtype=np.float64)
        if self.max_rel.ndim != 2 or self.max_rel.shape[0] != N_GROUPS:
            raise ValueError(
                f"bounds must be ({N_GROUPS}, n_chunks), got {self.max_rel.shape}"
            )
        if self.mean_rel.shape != self.max_rel.shape:
            raise ValueError(
                f"max/mean shape mismatch: {self.max_rel.shape} vs "
                f"{self.mean_rel.shape}"
            )

    @property
    def n_chunks(self) -> int:
        return self.max_rel.shape[1]

    def _metric(self, metric: str) -> np.ndarray:
        if metric not in TOL_METRICS:
            raise ValueError(f"tol_metric must be one of {TOL_METRICS}, got {metric!r}")
        return self.max_rel if metric == "max_rel" else self.mean_rel

    def min_level_for(self, tol: float, metric: str = "max_rel") -> np.ndarray:
        """Minimal PLoD level per chunk whose bound is ``<= tol``.

        Monotonicity makes this one comparison: the first level at or
        under ``tol`` sits right after the last level above it.  The
        level-7 row is zero, so every chunk resolves to a level in
        ``[1, 7]`` for any ``tol >= 0``.
        """
        if tol < 0:
            raise ValueError(f"tol must be non-negative, got {tol}")
        bounds = self._metric(metric)
        levels = (bounds > tol).sum(axis=0) + 1
        return np.clip(levels, 1, FULL_PLOD_LEVEL).astype(np.int64)

    def bound_at(
        self,
        levels: np.ndarray,
        metric: str = "max_rel",
        cpos: np.ndarray | None = None,
    ) -> np.ndarray:
        """Recorded bound of each chunk at the given per-chunk levels.

        Without ``cpos``, ``levels`` must cover chunks ``0..n-1`` in
        curve order; with ``cpos``, ``levels[i]`` is looked up for the
        chunk at curve position ``cpos[i]`` (the shape a query plan's
        chunk subset arrives in).
        """
        bounds = self._metric(metric)
        levels = np.asarray(levels, dtype=np.int64)
        if levels.size and (levels.min() < 1 or levels.max() > FULL_PLOD_LEVEL):
            raise ValueError(
                f"levels must lie in [1, {FULL_PLOD_LEVEL}], got "
                f"[{levels.min()}, {levels.max()}]"
            )
        cols = (
            np.arange(levels.size)
            if cpos is None
            else np.asarray(cpos, dtype=np.int64)
        )
        if cols.shape != levels.shape:
            raise ValueError(
                f"cpos shape {cols.shape} must match levels shape {levels.shape}"
            )
        return bounds[levels - 1, cols]

    def validate(self) -> None:
        """Internal consistency: the invariants fsck cross-checks."""
        for name, bounds in (("max_rel", self.max_rel), ("mean_rel", self.mean_rel)):
            if not np.all(np.isfinite(bounds)) or bounds.min(initial=0.0) < 0:
                raise ValueError(f"{name} bounds must be finite and non-negative")
            if np.any(np.diff(bounds, axis=0) > 0):
                raise ValueError(f"{name} bounds must not increase with level")
            if np.any(bounds[FULL_PLOD_LEVEL - 1] != 0.0):
                raise ValueError(f"level-{FULL_PLOD_LEVEL} {name} bounds must be zero")
        # A mean over per-point errors cannot exceed their max beyond
        # summation rounding; allow that rounding headroom.
        slack = np.maximum(self.max_rel, 1.0) * 1e-12
        if np.any(self.mean_rel > self.max_rel + slack):
            raise ValueError("mean_rel bounds must not exceed max_rel bounds")

    # ------------------------------------------------------------------
    # Serialization (FORMAT.md: per-chunk error-bounds record)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The framed record (FORMAT.md: per-chunk error-bounds record)."""
        return frame(
            _MAGIC,
            FORMAT_VERSION,
            _SHAPE.pack(N_GROUPS, self.n_chunks),
            self.max_rel.astype("<f8").tobytes(),
            self.mean_rel.astype("<f8").tobytes(),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ErrorBoundsTable":
        """Parse a framed record; malformed bytes raise ``FormatError``."""
        reader = RecordReader(raw, _MAGIC, FORMAT_VERSION, "error-bounds record")
        n_levels, n_chunks = reader.unpack(_SHAPE)
        if n_levels != N_GROUPS or n_chunks < 0:
            reader.fail(
                f"impossible shape: {n_levels} levels (expected {N_GROUPS}) "
                f"x {n_chunks} chunks"
            )
        max_rel = reader.array("<f8", n_levels * n_chunks).reshape(n_levels, n_chunks)
        mean_rel = reader.array("<f8", n_levels * n_chunks).reshape(n_levels, n_chunks)
        reader.done()
        return cls(max_rel, mean_rel)


class PEBBuilder:
    """Write-time builder fed in ordered-commit ``cpos`` order."""

    def __init__(self, n_chunks: int) -> None:
        self.n_chunks = int(n_chunks)
        self.max_rel = np.zeros((N_GROUPS, self.n_chunks), dtype=np.float64)
        self.mean_rel = np.zeros((N_GROUPS, self.n_chunks), dtype=np.float64)
        self._next_cpos = 0

    def add_chunks(
        self, first_cpos: int, max_rel: np.ndarray, mean_rel: np.ndarray
    ) -> None:
        """Record the ``(N_GROUPS, k)`` bounds of ``k`` consecutive
        chunks (:func:`compute_bounds_batch`)."""
        if first_cpos != self._next_cpos:
            raise ValueError(f"chunks must arrive in order: expected {self._next_cpos}")
        self._next_cpos = first_cpos + max_rel.shape[1]
        self.max_rel[:, first_cpos : self._next_cpos] = max_rel
        self.mean_rel[:, first_cpos : self._next_cpos] = mean_rel

    def add_chunk(
        self, cpos: int, max_rel: np.ndarray, mean_rel: np.ndarray
    ) -> None:
        """Record one chunk's per-level bounds (:func:`compute_chunk_bounds`)."""
        self.add_chunks(cpos, np.reshape(max_rel, (-1, 1)), np.reshape(mean_rel, (-1, 1)))

    def finish(self) -> ErrorBoundsTable:
        if self._next_cpos != self.n_chunks:
            raise ValueError(
                f"saw {self._next_cpos} of {self.n_chunks} chunks before finish"
            )
        return ErrorBoundsTable(self.max_rel, self.mean_rel)
