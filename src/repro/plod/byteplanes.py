"""Precision-based Level of Detail: byte-plane decomposition of float64.

Section III-B3 and Figure 3 of the paper: every double-precision value
is split into seven parts — the first part holds the two most
significant bytes (sign, full exponent, and the top four mantissa
bits; one byte alone could not carry the full exponent), and each of
the remaining six parts holds one further mantissa byte.  Bytes at the
same position across all points are stored contiguously, so an access
at *PLoD level k* fetches only the first ``k + 1`` bytes of every
point (level 7 = all 8 bytes = full precision).

On reassembly the missing bytes are **not** zero-filled — that would
bias every value low.  Following Section III-D3, the first missing
byte is filled with ``0x7F`` and the rest with ``0xFF``, which places
the reconstructed value almost exactly at the midpoint of the interval
of doubles sharing the known prefix, halving the worst-case error and
centering the average error near zero.

All operations are vectorized; the byte view uses the big-endian
representation so plane 0 is the most significant byte.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "N_GROUPS",
    "FULL_PLOD_LEVEL",
    "GROUP_WIDTHS",
    "GROUP_OFFSETS",
    "split_byte_groups",
    "nested_group_index",
    "assemble_from_groups",
    "assemble_from_groups_degraded",
    "plod_degrade",
]

#: Number of byte groups a double is divided into (Fig. 3).
N_GROUPS = 7
#: PLoD level meaning "all bytes present" (full precision).
FULL_PLOD_LEVEL = 7
#: Width in bytes of each group: group 0 is two bytes, the rest one.
GROUP_WIDTHS = (2, 1, 1, 1, 1, 1, 1)
#: Starting byte (big-endian position) of each group.
GROUP_OFFSETS = (0, 2, 3, 4, 5, 6, 7)

_FILL_FIRST = 0x7F
_FILL_REST = 0xFF


def _check_level(level: int) -> None:
    if not (1 <= level <= FULL_PLOD_LEVEL):
        raise ValueError(f"PLoD level must be in [1, {FULL_PLOD_LEVEL}], got {level}")


def split_byte_groups(values: np.ndarray) -> list[np.ndarray]:
    """Split float64 values into their seven big-endian byte groups.

    Returns a list of ``N_GROUPS`` contiguous ``uint8`` arrays; group 0
    has ``2 * n`` bytes (the two leading bytes of every value,
    interleaved per point), groups 1..6 have ``n`` bytes each.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    be = np.ascontiguousarray(values, dtype=">f8").view(np.uint8).reshape(-1, 8)
    groups: list[np.ndarray] = []
    for g in range(N_GROUPS):
        start = GROUP_OFFSETS[g]
        width = GROUP_WIDTHS[g]
        groups.append(np.ascontiguousarray(be[:, start : start + width]).reshape(-1))
    return groups


def nested_group_index(cell_counts: np.ndarray) -> list[np.ndarray]:
    """Byte positions of every group's plane inside cell-nested storage.

    The V-S-M order stores a run of cells — cell ``i`` holding
    ``cell_counts[i]`` points — cell by cell: a cell's group-0 bytes,
    then its group-1 bytes, ... (FORMAT.md cell order), where
    :func:`split_byte_groups` yields whole-run planes.  Returns one
    index array per group with ``nested[index[g]] == planes[g]``: the
    writer scatters through it, the bounds rebuild gathers back.
    """
    counts = np.asarray(cell_counts, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    sizes = np.repeat(counts, counts)
    point = np.arange(starts.size, dtype=np.int64)
    # A point is the (point - start)-th of a cell whose bytes begin at
    # 8 * start, its group g GROUP_OFFSETS[g] * size further on.
    index = []
    for offset, width in zip(GROUP_OFFSETS, GROUP_WIDTHS):
        first = 8 * starts + offset * sizes + width * (point - starts)
        index.append((first[:, None] + np.arange(width)).reshape(-1))
    return index


def assemble_from_groups(
    groups: list[np.ndarray], n_points: int, level: int
) -> np.ndarray:
    """Reassemble float64 values from the first ``level`` byte groups.

    Parameters
    ----------
    groups:
        At least ``level`` byte-group arrays as produced by
        :func:`split_byte_groups` (trailing groups may be omitted).
    n_points:
        Number of values to reconstruct.
    level:
        The PLoD level actually fetched.  At level 7 reconstruction is
        exact; below it the dummy-fill midpoint rule applies.
    """
    _check_level(level)
    if len(groups) < level:
        raise ValueError(f"need {level} byte groups for PLoD level {level}, got {len(groups)}")
    be = np.empty((n_points, 8), dtype=np.uint8)
    for g in range(level):
        start = GROUP_OFFSETS[g]
        width = GROUP_WIDTHS[g]
        plane = np.asarray(groups[g], dtype=np.uint8)
        if plane.size != n_points * width:
            raise ValueError(
                f"group {g}: expected {n_points * width} bytes, got {plane.size}"
            )
        be[:, start : start + width] = plane.reshape(n_points, width)
    known = GROUP_OFFSETS[level - 1] + GROUP_WIDTHS[level - 1] if level < FULL_PLOD_LEVEL else 8
    if known < 8:
        be[:, known] = _FILL_FIRST
        if known + 1 < 8:
            be[:, known + 1 :] = _FILL_REST
    return be.reshape(-1).view(">f8").astype(np.float64)


def assemble_from_groups_degraded(
    groups: list[np.ndarray],
    n_points: int,
    level: int,
    point_levels: np.ndarray,
) -> np.ndarray:
    """Reassemble with a *per-point* effective PLoD level.

    The fault-tolerant read path uses this when some refinement
    byte-plane blocks are quarantined: points whose refinement bytes
    were lost fall back to the dummy-fill reconstruction at the deepest
    level still intact for them, while unaffected points keep the full
    requested precision.

    Parameters
    ----------
    groups:
        ``level`` byte-group arrays; bytes belonging to a point at a
        group beyond its effective level may be garbage (they are
        overwritten by the fill rule).
    point_levels:
        ``(n_points,)`` integer array of effective levels, each in
        ``[1, level]``.
    """
    _check_level(level)
    if len(groups) < level:
        raise ValueError(f"need {level} byte groups for PLoD level {level}, got {len(groups)}")
    point_levels = np.asarray(point_levels, dtype=np.int64).reshape(-1)
    if point_levels.size != n_points:
        raise ValueError(
            f"point_levels has {point_levels.size} entries, expected {n_points}"
        )
    if n_points and (point_levels.min() < 1 or point_levels.max() > level):
        raise ValueError(
            f"point_levels must lie in [1, {level}], got "
            f"[{point_levels.min()}, {point_levels.max()}]"
        )
    be = np.empty((n_points, 8), dtype=np.uint8)
    for g in range(level):
        start = GROUP_OFFSETS[g]
        width = GROUP_WIDTHS[g]
        plane = np.asarray(groups[g], dtype=np.uint8)
        if plane.size != n_points * width:
            raise ValueError(
                f"group {g}: expected {n_points * width} bytes, got {plane.size}"
            )
        be[:, start : start + width] = plane.reshape(n_points, width)
    # Known bytes per point: level k < 7 knows k+1 leading bytes; level
    # 7 knows all 8 (same rule as assemble_from_groups, vectorized).
    known = np.where(point_levels >= FULL_PLOD_LEVEL, 8, point_levels + 1)
    cols = np.arange(8, dtype=np.int64)
    be[cols[None, :] == known[:, None]] = _FILL_FIRST
    be[cols[None, :] > known[:, None]] = _FILL_REST
    return be.reshape(-1).view(">f8").astype(np.float64)


def plod_degrade(values: np.ndarray, level: int) -> np.ndarray:
    """The values a read at PLoD ``level`` reconstructs (split, truncate,
    fill), computed on the float64 bit patterns.

    Level ``L`` keeps the ``L + 1`` leading big-endian bytes — the top
    ``8 * (L + 1)`` bits — and fills the rest with ``0x7F, 0xFF, ...``:
    ``(bits & keep) | fill``, bit for bit what
    :func:`assemble_from_groups` builds from the first ``L`` groups.
    The accuracy experiments (Table VI) and the per-chunk error bounds
    of every written slab (``repro.plod.bounds``) use it.
    """
    _check_level(level)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    free = 8 * (FULL_PLOD_LEVEL - level)  # bits below the kept bytes
    keep = np.uint64(((1 << 64) - 1) ^ ((1 << free) - 1))
    fill = np.uint64((1 << (free - 1)) - 1 if free else 0)
    return ((values.view(np.uint64) & keep) | fill).view(np.float64)
