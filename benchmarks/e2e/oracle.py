"""Brute-force NumPy answers on the raw arrays (no program code).

Each ``check_*`` returns ``None`` when the program's answer is right,
or a one-line description of the first mismatch.
"""

from __future__ import annotations

import numpy as np

from benchmarks.e2e.inputs import CompoundOp, QueryOp


def plod_degrade(values: np.ndarray, level: int) -> np.ndarray:
    """What a PLoD level-``level`` read returns: the leading ``level + 1``
    big-endian bytes, then 0x7F, then 0xFF fill (the midpoint rule)."""
    be = values.astype(">f8").view(np.uint8).reshape(-1, 8).copy()
    known = level + 1
    if known < 8:
        be[:, known] = 0x7F
        be[:, known + 1:] = 0xFF
    return be.reshape(-1).view(">f8").astype(np.float64)


def _bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a, dtype=np.float64).view(np.int64),
        np.ascontiguousarray(b, dtype=np.float64).view(np.int64),
    )


def _range_mask(raw: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (raw >= lo) & (raw <= hi)


def _positions(mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(mask.reshape(-1))


def check_query(op: QueryOp, raw: np.ndarray, outcome) -> str | None:
    mask = np.ones(raw.shape, dtype=bool)
    if op.region is not None:
        box = np.zeros(raw.shape, dtype=bool)
        box[tuple(slice(lo, hi) for lo, hi in op.region)] = True
        mask &= box
    if op.value_range is not None:
        mask &= _range_mask(raw, *op.value_range)
    want = _positions(mask)
    if not np.array_equal(outcome.positions, want):
        return f"{op.label}: positions differ ({outcome.positions.size} vs {want.size})"
    if op.output != "values":
        return None if outcome.values is None else f"{op.label}: unexpected values"
    truth = raw.reshape(-1)[want]
    got = outcome.values
    if got is None or got.shape != truth.shape:
        return f"{op.label}: values missing or wrong shape"
    if op.tol is not None:
        if not outcome.stats.get("tol_met"):
            return f"{op.label}: tol_met is not true"
        if np.any(np.abs(got - truth) > op.tol * np.abs(truth)):
            return f"{op.label}: values outside tol={op.tol}"
    elif op.plod_level < 7:
        if not _bit_identical(got, plod_degrade(truth, op.plod_level)):
            return f"{op.label}: values differ from the level-{op.plod_level} rounding"
    elif not _bit_identical(got, truth):
        return f"{op.label}: values not bit-identical"
    return None


def check_compound(op: CompoundOp, arrays: dict, outcome) -> str | None:
    mask = None
    for variable, lo, hi in op.constraints:
        m = _range_mask(arrays[variable], lo, hi)
        mask = m if mask is None else mask & m
    want = _positions(mask)
    if not np.array_equal(outcome.positions, want):
        return f"{op.label}: positions differ ({outcome.positions.size} vs {want.size})"
    if not _bit_identical(outcome.values, arrays[op.fetch].reshape(-1)[want]):
        return f"{op.label}: fetched values not bit-identical"
    return None


def check_member(label: str, got: np.ndarray, appended: np.ndarray) -> str | None:
    return None if _bit_identical(got, appended) else f"{label}: read-back differs"
