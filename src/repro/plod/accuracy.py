"""Error metrics for PLoD-degraded data (Table VI support).

The paper reports, per PLoD level, the maximum per-point relative error
("0.008% for the S3D dataset at level 2") and downstream analysis
errors (histogram bin migration, K-means misclassification).  The
point-wise metric lives here — a level's error is
``relative_errors(v, plod_degrade(v, level))`` — and the analysis-level
metrics live in :mod:`repro.analysis`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["relative_errors"]


def relative_errors(original: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Per-point ``|approx - original| / |original|`` with a zero guard.

    Points where the original is exactly zero use absolute error
    instead (relative error is undefined there); the synthetic science
    fields in this reproduction are bounded away from zero.
    """
    original = np.asarray(original, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if original.shape != approx.shape:
        raise ValueError(
            f"shape mismatch: original {original.shape} vs approx {approx.shape}"
        )
    err = np.abs(approx - original)
    denom = np.abs(original)
    # Divide where the original is nonzero; elsewhere ``err`` stays.
    return np.divide(err, denom, out=err, where=denom > 0)
