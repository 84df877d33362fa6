"""Query model: the access patterns of Section II.

One :class:`Query` object expresses every single-variable pattern the
paper enumerates:

* value-constrained region-only access — ``value_range`` set,
  ``output="positions"`` (what *regions* have abnormal temperature?);
* spatially-constrained value retrieval — ``region`` set,
  ``output="values"`` (what are the values inside New York?);
* value-and-spatial-constrained access — both set;
* multiresolution access — ``plod_level < 7`` (precision-based) or
  ``resolution_level`` (subset-based, hierarchical-curve stores);

Multi-variable access composes two stores through
:func:`repro.core.compound.multi_variable_query`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plod.bounds import TOL_METRICS
from repro.plod.byteplanes import FULL_PLOD_LEVEL

__all__ = ["Query", "OUTPUTS"]

OUTPUTS = ("positions", "values")


@dataclass(frozen=True)
class Query:
    """A single-variable data access request.

    Attributes
    ----------
    value_range:
        Optional closed value constraint ``(lo, hi)`` (VC).
    region:
        Optional spatial constraint: per-axis ``(lo, hi)`` half-open
        bounds (SC).  ``None`` = whole domain.
    output:
        ``"positions"`` for region-only access (the index-only fast
        path applies on aligned bins); ``"values"`` for value
        retrieval (positions *and* values are returned).
    plod_level:
        Precision-based level of detail: 1 (two bytes/point) through 7
        (full precision).  Only meaningful on PLoD-enabled stores;
        full-precision elsewhere.
    resolution_level:
        Subset-based resolution level for hierarchical-curve stores:
        only chunks of levels ``<= resolution_level`` are accessed.
    tol:
        Error-bounded retrieval: the maximum acceptable relative
        reconstruction error.  When set (on a PLoD store), the planner
        picks the minimal PLoD level *per chunk* from the stored
        ``peb`` bounds — ``plod_level`` acts as a ceiling — and the
        result's stats report the achieved bound.  ``tol=0`` demands
        (and gets) full precision, bit-identical to a tol-less query.
    tol_metric:
        Which recorded bound ``tol`` is compared against:
        ``"max_rel"`` (default, the per-point guarantee) or
        ``"mean_rel"`` (a chunk-level average; see docs/tuning.md).
    """

    value_range: tuple[float, float] | None = None
    region: tuple[tuple[int, int], ...] | None = None
    output: str = "values"
    plod_level: int = FULL_PLOD_LEVEL
    resolution_level: int | None = None
    tol: float | None = None
    tol_metric: str = "max_rel"

    def __post_init__(self) -> None:
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {OUTPUTS}, got {self.output!r}")
        if self.value_range is not None:
            lo, hi = self.value_range
            if hi < lo:
                raise ValueError(f"empty value_range [{lo}, {hi}]")
        if not (1 <= self.plod_level <= FULL_PLOD_LEVEL):
            raise ValueError(
                f"plod_level must be in [1, {FULL_PLOD_LEVEL}], got {self.plod_level}"
            )
        if self.resolution_level is not None and self.resolution_level < 0:
            raise ValueError(
                f"resolution_level must be non-negative, got {self.resolution_level}"
            )
        if self.tol is not None and not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")
        if self.tol_metric not in TOL_METRICS:
            raise ValueError(
                f"tol_metric must be one of {TOL_METRICS}, got {self.tol_metric!r}"
            )

    @property
    def wants_values(self) -> bool:
        return self.output == "values"
