"""Level-order advisor: pick the layout for an expected workload.

Section III-A2: "there exists a priority order of different queries
based on the frequency they are executed ... MLOC allows each level to
be placed in a hierarchical order and switched based on the priorities
of optimizations."  Climate-style workloads (spatially-dominated) want
S early; fusion-style workloads (value-threshold-dominated) want V
emphasis; heavy reduced-precision analytics want M contiguity (V-M-S);
full-precision retrieval prefers V-S-M (Table VII).

The advisor makes that choice *empirically*: it encodes a small sample
of the data under every candidate order, replays a representative
workload against each trial store under the cost model, and ranks the
orders by profile-weighted mean response time.  Because the trial
stores run the identical machinery as production stores, the ranking
inherits whatever block-size/bin-count regime the caller configures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import MLOCConfig
from repro.core.query import Query
from repro.core.store import MLOCStore
from repro.core.writer import MLOCWriter
from repro.harness.systems import cold_batch
from repro.harness.workloads import WorkloadGenerator
from repro.pfs.costmodel import PFSCostModel
from repro.pfs.simfs import SimulatedPFS

__all__ = ["QueryClass", "WorkloadProfile", "AdvisorReport", "recommend_level_order"]


@dataclass(frozen=True)
class QueryClass:
    """One class of accesses in the expected workload.

    Attributes
    ----------
    pattern:
        ``"region"`` (value-constrained, region-only), ``"value"``
        (spatially-constrained retrieval), or ``"combined"``.
    selectivity:
        Value or region selectivity of the class (fraction).
    plod_level:
        Precision the class needs (7 = full).
    """

    pattern: str
    selectivity: float = 0.01
    plod_level: int = 7

    def __post_init__(self) -> None:
        if self.pattern not in ("region", "value", "combined"):
            raise ValueError(
                f"pattern must be region|value|combined, got {self.pattern!r}"
            )
        if not (0 < self.selectivity <= 1):
            raise ValueError(f"selectivity must be in (0, 1], got {self.selectivity}")


@dataclass(frozen=True)
class WorkloadProfile:
    """Query classes with their relative execution frequencies."""

    classes: tuple[tuple[QueryClass, float], ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("profile needs at least one query class")
        if any(w <= 0 for _, w in self.classes):
            raise ValueError("class weights must be positive")


@dataclass
class AdvisorReport:
    """Ranked candidate orders with their profile-weighted costs."""

    recommended: str
    #: order -> profile-weighted mean response seconds.
    scores: dict[str, float]
    #: order -> per-class mean response seconds, same class order as
    #: the profile.
    per_class: dict[str, list[float]] = field(default_factory=dict)


def recommend_level_order(
    data: np.ndarray,
    profile: WorkloadProfile,
    base_config: MLOCConfig,
    *,
    candidates: tuple[str, ...] = ("VMS", "VSM"),
    cost_model: PFSCostModel | None = None,
    n_queries: int = 5,
    n_ranks: int = 8,
    seed: int = 0,
) -> AdvisorReport:
    """Rank candidate level orders for ``data`` under ``profile``.

    ``data`` should be a representative sample (a timestep, or a
    spatial subarray at production chunking); the trial stores are
    built in a scratch simulated PFS with the caller's cost model.
    """
    if not candidates:
        raise ValueError("at least one candidate order required")
    fs = SimulatedPFS(cost_model if cost_model is not None else PFSCostModel())
    workload = WorkloadGenerator.for_data(data, seed=seed)

    stores: dict[str, MLOCStore] = {}
    for order in candidates:
        config = replace(base_config, level_order=order)
        MLOCWriter(fs, f"/advisor/{order}", config).write(data, variable="trial")
        stores[order] = MLOCStore.open(fs, f"/advisor/{order}", "trial", n_ranks=n_ranks)

    scores: dict[str, float] = {}
    per_class: dict[str, list[float]] = {}
    for order, store in stores.items():
        class_means: list[float] = []
        weighted = 0.0
        total_weight = 0.0
        for qclass, weight in profile.classes:
            queries = _make_queries(workload, qclass, n_queries)
            batch = cold_batch(store, queries)
            mean = sum(result.times.total for result in batch) / len(queries)
            class_means.append(mean)
            weighted += weight * mean
            total_weight += weight
        scores[order] = weighted / total_weight
        per_class[order] = class_means

    recommended = min(scores, key=scores.get)
    return AdvisorReport(recommended=recommended, scores=scores, per_class=per_class)


def _make_queries(
    workload: WorkloadGenerator, qclass: QueryClass, n: int
) -> list[Query]:
    if qclass.pattern == "region":
        return [
            Query(value_range=vc, output="positions")
            for vc in workload.value_constraints(qclass.selectivity, n)
        ]
    if qclass.pattern == "value":
        return [
            Query(region=rc, output="values", plod_level=qclass.plod_level)
            for rc in workload.region_constraints(qclass.selectivity, n)
        ]
    # combined: both constraints drawn at the class selectivity.
    vcs = workload.value_constraints(qclass.selectivity, n)
    rcs = workload.region_constraints(max(qclass.selectivity * 10, 0.05), n)
    return [
        Query(value_range=vc, region=rc, output="values", plod_level=qclass.plod_level)
        for vc, rc in zip(vcs, rcs)
    ]
