"""Compound multivariate constraints (Section II's general case).

The paper's multi-variable pattern "may involve two or more variables":
*what are the temperature values within New York, where the humidity is
above 90% — and the pressure below a front threshold?*  The general
form is a conjunction of per-variable value constraints (each possibly
a union of ranges) plus one spatial constraint, selecting positions at
which any number of output variables are retrieved.

Evaluation strategy, following Section III-D4's bitmap machinery:

1. for each constrained variable, run a region-only access per value
   range and OR the resulting position bitmaps (union of ranges);
2. AND the per-variable bitmaps (conjunction) — each AND is a modeled
   allreduce of WAH payloads across the ranks;
3. fetch each output variable at the surviving positions via
   :meth:`MLOCStore.fetch_positions`, a constrained variable only from
   the bins its ranges overlap (every survivor passed its selection).

Each store runs all its steps through one shared block fetcher, released
after its last step: the first requester of a block pays, as in
``query_many``, and a fetch re-decodes nothing its selection decoded.

Variables are evaluated most-selective-first when selectivity hints
are available from the bin metadata, so later region-only steps can be
skipped entirely once the running intersection is empty.

Section III-D4's two-variable form — "what are the temperature values
within New York where the humidity is above 90%?" — is the
one-constraint case: :func:`multi_variable_query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import Query
from repro.core.result import ComponentTimes, QueryResult, aggregate_stats
from repro.core.store import MLOCStore
from repro.index.bitmap import Bitmap
from repro.index.hbi import encode_hierarchical_bitmap
from repro.parallel.simmpi import SimCommunicator

__all__ = [
    "VariableConstraint",
    "CompoundResult",
    "compound_query",
    "multi_variable_query",
]


@dataclass(frozen=True)
class VariableConstraint:
    """A (possibly multi-range) value constraint on one variable."""

    variable: str
    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError(f"{self.variable}: at least one value range required")
        for lo, hi in self.ranges:
            if hi < lo:
                raise ValueError(f"{self.variable}: empty range [{lo}, {hi}]")

    @classmethod
    def between(cls, variable: str, lo: float, hi: float) -> "VariableConstraint":
        return cls(variable, ((lo, hi),))

    @classmethod
    def above(cls, variable: str, lo: float) -> "VariableConstraint":
        return cls(variable, ((lo, np.inf),))

    @classmethod
    def below(cls, variable: str, hi: float) -> "VariableConstraint":
        return cls(variable, ((-np.inf, hi),))


@dataclass
class CompoundResult:
    """Outcome of a compound multivariate access."""

    positions: np.ndarray
    values: dict[str, np.ndarray]
    times: ComponentTimes
    #: Per constrained variable: the region-only selection result(s).
    #: With hierarchical-index pushdown these reflect the *pruned*
    #: work (later variables only scan chunks the running intersection
    #: still touches); the final ``positions``/``values`` are
    #: bit-identical either way.
    selections: dict[str, list[QueryResult]] = field(default_factory=dict)
    #: Aggregated execution counters over every selection and fetch
    #: step (the canonical ``repro.core.result.COUNTERS`` table).
    stats: dict = field(default_factory=dict)
    #: Bytes of the exchanged selection payloads, summed over the
    #: constrained variables (what the allreduces were charged).
    exchange_bytes: int = 0
    #: Their whole-domain WAH sizes, always recorded for comparison.
    flat_exchange_bytes: int = 0

    @property
    def n_results(self) -> int:
        return int(self.positions.size)


def _estimated_selectivity(store: MLOCStore, ranges) -> float:
    """Fraction of elements the constraint can select, from bin counts.

    Uses only in-memory summaries: the per-bin totals hoisted into the
    store's :class:`~repro.core.planner.PlanContext`, or — when the
    hierarchical index is enabled — its interior-node cardinalities
    (same exact values, resolved from O(log n_bins) tree nodes instead
    of a per-bin sum).  An upper bound on the true selectivity, good
    enough to order the evaluation most-selective-first.
    """
    totals = store.context.bin_totals
    total = float(totals.sum())
    if not total:
        return 1.0
    # Merge each range's (contiguous) overlapping-bin span so a union
    # of overlapping ranges never double-counts a bin.
    spans = []
    for lo, hi in ranges:
        bin_ids, _ = store.scheme.bins_overlapping(float(lo), float(hi))
        if bin_ids.size:
            spans.append((int(bin_ids[0]), int(bin_ids[-1]) + 1))
    if not spans:
        return 0.0
    spans.sort()
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    if store.use_hbi:
        selected = sum(store.hbi.cardinality(lo, hi) for lo, hi in merged)
    else:
        selected = sum(int(totals[lo:hi].sum()) for lo, hi in merged)
    return float(selected / total)


def _exchange(store: MLOCStore, bitmap: Bitmap) -> tuple[float, int, int]:
    """Synchronize a selection bitmap across ranks (allreduce-OR).

    Returns the modeled seconds, the payload bytes and the whole-domain
    WAH bytes.  The payload is the whole-domain WAH form — or, iff the
    selecting store has ``use_hbi``, the hierarchical encoding (a
    directory of non-empty chunk-runs plus one run-local WAH leaf
    each): empty runs cost nothing and receivers can prune per run
    before touching leaf bits.  The exchanged *set* is identical either
    way (the codec is lossless), so retrievals are unaffected.
    """
    flat = bitmap.wah_bytes()
    payload = flat
    if store.use_hbi:
        payload = encode_hierarchical_bitmap(
            bitmap.to_positions(), store.grid, store.curve, store.hbi.leaf_span
        )
    comm = SimCommunicator(store.executor.n_ranks, store.executor.comm_cost)
    comm.allreduce([payload] * comm.size, lambda a, b: a)
    return comm.comm_seconds, len(payload), len(flat)


def compound_query(
    stores: dict[str, MLOCStore],
    constraints: list[VariableConstraint],
    *,
    fetch: list[str] | None = None,
    region: tuple[tuple[int, int], ...] | None = None,
    plod_level: int = 7,
) -> CompoundResult:
    """Evaluate a conjunction of per-variable constraints.

    Parameters
    ----------
    stores:
        Variable name -> open store; all must share one grid.
    constraints:
        The per-variable value constraints (conjunction across
        variables; union across each variable's ranges).
    fetch:
        Variables to retrieve at qualifying positions (defaults to the
        constrained variables themselves).
    region:
        Optional spatial constraint applied to every step.
    plod_level:
        PLoD level for the retrieval step on PLoD-enabled stores.
    """
    if not constraints:
        raise ValueError("at least one variable constraint is required")
    seen = set()
    for c in constraints:
        if c.variable in seen:
            raise ValueError(f"duplicate constraint on variable {c.variable!r}")
        seen.add(c.variable)
        if c.variable not in stores:
            raise ValueError(f"no store for constrained variable {c.variable!r}")
    fetch = list(fetch) if fetch is not None else [c.variable for c in constraints]
    for name in fetch:
        if name not in stores:
            raise ValueError(f"no store for fetch variable {name!r}")

    shapes = {stores[name].shape for name in {c.variable for c in constraints} | set(fetch)}
    if len(shapes) != 1:
        raise ValueError(f"grid mismatch: stores have shapes {sorted(shapes)}")

    first_store = stores[constraints[0].variable]
    n_elements = first_store.n_elements
    times = ComponentTimes()
    selections: dict[str, list[QueryResult]] = {}
    exchange_bytes = flat_exchange_bytes = 0
    fetchers = {name: stores[name].new_fetcher(shared=True) for name in seen | set(fetch)}

    # Most-selective-first: cheap metadata-only estimate.
    ordered = sorted(
        constraints,
        key=lambda c: _estimated_selectivity(stores[c.variable], c.ranges),
    )

    intersection: Bitmap | None = None
    for constraint in ordered:
        store = stores[constraint.variable]
        if intersection is not None and intersection.count() == 0:
            break  # conjunction already empty: skip remaining variables
        # Hierarchical pushdown: a later variable only needs to scan
        # chunks where the running intersection still has set bits —
        # positions it would contribute elsewhere are ANDed away
        # regardless, so the conjunction is unchanged (DESIGN.md §6).
        chunk_subset = None
        if store.use_hbi and intersection is not None:
            live = intersection.to_positions()
            chunk_subset = np.unique(store.grid.chunk_of_positions(live))
        variable_bitmap = Bitmap(n_elements)
        selections[constraint.variable] = []
        for lo, hi in constraint.ranges:
            result = store.query(
                Query(value_range=(float(lo), float(hi)), region=region,
                      output="positions"),
                chunk_subset=chunk_subset,
                fetcher=fetchers[constraint.variable],
            )
            selections[constraint.variable].append(result)
            times = times + result.times
            variable_bitmap = variable_bitmap | Bitmap.from_positions(
                result.positions, n_elements
            )
        if constraint.variable not in fetch:
            fetchers[constraint.variable].release_retained()
        intersection = (
            variable_bitmap
            if intersection is None
            else intersection & variable_bitmap
        )
        seconds, sent, flat = _exchange(store, variable_bitmap)
        times = times + ComponentTimes(communication=seconds)
        exchange_bytes += sent
        flat_exchange_bytes += flat

    assert intersection is not None
    positions = intersection.to_positions()

    values: dict[str, np.ndarray] = {}
    fetches: list[QueryResult] = []
    ranges = {c.variable: c.ranges for c in constraints}
    for name in fetch:
        fetched = stores[name].fetch_positions(
            intersection, region=region, plod_level=plod_level,
            ranges=ranges.get(name), fetcher=fetchers[name],
        )
        fetchers[name].release_retained()
        fetches.append(fetched)
        values[name] = fetched.values
        times = times + fetched.times

    stats = aggregate_stats(
        [r.stats for results in selections.values() for r in results]
        + [r.stats for r in fetches]
    )
    return CompoundResult(
        positions=positions,
        values=values,
        times=times,
        selections=selections,
        stats=stats,
        exchange_bytes=exchange_bytes,
        flat_exchange_bytes=flat_exchange_bytes,
    )


def multi_variable_query(
    select_store: MLOCStore,
    fetch_stores: list[MLOCStore],
    value_range: tuple[float, float],
    *,
    region: tuple[tuple[int, int], ...] | None = None,
    plod_level: int = 7,
) -> CompoundResult:
    """Multi-variable access (Section III-D4) across stores sharing one
    grid: a region-only access on ``select_store`` under ``value_range``,
    then value retrieval on every store of ``fetch_stores`` at the
    qualifying positions — :func:`compound_query` with one constraint.
    """
    stores = {select_store.variable: select_store}
    for other in fetch_stores:
        if stores.setdefault(other.variable, other) is not other:
            raise ValueError(f"two different stores are named {other.variable!r}")
    return compound_query(
        stores,
        [VariableConstraint.between(select_store.variable, *value_range)],
        fetch=[other.variable for other in fetch_stores],
        region=region,
        plod_level=plod_level,
    )
