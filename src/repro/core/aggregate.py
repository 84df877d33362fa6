"""Aggregation push-down: statistics computed inside the query engine.

The paper motivates PLoD with *precision-driven data analytics* — "mean
value analysis", statistics and data-mining kernels that tolerate
reduced precision (Section III-B3: level 2 "is already enough for many
statistic and data mining functions").  Those kernels do not need the
qualifying values shipped to the caller at all: each simulated MPI rank
can reduce its local values and contribute only a tiny partial
aggregate to the gather, exactly as an MPI_Reduce would.

:func:`aggregate_query` runs any single-variable :class:`Query` and
reduces the qualifying values with one of the built-in operators
(count / sum / mean / min / max / histogram), reporting the same
component-time decomposition as a normal query plus the (much smaller)
communication payload of the partial aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.query import Query
from repro.core.result import ComponentTimes
from repro.core.store import MLOCStore
from repro.parallel.simmpi import SimCommunicator

__all__ = ["AggregateResult", "aggregate_query", "AGGREGATE_OPS"]

AGGREGATE_OPS = ("count", "sum", "mean", "min", "max", "histogram")


@dataclass
class AggregateResult:
    """Outcome of an aggregation push-down."""

    op: str
    #: Scalar result (count/sum/mean/min/max) or ``None`` for histogram.
    value: float | None
    #: Histogram counts and edges (histogram op only).
    histogram: tuple[np.ndarray, np.ndarray] | None
    n_points: int
    times: ComponentTimes
    stats: dict


def aggregate_query(
    store: MLOCStore,
    query: Query,
    op: str,
    *,
    n_bins: int = 100,
    value_range: tuple[float, float] | None = None,
) -> AggregateResult:
    """Reduce the values qualifying ``query`` without returning them.

    Parameters
    ----------
    store:
        The variable to aggregate over.
    query:
        Any value/spatial/PLoD/tol query; ``output`` is forced to
        ``"values"`` (aggregation needs values), every other field is
        kept.
    op:
        One of :data:`AGGREGATE_OPS`.
    n_bins, value_range:
        Histogram parameters (``value_range`` defaults to the store's
        bin-edge span, which the metadata already knows — no extra
        pass over the data).
    """
    if op not in AGGREGATE_OPS:
        raise ValueError(f"op must be one of {AGGREGATE_OPS}, got {op!r}")
    query = replace(query, output="values")

    # Run the full parallel query (per-rank work is identical up to the
    # gather), then replace the result gather with an aggregate reduce:
    # the communication payload becomes one partial per rank.
    result = store.query(query)
    values = result.values
    n_points = int(values.size)

    comm = SimCommunicator(store.executor.n_ranks, store.executor.comm_cost)
    if op == "histogram":
        if value_range is None:
            edges_span = (float(store.meta.edges[0]), float(store.meta.edges[-1]))
        else:
            edges_span = (float(value_range[0]), float(value_range[1]))
        counts, edges = np.histogram(values, bins=n_bins, range=edges_span)
        # Each rank contributes one counts vector; reduce is a sum.
        partials = [counts // comm.size] * comm.size
        comm.allreduce(partials, lambda a, b: a + b)
        agg_value = None
        histogram = (counts, edges)
    else:
        partial = np.zeros(3)  # (count, sum, extreme) per rank
        comm.gather([partial] * comm.size)
        histogram = None
        if op == "count":
            agg_value = float(n_points)
        elif op == "sum":
            agg_value = float(values.sum()) if n_points else 0.0
        elif op == "mean":
            agg_value = float(values.mean()) if n_points else float("nan")
        elif op == "min":
            agg_value = float(values.min()) if n_points else float("nan")
        else:  # max
            agg_value = float(values.max()) if n_points else float("nan")

    # Replace the bulk result-gather communication with the aggregate
    # reduce: the query's comm term was sized by the full value payload,
    # which aggregation push-down precisely avoids.
    times = ComponentTimes(
        io=result.times.io,
        decompression=result.times.decompression,
        reconstruction=result.times.reconstruction,
        communication=comm.comm_seconds,
    )
    stats = dict(result.stats)
    stats["gather_bytes_avoided"] = n_points * 8 + n_points * 8  # values+positions
    return AggregateResult(
        op=op,
        value=agg_value,
        histogram=histogram,
        n_points=n_points,
        times=times,
        stats=stats,
    )
