"""The only module of the benchmark that names the program's API.

A later PR that reshapes the library edits this file and nothing else
in the benchmark.  It uses names exported from ``repro``,
``repro.core`` and ``repro.server`` only, with two exceptions that the
oracle and a clean exit need: ``repro.tools.fsck.check_dataset`` and
``repro.parallel.procpool.shutdown_pools`` (inside
:func:`stop_child_processes`).

(:mod:`benchmarks.e2e.trace` names the program's *modules* as strings
in its wrapper table; it imports none of them directly.)
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

from repro import MLOCDataset, MLOCStore, MLOCWriter, Query, SimulatedPFS, mloc_col
from repro.core import ExecutionConfig, VariableConstraint, compound_query
from repro.parallel.procpool import shutdown_pools
from repro.server import BrokerConfig, QueryBroker
from repro.tools.fsck import check_dataset

from benchmarks.e2e.inputs import AppendOp, CompoundOp, QueryOp

__all__ = [
    "Outcome",
    "append",
    "as_outcome",
    "broker_counters",
    "cache_counters",
    "dataset_issues",
    "new_broker",
    "new_dataset",
    "new_fs",
    "open_member",
    "open_store",
    "read_member",
    "run_compound",
    "run_query",
    "stop_child_processes",
    "stored_bytes",
    "to_query",
    "write_store",
]

N_BINS = 32
N_RANKS = 4
MAX_INFLIGHT = 8


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The ``processes`` backend spawns pool workers and, with them, the
    ``multiprocessing`` resource tracker.  ``shutdown_pools`` joins the
    workers; the tracker only ends when its pipe closes, which otherwise
    happens at interpreter exit with nobody left to wait for it (an
    orphan, and a zombie where PID 1 does not reap).  Safe to call twice
    and when nothing was started.
    """
    shutdown_pools()
    for child in multiprocessing.active_children():  # none after a clean shutdown
        child.kill()
        child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe and waits for the tracker


@dataclass
class Outcome:
    """What one operation returned, in the benchmark's own terms."""

    positions: np.ndarray | None
    values: np.ndarray | None
    #: Modeled paper-scale seconds (I/O + decompression + communication;
    #: the modeled drain for an append).
    sim_s: float
    #: Simulated-PFS bytes the operation moved.
    pfs_bytes: int
    #: User payload: bytes appended, or 8 B per position plus 8 B per value.
    payload_bytes: int
    stats: dict = field(default_factory=dict)


def _layout(chunk: tuple[int, ...]):
    return mloc_col(chunk_shape=chunk, n_bins=N_BINS)


def new_fs() -> SimulatedPFS:
    return SimulatedPFS()


def stored_bytes(fs: SimulatedPFS, root: str) -> int:
    """All bytes under ``root``: data, index, hbi, peb, meta, manifests."""
    return fs.total_bytes(root.rstrip("/") + "/")


# ----------------------------------------------------------------------
# Sealed stores
# ----------------------------------------------------------------------
def write_store(fs, root: str, variable: str, data: np.ndarray, chunk) -> None:
    MLOCWriter(fs, root, _layout(chunk)).write(data, variable=variable)


def open_store(fs, root: str, variable: str, *, use_hbi: bool = False, **execution):
    """Open a read handle; ``execution`` are ``ExecutionConfig`` fields."""
    options = ExecutionConfig(**execution).store_options()
    return MLOCStore.open(
        fs, root, variable, n_ranks=N_RANKS, use_hbi=use_hbi, **options
    )


def to_query(op: QueryOp) -> Query:
    return Query(
        value_range=op.value_range,
        region=op.region,
        output=op.output,
        plod_level=op.plod_level,
        tol=op.tol,
    )


def _query_outcome(positions, values, times, stats) -> Outcome:
    payload = 8 * positions.size + (8 * values.size if values is not None else 0)
    return Outcome(
        positions=positions,
        values=values,
        sim_s=times.io + times.decompression + times.communication,
        pfs_bytes=int(stats["bytes_read"]),
        payload_bytes=payload,
        stats=stats,
    )


def as_outcome(result) -> Outcome:
    """Normalize a ``QueryResult``."""
    return _query_outcome(result.positions, result.values, result.times, result.stats)


def run_query(store, query: Query) -> Outcome:
    return as_outcome(store.query(query))


def run_compound(stores: dict, op: CompoundOp) -> Outcome:
    result = compound_query(
        stores,
        [VariableConstraint.between(v, lo, hi) for v, lo, hi in op.constraints],
        fetch=[op.fetch],
    )
    return _query_outcome(
        result.positions, result.values[op.fetch], result.times, result.stats
    )


def cache_counters(store) -> dict:
    """Lifetime counters of the handle's decoded-block cache."""
    return store.cache.stats.as_dict() if store.cache is not None else {}


# ----------------------------------------------------------------------
# Appendable datasets
# ----------------------------------------------------------------------
def new_dataset(fs, root: str, chunk) -> MLOCDataset:
    return MLOCDataset(fs, root, _layout(chunk), n_ranks=N_RANKS)


def append(dataset: MLOCDataset, op: AppendOp, array: np.ndarray) -> Outcome:
    """Seal one timestep; the modeled drain is what ``IngestSession`` charges."""
    report = dataset.append(array, op.variable, op.timestep)
    model = dataset.fs.cost_model
    return Outcome(
        positions=None,
        values=None,
        sim_s=model.scaled_bytes(report.total_bytes) / model.client_bandwidth,
        pfs_bytes=0,  # the caller charges the growth of the dataset root
        payload_bytes=int(array.nbytes),
    )


def open_member(dataset: MLOCDataset, variable: str, timestep: int):
    """A read handle on a sealed member, through a freshly pinned snapshot."""
    return dataset.snapshot().store(variable, timestep)


def read_member(dataset: MLOCDataset, variable: str, timestep: int) -> np.ndarray:
    """Read a sealed member back in full."""
    store = open_member(dataset, variable, timestep)
    return store.query(Query()).values.reshape(store.shape)


def dataset_issues(fs, root: str) -> list:
    return check_dataset(fs, root)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def new_broker(store) -> QueryBroker:
    """An asyncio broker; use as ``async with``, then ``await broker.query``."""
    return QueryBroker(store, BrokerConfig(max_inflight=MAX_INFLIGHT))


def broker_counters(broker: QueryBroker) -> dict:
    stats = broker.stats()
    return {"rounds": stats["rounds"], "rejected": stats["totals"]["rejected"]}
