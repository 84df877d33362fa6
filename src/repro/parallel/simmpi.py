"""Deterministic simulated MPI for the query engine.

The paper parallelizes data access with MPI/MPI-IO (Section III-D).
mpi4py is not available in this environment, so we substitute a
*deterministic* simulated communicator:

* SPMD sections run as a plain Python loop over ranks (ranks do not
  interact inside a section, so the loop is an exact execution of the
  parallel program); CPU-bound work is counted per rank, and the
  executor reports the maximum over ranks (the parallel critical path).
* Collectives operate on *rank-indexed lists* (the value every rank
  would contribute) and charge a modeled communication cost: a
  binomial-tree latency term plus a bandwidth term on the payload,
  which is the standard first-order model for MPI collectives.

This keeps the reproduction's parallel behaviour — column-order block
assignment, per-rank I/O contention on shared OSTs, bitmap exchanges
for multi-variable queries — faithful to the paper while staying
single-process and fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["CommCostModel", "SimCommunicator", "payload_nbytes"]

T = TypeVar("T")


@dataclass(frozen=True)
class CommCostModel:
    """First-order cost model for collective communication.

    ``latency`` is the per-hop message latency (alpha); ``byte_time`` is
    the inverse interconnect bandwidth (beta).  A collective over *P*
    ranks moving *B* total payload bytes costs
    ``ceil(log2 P) * latency + B * byte_time``.
    Defaults model a 2012-era InfiniBand fabric (~2 us, ~3 GB/s).
    """

    latency: float = 2e-6
    byte_time: float = 1.0 / 3e9

    def collective_seconds(self, size: int, total_bytes: int) -> float:
        if size <= 1:
            return 0.0
        hops = math.ceil(math.log2(size))
        return hops * self.latency + total_bytes * self.byte_time


def payload_nbytes(obj: object) -> int:
    """Best-effort byte size of a collective payload element."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    # Fallback for objects exposing an nbytes attribute (e.g. bitmaps).
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 64  # opaque Python object: count its envelope only


class SimCommunicator:
    """Simulated communicator over ``size`` ranks.

    All collectives are *vectorized*: the caller supplies the
    rank-indexed list of contributions and receives what the root (or
    all ranks) would see.  Communication seconds accumulate in
    :attr:`comm_seconds` and are added to the query's modeled response
    time by the executor.
    """

    def __init__(self, size: int, cost_model: CommCostModel | None = None) -> None:
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        self.size = size
        self.cost_model = cost_model if cost_model is not None else CommCostModel()
        self.comm_seconds = 0.0

    def _check_contributions(self, per_rank: Sequence[object]) -> None:
        if len(per_rank) != self.size:
            raise ValueError(
                f"expected one contribution per rank ({self.size}), got {len(per_rank)}"
            )

    def _charge(self, total_bytes: int) -> None:
        self.comm_seconds += self.cost_model.collective_seconds(self.size, total_bytes)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def gather(self, per_rank: Sequence[T]) -> list[T]:
        """All ranks' contributions delivered to the root."""
        self._check_contributions(per_rank)
        self._charge(sum(payload_nbytes(x) for x in per_rank))
        return list(per_rank)

    def bcast(self, value: T) -> list[T]:
        """Root's value delivered to every rank (returned per-rank)."""
        self._charge(payload_nbytes(value) * max(self.size - 1, 0))
        return [value for _ in range(self.size)]

    def allreduce(self, per_rank: Sequence[T], op: Callable[[T, T], T]) -> T:
        """Reduce all contributions with ``op``; result visible to all."""
        self._check_contributions(per_rank)
        if not per_rank:
            raise ValueError("allreduce over an empty contribution list")
        total = sum(payload_nbytes(x) for x in per_rank)
        # reduce + broadcast phases
        self._charge(total)
        self._charge(payload_nbytes(per_rank[0]) * max(self.size - 1, 0))
        result = per_rank[0]
        for value in per_rank[1:]:
            result = op(result, value)
        return result

    def allgather(self, per_rank: Sequence[T]) -> list[T]:
        """Every rank receives every contribution."""
        self._check_contributions(per_rank)
        total = sum(payload_nbytes(x) for x in per_rank)
        self._charge(total * max(self.size - 1, 1))
        return list(per_rank)
