"""Staged query engine: Plan → IOScheduler → Decode → Assemble.

Layering contract (enforced by ``scripts/check_layers.py``):

* :mod:`~repro.core.engine.scheduler` (layer 0) — deferred reads,
  coalescing, verified-read fault tolerance, decode-job
  coordination, and the one per-query counter record
  (:class:`QueryCounters`).  Knows only the PFS, never plans or byte
  planes.
* :mod:`~repro.core.engine.stages` (layer 1) — the
  :class:`QueryEngine`: the per-query stage step and the per-batch
  assemble step over planner output.
* :mod:`~repro.core.engine.session` (layer 2) — progressive
  :class:`RefinementSession` stepping on top of the engine.

Each module may import only strictly lower engine layers.
"""

from repro.core.engine.scheduler import IOScheduler, PendingRead, QueryCounters
from repro.core.engine.session import RefinementSession
from repro.core.engine.stages import QueryEngine, StagedQuery

__all__ = [
    "IOScheduler",
    "PendingRead",
    "QueryCounters",
    "QueryEngine",
    "StagedQuery",
    "RefinementSession",
]
