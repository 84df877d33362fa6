"""Simulated parallel file system substrate.

The paper's experiments ran on a Lustre deployment; this package
replaces it with a deterministic simulator: an in-memory object store
with Lustre-style striping, an extent cache, and an explicit cost model
that attributes simulated seconds to file opens, seeks, and per-OST byte
transfers.  See DESIGN.md §2 for the substitution argument.
"""

from repro.pfs.blockcache import BlockCache, CacheStats
from repro.pfs.costmodel import IOStats, PFSCostModel
from repro.pfs.faults import (
    FaultInjectionLog,
    FaultPlan,
    FaultyPFS,
    TransientIOError,
)
from repro.pfs.layout import BinFileSet, aggregate_parallel_time
from repro.pfs.simfs import PFSSession, SimFileHandle, SimulatedPFS

__all__ = [
    "BinFileSet",
    "BlockCache",
    "CacheStats",
    "FaultInjectionLog",
    "FaultPlan",
    "FaultyPFS",
    "IOStats",
    "PFSCostModel",
    "PFSSession",
    "SimFileHandle",
    "SimulatedPFS",
    "TransientIOError",
    "aggregate_parallel_time",
]
