"""Simulated MPI and parallel scheduling substrate.

Replaces the paper's MPI/MPI-IO layer with a deterministic simulated
communicator (DESIGN.md §2) and implements the column-order block
assignment policy of Section III-D.
"""

from repro.parallel.scheduler import (
    BlockList,
    assignment_file_counts,
    column_order_assignment,
    round_robin_assignment,
)
from repro.parallel.simmpi import CommCostModel, SimCommunicator, payload_nbytes

__all__ = [
    "BlockList",
    "CommCostModel",
    "SimCommunicator",
    "assignment_file_counts",
    "column_order_assignment",
    "payload_nbytes",
    "round_robin_assignment",
]
