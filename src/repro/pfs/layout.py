"""Subfiling layout: per-bin data and index files on the simulated PFS.

Section III-C of the paper: MLOC stores the data of each value bin in
its own file and the (compressed) position index of that bin in a
second, separate file.  This "subfiling" middle ground keeps files
neither too small (metadata pressure) nor too large (management
overhead), and read-only access needs no lock synchronization.

This module fixes the naming convention and provides
:func:`aggregate_parallel_time`, which combines the per-rank sessions of
one bulk-synchronous query phase into the simulated I/O seconds under
the cost model.
"""

from __future__ import annotations

import numpy as np

from repro.pfs.costmodel import PFSCostModel
from repro.pfs.simfs import PFSSession, SimulatedPFS

__all__ = [
    "BinFileSet",
    "aggregate_parallel_time",
]


class BinFileSet:
    """Path bookkeeping for one MLOC dataset's subfiles.

    Parameters
    ----------
    root:
        Logical directory of the dataset on the simulated PFS, e.g.
        ``"/mloc/gts/temperature"``.
    n_bins:
        Number of value bins (one data + one index file each).
    """

    def __init__(self, root: str, n_bins: int) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.root = root.rstrip("/")
        self.n_bins = n_bins

    def data_path(self, bin_id: int) -> str:
        self._check(bin_id)
        return f"{self.root}/bin{bin_id:04d}.data"

    def index_path(self, bin_id: int) -> str:
        self._check(bin_id)
        return f"{self.root}/bin{bin_id:04d}.index"

    @property
    def meta_path(self) -> str:
        return f"{self.root}/meta"

    def all_data_paths(self) -> list[str]:
        return [self.data_path(b) for b in range(self.n_bins)]

    def all_index_paths(self) -> list[str]:
        return [self.index_path(b) for b in range(self.n_bins)]

    def data_bytes(self, fs: SimulatedPFS) -> int:
        return sum(fs.size(p) for p in self.all_data_paths())

    def index_bytes(self, fs: SimulatedPFS) -> int:
        return sum(fs.size(p) for p in self.all_index_paths())

    def _check(self, bin_id: int) -> None:
        if not (0 <= bin_id < self.n_bins):
            raise ValueError(f"bin_id {bin_id} out of range [0, {self.n_bins})")


def aggregate_parallel_time(
    cost_model: PFSCostModel, sessions: list[PFSSession]
) -> float:
    """Simulated wall seconds of one parallel bulk-synchronous I/O phase.

    Per-rank open/seek overheads are serial on each client (max over
    ranks); byte transfers contend on shared OSTs (max over per-OST
    loads).  See :meth:`PFSCostModel.parallel_time`.
    """
    if not sessions:
        return 0.0
    ost_totals = np.zeros(cost_model.ost_count, dtype=np.float64)
    for s in sessions:
        ost_totals += s.ost_bytes
    return cost_model.parallel_time(
        [s.stats for s in sessions], [int(round(b)) for b in ost_totals]
    )
