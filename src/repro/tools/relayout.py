"""Relayout: migrate a store to a different MLOC configuration.

The flexible multi-level architecture means the *right* layout depends
on the workload (Section III-A2); when the workload shifts — or the
advisor recommends a different order — an existing store can be
re-encoded without the original array: the store itself can produce
every value and position.

``relayout`` performs that migration: a full-domain, full-precision
read of the source store reconstructs the array (exact for lossless
codecs; within the ISABELA bound for lossy ones, in which case the
migration is flagged as approximate), which is then written through
the writer under the new configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MLOCConfig
from repro.core.query import Query
from repro.core.store import MLOCStore
from repro.core.writer import MLOCWriter, WriteReport
from repro.pfs.simfs import SimulatedPFS

__all__ = ["RelayoutReport", "relayout"]


@dataclass(frozen=True)
class RelayoutReport:
    """Outcome of one store migration."""

    write_report: WriteReport
    #: True when the source codec was lossy, so the migrated values are
    #: the source's approximations rather than the original array.
    approximate: bool
    source_order: str
    target_order: str


def relayout(
    fs: SimulatedPFS,
    source_root: str,
    variable: str,
    target_root: str,
    new_config: MLOCConfig,
    *,
    n_ranks: int = 8,
) -> RelayoutReport:
    """Re-encode ``source_root/variable`` under ``new_config``.

    Parameters
    ----------
    fs:
        The simulated PFS holding the source (and receiving the target).
    source_root, variable:
        The store to migrate.
    target_root:
        Root for the migrated store (must differ from the source root
        so a failed migration never damages the original).
    new_config:
        The target layout configuration.
    """
    if source_root.rstrip("/") == target_root.rstrip("/"):
        raise ValueError("target_root must differ from source_root")
    source = MLOCStore.open(fs, source_root, variable, n_ranks=n_ranks)
    if new_config.chunk_shape is not None:
        # Validate early: the new chunking must tile the same shape.
        from repro.core.chunking import ChunkGrid

        ChunkGrid(source.shape, new_config.chunk_shape)

    full = source.query(Query(output="values"))
    data = np.empty(source.n_elements, dtype=np.float64)
    data[full.positions] = full.values
    data = data.reshape(source.shape)

    writer = MLOCWriter(fs, target_root, new_config)
    write_report = writer.write(data, variable=variable)

    from repro.compression.base import make_codec

    return RelayoutReport(
        write_report=write_report,
        approximate=not make_codec(source.meta.config.codec).lossless,
        source_order=source.meta.config.level_order,
        target_order=new_config.level_order,
    )
