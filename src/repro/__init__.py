"""MLOC reproduction: Multi-level Layout Optimization framework for
Compressed scientific data exploration (Gong et al., ICPP 2012).

Quick start::

    import numpy as np
    from repro import SimulatedPFS, MLOCWriter, MLOCStore, Query, mloc_col
    from repro.datasets import gts_like

    fs = SimulatedPFS()
    data = gts_like((512, 512), seed=7)
    MLOCWriter(fs, "/mloc/gts", mloc_col(chunk_shape=(32, 32))).write(
        data, variable="potential"
    )
    store = MLOCStore.open(fs, "/mloc/gts", "potential")
    hot = store.query(Query(value_range=(0.9, 2.0), output="positions"))
    print(hot.n_results, hot.times.total)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core import (
    ChunkGrid,
    ComponentTimes,
    DatasetSnapshot,
    MLOCConfig,
    MLOCDataset,
    MLOCStore,
    MLOCWriter,
    Query,
    QueryResult,
    WriteReport,
    mloc_col,
    mloc_isa,
    mloc_iso,
    multi_variable_query,
)
from repro.pfs import PFSCostModel, SimulatedPFS

__version__ = "1.0.0"

__all__ = [
    "ChunkGrid",
    "ComponentTimes",
    "DatasetSnapshot",
    "MLOCConfig",
    "MLOCDataset",
    "MLOCStore",
    "MLOCWriter",
    "PFSCostModel",
    "Query",
    "QueryResult",
    "SimulatedPFS",
    "WriteReport",
    "__version__",
    "mloc_col",
    "mloc_isa",
    "mloc_iso",
    "multi_variable_query",
]
