"""MLOC core: configuration, multi-level writer, store, queries.

The primary public API of the reproduction:

* :func:`mloc_col` / :func:`mloc_iso` / :func:`mloc_isa` build the three
  paper configurations; :class:`MLOCConfig` is fully general.
* :class:`MLOCWriter` encodes arrays through the multi-level layout
  pipeline onto a simulated PFS.
* :class:`MLOCStore` answers :class:`Query` objects (VC / SC /
  multiresolution) and, with :func:`multi_variable_query`,
  multi-variable accesses.
"""

from repro.core.aggregate import AGGREGATE_OPS, AggregateResult, aggregate_query
from repro.core.chunking import ChunkGrid, normalize_region
from repro.core.compound import (
    CompoundResult,
    VariableConstraint,
    compound_query,
    multi_variable_query,
)
from repro.core.config import (
    EXEC_BACKENDS,
    LEVEL_ORDERS,
    ExecutionConfig,
    MLOCConfig,
    mloc_col,
    mloc_isa,
    mloc_iso,
)
from repro.core.dataset import DatasetSnapshot, MLOCDataset
from repro.core.engine.session import RefinementSession
from repro.core.engine.stages import QueryEngine
from repro.core.manifest import (
    Manifest,
    ManifestError,
    ManifestMember,
    load_manifest,
    load_manifest_at,
    manifest_path,
)
from repro.core.errors import DegradedResultError, MissingRecordError
from repro.core.meta import StoreMeta
from repro.core.planner import PlanCache, PlanContext, QueryPlan, plan_query
from repro.core.query import Query
from repro.core.result import BatchResult, ComponentTimes, QueryResult
from repro.core.store import MLOCStore, StagedRequest, StorageReport, assemble
from repro.core.writer import MLOCWriter, WriteReport

__all__ = [
    "AGGREGATE_OPS",
    "AggregateResult",
    "BatchResult",
    "ChunkGrid",
    "CompoundResult",
    "ComponentTimes",
    "DegradedResultError",
    "EXEC_BACKENDS",
    "ExecutionConfig",
    "LEVEL_ORDERS",
    "DatasetSnapshot",
    "MLOCConfig",
    "MLOCDataset",
    "MLOCStore",
    "MLOCWriter",
    "Manifest",
    "ManifestError",
    "ManifestMember",
    "MissingRecordError",
    "Query",
    "load_manifest",
    "load_manifest_at",
    "manifest_path",
    "QueryEngine",
    "PlanCache",
    "PlanContext",
    "QueryPlan",
    "QueryResult",
    "RefinementSession",
    "StagedRequest",
    "StorageReport",
    "assemble",
    "StoreMeta",
    "VariableConstraint",
    "WriteReport",
    "aggregate_query",
    "compound_query",
    "mloc_col",
    "mloc_isa",
    "mloc_iso",
    "multi_variable_query",
    "normalize_region",
    "plan_query",
]
