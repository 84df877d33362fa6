"""Experiment harness: dataset scales, workloads, system suites and
their one cold replay (:func:`cold_batch`), the level-order advisor,
paper values and the published-table registry for the per-table
benchmarks."""

from repro.harness.advisor import (
    AdvisorReport,
    QueryClass,
    WorkloadProfile,
    recommend_level_order,
)
from repro.harness.scales import SCALE_TIERS, DatasetSpec, get_spec, scale_tier
from repro.harness.systems import ALL_SYSTEMS, MLOC_SYSTEMS, SystemSuite, cold_batch, get_suite
from repro.harness.asciiplot import stacked_bars
from repro.harness.tables import PAPER, TABLES, format_rows, format_table, record_result
from repro.harness.tables import render_result, results_dir, title_of
from repro.harness.workloads import WorkloadGenerator

__all__ = [
    "ALL_SYSTEMS",
    "AdvisorReport",
    "DatasetSpec",
    "MLOC_SYSTEMS",
    "PAPER",
    "QueryClass",
    "SCALE_TIERS",
    "SystemSuite",
    "TABLES",
    "WorkloadGenerator",
    "WorkloadProfile",
    "cold_batch",
    "format_rows",
    "format_table",
    "get_spec",
    "get_suite",
    "recommend_level_order",
    "record_result",
    "render_result",
    "results_dir",
    "scale_tier",
    "stacked_bars",
    "title_of",
]
