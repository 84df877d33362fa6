"""Shared benchmark fixtures: system suites per dataset scale.

Scale is controlled by ``REPRO_SCALE`` (tiny | small | large; default
small) and the simulated-query workload width by ``REPRO_QUERIES``
(default 5 random constraints per cell, vs the paper's 100).

Every benchmark reports two things:

* the pytest-benchmark wall time of one representative cold-cache
  query (real CPU + simulator bookkeeping on this machine);
* ``extra_info["sim_seconds"]`` — the *paper-scale-equivalent response
  time* from the cost models (DESIGN.md §5), which is the number to
  compare against the paper's tables.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.harness import get_spec, get_suite

N_QUERIES = int(os.environ.get("REPRO_QUERIES", "5"))


def pytest_collection_modifyitems(items):
    """Every benchmark is ``slow``: tier-1 runs deselect them with
    ``-m 'not slow'`` while ``make bench`` still collects everything."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def suite_gts_8g():
    return get_suite(get_spec("8g", "gts"))


@pytest.fixture(scope="session")
def suite_s3d_8g():
    return get_suite(get_spec("8g", "s3d"))


@pytest.fixture(scope="session")
def suite_gts_512g():
    return get_suite(get_spec("512g", "gts"))


@pytest.fixture(scope="session")
def suite_s3d_512g():
    return get_suite(get_spec("512g", "s3d"))


def best_of(fn, rounds: int = 5) -> float:
    """Best-of-N wall seconds (min is the standard noise-robust stat)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def attach_sim_info(benchmark, times, paper_value=None, **extra):
    """Record simulated component times on a benchmark."""
    benchmark.extra_info["sim_seconds"] = round(times.total, 4)
    benchmark.extra_info["sim_io"] = round(times.io, 4)
    benchmark.extra_info["sim_decompression"] = round(times.decompression, 4)
    benchmark.extra_info["sim_reconstruction"] = round(times.reconstruction, 4)
    if paper_value is not None:
        benchmark.extra_info["paper_seconds"] = paper_value
    for key, value in extra.items():
        benchmark.extra_info[key] = value


def attach_batch_info(benchmark, batch):
    """Record a BatchResult's aggregate times and cache counters."""
    attach_sim_info(benchmark, batch.times)
    for key in ("n_queries", "blocks_planned", "blocks_decoded",
                "cache_hits", "cache_misses"):
        if key in batch.stats:
            benchmark.extra_info[key] = batch.stats[key]
