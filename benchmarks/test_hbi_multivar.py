"""Hierarchical-index pushdown on the compound multivariate workload.

The ext_multivar scenario ("temperature values where the humidity is
high and the pressure low", with a spatially localized temperature
burst) evaluated two ways over identical bytes on disk:

* **flat** — every constrained variable's region-only step scans every
  chunk its bins touch;
* **hierarchical** — the most selective variable runs first, and each
  later variable's plan is narrowed to the chunks where the running
  intersection still has set bits, then pruned against the index's
  interior-node cardinalities.

Asserted, not just recorded:

* the two evaluations are bit-identical (positions and every fetched
  value byte);
* the hierarchical run's simulated I/O bytes are at least **2x** below
  the flat run's on the same cold-cache workload.

Byte totals, pruning counters, exchange-payload sizes, and the index
footprint against the FastBit whole-domain baseline land in
``results/BENCH_hbi_multivar.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fastbit import FastBitStore
from repro.core import (
    MLOCStore,
    MLOCWriter,
    mloc_col,
    multi_variable_query,
)
from repro.core.compound import VariableConstraint, compound_query
from repro.datasets import gts_like
from repro.harness import record_result
from repro.index.hbi import hbi_path
from repro.pfs import SimulatedPFS

SHAPE = (512, 512)
CHUNK = (32, 32)
N_BINS = 32
#: Small blocks so plans resolve near chunk granularity — pruning is
#: chunk-level, reads are block-level.
BLOCK_BYTES = 512
BURST_SELECTIVITY = 0.02

RESULTS: dict[str, object] = {}


@pytest.fixture(scope="module")
def tri_var_burst():
    fs = SimulatedPFS()
    yy, xx = np.meshgrid(
        np.linspace(-1, 1, SHAPE[0]), np.linspace(-1, 1, SHAPE[1]), indexing="ij"
    )
    fields = {
        # Localized hot spot: the paper's "abnormally high temperature"
        # selector, spatially confined so the conjunction's footprint
        # is a few chunks of the domain.
        "temp": gts_like(SHAPE, seed=61)
        + 3.0 * np.exp(-(((yy - 0.3) ** 2 + (xx + 0.2) ** 2) / 0.02)),
        "humidity": gts_like(SHAPE, seed=62),
        "pressure": gts_like(SHAPE, seed=63),
    }
    cfg = mloc_col(chunk_shape=CHUNK, n_bins=N_BINS, target_block_bytes=BLOCK_BYTES)
    writer = MLOCWriter(fs, "/hbi", cfg)
    for name, data in fields.items():
        writer.write(data, variable=name)
    return fs, fields


def _open_all(fs, names, use_hbi):
    return {
        name: MLOCStore.open(fs, "/hbi", name, n_ranks=8, use_hbi=use_hbi)
        for name in names
    }


def _constraints(fields) -> list[VariableConstraint]:
    t = fields["temp"].reshape(-1)
    h = fields["humidity"].reshape(-1)
    p = fields["pressure"].reshape(-1)
    return [
        VariableConstraint.above(
            "temp", float(np.quantile(t, 1.0 - BURST_SELECTIVITY))
        ),
        VariableConstraint.above("humidity", float(np.quantile(h, 0.5))),
        VariableConstraint.below("pressure", float(np.quantile(p, 0.6))),
    ]


def test_hbi_halves_compound_io_and_keeps_results_identical(tri_var_burst):
    fs, fields = tri_var_burst
    constraints = _constraints(fields)

    fs.clear_cache()
    flat = compound_query(
        _open_all(fs, fields, False), constraints, fetch=["temp"]
    )
    fs.clear_cache()
    hier = compound_query(
        _open_all(fs, fields, True), constraints, fetch=["temp"]
    )

    assert np.array_equal(flat.positions, hier.positions)
    assert np.array_equal(flat.values["temp"], hier.values["temp"])
    assert flat.stats["chunks_pruned"] == 0
    assert hier.stats["chunks_pruned"] > 0

    flat_bytes = flat.stats["bytes_read"]
    hier_bytes = hier.stats["bytes_read"]
    RESULTS["compound"] = {
        "n_results": flat.n_results,
        "flat_bytes_read": flat_bytes,
        "hbi_bytes_read": hier_bytes,
        "io_reduction": round(flat_bytes / hier_bytes, 2),
        "chunks_pruned": hier.stats["chunks_pruned"],
        "flat_sim_seconds": round(flat.times.total, 4),
        "hbi_sim_seconds": round(hier.times.total, 4),
    }
    assert flat_bytes >= 2 * hier_bytes, RESULTS["compound"]


def test_hierarchical_exchange_payload(tri_var_burst):
    fs, fields = tri_var_burst
    t = fields["temp"].reshape(-1)
    lo = float(np.quantile(t, 1.0 - BURST_SELECTIVITY))
    hi = float(t.max())
    flat_stores = _open_all(fs, ["temp", "humidity"], False)
    hier_stores = _open_all(fs, ["temp", "humidity"], True)

    fs.clear_cache()
    flat = multi_variable_query(
        flat_stores["temp"], [flat_stores["humidity"]], value_range=(lo, hi)
    )
    fs.clear_cache()
    hier = multi_variable_query(
        hier_stores["temp"], [hier_stores["humidity"]], value_range=(lo, hi)
    )

    assert np.array_equal(flat.positions, hier.positions)
    assert np.array_equal(flat.values["humidity"], hier.values["humidity"])
    RESULTS["exchange"] = {
        "n_positions": int(flat.positions.size),
        "flat_payload_bytes": flat.exchange_bytes,
        "hbi_payload_bytes": hier.exchange_bytes,
    }


def test_index_footprint_vs_fastbit(tri_var_burst):
    fs, fields = tri_var_burst
    store = MLOCStore.open(fs, "/hbi", "temp", use_hbi=True)
    hbi_bytes = fs.size(hbi_path(store.root))
    flat_index_bytes = sum(
        fs.size(store.files.index_path(b)) for b in range(N_BINS)
    )

    # FastBit baseline at the same bin resolution: one whole-domain WAH
    # bitmap per bin over row-major raw data (its precision-binned
    # default of 1024 bins would only be larger).
    fb_fs = SimulatedPFS()
    fastbit = FastBitStore.build(
        fb_fs, "/fb", fields["temp"], n_bins=N_BINS, n_ranks=8
    )
    fastbit_bytes = fastbit.storage_bytes()["index"]

    RESULTS["footprint"] = {
        "hbi_file_bytes": hbi_bytes,
        "mloc_flat_index_bytes": flat_index_bytes,
        "fastbit_index_bytes": fastbit_bytes,
        "hbi_vs_fastbit": round(hbi_bytes / fastbit_bytes, 3),
    }
    # The hierarchical summary (the run count matrix) must not cost
    # more than the FastBit baseline's whole-domain bitmaps.
    assert hbi_bytes <= fastbit_bytes


def test_record_hbi_multivar(tri_var_burst):
    assert {"compound", "exchange", "footprint"} <= set(RESULTS)
    path = record_result("BENCH_hbi_multivar", RESULTS)
    assert path.exists()
