"""Ablation: Hilbert vs Z-order vs row-major chunk ordering.

Justifies Section III-B2's choice of the Hilbert curve: for random
sub-volume value queries, curve ordering with stronger geometric
locality turns a query's chunk set into fewer, longer contiguous runs
on disk — fewer seeks and fewer compression-block over-reads.
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import MLOCStore, MLOCWriter, Query, mloc_iso
from repro.harness import WorkloadGenerator, format_table, get_spec, record_result
from repro.pfs import PFSCostModel, SimulatedPFS

CURVES = ("hilbert", "zorder", "rowmajor")


@pytest.fixture(scope="module")
def curve_stores():
    # The curve-locality effect needs a reasonably fine chunk grid to
    # show (the paper's grids have thousands of chunks), so this
    # ablation pins its own geometry instead of the tier's: a 128^3
    # field over 8^3 chunks = a 16^3 chunk grid.
    from repro.datasets import s3d_like

    spec = get_spec("8g", "s3d")
    fs = SimulatedPFS(PFSCostModel(byte_scale=spec.byte_scale))
    data = s3d_like((128, 128, 128), seed=31)
    block = max(4096, int(round(fs.cost_model.stripe_size / spec.byte_scale)))
    stores = {}
    for curve in CURVES:
        cfg = mloc_iso(
            chunk_shape=(8, 8, 8),
            n_bins=16,
            curve=curve,
            target_block_bytes=block,
        )
        MLOCWriter(fs, f"/sfc/{curve}", cfg).write(data, variable="f")
        stores[curve] = MLOCStore.open(fs, f"/sfc/{curve}", "f", n_ranks=8)
    workload = WorkloadGenerator.for_data(data, seed=spec.seed + 17)
    return fs, workload, stores


@pytest.mark.parametrize("curve", CURVES)
def test_curve_value_query(benchmark, curve_stores, curve):
    fs, workload, stores = curve_stores
    region = workload.region_constraints(0.005, 1)[0]

    def run():
        fs.clear_cache()
        return stores[curve].query(Query(region=region, output="values"))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(benchmark, result.times, seeks=result.stats["seeks"])


def test_ablation_sfc_report(benchmark, curve_stores, capsys):
    fs, workload, stores = curve_stores
    regions = workload.region_constraints(0.005, N_QUERIES)

    def compute():
        rows = {}
        for curve in CURVES:
            total = seeks = bytes_read = 0.0
            for region in regions:
                fs.clear_cache()
                r = stores[curve].query(Query(region=region, output="values"))
                total += r.times.total
                seeks += r.stats["seeks"]
                bytes_read += r.stats["bytes_read"]
            k = len(regions)
            rows[curve] = [
                round(total / k, 3),
                round(seeks / k, 1),
                int(bytes_read / k),
            ]
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ablation_sfc", rows))
    record_result("ablation_sfc", {"rows": rows})

    # Hilbert must not lose to row-major on locality metrics; SFC orders
    # cluster sub-volumes into fewer block over-reads.
    assert rows["hilbert"][2] <= rows["rowmajor"][2] * 1.05
    assert rows["hilbert"][0] <= rows["rowmajor"][0] * 1.10
