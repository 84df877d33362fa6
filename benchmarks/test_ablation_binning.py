"""Ablation: equal-frequency vs equal-width binning (Section III-B1).

MLOC uses equal-frequency binning "to prevent load imbalance": with
equal-width bins over a non-uniform value distribution, a fixed-
selectivity constraint can land on one enormous bin (slow, unbalanced
access) or many nearly-empty ones.  This ablation measures per-query
response variance and the balance of bin sizes.
"""

import numpy as np
import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import MLOCStore, MLOCWriter, mloc_iso
from repro.harness import WorkloadGenerator, format_table, get_spec, record_result
from repro.pfs import PFSCostModel, SimulatedPFS

MODES = ("equal-frequency", "equal-width")


@pytest.fixture(scope="module")
def binning_stores():
    spec = get_spec("8g", "s3d")  # flame field: strongly bimodal values
    fs = SimulatedPFS(PFSCostModel(byte_scale=spec.byte_scale))
    data = spec.generate()
    block = max(4096, int(round(fs.cost_model.stripe_size / spec.byte_scale)))
    stores = {}
    for mode in MODES:
        cfg = mloc_iso(
            chunk_shape=spec.chunk_shape,
            n_bins=spec.n_bins,
            binning=mode,
            target_block_bytes=block,
        )
        MLOCWriter(fs, f"/binning/{mode}", cfg).write(data, variable="f")
        stores[mode] = MLOCStore.open(fs, f"/binning/{mode}", "f", n_ranks=8)
    workload = WorkloadGenerator.for_data(data, seed=spec.seed + 23)
    return fs, workload, stores


@pytest.mark.parametrize("mode", MODES)
def test_binning_region_query(benchmark, binning_stores, mode):
    fs, workload, stores = binning_stores
    constraint = workload.value_constraints(0.02, 1)[0]
    from repro.core import Query

    def run():
        fs.clear_cache()
        return stores[mode].query(
            Query(value_range=constraint, output="positions")
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(benchmark, result.times)


def test_ablation_binning_report(benchmark, binning_stores, capsys):
    from repro.core import Query

    fs, workload, stores = binning_stores
    constraints = workload.value_constraints(0.02, max(N_QUERIES, 8))

    def compute():
        rows = {}
        stats = {}
        for mode in MODES:
            counts = stores[mode].meta.counts.sum(axis=1).astype(np.float64)
            imbalance = float(counts.max() / max(counts.mean(), 1.0))
            times = []
            for constraint in constraints:
                fs.clear_cache()
                r = stores[mode].query(
                    Query(value_range=constraint, output="positions")
                )
                times.append(r.times.total)
            arr = np.array(times)
            rows[mode] = [
                round(float(arr.mean()), 3),
                round(float(arr.max()), 3),
                round(imbalance, 2),
            ]
            stats[mode] = {"imbalance": imbalance, "worst": float(arr.max())}
        return rows, stats

    rows, stats = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ablation_binning", rows))
    record_result("ablation_binning", {"rows": rows})

    # Equal-frequency bins are balanced by construction; equal-width
    # bins on the bimodal flame field are badly skewed.
    assert stats["equal-frequency"]["imbalance"] < 1.5
    assert stats["equal-width"]["imbalance"] > 3.0
    # Balanced bins bound the worst-case query.
    assert (
        stats["equal-frequency"]["worst"] <= stats["equal-width"]["worst"] * 1.25
    )
