"""Extension benchmark: PLoD vs subset-based multiresolution.

Section III-B3 claims the precision-based approach "achieves higher
detail preservation than what is possible for traditional
multi-resolution data sampling": at a matched I/O budget, fetching
*all* points at reduced byte precision preserves analysis results far
better than fetching full-precision values of a spatial subset.  This
benchmark quantifies that claim — the paper states it without a table.

Protocol: over the same S3D-like field, compare (a) PLoD level k reads
on a V-M-S store against (b) resolution-level reads on a hierarchical
store, pairing configurations with similar bytes read; report each
one's mean-value error and histogram-migration error vs ground truth.
"""

import pytest

from benchmarks.conftest import attach_sim_info
from repro.analysis import histogram_migration_error
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import s3d_like
from repro.harness import format_table, record_result
from repro.pfs import PFSCostModel, SimulatedPFS


@pytest.fixture(scope="module")
def multires_stores():
    data = s3d_like((128, 128, 128), seed=71)
    byte_scale = (8 << 30) / data.nbytes
    fs = SimulatedPFS(PFSCostModel(byte_scale=byte_scale))
    block = max(4096, int(round(fs.cost_model.stripe_size / byte_scale)))
    stores = {}
    for label, curve in (("plod", "hilbert"), ("subset", "hierarchical")):
        cfg = mloc_col(
            chunk_shape=(16, 16, 16),
            n_bins=16,
            curve=curve,
            target_block_bytes=block,
        )
        MLOCWriter(fs, f"/mr/{label}", cfg).write(data, variable="f")
        stores[label] = MLOCStore.open(fs, f"/mr/{label}", "f", n_ranks=8)
    return fs, data, stores


@pytest.mark.parametrize("mode,level", [("plod", 2), ("subset", 2)])
def test_multires_access(benchmark, multires_stores, mode, level):
    fs, data, stores = multires_stores

    def run():
        fs.clear_cache()
        if mode == "plod":
            return stores["plod"].query(Query(output="values", plod_level=level))
        return stores["subset"].query(Query(output="values", resolution_level=level))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(benchmark, result.times, mode=mode, level=level)


def test_ext_multires_report(benchmark, multires_stores, capsys):
    fs, data, stores = multires_stores
    flat = data.reshape(-1)
    true_mean = flat.mean()

    def _row(values, truth, bytes_read):
        mean_err = abs(values.mean() - true_mean) / abs(true_mean)
        return [int(bytes_read), round(mean_err, 8)]

    def compute():
        rows = {}
        # PLoD: all points, k+1 bytes each.
        for level in (1, 2):
            fs.clear_cache()
            r = stores["plod"].query(Query(output="values", plod_level=level))
            hist = histogram_migration_error(flat[r.positions], r.values, 100)
            rows[f"PLoD level {level} ({level + 1}B/pt)"] = _row(
                r.values, flat, r.stats["bytes_read"]
            ) + [round(hist * 100, 4)]
        # Subset: full precision, fraction of points.
        for level in (1, 2):
            fs.clear_cache()
            r = stores["subset"].query(Query(output="values", resolution_level=level))
            # Subset values are exact; the *analysis* error comes from
            # the points it never sees: compare subset stats to truth.
            rows[f"subset level {level} ({r.n_results} pts)"] = _row(
                r.values, flat, r.stats["bytes_read"]
            ) + [float("nan")]
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ext_multires", rows))
    record_result("ext_multires", {"rows": rows})

    # The paper's detail-preservation claim: at comparable (or lower)
    # I/O, PLoD's mean estimate beats the spatial subset's by orders of
    # magnitude, because it sees every point.
    plod2 = rows["PLoD level 2 (3B/pt)"]
    subset_rows = [v for k, v in rows.items() if k.startswith("subset")]
    comparable = [r for r in subset_rows if r[0] <= plod2[0] * 2]
    assert comparable, "no subset configuration within the byte budget"
    assert all(plod2[1] < r[1] for r in comparable)
