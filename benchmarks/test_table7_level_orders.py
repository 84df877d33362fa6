"""Table VII: V-M-S versus V-S-M level ordering, 512 GB-class S3D.

Paper (1% region selectivity value queries):

                 3-byte PLoD    full precision
    V-M-S order     19.45           39.34
    V-S-M order     23.70           35.47

The mechanism: V-M-S stores each byte group contiguously per bin, so a
3-byte (PLoD level 2) access reads a contiguous prefix region — but a
full-precision access must visit all seven scattered group regions.
V-S-M keeps each chunk's bytes together, inverting the trade.  The
paper's takeaway (asserted below): each order wins its own favored
pattern and the penalty of the "wrong" order stays bounded.
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.harness import PAPER, format_table, record_result
from repro.pfs import PFSCostModel, SimulatedPFS


@pytest.fixture(scope="module")
def order_stores():
    # The order trade-off is a byte-group-vs-chunk contiguity effect;
    # it needs enough chunks and bins that compression blocks resolve
    # individual (group, chunk-run) cells, so this benchmark pins its
    # geometry (128^3 field, 16^3 chunks, 32 bins) independent of the
    # scale tier and keeps the 512 GB-class byte magnification.
    from repro.datasets import s3d_like
    from repro.harness import WorkloadGenerator

    data = s3d_like((128, 128, 128), seed=41)
    byte_scale = (512 << 30) / data.nbytes
    fs = SimulatedPFS(PFSCostModel(byte_scale=byte_scale))
    block = max(4096, int(round(fs.cost_model.stripe_size / byte_scale)))
    stores = {}
    for order in ("VMS", "VSM"):
        cfg = mloc_col(
            chunk_shape=(16, 16, 16),
            n_bins=16,
            level_order=order,
            target_block_bytes=block,
        )
        MLOCWriter(fs, f"/orders/{order}", cfg).write(data, variable="f")
        stores[order] = MLOCStore.open(fs, f"/orders/{order}", "f", n_ranks=8)

    workload = WorkloadGenerator.for_data(data, seed=48)
    return fs, workload, stores


def _avg(fs, store, regions, plod_level):
    """Median response time over the workload's regions."""
    import statistics

    totals = []
    for region in regions:
        fs.clear_cache()
        r = store.query(Query(region=region, output="values", plod_level=plod_level))
        totals.append(r.times.total)
    return statistics.median(totals)


# The paper ran 1% selectivity on 512 GB, where each (bin, byte-group)
# extent spans many 1 MB stripes.  At reproduction scale the same
# regime requires 10% selectivity so those extents exceed one
# compression block; below that, block quantization (not layout order)
# dominates and the comparison degenerates.
_SELECTIVITY = 0.10


@pytest.mark.parametrize("order", ["VMS", "VSM"])
@pytest.mark.parametrize("plod_level", [2, 7])
def test_order_query(benchmark, order_stores, order, plod_level):
    fs, workload, stores = order_stores
    region = workload.region_constraints(_SELECTIVITY, 1)[0]

    def run():
        fs.clear_cache()
        return stores[order].query(
            Query(region=region, output="values", plod_level=plod_level)
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    paper = PAPER["table7_level_orders"]["V-M-S" if order == "VMS" else "V-S-M"]
    attach_sim_info(
        benchmark, result.times, paper_value=paper[0 if plod_level == 2 else 1]
    )


def test_table7_report(benchmark, order_stores, capsys):
    fs, workload, stores = order_stores
    regions = workload.region_constraints(_SELECTIVITY, max(N_QUERIES, 5))

    def compute():
        rows = {}
        for order in ("VMS", "VSM"):
            plod3 = _avg(fs, stores[order], regions, plod_level=2)
            full = _avg(fs, stores[order], regions, plod_level=7)
            paper = PAPER["table7_level_orders"]["V-M-S" if order == "VMS" else "V-S-M"]
            rows[f"{order[0]}-{order[1]}-{order[2]} order"] = [
                round(plod3, 2),
                round(full, 2),
                paper[0],
                paper[1],
            ]
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("table7_level_orders", rows))
    record_result("table7_level_orders", {"rows": rows})

    vms = rows["V-M-S order"]
    vsm = rows["V-S-M order"]
    # Each order wins its favored access pattern:
    assert vms[0] < vsm[0]  # V-M-S better for 3-byte PLoD access
    assert vsm[1] < vms[1]  # V-S-M better for full precision
    # ...and the penalty of the wrong order is bounded (paper: < ~25%).
    assert vsm[0] / vms[0] < 2.5
    assert vms[1] / vsm[1] < 2.5
