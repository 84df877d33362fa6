"""Table IV: region-query response time on the 512 GB-class datasets.

The paper compares only MLOC and sequential scan at this scale (the
other systems were already uncompetitive at 8 GB).  Row shape: MLOC
answers 1%/10% region queries in tens of seconds; the scan must stream
the entire 512 GB (~1500-2300 s).
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.harness import PAPER, format_table, record_result

SYSTEMS = ("mloc-col", "mloc-iso", "mloc-isa", "seqscan")


@pytest.mark.parametrize("system", SYSTEMS)
def test_region_query_1pct_gts_512g(benchmark, suite_gts_512g, system):
    suite = suite_gts_512g
    suite.store(system)
    constraint = suite.workload.value_constraints(0.01, 1)[0]
    result = benchmark.pedantic(
        suite.region_query, args=(system, constraint), rounds=3, iterations=1
    )
    attach_sim_info(
        benchmark,
        result.times,
        paper_value=PAPER["table4_region_512g"][system][0],
        n_results=result.n_results,
    )


@pytest.mark.parametrize("dataset", ["gts", "s3d"])
def test_table4_report(benchmark, dataset, suite_gts_512g, suite_s3d_512g, capsys):
    suite = suite_gts_512g if dataset == "gts" else suite_s3d_512g

    from repro.harness.experiments import table4_rows

    rows = benchmark.pedantic(
        table4_rows, args=(suite, dataset, N_QUERIES), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(format_table(f"table4_region_512g_{dataset}", rows))
    record_result(f"table4_region_512g_{dataset}", {"rows": rows})

    # The headline claim: MLOC is much faster than a full scan at
    # 512 GB scale.  (The factor depends on the tier's bin count — at
    # the tiny CI tier a bin is 5% of the data, at small it is 1% as in
    # the paper — so assert a conservative multiple.)
    for s in ("mloc-col", "mloc-iso", "mloc-isa"):
        assert rows[s][0] * 3 < rows["seqscan"][0]
        assert rows[s][1] * 2 < rows["seqscan"][1]
