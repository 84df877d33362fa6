"""Fig. 6: execution-time components for value retrieval (0.1%
selectivity, 512 GB-class S3D): I/O vs decompression vs reconstruction.

Paper shape: sequential scan is all I/O; every MLOC variant reads far
fewer bytes; MLOC-ISA has the *least* I/O but the *most* decompression
(B-spline evaluation); reconstruction is small for everyone.
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import ComponentTimes
from repro.harness import format_table, record_result

SYSTEMS = ("mloc-col", "mloc-iso", "mloc-isa", "seqscan")


@pytest.mark.parametrize("system", SYSTEMS)
def test_components_bench(benchmark, suite_s3d_512g, system):
    suite = suite_s3d_512g
    suite.store(system)
    region = suite.workload.region_constraints(0.001, 1)[0]
    result = benchmark.pedantic(
        suite.value_query, args=(system, region), rounds=3, iterations=1
    )
    attach_sim_info(benchmark, result.times)


def test_fig6_report(benchmark, suite_s3d_512g, capsys):
    from repro.harness.experiments import fig6_rows

    suite = suite_s3d_512g
    rows = benchmark.pedantic(
        fig6_rows, args=(suite, N_QUERIES), rounds=1, iterations=1
    )
    components = {
        system: ComponentTimes(io=v[0], decompression=v[1], reconstruction=v[2])
        for system, v in rows.items()
    }
    with capsys.disabled():
        print()
        print(format_table("fig6_components", rows))
    record_result("fig6_components", {"rows": rows})

    # Paper's qualitative claims:
    # 1. MLOC-ISA has the least I/O of the MLOC variants (best reduction).
    assert components["mloc-isa"].io <= components["mloc-col"].io
    assert components["mloc-isa"].io <= components["mloc-iso"].io
    # 2. MLOC-ISA spends the most on decompression (B-spline recovery).
    assert components["mloc-isa"].decompression > components["mloc-iso"].decompression
    assert components["mloc-isa"].decompression > components["mloc-col"].decompression
    # 3. Sequential scan does no decompression at all.
    assert components["seqscan"].decompression == 0.0
