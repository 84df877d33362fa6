"""Fig. 8: multiresolution access performance under different PLoDs
(1% selectivity value queries, 512 GB-class, MLOC-COL).

Paper shape: response time grows with PLoD level, driven almost
entirely by I/O (more byte groups fetched); decompression barely moves
(the low mantissa planes are stored raw, so "decompressing" them is a
copy); reconstruction is level-independent.
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import Query
from repro.harness import format_table, record_result

LEVELS = (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("level", [2, 4, 7])
def test_plod_access_bench(benchmark, suite_gts_512g, level):
    suite = suite_gts_512g
    store = suite.store("mloc-col")
    region = suite.workload.region_constraints(0.01, 1)[0]

    def run():
        suite.fs.clear_cache()
        return store.query(Query(region=region, output="values", plod_level=level))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(benchmark, result.times, plod_level=level)


def test_fig8_report(benchmark, suite_gts_512g, capsys):
    from repro.harness.experiments import fig8_rows

    suite = suite_gts_512g
    rows = benchmark.pedantic(
        fig8_rows, args=(suite, N_QUERIES, LEVELS), rounds=1, iterations=1
    )
    io_series = [rows[f"PLoD {lvl} ({lvl + 1}B)"][0] for lvl in LEVELS]
    decomp_series = [rows[f"PLoD {lvl} ({lvl + 1}B)"][1] for lvl in LEVELS]
    recon_series = [rows[f"PLoD {lvl} ({lvl + 1}B)"][2] for lvl in LEVELS]
    total_series = [rows[f"PLoD {lvl} ({lvl + 1}B)"][3] for lvl in LEVELS]
    with capsys.disabled():
        print()
        print(format_table("fig8_plod_access", rows))
    record_result("fig8_plod_access", {"rows": rows})

    # Response time grows with precision level...
    assert total_series[-1] > total_series[0]
    # ...the growth lives in fetching+recovering bytes (I/O and
    # decompression), not in reconstruction, which the paper observes
    # "remains the same since it is ... irrelevant to the PLoDs used".
    io_growth = io_series[-1] - io_series[0]
    fetch_growth = io_growth + (decomp_series[-1] - decomp_series[0])
    total_growth = total_series[-1] - total_series[0]
    assert fetch_growth > 0.75 * total_growth
    assert io_growth > 0.0
    # Reconstruction is level-independent: a candidate costs the same
    # counted bytes whatever precision it was fetched at.
    assert len(set(recon_series)) == 1
    # Level 2 (3 bytes) reads roughly 3/8 of the full-precision bytes.
    assert io_series[1] < 0.75 * io_series[-1]
