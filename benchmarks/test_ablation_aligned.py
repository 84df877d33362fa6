"""Ablation: the aligned-bin index-only fast path (Section III-D1).

Region-only queries over aligned bins are answered purely from the
per-bin position indices; forcing value retrieval on the same
constraint reads and decompresses the data too.  The gap between the
two is the fast path's payoff, and it grows with selectivity (more
fully-aligned bins).
"""

import pytest

from benchmarks.conftest import N_QUERIES, attach_sim_info
from repro.core import Query
from repro.harness import format_table, record_result


@pytest.mark.parametrize("output", ["positions", "values"])
def test_aligned_path_bench(benchmark, suite_gts_8g, output):
    suite = suite_gts_8g
    store = suite.store("mloc-col")
    constraint = suite.workload.value_constraints(0.10, 1)[0]

    def run():
        suite.fs.clear_cache()
        return store.query(Query(value_range=constraint, output=output))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(
        benchmark,
        result.times,
        aligned_bins=result.stats["aligned_bins"],
        bytes_read=result.stats["bytes_read"],
    )


def test_ablation_aligned_report(benchmark, suite_gts_8g, capsys):
    suite = suite_gts_8g
    store = suite.store("mloc-col")

    def compute():
        rows = {}
        gains = {}
        for sel in (0.01, 0.05, 0.20):
            constraints = suite.workload.value_constraints(sel, N_QUERIES)
            totals = {"positions": 0.0, "values": 0.0}
            bytes_read = {"positions": 0.0, "values": 0.0}
            aligned = 0
            for constraint in constraints:
                for output in totals:
                    suite.fs.clear_cache()
                    r = store.query(Query(value_range=constraint, output=output))
                    totals[output] += r.times.total
                    bytes_read[output] += r.stats["bytes_read"]
                aligned += r.stats["aligned_bins"]
            k = len(constraints)
            rows[f"sel {sel:.0%}"] = [
                round(totals["positions"] / k, 3),
                round(totals["values"] / k, 3),
                round(bytes_read["positions"] / bytes_read["values"], 3),
                round(aligned / k, 1),
            ]
            gains[sel] = totals["values"] / max(totals["positions"], 1e-12)
        return rows, gains

    rows, gains = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ablation_aligned", rows))
    record_result("ablation_aligned", {"rows": rows})

    # The fast path must be cheaper wherever aligned bins exist...
    assert rows["sel 20%"][0] < rows["sel 20%"][1]
    assert rows["sel 20%"][2] < 0.9  # index-only reads far fewer bytes
    # ...and the byte saving (deterministic, unlike wall-time gains)
    # grows with selectivity as more bins become fully aligned.
    assert rows["sel 20%"][2] < rows["sel 1%"][2]
    assert gains[0.20] > 1.1
