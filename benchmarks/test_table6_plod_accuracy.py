"""Table VI: analysis accuracy on PLoD-degraded data.

Histogram-migration error for the S3D velocity components (vu, vv, vw)
and K-means misclassification on (vv, vw), at 2/3/4 bytes per point.
Paper values (percent):

    bytes  hist vu   hist vv   hist vw   kmeans
      2     8.241     1.83      1.834     4.290
      3     0.029     6.5e-3    8.3e-3    0.017
      4     1.6e-4    4.5e-5    3.5e-5    6.6e-5

The reproduction asserts the two-orders-of-magnitude drop per extra
byte rather than the absolute percentages (which depend on the exact
velocity distribution of the original S3D run).
"""

import numpy as np
import pytest

from repro.analysis import histogram_migration_error, kmeans_misclassification
from repro.datasets import s3d_velocity_triplet
from repro.harness import PAPER, format_table, record_result
from repro.plod import plod_degrade


@pytest.fixture(scope="module")
def velocities():
    # ~1.7 M points per component at the default shape (paper: 20 M).
    return s3d_velocity_triplet((120, 120, 120), seed=21)


@pytest.mark.parametrize("level,n_bytes", [(1, 2), (2, 3), (3, 4)])
def test_histogram_error_bench(benchmark, velocities, level, n_bytes):
    vu = velocities["vu"].reshape(-1)

    def run():
        return histogram_migration_error(vu, plod_degrade(vu, level), 100)

    err = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["hist_error_pct"] = round(err * 100, 5)
    benchmark.extra_info["paper_pct"] = PAPER["table6_plod_accuracy_pct"][n_bytes][
        "hist"
    ][0]


def _compute_rows(velocities, kmeans_points):
    rows = {}
    for level, n_bytes in [(1, 2), (2, 3), (3, 4)]:
        hist = [
            histogram_migration_error(
                velocities[name].reshape(-1),
                plod_degrade(velocities[name].reshape(-1), level),
                100,
            )
            * 100
            for name in ("vu", "vv", "vw")
        ]
        degraded = np.stack(
            [
                plod_degrade(kmeans_points[:, 0], level),
                plod_degrade(kmeans_points[:, 1], level),
            ],
            axis=1,
        )
        km = (
            kmeans_misclassification(
                kmeans_points, degraded, k=8, n_iters=100, repeats=2, seed=3
            )
            * 100
        )
        paper = PAPER["table6_plod_accuracy_pct"][n_bytes]
        rows[f"{n_bytes} bytes"] = [
            round(hist[0], 4),
            round(hist[1], 4),
            round(hist[2], 4),
            round(km, 4),
            paper["hist"][0],
            paper["kmeans"],
        ]
    return rows


def test_table6_report(benchmark, velocities, capsys):
    vv = velocities["vv"].reshape(-1)
    vw = velocities["vw"].reshape(-1)
    kmeans_points = np.stack([vv, vw], axis=1)[::8]  # subsample for K-means

    def compute():
        return _compute_rows(velocities, kmeans_points)

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("table6_plod_accuracy", rows))
    record_result("table6_plod_accuracy", {"rows": rows})

    # Shape: errors drop by >= ~30x per additional byte, 2-byte error is
    # percent-scale, 3-byte is centi-percent scale, 4-byte negligible.
    assert 0.5 < rows["2 bytes"][0] < 25.0
    assert rows["3 bytes"][0] < rows["2 bytes"][0] / 30
    assert rows["4 bytes"][0] < rows["3 bytes"][0] / 5 + 1e-6
    assert rows["3 bytes"][3] < rows["2 bytes"][3] / 10 + 1e-6
