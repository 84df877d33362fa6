"""Harness smoke test at ``--scale tiny`` (run with ``make bench``; not tier-1).

Checks the harness, not the program's speed: every workload runs with
and without tracing, emits exactly the contract's metric names, fails
no operation, and repeats its exact metrics for a repeated seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import compare, oracle, runner
from benchmarks.e2e.inputs import QueryOp
from benchmarks.e2e.workloads import WORKLOADS

CONTRACT = runner.load_contract()
NAMES = [w["name"] for w in CONTRACT["workloads"]]
EXACT = ("sim_s_per_op", "pfs_kb_per_op", "stored_ratio")
MAIN = Path(__file__).with_name("__main__.py")


def _tiny(name, seed=0, trace=False):
    return runner.run(name, seed=seed, seconds=0.0, trace=trace, scale="tiny")


def test_contract_names_the_harness():
    assert NAMES == list(WORKLOADS)
    assert [m["name"] for m in CONTRACT["per_layer"]] == runner.layer_names()
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run(name):
    record = _tiny(name)
    assert record["failed"] == 0, record["failures"]
    assert record["passes"] == 2
    metrics = record["end_to_end"]
    assert list(metrics) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert metrics["ok_rate"] == 1.0
    assert all(np.isfinite(v) and v > 0 for v in metrics.values()), metrics
    line = json.loads(runner.driver_line(record, CONTRACT))
    assert line["correct"] and line["attempted"] == 2 * record["n_ops"]
    assert set(line["metrics"]) == set(metrics)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run(name):
    record = _tiny(name, trace=True)
    assert record["failed"] == 0, record["failures"]
    layers = record["per_layer"]
    assert list(layers) == runner.layer_names()
    assert all(v is not None and np.isfinite(v) for v in layers.values()), layers
    # What no wrapped callable covers stays a small part of an operation.
    assert layers["bench.unattributed_ms"] < 0.15 * layers["bench.untraced_ms"]
    spans = json.loads((runner.OUT_DIR / f"trace_{name}.json").read_text())
    assert spans["missing_targets"] == [] and spans["spans"]


@pytest.mark.parametrize("name", NAMES)
def test_exact_metrics_follow_the_seed(name):
    first, again, other = _tiny(name, 3), _tiny(name, 3), _tiny(name, 4)
    for key in EXACT:
        assert first["end_to_end"][key] == again["end_to_end"][key], key
    assert any(first["end_to_end"][k] != other["end_to_end"][k] for k in EXACT)


def test_oracle_rejects_wrong_answers():
    raw = np.arange(64, dtype=np.float64).reshape(8, 8) + 0.5
    op = QueryOp("t", "v", region=((2, 4), (0, 8)), plod_level=2)
    want = np.arange(16, 32)

    class Outcome:
        positions, values, stats = want, oracle.plod_degrade(raw.reshape(-1)[want], 2), {}

    assert oracle.check_query(op, raw, Outcome) is None
    Outcome.values = raw.reshape(-1)[want]  # full precision is not the level-2 answer
    assert "level-2" in oracle.check_query(op, raw, Outcome)
    Outcome.positions = want[:-1]
    assert "positions differ" in oracle.check_query(op, raw, Outcome)


def test_cli_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(MAIN), "--workload", "vc_regions", "--scale", "tiny",
         "--seconds", "0", "--seed", "5", "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(line["metrics"])


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(MAIN.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(runner.CONTRACT, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/__main__.py", "--workload", "vc_regions",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def _set(value, spread=0.0):
    """A synthetic one-workload set whose every metric reads ``value``."""
    runs = [
        {"end_to_end": {m["name"]: value * (1 + spread * k) for m in CONTRACT["end_to_end"]}}
        for k in (-1, 0, 1)
    ]
    return {"workloads": {"w": {
        "runs": runs,
        "median": {m["name"]: value for m in CONTRACT["end_to_end"]},
        "per_layer": {m["name"]: 1.0 for m in CONTRACT["per_layer"]},
    }}}


def test_compare_verdicts():
    table, worse = compare.compare(_set(1.0), _set(1.0), CONTRACT)
    assert not worse and "worse" not in table and "unresolved" not in table
    # Everything 40% higher: worse for lower-is-better, better for the rest.
    table, worse = compare.compare(_set(1.0), _set(1.4), CONTRACT)
    assert worse
    rows = {r.split()[1]: r.split()[-1] for r in table.splitlines()[1:]}
    assert rows["op_p50_ms"] == "worse" and rows["ops_per_s"] == "better"
    # A set whose runs disagree by more than the bound decides nothing.
    table, worse = compare.compare(_set(1.0, spread=0.3), _set(1.4), CONTRACT)
    assert not worse and "unresolved" in table
