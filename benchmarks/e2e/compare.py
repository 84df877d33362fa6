"""Sets of runs and their comparison.

A *set* is ``--runs`` untraced runs of every workload (each in its own
process) plus one traced run; a metric's value for the set is the
median across its runs.  ``compare`` applies each end-to-end metric's
direction and bound from ``BENCHMARK.json`` to two sets.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _run_once(workload: str, seed: int, seconds: float, scale: str, trace: bool) -> dict:
    """One workload run in a process of its own; returns its record."""
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent / "out") as tmp:
        out = Path(tmp) / "record.json"
        cmd = [
            sys.executable, str(Path(__file__).parent / "__main__.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--scale", scale, "--trace", str(int(trace)), "--out", str(out),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
        return json.loads(out.read_text())


def run_set(contract: dict, *, runs: int, seed: int, seconds: float, scale: str) -> dict:
    result = {
        "host": host_info(), "runs": runs, "seed": seed, "seconds": seconds,
        "scale": scale, "workloads": {},
    }
    for spec in contract["workloads"]:
        name = spec["name"]
        records = [_run_once(name, seed, seconds, scale, False) for _ in range(runs)]
        traced = _run_once(name, seed, seconds, scale, True)
        result["workloads"][name] = {
            "runs": [
                {k: r[k] for k in ("end_to_end", "pass_wall_s", "host_ms",
                                   "attempted", "failed", "failures")}
                for r in records
            ],
            "median": {
                m["name"]: statistics.median(r["end_to_end"][m["name"]] for r in records)
                for m in contract["end_to_end"]
            },
            "per_layer": traced["per_layer"],
            "failed": sum(r["failed"] for r in records) + traced["failed"],
        }
    return result


def metric_lines(values: dict, specs: list[dict]) -> list[str]:
    """``name value unit`` rows for the metrics of ``specs`` present in ``values``."""
    lines = []
    for m in specs:
        if m["name"] in values:
            value = values[m["name"]]
            shown = "null" if value is None else f"{value:.6g}"
            lines.append(f"  {m['name']:<28}{shown:>14} {m['unit']}")
    return lines


def format_set(result: dict, contract: dict) -> str:
    """Every metric by name with its unit, one block per workload."""
    lines = []
    for name, data in result["workloads"].items():
        lines.append(f"== {name}  (failed ops: {data['failed']})")
        lines += metric_lines(data["median"], contract["end_to_end"])
        lines += metric_lines(data["per_layer"], contract["per_layer"])
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def _verdict(metric: dict, a: float, b: float, noise: float) -> str:
    bound = metric["bound"]
    if noise > bound:
        return "unresolved"
    worse = b > a * (1 + bound) if metric["better"] == "lower" else b < a * (1 - bound)
    better = b < a * (1 - bound) if metric["better"] == "lower" else b > a * (1 + bound)
    return "worse" if worse else "better" if better else "same"


def compare(a: dict, b: dict, contract: dict) -> tuple[str, bool]:
    """The comparison table of set ``b`` against base ``a``; and whether
    any metric is worse than its bound allows."""
    rows = [f"{'workload':<15}{'metric':<28}{'A (base)':>13}{'B':>13}{'B/A':>8}  verdict"]
    any_worse = False
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            rows.append(f"{name:<15}missing from B")
            continue
        for m in contract["end_to_end"]:
            key = m["name"]
            va, vb = base["median"][key], other["median"][key]
            noise = max(
                _spread([r["end_to_end"][key] for r in side["runs"]])
                for side in (base, other)
            )
            verdict = _verdict(m, va, vb, noise)
            any_worse |= verdict == "worse"
            ratio = vb / va if va else float("nan")
            rows.append(f"{name:<15}{key:<28}{va:>13.6g}{vb:>13.6g}{ratio:>8.3f}  {verdict}")
        for m in contract["per_layer"]:
            key = m["name"]
            va, vb = base["per_layer"].get(key), other["per_layer"].get(key)
            if va is None or vb is None:
                rows.append(f"{name:<15}{key:<28}{'null' if va is None else va!s:>13}"
                            f"{'null' if vb is None else vb!s:>13}{'':>8}  -")
                continue
            ratio = f"{vb / va:>8.3f}" if va else f"{'':>8}"
            rows.append(f"{name:<15}{key:<28}{va:>13.6g}{vb:>13.6g}{ratio}  -")
    return "\n".join(rows), any_worse
