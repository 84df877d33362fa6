"""Command line of the benchmark.

``--workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``
    invokes).  The last line of stdout is the contract's JSON object.
``--workload W --check``
    Verification pass only, at ``--scale tiny``, nothing timed.
no ``--workload`` / ``set``
    Every workload, ``--runs`` untraced runs plus one traced run each,
    every metric printed by name with its unit.
``compare A.json B.json``
    Two sets against the bounds of ``BENCHMARK.json``; exit status 1 if
    any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.e2e import adapter, runner
from benchmarks.e2e import compare as sets


def _print_record(record: dict, contract: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} scale={record['scale']} "
          f"ops={record['n_ops']} attempted={record['attempted']} failed={record['failed']}")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    for section in ("end_to_end", "per_layer"):
        for line in sets.metric_lines(record.get(section, {}), contract[section]):
            print(line)


def _run_one(args, contract: dict) -> int:
    scale = "tiny" if args.check and args.scale is None else (args.scale or "ref")
    record = runner.run(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=scale, check=args.check,
    )
    _print_record(record, contract)
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    if args.check:
        return 1 if record["failed"] else 0
    print(runner.driver_line(record, contract))
    return 0


def _run_set(args, contract: dict) -> int:
    result = sets.run_set(
        contract, runs=args.runs, seed=args.seed, seconds=args.seconds,
        scale=args.scale or "ref",
    )
    out = Path(args.out) if args.out else runner.OUT_DIR / "last_set.json"
    out.write_text(json.dumps(result, indent=1))
    print(sets.format_set(result, contract))
    print(f"written: {out}")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


def _compare(paths: list[str], contract: dict) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    table, any_worse = sets.compare(a, b, contract)
    print(table)
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    contract = runner.load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        return _compare(argv[1:], contract)
    if argv[:1] == ["set"]:
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("ref", "tiny"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload of a set")
    parser.add_argument("--out", help="write the full result record / set here")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return _run_one(args, contract)
        return _run_set(args, contract)
    finally:
        adapter.stop_child_processes()  # whatever way out, no process is left
