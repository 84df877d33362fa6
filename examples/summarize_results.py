#!/usr/bin/env python
"""Summarize recorded experiment results as Markdown tables.

Reads ``results/*.json`` (written by the benchmark suite or
``python -m repro.bench``) and prints every published table found in
them — a whole record, or a section of a composite ``BENCH_*`` record —
under its registered title and header (``repro.harness.TABLES``), the
same Markdown ``scripts/render_experiments.py`` writes into the fenced
tables of EXPERIMENTS.md and ``docs/``.

Run:  python examples/summarize_results.py [results_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.harness import render_result


def main() -> None:
    results_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    if not results_dir.is_dir():
        raise SystemExit(f"no results directory at {results_dir}")
    for path in sorted(results_dir.glob("*.json")):
        payload = json.loads(path.read_text())["payload"]
        sections = [f"{path.stem}#{key}" for key, v in payload.items() if isinstance(v, dict)]
        for address in [path.stem, *sections]:
            try:
                table = render_result(address, results_dir)
            except KeyError:  # not a published table
                continue
            print(f"\n### {address}\n\n{table}")


if __name__ == "__main__":
    main()
