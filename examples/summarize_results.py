#!/usr/bin/env python
"""Summarize recorded experiment results as Markdown tables.

Reads ``results/*.json`` (written by the benchmark suite or
``python -m repro.bench``) and prints GitHub-flavored Markdown tables —
the helper used to assemble EXPERIMENTS.md after a run.

Run:  python examples/summarize_results.py [results_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HEADERS = {
    "table1_storage": ["system", "data", "index", "total", "paper total"],
    "table2_region_8g_gts": ["system", "1%", "10%", "paper 1%", "paper 10%"],
    "table2_region_8g_s3d": ["system", "1%", "10%", "paper 1%", "paper 10%"],
    "table3_value_8g_gts": ["system", "0.1%", "1%", "paper 0.1%", "paper 1%"],
    "table3_value_8g_s3d": ["system", "0.1%", "1%", "paper 0.1%", "paper 1%"],
    "table4_region_512g_gts": ["system", "1%", "10%", "paper 1%", "paper 10%"],
    "table4_region_512g_s3d": ["system", "1%", "10%", "paper 1%", "paper 10%"],
    "table5_value_512g_gts": ["system", "0.1%", "1%", "paper 0.1%", "paper 1%"],
    "table5_value_512g_s3d": ["system", "0.1%", "1%", "paper 0.1%", "paper 1%"],
    "table6_plod_accuracy": [
        "bytes", "hist vu", "hist vv", "hist vw", "K-means", "paper hist vu", "paper K-means",
    ],
    "table7_level_orders": ["order", "3-byte", "full", "paper 3-byte", "paper full"],
    "fig6_components": ["system", "io", "decompression", "reconstruction", "total"],
    "fig7_scalability_gts": ["ranks", "io", "decompression", "reconstruction", "total"],
    "fig7_scalability_s3d": ["ranks", "io", "decompression", "reconstruction", "total"],
    "fig8_plod_access": ["level", "io", "decompression", "reconstruction", "total"],
    "ablation_sfc": ["curve", "sim total", "seeks", "bytes"],
    "ablation_binning": ["binning", "mean s", "worst s", "imbalance"],
    "ablation_scheduler": ["scheduler", "sim total", "files opened", "seeks"],
    "ablation_aligned": ["selectivity", "index-only s", "with-data s", "byte ratio", "aligned"],
    "ext_codec_tradeoff": ["codec", "ratio", "enc MB/s", "dec MB/s", "kind"],
    "ext_multivar": ["selectivity", "bitmap fetch s", "full fetch s", "speedup", "points"],
    "ext_multires": ["mode", "bytes read", "mean rel err", "hist err %"],
}


def _cell(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def table(rows: dict, header: list[str] | None = None) -> str:
    """One Markdown table: a row per label, its cells a list or a dict
    (whose keys then head the columns)."""
    first = next(iter(rows.values()))
    if isinstance(first, dict):
        header = ["row"] + list(first)
        rows = {label: list(cells.values()) for label, cells in rows.items()}
    if header is None:
        width = max(len(v) for v in rows.values()) + 1
        header = ["row"] + [f"c{i}" for i in range(width - 1)]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for label, cells in rows.items():
        lines.append("| " + " | ".join([str(label)] + [_cell(c) for c in cells]) + " |")
    return "\n".join(lines)


def render(name: str, payload: dict, depth: int = 4) -> str:
    """A payload as Markdown: its ``rows`` table where it has one, its
    other fields as a field/value table, each nested section below."""
    parts = []
    if payload.get("rows"):
        parts.append(table(payload["rows"], HEADERS.get(name)))
    sections = {k: v for k, v in payload.items() if isinstance(v, dict) and k != "rows"}
    fields = {k: [v] for k, v in payload.items() if k != "rows" and k not in sections}
    if fields:
        parts.append(table(fields, ["field", "value"]))
    for section, body in sections.items():
        parts.append(f"{'#' * depth} {section}\n\n{render(section, body, depth + 1)}")
    return "\n\n".join(parts)


def main() -> None:
    results_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    if not results_dir.is_dir():
        raise SystemExit(f"no results directory at {results_dir}")
    for path in sorted(results_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        print(f"\n### {path.stem}\n")
        print(render(path.stem, payload["payload"]))


if __name__ == "__main__":
    main()
