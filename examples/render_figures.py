#!/usr/bin/env python
"""Render the paper's figures as ASCII charts from recorded results.

Reads the JSON records the benchmark suite writes under ``results/``
(run ``pytest benchmarks/ --benchmark-only`` first) and renders Fig. 6
(component breakdown), Fig. 7 (scalability), and Fig. 8 (PLoD access)
as stacked text bars — and, with ``--svg DIR``, as standalone SVG
files (no matplotlib needed).

Run:  python examples/render_figures.py [results_dir] [--svg out_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.harness import title_of
from repro.harness.asciiplot import stacked_bars
from repro.harness.svgplot import save_figure_svg

COMPONENTS = ["io", "decompression", "reconstruction"]

FIGURES = ("fig6_components", "fig7_scalability_gts", "fig7_scalability_s3d",
           "fig8_plod_access")


def main() -> None:
    args = [a for a in sys.argv[1:]]
    svg_dir = None
    if "--svg" in args:
        i = args.index("--svg")
        svg_dir = Path(args[i + 1])
        svg_dir.mkdir(parents=True, exist_ok=True)
        del args[i : i + 2]
    results_dir = Path(args[0]) if args else Path("results")
    if not results_dir.is_dir():
        raise SystemExit(
            f"no results directory at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    rendered = 0
    for name in FIGURES:
        path = results_dir / f"{name}.json"
        if not path.exists():
            print(f"[skip] {path.name} not recorded yet")
            continue
        payload = json.loads(path.read_text())["payload"]["rows"]
        # Row values are [io, decomp, reconstruct, total]; drop total.
        rows = {label: values[:3] for label, values in payload.items()}
        print()
        print(stacked_bars(title_of(name), rows, COMPONENTS))
        if svg_dir is not None:
            out = save_figure_svg(svg_dir / f"{name}.svg", title_of(name), rows, COMPONENTS)
            print(f"[svg] {out}")
        rendered += 1
    if rendered == 0:
        raise SystemExit("nothing to render")


if __name__ == "__main__":
    main()
