"""One-command reproduction runner: ``python -m repro.bench``.

Regenerates the paper's Tables I-V and Figs. 6-8 (plus the fault,
coalescing and refinement sweeps) without pytest, into the same
``results/`` records under the same names as the benchmark suite:

    python -m repro.bench                         # everything, default scale
    python -m repro.bench --experiments table1,table2 --datasets gts
    REPRO_SCALE=tiny python -m repro.bench --queries 3 --svg figs/

Titles, headers, record names and each one-dataset table's dataset come
from the :data:`~repro.harness.tables.TABLES` registry, and rows from
:mod:`repro.harness.experiments`, both shared with the benchmarks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.harness import TABLES, format_table, get_spec, get_suite, record_result, title_of
from repro.harness.experiments import (
    coalescing_rows,
    fault_tolerance_rows,
    fig6_rows,
    fig7_rows,
    fig8_rows,
    progressive_rows,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.harness.svgplot import save_figure_svg

__all__ = ["main"]

#: experiment id -> (registered table, size class, rows(suite, dataset, n_queries))
RUNS = {
    "table1": ("table1_storage", "8g", lambda suite, ds, n: table1_rows(suite)),
    "table2": ("table2_region_8g_{ds}", "8g", table2_rows),
    "table3": ("table3_value_8g_{ds}", "8g", table3_rows),
    "table4": ("table4_region_512g_{ds}", "512g", table4_rows),
    "table5": ("table5_value_512g_{ds}", "512g", table5_rows),
    "fig6": ("fig6_components", "512g", lambda suite, ds, n: fig6_rows(suite, n)),
    "fig7": ("fig7_scalability_{ds}", "512g", lambda suite, ds, n: fig7_rows(suite, n)),
    "fig8": ("fig8_plod_access", "512g", lambda suite, ds, n: fig8_rows(suite, n)),
    "faults": ("fault_tolerance", "8g", lambda suite, ds, n: fault_tolerance_rows(suite, n)),
    "coalescing": ("coalescing", "8g", lambda suite, ds, n: coalescing_rows(suite, n)[0]),
    "progressive": ("progressive", "8g", lambda suite, ds, n: progressive_rows(suite)[0]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--experiments",
        default=",".join(RUNS),
        help=f"comma-separated subset of: {','.join(RUNS)}",
    )
    parser.add_argument(
        "--datasets",
        default="gts,s3d",
        help="comma-separated: gts,s3d (a table of one dataset runs on its own)",
    )
    parser.add_argument(
        "--queries", type=int, default=5, help="random queries per cell"
    )
    parser.add_argument(
        "--svg", default=None, help="also render figure SVGs into this directory"
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip writing results/*.json"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    unknown = [e for e in experiments if e not in RUNS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    bad_ds = [d for d in datasets if d not in ("gts", "s3d")]
    if bad_ds:
        print(f"unknown datasets: {bad_ds}", file=sys.stderr)
        return 2

    for exp in experiments:
        name, size_class, compute = RUNS[exp]
        table = TABLES[name]
        for dataset in [table.dataset] if table.dataset else datasets:
            rows = compute(get_suite(get_spec(size_class, dataset)), dataset, args.queries)
            result = name.format(ds=dataset)
            print()
            print(format_table(result, rows))
            if not args.no_record:
                record_result(result, {"rows": rows})
            if args.svg and exp in ("fig6", "fig7", "fig8"):
                out_dir = Path(args.svg)
                out_dir.mkdir(parents=True, exist_ok=True)
                parts = list(table.header[1:4])  # io, decompression, reconstruction
                bars = {label: cells[:3] for label, cells in rows.items()}
                save_figure_svg(out_dir / f"{exp}_{dataset}.svg", title_of(result), bars, parts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
