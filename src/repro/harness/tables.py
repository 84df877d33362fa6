"""Paper reference values and result recording.

Every benchmark prints its measured rows next to the paper's published
numbers so the *shape* comparison (who wins, by what factor) is visible
in the benchmark output, and appends a JSON record under ``results/``
from which EXPERIMENTS.md is assembled.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["PAPER", "record_result", "format_rows", "results_dir"]

#: Published numbers, keyed by experiment id.  Values are the paper's
#: tables verbatim (seconds, or GB for Table I).
PAPER: dict[str, dict] = {
    "table1_storage_gb": {
        # (data, index, total) for 8 GB raw data
        "mloc-col": (6.5, 1.6, 8.1),
        "mloc-iso": (6.9, 1.6, 8.5),
        "mloc-isa": (1.6, 1.6, 3.2),
        "seqscan": (8.0, 0.0, 8.0),
        "fastbit": (8.0, 10.0, 18.0),
        "scidb": (8.8, 0.0, 8.8),
    },
    "table2_region_8g": {
        # response seconds at (1% GTS, 10% GTS, 1% S3D, 10% S3D)
        "mloc-col": (0.53, 1.21, 0.59, 1.62),
        "mloc-iso": (0.41, 1.10, 0.53, 1.57),
        "mloc-isa": (0.34, 1.23, 0.56, 1.66),
        "seqscan": (19.22, 20.27, 22.71, 22.93),
        "fastbit": (36.81, 37.48, 37.27, 37.83),
        "scidb": (206.80, 677.10, 210.00, 597.80),
    },
    "table3_value_8g": {
        # response seconds at (0.1% GTS, 1% GTS, 0.1% S3D, 1% S3D)
        "mloc-col": (3.07, 5.06, 3.51, 5.26),
        "mloc-iso": (2.15, 4.99, 2.96, 4.51),
        "mloc-isa": (1.52, 3.31, 1.63, 3.42),
        "seqscan": (4.38, 5.92, 1.81, 4.75),
        "fastbit": (37.29, 38.24, 37.49, 39.70),
        "scidb": (29.10, 122.50, 143.20, 469.10),
    },
    "table4_region_512g": {
        "mloc-col": (16.51, 41.18, 18.94, 39.25),
        "mloc-iso": (15.81, 42.06, 19.43, 41.55),
        "mloc-isa": (16.42, 42.19, 20.23, 43.71),
        "seqscan": (1596.52, 2317.39, 1423.45, 2179.81),
    },
    "table5_value_512g": {
        "mloc-col": (13.25, 33.03, 15.24, 39.34),
        "mloc-iso": (8.81, 23.77, 9.96, 37.66),
        "mloc-isa": (7.82, 40.99, 8.39, 44.04),
        "seqscan": (37.22, 248.87, 40.74, 230.26),
    },
    "table6_plod_accuracy_pct": {
        # histogram error % for (vu, vv, vw) and K-means error % (vv+vw)
        2: {"hist": (8.241, 1.83, 1.834), "kmeans": 4.290},
        3: {"hist": (0.029, 6.5e-3, 8.3e-3), "kmeans": 0.017},
        4: {"hist": (1.6e-4, 4.5e-5, 3.5e-5), "kmeans": 6.6e-5},
    },
    "table7_level_orders": {
        # seconds for (3-byte PLoD access, full-precision access)
        "V-M-S": (19.45, 39.34),
        "V-S-M": (23.70, 35.47),
    },
    "fig6_components": {
        # qualitative shape: per system, which component dominates
        "note": "MLOC-ISA least I/O, most decompression; seqscan most I/O",
    },
    "fig7_scalability": {
        "note": "decompression/reconstruction scale with ranks; I/O plateaus",
        "ranks": (8, 16, 32, 64, 128),
    },
    "fig8_plod_access": {
        "note": "response time grows with PLoD level, I/O-dominated",
        "levels": (2, 3, 4, 5, 6, 7),
    },
}


def results_dir() -> Path:
    """Directory for JSON result records (``REPRO_RESULTS_DIR``)."""
    path = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def record_result(experiment: str, payload: dict) -> Path:
    """Write one experiment's measured rows to ``results/<id>.json``."""
    out = {"experiment": experiment, "payload": payload}
    path = results_dir() / f"{experiment}.json"
    path.write_text(json.dumps(out, indent=2, default=_jsonify))
    return path


def _jsonify(obj):
    try:
        import numpy as np

        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    except ImportError:  # pragma: no cover
        pass
    return str(obj)


def format_rows(title: str, header: list[str], rows: dict[str, list]) -> str:
    """Render an aligned text table for benchmark stdout."""
    widths = [max(len(h), 12) for h in header]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for name, cells in rows.items():
        rendered = [str(name).ljust(widths[0])]
        for cell, w in zip(cells, widths[1:]):
            if isinstance(cell, float):
                rendered.append(f"{cell:.4g}".ljust(w))
            else:
                rendered.append(str(cell).ljust(w))
        lines.append("  ".join(rendered))
    return "\n".join(lines)
