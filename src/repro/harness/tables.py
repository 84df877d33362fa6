"""Paper reference values, the published-table registry, and result
recording.

Every benchmark prints its measured rows next to the paper's published
numbers under the title and header :data:`TABLES` declares for them,
and writes a JSON record under ``results/`` from which the fenced
tables of EXPERIMENTS.md and ``docs/`` are rendered.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PAPER", "TABLES", "Table", "format_rows", "format_table", "lookup", "record_result",
    "render_result", "results_dir", "title_of",
]  # fmt: skip

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
}


#: The datasets a per-dataset table is recorded for, one file each.
DATASETS = ("gts", "s3d")


@dataclass(frozen=True)
class Table:
    """One published table, read from ``results/<name>.json`` or from the
    section ``<name>`` of a composite ``BENCH_*`` record.  ``{ds}`` in
    ``name`` stands for each of :data:`DATASETS`, one record each;
    ``dataset`` is the one dataset a single-dataset table is measured on.
    ``{ds}`` in ``title`` is filled with the record's dataset."""

    name: str
    title: str
    header: tuple[str, ...]
    dataset: str | None = None


_REGION = ("system", "1%", "10%", "paper 1%", "paper 10%")
_VALUE = ("system", "0.1%", "1%", "paper 0.1%", "paper 1%")
_PARTS = ("io", "decompression", "reconstruction", "total")
_SHARDS = ("shards", "io", "decompression", "io+decompression", "speedup")
_FIELDS = ("field", "value")

# fmt: off
#: Every published table, keyed by :attr:`Table.name`.
TABLES: dict[str, Table] = {table.name: table for table in (
    Table("table1_storage", "Table I - storage as fraction of raw data, 8 GB-class {ds}",
          ("system", "data", "index", "total", "paper total"), "gts"),
    Table("table2_region_8g_{ds}", "Table II - region query seconds, 8 GB-class {ds}",
          _REGION),
    Table("table3_value_8g_{ds}", "Table III - value query seconds, 8 GB-class {ds}", _VALUE),
    Table("table4_region_512g_{ds}", "Table IV - region query seconds, 512 GB-class {ds}",
          _REGION),
    Table("table5_value_512g_{ds}", "Table V - value query seconds, 512 GB-class {ds}",
          _VALUE),
    Table("table6_plod_accuracy", "Table VI - PLoD analysis error (%), {ds} velocity",
          ("bytes", "hist vu", "hist vv", "hist vw", "K-means", "paper hist vu",
           "paper K-means"), "s3d"),
    Table("table7_level_orders", "Table VII - level-order seconds, 10% value queries, "
          "512 GB-class {ds}", ("order", "3-byte", "full", "paper 3-byte", "paper full"),
          "s3d"),
    Table("fig6_components", "Fig 6 - component seconds, 0.1% value queries, "
          "512 GB-class {ds}", ("system", *_PARTS), "s3d"),
    Table("fig7_scalability_{ds}", "Fig 7 - scalability seconds, 10% value queries, "
          "512 GB-class {ds}", ("ranks", *_PARTS)),
    Table("fig8_plod_access", "Fig 8 - PLoD access seconds, 1% value queries, "
          "512 GB-class {ds}, MLOC-COL", ("level", *_PARTS), "gts"),
    Table("ablation_sfc", "Ablation - chunk ordering, 0.5% value queries, 8 GB-class {ds}",
          ("curve", "sim total", "seeks", "bytes"), "s3d"),
    Table("ablation_binning", "Ablation - binning mode, 2% region queries, 8 GB-class {ds}",
          ("binning", "mean s", "worst s", "bin imbalance"), "s3d"),
    Table("ablation_scheduler", "Ablation - block scheduler, 1% value queries, "
          "8 GB-class {ds}", ("scheduler", "sim total", "files opened", "seeks"), "gts"),
    Table("ablation_aligned", "Ablation - aligned-bin fast path, region-only vs value "
          "retrieval, 8 GB-class {ds}",
          ("selectivity", "index-only s", "with-data s", "byte ratio", "aligned bins"), "gts"),
    Table("ext_codec_tradeoff", "Extension - codecs on an 8 MB turbulence stream, wall clock",
          ("codec", "ratio", "enc MB/s", "dec MB/s", "kind")),
    Table("ext_multivar", "Extension - bitmap-masked fetch vs full second-variable "
          "retrieval, 8 GB-class {ds}",
          ("selectivity", "bitmap fetch s", "full fetch s", "speedup", "points"), "gts"),
    Table("ext_multires", "Extension - PLoD vs subset multiresolution, whole-domain reads, "
          "{ds} 128^3", ("mode", "bytes read", "mean rel err", "hist err %"), "s3d"),
    Table("sharded_512g_{ds}", "Sharded store - seconds vs shard count, 512 GB-class {ds}",
          _SHARDS),
    Table("BENCH_calibration", "Calibration - modeled vs achieved MB/s, wall clock",
          ("constant", "modeled MB/s", "achieved @1 MB", "ratio", "achieved @16 MB",
           "ratio")),
    Table("batch_pipeline", "Batched query_many vs cold one-by-one, 1% value queries, "
          "8 GB-class {ds}",
          ("mode", "io", "decompression", "io+decompression", "wall s"), "gts"),
    Table("coalescing", "Coalesced vectored I/O - 1% SC value queries at PLoD 3, "
          "8 GB-class {ds}", ("mode", "seeks", "bytes", "io+dec s"), "gts"),
    Table("compound", "Hierarchical index - one compound query, flat vs hbi plan, "
          "512^2 {ds}-like variables", _FIELDS, "gts"),
    Table("exchange", "Hierarchical index - compound exchange payload, flat vs hbi "
          "encoding, 512^2 {ds}-like variables", _FIELDS, "gts"),
    Table("progressive", "Progressive refinement - session vs fresh per-level queries, "
          "8 GB-class {ds}", ("step", "session bytes", "fresh bytes", "cum reused"), "gts"),
    Table("sharded_scaling", "Sharded store - seconds vs shard count, bin-spanning value "
          "queries, 8 GB-class {ds}", _SHARDS, "gts"),
    Table("fault_tolerance", "Fault tolerance - 1% value queries under injected faults, "
          "8 GB-class {ds}", ("fault rate", "io+dec s", "crc", "retries", "quarantined",
                             "degraded", "dropped"), "gts"),
    Table("io_bytes", "Broker vs serial per-tenant batches - I/O bytes, 8 GB-class {ds}",
          _FIELDS, "gts"),
    Table("open_loop", "Broker open-loop replay - 64 tenants x 3 drifting 2% region "
          "queries, 8 GB-class {ds}", _FIELDS, "gts"),
    Table("closed_loop", "Broker closed-loop replay - the same workload, 8 GB-class {ds}",
          _FIELDS, "gts"),
)}
# fmt: on


def lookup(name: str) -> tuple[Table, str | None]:
    """The registry entry behind record ``name`` and the dataset its
    rows are of (``None`` for a table of no dataset)."""
    if name in TABLES:
        return TABLES[name], TABLES[name].dataset
    for ds in DATASETS:
        key = name[: -len(ds)] + "{ds}"
        if name.endswith(f"_{ds}") and key in TABLES:
            return TABLES[key], ds
    raise KeyError(f"no published table is recorded as {name!r}")


def title_of(name: str) -> str:
    """Record ``name``'s registered title, its dataset filled in."""
    table, dataset = lookup(name)
    return table.title.format(ds=(dataset or "").upper())


def format_table(name: str, rows: dict, *, markdown: bool = False) -> str:
    """Record ``name``'s rows under its registered title and header."""
    header = list(lookup(name)[0].header)
    return format_rows(title_of(name), header, rows, markdown=markdown)


def render_result(address: str, results: Path) -> str:
    """The Markdown table of ``<record>[#<section>]`` read from its JSON
    under ``results``: the payload's rows as recorded or, for a section
    without rows, each scalar field as a row."""
    stem, _, section = address.partition("#")
    payload = json.loads((results / f"{stem}.json").read_text())["payload"]
    if section:
        payload = payload[section]
    rows = payload.get("rows") or {
        field: [value]
        for field, value in payload.items()
        if not isinstance(value, (dict, list))
    }
    return format_table(section or stem, rows, markdown=True)


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
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj.tolist() if isinstance(obj, np.ndarray) else str(obj)


def _cell(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def format_rows(
    title: str, header: list[str], rows: dict[str, list], *, markdown: bool = False
) -> str:
    """Render ``rows`` (label -> cells) under ``title`` and ``header``:
    an aligned text table for benchmark stdout, or with ``markdown`` a
    Markdown table below the title line.  Floats print as ``.4g``."""
    lines = [[str(label), *map(_cell, cells)] for label, cells in rows.items()]
    if markdown:
        return "\n".join(
            [title, "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
            + ["| " + " | ".join(cells) + " |" for cells in lines]
        )
    widths = [max(len(h), 12) for h in header]
    return "\n".join(
        [title]
        + ["  ".join(c.ljust(w) for c, w in zip(cells, widths)) for cells in [header, *lines]]
    )
