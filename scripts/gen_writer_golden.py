#!/usr/bin/env python
"""Regenerate the writer golden file from the current writer.

The writer is one deterministic pass; this file pins the *bytes
themselves*: the SHA-256 of every file a write leaves under the
variable root (per-bin data and index subfiles, ``meta``, ``hbi``,
``peb``) plus every :class:`WriteReport` field, over a matrix chosen to hit what a restructured encode pass can get wrong —
a non-power-of-two chunk grid, 3-D and non-square chunks, a single
chunk, block targets small enough to cut inside a bin and inside one
chunk's cell run, both cell nestings and the whole-value layout, every
curve, and a rounded plateau field under equal-width binning (empty
cells, empty bins, empty (bin, run) index leaves, exact zeros).

The committed file was captured at ``ec49fe9``, the last commit of the
per-(chunk, bin, byte group) writer, before ``writer.py`` was touched;
the slab writer reproduces it exactly at any slab size
(``tests/test_writer_golden.py``).  Run from the repo root only after
an *intentional* FORMAT change:

    PYTHONPATH=src python scripts/gen_writer_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from repro.core import MLOCWriter
from repro.core.config import MLOCConfig
from repro.datasets import gts_like, s3d_like
from repro.pfs import SimulatedPFS

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "writer_golden.json"

#: (array shape, chunk shape); the chunk grids are 3x3 (not a power of
#: two), 4x4x4, 8x2 (unequal extents), 1x1 and 16x16.
SHAPES = (
    ((96, 96), (32, 32)),
    ((64, 64, 64), (16, 16, 16)),
    ((128, 64), (16, 32)),
    ((32, 32), (32, 32)),
    ((256, 256), (16, 16)),
)
LAYOUTS = (("VMS", "zlib-bytes"), ("VSM", "zlib-bytes"), ("VS", "isobar"))
CURVES = ("hilbert", "zorder", "rowmajor", "hierarchical")
#: One stripe (never reached: one block per stream), and two targets
#: small enough to cut inside a bin and inside a slab of chunks.
BLOCK_TARGETS = (1 << 20, 4096, 700)
BIN_COUNTS = (5, 32)
FIELDS = ("smooth", "plateau")


def _hierarchical_ok(shape, chunk_shape) -> bool:
    grid = [s // c for s, c in zip(shape, chunk_shape)]
    return len(set(grid)) == 1 and grid[0] & (grid[0] - 1) == 0


def _case(shape, chunk_shape, layout, curve, target, n_bins, field) -> dict:
    return {
        "shape": list(shape),
        "chunk_shape": list(chunk_shape),
        "level_order": layout[0],
        "codec": layout[1],
        "curve": curve,
        "target_block_bytes": target,
        "n_bins": n_bins,
        "field": field,
    }


def build_cases() -> list[dict]:
    """The case matrix: every (shape, layout, curve) once with the
    block target, bin count and field rotating through their twelve
    combinations; those twelve in full for each layout on the e2e
    benchmark's 96²/32² timestep; and one lossy ``isabela`` store."""
    cases: list[dict] = []
    rotation = itertools.cycle(itertools.product(BLOCK_TARGETS, BIN_COUNTS, FIELDS))
    for shape, chunk_shape in SHAPES:
        for layout in LAYOUTS:
            for curve in CURVES:
                if curve == "hierarchical" and not _hierarchical_ok(shape, chunk_shape):
                    continue
                cases.append(_case(shape, chunk_shape, layout, curve, *next(rotation)))
    shape, chunk_shape = SHAPES[0]
    for layout in LAYOUTS:
        for combo in itertools.product(BLOCK_TARGETS, BIN_COUNTS, FIELDS):
            case = _case(shape, chunk_shape, layout, "hilbert", *combo)
            if case not in cases:
                cases.append(case)
    cases.append(_case((128, 64), (16, 32), ("VS", "isabela"), "hilbert", 4096, 5, "smooth"))
    return cases


def case_id(case: dict) -> str:
    return "-".join(
        [
            "x".join(map(str, case["shape"])),
            "x".join(map(str, case["chunk_shape"])),
            case["level_order"],
            case["codec"],
            case["curve"],
            str(case["target_block_bytes"]),
            f"{case['n_bins']}bins",
            case["field"],
        ]
    )


@functools.lru_cache(maxsize=None)
def _smooth_field(shape: tuple[int, ...]) -> np.ndarray:
    field = gts_like(shape, seed=5) if len(shape) == 2 else s3d_like(shape, seed=5)
    field.setflags(write=False)  # one instance serves every case of a shape
    return field


def make_field(case: dict) -> np.ndarray:
    smooth = _smooth_field(tuple(case["shape"]))
    if case["field"] == "smooth":
        return smooth
    # Five plateaus 0.0 .. 4.0: spatially clustered, so most (bin,
    # chunk) cells are empty, and 0.0 takes the zero guard of the
    # relative-error bounds.
    lo, hi = float(smooth.min()), float(smooth.max())
    return np.round((smooth - lo) / (hi - lo) * 4.0)


def make_config(case: dict) -> MLOCConfig:
    return MLOCConfig(
        chunk_shape=tuple(case["chunk_shape"]),
        n_bins=case["n_bins"],
        level_order=case["level_order"],
        curve=case["curve"],
        codec=case["codec"],
        target_block_bytes=case["target_block_bytes"],
        binning="equal-width" if case["field"] == "plateau" else "equal-frequency",
    )


def capture(case: dict) -> dict:
    """Write one case into a fresh file system and digest what it left."""
    fs = SimulatedPFS()
    report = MLOCWriter(fs, "/g", make_config(case)).write(make_field(case), variable="v")
    session = fs.session()
    prefix = "/g/v/"
    files = {
        path[len(prefix):]: hashlib.sha256(
            bytes(session.open(path).read_all())
        ).hexdigest()
        for path in fs.list_files(prefix)
    }
    return {"files": files, "report": dataclasses.asdict(report)}


def main() -> None:
    golden = {}
    for case in build_cases():
        golden[case_id(case)] = {"case": case, **capture(case)}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in golden.items()]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} cases to {OUT}")


if __name__ == "__main__":
    main()
