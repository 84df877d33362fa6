"""Start-up footprint: importing the library loads no scipy.

ISABELA is the only codec that needs scipy, and it imports
``scipy.interpolate`` on its first spline fit or evaluation
(``scripts/check_layers.py`` rule 13).  So every entry point — the
CLI, a spawned pool worker, a benchmark run — starts without scipy's
modules unless it runs MLOC-ISA.  The check runs in a fresh
interpreter: this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys

import repro, repro.cli, repro.server, repro.harness, repro.bench, repro.tools.fsck

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_modules()

import numpy as np
from repro.compression import make_codec

codec = make_codec("isabela")
values = np.sin(np.linspace(0.0, 20.0, 4096)) * 10.0
decoded = codec.decode(codec.encode(values), values.size)
print(json.dumps({
    "at_import": at_import,
    "after_round_trip": "scipy.interpolate" in sys.modules,
    "max_error": float(np.abs(decoded - values).max()),
    "bound": 0.5 * codec.error_rate * float(np.abs(values).max()),
}))
"""


def test_importing_the_library_loads_no_scipy_until_isabela_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["at_import"] == []
    assert report["after_round_trip"] is True
    assert report["max_error"] <= report["bound"] * (1 + 1e-9)
