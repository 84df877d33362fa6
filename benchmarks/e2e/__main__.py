"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``.

Run as a plain script (how ``BENCHMARK.json`` runs it) this file makes
the repository root and ``src`` importable itself, so no ``PYTHONPATH``
is needed.  The thread pins and environment clean-up happen here,
before NumPy is imported.
"""

import os
import signal
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _prepare_process() -> None:
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in ("MLOC_HBI", "MLOC_PROC_WORKERS", "REPRO_SCALE", "REPRO_QUERIES"):
        os.environ.pop(name, None)
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.e2e: the program under test is missing ({REPO / 'src' / 'repro'})")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]  # our modules are not top-level
    for path in (REPO, REPO / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


if __name__ == "__main__":
    _prepare_process()
    # A polite kill unwinds like any other exit, so child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from benchmarks.e2e.cli import main

    sys.exit(main())
