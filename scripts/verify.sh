#!/usr/bin/env sh
# One-command verification gate: lint (if ruff is available) + layer
# boundaries + tier-1 tests + the end-to-end benchmark's oracle on all
# four workloads (tiny inputs, nothing timed) + its trace-table test (a
# rename that leaves a TARGETS string unresolved would silently null a
# per-layer metric; here it fails).
# Usage: scripts/verify.sh  (or: make verify)
set -eu

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

echo "== layer boundaries =="
python scripts/check_layers.py

echo "== tier-1 tests =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "== e2e benchmark oracle (tiny scale, nothing timed) =="
for workload in ingest_append sc_values_cold vc_regions serve_overlap; do
    python3 benchmarks/e2e/__main__.py --workload "$workload" --check
done

echo "== e2e trace table resolves =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks/e2e/test_trace.py -q
