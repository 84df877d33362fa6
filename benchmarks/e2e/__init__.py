"""Wall-clock end-to-end benchmark of the MLOC reproduction.

Four closed-loop workloads over the in-memory simulated PFS, ten
end-to-end metrics per workload, and a traced run that splits the time
per layer.  See ``README.md`` in this directory for every metric and
workload; ``BENCHMARK.json`` at the repository root is the contract
(names, units, directions, regression bounds).

Run as ``PYTHONPATH=src python -m benchmarks.e2e`` (or
``python3 benchmarks/e2e/__main__.py``, which finds ``src`` itself).
"""
