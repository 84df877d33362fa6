"""The run protocol: set-up, timed passes, traced pass, verification.

One call of :func:`run` is one workload run in this process.  Timing
metrics come from the per-operation **minimum over the untraced
passes** (a slow spell of the host drops out; a tail the program causes
repeats in every pass and stays).  Per-layer metrics come from one
extra pass with the tracer installed and are never mixed into the
end-to-end numbers.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from benchmarks.e2e import adapter
from benchmarks.e2e.layers import LAYER_METRICS, TraceView, layer_metrics
from benchmarks.e2e.trace import FIELDS, Tracer
from benchmarks.e2e.workloads import WORKLOADS, PassResult, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
CONTRACT = HERE.parents[1] / "BENCHMARK.json"

MIN_PASSES = {"ref": 3, "tiny": 2}
#: Set-up runs again before every second pass, five times at most.
SETUP_EVERY = 2
MAX_SETUPS = 5
SWEEP_WORKERS = min(os.cpu_count() or 1, 2)


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


def host_kernel_ms() -> float:
    """A fixed NumPy-sort + zlib + Python-loop kernel: how fast is the
    host right now?  Diagnostic for drift between runs, never used to
    normalise a metric."""
    rng = np.random.default_rng(12345)
    values = rng.random(200_000)
    blob = values[:32_768].tobytes()
    t0 = time.perf_counter()
    np.sort(values)
    zlib.compress(blob, 6)
    total = 0
    for i in range(100_000):
        total += i & 7
    return (time.perf_counter() - t0) * 1e3


def _timed_setup(workload: Workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def _timed_window(workload: Workload, seconds: float, min_passes: int):
    """Set-ups and untraced passes, interleaved, for ``seconds``.

    The reference host alternates between a fast and a ~1.6x slower
    state in spells of 15-25 s.  Many short passes over a window longer
    than a spell give every operation a sample in the fast state, which
    is what the per-operation minimum keeps; set-up is repeated across
    the same window for the same reason.  The last pass keeps its
    results for the oracle, so verification costs no pass of its own.
    Returns the set-up times, the passes, the host probe readings and
    the peak RSS before the kept pass.
    """
    setups: list[float] = []
    passes: list[PassResult] = []
    host_ms: list[float] = []
    started = time.perf_counter()
    while True:
        if len(passes) % SETUP_EVERY == 0 and len(setups) < MAX_SETUPS:
            setups.append(_timed_setup(workload))
        host_ms.append(host_kernel_ms())
        n, elapsed = len(passes), time.perf_counter() - started
        last = n + 1 >= min_passes and elapsed + 2 * elapsed / max(n, 1) > seconds
        if last:
            rss_mb = _peak_rss_mb()
        passes.append(workload.run_pass(keep=last))
        if last:
            return setups, passes, host_ms, rss_mb


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(workload: Workload, passes: list, setups: list, rss_mb: float,
               attempted: int, failed: int) -> dict:
    """The ten end-to-end metrics from the untraced passes."""
    best = np.min([p.latency_s for p in passes], axis=0)
    busy_s = float(best.sum()) / workload.clients
    last = passes[-1]
    n = last.n_ops
    return {
        "setup_s": min(setups),
        "ops_per_s": n / busy_s,
        "mb_per_s": float(last.payload_bytes.sum()) / 1e6 / busy_s,
        "op_p50_ms": _percentile(best, 50) * 1e3,
        "op_p90_ms": _percentile(best, 90) * 1e3,
        "ok_rate": 1.0 - failed / attempted,
        "sim_s_per_op": float(last.sim_s.mean()),
        "pfs_kb_per_op": float(last.pfs_bytes.mean()) / 1024.0,
        "stored_ratio": last.stored_bytes / last.raw_bytes,
        "peak_rss_mb": rss_mb,
    }


def _traced_pass(workload: Workload, **variant):
    with Tracer() as tracer:
        result = workload.run_pass(tracer.recorder, **variant)
    view = TraceView(tracer.recorder.spans, tracer.missing, result.n_ops, result.counters)
    return result, view, tracer


def _traced_run(workload: Workload, out_path: Path):
    """Set-up, an untraced pass either side of the traced pass (the
    second keeps its results for the oracle), then the decision sweeps;
    returns what :func:`_timed_window` returns plus the per-layer metrics."""
    setups = [_timed_setup(workload)]
    host_ms = [host_kernel_ms()]
    passes = [workload.run_pass()]
    traced, view, tracer = _traced_pass(workload)
    host_ms.append(host_kernel_ms())
    rss_mb = _peak_rss_mb()
    passes.append(workload.run_pass(keep=True))
    walls = [p.wall_s for p in passes]
    best = min(passes, key=lambda p: p.wall_s)
    extra = {
        "traced_latency_ms": float(traced.latency_s.mean()) * 1e3,
        "bench.untraced_ms": float(best.latency_s.mean()) * 1e3,
        "bench.trace_overhead_ratio": traced.wall_s / statistics.mean(walls),
        "bench.pass_spread": max(walls) / min(walls),
        "bench.host_ms": min(host_ms),
    }
    if workload.name == "vc_regions":
        # HBI on/off, both traced and back to back so the ratio is fair.
        hbi, extra["hbi_view"], _ = _traced_pass(workload, use_hbi=True)
        extra["hbi.wall_ratio"] = hbi.wall_s / traced.wall_s
        extra["hbi.sim_ratio"] = float(hbi.sim_s.sum() / traced.sim_s.sum())
    if workload.name == "sc_values_cold":
        # Pool backends against serial on the first third of the (shuffled)
        # operations: the break-even evidence, at a third of a pass each.
        n = max(1, len(workload.ops) // 3)
        serial = float(np.mean([p.latency_s[:n] for p in passes], axis=0).sum())
        try:
            for backend in ("threads", "processes"):
                options = {"backend": backend, "workers": SWEEP_WORKERS}
                workload.run_pass(first=2, **options)  # start the workers untimed
                sweep = workload.run_pass(first=n, **options)
                extra[f"procpool.{backend}_ratio"] = float(sweep.latency_s[:n].sum()) / serial
        finally:
            adapter.stop_child_processes()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "workload": workload.name,
        "missing_targets": sorted(tracer.missing),
        "fields": FIELDS,
        "spans": tracer.recorder.spans,
    }))
    return setups, passes, host_ms, rss_mb, layer_metrics(view, extra)


def run(name: str, *, seed: int = 0, seconds: float = 10.0, trace: bool = False,
        scale: str = "ref", check: bool = False) -> dict:
    """One run of one workload; returns the full result record."""
    workload = WORKLOADS[name](seed, scale)
    record: dict = {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "n_ops": 0, "clients": workload.clients,
    }
    if check:
        workload.setup()
        passes = [workload.run_pass(keep=True)]
    elif trace:
        setups, passes, host_ms, rss_mb, record["per_layer"] = _traced_run(
            workload, OUT_DIR / f"trace_{name}.json"
        )
    else:
        setups, passes, host_ms, rss_mb = _timed_window(
            workload, seconds, MIN_PASSES[scale]
        )
    failures = workload.verify(passes[-1])
    messages = [f for f in failures if f is not None]
    record["n_ops"] = len(failures)
    record["attempted"] = len(failures) * len(passes)
    record["failed"] = len(messages) + sum(
        e is not None for p in passes[:-1] for e in p.errors
    )
    record["failures"] = messages[:10]
    if not check:
        record["passes"] = len(passes)
        record["pass_wall_s"] = [p.wall_s for p in passes]
        record["host_ms"] = host_ms
        record["setup_s"] = setups
        record["end_to_end"] = end_to_end(
            workload, passes, setups, rss_mb, record["attempted"], record["failed"]
        )
    return record


def driver_line(record: dict, contract: dict) -> str:
    """The one-line result the contract asks for (last line of stdout)."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract[section]
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def layer_names() -> list[str]:
    return [m.name for m in LAYER_METRICS]
