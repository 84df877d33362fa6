"""In-situ ingest serving: query latency under concurrent appends.

The acceptance experiment of the appendable-manifest refactor (ISSUE
PR 10): a simulation emits timesteps on a fixed cadence while two
analyst tenants query mid-run.  Three headline numbers land in
``results/BENCH_insitu_ingest.json``:

* **time-to-first-queryable-timestep** — seal time of the first
  member (arrival -> manifest commit on the simulated clock);
* **query latency with vs without concurrent appends** — the same
  query trace replayed against an actively ingesting dataset and
  against the same dataset fully sealed up front;
* **ingest throughput** — raw simulation bytes absorbed per simulated
  second of staging time.

Asserted, not just recorded:

* mid-run queries complete against *earlier* generations while later
  appends are still landing (the snapshot-pinning story), and each
  result is bit-identical to a fresh open pinned at that generation;
* one append touches only the new member's directory plus one new
  immutable manifest file — no whole-dataset index is rebuilt;
* the manifest work of an append does not grow with the campaign:
  ``manifest_scaling`` records the manifest bytes written and parsed
  per append, and their share of stored bytes, at generations 10, 100
  and 1 000 of a 96² campaign in the e2e benchmark's layout, and fails
  when the share at 1 000 exceeds 3 % or an append parses more at a
  later generation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import MLOCDataset, Query, mloc_col
from repro.core.manifest import CHECKPOINT_EVERY, manifest_path
from repro.datasets import gts_like
from repro.harness import record_result
from repro.pfs import SimulatedPFS
from repro.server import (
    BrokerCore,
    IngestQueryEvent,
    IngestReplay,
    IngestSession,
    TimestepArrival,
    replay,
)
from tests.counting_pfs import CountingPFS

N_TIMESTEPS = 8
CADENCE_S = 2.0  # simulation output interval
GRID = (128, 128)

RESULTS: dict[str, object] = {}


def _config():
    return mloc_col(chunk_shape=(32, 32), n_bins=16, target_block_bytes=8 * 1024)


def _arrivals(*, start: float, cadence: float) -> list[TimestepArrival]:
    return [
        TimestepArrival(
            time=start + t * cadence,
            variable="temp",
            timestep=t,
            data=gts_like(GRID, seed=100 + t),
        )
        for t in range(N_TIMESTEPS)
    ]


def _query_trace(start: float) -> list[IngestQueryEvent]:
    """Two tenants probing mid-run: latest-sealed scans and targeted
    timesteps (some still in flight when requested)."""
    rng = np.random.default_rng(42)
    events = []
    for i in range(2 * N_TIMESTEPS):
        tenant = f"analyst-{i % 2}"
        lo = int(rng.integers(0, GRID[0] - 48))
        query = Query(region=((lo, lo + 48), (lo, lo + 48)), output="values")
        # Half the trace asks for "newest sealed", half pins the *next*
        # timestep — not yet arrived when the query lands, so the
        # request stalls until its seal (the eager-analyst pattern).
        timestep = None if i % 2 == 0 else min(i // 2 + 1, N_TIMESTEPS - 1)
        events.append(
            IngestQueryEvent(
                arrival=start + i * CADENCE_S / 2.0,
                tenant=tenant,
                variable="temp",
                query=query,
                timestep=timestep,
            )
        )
    return events


def test_ingest_overlap_vs_sealed_baseline():
    # --- overlapped run: appends and queries share the clock ---------
    fs = SimulatedPFS()
    dataset = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    session = IngestSession(dataset, _arrivals(start=0.0, cadence=CADENCE_S))
    events = _query_trace(start=1.0)
    overlap = replay(BrokerCore(), IngestReplay(session, events, keep_results=True))
    summary = overlap.as_dict()

    assert summary["dropped"] == 0
    assert summary["n_requests"] == len(events)
    final_generation = dataset.generation
    served_generations = sorted({s[3] for s in overlap.samples})
    assert served_generations[0] < final_generation, (
        "no query completed against an earlier generation — snapshot "
        "pinning under concurrent appends is not being exercised"
    )
    assert summary["generations_seen"] > 1
    assert summary["first_queryable_s"] < CADENCE_S, (
        "first timestep should be queryable before the second arrives"
    )
    assert summary["stalled_requests"] >= 1
    assert summary["ingest_stall_seconds"] > 0.0

    # Mid-run results are bit-identical to a fresh open pinned at the
    # generation each query was served against.
    check = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    for (_, _, _, generation, timestep, _), event, served in zip(
        overlap.samples, sorted(events, key=lambda e: e.arrival), overlap.results
    ):
        expected = check.snapshot(generation).store("temp", timestep).query(
            event.query
        )
        assert np.array_equal(served.positions, expected.positions)
        assert np.array_equal(served.values, expected.values)
    RESULTS["overlap"] = summary
    RESULTS["served_generations"] = served_generations
    RESULTS["final_generation"] = final_generation

    # --- sealed baseline: identical trace, everything sealed first --
    fs2 = SimulatedPFS()
    dataset2 = MLOCDataset(fs2, "/ds", _config(), n_ranks=4)
    presession = IngestSession(dataset2, _arrivals(start=0.0, cadence=0.0))
    presession.advance_to(math.inf)
    sealed_start = presession.appended[-1].sealed_at
    baseline = replay(
        BrokerCore(),
        IngestReplay(IngestSession(dataset2, []), _query_trace(start=sealed_start + 1.0)),
    )
    base_summary = baseline.as_dict()
    assert base_summary["dropped"] == 0
    assert base_summary["stalled_requests"] == 0
    assert base_summary["ingest_stall_seconds"] == 0.0
    RESULTS["sealed_baseline"] = base_summary
    RESULTS["latency_overhead_p50"] = round(
        summary["latency_p50_s"] - base_summary["latency_p50_s"], 6
    )

    RESULTS["ingest"] = {
        "n_timesteps": N_TIMESTEPS,
        "cadence_s": CADENCE_S,
        "grid": list(GRID),
        "first_queryable_s": summary["first_queryable_s"],
        "throughput_raw_bytes_per_s": summary["ingest_throughput_bps"],
        "raw_bytes": session.raw_bytes,
        "stored_bytes": session.stored_bytes,
    }


def test_append_touches_only_new_member_and_manifest():
    """No full-dataset reindex: the file-set delta of one append is the
    new member's directory plus exactly one new manifest generation."""
    fs = SimulatedPFS()
    dataset = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    for t in range(3):
        dataset.append(gts_like(GRID, seed=t), "temp", t)
    before = {p: fs.total_bytes(p) for p in fs.list_files("/ds/")}
    dataset.append(gts_like(GRID, seed=3), "temp", 3)
    after = {p: fs.total_bytes(p) for p in fs.list_files("/ds/")}

    changed = {p for p in after if before.get(p) != after[p]}
    new_manifests = {p for p in changed if "/manifest.g" in p}
    assert len(new_manifests) == 1
    member_files = changed - new_manifests
    assert member_files, "append wrote no member files"
    assert all(p.startswith("/ds/temp@000003/") for p in member_files), (
        f"append touched files outside the new member: {sorted(member_files)}"
    )
    # Existing files are immutable: nothing previously on disk changed.
    assert all(before[p] == after[p] for p in before)
    RESULTS["append_delta"] = {
        "new_member_files": len(member_files),
        "new_manifest_files": len(new_manifests),
        "preexisting_files_changed": 0,
    }


SCALING_AT = (10, 100, 1000)
SCALING_MAX_SHARE = 0.03


def test_manifest_scaling():
    """Manifest bytes per append stay flat over a 1 000-timestep campaign
    (96², 32x32 chunks, 32 bins: the e2e ``ingest_append`` layout)."""
    fs = CountingPFS()
    config = mloc_col(chunk_shape=(32, 32), n_bins=32)
    dataset = MLOCDataset(fs, "/ds", config, n_ranks=4)
    fields = [gts_like((96, 96), seed=s) for s in range(10)]
    rows = {}
    for t in range(max(SCALING_AT)):
        dataset.append(fields[t % len(fields)], "phi", t)
        generation = t + 1
        if generation not in SCALING_AT:
            continue
        parsed = fs.manifest_read
        MLOCDataset(fs, "/ds", config, n_ranks=4).snapshot()  # a fresh handle
        manifest_bytes = fs.total_bytes("/ds/manifest.g")
        stored = fs.total_bytes("/ds/")
        rows[str(generation)] = [
            round(fs.manifest_written / generation, 1),
            round(parsed / generation, 1),
            fs.size(manifest_path("/ds", generation)),
            fs.manifest_read - parsed,
            manifest_bytes,
            stored,
            round(manifest_bytes / stored, 5),
        ]
        fs.manifest_read = parsed
    parsed_per_append, last_written = ({row[i] for row in rows.values()} for i in (1, 2))
    assert len(parsed_per_append) == 1 and len(last_written) == 1
    assert rows[str(max(SCALING_AT))][-1] <= SCALING_MAX_SHARE
    RESULTS["manifest_scaling"] = {"checkpoint_every": CHECKPOINT_EVERY, "rows": rows}


def teardown_module(module) -> None:
    assert RESULTS, "in-situ ingest benchmarks did not run"
    path = record_result("BENCH_insitu_ingest", RESULTS)
    print(f"\nin-situ ingest results -> {path}")
