#!/usr/bin/env python
"""In-situ pipeline: query the campaign *while* it is being produced.

Models the integration the paper targets (intro contribution 4 and the
conclusion's future work): a running simulation hands each timestep to
a staging node (:class:`~repro.server.IngestSession`), which runs
MLOC's layout optimization + compression *in situ* and seals it with an
atomic manifest bump (:meth:`~repro.core.dataset.MLOCDataset.append`),
on the simulated clock: one append occupies the node for the modeled
drain time of the member's *stored* bytes.  An analyst pins a
:class:`~repro.core.dataset.DatasetSnapshot` mid-run and explores the
sealed prefix of the campaign — appends landing behind their back
never change an answer — then a new ``dataset.snapshot()`` surfaces
new timesteps.

The closing check is the refactor's core guarantee: every mid-run
answer is bit-identical to the same query against a post-hoc open of
the fully sealed campaign, pinned at the generation the analyst saw.

Run:  python examples/insitu_simulation_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import MLOCDataset, Query, SimulatedPFS, mloc_col
from repro.datasets import gts_like
from repro.server import IngestSession, TimestepArrival


def simulate_timestep(t: int) -> np.ndarray:
    """A toy 'simulation': a drifting, slowly heating potential field."""
    base = gts_like((256, 256), seed=100 + t)
    heating = 1.0 + 0.05 * t
    return base * heating


CADENCE_S = 2.0  # simulated seconds between simulation outputs
THRESHOLD = 5.2
HOT_QUERY = Query(value_range=(THRESHOLD, np.inf), output="positions")


def main() -> None:
    fs = SimulatedPFS()
    config = mloc_col(chunk_shape=(32, 32), n_bins=32)
    dataset = MLOCDataset(fs, "/campaign", config, n_ranks=8)

    # ------------------------------------------------------------------
    # Simulation loop: 6 timesteps arrive on a fixed cadence; the
    # analyst queries mid-run against whatever generation their
    # snapshot pins.
    # ------------------------------------------------------------------
    n_steps = 6
    session = IngestSession(
        dataset,
        [
            TimestepArrival(t * CADENCE_S, "potential", t, simulate_timestep(t))
            for t in range(n_steps)
        ],
    )
    midrun_answers = []  # (generation, timestep, positions) seen live
    snapshot = dataset.snapshot()  # generation 0: nothing sealed yet
    assert snapshot.timesteps("potential") == []

    for t in range(n_steps):
        now = (t + 0.5) * CADENCE_S  # half a cadence after output t
        session.advance_to(now)
        if t % 2 == 1:  # the analyst polls every other timestep
            snapshot = dataset.snapshot()
            assert snapshot.generation == session.generation_at(now)
            latest = snapshot.timesteps("potential")[-1]
            result = snapshot.store("potential", latest).query(HOT_QUERY)
            midrun_answers.append(
                (snapshot.generation, latest, result.positions.copy())
            )
            print(
                f"  mid-run @ generation {snapshot.generation}: "
                f"t={latest} has {result.n_results} hot points "
                f"({len(snapshot.members())} sealed timesteps visible)"
            )

    print(
        f"staged {len(session.appended)} timesteps in "
        f"{dataset.generation} manifest generations: raw "
        f"{session.raw_bytes / 1e6:.1f} MB -> stored "
        f"{session.stored_bytes / 1e6:.1f} MB "
        f"({session.stored_bytes / session.raw_bytes:.0%}); first timestep "
        f"queryable {session.first_queryable_seconds * 1e3:.2f} sim-ms after "
        f"it was produced, {session.ingest_throughput() / 1e6:.0f} MB/s absorbed"
    )

    # ------------------------------------------------------------------
    # Post-hoc exploration over the fully sealed time series.
    # ------------------------------------------------------------------
    final = dataset.snapshot()
    print(f"\ntime series scan: first timestep with any value > {THRESHOLD}")
    first_hit = None
    series = final.query_series("potential", HOT_QUERY)
    for t, result in sorted(series.items()):
        print(f"  t={t}: {result.n_results:6d} hot points")
        if result.n_results and first_hit is None:
            first_hit = t
    print(f"threshold first exceeded at t={first_hit}")

    # Sanity check against brute force on the raw fields.
    expected_first = next(
        (t for t in range(n_steps) if (simulate_timestep(t) > THRESHOLD).any()),
        None,
    )
    assert first_hit == expected_first, (first_hit, expected_first)

    # ------------------------------------------------------------------
    # The snapshot-isolation guarantee: every answer the analyst saw
    # mid-run is bit-identical to a fresh post-hoc open of the sealed
    # campaign pinned at the same generation.
    # ------------------------------------------------------------------
    posthoc = MLOCDataset(fs, "/campaign", config, n_ranks=8)
    for generation, t, live_positions in midrun_answers:
        sealed_rerun = (
            posthoc.snapshot(generation=generation)
            .store("potential", t)
            .query(HOT_QUERY)
        )
        assert np.array_equal(live_positions, sealed_rerun.positions), (
            f"mid-run answer at generation {generation} diverged"
        )
    print(
        f"{len(midrun_answers)} mid-run answers match the post-hoc sealed "
        "rerun bit-for-bit — in-situ pipeline OK"
    )


if __name__ == "__main__":
    main()
