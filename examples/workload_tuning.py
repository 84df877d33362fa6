#!/usr/bin/env python
"""Workload-driven layout tuning: session replay + the level-order advisor.

Section III-A2's user story, end to end:

1. an analyst explores a dataset; their session is kept as a plain list
   of queries;
2. the list is replayed cold (``cold_batch``) against candidate level
   orders to see what the session *would have cost* under each layout;
3. the advisor distills the same decision from a declarative workload
   profile — useful before any data exists.

Run:  python examples/workload_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import s3d_like
from repro.harness import QueryClass, WorkloadProfile, cold_batch, recommend_level_order
from repro.pfs import PFSCostModel, SimulatedPFS


def main() -> None:
    flame = s3d_like((96, 96, 96), seed=23)
    byte_scale = (8 << 30) / flame.nbytes  # 8 GB-class accounting
    fs = SimulatedPFS(PFSCostModel(byte_scale=byte_scale))
    config = mloc_col(chunk_shape=(16, 16, 16), n_bins=16, target_block_bytes=4096)

    # Build both candidate layouts over the same data.
    stores: dict[str, MLOCStore] = {}
    for order in ("VMS", "VSM"):
        cfg = mloc_col(
            chunk_shape=(16, 16, 16),
            n_bins=16,
            level_order=order,
            target_block_bytes=4096,
        )
        MLOCWriter(fs, f"/tune/{order}", cfg).write(flame, variable="T")
        stores[order] = MLOCStore.open(fs, f"/tune/{order}", "T", n_ranks=8)

    # ------------------------------------------------------------------
    # 1. Record an analyst session (PLoD-heavy statistics pass).
    # ------------------------------------------------------------------
    rng = np.random.default_rng(3)
    lo = float(np.quantile(flame, 0.97))
    session = [
        Query(
            region=tuple((int(o), int(o) + 48) for o in rng.integers(0, 48, size=3)),
            output="values",
            plod_level=2,
        )
        for _ in range(6)
    ] + [Query(value_range=(lo, float(flame.max())), output="positions")]
    for query in session:
        stores["VMS"].query(query)
    print(f"recorded session: {len(session)} queries")

    # ------------------------------------------------------------------
    # 2. Replay the session under each candidate order.
    # ------------------------------------------------------------------
    print(f"\n{'order':>6} {'session total (s)':>18} {'mean/query (s)':>15}")
    for order, store in stores.items():
        total = cold_batch(store, session).times.total
        print(f"{order:>6} {total:>18.2f} {total / len(session):>15.2f}")

    # ------------------------------------------------------------------
    # 3. Ask the advisor the same question declaratively.
    # ------------------------------------------------------------------
    profile = WorkloadProfile(
        (
            (QueryClass("value", selectivity=0.10, plod_level=2), 6.0),
            (QueryClass("region", selectivity=0.03), 1.0),
        )
    )
    advice = recommend_level_order(
        flame[:48, :48, :48],  # a representative sample
        profile,
        config,
        cost_model=fs.cost_model,
        n_queries=4,
    )
    print(f"\nadvisor scores: " + ", ".join(
        f"{order}={score:.2f}s" for order, score in sorted(advice.scores.items())
    ))
    print(f"advisor recommends: {advice.recommended}")
    assert advice.recommended == "VMS"  # PLoD-heavy -> byte-group major
    print("workload tuning OK")


if __name__ == "__main__":
    main()
