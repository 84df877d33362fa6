"""Extension benchmark: multi-variable access (Section III-D4).

The paper describes the mechanism (region-only select -> WAH bitmap
exchange -> value retrieval on other variables) without a numbered
table.  This benchmark quantifies it: a two-variable join against the
naive alternative of retrieving *all* of variable B inside the region
and filtering client-side.
"""

import numpy as np
import pytest

from benchmarks.conftest import attach_sim_info
from repro.core import (
    MLOCDataset,
    Query,
    mloc_col,
    multi_variable_query,
)
from repro.datasets import gts_like
from repro.harness import format_table, get_spec, record_result
from repro.pfs import PFSCostModel, SimulatedPFS


@pytest.fixture(scope="module")
def joined_vars():
    spec = get_spec("8g", "gts")
    fs = SimulatedPFS(PFSCostModel(byte_scale=spec.byte_scale))
    block = max(4096, int(round(fs.cost_model.stripe_size / spec.byte_scale)))
    cfg = mloc_col(
        chunk_shape=spec.chunk_shape, n_bins=spec.n_bins, target_block_bytes=block
    )
    shape = spec.shape
    temp = gts_like(shape, seed=61)
    # Superpose a localized hot spot so the selecting constraint has
    # spatial structure (a burst region), as in the paper's motivating
    # "abnormally high temperature" scenario — a selector whose hits
    # are scattered over every chunk would make *any* masked fetch
    # degenerate to a full read.
    import numpy as _np

    yy, xx = _np.meshgrid(
        _np.linspace(-1, 1, shape[0]), _np.linspace(-1, 1, shape[1]), indexing="ij"
    )
    temp = temp + 3.0 * _np.exp(-(((yy - 0.3) ** 2 + (xx + 0.2) ** 2) / 0.02))
    hum = gts_like(shape, seed=62)
    dataset = MLOCDataset(fs, "/join", cfg, n_ranks=8)
    dataset.append(temp, "temp")
    dataset.append(hum, "humidity")
    return fs, temp, hum, dataset.snapshot()


@pytest.mark.parametrize("selectivity", [0.01, 0.10])
def test_multivar_join(benchmark, joined_vars, selectivity):
    fs, temp, hum, snapshot = joined_vars
    flat = temp.reshape(-1)
    lo = float(np.quantile(flat, 1.0 - selectivity))

    def run():
        fs.clear_cache()
        return multi_variable_query(
            snapshot.store("temp"), [snapshot.store("humidity")], (lo, float(flat.max()))
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    attach_sim_info(benchmark, result.times, n_results=result.positions.size)


def test_ext_multivar_report(benchmark, joined_vars, capsys):
    fs, temp, hum, snapshot = joined_vars
    flat = temp.reshape(-1)

    def compute():
        from repro.index.bitmap import Bitmap

        h_store = snapshot.store("humidity")
        t_store = snapshot.store("temp")
        rows = {}
        for selectivity in (0.01, 0.05, 0.20):
            lo = float(np.quantile(flat, 1.0 - selectivity))
            hi = float(flat.max())
            # Shared selection step (identical in both strategies).
            fs.clear_cache()
            selected = t_store.query(
                Query(value_range=(lo, hi), output="positions")
            )
            bitmap = Bitmap.from_positions(selected.positions, t_store.n_elements)

            # MLOC's mechanism: bitmap-masked fetch of humidity.
            fs.clear_cache()
            fetched = h_store.fetch_positions(bitmap)

            # Naive alternative: retrieve ALL humidity values and mask
            # client-side.
            fs.clear_cache()
            h_all = h_store.query(Query(output="values"))

            rows[f"sel {selectivity:.0%}"] = [
                round(fetched.times.total, 2),
                round(h_all.times.total, 2),
                round(h_all.times.total / fetched.times.total, 1),
                int(selected.positions.size),
            ]
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("ext_multivar", rows))
    record_result("ext_multivar", {"rows": rows})

    # The bitmap-masked fetch must beat retrieving the whole second
    # variable, and its advantage must not grow with selectivity (the
    # masked fetch degenerates to a full read as hits spread).
    assert rows["sel 1%"][2] > 1.2
    assert rows["sel 1%"][2] >= rows["sel 20%"][2] * 0.8
