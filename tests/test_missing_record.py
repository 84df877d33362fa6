"""Records are read, never rebuilt.

Every writer persists ``hbi`` (any layout) and ``peb`` (PLoD layouts).
A store that lost one is damaged: the property raises the typed error
naming the path, a query that needs the record fails instead of
rebuilding it in O(store), and fsck names the gap — from both the
per-variable and the dataset check.
"""

from __future__ import annotations

import pytest

from repro.core import (
    MissingRecordError,
    MLOCDataset,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
    mloc_iso,
)
from repro.datasets import gts_like
from repro.index.hbi import hbi_path
from repro.pfs import SimulatedPFS
from repro.plod.bounds import peb_path
from repro.tools.fsck import check_dataset, check_store

KEY = "temp@000000"
RECORDS = {
    # record -> (its path, handle keywords, a query that reads it)
    "hbi": (hbi_path, {"use_hbi": True}, Query(value_range=(0.2, 0.8))),
    "peb": (peb_path, {}, Query(value_range=(0.2, 0.8), tol=1e-3)),
}
CHECKS = {
    "check_store": lambda fs: check_store(fs, "/ds", KEY),
    "check_dataset": lambda fs: check_dataset(fs, "/ds"),
}


def _sealed(config) -> SimulatedPFS:
    fs = SimulatedPFS()
    MLOCDataset(fs, "/ds", config, n_ranks=2).append(gts_like((64, 64), seed=3), "temp", 0)
    return fs


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("record", RECORDS)
def test_a_lost_record_is_an_error_everywhere(record, check):
    path_of, handle, query = RECORDS[record]
    fs = _sealed(mloc_col(chunk_shape=(16, 16), n_bins=8))
    path = path_of(f"/ds/{KEY}")
    assert CHECKS[check](fs) == []
    MLOCStore.open(fs, "/ds", KEY, **handle).query(query)  # intact: answers

    fs.delete(path)
    store = MLOCStore.open(fs, "/ds", KEY, **handle)
    with pytest.raises(MissingRecordError) as lost:
        getattr(store, record)
    assert lost.value.path == path
    with pytest.raises(MissingRecordError):
        store.query(query)
    assert not fs.exists(path), "the query path rebuilt the record"

    issues = CHECKS[check](fs)
    assert [(i.kind, i.path, i.severity) for i in issues] == [
        ("missing-record", path, "error")
    ]


def test_a_whole_value_layout_has_no_peb_to_lose():
    fs = SimulatedPFS()
    MLOCWriter(fs, "/vs", mloc_iso((16, 16), n_bins=8)).write(gts_like((64, 64), seed=3), "f")
    assert not fs.exists(peb_path("/vs/f"))
    assert check_store(fs, "/vs", "f") == []
    assert check_dataset(_sealed(mloc_iso((16, 16), n_bins=8)), "/ds") == []
