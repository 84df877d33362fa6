"""Serial vs threaded vs process decode backends.

Request by request, the backend cells of
``tests/test_contract_matrix.py``: a threaded or process-pool decode
changes no answer byte, stats key or simulated second.
"""

from __future__ import annotations

import pytest

from repro.core import MLOCStore
from tests.test_contract_matrix import check, store


@pytest.mark.parametrize("query", range(6), ids="query{}".format)
def test_col_backend_equivalence(query):
    check("threads-4", "col", only=[query])


@pytest.mark.parametrize("query", range(3), ids="query{}".format)
def test_iso_backend_equivalence(query):
    check("threads-4", "iso", only=[query])


@pytest.mark.parametrize("query", range(3), ids="query{}".format)
def test_equivalence_with_cache(query):
    check("threads-4+cache-warm", "col", only=[query])


def test_3d_batch_equivalence():
    check("threads-4+many", "col-3d")
    check("threads-4+batch", "col-3d")


@pytest.mark.parametrize("workers", (1, 2, 4, 8))
@pytest.mark.parametrize("query", range(4), ids="query{}".format)
def test_col_process_backend_equivalence(query, workers):
    check(f"processes-{workers}", "col-64", only=[query])


@pytest.mark.parametrize("query", range(3), ids="query{}".format)
def test_iso_process_backend_equivalence(query):
    check("processes-2", "iso-64", only=[query])


def test_isa_process_backend_equivalence():
    """A spawned worker decodes MLOC-ISA's spline windows: it imports
    scipy on its first spline evaluation."""
    check("processes-2", "isa-64")


def test_backend_validation():
    fs, _ = store("col")
    with pytest.raises(ValueError, match="backend"):
        MLOCStore.open(fs, "/store", "field", backend="mpi")
    with pytest.raises(ValueError, match="workers"):
        MLOCStore.open(fs, "/store", "field", backend="threads", workers=0)
    with pytest.raises(ValueError, match="workers"):
        MLOCStore.open(fs, "/store", "field", backend="processes", workers=-1)
