"""Chaos matrix: seeded fault plans against every layout and backend.

The suite's headline invariants, exercised across codecs (zlib byte
columns, ISOBAR, ISABELA), level orders (VMS, VSM, VS), and decode
backends (serial, threads, processes):

* a faults-disabled :class:`FaultyPFS` is bit-identical to the plain
  :class:`SimulatedPFS` — same results, same simulated seconds (the
  ``faulty-pfs`` rows of ``tests/test_contract_matrix.py``);
* under *any* seeded fault plan, every injected fault surfaces — as a
  retry/stall/CRC counter, a degradation record, or a
  :class:`DegradedResultError` — and any divergence from the clean
  answer is accompanied by an explicit degradation or quarantine
  record (no silently wrong values, ever);
* offline ``fsck`` and the executor's quarantine registry agree on
  which blocks persistent rot destroyed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DegradedResultError, MLOCStore, Query
from repro.pfs.faults import FaultPlan, FaultyPFS
from repro.tools import check_store
from tests.test_contract_matrix import check

pytestmark = pytest.mark.chaos

STORE_KINDS = ("col", "vsm", "iso", "isa")


def _open(fs, **options):
    if options.get("backend") == "processes":
        # Force a real pool even on single-core CI boxes; width <= 1
        # would silently fall back inline and test nothing new.
        options.setdefault("workers", 2)
    return MLOCStore.open(fs, "/store", "field", n_ranks=4, **options)


def _queries_for(store):
    """A VC, an SC, and (on PLoD layouts) a multiresolution query."""
    edges = store.meta.edges
    shape = store.shape
    box = tuple((d // 4, 3 * d // 4) for d in shape)
    queries = [
        Query(value_range=(float(edges[2]), float(edges[9])), output="positions"),
        Query(value_range=(float(edges[5]), float(edges[12])), output="values"),
        Query(region=box, output="values"),
    ]
    if store.meta.config.plod_enabled:
        queries.append(Query(region=box, output="values", plod_level=3))
        queries.append(
            Query(
                value_range=(float(edges[1]), float(edges[7])),
                output="values",
                plod_level=5,
            )
        )
    return queries


def _same_answer(a, b) -> bool:
    if not np.array_equal(a.positions, b.positions):
        return False
    if (a.values is None) != (b.values is None):
        return False
    return a.values is None or np.array_equal(a.values, b.values)


def _fault_evidence(result) -> bool:
    s = result.stats
    return bool(
        s["crc_failures"]
        or s["io_retries"]
        or s["degraded_points"]
        or s["dropped_points"]
        or s["quarantined_blocks"]
        or s["partial_chunks"]
        or s["stall_seconds"] > 0
    )


def _degradation_record(result) -> bool:
    s = result.stats
    return bool(
        s["degraded_points"]
        or s["dropped_points"]
        or s["quarantined_blocks"]
        or s["partial_chunks"]
    )


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_zero_fault_plans_are_bit_identical(kind, backend):
    """The contract matrix's ``faulty-pfs`` cell of ``kind`` and ``backend``."""
    suffix = {"serial": "", "threads": "+threads-4", "processes": "+processes-2"}
    check(f"faulty-pfs{suffix[backend]}", f"{kind}-64")


# ----------------------------------------------------------------------
# Randomized fault plans: everything surfaces, nothing lies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_fault_surfaces_or_raises(kind, data, request, chaos_seed):
    fs, reference = request.getfixturevalue(f"{kind}_store")
    seed = chaos_seed + data.draw(st.integers(0, 9999), label="plan seed")
    plan = FaultPlan(
        seed=seed,
        transient_error_rate=data.draw(
            st.sampled_from([0.0, 0.05, 0.3]), label="transient"
        ),
        bitflip_rate=data.draw(st.sampled_from([0.0, 0.05, 0.3]), label="flip"),
        torn_read_rate=data.draw(st.sampled_from([0.0, 0.1]), label="torn"),
        sticky_corruption_rate=data.draw(
            st.sampled_from([0.0, 0.05, 0.2]), label="sticky"
        ),
        latency_spike_rate=data.draw(st.sampled_from([0.0, 0.2]), label="latency"),
    )
    query = data.draw(st.sampled_from(_queries_for(reference)), label="query")
    backend = data.draw(st.sampled_from(["serial", "threads", "processes"]), label="backend")

    fs.clear_cache()
    expected = reference.query(query)

    ffs = FaultyPFS(fs, plan)
    store = _open(ffs, backend=backend, allow_partial=True, max_read_retries=2)
    fs.clear_cache()
    result = store.query(query)

    log = ffs.injected
    if log.transient_errors + log.bitflips + log.torn_reads + log.latency_spikes == 0:
        assert _same_answer(result, expected)
        assert not _fault_evidence(result)
    else:
        # Whatever happened left a trace in the counters...
        assert _fault_evidence(result)
        # ...and a different answer is never silent: it always comes
        # with an explicit degradation or quarantine record.
        if not _same_answer(result, expected):
            assert _degradation_record(result)


@pytest.mark.parametrize("kind", ("col", "iso"))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_strict_mode_never_drops_points(kind, data, request, chaos_seed):
    """Without ``allow_partial``, a query either raises or answers with
    zero dropped points and no partial chunks (refinement-plane loss may
    still degrade precision, which the counters disclose)."""
    fs, reference = request.getfixturevalue(f"{kind}_store")
    plan = FaultPlan(
        seed=chaos_seed + data.draw(st.integers(0, 9999), label="plan seed"),
        transient_error_rate=0.2,
        sticky_corruption_rate=data.draw(
            st.sampled_from([0.05, 0.2]), label="sticky"
        ),
    )
    query = data.draw(st.sampled_from(_queries_for(reference)), label="query")
    ffs = FaultyPFS(fs, plan)
    store = _open(ffs, max_read_retries=1)
    fs.clear_cache()
    try:
        result = store.query(query)
    except DegradedResultError as exc:
        assert exc.kind in ("index", "data", "data-base")
        assert exc.chunk_ids
    else:
        assert result.stats["dropped_points"] == 0
        assert result.stats["partial_chunks"] == []


# ----------------------------------------------------------------------
# Error-bounded retrieval under fire: meet tol, raise, or confess
# ----------------------------------------------------------------------
def _tol_failure_ok(exc: Exception) -> bool:
    """A loud failure a faulted tol query is allowed to produce."""
    if isinstance(exc, DegradedResultError):
        return exc.kind in ("index", "data", "data-base", "tol")
    # The bounds record itself rotted: refusing to plan is honest too.
    return isinstance(exc, ValueError) and "error-bounds" in str(exc)


@pytest.mark.parametrize("kind", ("col", "vsm"))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_tol_query_never_silently_misses_the_bound(
    kind, data, request, chaos_seed, gts_small
):
    """A dummy-filled plane must never count as meeting the bound.

    Under sticky rot a strict-mode ``query(tol=t)`` may raise, but any
    result it *returns* claims ``tol_met`` — and that claim is checked
    here against ground truth, point by point.  In ``allow_partial``
    mode a miss is allowed but must be disclosed: ``tol_met=False``,
    ``achieved_bound > tol``, and a degradation record.
    """
    fs, reference = request.getfixturevalue(f"{kind}_store")
    flat = gts_small.reshape(-1)
    plan = FaultPlan(
        seed=chaos_seed + data.draw(st.integers(0, 9999), label="plan seed"),
        transient_error_rate=0.2,
        sticky_corruption_rate=data.draw(
            st.sampled_from([0.05, 0.2]), label="sticky"
        ),
    )
    tol = data.draw(st.sampled_from([1e-2, 1e-4, 1e-6]), label="tol")
    shape = reference.shape
    box = tuple((d // 4, 3 * d // 4) for d in shape)
    query = Query(region=box, output="values", tol=tol)
    allow_partial = data.draw(st.booleans(), label="allow_partial")

    ffs = FaultyPFS(fs, plan)
    store = _open(ffs, allow_partial=allow_partial, max_read_retries=1)
    fs.clear_cache()
    try:
        result = store.query(query)
    except Exception as exc:  # noqa: BLE001 - the contract is "loud or honest"
        assert _tol_failure_ok(exc), exc
        return
    if result.stats["tol_met"]:
        errs = np.abs(result.values - flat[result.positions])
        denom = np.abs(flat[result.positions])
        rel = np.where(denom > 0, errs / np.where(denom > 0, denom, 1.0), errs)
        assert rel.size == 0 or float(rel.max()) <= tol, (
            "claimed to meet tol but ground-truth error exceeds it"
        )
    else:
        assert not allow_partial or _degradation_record(result)
        assert result.stats["achieved_bound"] > tol


def test_tol_enforcement_raises_on_pinned_plane_loss(col_store):
    """Deterministic regression for the ``kind="tol"`` raise: this
    seed rots only refinement planes the query needs, so strict mode
    must refuse rather than return a provably-out-of-bound answer."""
    fs, _ = col_store
    ffs = FaultyPFS(fs, FaultPlan(seed=8, sticky_corruption_rate=0.04))
    store = _open(ffs, max_read_retries=1)
    fs.clear_cache()
    with pytest.raises(DegradedResultError) as excinfo:
        store.query(Query(region=((64, 192), (64, 192)), output="values", tol=1e-6))
    assert excinfo.value.kind == "tol"
    assert excinfo.value.bin_id == -1  # plane loss may span bins
    assert excinfo.value.chunk_ids


@pytest.mark.parametrize("kind", ("col",))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_tol_refinement_session_converges_or_raises(
    kind, data, request, chaos_seed, gts_small
):
    """Sticky faults during auto-refinement: the progressive ladder
    either ends in a step that provably meets ``tol`` or fails loudly
    on its final (enforcing) step — never a quiet miss."""
    fs, reference = request.getfixturevalue(f"{kind}_store")
    flat = gts_small.reshape(-1)
    plan = FaultPlan(
        seed=chaos_seed + data.draw(st.integers(0, 9999), label="plan seed"),
        transient_error_rate=0.1,
        sticky_corruption_rate=data.draw(
            st.sampled_from([0.05, 0.15]), label="sticky"
        ),
    )
    tol = data.draw(st.sampled_from([1e-3, 1e-5]), label="tol")
    shape = reference.shape
    box = tuple((d // 8, d // 2) for d in shape)
    query = Query(region=box, output="values", tol=tol)

    ffs = FaultyPFS(fs, plan)
    store = _open(ffs, max_read_retries=1)
    fs.clear_cache()
    steps = []
    try:
        with store.open_session(query) as session:
            steps = list(session.progressive_results())
    except Exception as exc:  # noqa: BLE001
        assert _tol_failure_ok(exc), exc
        return
    final = steps[-1]
    assert final.stats["tol_met"] is True
    errs = np.abs(final.values - flat[final.positions])
    denom = np.abs(flat[final.positions])
    rel = np.where(denom > 0, errs / np.where(denom > 0, denom, 1.0), errs)
    assert rel.size == 0 or float(rel.max()) <= tol
    # Non-final steps never overstate: a step that admits missing the
    # bound reports the bound it *did* achieve.
    for step in steps[:-1]:
        assert step.stats["achieved_bound"] >= 0.0


# ----------------------------------------------------------------------
# fsck agrees with the quarantine registry on persistent rot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_fsck_agrees_with_quarantine_on_sticky_rot(kind, request, chaos_seed):
    fs, reference = request.getfixturevalue(f"{kind}_store")
    plan = FaultPlan(seed=chaos_seed, sticky_corruption_rate=0.25)  # only rot
    ffs = FaultyPFS(fs, plan)
    store = _open(ffs, allow_partial=True, max_read_retries=1)
    for query in _queries_for(reference):
        fs.clear_cache()
        store.query(query)
    quarantined = set(store.quarantined_blocks)
    assert quarantined, "0.25 sticky rate should rot some touched blocks"

    issues = check_store(ffs, "/store", "field")
    damaged = {
        (issue.path, issue.offset)
        for issue in issues
        if issue.kind in ("crc-mismatch", "decode-error")
    }
    # Every block the query path quarantined is damage fsck confirms
    # (fsck may see more: it reads blocks no query touched).
    assert quarantined <= damaged
