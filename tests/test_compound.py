"""Tests for compound multivariate constraints."""

import numpy as np
import pytest

from repro.core import MLOCDataset, MLOCStore, MLOCWriter, Query, mloc_col
from repro.core.result import ComponentTimes
from repro.core.compound import (
    CompoundResult,
    VariableConstraint,
    compound_query,
)
from repro.core.chunking import normalize_region
from repro.core.engine.scheduler import _BlockFetcher
from repro.datasets import gts_like
from repro.index.bitmap import Bitmap
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS


@pytest.fixture(scope="module")
def tri_var():
    fs = SimulatedPFS()
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    dataset = MLOCDataset(fs, "/cv", cfg, n_ranks=4)
    fields = {
        "temp": gts_like((128, 128), seed=1),
        "humidity": gts_like((128, 128), seed=2),
        "pressure": gts_like((128, 128), seed=3),
    }
    for name, data in fields.items():
        dataset.append(data, name)
    snapshot = dataset.snapshot()
    stores = {name: snapshot.store(name) for name in fields}
    return fs, fields, stores


class TestVariableConstraint:
    def test_helpers(self):
        c = VariableConstraint.above("t", 5.0)
        assert c.ranges == ((5.0, np.inf),)
        c = VariableConstraint.below("t", 5.0)
        assert c.ranges == ((-np.inf, 5.0),)
        c = VariableConstraint.between("t", 1.0, 2.0)
        assert c.ranges == ((1.0, 2.0),)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            VariableConstraint("t", ())
        with pytest.raises(ValueError, match="empty range"):
            VariableConstraint("t", ((2.0, 1.0),))


class TestConjunction:
    def test_two_variable_and(self, tri_var):
        fs, fields, stores = tri_var
        t, h = fields["temp"].reshape(-1), fields["humidity"].reshape(-1)
        t_lo = float(np.quantile(t, 0.6))
        h_lo = float(np.quantile(h, 0.6))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", t_lo),
                VariableConstraint.above("humidity", h_lo),
            ],
        )
        expect = np.flatnonzero((t >= t_lo) & (h >= h_lo))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.values["temp"], t[expect])
        assert np.array_equal(result.values["humidity"], h[expect])

    def test_three_variable_and_with_region(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        h = fields["humidity"].reshape(-1)
        p = fields["pressure"].reshape(-1)
        t_lo = float(np.quantile(t, 0.5))
        h_lo = float(np.quantile(h, 0.5))
        p_hi = float(np.quantile(p, 0.5))
        region = ((16, 112), (32, 96))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", t_lo),
                VariableConstraint.above("humidity", h_lo),
                VariableConstraint.below("pressure", p_hi),
            ],
            fetch=["pressure"],
            region=region,
        )
        mask = np.zeros((128, 128), dtype=bool)
        mask[16:112, 32:96] = True
        expect = np.flatnonzero(
            mask.reshape(-1) & (t >= t_lo) & (h >= h_lo) & (p <= p_hi)
        )
        assert np.array_equal(result.positions, expect)
        assert list(result.values) == ["pressure"]
        assert np.array_equal(result.values["pressure"], p[expect])

    def test_empty_conjunction_short_circuits(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        impossible = float(t.max()) + 5.0
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", impossible),
                VariableConstraint.above("humidity", -np.inf),
            ],
        )
        assert result.n_results == 0
        # The humidity region-only step must have been skipped.
        assert "humidity" not in result.selections


class TestRangeUnions:
    def test_union_of_ranges(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        q = np.quantile(t, [0.1, 0.2, 0.8, 0.9])
        result = compound_query(
            stores,
            [VariableConstraint("temp", ((q[0], q[1]), (q[2], q[3])))],
        )
        expect = np.flatnonzero(
            ((t >= q[0]) & (t <= q[1])) | ((t >= q[2]) & (t <= q[3]))
        )
        assert np.array_equal(result.positions, expect)
        assert len(result.selections["temp"]) == 2


class TestOrderingAndValidation:
    def test_most_selective_evaluated_first(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        h = fields["humidity"].reshape(-1)
        narrow = float(np.quantile(h, 0.99))
        result = compound_query(
            stores,
            [
                VariableConstraint.above("temp", float(np.quantile(t, 0.1))),
                VariableConstraint.above("humidity", narrow),
            ],
        )
        # Both evaluated (no empty short-circuit) but correct anyway.
        expect = np.flatnonzero((t >= np.quantile(t, 0.1)) & (h >= narrow))
        assert np.array_equal(result.positions, expect)

    def test_duplicate_variable_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="duplicate"):
            compound_query(
                stores,
                [
                    VariableConstraint.above("temp", 0.0),
                    VariableConstraint.below("temp", 1.0),
                ],
            )

    def test_missing_store_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="no store"):
            compound_query(stores, [VariableConstraint.above("vorticity", 0.0)])
        with pytest.raises(ValueError, match="no store"):
            compound_query(
                stores,
                [VariableConstraint.above("temp", 0.0)],
                fetch=["vorticity"],
            )

    def test_empty_constraints_rejected(self, tri_var):
        fs, fields, stores = tri_var
        with pytest.raises(ValueError, match="at least one"):
            compound_query(stores, [])

    def test_times_accumulate(self, tri_var):
        fs, fields, stores = tri_var
        t = fields["temp"].reshape(-1)
        fs.clear_cache()
        result = compound_query(
            stores, [VariableConstraint.above("temp", float(np.quantile(t, 0.9)))]
        )
        assert result.times.total > 0
        assert result.times.communication > 0
        assert isinstance(result, CompoundResult)


# ----------------------------------------------------------------------
# Oracle matrix: every compound path against brute-force NumPy and
# against the same steps run one fresh fetcher each, fetch unnarrowed.
# ----------------------------------------------------------------------
PAIR_SHAPE = (64, 64)
PAIR_REGION = ((8, 56), (16, 48))


@pytest.fixture(scope="module")
def pair():
    fs = SimulatedPFS()
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=512)
    fields = {"a": gts_like(PAIR_SHAPE, seed=4), "b": gts_like(PAIR_SHAPE, seed=5)}
    writer = MLOCWriter(fs, "/pair", cfg)
    for name, data in fields.items():
        writer.write(data, variable=name)
    return fs, {name: data.reshape(-1) for name, data in fields.items()}


def _open_pair(fs, **options):
    return {name: MLOCStore.open(fs, "/pair", name, n_ranks=4, **options) for name in "ab"}


def _oracle(flat, constraints, region):
    keep = np.ones(flat["a"].size, dtype=bool)
    for c in constraints:
        v = flat[c.variable]
        keep &= np.logical_or.reduce([(v >= lo) & (v <= hi) for lo, hi in c.ranges])
    if region is not None:
        inside = np.zeros(PAIR_SHAPE, dtype=bool)
        inside[tuple(slice(lo, hi) for lo, hi in normalize_region(region, PAIR_SHAPE))] = True
        keep &= inside.reshape(-1)
    return np.flatnonzero(keep)


def _stepwise(stores, constraints, order, fetch, region, plod_level):
    """The compound steps in ``order``, each through its own fetcher,
    then an unnarrowed fetch: ``(positions, selections, fetches)``."""
    by_name = {c.variable: c for c in constraints}
    n = stores["a"].n_elements
    keep, selections = None, {}
    for name in order:
        store = stores[name]
        chunk_subset = None
        if store.use_hbi and keep is not None:
            chunk_subset = np.unique(store.grid.chunk_of_positions(keep.to_positions()))
        selections[name] = [
            store.query(
                Query(value_range=(lo, hi), region=region, output="positions"),
                chunk_subset=chunk_subset,
            )
            for lo, hi in by_name[name].ranges
        ]
        mine = Bitmap(n)
        for r in selections[name]:
            mine = mine | Bitmap.from_positions(r.positions, n)
        keep = mine if keep is None else keep & mine
    fetches = {
        name: stores[name].fetch_positions(keep, region=region, plod_level=plod_level)
        for name in fetch
    }
    return keep.to_positions(), selections, fetches


def _steps(selections, fetches):
    return [r for steps in selections.values() for r in steps] + list(fetches.values())


def _work(results):
    """Bytes read, blocks decoded and modeled decompression and
    reconstruction seconds of a compound result or a list of steps."""
    if isinstance(results, CompoundResult):
        stats, times = results.stats, results.times
    else:
        stats = {k: sum(r.stats[k] for r in results) for k in ("bytes_read", "blocks_decoded")}
        times = sum((r.times for r in results), ComponentTimes())
    return np.array(
        [stats["bytes_read"], stats["blocks_decoded"], times.decompression, times.reconstruction]
    )


def _no_more_work(new, old):
    """``new`` does no more work than ``old``.  Modeled ``io`` is not
    compared: it is a maximum over ranks, and a dedup hit between two
    misses, or a plan narrowed to fewer bins than ranks, can split one
    rank's coalesced read in two."""
    assert np.all(_work(new) <= _work(old) + 1e-12), (_work(new), _work(old))


def _cases(fs, flat):
    a, b = flat["a"], flat["b"]
    qa = np.quantile(a, [0.05, 0.15, 0.3, 0.45, 0.6, 0.8, 0.9])
    qb = np.quantile(b, [0.3, 0.7])
    edges = MLOCStore.open(fs, "/pair", "a").scheme.edges
    return {
        "disjoint": [
            VariableConstraint("a", ((qa[0], qa[1]), (qa[5], qa[6]))),
            VariableConstraint.above("b", qb[0]),
        ],
        "overlapping": [
            VariableConstraint("a", ((qa[1], qa[3]), (qa[2], qa[4]))),
            VariableConstraint.between("b", qb[0], qb[1]),
        ],
        "edge-touching": [
            VariableConstraint("a", ((qa[1], qa[2]), (qa[2], qa[4]))),
            VariableConstraint.below("b", qb[1]),
        ],
        "bin-edges": [VariableConstraint("a", ((edges[2], edges[4]), (edges[4], edges[5])))],
        "clamped-ends": [
            VariableConstraint(
                "a", ((a.min() - 9, a.min() - 5), (qa[3], qa[5]), (a.max() + 1, a.max() + 2))
            ),
            VariableConstraint.above("b", qb[0]),
        ],
        "empty": [
            VariableConstraint.above("a", a.max() + 1),
            VariableConstraint.above("b", qb[0]),
        ],
    }


CASES = ["disjoint", "overlapping", "edge-touching", "bin-edges", "clamped-ends", "empty"]
OPENS = {"flat": {}, "hbi": {"use_hbi": True}, "shards": {"n_shards": 3}}
SHAPES = {"whole": {}, "region": {"region": PAIR_REGION}, "plod2": {"plod_level": 2}}


def _run_both(fs, constraints, fetch, opened=None, shape=None):
    """The compound answer and its stepwise reference, each on fresh
    handles over a cold PFS cache."""
    opened, shape = OPENS[opened or "flat"], SHAPES[shape or "whole"]
    region, plod_level = shape.get("region"), shape.get("plod_level", 7)
    fs.clear_cache()
    result = compound_query(
        _open_pair(fs, **opened), constraints, fetch=fetch,
        region=region, plod_level=plod_level,
    )
    fs.clear_cache()
    reference = _stepwise(
        _open_pair(fs, **opened), constraints, list(result.selections),
        fetch, region, plod_level,
    )
    return result, reference


class TestOracleMatrix:
    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("opened", list(OPENS))
    @pytest.mark.parametrize("case", CASES)
    def test_matches_oracle_and_stepwise(self, pair, case, opened, shape):
        fs, flat = pair
        constraints = _cases(fs, flat)[case]
        result, (positions, selections, fetches) = _run_both(
            fs, constraints, ["a", "b"], opened, shape
        )
        expect = _oracle(flat, constraints, SHAPES[shape].get("region"))
        assert np.array_equal(result.positions, expect)
        assert np.array_equal(result.positions, positions)
        for name, fetched in fetches.items():
            assert np.array_equal(result.values[name], fetched.values)
            if shape != "plod2":
                assert np.array_equal(result.values[name], flat[name][expect])
        for name, steps in selections.items():
            for new, old in zip(result.selections[name], steps):
                _no_more_work([new], [old])
        _no_more_work(result, _steps(selections, fetches))

    def test_unconstrained_fetch_is_unchanged(self, pair):
        fs, flat = pair
        constraints = _cases(fs, flat)["disjoint"][:1]
        result, (_, selections, fetches) = _run_both(fs, constraints, ["b"])
        expect = _oracle(flat, constraints, None)
        assert np.array_equal(result.values["b"], flat["b"][expect])
        assert np.array_equal(result.values["b"], fetches["b"].values)
        assert fetches["b"].stats["bins_pruned"] == 0
        _no_more_work(result, _steps(selections, fetches))
        old = sum((r.times for r in _steps(selections, fetches)), ComponentTimes())
        for term in ("io", "decompression", "reconstruction"):
            assert getattr(result.times, term) <= getattr(old, term) + 1e-12, term

    def test_sticky_corrupt_block_under_allow_partial(self, pair):
        """A rotten block both the selection and the fetch need: the
        shared fetcher reports the loss exactly as separate ones do."""
        fs, flat = pair
        constraints = _cases(fs, flat)["overlapping"]
        scheme = MLOCStore.open(fs, "/pair", "a").scheme
        edge_bin = int(scheme.bins_overlapping(*constraints[0].ranges[0])[0][0])
        rotten = FaultyPFS(
            fs,
            FaultPlan(
                sticky_corruption_rate=1.0,
                fault_suffixes=(f"/pair/a/bin{edge_bin:04d}.data",),
            ),
        )
        fs.clear_cache()
        result = compound_query(
            _open_pair(rotten, allow_partial=True), constraints, fetch=["a", "b"]
        )
        fs.clear_cache()
        positions, selections, fetches = _stepwise(
            _open_pair(rotten, allow_partial=True), constraints,
            list(result.selections), ["a", "b"], None, 7,
        )
        lost = set()
        for step in _steps(selections, fetches):
            lost.update(step.stats["partial_chunks"])
        assert lost
        assert result.stats["partial_chunks"] == sorted(lost)
        assert np.array_equal(result.positions, positions)
        for name, fetched in fetches.items():
            assert np.array_equal(result.values[name], fetched.values)


class TestFetchWorkGuard:
    """Work counts of the fetch step of one fixed compound query: they
    move only if the fetch stops sharing the selection's fetcher or
    stops being narrowed to the constraint's bins."""

    def test_fetch_step_work_is_pinned(self, pair, monkeypatch):
        fs, flat = pair
        a = flat["a"]
        constraints = [
            VariableConstraint.between("a", *np.quantile(a, [0.4, 0.7])),
            VariableConstraint.above("b", float(np.quantile(flat["b"], 0.5))),
        ]
        stores = _open_pair(fs)
        fetched, requested = [], []
        claim_held, fetch_positions = _BlockFetcher.claim_held, MLOCStore.fetch_positions

        def spy_claim(self, keys, *args):
            requested.extend(path for _, path, _ in keys)
            return claim_held(self, keys, *args)

        def spy_fetch(self, *args, **kwargs):
            requested.clear()
            result = fetch_positions(self, *args, **kwargs)
            fetched.append((result.stats, list(requested)))
            return result

        monkeypatch.setattr(_BlockFetcher, "claim_held", spy_claim)
        monkeypatch.setattr(MLOCStore, "fetch_positions", spy_fetch)
        fs.clear_cache()
        compound_query(stores, constraints, fetch=["a"])
        ((stats, paths),) = fetched
        assert (stats["bytes_read"], stats["blocks_decoded"], stats["dedup_blocks"]) == (7206, 23, 53)
        span = stores["a"].scheme.bins_overlapping(*constraints[0].ranges[0])[0]
        bins = {int(path.rsplit("/bin", 1)[1][:4]) for path in paths}
        assert bins and bins <= set(span.tolist())
