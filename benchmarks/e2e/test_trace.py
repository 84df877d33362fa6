"""Unit tests of the span recorder (run with ``make bench``; not tier-1)."""

from __future__ import annotations

import importlib
import sys
import types
import warnings

import pytest

from benchmarks.e2e.layers import TraceView
from benchmarks.e2e.trace import (
    END, NAME, OP, PARENT, START, TARGETS, WORK, Target, Tracer, self_times,
)


def _span(name, parent, start, end, op=0, work=None):
    return [name, parent, op, start, end, work]


def test_self_time_is_span_minus_children():
    # root 0..100 with children 10..30 and 40..90; the second has a child 50..70.
    spans = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 30),
        _span("b", 0, 40, 90),
        _span("c", 2, 50, 70),
    ]
    assert self_times(spans) == [30, 20, 30, 20]
    assert sum(self_times(spans)) == 100  # layers add up to the root


LIB_SRC = """
def leaf(n):
    return sum(range(n))

def middle(n):
    return leaf(n) + leaf(n)

class Box:
    def run(self, n):
        return middle(n)

    @classmethod
    def make(cls):
        return cls()
"""

APP_SRC = """
from repro._e2e_probe_lib import leaf

TABLE = {"leaf": leaf}

def twice(n):
    return leaf(n) + TABLE["leaf"](n)
"""


@pytest.fixture
def probe():
    """A synthetic program: a library module, and a caller that holds the
    library's function by ``from`` import and in a module-level dict."""
    import repro  # noqa: F401  (the parent package of the probe modules)

    lib = types.ModuleType("repro._e2e_probe_lib")
    app = types.ModuleType("repro._e2e_probe_app")
    sys.modules[lib.__name__] = lib
    exec(LIB_SRC, lib.__dict__)
    sys.modules[app.__name__] = app
    exec(APP_SRC, app.__dict__)
    yield lib, app
    del sys.modules[lib.__name__], sys.modules[app.__name__]


PROBE_TARGETS = (
    Target("leaf", "repro._e2e_probe_lib:leaf", work=lambda a, k, r: a[0]),
    Target("middle", "repro._e2e_probe_lib:middle"),
    Target("box", "repro._e2e_probe_lib:Box.run"),
    Target("box", "repro._e2e_probe_lib:Box.make"),
)


def test_nested_calls_give_a_tree_and_wrappers_are_removed(probe):
    lib, app = probe
    leaf = lib.leaf
    originals = (lib.middle, lib.Box.__dict__["run"], lib.Box.__dict__["make"])
    with Tracer(PROBE_TARGETS) as tracer:
        assert lib.leaf is not leaf and app.leaf is not leaf
        assert app.TABLE["leaf"] is not leaf  # dict values are covered too
        tracer.recorder.op = 7
        box = lib.Box.make()
        assert box.run(1000) == 2 * sum(range(1000))
        tracer.recorder.op = 8
        assert app.twice(5) == 20
    spans = tracer.recorder.spans
    assert [s[NAME] for s in spans] == ["box", "box", "middle", "leaf", "leaf", "leaf", "leaf"]
    assert [s[PARENT] for s in spans] == [-1, -1, 1, 2, 2, -1, -1]
    assert [s[OP] for s in spans] == [7, 7, 7, 7, 7, 8, 8]
    assert [s[WORK] for s in spans[3:]] == [1000, 1000, 5, 5]
    selfs = self_times(spans)
    assert all(t >= 0 for t in selfs)
    # Self times below ``box.run`` add up to exactly its duration.
    assert sum(selfs[1:5]) == spans[1][END] - spans[1][START]
    # Everything is back, by identity.
    assert lib.leaf is leaf and app.leaf is leaf and app.TABLE["leaf"] is leaf
    assert lib.middle is originals[0]
    assert lib.Box.__dict__["run"] is originals[1]
    assert lib.Box.__dict__["make"] is originals[2]
    lib.Box.make().run(10)
    app.twice(3)
    assert len(spans) == 7  # no wrapper left behind


def test_missing_target_is_null_not_a_crash(probe):
    targets = PROBE_TARGETS + (Target("ghost", "repro._e2e_probe_lib:no_such_callable"),)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Tracer(targets) as tracer:
            probe[0].leaf(10)
    assert tracer.missing == {"ghost"}
    assert any("no_such_callable" in str(w.message) for w in caught)
    view = TraceView(tracer.recorder.spans, tracer.missing, 1, {})
    assert view.self_ms("ghost") is None
    assert view.self_ms("leaf") is not None


def _resolve(target: Target):
    module_name, _, qualname = target.path.partition(":")
    if module_name == "<codecs>":
        registry = importlib.import_module("repro.compression.base")._REGISTRY
        return [
            next(c for c in cls.__mro__ if qualname in c.__dict__).__dict__[qualname]
            for cls in registry.values()
        ]
    obj = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        return [getattr(obj, owner_name).__dict__[attr]]
    return [getattr(obj, attr)]


def test_real_table_resolves_and_uninstalls_cleanly():
    import repro.core  # noqa: F401  (load the program before resolving)
    import repro.server  # noqa: F401

    before = [_resolve(t) for t in TARGETS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unresolved target fails this test
        with Tracer() as tracer:
            during = [_resolve(t) for t in TARGETS]
    assert not tracer.missing
    after = [_resolve(t) for t in TARGETS]
    for target, b, d, a in zip(TARGETS, before, during, after):
        assert all(x is y for x, y in zip(b, a)), target.path
        assert all(x is not y for x, y in zip(b, d)), target.path
