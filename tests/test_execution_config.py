"""ExecutionConfig is the one carrier of execution options.

Parametrised over ``dataclasses.fields(ExecutionConfig)`` so a field
added later is covered without editing this file: every option must
survive every hand-off between handles, unknown keywords must be
rejected at every handle door, and an invalid value must raise the
same ``ValueError`` whether it arrives inside ``execution=`` or as a
keyword.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro import cli
from repro.core import (
    EXEC_BACKENDS,
    ExecutionConfig,
    MLOCDataset,
    MLOCStore,
    mloc_col,
)
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.plod.bounds import TOL_METRICS

FIELDS = [f.name for f in dataclasses.fields(ExecutionConfig)]
CONFIG = mloc_col(chunk_shape=(16, 16), n_bins=8)
KEY = "temp@000000"


def _non_default(name: str):
    """A valid value of field ``name`` that differs from its default."""
    default = getattr(ExecutionConfig(), name)
    if isinstance(default, bool):
        return not default
    if isinstance(default, str):
        candidates = [c for c in EXEC_BACKENDS + TOL_METRICS if c != default]
    elif default is None:
        candidates = [3]
    else:
        candidates = [default + 3]
    for value in candidates:
        try:
            ExecutionConfig(**{name: value})
        except ValueError:
            continue
        return value
    raise AssertionError(f"no non-default value known for field {name!r}")


def _invalid(name: str):
    default = getattr(ExecutionConfig(), name)
    return "no-such-choice" if isinstance(default, str) else -1


@pytest.fixture(scope="module")
def sealed_fs() -> SimulatedPFS:
    fs = SimulatedPFS()
    MLOCDataset(fs, "/ds", CONFIG, n_ranks=2).append(
        gts_like((64, 64), seed=3), "temp", 0
    )
    return fs


#: The retry budget and backoff of the verified read path: parameters of
#: fault handling, which an operator sets through their CLI flags.
OPERATOR_SET = {"max_read_retries", "read_backoff"}


def test_every_field_has_a_caller_outside_tests():
    """An option is a field because some caller sets it: every field is
    passed by keyword somewhere in ``src/repro`` (its declaration in
    ``core/config.py`` aside), ``benchmarks/`` or ``examples/``.  A
    generated CLI flag, its help line or a stats row that prints the
    value is not a caller; a field only tests set is deleted, not kept."""
    repo = Path(__file__).resolve().parent.parent
    config_py = repo / "src" / "repro" / "core" / "config.py"
    passed = set()
    for top in ("src/repro", "benchmarks", "examples"):
        for path in (repo / top).rglob("*.py"):
            if path == config_py:
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    passed.update(kw.arg for kw in node.keywords)
    assert sorted(set(FIELDS) - passed - OPERATOR_SET) == []


@pytest.mark.parametrize("name", FIELDS)
def test_option_survives_every_hand_off(sealed_fs, name):
    fs = sealed_fs
    override = {name: _non_default(name)}
    want = ExecutionConfig(**override)
    assert want != ExecutionConfig()

    for door in ({"execution": want}, override):
        store = MLOCStore.open(fs, "/ds", KEY, n_ranks=2, **door)
        assert store.execution == want
        assert store.executor.execution == want
        assert store.with_ranks(4).execution == want
        sharded = MLOCStore.open(fs, "/ds", KEY, n_shards=3, **door)
        assert sharded.execution == want
        assert [s.execution for s in sharded.engines] == [want] * 3

        dataset = MLOCDataset(fs, "/ds", CONFIG, n_ranks=2, **door)
        snapshot = dataset.snapshot()
        assert snapshot.store("temp", 0).execution == want
        snap_sharded = snapshot.store("temp", 0, n_shards=2)
        assert [s.execution for s in snap_sharded.engines] == [want] * 2

    plain = MLOCDataset(fs, "/ds", CONFIG, n_ranks=2)
    assert plain.snapshot().store("temp", 0, **override).execution == want


def test_unknown_keyword_is_a_type_error(sealed_fs):
    fs = sealed_fs
    doors = [
        lambda **kw: MLOCStore.open(fs, "/ds", KEY, **kw),
        lambda **kw: MLOCStore.open(fs, "/ds", KEY, n_shards=3, **kw),
        lambda **kw: MLOCDataset(fs, "/ds", CONFIG, **kw),
    ]
    for door in doors:
        with pytest.raises(TypeError):
            door(n_threads=4)


@pytest.mark.parametrize("name", FIELDS)
def test_invalid_value_raises_the_same_error_at_every_door(sealed_fs, name):
    if isinstance(getattr(ExecutionConfig(), name), bool):
        pytest.skip("booleans have no invalid value")
    fs = sealed_fs
    bad = {name: _invalid(name)}
    with pytest.raises(ValueError, match=f"^{name} must be ") as direct:
        ExecutionConfig(**bad)
    doors = [
        lambda: MLOCStore.open(fs, "/ds", KEY, **bad),
        lambda: MLOCStore.open(fs, "/ds", KEY, n_shards=3, **bad),
        lambda: MLOCDataset(fs, "/ds", CONFIG, **bad),
    ]
    for door in doors:
        with pytest.raises(ValueError) as via_keyword:
            door()
        assert str(via_keyword.value) == str(direct.value)


@pytest.mark.parametrize("name", FIELDS)
def test_every_read_side_field_is_a_cli_flag(sealed_fs, name):
    """The flag's type, choices and default are the field's: what the
    flag is given lands on the opened store's ``execution``."""
    value = _non_default(name)
    given = [] if value is True else [str(value)]
    if name == "cache_bytes":
        value, given = 3 << 20, ["3"]  # the flag's unit is MiB
    parser = cli.build_parser()
    base = ["query", "unused.pfs", "--root", "/ds", "--variable", KEY]
    for flag in cli.execution_flags(name):
        args = parser.parse_args(base + [flag, *given])
        assert cli._open_store(sealed_fs, args).execution == ExecutionConfig(**{name: value})
    assert cli._open_store(sealed_fs, parser.parse_args(base)).execution == ExecutionConfig()
