"""API-surface tests: every advertised name resolves, is documented and
has a caller outside the tests."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Where a caller of an advertised name may live; ``tests/`` is not one.
CALLER_ROOTS = ("src/repro", "benchmarks", "examples", "scripts")

#: Definitions only tests call, kept on purpose: each is the reference
#: or the hook the tests check the library with.
TEST_ORACLES = {
    "zorder_decode": "inverse of zorder_encode, the Morton round-trip oracle",
    "decode_hierarchical_bitmap": "inverse of encode_hierarchical_bitmap, the hbi payload oracle",
    "assignment_file_counts": "files per rank, the oracle for column-order assignment's contention",
    "fail_next_write": "the scripted crash the manifest's commit-atomicity tests inject",
}
#: ``module:Qual.name`` — how the tracer names what it wraps.
QUALNAME = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_][\w.]*$")

PACKAGES = [
    "repro",
    "repro.core",
    "repro.pfs",
    "repro.parallel",
    "repro.sfc",
    "repro.binning",
    "repro.plod",
    "repro.compression",
    "repro.index",
    "repro.baselines",
    "repro.datasets",
    "repro.analysis",
    "repro.harness",
    "repro.tools",
    "repro.util",
    "repro.server",
    "repro.core.engine",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every public class/function reachable from a package's __all__
    carries a docstring (deliverable e: doc comments on every public
    item)."""
    module = importlib.import_module(package)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(f"{package}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_public_methods_documented():
    """Public methods of the primary user-facing classes are documented."""
    from repro.core import MLOCDataset, MLOCStore, MLOCWriter
    from repro.pfs import SimulatedPFS

    missing = []
    for cls in (MLOCStore, MLOCWriter, MLOCDataset, SimulatedPFS):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            if not inspect.getdoc(member):
                missing.append(f"{cls.__name__}.{name}")
    assert not missing, f"undocumented public methods: {missing}"


def _registers_codec(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and getattr(
        decorator.func, "id", getattr(decorator.func, "attr", None)
    ) == "register_codec"


def _modules(roots):
    """The syntax tree of every module under ``roots`` but a package
    ``__init__.py``, which only re-exports."""
    for root in roots:
        for path in Path(root).rglob("*.py"):
            if path.name != "__init__.py":
                yield ast.parse(path.read_text(), filename=str(path))


def referenced_names(roots) -> set[str]:
    """Every name the modules under ``roots`` use: each ``Name``,
    ``Attribute``, keyword and imported name, each part of a
    ``module:Qual.name`` string (a traced target), plus each class
    decorated with ``@register_codec(...)`` (``make_codec`` is its
    caller).  Comments and docstrings name nothing."""
    used: set[str] = set()
    for tree in _modules(roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(a.name.rpartition(".")[2] for a in node.names)
            elif isinstance(node, ast.Constant) and QUALNAME.match(str(node.value)):
                used.update(node.value.partition(":")[2].split("."))
            elif isinstance(node, ast.ClassDef) and any(
                _registers_codec(d) for d in node.decorator_list
            ):
                used.add(node.name)
    return used


def defined_names(roots) -> set[str]:
    """Every function and method the modules under ``roots`` define,
    but the ``__dunder__`` ones Python calls itself."""
    return {
        node.name
        for tree in _modules(roots)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def uncalled_exports(exports, roots) -> list[str]:
    """The ``exports`` no module under ``roots`` uses, sorted."""
    return sorted(set(exports) - referenced_names(roots))


def test_every_export_has_a_caller_outside_tests():
    """A name only tests use is deleted, not advertised (DESIGN.md §6's
    rule for options, applied to the public surface)."""
    exports = {
        name
        for package in PACKAGES
        for name in getattr(importlib.import_module(package), "__all__", [])
    }
    roots = [REPO / root for root in CALLER_ROOTS]
    uncalled = uncalled_exports(exports - set(TEST_ORACLES), roots)
    assert not uncalled, f"exports with no caller outside tests: {uncalled}"


def test_every_definition_has_a_caller_outside_tests():
    """The same rule for every ``def`` and method under ``src/repro``:
    one that only tests call is deleted (and named in rule 9 of
    ``scripts/check_layers.py``)."""
    roots = [REPO / root for root in CALLER_ROOTS]
    defined = defined_names([REPO / "src" / "repro"])
    assert set(TEST_ORACLES) <= defined, "a kept test oracle is no longer defined"
    uncalled = uncalled_exports(defined - set(TEST_ORACLES), roots)
    assert not uncalled, f"definitions with no caller outside tests: {uncalled}"


def test_generic_names_only_tests_called_stay_deleted():
    """Names too generic for rule 9: each was a method only tests
    called, and none may come back on its class."""
    from repro.core.dataset import DatasetSnapshot
    from repro.harness.advisor import AdvisorReport
    from repro.pfs import SimulatedPFS
    from repro.pfs.faults import FaultyPFS
    from repro.server.ingest import IngestSession

    assert not hasattr(IngestSession, "finished")
    assert not hasattr(AdvisorReport, "ranking")
    assert not hasattr(FaultyPFS, "with_plan")
    assert not hasattr(SimulatedPFS, "stat")
    assert not hasattr(DatasetSnapshot, "has")
    assert not hasattr(DatasetSnapshot, "variables")


def test_the_caller_scan_reads_code_not_prose(tmp_path):
    module = tmp_path / "src" / "mod.py"
    module.parent.mkdir()
    module.write_text(
        '"""Call ``prose_only`` for this."""\n'
        "def prose_only(): ...  # also named in a comment: prose_only\n"
        "def by_keyword(): ...\n"
        "def by_alias(): ...\n"
        "def by_target(): ...\n"
        "run(by_keyword=1)\n"
        "from pkg import by_alias as renamed\n"
        "TARGETS = ['pkg.mod:Cls.by_target']\n"
    )
    roots = [module.parent]
    assert defined_names(roots) == {"prose_only", "by_keyword", "by_alias", "by_target"}
    assert uncalled_exports(defined_names(roots), roots) == ["prose_only"]


def test_the_caller_scan_flags_an_export_only_tests_call(tmp_path):
    files = {
        "src/pkg/__init__.py": "from pkg.mod import Codec, helper, used\n",
        "src/pkg/mod.py": (
            "def used(): ...\n"
            "def helper(): ...\n"
            "@register_codec('c')\n"
            "class Codec: ...\n"
        ),
        "examples/demo.py": "import pkg\npkg.used()\n",
        "tests/test_mod.py": "from pkg import helper\nhelper()\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    roots = [tmp_path / "src", tmp_path / "examples"]
    assert uncalled_exports(["Codec", "helper", "used"], roots) == ["helper"]
    assert uncalled_exports(["helper"], [*roots, tmp_path / "tests"]) == []

