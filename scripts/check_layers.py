#!/usr/bin/env python
"""Layer-boundary lint for the staged query engine.

Thirteen architectural rules, checked by AST scan (no imports are
executed):

1. **PFS below core.**  ``repro.pfs`` is the storage substrate; no
   module under ``src/repro/pfs/`` may import from ``repro.core`` (or
   any higher package).  The engine calls down into the PFS, never the
   reverse.
2. **Engine stages import strictly downward.**  Within
   ``repro.core.engine`` the layers are ``scheduler`` (0) →
   ``stages`` (1) → ``session`` (2); each module may import only
   strictly lower engine layers.  ``engine/__init__.py`` is exempt (it
   is the package's re-export surface, not a layer).
3. **Serving and the harness above core.**  ``repro.server`` (the
   broker layer) and ``repro.harness`` (workloads, experiments, the
   level-order advisor) sit on top of the whole library: they may
   import downward freely, but no module under ``src/repro/`` outside
   ``repro/server/`` may import ``repro.server``, and none outside
   ``repro/harness/`` and ``repro/bench.py`` may import
   ``repro.harness`` — not even inside a function — so the
   store/engine stay usable (and testable) without either.
   ``repro/cli.py`` is exempt: the CLI is the composition root (the
   application shell above every layer).
4. **Manifests below the store.**  ``repro.core.manifest`` is the
   append protocol's foundation record — writer, store, dataset, and
   serving all depend on it, so it may import only the PFS substrate,
   ``repro.util`` and stdlib.  Any import of the store/engine/planner
   stack (or higher) from ``core/manifest.py`` is a cycle waiting to
   happen.
5. **Execution options are declared once.**  An execution option is a
   field of ``repro.core.config.ExecutionConfig`` and nowhere else
   (DESIGN.md §6): no function signature under ``src/repro`` outside
   ``core/config.py`` may name one of ``EXECUTION_ONLY_PARAMS`` as a
   parameter — handles take ``execution`` (the store and dataset
   doors also ``**overrides`` folded by ``fold_execution``)
   and pass it on whole.  The deleted
   ``repro.core.executor`` alias shim must also stay deleted.
6. **One simulated clock.**  Every simulated second is modeled from
   counted work (DESIGN.md §5), so no module under ``repro/core``,
   ``repro/baselines``, ``repro/server``, ``repro/pfs``,
   ``repro/index``, ``repro/plod`` or ``repro/parallel`` may import
   ``time``.
7. **Counters have owners.**  Every row of the counter table
   (``repro.core.result.COUNTERS``) names the one layer that emits it
   (DESIGN.md §8).  The engine sits below the serving layer, so no
   broker-owned counter name may appear as a string literal under
   ``src/repro/core/engine/`` — it is what keeps a block of
   always-zero serving counters from growing back into the engine.
8. **The batch is the unit.**  A ``query_many`` batch and a broker
   round are staged request by request and assembled *once*
   (DESIGN.md §7): inside any ``for`` / ``while`` / comprehension under
   ``src/repro/server/`` and in ``MLOCStore.query_many`` there is no
   call named ``query`` or ``assemble`` — a round may loop over its
   requests to *stage* them, never to run them to completion one at a
   time.
9. **Deleted second paths stay deleted.**  A capability has one
   implementation: no ``def``, ``class``, parameter, annotated field,
   module-level assignment or import under ``src/repro`` may bring
   back one of
   ``DELETED_NAMES`` — the
   record rebuilders, the object work-list beside ``BlockList``, the
   second multi-variable result type, the per-handle batch-fetcher
   hook, the second run door beside ``MLOCStore.query``, the second
   snapshot door beside ``DatasetSnapshot.store``, the invalidation
   paths only a rewrite-in-place needed, the scheduler readahead
   nobody set, the second store class beside ``MLOCStore`` (a
   flat store is a one-shard store), the per-query counter holders
   beside ``QueryCounters``, the dataset front-end beside the one
   broker core, every door only tests walked through (the
   ``PlanContext.for_store`` constructor, ``DatasetSnapshot.refresh``,
   the ``TracingStore`` proxy, the codec ``from_spec`` rebuilder and
   the names ``tests/test_api_surface.py`` found without a caller),
   the per-mode replay drivers beside the one ``replay`` loop, the
   per-read OST load vector beside the read's own stripe charge, and
   the runner's header table beside the one table registry, and the
   codec keyword table beside the codec name in ``MLOCConfig``, and the
   block-table column tuples nothing read, and the threaded write
   backend beside the one write pass, with its two options, and the
   one-buffer deflate probe beside the batched one, and the
   hierarchical index's WAH leaves beside the flat position index, and
   the definitions only tests called.
10. **Nothing ambient switches a handle.**  A handle is configured
   where it is opened (DESIGN.md §6), so no module under ``src/repro``
   outside ``repro/harness`` (whose two deployment settings,
   ``REPRO_SCALE`` and ``REPRO_RESULTS_DIR``, say where and how big to
   run, not what the library does) may read ``os.environ`` or call
   ``os.getenv``.
11. **Every persisted byte is a framed record.**  Records are read by
   the one checked reader, ``repro.util.record.RecordReader``, which
   fails typed on any bytes no writer produces; so no module under
   ``src/repro`` may import ``pickle``, ``marshal`` or ``shelve``,
   whose decoders run whatever the bytes name.
12. **No unused import.**  No module under ``src/``, ``tests/`` or
   ``benchmarks/`` outside an ``__init__.py`` (a package's re-export
   surface) may import a name at module level and never use it — the
   check behind pyflakes' F401, so the lint step of CI cannot go red
   on a host without ruff.  A name used only inside a quoted
   annotation, or listed in ``__all__``, counts as used.
13. **scipy loads on demand.**  ISABELA's spline fit is the one user
   of scipy, and most processes (the CLI, a pool worker, MLOC-COL and
   MLOC-ISO runs) never fit a spline; so no module under
   ``src/repro`` may import ``scipy`` when it is itself imported —
   only inside the function that needs it.

Exits non-zero listing every violation.  Wired into ``make verify``
and CI; run directly with ``python scripts/check_layers.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Packages a PFS module may never import from.
PFS_FORBIDDEN_PREFIXES = (
    "repro.core",
    "repro.plod",
    "repro.binning",
    "repro.index",
    "repro.parallel",
    "repro.harness",
)

#: Packages ``repro.core.manifest`` may never import from (everything
#: at or above the store layer; the PFS substrate and stdlib are fine).
MANIFEST_FORBIDDEN_PREFIXES = (
    "repro.core.store",
    "repro.core.dataset",
    "repro.core.writer",
    "repro.core.planner",
    "repro.core.engine",
    "repro.server",
    "repro.index",
    "repro.plod",
    "repro.harness",
)

#: Layers above the library (rule 3) -> the modules, as paths under
#: ``src/repro/``, that may import them besides their own package.
UPPER_LAYERS = {
    "repro.server": ("server/", "cli.py"),
    "repro.harness": ("harness/", "bench.py", "cli.py"),
}

#: ``ExecutionConfig`` fields that are execution options and nothing
#: else (``backend``, ``workers``, ``tol``... also name unrelated
#: parameters, e.g. a query's ``tol``, so they are not listed).
EXECUTION_ONLY_PARAMS = frozenset(
    {
        "max_read_retries",
        "read_backoff",
        "allow_partial",
        "coalesce_gap",
    }
)

#: Second implementations that lost (rule 9): records are read, never
#: rebuilt; work lists are columnar; multi-variable access is compound
#: access; every handle's batch shares one fetcher; a request runs
#: through ``query``/``stage``; a snapshot opens members through ``store``;
#: sealed members are immutable, so nothing is invalidated; the
#: scheduler coalesces and does not prefetch; shards are a topology
#: keyword of the one store class; a staged query counts into one
#: ``QueryCounters`` and its rank schedulers own their file handles; a
#: dataset is served by one ``BrokerCore`` whose requests name a pinned
#: snapshot's member handles; a public name, constructor or method
#: that only tests called is not part of the library; a replay is the
#: one ``replay`` loop over an arrival source, with one admission rule
#: and one report; a published table is declared once, in the registry;
#: a codec is configured by its name alone, and a block table's columns
#: are named in FORMAT.md, not in a tuple nothing reads; a store is
#: written by one serial pass with no options.
DELETED_NAMES = frozenset(
    {
        "build_from_store",
        "BlockRef",
        "from_refs",
        "to_refs",
        "bin_segments",
        "block_refs",
        "planning_rows",
        "MultiVarResult",
        "_batch_fetcher",
        "execute_planned",
        "sharded_store",
        "invalidate_generation",
        "_drop_handles",
        "readahead",
        "extent_cached",
        "refinement_groups",
        "ShardedMLOCStore",
        "_FaultContext",
        "_IOCounters",
        "_HandleOpener",
        "IngestBroker",
        "NotYetSealed",
        # Doors only tests walked through: a second planning-context
        # constructor and snapshot door, a store proxy, and names and
        # methods nothing outside the tests called.
        "for_store",
        "refresh",
        "_generations_seen",
        "TracingStore",
        "from_spec",
        "region_size",
        "replicate_to",
        "gts_particle_timesteps",
        "aggregate_timesteps",
        "spmd",
        "dataset_files",
        "groups_for_level",
        "bytes_for_level",
        "plod_error_report",
        "PLoDErrorReport",
        "io_reduction",
        "check_positive",
        "check_power_of_two",
        "check_dtype",
        "bar_chart",
        "shard_of_bin",
        "average_region_times",
        # Per-mode replay drivers, their event type, round helper,
        # report subclass and the backoff keyword no caller passed.
        "replay_open_loop",
        "replay_closed_loop",
        "replay_ingest",
        "serve_round",
        "open_loop_events",
        "poisson_arrivals",
        "ReplayEvent",
        "IngestReplayReport",
        "retry_backoff",
        # The NumPy load vector a simulated read built to charge its
        # stripes; the read charges each OST it touches directly.
        "_ost_loads",
        # The runner's own table of headers and titles; every published
        # table is declared once, in ``repro.harness.tables.TABLES``.
        "EXPERIMENTS",
        # The codec constructor keywords no caller ever set (a stored
        # configuration names its codec and nothing else), and the
        # block-table column names nothing read.
        "codec_params",
        "DATA_BLOCK_FIELDS",
        "INDEX_BLOCK_FIELDS",
        # The threaded write backend, its two options, their choices,
        # the option split and the table that timed it: no workload
        # wrote with it, and it cost peak memory where it won.
        "write_backend",
        "write_workers",
        "WRITE_BACKENDS",
        "writer_options",
        "_ThreadedBackend",
        "writer_backend_rows",
        # The one-buffer deflate probe: ``zlib-bytes`` probes a whole
        # batch in one pass, and ``encode`` is a batch of one.
        "_deflate_cannot_shrink",
        # The hierarchical index's WAH leaves, a second copy of every
        # position that only an opt-in masked fetch read: the record
        # keeps its run counts and positions live in the flat index.
        "bins_intersecting",
        "range_positions",
        "bin_positions",
        "range_run_groups",
        "leaf_words",
        "leaf_offsets",
        # Definitions only tests called: the advisor's preset profiles,
        # a lone client's cost, a plan rewriter and a fault-log total,
        # an ingest drain, a backlog gauge ``stats()`` already reports,
        # ISABELA's bound formula, the per-chunk split of
        # ``PositionBlock`` (fsck splits at ``PositionBlock.offsets``)
        # and the file metadata record ``SimulatedPFS.stat`` returned.
        "fusion_like",
        "climate_like",
        "analytics_like",
        "serial_time",
        "sticky_only",
        "total_faults",
        "run_to_completion",
        "pending_bytes",
        "error_bound",
        "decode_position_block",
        "FileStat",
    }
)

#: Trees whose modules may not import a name they never use (rule 12).
LINTED_TREES = ("src", "tests", "benchmarks")

#: Modules whose decoders run code the bytes name (rule 11).
UNFRAMED_SERIALIZERS = ("pickle", "marshal", "shelve")

#: Packages on the simulated clock: none of their modules may import
#: ``time``.
SIM_CLOCK_PACKAGES = ("core", "baselines", "server", "pfs", "index", "plod", "parallel")

#: Counter owners above the engine; their rows may not be named in it.
SERVING_OWNERS = ("broker",)

#: Calls that run a request to completion (rule 8): never in a loop of
#: the serving layer or of ``query_many``.
RUN_TO_COMPLETION = frozenset({"query", "assemble"})
_LOOPS = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)  # fmt: skip

#: Engine layer heights; a module may import only strictly lower ones.
ENGINE_LAYERS = {
    "repro.core.engine.scheduler": 0,
    "repro.core.engine.stages": 1,
    "repro.core.engine.session": 2,
}


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """(lineno, dotted module) for every import statement in ``path``."""
    return _tree_imports(ast.parse(path.read_text(), filename=str(path)))


def _tree_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(lineno, dotted module) for every import statement in ``tree``,
    at any depth."""
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def _serving_counter_names() -> set[str]:
    """Names of the ``COUNTERS`` rows owned by a serving layer.

    Read from the table's source: every row is a
    ``Counter(name, fold, owner)`` call of three string literals.
    """
    result_py = SRC / "repro" / "core" / "result.py"
    names = set()
    for node in ast.walk(ast.parse(result_py.read_text(), filename=str(result_py))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Counter"
            and len(node.args) == 3
            and all(isinstance(a, ast.Constant) for a in node.args)
            and node.args[2].value in SERVING_OWNERS
        ):
            names.add(node.args[0].value)
    return names


def upper_layer_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 3 over the syntax tree of ``where`` (a path under
    ``src/repro/``): every import of a layer above the library that
    the layer does not admit there."""
    rel = where.partition("src/repro/")[2]
    return [
        f"{where}:{lineno}: {module} sits above repro.core; only "
        f"{', '.join(admitted)} may import it (imports go downward only)"
        for lineno, module in _tree_imports(tree)
        for layer, admitted in UPPER_LAYERS.items()
        if (module == layer or module.startswith(layer + "."))
        and not rel.startswith(admitted)
    ]


def batch_loop_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 8 over one syntax tree: every run-to-completion call that
    sits inside a loop or comprehension of ``tree``."""
    calls = {
        (node.lineno, getattr(node.func, "attr", getattr(node.func, "id", None)))
        for loop in ast.walk(tree)
        if isinstance(loop, _LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
    }
    return [
        f"{where}:{lineno}: {name}() inside a loop runs requests to completion "
        f"one at a time; stage them in the loop and assemble the batch once"
        for lineno, name in sorted(calls, key=lambda c: c[0])
        if name in RUN_TO_COMPLETION
    ]


def deleted_name_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 9 over one syntax tree: every ``def``, ``class``, parameter,
    annotated field, module-level assignment or import that names one of
    ``DELETED_NAMES``."""
    found = []
    module_level = set(getattr(tree, "body", []))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign) and node in module_level:
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            continue
        found += [
            f"{where}:{node.lineno}: {name} was deleted with the second path it "
            f"belonged to (rule 9); use the one implementation that remains"
            for name in names
            if name in DELETED_NAMES
        ]
    return found


def environ_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 10 over one syntax tree: every read of the process
    environment (``os.environ``, ``os.getenv``, or either imported
    from ``os``)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for a in node.names if a.name in ("environ", "getenv")]
    return [
        f"{where}:{lineno}: reads the process environment; nothing ambient "
        f"switches a handle (rule 10) — take the setting where the handle is opened"
        for lineno in sorted(lines)
    ]


def serializer_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 11 over one syntax tree: every import of one of
    ``UNFRAMED_SERIALIZERS``, at any depth."""
    return [
        f"{where}:{lineno}: imports {module}; persist a framed record read by "
        f"repro.util.record.RecordReader instead (rule 11)"
        for lineno, module in _tree_imports(tree)
        if module.partition(".")[0] in UNFRAMED_SERIALIZERS
    ]


def _load_time_nodes(tree: ast.AST):
    """Every node of ``tree`` that runs when the module is imported:
    all of it except the bodies of functions and lambdas."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def _names_used(tree: ast.AST) -> set[str]:
    """Names ``tree`` reads: every ``Name``, every name inside a quoted
    annotation, and every string listed in ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and "__all__" in [
            getattr(t, "id", None)
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        ]:
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )  # fmt: skip
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_import_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 12 over one syntax tree: every name a module-level import
    binds that the module never uses (pyflakes' F401)."""
    used = _names_used(tree)
    found = []
    for node in _load_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        found += [(node.lineno, name) for name in names if name not in used]
    return [
        f"{where}:{lineno}: {name} is imported and never used (rule 12); "
        f"delete the import"
        for lineno, name in sorted(found)
    ]


def scipy_import_violations(tree: ast.AST, where: str) -> list[str]:
    """Rule 13 over one syntax tree: every ``scipy`` import that runs
    when the module is imported, rather than inside a function."""
    return [
        f"{where}:{lineno}: imports scipy at load time; import it "
        f"inside the function that needs it (rule 13)"
        for node in _load_time_nodes(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for lineno, module in _tree_imports(node)
        if module.partition(".")[0] == "scipy"
    ]


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check() -> list[str]:
    violations: list[str] = []

    for path in sorted((SRC / "repro" / "pfs").glob("*.py")):
        for lineno, module in _imported_modules(path):
            if module.startswith(PFS_FORBIDDEN_PREFIXES):
                violations.append(
                    f"{path.relative_to(REPO)}:{lineno}: repro.pfs must not "
                    f"import {module} (PFS sits below the core layer)"
                )

    for path in sorted((SRC / "repro" / "core" / "engine").glob("*.py")):
        name = _module_name(path)
        if name not in ENGINE_LAYERS:
            continue  # __init__.py re-export surface is exempt
        height = ENGINE_LAYERS[name]
        for lineno, module in _imported_modules(path):
            if module == name:
                continue
            other = ENGINE_LAYERS.get(module)
            if other is not None and other >= height:
                violations.append(
                    f"{path.relative_to(REPO)}:{lineno}: engine layer "
                    f"{name} (height {height}) may not import {module} "
                    f"(height {other}); stages import strictly downward"
                )

    manifest_py = SRC / "repro" / "core" / "manifest.py"
    for lineno, module in _imported_modules(manifest_py):
        if module.startswith(MANIFEST_FORBIDDEN_PREFIXES):
            violations.append(
                f"{manifest_py.relative_to(REPO)}:{lineno}: "
                f"repro.core.manifest must not import {module} (manifests "
                f"sit below the store layer; only the PFS substrate and "
                f"stdlib are allowed)"
            )

    server_dir = SRC / "repro" / "server"
    config_py = SRC / "repro" / "core" / "config.py"
    harness_dir = SRC / "repro" / "harness"
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        violations += upper_layer_violations(tree, str(path.relative_to(REPO)))
        violations += scipy_import_violations(tree, str(path.relative_to(REPO)))
        violations += deleted_name_violations(tree, str(path.relative_to(REPO)))
        violations += serializer_violations(tree, str(path.relative_to(REPO)))
        if harness_dir not in path.parents:
            violations += environ_violations(tree, str(path.relative_to(REPO)))
        if path == config_py:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for arg in params:
                if arg.arg in EXECUTION_ONLY_PARAMS:
                    violations.append(
                        f"{path.relative_to(REPO)}:{arg.lineno}: parameter "
                        f"{arg.arg!r} re-declares an execution option; take "
                        f"execution: ExecutionConfig (repro.core.config) instead"
                    )

    for package in SIM_CLOCK_PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            for lineno, module in _imported_modules(path):
                if module == "time":
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: {_module_name(path)} "
                        f"must not import time (simulated seconds are modeled "
                        f"from counted work, never measured)"
                    )

    serving = _serving_counter_names()
    if not serving:
        violations.append(
            "src/repro/core/result.py: found no broker rows in COUNTERS "
            "(rule 7 reads them as Counter(name, fold, owner) literals)"
        )
    for path in sorted((SRC / "repro" / "core" / "engine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in serving:
                violations.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: the engine names "
                    f"{node.value!r}, a counter a serving layer owns "
                    f"(repro.core.result.COUNTERS); the owner emits it"
                )

    for path in sorted(server_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        violations += batch_loop_violations(tree, str(path.relative_to(REPO)))
    store_py = SRC / "repro" / "core" / "store.py"
    batches = [
        node
        for node in ast.walk(ast.parse(store_py.read_text(), filename=str(store_py)))
        if isinstance(node, ast.FunctionDef) and node.name == "query_many"
    ]
    if not batches:
        violations.append(f"{store_py.relative_to(REPO)}: found no query_many (rule 8)")
    for node in batches:
        violations += batch_loop_violations(node, str(store_py.relative_to(REPO)))

    for top in LINTED_TREES:
        for path in sorted((REPO / top).rglob("*.py")):
            if path.name != "__init__.py":
                tree = ast.parse(path.read_text(), filename=str(path))
                violations += unused_import_violations(tree, str(path.relative_to(REPO)))

    if list((SRC / "repro" / "core").glob("executor*")):
        violations.append(
            "src/repro/core/executor.py: the QueryExecutor alias shim was "
            "removed; import repro.core.engine.stages / repro.core.planner"
        )

    return violations


def main() -> int:
    violations = check()
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layer violation(s)")
        return 1
    print("layer boundaries OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
