"""MLOCDataset: a multi-variable, multi-timestep facade.

The paper's data model is multi-variate, spatio-temporal simulation
output: several physical variables on a shared grid, one snapshot per
simulation timestep.  ``MLOCDataset`` manages that catalog over one
dataset root on the simulated PFS — each (variable, timestep) pair is
an independent MLOC store (its own bin subfiles and metadata), which is
exactly how the framework composes: queries on one snapshot never touch
another's files, and multi-variable access joins stores that share the
grid.

Two write paths coexist:

``write()``
    The original sealed-batch path: encode one member, no catalog
    record beyond the files themselves.
``append()``
    The in-situ ingest path (ROADMAP item 4b): encode one member
    through the same three-stage writer pipeline, then commit it with
    an atomic manifest bump (``repro.core.manifest``).  Readers pin a
    :class:`DatasetSnapshot` — generation ``G`` sees exactly the
    members sealed at ``G``, bit-identical no matter how many appends
    land mid-query — and call :meth:`DatasetSnapshot.refresh` to
    surface newer generations.

Open member handles are registered per ``(key, meta_crc)``: two
snapshots of the same sealed member share one :class:`MLOCStore` (one
``PlanContext``, one plan LRU), while a rewritten member gets a fresh
handle and a fresh cache generation, so stale planning tables or
decoded blocks can never serve a newer layout.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.compound import CompoundResult, multi_variable_query
from repro.core.config import ExecutionConfig, MLOCConfig, fold_execution
from repro.core.manifest import (
    Manifest,
    ManifestError,
    ManifestMember,
    commit_manifest,
    load_manifest,
    load_manifest_at,
    member_key,
)
from repro.core.meta import StoreMeta, read_meta_bytes
from repro.core.query import Query
from repro.core.result import QueryResult
from repro.core.sharded import ShardedMLOCStore
from repro.core.store import MLOCStore
from repro.core.writer import MLOCWriter, WriteReport
from repro.pfs.blockcache import BlockCache
from repro.pfs.simfs import SimulatedPFS

__all__ = ["DatasetSnapshot", "MLOCDataset"]


class MLOCDataset:
    """Catalog of MLOC-encoded variables/timesteps under one root.

    One :class:`~repro.core.config.ExecutionConfig` (``execution``, or
    its fields as keywords) configures both the writer that seals
    members and every member handle the dataset opens.
    """

    def __init__(
        self,
        fs: SimulatedPFS,
        root: str,
        config: MLOCConfig,
        *,
        n_ranks: int = 8,
        execution: ExecutionConfig | None = None,
        **overrides,
    ) -> None:
        self.fs = fs
        self.root = root.rstrip("/")
        self.config = config
        self.n_ranks = n_ranks
        self.execution = fold_execution(execution, overrides)
        self._writer = MLOCWriter(fs, self.root, config, execution=self.execution)
        #: One decoded-block cache shared by every member handle this
        #: dataset opens; entries are keyed by each member's sealed
        #: generation (its ``meta_crc``), so a rewrite can never serve
        #: stale blocks.
        cache_bytes = self.execution.cache_bytes
        self.cache = BlockCache(cache_bytes) if cache_bytes > 0 else None
        #: Open member handles, keyed ``(key, meta_crc)``.
        self._handles: dict[tuple[str, int], MLOCStore] = {}
        self._manifest: Manifest | None = None
        self._generations_seen: set[int] = set()
        self.snapshot_refreshes = 0

    # ------------------------------------------------------------------
    def write(
        self, data: np.ndarray, variable: str, timestep: int | None = None
    ) -> WriteReport:
        """Encode one variable snapshot through the MLOC pipeline."""
        key = member_key(variable, timestep)
        report = self._writer.write(data, variable=key)
        self._drop_handles(key)  # invalidate any cached open store
        return report

    def append(
        self, data: np.ndarray, variable: str, timestep: int | None = None
    ) -> WriteReport:
        """Seal one new member and commit an atomic manifest bump.

        The member's subfiles (bins, metadata, per-member ``hbi``/
        ``peb``) are written first through the ordinary three-stage
        pipeline, then ``manifest.g<N+1>`` is committed in one write.
        A crash before the commit leaves only orphaned files that no
        generation references (``fsck --dataset`` reports them); a torn
        commit leaves an unreadable manifest that readers skip — either
        way generation ``N`` stays fully readable.
        """
        key = member_key(variable, timestep)
        current = load_manifest(self.fs, self.root)
        if current.member(key) is not None:
            raise ManifestError(
                f"member {key!r} already sealed in generation "
                f"{current.generation}"
            )
        report = self._writer.write(data, variable=key)
        member = ManifestMember(
            key=key,
            timestep=timestep,
            sealed_generation=current.generation + 1,
            meta_crc=report.meta_crc,
            total_bytes=report.total_bytes,
        )
        manifest = current.with_member(member)
        commit_manifest(self.fs, self.root, manifest)
        self._manifest = manifest
        self._generations_seen.add(manifest.generation)
        self._drop_handles(key)
        return report

    # ------------------------------------------------------------------
    def _drop_handles(self, key: str) -> None:
        """Forget open handles of ``key`` (after a rewrite/seal)."""
        for reg in [r for r in self._handles if r[0] == key]:
            stale = self._handles.pop(reg)
            if self.cache is not None:
                self.cache.invalidate_generation(stale.generation)

    def _open_member(
        self, key: str, expect_crc: int | None = None, **overrides
    ) -> MLOCStore | ShardedMLOCStore:
        """Open ``key``, optionally pinned to a sealed ``meta_crc``.

        Handles opened with the dataset's default options are shared
        through the ``(key, meta_crc)`` registry — the same sealed
        member reached through any number of snapshots reuses one
        ``PlanContext`` and plan LRU.  ``overrides`` are store
        constructor keywords (``n_shards`` selects a sharded handle);
        they bypass the registry (a differently configured handle is a
        different view).  Every handle gets the dataset's ``execution``
        and shared cache unless the overrides bring their own.
        """
        if not overrides and (key, expect_crc) in self._handles:
            # The manifest already names the sealed bytes, so a shared
            # handle is found without re-reading the metadata file.
            return self._handles[key, expect_crc]
        var_root = f"{self.root}/{key}"
        raw = read_meta_bytes(self.fs, var_root)
        crc = zlib.crc32(raw)
        if expect_crc is not None and crc != expect_crc:
            raise ManifestError(
                f"member {key!r}: on-disk metadata (crc {crc:#010x}) does "
                f"not match its sealed manifest record ({expect_crc:#010x})"
            )
        reg = (key, crc)
        if not overrides and reg in self._handles:
            return self._handles[reg]
        options = {"n_ranks": self.n_ranks, "execution": self.execution, **overrides}
        if self.cache is not None and not overrides.keys() & {
            "cache", "cache_bytes", "execution"
        }:
            options["cache"] = self.cache
        cls = ShardedMLOCStore if "n_shards" in overrides else MLOCStore
        store = cls(
            self.fs, var_root, StoreMeta.from_bytes(raw), generation=crc, **options
        )
        if not overrides:
            self._handles[reg] = store
        return store

    def store(self, variable: str, timestep: int | None = None) -> MLOCStore:
        """Open (and cache) the store of one variable snapshot."""
        return self._open_member(member_key(variable, timestep))

    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Manifest:
        """The latest manifest generation this handle has observed."""
        if self._manifest is None:
            self._manifest = load_manifest(self.fs, self.root)
            self._generations_seen.add(self._manifest.generation)
        return self._manifest

    @property
    def generation(self) -> int:
        return self.manifest.generation

    def snapshot(self, generation: int | None = None) -> "DatasetSnapshot":
        """Pin a snapshot: the member set of exactly one generation.

        Default is the newest committed generation on disk; passing
        ``generation`` re-opens a specific one (the fresh-open view the
        snapshot-isolation property tests bit-compare against).
        """
        if generation is None:
            manifest = load_manifest(self.fs, self.root)
            self._manifest = manifest
        else:
            manifest = load_manifest_at(self.fs, self.root, generation)
        self._generations_seen.add(manifest.generation)
        return DatasetSnapshot(self, manifest)

    def runtime_stats(self) -> dict:
        """Lifecycle counters of this catalog handle."""
        return {
            "generation": self.generation,
            "generations_seen": len(self._generations_seen),
            "snapshot_refreshes": self.snapshot_refreshes,
            "open_handles": len(self._handles),
        }

    # ------------------------------------------------------------------
    def variables(self) -> list[str]:
        """All (variable[@timestep]) keys present under the root."""
        prefix = self.root + "/"
        keys = set()
        for path in self.fs.list_files(prefix):
            rest = path[len(prefix) :]
            if "/" in rest:
                keys.add(rest.split("/", 1)[0])
        return sorted(keys)

    def timesteps(self, variable: str) -> list[int]:
        """Timesteps stored for ``variable`` (empty for static vars)."""
        out = []
        for key in self.variables():
            if key.startswith(variable + "@"):
                out.append(int(key.split("@", 1)[1]))
        return sorted(out)

    def total_bytes(self) -> int:
        """Total storage under the dataset root."""
        return self.fs.total_bytes(self.root + "/")

    # ------------------------------------------------------------------
    def multi_variable_query(
        self,
        select_variable: str,
        fetch_variables: list[str],
        value_range: tuple[float, float],
        *,
        timestep: int | None = None,
        region: tuple[tuple[int, int], ...] | None = None,
        plod_level: int = 7,
    ) -> CompoundResult:
        """Section III-D4 access across this dataset's variables."""
        select = self.store(select_variable, timestep)
        fetch = [self.store(v, timestep) for v in fetch_variables]
        result = multi_variable_query(
            select,
            fetch,
            value_range,
            region=region,
            plod_level=plod_level,
        )
        # Stores are keyed by "variable@timestep"; present results under
        # the caller's plain variable names.
        result.values = {
            name: result.values[store.variable]
            for name, store in zip(fetch_variables, fetch)
        }
        return result


class DatasetSnapshot:
    """An immutable pin of one manifest generation.

    Every accessor resolves against the pinned member set only: a
    member sealed by a later generation does not exist here (store
    lookups raise ``KeyError``), and because sealed members never
    change, every query through this snapshot is bit-identical to the
    same query against a fresh open pinned at the same generation —
    regardless of concurrent appends.  ``refresh()`` returns a *new*
    snapshot at the newest committed generation; this one stays valid.
    """

    def __init__(self, dataset: MLOCDataset, manifest: Manifest) -> None:
        self._dataset = dataset
        self.manifest = manifest

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self.manifest.generation

    def members(self) -> tuple[ManifestMember, ...]:
        return self.manifest.members

    def variables(self) -> list[str]:
        return sorted({m.variable for m in self.manifest.members})

    def timesteps(self, variable: str) -> list[int]:
        return sorted(
            m.timestep
            for m in self.manifest.members
            if m.variable == variable and m.timestep is not None
        )

    def has(self, variable: str, timestep: int | None = None) -> bool:
        key = member_key(variable, timestep)
        return self.manifest.member(key) is not None

    def member(
        self, variable: str, timestep: int | None = None
    ) -> ManifestMember:
        key = member_key(variable, timestep)
        member = self.manifest.member(key)
        if member is None:
            raise KeyError(
                f"member {key!r} is not sealed in generation "
                f"{self.generation}"
            )
        return member

    # ------------------------------------------------------------------
    def store(
        self, variable: str, timestep: int | None = None, **options
    ) -> MLOCStore:
        """Open one sealed member, pinned to its recorded ``meta_crc``.

        ``options`` are store constructor keywords (``n_shards=k`` opens
        the member as bin-range shards, ``use_hbi=True`` plans it
        through its hierarchical index); a handle opened without any is
        the dataset's shared one.
        """
        member = self.member(variable, timestep)
        return self._dataset._open_member(
            member.key, expect_crc=member.meta_crc, **options
        )

    def refresh(self) -> "DatasetSnapshot":
        """A new snapshot pinned at the newest committed generation."""
        self._dataset.snapshot_refreshes += 1
        return self._dataset.snapshot()

    # ------------------------------------------------------------------
    def query_series(
        self,
        variable: str,
        query: Query,
        timesteps: list[int] | None = None,
    ) -> dict[int, QueryResult]:
        """Run one query across this snapshot's timesteps of a variable.

        Cross-member planning is the union of per-member plans: each
        sealed member carries its own ``hbi``/``peb`` records built at
        its seal, so no whole-dataset index exists (or is ever rebuilt
        on append) — the planner prunes within each member
        independently.
        """
        if timesteps is None:
            timesteps = self.timesteps(variable)
        out: dict[int, QueryResult] = {}
        for t in timesteps:
            out[t] = self.store(variable, t).query(query)
        return out
