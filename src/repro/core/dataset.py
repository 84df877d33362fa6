"""MLOCDataset: the manifest catalog of one dataset root.

The paper's data model is multi-variate, spatio-temporal simulation
output written once per timestep and then only read: several physical
variables on a shared grid, one member per (variable, timestep).  Each
member is an independent MLOC store (its own bin subfiles and
metadata) — queries on one member never touch another's files, and
multi-variable access joins member handles that share the grid
(``repro.core.multi_variable_query``).

A dataset *is* its manifest chain (``repro.core.manifest``):

``append()``
    The only way a member enters: encode it through the one-pass
    writer, then commit an atomic manifest bump.
``snapshot()``
    The only way members are listed and opened: a
    :class:`DatasetSnapshot` pins generation ``G`` and sees exactly the
    members sealed at ``G``, bit-identical no matter how many appends
    land mid-query; a new ``snapshot()`` surfaces newer generations.

Sealed means immutable, so nothing here is ever invalidated: open
member handles are registered per ``(key, meta_crc)`` — two snapshots
of the same sealed member share one :class:`MLOCStore` (one
``PlanContext``, one plan LRU) for the life of the dataset handle, and
a member whose on-disk metadata no longer hashes to its sealed record
(rewritten from outside) is refused, never served.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ExecutionConfig, MLOCConfig, fold_execution
from repro.core.manifest import (
    Manifest,
    ManifestError,
    ManifestMember,
    advance_manifest,
    commit_manifest,
    load_manifest,
    load_manifest_at,
    member_key,
)
from repro.core.meta import StoreMeta, read_meta_bytes
from repro.core.query import Query
from repro.core.result import QueryResult
from repro.core.store import MLOCStore
from repro.core.writer import MLOCWriter, WriteReport
from repro.pfs.blockcache import BlockCache
from repro.pfs.simfs import SimulatedPFS
from repro.util.record import record_crc

__all__ = ["DatasetSnapshot", "MLOCDataset"]


class MLOCDataset:
    """The append-only catalog of sealed members under one root.

    One :class:`~repro.core.config.ExecutionConfig` (``execution``, or
    its fields as keywords) configures every member handle the dataset
    opens.
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
        self._writer = MLOCWriter(fs, self.root, config)
        #: One decoded-block cache shared by every member handle this
        #: dataset opens; entries are keyed by each member's sealed
        #: generation (its ``meta_crc``).
        cache_bytes = self.execution.cache_bytes
        self.cache = BlockCache(cache_bytes) if cache_bytes > 0 else None
        #: Open member handles, keyed ``(key, meta_crc)``.
        self._handles: dict[tuple[str, int], MLOCStore] = {}
        self._manifest: Manifest | None = None

    # ------------------------------------------------------------------
    def append(
        self, data: np.ndarray, variable: str, timestep: int | None = None
    ) -> WriteReport:
        """Seal one new member and commit an atomic manifest bump.

        The member's subfiles (bins, metadata, per-member ``hbi``/
        ``peb``) are written first through the ordinary one-pass
        writer, then ``manifest.g<N+1>`` is committed in one write: the
        delta of this member on top of the generation the handle holds.
        Only generations another handle committed since are read.
        A crash before the commit leaves only orphaned files that no
        generation references (``fsck --dataset`` reports them); a torn
        commit leaves an unreadable manifest that readers skip — either
        way generation ``N`` stays fully readable.
        """
        key = member_key(variable, timestep)
        current = self._latest()
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
        # The commit probes again: another handle may have committed
        # while the member was being written.
        commit_manifest(self.fs, self.root, manifest, parent=current)
        self._manifest = manifest
        return report

    def _latest(self) -> Manifest:
        """The newest committed generation: the manifest this handle
        holds, advanced over generations committed since (a handle's
        first call loads the chain)."""
        if self._manifest is None:
            self._manifest = load_manifest(self.fs, self.root)
        else:
            self._manifest = advance_manifest(self.fs, self.root, self._manifest)
        return self._manifest

    # ------------------------------------------------------------------
    def _open_member(self, key: str, expect_crc: int, **overrides) -> MLOCStore:
        """Open sealed member ``key``, pinned to its recorded ``meta_crc``.

        Handles opened with the dataset's default options are shared
        through the ``(key, meta_crc)`` registry — the same sealed
        member reached through any number of snapshots reuses one
        ``PlanContext`` and plan LRU.  ``overrides`` are store
        constructor keywords (``n_shards`` opens bin-range shards);
        they bypass the registry (a differently configured handle is a
        different view).  Every handle gets the dataset's ``execution``
        and shared cache unless the overrides bring their own.
        """
        reg = (key, expect_crc)
        if not overrides and reg in self._handles:
            return self._handles[reg]
        var_root = f"{self.root}/{key}"
        raw = read_meta_bytes(self.fs, var_root)
        crc = record_crc(raw)
        if crc != expect_crc:
            raise ManifestError(
                f"member {key!r}: on-disk metadata (crc {crc:#010x}) does "
                f"not match its sealed manifest record ({expect_crc:#010x})"
            )
        options = {"n_ranks": self.n_ranks, "execution": self.execution, **overrides}
        if self.cache is not None and not overrides.keys() & {
            "cache", "cache_bytes", "execution"
        }:
            options["cache"] = self.cache
        store = MLOCStore(
            self.fs, var_root, StoreMeta.from_bytes(raw), generation=crc, **options
        )
        if not overrides:
            self._handles[reg] = store
        return store

    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Manifest:
        """The latest manifest generation this handle has observed."""
        if self._manifest is None:
            self._manifest = load_manifest(self.fs, self.root)
        return self._manifest

    @property
    def generation(self) -> int:
        return self.manifest.generation

    def snapshot(self, generation: int | None = None) -> "DatasetSnapshot":
        """Pin a snapshot: the member set of exactly one generation.

        Default is the newest committed generation on disk (the held
        manifest when no newer one exists); passing
        ``generation`` re-opens a specific one (the fresh-open view the
        snapshot-isolation property tests bit-compare against).
        """
        if generation is None:
            manifest = self._latest()
        else:
            manifest = load_manifest_at(self.fs, self.root, generation)
        return DatasetSnapshot(self, manifest)

    def runtime_stats(self) -> dict:
        """Lifecycle counters of this catalog handle."""
        return {
            "generation": self.generation,
            "open_handles": len(self._handles),
        }


class DatasetSnapshot:
    """An immutable pin of one manifest generation.

    Every accessor resolves against the pinned member set only: a
    member sealed by a later generation does not exist here (store
    lookups raise ``KeyError``), and because sealed members never
    change, every query through this snapshot is bit-identical to the
    same query against a fresh open pinned at the same generation —
    regardless of concurrent appends.  ``dataset.snapshot()`` pins a
    *new* snapshot at the newest committed generation; this one stays
    valid.
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

    def timesteps(self, variable: str) -> list[int]:
        return sorted(
            m.timestep
            for m in self.manifest.members
            if m.variable == variable and m.timestep is not None
        )

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
