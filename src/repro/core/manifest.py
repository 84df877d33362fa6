"""Versioned dataset manifests: the append protocol's commit record.

A dataset that grows timestep-by-timestep (in-situ ingest) needs one
piece of mutable state: *which sealed members exist*.  Everything else
on disk is immutable once written — a member's subfiles, metadata,
``hbi`` and ``peb`` records never change after its seal.  This module
defines that single mutable record as a chain of immutable,
generation-numbered **manifest files**:

``<root>/manifest.g<NNNNNNNN>``
    Generation ``N`` of the dataset, written in one
    :meth:`~repro.pfs.simfs.SimulatedPFS.write_file` call.  Most
    generations are a **delta**: the members generation ``N`` seals,
    plus the generation and record CRC of its parent ``N - 1``.  Every
    :data:`CHECKPOINT_EVERY`-th generation is a **checkpoint**: the
    same header plus every member sealed at or before ``N``.  A member
    entry is its key, timestep, the CRC of its metadata record
    (pinning the exact sealed bytes), and its storage footprint.

Generation ``N`` resolves from the checkpoint ``N - N % CHECKPOINT_EVERY``
plus the deltas after it, each of which must name the record CRC of
the generation before it (:func:`walk_chain` is that one rule; the
loaders and ``fsck`` all walk it); generation 0 is the empty
checkpoint every chain starts from, and is never written.  An append
therefore writes one small record, and reads nothing when its handle
already holds the parent (:func:`advance_manifest`): its cost does
not grow with the dataset's length.

The commit protocol (FORMAT.md, "Dataset manifests"):

1. write all of the new member's subfiles through the ordinary
   one-pass writer (data/index bins, ``meta``, ``hbi``,
   ``peb`` — the per-member records are built at seal time, so no
   whole-dataset index is ever rebuilt);
2. write ``manifest.g<N+1>``: the new member, on top of generation
   ``N``'s record CRC.

A crash anywhere leaves every previously committed generation intact:
step 1 produces only *orphaned* files no manifest references, and a
torn step 2 produces a manifest file whose CRC does not verify, which
readers skip (``load_manifest`` returns the newest generation that
resolves).  Readers that pin a generation therefore see a frozen,
bit-identical member set no matter how many appends land concurrently
— the snapshot-isolation invariant DESIGN.md §9 builds on.

Like the ``hbi``/``peb`` records the manifest is versioned, magic
tagged, and CRC'd; unlike them it is authoritative rather than derived
(there is nothing to rebuild it from), which is why it is the *only*
file the append protocol ever rewrites — and then only a torn leftover
of its own generation, never a record that decodes.

This module sits *below* ``repro.core.store`` (enforced by
``scripts/check_layers.py`` rule 4): it may import the PFS substrate
and stdlib only, so the writer, store, dataset, and serving layers can
all depend on it without cycles.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

from repro.pfs.simfs import SimulatedPFS
from repro.util.record import FormatError, RecordReader, frame, record_crc, text_field

__all__ = [
    "CHECKPOINT_EVERY",
    "ChainLink",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "Manifest",
    "ManifestError",
    "ManifestMember",
    "ManifestRecord",
    "advance_manifest",
    "commit_manifest",
    "load_manifest",
    "load_manifest_at",
    "load_manifest_record",
    "manifest_generations",
    "manifest_path",
    "member_key",
    "walk_chain",
]

MANIFEST_MAGIC = b"MLOCMAN\x00"
MANIFEST_VERSION = 2
#: Generation ``N`` is written in full (a checkpoint) exactly when
#: ``N % CHECKPOINT_EVERY == 0``; the ones between are deltas.
#: Checkpoints make the stored manifest bytes grow as N² / (2 K)
#: member entries, and a reader replays at most
#: K − 1 deltas: at K = 16 the manifests of a 1 000-generation 96²
#: campaign are 1.8 % of its stored bytes (K = 8 would be 3.6 %;
#: ``benchmarks/test_insitu_ingest.py``, ``manifest_scaling``).
CHECKPOINT_EVERY = 16

# generation, parent generation, parent record CRC, kind, n_members
_HEADER = struct.Struct("<qqIBI")
_MEMBER_FIXED = struct.Struct("<qqIq")  # timestep, sealed_gen, meta_crc, bytes
_MIN_MEMBER = 2 + _MEMBER_FIXED.size  # an empty key and the fixed fields
_DELTA, _CHECKPOINT = 0, 1  # the header's kind


class ManifestError(FormatError):
    """A manifest record that cannot be parsed or a commit that would
    violate the append-only generation chain."""


@dataclass(frozen=True)
class ManifestMember:
    """One sealed store member as recorded in a manifest generation."""

    #: Store directory name under the dataset root (``variable`` or
    #: ``variable@tttttt``).
    key: str
    #: Timestep parsed from the key (``None`` for static variables).
    timestep: int | None
    #: Generation whose commit sealed this member.
    sealed_generation: int
    #: Record CRC (``repro.util.record.record_crc``) of the member's
    #: ``meta`` — pins the exact sealed metadata, so a rewritten member
    #: can never be served through a snapshot that sealed the old one.
    meta_crc: int
    #: data + index + meta bytes at seal time (Table I accounting).
    total_bytes: int

    @property
    def variable(self) -> str:
        return self.key.split("@", 1)[0]


@dataclass(frozen=True)
class ManifestRecord:
    """One manifest file, decoded but not yet resolved against its chain."""

    generation: int
    #: Record CRC of generation ``generation - 1`` (of the never-written
    #: empty checkpoint for generation 1).
    parent_crc: int
    #: A checkpoint lists every member; a delta only those it seals.
    checkpoint: bool
    members: tuple[ManifestMember, ...]
    #: This record's own CRC: what generation ``generation + 1`` names.
    crc: int

    def added(self) -> tuple[ManifestMember, ...]:
        """The members this generation seals."""
        g = self.generation
        return tuple(m for m in self.members if m.sealed_generation == g)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ManifestRecord":
        reader = RecordReader(
            raw, MANIFEST_MAGIC, MANIFEST_VERSION, "manifest", ManifestError
        )
        generation, parent, parent_crc, kind, n_members = reader.unpack(_HEADER)
        if generation < 0:
            reader.fail(f"negative generation {generation}")
        if parent != generation - 1:
            reader.fail(f"generation {generation} names parent generation {parent}")
        if kind not in (_DELTA, _CHECKPOINT):
            reader.fail(f"unknown record kind {kind}")
        if (kind == _CHECKPOINT) != (generation % CHECKPOINT_EVERY == 0):
            reader.fail(
                f"generation {generation} written as a "
                f"{'checkpoint' if kind == _CHECKPOINT else 'delta'}"
            )
        # Bound the count by the bytes left before looping over it.
        if n_members * _MIN_MEMBER > len(raw) - _HEADER.size:
            reader.fail(f"truncated: {n_members} members cannot fit {len(raw)} bytes")
        lowest = 1 if kind == _CHECKPOINT else generation
        members: list[ManifestMember] = []
        last_sealed = 0
        seen: set[str] = set()
        for _ in range(n_members):
            key = reader.text()
            timestep, sealed_gen, meta_crc, total_bytes = reader.unpack(_MEMBER_FIXED)
            if key in seen:
                reader.fail(f"duplicate member key {key!r}")
            seen.add(key)
            if not lowest <= sealed_gen <= generation:
                reader.fail(
                    f"member {key!r}: sealed_generation {sealed_gen} outside "
                    f"[{lowest}, {generation}]"
                )
            if sealed_gen < last_sealed:
                reader.fail(
                    f"member {key!r}: seal order not monotone "
                    f"({sealed_gen} after {last_sealed})"
                )
            last_sealed = sealed_gen
            members.append(
                ManifestMember(
                    key=key,
                    timestep=None if timestep < 0 else timestep,
                    sealed_generation=sealed_gen,
                    meta_crc=meta_crc,
                    total_bytes=total_bytes,
                )
            )
        reader.done()
        return cls(
            generation, parent_crc, kind == _CHECKPOINT, tuple(members), record_crc(raw)
        )


@dataclass(frozen=True)
class Manifest:
    """One immutable generation of a dataset: its sealed member set.

    Two manifests are equal when their generation and members are;
    ``parent_crc`` only says which record this one's delta extends.
    """

    generation: int
    members: tuple[ManifestMember, ...] = ()
    #: Record CRC of generation ``generation - 1`` (:attr:`record_crc`).
    parent_crc: int = field(default=0, compare=False, repr=False)

    # ------------------------------------------------------------------
    @cached_property
    def _by_key(self) -> dict[str, ManifestMember]:
        return {m.key: m for m in self.members}

    def member(self, key: str) -> ManifestMember | None:
        """The member sealed under ``key``, or ``None``."""
        return self._by_key.get(key)

    def keys(self) -> set[str]:
        return set(self._by_key)

    def with_member(self, member: ManifestMember) -> "Manifest":
        """The next generation: this member set plus one new seal."""
        if self.member(member.key) is not None:
            raise ManifestError(
                f"member {member.key!r} already sealed in generation "
                f"{self.generation}"
            )
        if member.sealed_generation != self.generation + 1:
            raise ManifestError(
                f"member {member.key!r} sealed_generation "
                f"{member.sealed_generation} != next generation "
                f"{self.generation + 1}"
            )
        return Manifest(
            self.generation + 1, self.members + (member,), parent_crc=self.record_crc
        )

    # ------------------------------------------------------------------
    @cached_property
    def record_crc(self) -> int:
        """The CRC of the record this generation is written as; the next
        generation's delta names it."""
        return record_crc(self.to_bytes())

    def to_bytes(self) -> bytes:
        """The record of this generation: a checkpoint every
        :data:`CHECKPOINT_EVERY` generations, else the delta of the
        members it seals on top of ``parent_crc``."""
        g = self.generation
        checkpoint = g % CHECKPOINT_EVERY == 0
        members = (
            self.members
            if checkpoint
            else [m for m in self.members if m.sealed_generation == g]
        )
        kind = _CHECKPOINT if checkpoint else _DELTA
        fields = [_HEADER.pack(g, g - 1, self.parent_crc, kind, len(members))]
        for m in members:
            fields.append(text_field(m.key))
            fields.append(
                _MEMBER_FIXED.pack(
                    -1 if m.timestep is None else m.timestep,
                    m.sealed_generation,
                    m.meta_crc,
                    m.total_bytes,
                )
            )
        return frame(MANIFEST_MAGIC, MANIFEST_VERSION, *fields)

    @classmethod
    def from_bytes(cls, raw: bytes, parent: "Manifest | None" = None) -> "Manifest":
        """Resolve one record on top of ``parent`` (default: the empty
        generation 0).  A delta must name ``parent``'s generation and
        record CRC and seal only keys ``parent`` lacks; a checkpoint
        stands alone, but when ``parent`` is given it must name it too.
        """
        return cls.from_record(ManifestRecord.from_bytes(raw), parent)

    @classmethod
    def from_record(
        cls, record: ManifestRecord, parent: "Manifest | None" = None
    ) -> "Manifest":
        """:meth:`from_bytes` of an already decoded record."""
        g = record.generation
        if parent is None and not record.checkpoint:
            parent = Manifest(0)
        if parent is not None:
            if parent.generation != g - 1:
                raise ManifestError(
                    f"manifest: generation {g} cannot extend generation "
                    f"{parent.generation}"
                )
            if record.parent_crc != parent.record_crc:
                raise ManifestError(
                    f"manifest: generation {g} names parent CRC "
                    f"{record.parent_crc:#010x}, generation {g - 1} has "
                    f"{parent.record_crc:#010x}"
                )
        if record.checkpoint:
            manifest = cls(g, record.members, parent_crc=record.parent_crc)
        else:
            for m in record.members:
                if parent.member(m.key) is not None:
                    raise ManifestError(
                        f"manifest: generation {g} seals {m.key!r} again"
                    )
            manifest = cls(g, parent.members + record.members, parent_crc=record.parent_crc)
        # The CRC of the bytes on disk, not of a re-encoding: the next
        # delta must name the record that was read.
        manifest.__dict__["record_crc"] = record.crc
        return manifest


# ----------------------------------------------------------------------
def member_key(variable: str, timestep: int | None) -> str:
    """The store directory name (and manifest key) of one member."""
    if "@" in variable or "/" in variable:
        raise ValueError(
            f"variable name must not contain '@' or '/': {variable!r}"
        )
    return variable if timestep is None else f"{variable}@{timestep:06d}"


_PREFIX = "manifest.g"


def manifest_path(root: str, generation: int) -> str:
    """Path of one generation's manifest file under ``root``."""
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")
    return f"{root.rstrip('/')}/{_PREFIX}{generation:08d}"


def manifest_generations(fs: SimulatedPFS, root: str) -> list[int]:
    """Generations with a manifest file on disk (valid or torn), sorted."""
    prefix = f"{root.rstrip('/')}/{_PREFIX}"
    out = []
    for path in fs.list_files(prefix):
        tail = path[len(prefix) :]
        if tail.isdigit():
            out.append(int(tail))
    return sorted(out)


def _read(fs: SimulatedPFS, path: str) -> bytes:
    # Manifests are catalog metadata, read through an uncharged session
    # like a store's ``meta`` at open: per-query data/index I/O is what
    # the cost model accounts.
    return bytes(fs.session().open(path).read_all())


def load_manifest_record(fs: SimulatedPFS, root: str, generation: int) -> ManifestRecord:
    """Generation ``generation``'s record, or :class:`ManifestError`."""
    path = manifest_path(root, generation)
    if not fs.exists(path):
        raise ManifestError(f"no manifest for generation {generation} at {path}")
    record = ManifestRecord.from_bytes(_read(fs, path))
    if record.generation != generation:
        raise ManifestError(
            f"{path}: records generation {record.generation}, "
            f"filename says {generation}"
        )
    return record


@dataclass(frozen=True)
class ChainLink:
    """One generation of a forward walk over the chain (:func:`walk_chain`)."""

    generation: int
    #: The decoded record (``None`` when it is absent or does not decode).
    record: ManifestRecord | None
    #: Generation ``generation - 1`` as the walk resolved it, or ``None``.
    parent: Manifest | None
    #: This generation resolved, or ``None`` with the reason in ``error``.
    manifest: Manifest | None
    error: ManifestError | None


def walk_chain(
    fs: SimulatedPFS, root: str, generations: Iterable[int]
) -> Iterator[ChainLink]:
    """Resolve ``generations`` (increasing, each positive) in order,
    reading each record once.

    The one rule by which a generation resolves: its record decodes
    (which pins whether it is a checkpoint by its number); a checkpoint
    stands on its own, and a delta resolves only on top of the resolved
    generation before it, whose record CRC it must name.  The walk
    starts from the empty generation 0, so a delta whose parent is not
    in ``generations`` or does not resolve does not resolve either.
    """
    prev: Manifest | None = Manifest(0)
    for g in generations:
        parent = prev if prev is not None and prev.generation == g - 1 else None
        record = None
        try:
            record = load_manifest_record(fs, root, g)
            if record.checkpoint:
                manifest = Manifest.from_record(record)
            elif parent is None:
                raise ManifestError(
                    f"manifest: generation {g} is a delta on generation {g - 1}, "
                    "which does not resolve"
                )
            else:
                manifest = Manifest.from_record(record, parent)
        except ManifestError as exc:
            prev = None
            yield ChainLink(g, record, parent, None, exc)
        else:
            prev = manifest
            yield ChainLink(g, record, parent, manifest, None)


def load_manifest_at(fs: SimulatedPFS, root: str, generation: int) -> Manifest:
    """The exact generation, or :class:`ManifestError` if it does not
    resolve: a record between it and its checkpoint is absent or torn,
    or a parent CRC does not match.  The error is the generation's own,
    caused by the first record on its chain that failed."""
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")
    manifest: Manifest | None = Manifest(0)
    first: ManifestError | None = None
    start = max(1, generation - generation % CHECKPOINT_EVERY)
    for link in walk_chain(fs, root, range(start, generation + 1)):
        first = first or link.error
        manifest = link.manifest
    if manifest is None:
        if link.error is first:
            raise link.error
        raise link.error from first
    return manifest


def load_manifest(fs: SimulatedPFS, root: str) -> Manifest:
    """The newest generation that resolves (skipping torn commits).

    A dataset with no manifest files is at generation 0 with no sealed
    members — the state every dataset starts in.
    """
    for generation in reversed(manifest_generations(fs, root)):
        try:
            return load_manifest_at(fs, root, generation)
        except ManifestError:
            continue  # torn/interrupted commit: fall back one generation
    return Manifest(0)


def advance_manifest(fs: SimulatedPFS, root: str, manifest: Manifest) -> Manifest:
    """The newest committed generation, found from ``manifest``.

    Probes ``manifest.generation + 1`` onward and reads only the records
    found there, so a handle that committed the latest generation itself
    reads nothing.  A record that does not extend the chain ends the
    walk; when it is the newest file it is a torn leftover, but when a
    later generation exists the damage is interior and the chain may
    resume at a later checkpoint, so the newest generation that
    resolves (:func:`load_manifest`) is taken if it is newer.
    """
    g = manifest.generation + 1
    while fs.exists(path := manifest_path(root, g)):
        try:
            manifest = Manifest.from_bytes(_read(fs, path), parent=manifest)
        except ManifestError:
            if fs.exists(manifest_path(root, g + 1)):
                latest = load_manifest(fs, root)
                if latest.generation > manifest.generation:
                    return latest
            break
        g += 1
    return manifest


def commit_manifest(
    fs: SimulatedPFS, root: str, manifest: Manifest, parent: Manifest
) -> None:
    """Atomically publish one new generation on top of ``parent``.

    ``parent`` is the generation the caller built ``manifest`` on;
    generations committed since are picked up first
    (:func:`advance_manifest`).  The bump must be exactly ``latest + 1``
    — committing over an existing generation or skipping ahead is
    refused — and ``manifest`` must be the latest members plus new
    ones sealed at its generation, on top of the latest record's CRC.
    All of that is checked in memory, before a byte is written.  The
    target file may already exist only as a torn leftover (a crashed
    commit being retried, or damage): bytes that do not decode were
    never readable, so no snapshot can reference them.  A target that
    decodes is never overwritten.
    """
    latest = advance_manifest(fs, root, parent)
    if manifest.generation != latest.generation + 1:
        raise ManifestError(
            f"commit of generation {manifest.generation} refused: latest "
            f"valid generation is {latest.generation}"
        )
    sealed = len(latest.members)
    if manifest.members[:sealed] != latest.members:
        missing = sorted(latest.keys() - manifest.keys())
        raise ManifestError(
            f"commit would unseal or change members {missing or 'in place'}; "
            "manifests are append-only"
        )
    added = manifest.members[sealed:]
    keys = {m.key for m in added}
    if len(keys) != len(added) or any(
        m.sealed_generation != manifest.generation or latest.member(m.key) is not None
        for m in added
    ):
        raise ManifestError(
            f"commit of generation {manifest.generation} refused: each new "
            "member must be a new key sealed at that generation"
        )
    if manifest.parent_crc != latest.record_crc:
        raise ManifestError(
            f"commit of generation {manifest.generation} refused: it extends "
            f"record CRC {manifest.parent_crc:#010x}, generation "
            f"{latest.generation} is {latest.record_crc:#010x}"
        )
    path = manifest_path(root, manifest.generation)
    if fs.exists(path):
        try:
            ManifestRecord.from_bytes(_read(fs, path))
        except ManifestError:
            pass  # a torn leftover: overwrite it
        else:
            raise ManifestError(
                f"commit of generation {manifest.generation} refused: {path} "
                f"holds a record that does not extend generation {latest.generation}"
            )
    fs.write_file(path, manifest.to_bytes())
