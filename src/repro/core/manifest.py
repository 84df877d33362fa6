"""Versioned dataset manifests: the append protocol's commit record.

A dataset that grows timestep-by-timestep (in-situ ingest) needs one
piece of mutable state: *which sealed members exist*.  Everything else
on disk is immutable once written — a member's subfiles, metadata,
``hbi`` and ``peb`` records never change after its seal.  This module
defines that single mutable record as a chain of immutable,
generation-numbered **manifest files**:

``<root>/manifest.g<NNNNNNNN>``
    Generation ``N`` of the dataset, written in one
    :meth:`~repro.pfs.simfs.SimulatedPFS.write_file` call.  It lists
    every member sealed at or before ``N`` — the key, timestep, the
    CRC32 of the member's metadata file (pinning the exact sealed
    bytes), and its storage footprint.

The commit protocol (FORMAT.md, "Dataset manifests"):

1. write all of the new member's subfiles through the ordinary
   one-pass writer (data/index bins, ``meta``, ``hbi``,
   ``peb`` — the per-member records are built at seal time, so no
   whole-dataset index is ever rebuilt);
2. write ``manifest.g<N+1>`` = previous members + the new member.

A crash anywhere leaves every previously committed generation intact:
step 1 produces only *orphaned* files no manifest references, and a
torn step 2 produces a manifest file whose CRC does not verify, which
readers skip (``load_manifest`` returns the newest generation that
parses).  Readers that pin a generation therefore see a frozen,
bit-identical member set no matter how many appends land concurrently
— the snapshot-isolation invariant DESIGN.md §9 builds on.

Like the ``hbi``/``peb`` records the manifest is versioned, magic
tagged, and CRC'd; unlike them it is authoritative rather than derived
(there is nothing to rebuild it from), which is why it is the *only*
file the append protocol ever rewrites — and then only a torn leftover
of its own generation.

This module sits *below* ``repro.core.store`` (enforced by
``scripts/check_layers.py`` rule 4): it may import the PFS substrate
and stdlib only, so the writer, store, dataset, and serving layers can
all depend on it without cycles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.pfs.simfs import SimulatedPFS
from repro.util.record import FormatError, RecordReader, frame, text_field

__all__ = [
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "Manifest",
    "ManifestError",
    "ManifestMember",
    "commit_manifest",
    "load_manifest",
    "load_manifest_at",
    "manifest_generations",
    "manifest_path",
    "member_key",
]

MANIFEST_MAGIC = b"MLOCMAN\x00"
MANIFEST_VERSION = 1

_HEADER = struct.Struct("<qI")  # generation, n_members
_MEMBER_FIXED = struct.Struct("<qqIq")  # timestep, sealed_gen, meta_crc, bytes


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
class Manifest:
    """One immutable generation of a dataset: its sealed member set."""

    generation: int
    members: tuple[ManifestMember, ...] = ()

    # ------------------------------------------------------------------
    def member(self, key: str) -> ManifestMember | None:
        """The member sealed under ``key``, or ``None``."""
        for m in self.members:
            if m.key == key:
                return m
        return None

    def keys(self) -> set[str]:
        return {m.key for m in self.members}

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
        return Manifest(self.generation + 1, self.members + (member,))

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        fields = [_HEADER.pack(self.generation, len(self.members))]
        for m in self.members:
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
    def from_bytes(cls, raw: bytes) -> "Manifest":
        reader = RecordReader(
            raw, MANIFEST_MAGIC, MANIFEST_VERSION, "manifest", ManifestError
        )
        generation, n_members = reader.unpack(_HEADER)
        if generation < 0:
            raise ManifestError(f"negative generation {generation}")
        members: list[ManifestMember] = []
        last_sealed = 0
        seen: set[str] = set()
        for _ in range(n_members):
            key = reader.text()
            timestep, sealed_gen, meta_crc, total_bytes = reader.unpack(_MEMBER_FIXED)
            if key in seen:
                raise ManifestError(f"duplicate member key {key!r}")
            seen.add(key)
            if not 0 < sealed_gen <= generation:
                raise ManifestError(
                    f"member {key!r}: sealed_generation {sealed_gen} outside "
                    f"(0, {generation}]"
                )
            if sealed_gen < last_sealed:
                raise ManifestError(
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
        return cls(generation, tuple(members))


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


def load_manifest_at(fs: SimulatedPFS, root: str, generation: int) -> Manifest:
    """The exact generation, or :class:`ManifestError` if absent/torn."""
    if generation == 0:
        return Manifest(0, ())
    path = manifest_path(root, generation)
    if not fs.exists(path):
        raise ManifestError(f"no manifest for generation {generation} at {path}")
    manifest = Manifest.from_bytes(_read(fs, path))
    if manifest.generation != generation:
        raise ManifestError(
            f"{path}: records generation {manifest.generation}, "
            f"filename says {generation}"
        )
    return manifest


def load_manifest(fs: SimulatedPFS, root: str) -> Manifest:
    """The newest generation that parses (skipping torn commits).

    A dataset with no manifest files is at generation 0 with no sealed
    members — the state every dataset starts in.
    """
    for generation in reversed(manifest_generations(fs, root)):
        try:
            return load_manifest_at(fs, root, generation)
        except ManifestError:
            continue  # torn/interrupted commit: fall back one generation
    return Manifest(0, ())


def commit_manifest(fs: SimulatedPFS, root: str, manifest: Manifest) -> None:
    """Atomically publish one new generation.

    The bump must be exactly ``latest_valid + 1`` — committing over a
    *valid* existing generation or skipping ahead is refused, while
    overwriting a torn leftover of the same generation (a crashed
    commit being retried) is allowed: the torn file was never readable,
    so no snapshot can reference it.
    """
    latest = load_manifest(fs, root)
    if manifest.generation != latest.generation + 1:
        raise ManifestError(
            f"commit of generation {manifest.generation} refused: latest "
            f"valid generation is {latest.generation}"
        )
    missing = latest.keys() - manifest.keys()
    if missing:
        raise ManifestError(
            f"commit would unseal members {sorted(missing)}; manifests are "
            "append-only"
        )
    fs.write_file(manifest_path(root, manifest.generation), manifest.to_bytes())
