"""fsck: deep integrity checking of an MLOC store.

Walks every structural invariant of the on-disk layout — the contracts
between metadata, block tables, subfiles, codecs, and position indices
— and decodes every block.  Checks, per variable:

* metadata parses (its decoder checks the frame, the configuration,
  that the counts cover the chunk grid and the array exactly, and that
  each bin's data/index block tables partition the cell/chunk space
  with chained byte extents);
* each block table's extents end where its subfile does;
* every data block decompresses to exactly its recorded raw length;
* every index block decodes to position lists matching the per-chunk
  counts, with strictly increasing in-chunk-range local ids;
* across bins, each chunk's local ids partition ``{0..chunk_size-1}``
  exactly (every element in exactly one bin);
* decoded values actually fall inside their bin's value interval
  (within the lossy codec's error bound for ISABELA stores); for PLoD
  stores the values are first reassembled from all seven byte planes;
* the hierarchical index record is present and parses (CRC,
  version, geometry), and its geometry and per-(bin, run) counts agree
  with the metadata's;
* on PLoD layouts the error-bounds record is present, parses, and
  keeps its invariants (a missing ``hbi`` or ``peb`` is
  ``kind="missing-record"``: readers never rebuild one).

Returns a list of :class:`Issue` records; an empty list means the store
is sound.  Used by the CLI (``python -m repro.cli fsck``) and the test
suite's corruption-injection tests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.compression.base import ByteCodec, make_codec
from repro.core.chunking import ChunkGrid
from repro.core.manifest import (
    Manifest,
    ManifestError,
    load_manifest_at,
    manifest_generations,
    manifest_path,
)
from repro.core.meta import StoreMeta, read_meta_bytes
from repro.core.planner import cell_sizes
from repro.index.binindex import PositionBlock
from repro.index.hbi import HBIndex, hbi_path
from repro.plod.bounds import ErrorBoundsTable, peb_path
from repro.pfs.layout import BinFileSet
from repro.pfs.simfs import SimulatedPFS
from repro.util.record import FormatError, record_crc

__all__ = ["Issue", "check_dataset", "check_store"]


@dataclass(frozen=True)
class Issue:
    """One detected inconsistency.

    ``kind`` classifies the failure so callers (the chaos tests, the
    CLI) can match fsck's view against the executor's quarantine
    registry: ``"crc-mismatch"`` is a payload whose stored CRC32 does
    not match its bytes, ``"decode-error"`` a payload that fails to
    decode, and ``"other"`` every structural inconsistency.  For the
    block-level kinds, ``path``/``offset`` name the damaged extent in
    the same coordinates the executor's quarantine keys use.
    ``"missing-record"`` is an absent ``hbi`` or ``peb`` record
    (``path`` names it).
    Dataset-level checking (:func:`check_dataset`) adds
    ``"manifest-torn"`` (an unreadable manifest generation — the
    footprint of an interrupted commit) and ``"orphaned-member"`` (a
    member on disk that no manifest generation references — the
    footprint of a seal interrupted before its commit).
    """

    severity: str  # "error" | "warning"
    location: str
    message: str
    kind: str = "other"  # "crc-mismatch" | "decode-error" | "other"
    path: str | None = None
    offset: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}:{self.kind}] {self.location}: {self.message}"


def check_store(fs: SimulatedPFS, root: str, variable: str) -> list[Issue]:
    """Run every integrity check on ``root/variable``; see module doc."""
    issues: list[Issue] = []
    var_root = f"{root.rstrip('/')}/{variable}"
    meta_path = f"{var_root}/meta"
    if not fs.exists(meta_path):
        return [Issue("error", meta_path, "metadata file missing")]

    try:
        meta = StoreMeta.load(fs, var_root)
    except FormatError as exc:
        return [_unreadable(meta_path, meta_path, exc)]

    config = meta.config
    grid = ChunkGrid(meta.shape, config.chunk_shape)
    files = BinFileSet(var_root, config.n_bins)
    codec = make_codec(config.codec)
    n_chunks = meta.n_chunks
    lossy_bound = None
    if config.codec == "isabela":
        lossy_bound = codec.error_rate  # relative to per-window max

    # Per-chunk accumulation of local ids across bins (coverage check).
    chunk_locals: list[list[np.ndarray]] = [[] for _ in range(n_chunks)]

    for b in range(config.n_bins):
        loc = f"bin {b:04d}"
        data_path, index_path = files.data_path(b), files.index_path(b)
        missing = False
        for path in (data_path, index_path):
            if not fs.exists(path):
                issues.append(Issue("error", loc, f"subfile missing: {path}"))
                missing = True
        if missing:
            continue

        data_rows, index_rows = meta.data_blocks.of_bin(b), meta.index_blocks.of_bin(b)
        issues += _check_table(data_rows, fs.size(data_path), loc + " data table")
        issues += _check_table(index_rows, fs.size(index_path), loc + " index table")

        # Decode every data block.
        session = fs.session()
        handle = session.open(data_path)
        sizes = cell_sizes(config, meta.counts[b], n_chunks)
        cell_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=cell_offsets[1:])
        lo_edge, hi_edge = float(meta.edges[b]), float(meta.edges[b + 1])
        plane_stream = bytearray()  # decoded bytes in cell order (PLoD)
        stream_sound = True
        for row in data_rows:
            cell_start, cell_end, offset, comp_len, raw_len, crc = (
                int(v) for v in row
            )
            expected_raw = int(cell_offsets[cell_end] - cell_offsets[cell_start])
            if expected_raw != raw_len:
                issues.append(
                    Issue(
                        "error",
                        f"{loc} block cells [{cell_start},{cell_end})",
                        f"recorded raw_len {raw_len} != counts-derived {expected_raw}",
                    )
                )
                stream_sound = False
                continue
            try:
                payload = handle.read(offset, comp_len)
                if zlib.crc32(payload) != crc:
                    issues.append(
                        Issue(
                            "error",
                            f"{loc} block at offset {offset}",
                            "payload CRC mismatch",
                            kind="crc-mismatch",
                            path=data_path,
                            offset=offset,
                        )
                    )
                    stream_sound = False
                    continue
                if isinstance(codec, ByteCodec):
                    raw = codec.decode(payload, raw_len)
                    ok = len(raw) == raw_len
                    if ok:
                        plane_stream.extend(raw)
                else:
                    values = codec.decode(payload, raw_len // 8)
                    ok = values.size == raw_len // 8
                    if ok and values.size:
                        issues += _check_bin_membership(
                            values, b, config.n_bins, lo_edge, hi_edge,
                            lossy_bound, loc,
                        )
            except Exception as exc:
                issues.append(
                    Issue(
                        "error",
                        f"{loc} block at offset {offset}",
                        f"decode failed: {exc}",
                        kind="decode-error",
                        path=data_path,
                        offset=offset,
                    )
                )
                stream_sound = False
                continue
            if not ok:
                issues.append(
                    Issue(
                        "error",
                        f"{loc} block at offset {offset}",
                        "decoded length mismatch",
                    )
                )
                stream_sound = False

        # PLoD stores: reassemble the bin's values from its byte planes
        # and verify bin membership (the strongest cross-plane check).
        if config.plod_enabled and stream_sound:
            issues += _check_plod_bin_values(
                np.frombuffer(bytes(plane_stream), dtype=np.uint8),
                meta,
                b,
                cell_offsets,
                lo_edge,
                hi_edge,
                loc,
            )

        # Decode every index block and collect coverage.
        handle = session.open(index_path)
        for row in index_rows:
            cpos_start, cpos_end, offset, comp_len, crc = (int(v) for v in row)
            counts = meta.counts[b, cpos_start:cpos_end]
            try:
                payload = handle.read(offset, comp_len)
                if zlib.crc32(payload) != crc:
                    issues.append(
                        Issue(
                            "error",
                            f"{loc} index block [{cpos_start},{cpos_end})",
                            "payload CRC mismatch",
                            kind="crc-mismatch",
                            path=index_path,
                            offset=offset,
                        )
                    )
                    continue
                block = PositionBlock(payload, counts)
                positions = block.positions()
                per_chunk = [positions[lo:hi] for lo, hi in pairwise(block.offsets)]
            except Exception as exc:
                issues.append(
                    Issue(
                        "error",
                        f"{loc} index block [{cpos_start},{cpos_end})",
                        f"decode failed: {exc}",
                        kind="decode-error",
                        path=index_path,
                        offset=offset,
                    )
                )
                continue
            for i, local_ids in enumerate(per_chunk):
                cpos = cpos_start + i
                if local_ids.size:
                    if local_ids.min() < 0 or local_ids.max() >= grid.chunk_size:
                        issues.append(
                            Issue(
                                "error",
                                f"{loc} chunk pos {cpos}",
                                "local ids out of chunk range",
                            )
                        )
                    if np.any(np.diff(local_ids) <= 0):
                        issues.append(
                            Issue(
                                "error",
                                f"{loc} chunk pos {cpos}",
                                "local ids not strictly increasing",
                            )
                        )
                chunk_locals[cpos].append(local_ids)

    issues += _check_hbi(fs, var_root, meta, grid)
    issues += _check_peb(fs, var_root, meta)

    # Cross-bin coverage: every chunk partitioned exactly.
    for cpos in range(n_chunks):
        merged = (
            np.concatenate(chunk_locals[cpos])
            if chunk_locals[cpos]
            else np.empty(0, dtype=np.int64)
        )
        if merged.size != grid.chunk_size or (
            merged.size and np.unique(merged).size != grid.chunk_size
        ):
            issues.append(
                Issue(
                    "error",
                    f"chunk pos {cpos}",
                    f"bins cover {np.unique(merged).size}/{grid.chunk_size} "
                    "elements (must partition exactly)",
                )
            )
    return issues


def _unreadable(loc: str, path: str, exc: FormatError) -> Issue:
    return Issue("error", loc, f"unreadable: {exc}", kind="decode-error", path=path, offset=0)


def _missing_record(loc: str, path: str) -> Issue:
    return Issue(
        "error", loc, f"record missing: {path}", kind="missing-record", path=path
    )


def _check_hbi(
    fs: SimulatedPFS, var_root: str, meta: StoreMeta, grid: ChunkGrid
) -> list[Issue]:
    """Integrity of the hierarchical index record.

    The file is summary data derived from the flat index, so beyond
    parsing (magic/version/CRC) the check cross-validates it against
    the authoritative metadata: same geometry, and per-(bin, run)
    cardinalities equal to the aggregated chunk counts — the invariant
    that makes index-driven pruning answer-preserving.
    """
    path = hbi_path(var_root)
    loc = "hbi"
    if not fs.exists(path):
        return [_missing_record(loc, path)]
    try:
        hbi = HBIndex.from_bytes(bytes(fs.session().open(path).read_all()))
    except FormatError as exc:
        return [_unreadable(loc, path, exc)]
    geometry = (hbi.n_bins, hbi.n_chunks, hbi.chunk_size)
    expected = (meta.config.n_bins, meta.n_chunks, grid.chunk_size)
    if geometry != expected:
        return [
            Issue(
                "error", loc,
                f"geometry {geometry} disagrees with metadata {expected}",
            )
        ]
    counts = meta.counts.astype(np.int64)
    padded = np.zeros((hbi.n_bins, hbi.n_runs * hbi.leaf_span), dtype=np.int64)
    padded[:, : hbi.n_chunks] = counts
    expected_runs = padded.reshape(hbi.n_bins, hbi.n_runs, hbi.leaf_span).sum(axis=2)
    if not np.array_equal(expected_runs, hbi.run_counts):
        return [Issue("error", loc, "run cardinalities disagree with metadata counts")]
    return []


def _check_peb(fs: SimulatedPFS, var_root: str, meta: StoreMeta) -> list[Issue]:
    """Integrity of the per-chunk error-bounds record (PLoD layouts).

    Like the hierarchical index, the file is derived data: beyond
    parsing (magic/version/CRC) the check cross-validates its geometry
    against the metadata and runs the table's own invariants — bounds
    monotone non-increasing in level, the exact level-7 row zero, and
    mean never exceeding max — which are what make ``query(tol=...)``'s
    accuracy claims provable from the record.
    """
    path = peb_path(var_root)
    loc = "peb"
    if not fs.exists(path):
        # Only PLoD layouts have per-level bounds to record.
        return [_missing_record(loc, path)] if meta.config.plod_enabled else []
    try:
        table = ErrorBoundsTable.from_bytes(
            bytes(fs.session().open(path).read_all())
        )
    except FormatError as exc:
        return [_unreadable(loc, path, exc)]
    issues: list[Issue] = []
    if table.n_chunks != meta.n_chunks:
        return [
            Issue(
                "error", loc,
                f"covers {table.n_chunks} chunks, metadata has {meta.n_chunks}",
            )
        ]
    try:
        table.validate()
    except Exception as exc:
        issues.append(Issue("error", loc, f"internal consistency: {exc}"))
    if not meta.config.plod_enabled and table.n_chunks:
        issues.append(
            Issue("error", loc, "error bounds present on a non-PLoD layout")
        )
    return issues


def _check_plod_bin_values(
    stream: np.ndarray,
    meta: StoreMeta,
    bin_id: int,
    cell_offsets: np.ndarray,
    lo_edge: float,
    hi_edge: float,
    loc: str,
) -> list[Issue]:
    """Reassemble a PLoD bin's values from its byte planes and check
    that they fall inside the bin interval."""
    from repro.plod.byteplanes import GROUP_WIDTHS, N_GROUPS, assemble_from_groups

    config = meta.config
    n_chunks = meta.n_chunks
    counts = meta.counts[bin_id].astype(np.int64)
    n_elem = int(counts.sum())
    if n_elem == 0:
        return []
    groups: list[np.ndarray] = []
    try:
        for g in range(N_GROUPS):
            if config.group_major:  # cells of group g are contiguous
                lo = int(cell_offsets[g * n_chunks])
                hi = int(cell_offsets[(g + 1) * n_chunks])
                groups.append(stream[lo:hi])
            else:  # V-S-M: gather group-g cells chunk by chunk
                parts = [
                    stream[
                        int(cell_offsets[cpos * N_GROUPS + g]) : int(
                            cell_offsets[cpos * N_GROUPS + g + 1]
                        )
                    ]
                    for cpos in range(n_chunks)
                ]
                groups.append(np.concatenate(parts))
        expected = [n_elem * GROUP_WIDTHS[g] for g in range(N_GROUPS)]
        if [g.size for g in groups] != expected:
            return [Issue("error", loc, "byte-plane stream sizes inconsistent")]
        values = assemble_from_groups(groups, n_elem, N_GROUPS)
    except Exception as exc:
        return [Issue("error", loc, f"byte-plane reassembly failed: {exc}")]
    return _check_bin_membership(
        values, bin_id, config.n_bins, lo_edge, hi_edge, None, loc
    )


def _check_table(table: np.ndarray, file_size: int, loc: str) -> list[Issue]:
    """A block table's extents end where its subfile does (the decoder
    has already checked that the rows partition the bin and chain)."""
    end = int(table[-1, 2] + table[-1, 3])
    if end != file_size:
        return [Issue("error", loc, f"blocks end at byte {end}, file has {file_size}")]
    return []


def _check_bin_membership(
    values: np.ndarray,
    bin_id: int,
    n_bins: int,
    lo_edge: float,
    hi_edge: float,
    lossy_bound: float | None,
    loc: str,
) -> list[Issue]:
    """Values of a full-value block must lie inside their bin interval."""
    lo = -np.inf if bin_id == 0 else lo_edge
    hi = np.inf if bin_id == n_bins - 1 else hi_edge
    slack = 0.0
    if lossy_bound is not None:
        slack = 0.5 * lossy_bound * float(np.abs(values).max())
    bad = np.count_nonzero((values < lo - slack) | (values >= hi + slack))
    if bad:
        return [
            Issue(
                "error",
                loc,
                f"{bad} values outside bin interval [{lo}, {hi}) (+/-{slack:g})",
            )
        ]
    return []


# ----------------------------------------------------------------------
# Dataset-level checking: manifests, sealed members, orphans
# ----------------------------------------------------------------------
def check_dataset(
    fs: SimulatedPFS, root: str, *, deep: bool = False
) -> list[Issue]:
    """Check a dataset root against its manifests (``repro.core.manifest``).

    Validates the generation chain (every manifest parses, records the
    generation its filename claims, and is append-only with respect to
    its predecessor — a sealed member never disappears or changes),
    then the newest valid generation's member set: each member's
    metadata must exist and hash to the recorded ``meta_crc``, and its
    per-member ``hbi``/``peb`` records (built at seal time) must be
    internally consistent with that metadata.  Store directories that
    no valid generation references are reported as
    ``kind="orphaned-member"`` — the harmless-but-reclaimable
    footprint of an append that crashed before its commit.

    A root with no manifest files is at generation 0 with no sealed
    members, so every store directory under it is an orphan.
    ``deep=True`` additionally runs the full :func:`check_store` walk
    on every sealed member.
    """
    root = root.rstrip("/")
    generations = manifest_generations(fs, root)
    issues: list[Issue] = []
    valid: dict[int, Manifest] = {} if generations else {0: Manifest(0)}
    for generation in generations:
        path = manifest_path(root, generation)
        try:
            valid[generation] = load_manifest_at(fs, root, generation)
        except ManifestError as exc:
            # The newest generation being torn is the expected footprint
            # of an interrupted commit (the previous one still serves);
            # a torn *interior* generation means history damage.
            severity = "warning" if generation == generations[-1] else "error"
            issues.append(
                Issue(
                    severity,
                    path,
                    f"manifest unreadable: {exc}",
                    kind="manifest-torn",
                    path=path,
                )
            )
    if not valid:
        issues.append(
            Issue(
                "error",
                root,
                "no readable manifest generation",
                kind="manifest-torn",
            )
        )
        return issues

    ordered = sorted(valid)
    for prev_gen, cur_gen in zip(ordered, ordered[1:]):
        prev, cur = valid[prev_gen], valid[cur_gen]
        cur_members = {m.key: m for m in cur.members}
        for member in prev.members:
            loc = manifest_path(root, cur_gen)
            if member.key not in cur_members:
                issues.append(
                    Issue(
                        "error",
                        loc,
                        f"member {member.key!r} sealed at generation "
                        f"{prev_gen} missing from generation {cur_gen}; "
                        "manifests are append-only",
                    )
                )
            elif cur_members[member.key] != member:
                issues.append(
                    Issue(
                        "error",
                        loc,
                        f"member {member.key!r} record changed between "
                        f"generations {prev_gen} and {cur_gen}; sealed "
                        "members are immutable",
                    )
                )

    latest = valid[ordered[-1]]
    for member in latest.members:
        var_root = f"{root}/{member.key}"
        meta_path = f"{var_root}/meta"
        if not fs.exists(meta_path):
            issues.append(
                Issue(
                    "error",
                    meta_path,
                    f"sealed member {member.key!r} has no metadata file",
                )
            )
            continue
        raw = read_meta_bytes(fs, var_root)
        if record_crc(raw) != member.meta_crc:
            issues.append(
                Issue(
                    "error",
                    meta_path,
                    f"metadata CRC {record_crc(raw):#010x} does not match "
                    f"the sealed manifest record {member.meta_crc:#010x}",
                    kind="crc-mismatch",
                    path=meta_path,
                    offset=0,
                )
            )
            continue
        try:
            meta = StoreMeta.from_bytes(raw)
        except FormatError as exc:
            issues.append(_unreadable(meta_path, meta_path, exc))
            continue
        grid = ChunkGrid(meta.shape, meta.config.chunk_shape)
        issues += [
            Issue(
                i.severity,
                f"{member.key}: {i.location}",
                i.message,
                kind=i.kind,
                path=i.path,
                offset=i.offset,
            )
            for i in _check_hbi(fs, var_root, meta, grid)
            + _check_peb(fs, var_root, meta)
        ]
        if deep:
            issues += check_store(fs, root, member.key)

    sealed_anywhere: set[str] = set()
    for manifest in valid.values():
        sealed_anywhere |= manifest.keys()
    prefix = root + "/"
    on_disk = {
        rest.split("/", 1)[0]
        for path in fs.list_files(prefix)
        for rest in (path[len(prefix) :],)
        if "/" in rest
    }
    for key in sorted(on_disk - sealed_anywhere):
        issues.append(
            Issue(
                "warning",
                f"{root}/{key}",
                "member on disk but in no manifest generation "
                "(interrupted append; reclaimable)",
                kind="orphaned-member",
                path=f"{root}/{key}",
            )
        )
    return issues
