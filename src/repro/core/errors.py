"""Structured errors raised by the fault-tolerant read path.

The executor's degradation policy (DESIGN.md §6, "no decoded bytes
reach a result without a CRC check or an explicit degradation record")
distinguishes losses it can absorb from losses it cannot:

* A quarantined PLoD *refinement* byte-plane block only costs
  precision — affected points are reconstructed with the dummy-fill
  rule at the deepest intact level and counted in
  ``QueryResult.stats["degraded_points"]``.  No error is raised.
* A quarantined *base-plane* data block, full-value data block, or
  *index* block removes points from the answer entirely.  That is a
  correctness loss, so by default the query raises
  :class:`DegradedResultError`; with ``allow_partial=True`` the query
  instead returns the surviving points and reports the affected chunks
  in ``stats["partial_chunks"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DegradedResultError", "MissingRecordError"]


@dataclass
class DegradedResultError(Exception):
    """A query could not produce a complete answer.

    Attributes
    ----------
    kind:
        ``"index"`` — a position index block was lost (the affected
        chunks' membership is unknown); ``"data-base"`` — a PLoD base
        byte-plane block was lost (affected points cannot be
        reconstructed at any level); ``"data"`` — a full-value data
        block was lost; ``"tol"`` — an error-bounded query lost
        refinement planes and the provable bound of the degraded
        result exceeds the requested ``tol`` (only raised on
        ``tol`` queries; ``bin_id`` is ``-1`` — the loss may span
        bins).
    path / offset:
        Location of the first quarantined block that made the result
        partial.
    bin_id:
        The value bin the block belongs to.
    chunk_ids:
        Global ids of the spatial chunks whose points are affected.
    """

    kind: str
    path: str
    offset: int
    bin_id: int
    chunk_ids: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__init__(str(self))

    def __str__(self) -> str:
        chunks = ", ".join(str(c) for c in self.chunk_ids[:8])
        if len(self.chunk_ids) > 8:
            chunks += ", ..."
        return (
            f"unrecoverable {self.kind} block loss in bin {self.bin_id} "
            f"({self.path} @ {self.offset}); affected chunks: [{chunks}] — "
            "pass allow_partial=True to accept a partial result"
        )


class MissingRecordError(Exception):
    """A record every writer persists (``hbi``, ``peb``) is absent.

    Records are read, never rebuilt on the query path: a store without
    one is damaged, and ``fsck`` reports it as ``missing-record``.
    """

    def __init__(self, path: str) -> None:
        super().__init__(f"record missing: {path} (run fsck)")
        self.path = path
