"""MLOC dataset configuration and the three paper variants.

The paper's multi-level architecture (Fig. 1) applies, in user-chosen
priority order, layout optimizations for value-constrained access (V:
value binning), multiresolution access (M: PLoD byte groups), and
spatially-constrained access (S: Hilbert chunk ordering), plus a
compression level.  Value binning defines the subfiling (one file pair
per bin, Fig. 4), so V is the outermost key of every order the paper
evaluates; the orders differ in how the smallest units — (byte group,
chunk) cells within a bin — nest (Section III-B5):

* ``"VMS"`` (default): within a bin, byte group is the major key and
  chunk position the minor key, so a PLoD-level-k access reads one
  contiguous prefix region per bin.
* ``"VSM"``: chunk position major, byte group minor, so a
  full-precision spatial access reads contiguous per-chunk cells.
* ``"VS"``: no PLoD splitting — values stay whole, enabling
  floating-point codecs (ISOBAR, ISABELA); multiresolution is then
  available via the subset-based hierarchical curve, not PLoD.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.plod.byteplanes import N_GROUPS

__all__ = [
    "MLOCConfig",
    "ExecutionConfig",
    "LEVEL_ORDERS",
    "EXEC_BACKENDS",
    "fold_execution",
    "mloc_col",
    "mloc_iso",
    "mloc_isa",
]

LEVEL_ORDERS = ("VMS", "VSM", "VS")

#: Read-path decode backends; ``threads``/``processes`` are
#: bit-identical to ``serial`` for any worker count.
EXEC_BACKENDS = ("serial", "threads", "processes")

_CURVES = ("hilbert", "zorder", "rowmajor", "hierarchical")
_BINNINGS = ("equal-frequency", "equal-width")


def _check_choices(config) -> None:
    """Raise ``ValueError`` for a field outside its ``metadata`` choices."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        if "choices" in spec.metadata and value not in spec.metadata["choices"]:
            raise ValueError(
                f"{spec.name} must be one of {spec.metadata['choices']}, got {value!r}"
            )


@dataclass(frozen=True)
class MLOCConfig:
    """Static layout configuration of one MLOC dataset.

    Attributes
    ----------
    chunk_shape:
        Spatial chunk shape; must tile the dataset exactly and should
        keep the smallest accessed unit within one PFS stripe
        (Section III-C).
    n_bins:
        Number of equal-frequency value bins (paper default: 100).
    level_order:
        One of :data:`LEVEL_ORDERS`; see the module docstring.
    curve:
        Chunk ordering: ``"hilbert"`` (MLOC), ``"zorder"``/``"rowmajor"``
        (ablations), or ``"hierarchical"`` (subset-based
        multiresolution — hierarchical Hilbert, Section III-B3).
    codec:
        Registered codec name.  Byte codec (e.g. ``"zlib-bytes"``) when
        PLoD splitting is on, float codec (e.g. ``"isobar"``,
        ``"isabela"``) for the ``"VS"`` order.
    target_block_bytes:
        Raw size at which a compression block is cut; aligned with the
        PFS stripe size for best parallel access (Section III-C).
    binning:
        ``"equal-frequency"`` (MLOC's choice, Section III-B1: balanced
        per-bin access cost) or ``"equal-width"`` (the ablation
        comparator: simpler bounds, unbalanced bins).
    sample_fraction:
        Fraction of the data sampled to estimate bin boundaries
        (Section IV-A1).
    seed:
        Seed for the boundary-sampling generator.
    """

    chunk_shape: tuple[int, ...]
    n_bins: int = 100
    level_order: str = field(default="VMS", metadata={"choices": LEVEL_ORDERS})
    curve: str = field(default="hilbert", metadata={"choices": _CURVES})
    codec: str = "zlib-bytes"
    target_block_bytes: int = 1 << 20
    binning: str = field(default="equal-frequency", metadata={"choices": _BINNINGS})
    sample_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choices(self)
        if self.n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {self.n_bins}")
        if self.target_block_bytes <= 0:
            raise ValueError(
                f"target_block_bytes must be positive, got {self.target_block_bytes}"
            )
        if not (0 < self.sample_fraction <= 1):
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if not self.chunk_shape or any(c <= 0 for c in self.chunk_shape):
            raise ValueError(f"invalid chunk_shape {self.chunk_shape!r}")

    @property
    def plod_enabled(self) -> bool:
        """Whether values are split into PLoD byte groups ('M' level)."""
        return "M" in self.level_order

    @property
    def n_groups(self) -> int:
        """Byte groups per value: 7 with PLoD, 1 for whole values."""
        return N_GROUPS if self.plod_enabled else 1

    @property
    def group_major(self) -> bool:
        """True when byte group is the major cell key (V-M-S order)."""
        return self.level_order == "VMS"


@dataclass(frozen=True)
class ExecutionConfig:
    """Execution options: how stores are served.

    Unlike :class:`MLOCConfig` — which is baked into the written layout
    — these options never change a stored byte: they only affect how
    queries are *served* (identical results and simulated seconds).

    This class is the only place an execution option is declared,
    documented and validated (DESIGN.md §6).  Every read handle —
    stores, engine, datasets, brokers, the CLI — holds one instance as
    ``.execution`` and passes it on whole.  The store and dataset
    constructors also accept the fields below as keywords, folded over
    ``execution=`` by :func:`fold_execution`; the engine takes
    ``execution`` whole and accepts no field keywords.

    Attributes
    ----------
    backend:
        One of :data:`EXEC_BACKENDS` (default ``"serial"``):
        ``"threads"`` runs block decodes on a thread pool (zlib
        releases the GIL), ``"processes"`` on the persistent
        shared-nothing spawned worker pool (the GIL-free path).  All
        produce identical results and simulated seconds.
    workers:
        Pool width for the ``"threads"``/``"processes"`` backends;
        ``None`` = CPU count.
    cache_bytes:
        Byte budget of the shared decoded-block LRU; 0 disables caching
        (the paper's cold-cache measurement discipline).
    plan_cache:
        Capacity (in plans) of the per-store query-plan LRU; 0 disables
        it.  Planning is deterministic, so a cached plan is exactly the
        plan a fresh call would produce — the knob trades a little
        memory for skipping the plan phase on repeated query shapes.
    max_read_retries:
        How many times a failed block read (transient I/O error or CRC
        mismatch) is retried before the block is quarantined (read-path
        fault tolerance; see docs/tuning.md "Fault tolerance").
    read_backoff:
        Base of the exponential retry backoff in *simulated* seconds:
        retry ``k`` stalls ``read_backoff * 2**(k-1)`` on the retrying
        rank's clock.
    allow_partial:
        Accept partial answers when an index block, PLoD base plane,
        or full-value data block is unrecoverable: affected points are
        dropped and their chunks reported in
        ``QueryResult.stats["partial_chunks"]``.  ``False`` (default)
        raises :class:`~repro.core.errors.DegradedResultError` instead.
    coalesce_gap:
        Maximum byte gap between two pending block reads on the same
        subfile for the I/O scheduler to merge them into one vectored
        read (one seek, one contiguous transfer).  0 (default) disables
        coalescing: one read, hence one seek, per block; see
        docs/tuning.md "Read coalescing".
    """

    backend: str = field(default="serial", metadata={"choices": EXEC_BACKENDS})
    workers: int | None = None
    cache_bytes: int = 0
    plan_cache: int = 0
    max_read_retries: int = 2
    read_backoff: float = 0.005
    allow_partial: bool = False
    coalesce_gap: int = 0

    def __post_init__(self) -> None:
        _check_choices(self)
        if self.workers is not None and self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.plan_cache < 0:
            raise ValueError(f"plan_cache must be >= 0, got {self.plan_cache}")
        if self.max_read_retries < 0:
            raise ValueError(
                f"max_read_retries must be >= 0, got {self.max_read_retries}"
            )
        if self.read_backoff < 0:
            raise ValueError(f"read_backoff must be >= 0, got {self.read_backoff}")
        if self.coalesce_gap < 0:
            raise ValueError(f"coalesce_gap must be >= 0, got {self.coalesce_gap}")

    def store_options(self) -> dict[str, Any]:
        """Every field, as keywords for :meth:`MLOCStore.open`."""
        return asdict(self)


def fold_execution(
    execution: ExecutionConfig | None, overrides: dict[str, Any]
) -> ExecutionConfig:
    """``execution`` (default: all defaults) with keyword ``overrides``.

    The single keyword-override fold every handle door applies: an
    unknown keyword raises ``TypeError``, and an invalid value raises
    the same ``ValueError`` whether it arrives inside ``execution`` or
    as a keyword, because both are validated by ``__post_init__``.
    """
    return replace(execution or ExecutionConfig(), **overrides)


def mloc_col(chunk_shape: tuple[int, ...], **overrides) -> MLOCConfig:
    """MLOC-COL: V-M-S order, Zlib-compressed PLoD byte columns."""
    defaults = dict(
        chunk_shape=chunk_shape,
        level_order="VMS",
        codec="zlib-bytes",
    )
    defaults.update(overrides)
    return MLOCConfig(**defaults)


def mloc_iso(chunk_shape: tuple[int, ...], **overrides) -> MLOCConfig:
    """MLOC-ISO: whole-value layout with ISOBAR lossless compression."""
    defaults = dict(
        chunk_shape=chunk_shape,
        level_order="VS",
        codec="isobar",
    )
    defaults.update(overrides)
    return MLOCConfig(**defaults)


def mloc_isa(chunk_shape: tuple[int, ...], **overrides) -> MLOCConfig:
    """MLOC-ISA: whole-value layout with ISABELA lossy compression."""
    defaults = dict(
        chunk_shape=chunk_shape,
        level_order="VS",
        codec="isabela",
    )
    defaults.update(overrides)
    return MLOCConfig(**defaults)
