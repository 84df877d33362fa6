"""Deterministic fault injection for the simulated parallel file system.

Real PFS deployments (the paper's Lustre setting) do not fail cleanly:
clients see torn reads after stripe-server restarts, silent bit rot on
aging disks, transient ``EIO`` under contention, and latency spikes
when an OST is rebuilding.  This module lets the reproduction *model*
those failures so the read path's verify-and-recover machinery
(:mod:`repro.core.engine`) can be exercised and regression-tested:

``FaultPlan``
    A frozen, seeded description of *which* faults happen *where*.
    Every decision is a pure function of ``(seed, path, offset,
    length, attempt)`` via a keyed hash — no hidden RNG state — so a
    plan replays identically across runs, backends, and processes, and
    a chaos test failure is reproducible from its seed alone.
``FaultyPFS``
    A :class:`~repro.pfs.simfs.SimulatedPFS` subclass that *wraps* an
    existing file system (sharing its namespace, extent cache, and
    cost model) and applies a plan to every read.  Writes are never
    faulted *by the plan*: the writer's deterministic bytes are a
    different contract, and the paper's failure domain
    is the long-lived read-mostly analysis store.  Crash coverage of
    the append protocol uses the explicit, scripted
    :meth:`FaultyPFS.fail_next_write` hook instead — it interrupts a
    chosen ``write_file`` call (optionally committing a torn prefix
    first), modeling a writer that dies mid-commit.
``TransientIOError``
    The retryable error raised for injected transient failures.
``WriteInterrupted``
    The error raised by an injected write crash.

Fault classes and their accounting semantics:

* **Transient errors** — ``read()`` raises :class:`TransientIOError`.
  The failed request still charges one seek (the positioning happened)
  and drops the handle's position, so the retry seeks again.
* **Bit flips** — payload bytes are XOR-flipped in flight.  Transient
  flips evict the extent from the client cache (the clean bytes never
  arrived; a retry re-reads cold).  *Sticky* flips model bit rot: the
  same extent corrupts identically on every attempt, which is what
  drives blocks into quarantine.
* **Torn reads** — a proper prefix of the requested bytes is
  returned; the missing suffix is evicted from the cache.
* **Latency spikes** — ``stall_seconds`` charged to the reading
  session's :class:`~repro.pfs.costmodel.IOStats`, flowing into the
  cost model's per-rank overhead term.

Faults are restricted to paths matching ``fault_suffixes`` (default:
the ``.data``/``.index`` bin subfiles) so store metadata loads stay
clean — metadata durability is fsck's domain, not the query path's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.pfs.simfs import PFSSession, SimFileHandle, SimulatedPFS

__all__ = [
    "TransientIOError",
    "WriteInterrupted",
    "FaultDecision",
    "FaultPlan",
    "FaultInjectionLog",
    "FaultyPFS",
]


class TransientIOError(IOError):
    """A retryable read failure injected by :class:`FaultyPFS`."""

    def __init__(self, path: str, offset: int, length: int, attempt: int) -> None:
        super().__init__(
            f"transient I/O error reading {path} [{offset}, {offset + length}) "
            f"(attempt {attempt})"
        )
        self.path = path
        self.offset = offset
        self.length = length
        self.attempt = attempt


class WriteInterrupted(IOError):
    """An injected crash in the middle of a ``write_file`` call.

    ``committed`` is how many of ``total`` bytes made it to disk
    before the crash (0 when the target file was left untouched).
    """

    def __init__(self, path: str, committed: int, total: int) -> None:
        super().__init__(
            f"write of {path} interrupted after {committed}/{total} bytes"
        )
        self.path = path
        self.committed = committed
        self.total = total


@dataclass
class _WriteFault:
    """One scripted write interruption: match, torn prefix, uses left."""

    match: str
    torn_at: int | None
    remaining: int


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one read attempt of one extent."""

    stall_seconds: float = 0.0
    transient: bool = False
    #: Byte positions (relative to the extent) whose lowest-order
    #: ``bit`` is flipped, as ``(byte_offset, bit)`` pairs.
    flips: tuple[tuple[int, int], ...] = ()
    #: Short-read length (< requested) for torn reads, else ``None``.
    torn_length: int | None = None
    #: Whether the flips are sticky (identical on every attempt).
    sticky: bool = False

    @property
    def clean(self) -> bool:
        return (
            self.stall_seconds == 0.0
            and not self.transient
            and not self.flips
            and self.torn_length is None
        )


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic schedule of injected faults.

    All ``*_rate`` parameters are probabilities in ``[0, 1]``.
    Per-*attempt* rates (transient errors, transient bit flips, torn
    reads, latency spikes) are drawn independently for every read
    attempt of an extent, so a retry can succeed where the first
    attempt failed.  The per-*extent* ``sticky_corruption_rate`` marks
    an extent as rotten once and for all: every attempt returns the
    same corrupted bytes, modeling media bit rot that no retry fixes.
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    bitflip_rate: float = 0.0
    torn_read_rate: float = 0.0
    sticky_corruption_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 0.05
    fault_suffixes: tuple[str, ...] = (".data", ".index")

    def __post_init__(self) -> None:
        for name in (
            "transient_error_rate",
            "bitflip_rate",
            "torn_read_rate",
            "sticky_corruption_rate",
            "latency_spike_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_spike_seconds < 0:
            raise ValueError(
                f"latency_spike_seconds must be >= 0, got {self.latency_spike_seconds}"
            )

    # ------------------------------------------------------------------
    def _u(self, *parts) -> float:
        """Uniform [0, 1) deterministically keyed by seed and parts."""
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((self.seed,) + parts).encode())
        return int.from_bytes(h.digest(), "big") / 2.0**64

    def applies_to(self, path: str) -> bool:
        """Whether this plan injects faults into reads of ``path``."""
        return path.endswith(self.fault_suffixes)

    def is_sticky(self, path: str, offset: int, length: int) -> bool:
        """Whether the extent is rotten (corrupts on every attempt)."""
        if not self.applies_to(path):
            return False
        return self._u("sticky", path, offset, length) < self.sticky_corruption_rate

    def sticky_flip(self, path: str, offset: int, length: int) -> tuple[int, int]:
        """The (byte, bit) a rotten extent always returns flipped."""
        byte = int(self._u("sticky-byte", path, offset, length) * length)
        bit = int(self._u("sticky-bit", path, offset, length) * 8)
        return min(byte, length - 1), min(bit, 7)

    def decide(
        self, path: str, offset: int, length: int, attempt: int
    ) -> FaultDecision:
        """The injected fault(s) for one read attempt of one extent."""
        if not self.applies_to(path) or length <= 0:
            return FaultDecision()
        ext = (path, offset, length)
        stall = 0.0
        if self._u("latency", *ext, attempt) < self.latency_spike_rate:
            stall = self.latency_spike_seconds
        if self._u("transient", *ext, attempt) < self.transient_error_rate:
            return FaultDecision(stall_seconds=stall, transient=True)
        flips: list[tuple[int, int]] = []
        sticky = self.is_sticky(*ext)
        if sticky:
            flips.append(self.sticky_flip(*ext))
        if self._u("flip", *ext, attempt) < self.bitflip_rate:
            byte = min(int(self._u("flip-byte", *ext, attempt) * length), length - 1)
            bit = min(int(self._u("flip-bit", *ext, attempt) * 8), 7)
            flips.append((byte, bit))
        torn = None
        if self._u("torn", *ext, attempt) < self.torn_read_rate:
            torn = int(self._u("torn-len", *ext, attempt) * length)
        return FaultDecision(
            stall_seconds=stall,
            flips=tuple(flips),
            torn_length=torn,
            sticky=sticky and len(flips) == 1,
        )


@dataclass
class FaultInjectionLog:
    """Lifetime counters of the faults a :class:`FaultyPFS` injected."""

    transient_errors: int = 0
    bitflips: int = 0
    torn_reads: int = 0
    latency_spikes: int = 0
    #: Scripted write crashes (``fail_next_write``), not plan-drawn.
    interrupted_writes: int = 0
    stall_seconds: float = 0.0
    #: Rotten extents actually read, as (path, offset, length).
    sticky_extents: set = field(default_factory=set)

    def as_dict(self) -> dict[str, float]:
        return {
            "transient_errors": self.transient_errors,
            "bitflips": self.bitflips,
            "torn_reads": self.torn_reads,
            "latency_spikes": self.latency_spikes,
            "interrupted_writes": self.interrupted_writes,
            "stall_seconds": self.stall_seconds,
            "sticky_extents": len(self.sticky_extents),
        }


class _FaultyFileHandle(SimFileHandle):
    """A read handle that applies the fault plan to every read.

    The inherited :meth:`~repro.pfs.simfs.SimFileHandle.readv` funnels
    through this :meth:`read`, so a coalesced vectored read draws its
    fault decision keyed on the *span* extent ``(path, span_offset,
    span_length)`` — a different draw than the per-block extents a
    ``coalesce_gap=0`` scheduler issues.  That is intentional: the
    wire-level transfer really is one request, and the engine re-checks
    each block's CRC after slicing the span, falling back to single
    verified reads on damage.
    """

    def read(self, offset: int, length: int) -> bytes:
        fs: FaultyPFS = self._fs
        plan = fs.plan
        if length <= 0 or not plan.applies_to(self._path):
            return super().read(offset, length)
        attempt = fs._next_attempt(self._path, offset, length)
        decision = plan.decide(self._path, offset, length, attempt)
        log = fs.injected
        if decision.stall_seconds:
            self._stats.stall_seconds += decision.stall_seconds
            log.latency_spikes += 1
            log.stall_seconds += decision.stall_seconds
        if decision.transient:
            # The request reached the server before failing: charge the
            # positioning, and force the retry to seek again.
            self._stats.seeks += 1
            self._pos = None
            log.transient_errors += 1
            raise TransientIOError(self._path, offset, length, attempt)
        data = super().read(offset, length)
        if decision.clean:
            return data
        buf = bytearray(data)
        for byte, bit in decision.flips:
            buf[byte] ^= 1 << bit
        log.bitflips += len(decision.flips)
        if decision.sticky:
            log.sticky_extents.add((self._path, offset, length))
        if decision.flips and not decision.sticky:
            # Transient in-flight corruption: the clean bytes never
            # arrived, so a retry must pay for a cold re-read.  Sticky
            # corruption stays cached — the *stored* bytes are rotten.
            fs._cache.evict(self._path, offset, length)
        if decision.torn_length is not None and decision.torn_length < length:
            log.torn_reads += 1
            fs._cache.evict(self._path, offset, length)
            del buf[decision.torn_length :]
        return bytes(buf)


class FaultyPFS(SimulatedPFS):
    """Fault-injecting view over a :class:`SimulatedPFS`.

    Shares the wrapped file system's namespace, extent cache, and cost
    model — writing through either side is visible to both — and
    applies ``plan`` to every read performed through its sessions.

    Parameters
    ----------
    base:
        The file system to wrap.  ``None`` creates a fresh namespace
        (useful for writer-then-reader tests on one object).
    plan:
        The :class:`FaultPlan` to apply; the default plan injects
        nothing, making the wrapper a bit-exact passthrough.
    """

    def __init__(
        self,
        base: SimulatedPFS | None = None,
        plan: FaultPlan | None = None,
        cost_model=None,
    ) -> None:
        if base is None:
            super().__init__(cost_model)
        else:
            if cost_model is not None:
                raise ValueError("pass cost_model only when base is None")
            self.cost_model = base.cost_model
            self._files = base._files  # shared namespace (aliased on purpose)
            self._paths = base._paths
            self._cache = base._cache
        self.base = base
        self.plan = plan if plan is not None else FaultPlan()
        self.injected = FaultInjectionLog()
        self._attempts: dict[tuple[str, int, int], int] = {}
        self._write_faults: list[_WriteFault] = []

    # ------------------------------------------------------------------
    def _make_handle(self, session: PFSSession, path: str) -> SimFileHandle:
        return _FaultyFileHandle(session, path)

    def _next_attempt(self, path: str, offset: int, length: int) -> int:
        key = (path, offset, length)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        return attempt

    def reset_attempts(self) -> None:
        """Restart per-extent attempt numbering (fresh chaos round)."""
        self._attempts.clear()

    # ------------------------------------------------------------------
    def fail_next_write(
        self, match: str, *, torn_at: int | None = None, count: int = 1
    ) -> None:
        """Script a crash into the next ``count`` writes matching ``match``.

        ``match`` is a path substring.  With ``torn_at=None`` the
        crash lands *before* anything durable: the target path keeps
        whatever it held (a previous version, or nothing).  With
        ``torn_at=k`` the first ``k`` bytes are committed and the rest
        lost — the torn-commit case CRC-framed records (manifests,
        ``hbi``/``peb``) must detect and readers must skip.  Either
        way the interrupted call raises :class:`WriteInterrupted`.
        """
        if torn_at is not None and torn_at < 0:
            raise ValueError(f"torn_at must be >= 0, got {torn_at}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._write_faults.append(_WriteFault(match, torn_at, count))

    def write_file(self, path: str, data: bytes) -> None:
        for spec in self._write_faults:
            if spec.remaining > 0 and spec.match in path:
                spec.remaining -= 1
                self.injected.interrupted_writes += 1
                committed = 0
                if spec.torn_at is not None:
                    committed = min(spec.torn_at, len(data))
                    super().write_file(path, bytes(data[:committed]))
                raise WriteInterrupted(path, committed, len(data))
        super().write_file(path, data)
