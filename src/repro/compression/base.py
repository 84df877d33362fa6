"""Codec interfaces and registry (Section III-B4).

MLOC gives compression "first-class treatment": any technique can be
plugged into the pipeline level that compresses the smallest layout
units.  Two interfaces exist because the units differ by configuration:

* :class:`ByteCodec` — compresses opaque byte streams.  Used when PLoD
  splits values into byte planes (MLOC-COL): each plane is an ordinary
  buffer, so a general-purpose compressor applies.
* :class:`FloatCodec` — compresses arrays of float64 values.  Used when
  values are kept whole (MLOC-ISO, MLOC-ISA): floating-point-aware
  codecs exploit the number representation.

The registry maps codec names (as used by :class:`repro.core.MLOCConfig`)
to constructors so configurations are serializable.

Concurrency contract
--------------------
Every registered codec must satisfy three rules:

* ``encode`` is **deterministic**: identical input produces identical
  payload bytes regardless of instance, call history or the batch an
  ``encode_many`` call hands it in — the writer's deterministic-bytes
  guarantee (DESIGN.md §6) rests on it.
* ``decode`` is safe on a **shared instance**: the read executor's
  ``threads`` backend decodes on a pool with one codec, so codecs that
  keep mutable caches (ISABELA's design matrices) must guard them.
* every codec **round-trips through pickle** and exposes a
  ``spec()`` that ``make_codec(name, **dict(params))`` rebuilds: the
  ``processes`` backends ship work to spawned workers as
  ``(name, params)`` specs, never live instances, so derived state
  (caches, locks) must either pickle cleanly or be dropped and rebuilt
  on unpickle (``tests/test_codec_pickle.py`` audits every registered
  codec).
"""

from __future__ import annotations

import functools
import struct
import zlib
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

__all__ = [
    "ByteCodec",
    "CodecDecodeError",
    "FloatCodec",
    "decode_guard",
    "inflate",
    "register_codec",
    "make_codec",
    "codec_names",
]


class CodecDecodeError(ValueError):
    """A payload could not be decoded (truncated, corrupt, or malformed).

    Every registered codec raises exactly this type from ``decode`` on
    bad input, whatever the underlying failure (``zlib.error``,
    ``struct.error``, length mismatch, bad mode byte, ...), so callers
    — the executor's verified read path and ``fsck`` — can treat
    "payload does not decode" as one condition.  Subclasses
    ``ValueError`` for backward compatibility with callers that caught
    the historical mix.
    """


#: Failure types a decoder may legitimately hit on corrupt input.
_DECODE_FAILURES = (ValueError, IndexError, OverflowError, struct.error, zlib.error)


def decode_guard(fn: Callable) -> Callable:
    """Wrap a codec ``decode`` method to normalize failures.

    Any :data:`_DECODE_FAILURES` escaping ``fn`` is re-raised as
    :class:`CodecDecodeError` with the codec name and payload size
    attached; an already-normalized error passes through untouched.
    """

    @functools.wraps(fn)
    def wrapped(self, payload, n):
        try:
            return fn(self, payload, n)
        except CodecDecodeError:
            raise
        except _DECODE_FAILURES as exc:
            raise CodecDecodeError(
                f"{self.name}: cannot decode {len(payload)}-byte payload: {exc}"
            ) from exc

    return wrapped


def inflate(body: bytes, limit: int) -> bytes:
    """Inflate ``body``, which must be exactly one whole deflate stream
    of at most ``limit`` bytes; anything else raises ``ValueError``."""
    inflater = zlib.decompressobj()
    out = inflater.decompress(body, limit + 1)
    if not inflater.eof or inflater.unused_data or len(out) > limit:
        raise ValueError("deflate stream is truncated, too long or has trailing bytes")
    return out


class _SpecMixin:
    """Portable ``(name, params)`` identity of a codec instance.

    :func:`make_codec` stamps the constructor params onto every
    instance it builds, so ``spec()`` captures exactly what is needed
    to rebuild an equivalent codec anywhere — in particular inside a
    spawned ``processes``-backend worker, where live instances never
    travel.  ``params`` is a sorted, hashable items tuple, usable
    directly as a worker-side cache key.
    """

    def spec(self) -> tuple[str, tuple]:
        """``(name, params_items)``; ``make_codec(name, **dict(params_items))``
        rebuilds this codec."""
        return self.name, getattr(self, "_spec_params", ())


class ByteCodec(_SpecMixin, ABC):
    """Compressor for opaque byte buffers."""

    #: Registry name; set by subclasses.
    name: str = "abstract-byte"
    #: Whether decode(encode(x)) == x exactly.
    lossless: bool = True
    #: Sustained decode rate in bytes of *raw output* per second,
    #: calibrated on ~1 MB payloads (the paper-scale compression-block
    #: size).  The query executor models decompression time as
    #: ``scaled_raw_bytes / decode_throughput`` so that per-call Python
    #: overhead on the scaled-down blocks does not distort the
    #: paper-equivalent component times (DESIGN.md §5).
    decode_throughput: float = 300e6

    @abstractmethod
    def encode(self, data) -> bytes:
        """Compress ``data`` into a self-framed payload.

        ``data`` is any C-contiguous bytes-like buffer — ``bytes``, a
        ``memoryview``, or a 1-D ``uint8`` array — so the writer can
        hand over concatenated views without an intermediate copy.
        """

    def encode_many(self, buffers) -> list[bytes]:
        """``[self.encode(b) for b in buffers]``, which a codec may
        compute in one pass over the batch (the writer encodes a slab's
        blocks in one call)."""
        return [self.encode(b) for b in buffers]

    @abstractmethod
    def decode(self, payload: bytes, raw_len: int) -> bytes:
        """Recover the original ``raw_len`` bytes from ``payload``."""


class FloatCodec(_SpecMixin, ABC):
    """Compressor for 1-D float64 arrays."""

    name: str = "abstract-float"
    lossless: bool = True
    #: See :attr:`ByteCodec.decode_throughput`.
    decode_throughput: float = 300e6

    @abstractmethod
    def encode(self, values: np.ndarray) -> bytes:
        """Compress a 1-D float64 array into a self-framed payload."""

    def encode_many(self, arrays) -> list[bytes]:
        """``[self.encode(v) for v in arrays]`` (see
        :meth:`ByteCodec.encode_many`)."""
        return [self.encode(v) for v in arrays]

    @abstractmethod
    def decode(self, payload: bytes, count: int) -> np.ndarray:
        """Recover ``count`` float64 values (exactly, if lossless)."""


_REGISTRY: dict[str, Callable[..., ByteCodec | FloatCodec]] = {}


def register_codec(name: str) -> Callable:
    """Class decorator registering a codec constructor under ``name``."""

    def wrap(cls):
        if name in _REGISTRY:
            raise ValueError(f"codec {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def make_codec(name: str, **params) -> ByteCodec | FloatCodec:
    """Instantiate a registered codec by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    codec = factory(**params)
    codec._spec_params = tuple(sorted(params.items()))
    return codec


def codec_names() -> list[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)
