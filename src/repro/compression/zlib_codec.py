"""Zlib byte codec with an incompressibility escape hatch.

MLOC-COL compresses PLoD byte columns with standard Zlib
(Section IV-A2).  The low mantissa byte planes of scientific doubles
are effectively random — the paper notes bytes three through eight are
"regarded as incompressible so that original bytes are stored" — so
each payload carries a one-byte mode flag and falls back to storing the
raw bytes whenever deflate would not actually shrink them.  This keeps
storage bounded *and* makes decompression of those planes nearly free,
which is what Fig. 8's flat decompression line measures.

Most such planes never reach deflate, which costs tens of microseconds
a call: ``encode`` stores a buffer under 16 KiB raw when ``n * H0 / 8``
(order-0 entropy) + 0.25 B of code table per run of byte values whose
counts share a power of two + a 6-byte frame >= ``n`` and it repeats no
more 3-grams than twice chance.  This estimate, not a proof, skips no
block deflate shrinks in any recorded or adversarial input, so those
payloads are unchanged (``tests/test_codecs.py`` pins them).

``encode_many`` runs that probe over a whole batch — the writer hands
it the blocks of a slab — in passes of up to 255 buffers and about
16 KiB, instead of a dozen NumPy calls per buffer: one ``bincount``
gives every buffer's histogram row, one sort of buffer-tagged 3-grams
every buffer's repeats.  ``encode(data)`` is ``encode_many([data])[0]``,
and a buffer's payload does not depend on the batch it arrives in.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.base import ByteCodec, FloatCodec, decode_guard, inflate, register_codec

__all__ = ["ZlibByteCodec", "ZlibFloatCodec"]

_MODE_RAW = 0
_MODE_ZLIB = 1

#: Code-table bytes per run of byte values with one code length; zlib
#: header + Adler-32; zlib codes a shorter buffer as one block.
_TABLE_BYTES, _FRAME_BYTES, _PROBE_LIMIT = 0.25, 6, 1 << 14
#: ``log2(count)`` for every count a probed buffer can hold, -1 for 0.
_LOG2 = np.log2(np.arange(_PROBE_LIMIT).clip(1)) - (np.arange(_PROBE_LIMIT) == 0)


#: ``floor(log2(count))``: counts sharing a power of two tend to share a code length.
_EXPONENT = np.floor(_LOG2).astype(np.int8)
#: Buffers and bytes per pass of the batched probe.  A buffer's index
#: is the top byte of a uint16 histogram key and of a uint32 3-gram key,
#: where 0xFF tags the grams that do not count.  Larger passes make
#: fewer NumPy calls but temporaries the allocator maps afresh, and
#: faults in, on every call (docs/tuning.md "Write pass").
_PASS_BUFFERS, _PASS_BYTES = 255, 1 << 14
_UNCOUNTED = np.uint32(0xFFFFFFFF)


def _passes(sizes: np.ndarray):
    """``(lo, hi)`` of consecutive runs of buffers, one probe pass each."""
    lo = total = 0
    for i, n in enumerate(sizes.tolist()):
        if i > lo and (i - lo == _PASS_BUFFERS or total + n > _PASS_BYTES):
            yield lo, i
            lo, total = i, 0
        total += n
    if lo < sizes.size:
        yield lo, sizes.size


def _literal_bound_shrinks(buffers: list[np.ndarray], n: np.ndarray) -> np.ndarray:
    """Part one of the probe: where the order-0 entropy bound says
    deflate shrinks the buffer.  One histogram row per buffer."""
    keys = np.repeat(np.arange(len(buffers), dtype=np.uint16) << 8, n)
    keys |= np.concatenate(buffers)
    counts = np.bincount(keys, minlength=len(buffers) << 8).reshape(-1, 256)
    exps = _EXPONENT[counts]
    runs = np.count_nonzero(exps[:, 1:] != exps[:, :-1], axis=1) + 1
    # One dot product per row, each summed in the order ``np.dot`` sums it.
    dots = np.matmul(counts.astype(np.float64)[:, None, :], _LOG2[counts][:, :, None])
    literal_bits = n * _LOG2[n] - dots.reshape(-1)
    return literal_bits / 8 + _TABLE_BYTES * runs + _FRAME_BYTES < n


def _repeats_grams(buffers: list[np.ndarray], n: np.ndarray) -> np.ndarray:
    """Part two: where a buffer repeats more 3-grams than twice chance.
    One sort of buffer-tagged grams."""
    data = np.concatenate([*buffers, np.zeros(3, np.uint8)])
    # Every 3-gram as the low 24 bits of an unaligned little-endian
    # word, its buffer's index above; a buffer's last three do not
    # count (its last gram, and two that straddle the next buffer).
    keys = np.ndarray((n.sum(),), "<u4", data, strides=(1,)) & 0xFFFFFF
    keys |= np.repeat(np.arange(len(buffers), dtype=np.uint32) << 24, n)
    keys[(np.cumsum(n)[:, None] - np.arange(1, 4)).reshape(-1)] = _UNCOUNTED
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]] >> 24
    repeats = np.bincount(repeated, minlength=256)[: len(buffers)]
    return repeats > 2 + 2 * n * n / 2**25


def _deflate_may_shrink(buffers: list[np.ndarray]) -> np.ndarray:
    """The two-part probe of the module docstring over uint8 buffers:
    False where it stores the buffer raw without calling deflate."""
    sizes = np.array([buf.size for buf in buffers], dtype=np.int64)
    deflate = sizes >= _PROBE_LIMIT
    # zlib output is never shorter than 8 bytes.
    candidates = np.flatnonzero((sizes >= 4) & ~deflate)
    for part in (_literal_bound_shrinks, _repeats_grams):
        for lo, hi in _passes(sizes[candidates]):
            ids = candidates[lo:hi]
            deflate[ids] = part([buffers[i] for i in ids], sizes[ids])
        candidates = candidates[~deflate[candidates]]
    return deflate


@register_codec("zlib-bytes")
class ZlibByteCodec(ByteCodec):
    """Deflate with a raw-passthrough mode flag.

    Stateless per call (``compress``/``decompressobj`` build their
    own stream objects), hence thread-safe and deterministic.
    """

    lossless = True
    decode_throughput = 350e6  # inflate on compressible planes, memcpy on raw

    def __init__(self, level: int = 6) -> None:
        if not (0 <= level <= 9):
            raise ValueError(f"zlib level must be in [0, 9], got {level}")
        self.level = level

    def encode(self, data) -> bytes:
        return self.encode_many([data])[0]

    def encode_many(self, buffers) -> list[bytes]:
        # zlib and the probe read each buffer in place; raw mode copies it once.
        raws = [np.frombuffer(data, np.uint8) for data in buffers]
        payloads = []
        for raw, probe_says in zip(raws, _deflate_may_shrink(raws).tolist()):
            if probe_says:
                compressed = zlib.compress(raw, self.level)
                if len(compressed) < raw.size:
                    payloads.append(bytes([_MODE_ZLIB]) + compressed)
                    continue
            payloads.append(bytes([_MODE_RAW]) + raw.data)
        return payloads

    @decode_guard
    def decode(self, payload: bytes, raw_len: int) -> bytes:
        if len(payload) == 0:
            if raw_len != 0:
                raise ValueError(f"empty payload but raw_len={raw_len}")
            return b""
        mode, body = payload[0], payload[1:]
        if mode == _MODE_RAW:
            out = bytes(body)
        elif mode == _MODE_ZLIB:
            out = inflate(body, raw_len)
        else:
            raise ValueError(f"unknown payload mode {mode}")
        if len(out) != raw_len:
            raise ValueError(f"decoded {len(out)} bytes, expected {raw_len}")
        return out


@register_codec("zlib-float")
class ZlibFloatCodec(FloatCodec):
    """Deflate applied to the raw little-endian float64 bytes.

    The straightforward lossless baseline codec for full-value layouts;
    floating-point-aware codecs (ISOBAR, ISABELA) do better on
    scientific data but this is the reference point.
    """

    lossless = True
    decode_throughput = 150e6

    def __init__(self, level: int = 6) -> None:
        self._bytes = ZlibByteCodec(level=level)

    def encode(self, values: np.ndarray) -> bytes:
        return self.encode_many([values])[0]

    def encode_many(self, arrays) -> list[bytes]:
        buffers = []
        for values in arrays:
            values = np.ascontiguousarray(values, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError(f"values must be 1-D, got shape {values.shape}")
            buffers.append(values)
        return self._bytes.encode_many(buffers)

    @decode_guard
    def decode(self, payload: bytes, count: int) -> np.ndarray:
        raw = self._bytes.decode(payload, count * 8)
        return np.frombuffer(raw, dtype=np.float64).copy()
