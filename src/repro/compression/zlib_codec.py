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


def _deflate_cannot_shrink(buf: np.ndarray) -> bool:
    """The two-part probe of the module docstring, on a uint8 buffer."""
    n = buf.size
    if n < 4:
        return True  # zlib output is never shorter than 8 bytes
    if n >= _PROBE_LIMIT:
        return False
    counts = np.bincount(buf, minlength=256)
    log2c = _LOG2[counts]
    exps = np.floor(log2c)  # counts sharing a power of two tend to share a code length
    runs = np.count_nonzero(exps[1:] != exps[:-1]) + 1
    literal_bits = n * _LOG2[n] - np.dot(counts, log2c)
    if literal_bits / 8 + _TABLE_BYTES * runs + _FRAME_BYTES < n:
        return False
    # The 3-grams (but the last) as the low 24 bits of unaligned little-endian words.
    grams = np.ndarray((n - 3,), "<u4", buf, strides=(1,)) & 0xFFFFFF
    grams.sort()
    return np.count_nonzero(grams[1:] == grams[:-1]) <= 2 + 2 * n * n / 2**25


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
        # zlib and the probe read ``data`` in place; raw mode copies it once.
        raw = memoryview(data).cast("B")
        if not _deflate_cannot_shrink(np.frombuffer(raw, np.uint8)):
            compressed = zlib.compress(raw, self.level)
            if len(compressed) < raw.nbytes:
                return bytes([_MODE_ZLIB]) + compressed
        return bytes([_MODE_RAW]) + raw

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
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        return self._bytes.encode(values.tobytes())

    @decode_guard
    def decode(self, payload: bytes, count: int) -> np.ndarray:
        raw = self._bytes.decode(payload, count * 8)
        return np.frombuffer(raw, dtype=np.float64).copy()
