"""ISOBAR-style lossless compression for float64 arrays.

ISOBAR (Schendel et al., ICDE 2012) is a *preconditioner*: it analyzes
the byte planes of a floating-point stream, identifies which planes are
actually compressible (high-order sign/exponent/leading-mantissa bytes
of smooth scientific fields), routes those through a standard
compressor, and stores the remaining, effectively random low-mantissa
planes verbatim.  That is exactly the mechanism implemented here:

1. View the values as an ``(n, 8)`` big-endian byte matrix.
2. For each of the 8 planes, estimate compressibility by deflating a
   bounded sample of the plane.
3. Deflate planes that pass the threshold; store the others raw.

The result is lossless, has bounded worst-case expansion (8 mode
bytes + 32 length bytes), and reproduces ISOBAR's characteristic
profile on the synthetic science data: ~10-20% size reduction with
high throughput (Table I's MLOC-ISO row: 6.9 GB for 8 GB raw).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.base import FloatCodec, decode_guard, inflate, register_codec

__all__ = ["IsobarCodec", "compress_planes", "decompress_planes"]

_SAMPLE_BYTES = 4096
_MODE_RAW = 0
_MODE_ZLIB = 1


def _plane_compressible(plane: np.ndarray, threshold: float) -> bool:
    """Estimate whether deflate shrinks ``plane`` below ``threshold``."""
    sample = plane[:_SAMPLE_BYTES].tobytes()
    if not sample:
        return False
    ratio = len(zlib.compress(sample, 1)) / len(sample)
    return ratio < threshold


def compress_planes(
    matrix: np.ndarray, threshold: float = 0.9, level: int = 6
) -> bytes:
    """Compress the columns of an ``(n, width)`` uint8 matrix plane-wise.

    Payload layout: ``width`` mode bytes, then ``width`` little-endian
    uint32 payload lengths, then the plane payloads in order.
    """
    if matrix.ndim != 2 or matrix.dtype != np.uint8:
        raise ValueError("matrix must be a 2-D uint8 array")
    width = matrix.shape[1]
    modes = bytearray(width)
    payloads: list[bytes] = []
    for p in range(width):
        plane = np.ascontiguousarray(matrix[:, p])
        if _plane_compressible(plane, threshold):
            compressed = zlib.compress(plane.tobytes(), level)
            if len(compressed) < plane.size:
                modes[p] = _MODE_ZLIB
                payloads.append(compressed)
                continue
        modes[p] = _MODE_RAW
        payloads.append(plane.tobytes())
    lengths = np.array([len(p) for p in payloads], dtype="<u4").tobytes()
    return bytes(modes) + lengths + b"".join(payloads)


def decompress_planes(payload: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`compress_planes`; returns ``(count, width)`` uint8."""
    header = width + 4 * width
    if len(payload) < header:
        raise ValueError("payload too short for plane header")
    modes = payload[:width]
    lengths = np.frombuffer(payload[width:header], dtype="<u4")
    matrix = np.empty((count, width), dtype=np.uint8)
    offset = header
    for p in range(width):
        body = payload[offset : offset + int(lengths[p])]
        offset += int(lengths[p])
        if modes[p] == _MODE_ZLIB:
            plane = np.frombuffer(inflate(body, count), dtype=np.uint8)
        elif modes[p] == _MODE_RAW:
            plane = np.frombuffer(body, dtype=np.uint8)
        else:
            raise ValueError(f"unknown plane mode {modes[p]}")
        if plane.size != count:
            raise ValueError(f"plane {p}: got {plane.size} bytes, expected {count}")
        matrix[:, p] = plane
    if offset != len(payload):
        raise ValueError(f"plane lengths cover {offset} of {len(payload)} bytes")
    return matrix


@register_codec("isobar")
class IsobarCodec(FloatCodec):
    """Byte-plane-selective lossless float compressor.

    Holds no mutable state — :func:`compress_planes` and
    :func:`decompress_planes` are pure functions — so instances are
    thread-safe and encoding is deterministic.
    """

    lossless = True
    decode_throughput = 600e6  # most planes pass through untouched

    def __init__(self, threshold: float = 0.9, level: int = 6) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.level = level

    def encode(self, values: np.ndarray) -> bytes:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        matrix = values.astype(">f8").view(np.uint8).reshape(-1, 8)
        return compress_planes(matrix, self.threshold, self.level)

    @decode_guard
    def decode(self, payload: bytes, count: int) -> np.ndarray:
        matrix = decompress_planes(payload, count, 8)
        return matrix.reshape(-1).view(">f8").astype(np.float64)
