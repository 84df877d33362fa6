"""The one persisted-record frame (FORMAT.md, "Record frame"):
``magic | u32 version | fields... | u32 CRC32 of everything before``,
little-endian.  Bytes no writer produces raise :class:`FormatError`,
whether or not their CRC verifies: every read is bounds-checked.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["FormatError", "RecordReader", "frame", "record_crc", "text_field"]

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class FormatError(ValueError):
    """Bytes that are not a record a writer of this format produces."""


def frame(magic: bytes, version: int, *fields: bytes) -> bytes:
    """The framed record of ``fields`` (already little-endian bytes)."""
    body = b"".join((magic, _U32.pack(version), *fields))
    return body + _U32.pack(zlib.crc32(body))


def record_crc(raw: bytes) -> int:
    """The CRC32 a whole record's frame ends with.  (The CRC32 of a whole
    record, trailer included, is one constant: it identifies nothing.)"""
    return zlib.crc32(memoryview(raw)[: -_U32.size])


def text_field(value: str) -> bytes:
    """``value`` as a field: its ``<H`` UTF-8 byte length, then the bytes."""
    encoded = value.encode("utf-8")
    return _U16.pack(len(encoded)) + encoded


class RecordReader:
    """A cursor over a framed record's fields; ``what`` names it in errors."""

    def __init__(
        self,
        raw: bytes,
        magic: bytes,
        version: int,
        what: str,
        error: type[FormatError] = FormatError,
    ) -> None:
        self.what, self.error = what, error
        if len(raw) < len(magic) + 2 * _U32.size:
            self.fail(f"truncated at {len(raw)} bytes")
        if raw[: len(magic)] != magic:
            self.fail("bad magic")
        self._body = memoryview(raw)[: -_U32.size]
        if zlib.crc32(self._body) != _U32.unpack_from(raw, len(self._body))[0]:
            self.fail("CRC mismatch")
        self._pos = len(magic)
        (found,) = self.unpack(_U32)
        if found != version:
            self.fail(f"unsupported version {found}")

    def fail(self, why: str):
        raise self.error(f"{self.what}: {why}")

    def _take(self, size: int) -> int:
        start = self._pos
        if not 0 <= size <= len(self._body) - start:
            self.fail(f"truncated: {size} bytes wanted at offset {start}")
        self._pos = start + size
        return start

    def take(self, size: int) -> bytes:
        start = self._take(size)
        return bytes(self._body[start : self._pos])

    def unpack(self, fields: struct.Struct) -> tuple:
        return fields.unpack_from(self._body, self._take(fields.size))

    def text(self) -> str:
        """A field written by :func:`text_field`."""
        (size,) = self.unpack(_U16)
        try:
            return self.take(size).decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"text field of {size} bytes is not UTF-8")

    def array(self, dtype: str, count: int) -> np.ndarray:
        """``count`` items of little-endian ``dtype``, in native order."""
        dt = np.dtype(dtype)
        flat = np.frombuffer(self._body, dt, count, self._take(count * dt.itemsize))
        return flat.astype(dt.newbyteorder("="))

    def done(self) -> None:
        if self._pos != len(self._body):
            self.fail(f"{len(self._body) - self._pos} trailing bytes")
