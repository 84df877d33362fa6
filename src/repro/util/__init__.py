"""Shared utilities: varint and bit packing, the persisted-record frame.

These are small, dependency-free building blocks used across the MLOC
reproduction.  They are deliberately kept separate from the domain
packages so that low-level codecs (``repro.compression``,
``repro.index``) do not import anything above them in the stack.
"""

from repro.util.varint import (
    varint_decode_array,
    varint_encode_array,
)

__all__ = [
    "varint_decode_array",
    "varint_encode_array",
]
