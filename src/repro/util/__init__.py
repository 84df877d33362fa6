"""Shared utilities: varint packing, validation helpers.

These are small, dependency-free building blocks used across the MLOC
reproduction.  They are deliberately kept separate from the domain
packages so that low-level codecs (``repro.compression``,
``repro.index``) do not import anything above them in the stack.
"""

from repro.util.validation import (
    check_dtype,
    check_positive,
    check_power_of_two,
    check_shape_chunks,
)
from repro.util.varint import (
    varint_decode_array,
    varint_encode_array,
)

__all__ = [
    "check_dtype",
    "check_positive",
    "check_power_of_two",
    "check_shape_chunks",
    "varint_decode_array",
    "varint_encode_array",
]
