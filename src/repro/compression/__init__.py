"""Pluggable compression codecs (Section III-B4).

``zlib-bytes`` compresses PLoD byte columns (MLOC-COL); ``isobar`` and
``isabela`` are the floating-point-aware lossless/lossy codecs behind
MLOC-ISO and MLOC-ISA; ``fpzip-like`` fills the FPZip plugin slot; the
null codecs disable compression for ablations.
"""

from repro.compression.base import (
    ByteCodec,
    CodecDecodeError,
    FloatCodec,
    codec_names,
    make_codec,
    register_codec,
)
from repro.compression.fpzip_like import FpzipLikeCodec
from repro.compression.isabela import IsabelaCodec
from repro.compression.isobar import IsobarCodec, compress_planes, decompress_planes
from repro.compression.null_codec import NullByteCodec, NullFloatCodec
from repro.compression.zlib_codec import ZlibByteCodec, ZlibFloatCodec

__all__ = [
    "ByteCodec",
    "CodecDecodeError",
    "FloatCodec",
    "FpzipLikeCodec",
    "IsabelaCodec",
    "IsobarCodec",
    "NullByteCodec",
    "NullFloatCodec",
    "ZlibByteCodec",
    "ZlibFloatCodec",
    "codec_names",
    "compress_planes",
    "decompress_planes",
    "make_codec",
    "register_codec",
]
