"""Light-weight indexing: per-bin position indices, WAH bitmaps, and
the hierarchical compressed bitmap index (Sections III-A3 and III-D4)."""

from repro.index.binindex import encode_position_block
from repro.index.bitmap import (
    Bitmap,
    wah_decode,
    wah_encode,
    wah_from_positions,
)
from repro.index.hbi import (
    HBIBuilder,
    HBIndex,
    decode_hierarchical_bitmap,
    encode_hierarchical_bitmap,
    hbi_path,
)

__all__ = [
    "Bitmap",
    "HBIBuilder",
    "HBIndex",
    "decode_hierarchical_bitmap",
    "encode_hierarchical_bitmap",
    "encode_position_block",
    "hbi_path",
    "wah_decode",
    "wah_encode",
    "wah_from_positions",
]
