"""Precision-based Level of Detail (PLoD) byte-plane machinery
(Section III-B3, Fig. 3) and its error metrics."""

from repro.plod.accuracy import relative_errors
from repro.plod.byteplanes import (
    FULL_PLOD_LEVEL,
    GROUP_OFFSETS,
    GROUP_WIDTHS,
    N_GROUPS,
    assemble_from_groups,
    assemble_from_groups_degraded,
    plod_degrade,
    split_byte_groups,
)

__all__ = [
    "FULL_PLOD_LEVEL",
    "GROUP_OFFSETS",
    "GROUP_WIDTHS",
    "N_GROUPS",
    "assemble_from_groups",
    "assemble_from_groups_degraded",
    "plod_degrade",
    "relative_errors",
    "split_byte_groups",
]
