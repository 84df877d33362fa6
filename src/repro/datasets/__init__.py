"""Synthetic GTS-like and S3D-like datasets (DESIGN.md §2 substitutions)."""

from repro.datasets.synthetic import gts_like, s3d_like, s3d_velocity_triplet

__all__ = [
    "gts_like",
    "s3d_like",
    "s3d_velocity_triplet",
]
