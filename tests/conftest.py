"""Shared fixtures: deterministic RNGs, small datasets, built stores.

Store-building is the expensive part of the integration tests, so the
written stores are session-scoped and shared; tests must not mutate
them (queries are read-only by construction).  Every store comes from
``scripts/gen_engine_golden.build_store``, the builder of the engine
goldens and the contract matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import gts_like, s3d_like
from scripts.gen_engine_golden import build_store

# Hypothesis profiles.  Per-test ``@settings`` decorators override the
# parameters they set; everything else (notably ``derandomize``) comes
# from the loaded profile, so ``HYPOTHESIS_PROFILE=ci`` makes every
# property test — including the chaos suite — replay the exact same
# examples on every run, with example counts capped for CI wall-clock.
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """Base seed for fault-plan construction in the chaos tests.

    Override with ``REPRO_CHAOS_SEED`` to replay a failing chaos run:
    every :class:`~repro.pfs.faults.FaultPlan` a test builds derives
    its seed from this value, so one integer pins the whole schedule.
    """
    return int(os.environ.get("REPRO_CHAOS_SEED", "49152"))


@pytest.fixture(scope="session")
def gts_small() -> np.ndarray:
    """2-D 256x256 GTS-like field used across integration tests."""
    return gts_like((256, 256), seed=7)


@pytest.fixture(scope="session")
def s3d_small() -> np.ndarray:
    """3-D 48x48x48 S3D-like field."""
    return s3d_like((48, 48, 48), seed=8)


@pytest.fixture(scope="session")
def col_store(gts_small):
    """(fs, store) for an MLOC-COL layout over the small GTS field."""
    return build_store("col", gts_small)


@pytest.fixture(scope="session")
def vsm_store(gts_small):
    """MLOC-COL layout in V-S-M order (chunk-major PLoD cells)."""
    return build_store("vsm", gts_small)


@pytest.fixture(scope="session")
def iso_store(gts_small):
    return build_store("iso", gts_small)


@pytest.fixture(scope="session")
def isa_store(gts_small):
    return build_store("isa", gts_small)


@pytest.fixture(scope="session")
def col_store_3d(s3d_small):
    return build_store("col", s3d_small, chunk_shape=(16, 16, 16))
