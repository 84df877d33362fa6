"""ISABELA-specific tests: error bounds, ratios, window handling."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.isabela import IsabelaCodec


@pytest.fixture()
def codec() -> IsabelaCodec:
    return IsabelaCodec(window=256, n_coeffs=16, error_rate=1e-3)


def bound(codec: IsabelaCodec, v: np.ndarray) -> float:
    """ISABELA's guaranteed per-point bound: half the error rate times
    the largest magnitude."""
    return 0.5 * codec.error_rate * float(np.abs(v).max())


def turbulent(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0, 0.05, n)) + 100.0 + rng.normal(0, 0.5, n)


class TestErrorBound:
    def test_bound_holds_smooth(self, codec):
        v = turbulent(4096)
        out = codec.decode(codec.encode(v), v.size)
        assert np.abs(out - v).max() <= bound(codec, v) * (1 + 1e-9)

    def test_bound_holds_hard_data(self, codec, rng):
        v = rng.uniform(-1000, 1000, 2048)
        out = codec.decode(codec.encode(v), v.size)
        assert np.abs(out - v).max() <= bound(codec, v) * (1 + 1e-9)

    def test_tighter_error_rate(self):
        v = turbulent(2048)
        loose = IsabelaCodec(window=256, n_coeffs=16, error_rate=1e-2)
        tight = IsabelaCodec(window=256, n_coeffs=16, error_rate=1e-5)
        err_loose = np.abs(loose.decode(loose.encode(v), v.size) - v).max()
        err_tight = np.abs(tight.decode(tight.encode(v), v.size) - v).max()
        assert err_tight < err_loose

    def test_empty_bound(self, codec):
        assert codec.decode(codec.encode(np.empty(0)), 0).size == 0


class TestCompressionRatio:
    def test_paper_scale_ratio(self):
        """Table I: MLOC-ISA stores 8 GB in 1.6 GB -> ~0.2 ratio.  The
        dominant term is the bit-packed rank index (10 bits/value at
        window 1024 = 15.6%)."""
        codec = IsabelaCodec(window=1024, n_coeffs=32, error_rate=1e-3)
        v = turbulent(65536)
        ratio = len(codec.encode(v)) / v.nbytes
        assert 0.15 < ratio < 0.30

    def test_beats_zlib_on_turbulence(self):
        import zlib

        codec = IsabelaCodec(window=1024, n_coeffs=32, error_rate=1e-3)
        v = turbulent(32768, seed=5)
        assert len(codec.encode(v)) < len(zlib.compress(v.tobytes(), 6))


class TestWindowHandling:
    def test_exact_multiple(self, codec):
        v = turbulent(512)
        assert np.abs(codec.decode(codec.encode(v), 512) - v).max() <= bound(codec, v)

    def test_short_tail_window(self, codec):
        v = turbulent(256 + 100)
        out = codec.decode(codec.encode(v), v.size)
        assert np.abs(out - v).max() <= bound(codec, v) * (1 + 1e-9)

    def test_tail_below_fit_threshold_is_raw(self, codec):
        # Tail of 50 < 4 * n_coeffs: stored losslessly.
        v = turbulent(256 + 50)
        out = codec.decode(codec.encode(v), v.size)
        assert np.array_equal(out[256:], v[256:])

    def test_all_raw_when_tiny(self, codec):
        v = turbulent(40)
        assert np.array_equal(codec.decode(codec.encode(v), 40), v)

    def test_empty(self, codec):
        assert codec.decode(codec.encode(np.empty(0)), 0).size == 0

    def test_constant_window(self, codec):
        v = np.full(512, 7.25)
        out = codec.decode(codec.encode(v), 512)
        assert np.abs(out - v).max() <= bound(codec, v) * (1 + 1e-9)

    def test_all_zero_window(self, codec):
        v = np.zeros(512)
        out = codec.decode(codec.encode(v), 512)
        assert np.abs(out).max() <= 1.0  # step falls back to 1.0 for scale 0


class TestValidation:
    def test_constructor_constraints(self):
        with pytest.raises(ValueError, match="window"):
            IsabelaCodec(window=2)
        with pytest.raises(ValueError, match="n_coeffs"):
            IsabelaCodec(n_coeffs=3)
        with pytest.raises(ValueError, match="4 \\* n_coeffs"):
            IsabelaCodec(window=64, n_coeffs=32)
        with pytest.raises(ValueError, match="error_rate"):
            IsabelaCodec(error_rate=0)

    def test_rejects_2d(self, codec):
        with pytest.raises(ValueError, match="1-D"):
            codec.encode(np.zeros((4, 4)))

    def test_lossy_flag(self, codec):
        assert codec.lossless is False


class TestSortedWindowMechanism:
    def test_permutation_restores_order(self, codec):
        """The defining ISABELA property: values come back in original
        order, not sorted order."""
        v = turbulent(256)[::-1].copy()  # decreasing-ish
        out = codec.decode(codec.encode(v), 256)
        # correlation with original order must be near-perfect
        assert np.corrcoef(out, v)[0, 1] > 0.999


class TestWithoutScipy:
    """scipy is imported on the first fit or evaluation; without it,
    a spline fit or evaluation fails loudly and never degrades."""

    @pytest.fixture()
    def no_scipy(self, monkeypatch):
        # A ``None`` entry makes ``import scipy.interpolate`` raise.
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)

    def test_encode_raises_instead_of_storing_raw_windows(self, codec, no_scipy):
        with pytest.raises(ImportError):
            codec.encode(turbulent(512))

    def test_decoding_a_spline_window_raises(self, codec, monkeypatch):
        v = turbulent(512)
        payload = codec.encode(v)
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
        for fresh in (IsabelaCodec(window=256, n_coeffs=16), codec):
            with pytest.raises(ImportError):
                fresh.decode(payload, v.size)

    def test_decoding_raw_windows_needs_no_scipy(self, codec, monkeypatch):
        v = turbulent(40)
        payload = codec.encode(v)
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
        assert np.array_equal(codec.decode(payload, v.size), v)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=700,
    )
)
def test_error_bound_property(values):
    codec = IsabelaCodec(window=128, n_coeffs=8, error_rate=1e-3)
    v = np.array(values, dtype=np.float64)
    out = codec.decode(codec.encode(v), v.size)
    assert np.abs(out - v).max() <= bound(codec, v) * (1 + 1e-9) + 1e-12
