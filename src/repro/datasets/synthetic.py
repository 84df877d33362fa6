"""Synthetic stand-ins for the paper's GTS and S3D datasets.

The paper evaluates on one timestep of GTS gyrokinetic fusion output
(1-D particle data aggregated into a 2-D space) and one of S3D
turbulent-combustion output (3-D), both replicated to reach the target
sizes; queries use *random* value/spatial constraints and report
averages, so only two statistical properties of the data matter to the
experiments:

* the marginal value distribution (drives bin boundaries, bin overlap
  of value constraints, and compressibility of high byte planes);
* spatial smoothness / correlation length (drives the clustering of
  qualifying points, Hilbert-order locality, and WAH bitmap sizes).

Both generators synthesize those properties with superposed random
Fourier modes (a standard turbulence surrogate) plus a small white
noise floor that keeps low mantissa bytes incompressible — the
characteristic scientific-data profile ISOBAR/ISABELA are built for.
Values are mapped into physically plausible positive ranges
(electrostatic potential fluctuations for GTS; flame temperatures for
S3D) so PLoD relative-error behaviour matches Table VI.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gts_like",
    "s3d_like",
    "s3d_velocity_triplet",
]


def _fourier_field(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    n_modes: int,
    max_wavenumber: float,
    spectrum_slope: float,
) -> np.ndarray:
    """Superpose random Fourier modes with a decaying amplitude spectrum."""
    ndims = len(shape)
    axes = [np.linspace(0.0, 2.0 * np.pi, s, endpoint=False) for s in shape]
    field = np.zeros(shape, dtype=np.float64)
    phase = np.empty(shape, dtype=np.float64)
    for _ in range(n_modes):
        k = rng.uniform(1.0, max_wavenumber, size=ndims)
        amp = k.mean() ** spectrum_slope
        phi = rng.uniform(0.0, 2.0 * np.pi)
        # phase = sum_d k_d * x_d, built by broadcasting 1-D axes.
        phase.fill(phi)
        for d in range(ndims):
            axis_shape = [1] * ndims
            axis_shape[d] = shape[d]
            phase += k[d] * axes[d].reshape(axis_shape)
        field += amp * np.sin(phase)
    return field


def _normalize(field: np.ndarray, lo: float, hi: float) -> np.ndarray:
    fmin, fmax = float(field.min()), float(field.max())
    if fmax == fmin:
        return np.full_like(field, (lo + hi) / 2.0)
    return lo + (field - fmin) * ((hi - lo) / (fmax - fmin))


def gts_like(
    shape: tuple[int, int],
    seed: int = 0,
    *,
    n_modes: int = 48,
    noise: float = 1e-4,
) -> np.ndarray:
    """2-D GTS-like electrostatic potential field.

    Drift-wave-like anisotropic modes (finer structure along axis 1,
    mimicking the toroidal direction) over values in [0.5, 4.5] —
    positive and bounded away from zero so relative-error PLoD metrics
    are well defined.
    """
    if len(shape) != 2:
        raise ValueError(f"gts_like expects a 2-D shape, got {shape}")
    rng = np.random.default_rng(seed)
    coarse = _fourier_field(shape, rng, n_modes, max_wavenumber=9.0, spectrum_slope=-1.2)
    fine = _fourier_field(shape, rng, n_modes // 2, max_wavenumber=40.0, spectrum_slope=-1.8)
    field = coarse + 0.35 * fine
    field = _normalize(field, 0.5, 4.5)
    field += rng.normal(0.0, noise, size=shape)
    return field


def s3d_like(
    shape: tuple[int, int, int],
    seed: int = 0,
    *,
    n_modes: int = 40,
    noise: float = 5e-2,
) -> np.ndarray:
    """3-D S3D-like flame temperature field.

    A tanh flame sheet (burnt ~2200 K vs unburnt ~800 K) wrinkled by
    turbulent modes, with small-scale fluctuations superposed.
    """
    if len(shape) != 3:
        raise ValueError(f"s3d_like expects a 3-D shape, got {shape}")
    rng = np.random.default_rng(seed)
    wrinkle = _fourier_field(shape, rng, n_modes, max_wavenumber=6.0, spectrum_slope=-1.0)
    x = np.linspace(-1.0, 1.0, shape[0]).reshape(-1, 1, 1)
    front = np.tanh((x + 0.12 * _normalize(wrinkle, -1.0, 1.0)) * 6.0)
    temperature = 1500.0 + 700.0 * front  # 800 K .. 2200 K
    turb = _fourier_field(shape, rng, n_modes // 2, max_wavenumber=25.0, spectrum_slope=-1.6)
    temperature += 60.0 * _normalize(turb, -1.0, 1.0)
    temperature += rng.normal(0.0, noise, size=shape)
    return temperature


def s3d_velocity_triplet(
    shape: tuple[int, int, int], seed: int = 0, *, n_modes: int = 36
) -> dict[str, np.ndarray]:
    """Correlated velocity components ``vu``, ``vv``, ``vw`` (Table VI).

    Built from a shared solenoidal-like base plus independent
    fluctuations, giving the correlated-but-distinct triplet the
    K-means accuracy experiment clusters on.

    Real turbulent velocity magnitudes are strongly skewed — most of
    the field sits at modest speeds with a long tail of fast flame-jet
    regions spanning several floating-point binades.  That skew is
    what makes byte-truncated precision useful (the absolute error of
    a small value is tiny relative to the field's full range, so few
    points migrate across equal-width histogram bins); a narrow
    uniform range would not reproduce Table VI.  The generators below
    therefore map the smooth mode superposition through an exponential
    onto ``[v_floor, v_peak]``.
    """
    rng = np.random.default_rng(seed)
    base = _fourier_field(shape, rng, n_modes, max_wavenumber=8.0, spectrum_slope=-1.1)
    out: dict[str, np.ndarray] = {}
    ranges = {"vu": (0.2, 180.0), "vv": (0.05, 120.0), "vw": (0.05, 140.0)}
    for name, (v_floor, v_peak) in ranges.items():
        own = _fourier_field(shape, rng, n_modes // 2, max_wavenumber=20.0, spectrum_slope=-1.5)
        field = _normalize(0.6 * base + 0.4 * own, 0.0, 1.0)
        velocity = v_floor * (v_peak / v_floor) ** field  # log-uniform-ish
        velocity += rng.normal(0.0, 1e-4 * v_peak, size=shape)
        out[name] = np.abs(velocity)
    return out
