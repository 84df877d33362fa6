"""Seeded inputs: raw arrays and operation descriptors (NumPy only).

Everything a workload feeds the program is generated here from
``--seed``; the program never sees the seed, only the arrays and the
``Query`` objects :mod:`benchmarks.e2e.adapter` builds from these
descriptors.  The same seed always gives the same inputs.

Sizes live in :data:`SCALES`: ``ref`` is what ``BENCHMARK.json`` runs,
``tiny`` is the smoke-test / ``--check`` size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Region = tuple[tuple[int, int], ...]

N_TENANTS = 8

#: Workload sizing.  ``ref`` is sized so that one timed pass takes
#: about 3 s on the 2-core reference box (see README "Sizing").
SCALES = {
    "ref": {
        "ingest_append": {"shape": (96, 96), "chunk": (32, 32), "n_ops": 100},
        "sc_values_cold": {"shape": (64, 64, 64), "chunk": (16, 16, 16), "n_ops": 120},
        "vc_regions": {"shape": (512, 512), "chunk": (32, 32), "n_ops": 200},
        "serve_overlap": {"shape": (512, 512), "chunk": (32, 32), "n_ops": 240},
    },
    "tiny": {
        "ingest_append": {"shape": (64, 64), "chunk": (32, 32), "n_ops": 8},
        "sc_values_cold": {"shape": (32, 32, 32), "chunk": (16, 16, 16), "n_ops": 8},
        "vc_regions": {"shape": (128, 128), "chunk": (32, 32), "n_ops": 10},
        "serve_overlap": {"shape": (128, 128), "chunk": (32, 32), "n_ops": 16},
    },
}


@dataclass(frozen=True)
class AppendOp:
    """Append one timestep of ``variable`` to the dataset."""

    label: str
    variable: str
    timestep: int


@dataclass(frozen=True)
class QueryOp:
    """One single-variable access (the fields of ``repro.Query``)."""

    label: str
    variable: str
    region: Region | None = None
    value_range: tuple[float, float] | None = None
    output: str = "values"
    plod_level: int = 7
    tol: float | None = None


@dataclass(frozen=True)
class CompoundOp:
    """A conjunction of per-variable value ranges, fetching one variable."""

    label: str
    constraints: tuple[tuple[str, float, float], ...]
    fetch: str


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------
#: The wave vectors of every field come from this constant, not from
#: ``--seed``: a seed changes the phases only, so every seed draws from
#: the same random-field ensemble and workloads cost about the same.
_SPECTRUM = 2012


class _Waves:
    """A sum of plane waves with a fixed power-law spectrum.

    ``field(phase)`` evaluates it for one set of phases as the imaginary
    part of a product of per-axis complex exponentials, so a field
    costs one small matrix product.  Amplitudes are capped below
    ``|k| = 2``: no single domain-sized mode dominates, so the domain
    holds many independent patches and realizations look alike.
    """

    def __init__(self, shape, n_modes: int, kmax: float, slope: float) -> None:
        self.shape, self.n_modes = shape, n_modes
        k = np.random.default_rng([_SPECTRUM, n_modes, len(shape)]).uniform(
            -kmax, kmax, size=(n_modes, len(shape))
        )
        self.amplitude = np.maximum(np.linalg.norm(k, axis=1), 2.0) ** slope
        factors = [
            np.exp(1j * np.outer(k[:, d], np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)))
            for d, n in enumerate(shape)
        ]
        self.lead = factors[0]
        self.rest = factors[1]
        for factor in factors[2:]:
            self.rest = (self.rest[:, :, None] * factor[:, None, :]).reshape(n_modes, -1)

    def field(self, phase: np.ndarray) -> np.ndarray:
        lead = (self.amplitude * np.exp(1j * phase))[:, None] * self.lead
        return (lead.T @ self.rest).imag.reshape(self.shape)


def _fourier(shape, rng, n_modes: int, kmax: float, slope: float) -> np.ndarray:
    """One realization: fixed spectrum, phases from ``rng``."""
    return _Waves(shape, n_modes, kmax, slope).field(
        rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    )


def _rescale(field: np.ndarray, lo: float, hi: float) -> np.ndarray:
    fmin, fmax = float(field.min()), float(field.max())
    return lo + (field - fmin) * ((hi - lo) / (fmax - fmin))


def _gts_waves(shape) -> list[tuple[_Waves, float]]:
    """The potential-like field: coarse drift waves plus weaker fine structure."""
    return [(_Waves(shape, 96, 9.0, -1.2), 1.0), (_Waves(shape, 48, 40.0, -1.8), 0.35)]


def _gts_finish(field: np.ndarray, rng) -> np.ndarray:
    """Values in [0.5, 4.5] with incompressible low bytes."""
    return _rescale(field, 0.5, 4.5) + rng.normal(0.0, 1e-4, size=field.shape)


def gts_field(shape: tuple[int, int], rng) -> np.ndarray:
    """One 2-D potential-like field."""
    field = sum(
        weight * waves.field(rng.uniform(0.0, 2.0 * np.pi, size=waves.n_modes))
        for waves, weight in _gts_waves(shape)
    )
    return _gts_finish(field, rng)


def s3d_field(shape: tuple[int, int, int], rng) -> np.ndarray:
    """3-D flame-like temperature field: a wrinkled tanh front, 800-2200 K."""
    wrinkle = _rescale(_fourier(shape, rng, 64, 6.0, -1.0), -1.0, 1.0)
    x = np.linspace(-1.0, 1.0, shape[0]).reshape(-1, 1, 1)
    field = 1500.0 + 700.0 * np.tanh((x + 0.12 * wrinkle) * 6.0)
    field += 60.0 * _rescale(_fourier(shape, rng, 32, 25.0, -1.6), -1.0, 1.0)
    return field + rng.normal(0.0, 5e-2, size=shape)


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
def stratified(rng, n: int) -> np.ndarray:
    """``n`` numbers in [0, 1): one from each of ``n`` equal strata, shuffled.

    Constraint positions are drawn this way, not independently, so that
    every seed spreads its boxes and value ranges evenly over the domain
    and run-to-run differences come from the program, not from the draw.
    """
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def boxes(shape, selectivity: float, n: int, rng) -> list[Region]:
    """``n`` axis-aligned boxes, each ``selectivity`` of the volume."""
    frac = selectivity ** (1.0 / len(shape))
    sides = [min(m, max(1, int(round(m * frac)))) for m in shape]
    lows = [(stratified(rng, n) * (m - s + 1)).astype(int) for m, s in zip(shape, sides)]
    return [
        tuple((int(lo[i]), int(lo[i]) + s) for lo, s in zip(lows, sides))
        for i in range(n)
    ]


def value_intervals(sorted_values: np.ndarray, selectivity: float, n: int, rng) -> list:
    """``n`` closed value intervals, each holding ``selectivity`` of the points."""
    size = sorted_values.size
    out = []
    for u in stratified(rng, n) * (1.0 - selectivity):
        lo = sorted_values[int(u * size)]
        hi = sorted_values[min(size - 1, int((u + selectivity) * size))]
        out.append((float(lo), float(hi)))
    return out


def _pct(selectivity: float) -> str:
    return f"{selectivity * 100:g}%"


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
def ingest_inputs(seed: int, size: dict) -> tuple[dict, list[AppendOp]]:
    """Timesteps of one variable: every wave's phase advances at its own
    seeded rate, so each timestep is a new realization of one field."""
    rng = np.random.default_rng([seed, 1])
    shape, n = size["shape"], size["n_ops"]
    fields = [np.zeros(shape) for _ in range(n)]
    for waves, weight in _gts_waves(shape):
        phase = rng.uniform(0.0, 2.0 * np.pi, size=waves.n_modes)
        rate = rng.normal(0.0, 0.3, size=waves.n_modes)
        for t, field in enumerate(fields):
            field += weight * waves.field(phase + rate * t)
    arrays = {t: _gts_finish(field, rng) for t, field in enumerate(fields)}
    ops = [AppendOp("append", "phi", t) for t in range(n)]
    return arrays, ops


SELECTIVITIES = (0.001, 0.01, 0.1)
#: Precision variants of ``sc_values_cold``: half full precision, a
#: quarter PLoD level 2, a quarter ``tol=1e-6``.
SC_PRECISIONS = ("full", "plod2", "full", "tol")


def sc_inputs(seed: int, size: dict) -> tuple[dict, list[QueryOp]]:
    rng = np.random.default_rng([seed, 2])
    data = s3d_field(size["shape"], rng)
    ops = []
    for sel in SELECTIVITIES:
        count = -(-size["n_ops"] // len(SELECTIVITIES))
        for i, region in enumerate(boxes(size["shape"], sel, count, rng)):
            precision = SC_PRECISIONS[i % 4]
            ops.append(
                QueryOp(
                    label=f"sc/{_pct(sel)}/{precision}",
                    variable="T",
                    region=region,
                    plod_level=2 if precision == "plod2" else 7,
                    tol=1e-6 if precision == "tol" else None,
                )
            )
    rng.shuffle(ops)
    return {"T": data}, ops[: size["n_ops"]]


def vc_inputs(seed: int, size: dict) -> tuple[dict, list]:
    """Per five ops: two region-only, one with a 10% box, one returning
    values, one two-variable compound AND (5% and 10%, fetch one)."""
    rng = np.random.default_rng([seed, 3])
    shape = size["shape"]
    phi = gts_field(shape, rng)
    # The second variable is the first one shifted and blended with a
    # weak independent field: correlated, but not a copy.
    psi = 0.8 * np.roll(phi, (37, 91), axis=(0, 1)) + 0.2 * gts_field(shape, rng)
    sorted_phi, sorted_psi = np.sort(phi, axis=None), np.sort(psi, axis=None)
    fifth = -(-size["n_ops"] // 5)

    def ranges(count):  # value selectivity cycles through 0.1% / 1% / 10%
        per_sel = -(-count // len(SELECTIVITIES))
        return [
            (sel, interval)
            for sel in SELECTIVITIES
            for interval in value_intervals(sorted_phi, sel, per_sel, rng)
        ][:count]

    ops: list = [
        QueryOp(f"vc/positions/{_pct(sel)}", "phi", output="positions", value_range=r)
        for sel, r in ranges(2 * fifth)
    ]
    ops += [
        QueryOp(f"vc/box-positions/{_pct(sel)}", "phi", output="positions",
                value_range=r, region=box)
        for (sel, r), box in zip(ranges(fifth), boxes(shape, 0.1, fifth, rng))
    ]
    ops += [QueryOp(f"vc/values/{_pct(sel)}", "phi", value_range=r) for sel, r in ranges(fifth)]
    ops += [
        CompoundOp("vc/compound", (("phi", *r1), ("psi", *r2)), "psi")
        for r1, r2 in zip(
            value_intervals(sorted_phi, 0.05, fifth, rng),
            value_intervals(sorted_psi, 0.10, fifth, rng),
        )
    ]
    rng.shuffle(ops)
    return {"phi": phi, "psi": psi}, ops[: size["n_ops"]]


def serve_inputs(seed: int, size: dict) -> tuple[dict, list[QueryOp]]:
    """One drifting 2%-box walk dealt round-robin to the tenants.

    The box drifts along a 3:2 Lissajous figure spanning the domain
    (about 0.3 box sides per step at its fastest) with seeded phases and
    jitter, so every seed sweeps the same share of the store.  Step
    ``s`` belongs to tenant ``s % N_TENANTS``; every fifth request of a
    tenant re-issues its own query from two requests back, which is
    what the plan cache can hit.  The very first request is a
    whole-domain overview: it loads every block, which makes the cold
    start one well-defined operation (and its modeled cost the same for
    every seed) instead of a handful of partial loads.
    """
    rng = np.random.default_rng([seed, 4])
    shape, n = size["shape"], size["n_ops"]
    data = gts_field(shape, rng)
    sides = [max(1, int(round(m * 0.02 ** 0.5))) for m in shape]
    tau = np.arange(n) / n
    walk_axes = []
    for m, s, turns in zip(shape, sides, (3, 2)):
        half = (m - s) / 2.0
        centre = half + 0.9 * half * np.sin(2.0 * np.pi * (turns * tau + rng.uniform()))
        jittered = centre + rng.normal(0.0, 0.05 * s, size=n)
        walk_axes.append(np.clip(jittered, 0, m - s).astype(int))
    walk = [
        tuple((int(lo), int(lo) + s) for lo, s in zip(lows, sides))
        for lows in zip(*walk_axes)
    ]
    # The session opens with one whole-domain overview, then drills down.
    ops: list[QueryOp] = [QueryOp("serve/overview", "phi")]
    for s, region in enumerate(walk[1:], start=1):
        tenant, j = s % N_TENANTS, s // N_TENANTS
        label = "serve/walk"
        if j % 5 == 4:
            region = walk[(j - 2) * N_TENANTS + tenant]
            label = "serve/repeat"
        ops.append(QueryOp(label, "phi", region=region))
    return {"phi": data}, ops
