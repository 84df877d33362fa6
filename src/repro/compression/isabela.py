"""ISABELA: lossy B-spline compression of sorted windows.

ISABELA (Lakshminarasimhan et al., Euro-Par 2011) exploits the fact
that *sorting* a window of hard-to-compress turbulence data turns it
into a smooth monotone curve that a low-order B-spline fits extremely
well.  The algorithm, implemented faithfully here:

1. Partition the value stream into fixed-size windows (default 1024).
2. Sort each window; record each element's rank so the original order
   can be restored (the rank index is bit-packed at
   ``ceil(log2 window)`` bits per element — the dominant storage cost,
   ~1.25 bytes/point at the default window).
3. Least-squares fit a cubic B-spline with a fixed coefficient budget
   to the sorted curve (coefficients quantized to float32 *before*
   residuals are computed, so quantization cannot break the bound).
4. Quantize the per-point residuals at ``error_rate * max|window|``
   and store the zig-zag varint + deflate of the quantized stream.

The reconstruction error is bounded by ``0.5 * error_rate *
max|window|`` per point — the user-specified error-rate knob of the
paper.  Windows too short for a stable fit are stored raw (lossless).

Decompression evaluates the spline and applies the inverse
permutation; this extra numerical work is why MLOC-ISA shows the
highest decompression component in Fig. 6 while winning on I/O.
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np

from repro.compression.base import FloatCodec, decode_guard, inflate, register_codec
from repro.util.bitpack import bits_required, pack_uints, unpack_uints
from repro.util.varint import varint_decode_array, varint_encode_array

__all__ = ["IsabelaCodec"]

_FLAG_SPLINE = 0
_FLAG_RAW = 1
_SPLINE_DEGREE = 3


def _zigzag_encode(q: np.ndarray) -> np.ndarray:
    q = q.astype(np.int64)
    return ((q << 1) ^ (q >> 63)).view(np.uint64)


def _zigzag_decode(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    return ((u >> np.uint64(1)).view(np.int64)) ^ -((u & np.uint64(1)).view(np.int64))


def _interpolate():
    """``scipy.interpolate``, imported on the first fit or evaluation.

    ISABELA is the only codec that needs scipy, so a process that never
    fits or evaluates a spline never loads it (``scripts/check_layers.py``
    rule 13).
    """
    import scipy.interpolate

    return scipy.interpolate


def _knot_vector(n_coeffs: int) -> np.ndarray:
    """Deterministic clamped uniform knot vector on [0, 1]."""
    n_interior = n_coeffs - (_SPLINE_DEGREE + 1)
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate(
        (
            np.zeros(_SPLINE_DEGREE + 1),
            interior,
            np.ones(_SPLINE_DEGREE + 1),
        )
    )


@register_codec("isabela")
class IsabelaCodec(FloatCodec):
    """Sorted-window B-spline lossy compressor with bounded error."""

    lossless = False
    decode_throughput = 75e6  # spline evaluation + inverse permutation

    def __init__(
        self,
        window: int = 1024,
        n_coeffs: int = 32,
        error_rate: float = 1e-3,
        level: int = 6,
    ) -> None:
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        if n_coeffs < _SPLINE_DEGREE + 2:
            raise ValueError(
                f"n_coeffs must be >= {_SPLINE_DEGREE + 2}, got {n_coeffs}"
            )
        if window < 4 * n_coeffs:
            raise ValueError(
                f"window ({window}) must be >= 4 * n_coeffs ({4 * n_coeffs}) "
                "for a stable least-squares fit"
            )
        if error_rate <= 0:
            raise ValueError(f"error_rate must be positive, got {error_rate}")
        self.window = window
        self.n_coeffs = n_coeffs
        self.error_rate = error_rate
        self.level = level
        self._knots = _knot_vector(n_coeffs)
        #: Cached B-spline design matrices per window length: the basis
        #: is identical for every window of the same length, so decode
        #: evaluates *all* windows with one (n_windows, n_coeffs) @
        #: (n_coeffs, w) matmul instead of per-window spline calls —
        #: the same trick the reference ISABELA implementation uses.
        #: The cache is the codec's only mutable state; a lock guards
        #: population so one instance can serve concurrent decode
        #: calls (the read executor's ``threads`` backend shares one).
        self._design: dict[int, np.ndarray] = {}
        self._design_lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Pickle only the configuration, never the derived state.

        The design cache and its lock are rebuild-on-demand worker
        state: the lock is unpicklable (it would break the spawn-based
        ``processes`` backend outright) and shipping cached basis
        matrices would just bloat the spec for something each process
        recomputes once per window length.
        """
        state = self.__dict__.copy()
        state["_design"] = {}
        del state["_design_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._design = {}
        self._design_lock = threading.Lock()

    def _design_matrix(self, w: int) -> np.ndarray:
        """Basis matrix B with ``B[i, j] = B_j(x_i)`` for length ``w``."""
        splev = _interpolate().splev
        with self._design_lock:
            if w not in self._design:
                x = np.linspace(0.0, 1.0, w)
                basis = np.empty((w, self.n_coeffs), dtype=np.float64)
                unit = np.zeros(self.n_coeffs, dtype=np.float64)
                for j in range(self.n_coeffs):
                    unit[j] = 1.0
                    basis[:, j] = splev(x, (self._knots, unit, _SPLINE_DEGREE))
                    unit[j] = 0.0
                self._design[w] = basis
            return self._design[w]

    # ------------------------------------------------------------------
    def _window_sizes(self, count: int) -> list[int]:
        sizes = [self.window] * (count // self.window)
        tail = count % self.window
        if tail:
            sizes.append(tail)
        return sizes

    def _fit_window(
        self, splrep, sorted_v: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """Fit one sorted window; returns (coeffs32, scale, quantized)."""
        w = sorted_v.size
        x = np.linspace(0.0, 1.0, w)
        tck = splrep(
            x,
            sorted_v,
            k=_SPLINE_DEGREE,
            t=self._knots[_SPLINE_DEGREE + 1 : -(_SPLINE_DEGREE + 1)],
            task=-1,
        )
        coeffs = np.asarray(tck[1][: self.n_coeffs], dtype=np.float32)
        approx = self._design_matrix(w) @ coeffs.astype(np.float64)
        scale = float(np.abs(sorted_v).max())
        step = self.error_rate * scale if scale > 0 else 1.0
        q = np.rint((sorted_v - approx) / step).astype(np.int64)
        return coeffs, scale, q

    def encode(self, values: np.ndarray) -> bytes:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        count = values.size
        sizes = self._window_sizes(count)

        flags = bytearray()
        scales: list[float] = []
        coeff_parts: list[np.ndarray] = []
        rank_parts: list[bytes] = []
        q_parts: list[np.ndarray] = []
        raw_tail = bytearray()
        # Outside the per-window ``try`` below: a missing scipy raises
        # here instead of storing every window raw.
        splrep = _interpolate().splrep

        start = 0
        for w in sizes:
            chunk = values[start : start + w]
            start += w
            if w < 4 * self.n_coeffs:
                flags.append(_FLAG_RAW)
                raw_tail.extend(chunk.tobytes())
                continue
            order = np.argsort(chunk, kind="stable")
            ranks = np.empty(w, dtype=np.int64)
            ranks[order] = np.arange(w)
            sorted_v = chunk[order]
            try:
                coeffs, scale, q = self._fit_window(splrep, sorted_v)
            except Exception:
                # Degenerate window (e.g. pathological values): keep raw.
                flags.append(_FLAG_RAW)
                raw_tail.extend(chunk.tobytes())
                continue
            flags.append(_FLAG_SPLINE)
            scales.append(scale)
            coeff_parts.append(coeffs)
            rank_parts.append(pack_uints(ranks, bits_required(w - 1)))
            q_parts.append(q)

        flags_z = zlib.compress(bytes(flags), self.level)
        scales_b = np.asarray(scales, dtype=np.float64).tobytes()
        coeffs_b = (
            np.concatenate(coeff_parts).tobytes() if coeff_parts else b""
        )
        ranks_b = b"".join(rank_parts)
        if q_parts:
            q_all = _zigzag_encode(np.concatenate(q_parts))
            q_z = zlib.compress(varint_encode_array(q_all), self.level)
        else:
            q_z = b""
        sections = [flags_z, scales_b, coeffs_b, ranks_b, q_z, bytes(raw_tail)]
        header = struct.pack("<6I", *(len(s) for s in sections))
        return header + b"".join(sections)

    @decode_guard
    def decode(self, payload: bytes, count: int) -> np.ndarray:
        lengths = struct.unpack("<6I", payload[:24])
        if 24 + sum(lengths) != len(payload):
            raise ValueError(f"sections cover {24 + sum(lengths)} of {len(payload)} bytes")
        sizes = self._window_sizes(count)
        offsets = np.concatenate(([24], 24 + np.cumsum(lengths)))
        flags_z, scales_b, coeffs_b, ranks_b, q_z, raw_tail = (
            payload[offsets[i] : offsets[i + 1]] for i in range(6)
        )
        flags = inflate(flags_z, len(sizes))
        if len(flags) != len(sizes):
            raise ValueError(f"expected {len(sizes)} window flags, got {len(flags)}")
        scales = np.frombuffer(scales_b, dtype=np.float64)
        coeffs = np.frombuffer(coeffs_b, dtype=np.float32).reshape(-1, self.n_coeffs)
        spline_sizes = [w for w, f in zip(sizes, flags) if f == _FLAG_SPLINE]
        n_q = sum(spline_sizes)
        if n_q or q_z:
            q_all = _zigzag_decode(varint_decode_array(inflate(q_z, 10 * n_q), n_q))
        else:
            q_all = np.empty(0, dtype=np.int64)

        out = np.empty(count, dtype=np.float64)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

        # Raw windows: straight copies out of the tail stream.
        raw_pos = 0
        for start, w, flag in zip(starts, sizes, flags):
            if flag == _FLAG_RAW:
                chunk = np.frombuffer(raw_tail[raw_pos : raw_pos + 8 * w], dtype=np.float64)
                raw_pos += 8 * w
                out[start : start + w] = chunk

        # Spline windows: all full-length windows share one basis, so
        # they are reconstructed with a single matmul + batched unpack;
        # at most one (shorter tail) window remains and is done singly.
        spline_windows = [
            (start, w) for start, w, flag in zip(starts, sizes, flags) if flag == _FLAG_SPLINE
        ]
        if not spline_windows:
            return out
        full = [(s, w) for s, w in spline_windows if w == self.window]
        n_full = len(full)
        if n_full and full != spline_windows[:n_full]:
            raise ValueError("spline windows out of order in payload")

        if n_full:
            w = self.window
            bits = bits_required(w - 1)
            nb = (w * bits + 7) // 8
            byte_matrix = np.frombuffer(ranks_b[: n_full * nb], dtype=np.uint8).reshape(
                n_full, nb
            )
            bit_matrix = np.unpackbits(byte_matrix, axis=1)[:, : w * bits]
            weights = np.uint32(1) << np.arange(bits - 1, -1, -1, dtype=np.uint32)
            ranks = (
                bit_matrix.reshape(n_full, w, bits).astype(np.uint32) * weights
            ).sum(axis=2)
            q = q_all[: n_full * w].reshape(n_full, w).astype(np.float64)
            steps = self.error_rate * scales[:n_full]
            steps = np.where(scales[:n_full] > 0, steps, 1.0)
            approx = coeffs[:n_full].astype(np.float64) @ self._design_matrix(w).T
            sorted_v = approx + q * steps[:, None]
            orig = np.take_along_axis(sorted_v, ranks, axis=1)
            positions = (
                np.array([s for s, _ in full], dtype=np.int64)[:, None]
                + np.arange(w, dtype=np.int64)[None, :]
            )
            out[positions.reshape(-1)] = orig.reshape(-1)

        # Tail spline window (shorter than the nominal window length).
        r_pos = n_full * ((self.window * bits_required(self.window - 1) + 7) // 8)
        q_pos = n_full * self.window
        for s_i, (start, w) in enumerate(spline_windows[n_full:], start=n_full):
            bits = bits_required(w - 1)
            nbytes = (w * bits + 7) // 8
            ranks1 = unpack_uints(ranks_b[r_pos : r_pos + nbytes], bits, w)
            r_pos += nbytes
            q1 = q_all[q_pos : q_pos + w].astype(np.float64)
            q_pos += w
            scale = float(scales[s_i])
            step = self.error_rate * scale if scale > 0 else 1.0
            approx = coeffs[s_i].astype(np.float64) @ self._design_matrix(w).T
            sorted_v = approx + q1 * step
            out[start : start + w] = sorted_v[ranks1]
        return out
