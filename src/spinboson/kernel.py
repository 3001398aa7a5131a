"""Interaction kernel h(s): evaluation, norms, antiderivatives, sampling.

The kernel is the effective pair interaction between spin values at two
times, obtained by integrating out a massless radial Bose field with
squared form factor w(k) = |f(k)|^2:

    h(s) = 4*pi * int_0^inf k * w(k) * exp(-|s| k) dk

so h is even, nonnegative, completely monotone in |s|, and maximal at 0.
Three ways to specify it:

  * indicator:    w(k) = 1{k <= cutoff},  closed form
                  h(s) = 4*pi*(1 - exp(-c|s|)(1 + c|s|)) / s^2,  h(0) = 2*pi*c^2
  * radial_table: w sampled at increasing k, interpolated linearly, 0 outside
  * h_table:      h itself sampled at increasing s >= 0, 0 beyond the table

Besides pointwise evaluation, a built kernel carries the L-inf and L1 norms,
the antiderivatives Psi(s) = int_0^s h (odd) and Phi with Phi'' = h (even,
Phi(0) = Phi'(0) = 0), the rectangle mass

    int_a^b dt int_c^d ds h(t - s)
        = Phi(b - c) - Phi(a - c) - Phi(b - d) + Phi(a - d),

and an inverse-CDF sampler for displacements with density h(|s|)/||h||_1.
Phi and Psi are precomputed once on a geometric grid reaching far into the
tail (rectangle masses sit in the Monte Carlo hot loop); kernels are
immutable after build and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import ConfigError, DivergenceError, SamplingError

__all__ = ["KernelSpec", "Kernel", "build_kernel", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-9

# Geometric evaluation grid: dense up to _GRID_KNEE, coarser out to the point
# where the remaining tail mass h(s)*s drops below _TAIL_CUT of the total.
_GRID_START = 1e-6
_GRID_KNEE = 16.0
_FINE_RATIO = 1.01
_COARSE_RATIO = 1.015
_TAIL_CUT = 1e-13
_GRID_HARD_END = 1e13


def _indicator_h(s, cutoff):
    """Closed form of the defining integral for the sharp-cutoff form factor."""
    x = cutoff * np.abs(np.asarray(s, dtype=float))
    small = x < 1e-2
    xs = np.where(small, x, 1.0)
    series = 0.5 - xs / 3 + xs**2 / 8 - xs**3 / 30 + xs**4 / 144 - xs**5 / 840
    xl = np.where(small, 1.0, x)
    closed = (1.0 - np.exp(-xl) * (1.0 + xl)) / xl**2
    return 4.0 * np.pi * cutoff**2 * np.where(small, series, closed)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description; validated on construction of a Kernel."""

    mode: str
    cutoff: Optional[float] = None
    points: Optional[np.ndarray] = None

    @staticmethod
    def indicator(cutoff: float) -> "KernelSpec":
        return KernelSpec(mode="indicator", cutoff=float(cutoff))

    @staticmethod
    def radial_table(points) -> "KernelSpec":
        return KernelSpec(mode="radial_table", points=np.asarray(points, dtype=float))

    @staticmethod
    def h_table(points) -> "KernelSpec":
        return KernelSpec(mode="h_table", points=np.asarray(points, dtype=float))

    @staticmethod
    def from_dict(doc: dict) -> "KernelSpec":
        if not isinstance(doc, dict) or "mode" not in doc:
            raise ConfigError("kernel config must be an object with a 'mode' key")
        mode = doc["mode"]
        if mode == "indicator":
            if "cutoff" not in doc:
                raise ConfigError("indicator kernel needs a 'cutoff'")
            return KernelSpec.indicator(doc["cutoff"])
        if mode in ("radial_table", "h_table"):
            if "points" not in doc:
                raise ConfigError(f"{mode} kernel needs a 'points' array")
            return KernelSpec(mode=mode, points=np.asarray(doc["points"], dtype=float))
        raise ConfigError(f"unknown kernel mode {mode!r}")

    @staticmethod
    def from_json(path: str) -> "KernelSpec":
        with open(path, "r", encoding="utf-8") as f:
            return KernelSpec.from_dict(json.load(f))

    def validate(self) -> None:
        if self.mode == "indicator":
            c = self.cutoff
            if c is None or not np.isfinite(c) or c <= 0:
                raise ConfigError("indicator cutoff must be finite and > 0")
            return
        if self.mode not in ("radial_table", "h_table"):
            raise ConfigError(f"unknown kernel mode {self.mode!r}")
        pts = self.points
        if pts is None or pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ConfigError("table kernels need an (n>=2, 2) points array")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("table entries must be finite")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise ConfigError("table abscissae must be strictly increasing")
        if np.any(pts[:, 1] < 0):
            raise ConfigError("table values must be nonnegative")
        if self.mode == "radial_table" and pts[0, 0] < 0:
            raise ConfigError("radial table momenta must be >= 0")
        if self.mode == "h_table":
            if pts[0, 0] != 0.0:
                raise ConfigError("h table must start at s = 0")
            if np.any(np.diff(pts[:, 1]) > 0):
                raise ConfigError("h table values must be non-increasing (h is maximal at 0)")


def _geometric_grid(h_fn, table_end: Optional[float]) -> np.ndarray:
    pts = [0.0]
    s = _GRID_START
    while s < _GRID_KNEE:
        pts.append(s)
        s *= _FINE_RATIO
    # Coarse tail: stop once the crude remaining-mass estimate h(s)*s is
    # negligible against the mass accumulated so far (works for both the
    # power-law and exponential tails the three modes can produce).
    psi_acc = 0.0
    prev = pts[-1]
    h_prev = float(h_fn(prev))
    while s < _GRID_HARD_END:
        pts.append(s)
        h_s = float(h_fn(s))
        psi_acc += 0.5 * (h_prev + h_s) * (s - prev)
        prev, h_prev = s, h_s
        if table_end is not None and s >= table_end:
            break
        if psi_acc > 0 and h_s * s < _TAIL_CUT * psi_acc:
            break
        s *= _COARSE_RATIO
    return np.asarray(pts)


class Kernel:
    """Immutable built kernel; all evaluation methods are vectorized."""

    def __init__(self, spec: KernelSpec, tol: float = DEFAULT_TOL):
        spec.validate()
        self.spec = spec
        self.tol = float(tol)
        self._quad_eps = min(self.tol, 1e-9) / 10.0

        if spec.mode == "indicator":
            self._point_h = lambda s: float(_indicator_h(s, spec.cutoff))
            grid = _geometric_grid(self._point_h, None)
            h_nodes = _indicator_h(grid, spec.cutoff)
            self._h_pp = CubicSpline(grid, h_nodes)
        elif spec.mode == "radial_table":
            ks = spec.points[:, 0]
            ws = spec.points[:, 1]
            # exact at s = 0: int k*w(k) dk of a piecewise-linear w
            scale = float(np.trapezoid(ks * ws, ks))

            def point_h(s, _ks=ks, _ws=ws, _abs=max(scale, 1e-300) * 1e-14):
                val, _ = integrate.quad(
                    lambda k: k * np.interp(k, _ks, _ws) * np.exp(-s * k),
                    _ks[0], _ks[-1], points=list(_ks[1:-1]) if len(_ks) < 40 else None,
                    epsabs=_abs, epsrel=1e-11, limit=200,
                )
                return 4.0 * np.pi * val
            self._point_h = point_h
            grid = _geometric_grid(point_h, None)
            h_nodes = np.array([point_h(s) for s in grid])
            self._h_pp = CubicSpline(grid, h_nodes)
        else:  # h_table
            ss = spec.points[:, 0]
            hs = spec.points[:, 1]
            grid = ss
            # Monotone interpolant: stays nonnegative and cannot overshoot
            # the tabulated decay.
            self._h_pp = PchipInterpolator(ss, hs)
            self._point_h = lambda s: float(self.h(s))

        self._grid = grid
        self._grid_end = float(grid[-1])
        self._psi_pp = self._h_pp.antiderivative(1)
        self._phi_pp = self._h_pp.antiderivative(2)
        self._psi_nodes = self._psi_pp(grid)
        self._psi_end = float(self._psi_nodes[-1])
        self._phi_end = float(self._phi_pp(self._grid_end))

        self.norm_inf = float(self.h(0.0))
        self.norm_l1 = self._compute_l1()
        self._phi_dense_cache: dict[int, tuple[np.ndarray, float]] = {}

    # -- norms ------------------------------------------------------------

    def _compute_l1(self) -> float:
        if self.spec.mode == "h_table":
            return 2.0 * self._psi_end  # exact integral of the interpolant
        if self.spec.mode == "radial_table":
            # int_R h = 8*pi*int w(k) dk: the s-integral cancels one power of k,
            # and the trapezoid rule is exact for the piecewise-linear table.
            return float(8.0 * np.pi * np.trapezoid(self.spec.points[:, 1], self.spec.points[:, 0]))
        val, err = integrate.quad(
            self._point_h, 0.0, np.inf, epsabs=0.0, epsrel=self._quad_eps, limit=500
        )
        if not np.isfinite(val) or (val > 0 and err > 10 * self.tol * val + 1e-300):
            raise DivergenceError(
                f"L1 norm quadrature did not converge (value {val}, error {err})"
            )
        return 2.0 * val

    # -- evaluation -------------------------------------------------------

    def h(self, s):
        """Kernel value h(s); even in s, nonnegative."""
        x = np.abs(np.asarray(s, dtype=float))
        if self.spec.mode == "indicator":
            out = _indicator_h(x, self.spec.cutoff)
        else:
            inside = x <= self._grid_end
            out = np.where(inside, np.maximum(self._h_pp(np.minimum(x, self._grid_end)), 0.0), 0.0)
        return out if out.ndim else float(out)

    def h1(self, s: float) -> float:
        """Scalar fast path of h (plain-float arithmetic; quadrature hot loops)."""
        if self.spec.mode == "indicator":
            x = self.spec.cutoff * abs(s)
            if x < 1e-2:
                g = 0.5 - x / 3 + x**2 / 8 - x**3 / 30 + x**4 / 144 - x**5 / 840
            else:
                g = (1.0 - math.exp(-x) * (1.0 + x)) / (x * x)
            return 4.0 * math.pi * self.spec.cutoff**2 * g
        a = abs(s)
        if a > self._grid_end:
            return 0.0
        return max(float(self._h_pp(a)), 0.0)

    def psi(self, s):
        """First antiderivative int_0^s h; odd in s."""
        x = np.asarray(s, dtype=float)
        a = np.abs(x)
        inner = self._psi_pp(np.minimum(a, self._grid_end))
        out = np.sign(x) * np.where(a <= self._grid_end, inner, self._psi_end)
        return out if out.ndim else float(out)

    def phi(self, s):
        """Second antiderivative with Phi'' = h, Phi(0) = Phi'(0) = 0; even.

        Beyond the precomputed grid (where the residual tail mass of h is
        below 1e-13 of the total) Phi continues linearly.
        """
        a = np.abs(np.asarray(s, dtype=float))
        inner = self._phi_pp(np.minimum(a, self._grid_end))
        out = np.where(
            a <= self._grid_end, inner, self._phi_end + self._psi_end * (a - self._grid_end)
        )
        return out if out.ndim else float(out)

    def rectangle_mass(self, a, b, c, d) -> float:
        """Mass int_a^b dt int_c^d ds h(t-s) of one rectangle, via Phi."""
        if b < a or d < c:
            raise ValueError("rectangle bounds must satisfy a <= b and c <= d")
        return float(self.phi(b - c) - self.phi(a - c) - self.phi(b - d) + self.phi(a - d))

    def phi_dense(self, span: float) -> tuple[np.ndarray, float]:
        """Uniform Phi table covering [0, span] for fast linear interpolation.

        Cached per power-of-two span (at least 64), with 2^20 nodes; this is
        the hot-loop companion of phi().  As Phi'' = h, linear interpolation
        in the table is within norm_inf * dx^2 / 8 of phi(): 2.9e-9 absolute
        up to span 64 on the cutoff-1 indicator kernel, four times that per
        doubling of the span beyond.
        """
        need = max(64.0, 2.0 ** np.ceil(np.log2(max(span, 1.0))))
        key = int(need)
        if key not in self._phi_dense_cache:
            n = 1 << 20
            xs = np.linspace(0.0, need, n)
            self._phi_dense_cache[key] = (self.phi(xs), need / (n - 1))
        return self._phi_dense_cache[key]

    # -- sampling ---------------------------------------------------------

    def quantile(self, u):
        """Inverse CDF of |s| under the normalized density h(|s|)/||h||_1.

        Newton iteration on the precomputed Psi spline; the returned x
        satisfies |Psi(x)/Psi(inf) - u| <= 1e-12 (draws beyond the grid end,
        total mass below 1e-13, are clamped to it).
        """
        if self.norm_l1 <= 0.0:
            raise SamplingError("cannot sample displacements from a zero kernel")
        u = np.asarray(u, dtype=float)
        target = u * self._psi_end
        idx = np.clip(
            np.searchsorted(self._psi_nodes, target, side="right") - 1, 0, len(self._grid) - 2
        )
        lo = self._grid[idx]
        hi = self._grid[idx + 1]
        plo = self._psi_nodes[idx]
        phi_ = self._psi_nodes[idx + 1]
        gap = phi_ - plo
        frac = np.where(gap > 0, (target - plo) / np.where(gap > 0, gap, 1.0), 0.0)
        x = lo + frac * (hi - lo)
        for _ in range(7):
            f = self._psi_pp(x) - target
            d = np.maximum(self._h_pp(x), 0.0)
            step = np.where(d > 0, f / np.where(d > 0, d, 1.0), 0.0)
            x = np.clip(x - step, lo, hi)
        return x if x.ndim else float(x)

    def sample_displacement(self, rng: np.random.Generator, size=None):
        """Signed displacement with density h(|s|)/||h||_1 (magnitude, then sign)."""
        u = rng.random(size)
        mag = self.quantile(u)
        sign = rng.integers(0, 2, size=size) * 2 - 1
        return sign * mag


def build_kernel(spec: KernelSpec, tol: float = DEFAULT_TOL) -> Kernel:
    """Validate the spec and build the evaluable kernel."""
    return Kernel(spec, tol=tol)
