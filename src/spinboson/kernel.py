"""Interaction kernel h(s): evaluation, norms, antiderivatives, sampling.

The kernel is the effective pair interaction between spin values at two
times, obtained by integrating out a massless radial Bose field with
squared form factor w(k) = |f(k)|^2:

    h(s) = 4*pi * int_0^inf k * w(k) * exp(-|s| k) dk

so h is even, nonnegative, completely monotone in |s|, and maximal at 0.
Two modes specify it (an indicator, w(k) = 1{k <= cutoff}, is parsed into its
one-piece radial_table [[0, 1], [cutoff, 1]], so spec.mode reads radial_table):

  * radial_table: w sampled at increasing k, interpolated linearly, 0 outside;
                  on each piece w = alpha + beta*k, and h, Psi, Phi and the norms
                  are exact: exp/expm1 polynomials, Ein(x) = gamma + ln x + E1(x)
                  (A&S 5.1) for the alpha/k part of Phi, summed over the pieces
  * h_table:      h itself sampled at increasing s >= 0, 0 from the last s on,
                  interpolated by a monotone PCHIP with exact antiderivatives

Besides pointwise evaluation, a built kernel carries the L-inf and L1 norms,
the antiderivatives Psi(s) = int_0^s h (odd) and Phi with Phi'' = h (even,
Phi(0) = Phi'(0) = 0), and one exact sampler, `displacement`, for
displacements with density h(|s|)/||h||_1 on the whole line or within
windows, with each window's probability: by composition for the form-factor
modes (draw the momentum k ~ w(k)/int w, then a Laplace variate of rate k)
and by the truncated inverse CDF for h tables.
Kernels are immutable after build (their tables are cached on first use)
and safe to share across workers.

On the form-factor modes one evaluator, `_pieces`, sums the closed forms of
Psi, the mass beyond |s|, h or h' over the table pieces, and `phi` sums Ein
forms; `momentum_rule` hands out the Gauss-Legendre rule for 4 pi k w(k) dk
that order-2 quadrature uses, and `first_order` is the order-1 time
integral, on every mode.  `h` is within 6e-16 relative of scipy quad of the
defining k-integral on tables from k = 0 (at 0, 1e-300, both sides of each
series seam and 150 s up to 700/len); CHANGES.md has the other tables.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SamplingError

__all__ = ["KernelSpec", "Kernel", "build_kernel"]

_SMALL = 0.5  # below this argument the closed forms cancel; power series instead
_N = np.arange(16)  # series powers: the first term dropped is below 1e-18 at 0.5
_FACT = np.cumprod(np.maximum(_N, 1)).astype(float)
# Series of G_j(y) = int_0^1 t^j e^{-yt} dt = sum_n z^n / (n! (n+j+1)) in z = -y
# (j <= 2), A(x) = int_0^x phi(y)/y dy and B(x) = int_0^x phi, phi(y) = y - 1 + e^{-y}.
_G = np.stack([1.0 / (_FACT * (_N + j + 1)) for j in range(3)], axis=1)
_G3 = 1.0 / (_FACT * (_N + 4))  # and G_3, which only the slope row of h weighs
_AB = np.column_stack([(_N >= 2) * (-1.0) ** _N / (np.maximum(_N, 1) * _FACT),
                       (_N >= 3) * -((-1.0) ** _N) / _FACT])
_TINY = 1e-300  # floor for logs and divisions
_ALMOST_M1 = 2.0**-53 - 1.0  # floor for log1p arguments, log1p of it is -36.7
_BLOCK = 1 << 16  # (piece, element) entries per _pieces block, to 2x
_PHI_TOL = 1e-11  # _grid: the Hermite tables' error bound, per unit of norm_inf
_PHI_INTERVALS = 1 << 18  # _grid: at most this many intervals (8 MiB)
_PHI_GAUSS = 4  # phi_dense: Gauss-Legendre nodes per interval for the chain of Phi
_NEWTON_MAX = 8  # _invert: cap on the Newton steps after the Hermite start
_NEWTON_TOL = 2.0**-26  # _invert: stop once a step is below this share of the bracket
_K_GRADES = 12  # momentum_rule: a piece from k = 0 is graded down to k < 2^-_K_GRADES
_U_GRADES = 50  # first_order: panels [T 2^-j-1, T 2^-j], j < _U_GRADES, then [0, T 2^-_U_GRADES]


def _hermite(values, slopes, steps):
    """Cubic Hermite table (4, n + 1) on n + 1 equally spaced nodes: column i
    holds (c3, c2, c1, c0) of the cubic ((c3 u + c2) u + c1) u + c0, u in
    [0, 1], that meets `values` and the slopes per node spacing `slopes` at
    both ends of interval i, given its `steps` values[i + 1] - values[i];
    the last column (0, 0, 0, values[n]) holds the end node."""
    tab = np.zeros((4, len(values)))
    tab[0, :-1] = slopes[:-1] + slopes[1:] - 2.0 * steps
    tab[1, :-1] = 3.0 * steps - 2.0 * slopes[:-1] - slopes[1:]
    tab[2, :-1] = slopes[:-1]
    tab[3] = values
    return tab


def _truncated_laplace(u, a, b):
    """Laplace(0, 1) variates truncated to [a, b] (a <= b, 1-d), by the
    closed-form inverse CDF at the uniforms u in [0, 1), and the mass of
    [a, b].

    A window below 0 is mirrored above it.  Then [a, b] holds
    R = e^{-c} (-expm1(c - b)) / 2 on [c, b], c = max(a, 0), and
    L = -expm1(min(a, 0)) / 2 on [a, 0].  With v = u (L + R) - L, a draw
    with v < 0 lies below 0 at log1p(2v), and one with v >= 0 at
    c - log1p((v / R) expm1(c - b)), counted from c.  So a window on one
    side keeps its mass and draws to relative accuracy in the far tails
    and as its width goes to 0 (mass 0 and the draw c at width 0), and a
    window across 0 keeps them near 0; towards the far ends of a wide
    window across 0 the draw is exact to the rounding of u (L + R).  The
    log1p arguments are floored at 2^-53 - 1, so the draws stay finite at
    the extreme uniforms, within e^-36.7 of mass of the far end; they can
    leave [a, b] by rounding.
    """
    flip = b < 0.0
    lo, hi = np.where(flip, -b, a), np.where(flip, -a, b)
    c = np.maximum(lo, 0.0)
    em = np.expm1(c - hi)
    right = -0.5 * np.exp(-c) * em
    left = -0.5 * np.expm1(np.minimum(lo, 0.0))
    mass = left + right
    v = u * mass - left
    frac = np.divide(v, right, out=np.zeros_like(v), where=right > 0.0)
    y = np.where(v < 0.0, np.log1p(np.maximum(2.0 * v, _ALMOST_M1)),
                 c - np.log1p(np.maximum(frac * em, _ALMOST_M1)))
    return np.where(flip, -y, y), mass


def _elementwise(s, f, odd=False):
    """f(|s|) in the shape of s, times sign(s) if odd, a float for a scalar s;
    f maps 1-d float arrays elementwise, so Kernel.h, psi, phi and quantile
    at s[i] equal their value at the scalar s[i] bit for bit."""
    x = np.asarray(s, dtype=float)
    out = f(np.abs(x).ravel()).reshape(x.shape)
    if odd:
        out = np.sign(x) * out
    return out if out.ndim else float(out)


def _series_below_small(out, x, coefs):
    """Overwrite the stacked closed forms `out` at x < _SMALL by power series."""
    small = x < _SMALL
    out[:, small] = np.einsum("nk,kj->jn", x[small][:, None] ** _N, coefs)
    return out


@functools.cache
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre rule on [-1, 1], made on first use so that
    importing the package does not import numpy.polynomial."""
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(edges, n: int):
    """Composite n-point Gauss-Legendre nodes and weights on the panels
    between the increasing edges, panel by panel."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x, w = _gauss_legendre(n)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _holds_bool_or_str(value) -> bool:
    """True if a bool or a string stands where a number belongs (anywhere in
    nested lists): float() and numpy would read it as 1.0 or parse it."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool_or_str, value))
    return isinstance(value, (bool, np.bool_, str, bytes))


def _table(mode: str, points) -> np.ndarray:
    if _holds_bool_or_str(points):
        raise ConfigError(f"{mode} kernel points must be numbers, not booleans or strings")
    return np.asarray(points, dtype=float)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description; validated on construction of a Kernel."""

    mode: str
    points: np.ndarray

    @staticmethod
    def indicator(cutoff: float) -> "KernelSpec":
        if _holds_bool_or_str(cutoff):
            raise ConfigError("indicator kernel cutoff must be a number, not a bool or a string")
        c = float(cutoff)
        if not np.isfinite(c) or c <= 0:
            raise ConfigError("indicator cutoff must be finite and > 0")
        return KernelSpec.radial_table([[0.0, 1.0], [c, 1.0]])

    @staticmethod
    def radial_table(points) -> "KernelSpec":
        return KernelSpec(mode="radial_table", points=_table("radial_table", points))

    @staticmethod
    def h_table(points) -> "KernelSpec":
        return KernelSpec(mode="h_table", points=_table("h_table", points))

    @staticmethod
    def from_dict(doc: dict) -> "KernelSpec":
        if not isinstance(doc, dict) or "mode" not in doc:
            raise ConfigError("kernel config must be an object with a 'mode' key")
        mode = doc["mode"]
        try:
            if mode == "indicator":
                return KernelSpec.indicator(doc["cutoff"])
            if mode == "radial_table":
                return KernelSpec.radial_table(doc["points"])
            if mode == "h_table":
                return KernelSpec.h_table(doc["points"])
        except ConfigError:  # the constructors' own checks, already worded
            raise
        except KeyError as exc:
            raise ConfigError(f"{mode} kernel needs {exc}") from exc
        except (TypeError, ValueError) as exc:  # a null, an object or a ragged table
            raise ConfigError(f"{mode} kernel config: {exc}") from exc
        raise ConfigError(f"unknown kernel mode {mode!r}")

    @staticmethod
    def from_json(path: str) -> "KernelSpec":
        with open(path, "r", encoding="utf-8") as f:
            return KernelSpec.from_dict(json.load(f))

    def validate(self) -> None:
        if self.mode not in ("radial_table", "h_table"):
            raise ConfigError(f"unknown kernel mode {self.mode!r}")
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
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


class Kernel:
    """Immutable built kernel; all evaluation methods are vectorized."""

    def __init__(self, spec: KernelSpec):
        spec.validate()
        self.spec = spec
        if spec.mode == "h_table":
            # imported here, not at module load: it is large and only h_table uses it
            from scipy.interpolate import PchipInterpolator, PPoly

            ss, hs = spec.points[:, 0], spec.points[:, 1]
            # Monotone interpolant: stays nonnegative and cannot overshoot the tabulated
            # decay.  A zero piece at the end extrapolates h = 0 and Psi, Phi exactly.
            pchip = PchipInterpolator(ss, hs)
            self._pp = PPoly(np.column_stack([pchip.c, np.zeros(4)]), np.append(ss, 2.0 * ss[-1]))
            self._psi_pp = self._pp.antiderivative(1)
            self._phi_pp = self._pp.antiderivative(2)
            self._mass = float(self._psi_pp(ss[-1]))
            # the same cubics about the right end of each piece: integrated from the
            # far end, they give minus the mass beyond x to its own relative accuracy
            (c3, c2, c1, c0), w = self._pp.c, np.diff(self._pp.x)
            right = [c3, 3.0 * c3 * w + c2, (3.0 * c3 * w + 2.0 * c2) * w + c1,
                     ((c3 * w + c2) * w + c1) * w + c0]
            self._tail_pp = PPoly(np.array(right)[:, ::-1], self._pp.x[::-1]).antiderivative(1)
        else:
            self._pp = None
            k, w = spec.points[:, 0], spec.points[:, 1]
            self._k, self._a, self._len = k, k[:-1], np.diff(k)
            wa, dw, c = w[:-1], np.diff(w), 4.0 * np.pi * self._len
            # k = a + len*t, w = wa + dw*t on a piece: at y = s*len its rows
            # (Psi, Psi(inf) - Psi, h) are e^{-sa} (C + W0 G0 + W1 G1 + W2 G2)
            # plus (1 - e^{-sa}) C; _rows holds per row [-len, -a, C, W0, W1, W2]
            # per piece, the coefficients d_n = sum_j W_j / (n! (n+j+1)) of its
            # series in z = -|s| len, and which of C, W0 and W2 it uses
            t0, t1 = c * wa, c * dw
            c0, c1, c2 = c * self._a * wa, c * (self._a * dw + self._len * wa), c * self._len * dw
            piece_mass, z = c * (wa + 0.5 * dw), np.zeros_like(c)
            # row 3 is h' = -4 pi int k^2 w e^{-|s|k} dk, with k^2 w = (a + len t) k w
            # cubic in t, so it adds W3 G3; rows 0-2 have W3 = 0 and skip it
            self._rows = []
            for cst, *ws in ([piece_mass, -t0, -t1, z, z], [z, t0, t1, z, z], [z, c0, c1, c2, z],
                             [z, -self._a * c0, -(self._a * c1 + self._len * c0),
                              -(self._a * c2 + self._len * c1), -self._len * c2]):
                series = _G @ np.array(ws[:3])
                if ws[3].any():
                    series += _G3[:, None] * ws[3]
                if cst.any():  # Psi: C + W0 + W1/2 = 0, so its series starts at n = 1
                    series[0] = 0.0
                self._rows.append((np.array([-self._len, -self._a, cst, *ws]), series,
                                   bool(cst.any()), bool(ws[0].any()), bool(ws[2].any()),
                                   bool(ws[3].any())))
            beta = dw / self._len  # Phi = sum of alpha dA + beta dB / s over the pieces
            self._alpha, self._beta = 4.0 * np.pi * (wa - beta * self._a), 4.0 * np.pi * beta
            self._mass = float(piece_mass.sum())
            # composition sampler: the cumulative piece masses, and per piece
            # (mass below it, 4 pi len, wa, dw, a, len)
            cum = np.concatenate([[0.0], np.cumsum(piece_mass)])
            self._momentum = cum[1:], np.column_stack([cum[:-1], c, wa, dw, self._a, self._len])
        self.norm_inf = float(self.h(0.0))
        self.norm_l1 = 2.0 * self._mass
        self._phi_dense_cache: dict[int, tuple[np.ndarray, float]] = {}
        self._h_dense_cache: dict = {}

    def _parts(self, x):
        """Psi, Psi(inf) - Psi and h at x >= 0 (1-d), stacked; the middle row
        is computed directly and keeps its relative accuracy in the tail."""
        if self._pp is not None:
            return np.stack([self._psi_pp(x), -self._tail_pp(x), np.maximum(self._pp(x), 0.0)])
        return np.stack([self._pieces(x, row) for row in range(3)])

    def h(self, s):
        """Kernel value h(s); even in s, nonnegative.  The form-factor modes
        take row 2 of `_pieces`; h tables use the PCHIP."""
        return _elementwise(s, lambda a: np.maximum(self._pp(a), 0.0) if self._pp is not None
                            else self._pieces(a, 2))

    def _pieces(self, x, row):
        """Row `row` of (Psi, Psi(inf) - Psi, h) at x >= 0 (1-d) on the
        form-factor modes, the one evaluator of their closed forms.  Per piece
        e^{-xa} (C + W0 G0 + W1 G1 + W2 G2)(x len): the G rows by upward
        recursion from x len = _SMALL on, below it the piece's series in
        Estrin's scheme (4 levels, not Horner's 15 steps); then (1 - e^{-xa}) C.
        Pieces are rows and elements columns, in blocks of _BLOCK to
        2 _BLOCK (pieces, elements), so the temporaries stay bounded, and each
        element adds its pieces in order whatever the call size."""
        consts, series, use_c, use0, use2, use3 = self._rows[row]
        neg_len, neg_a, cst, w0, w1, w2, w3 = consts[:, :, None]
        blocks = max(1, x.size * len(self._a) // _BLOCK)  # of _BLOCK to 2 _BLOCK entries
        step, parts = max(1, -(-x.size // blocks)), []
        for start in range(0, max(x.size, 1), step):
            xr = x[None, start:start + step]
            z = neg_len * xr
            zl = np.minimum(z, -_SMALL)
            e, g0 = np.exp(zl), np.expm1(zl) / zl
            g1 = (e - g0) / zl
            val = w1 * g1
            if use0:  # skip the terms no piece of the row weighs
                val += w0 * g0
            if use2 or use3:
                g2 = (e - 2.0 * g1) / zl
                val += w2 * g2
                if use3:
                    val += w3 * ((e - 3.0 * g2) / zl)
            if use_c:
                val += cst
            small = z > -_SMALL
            zp = z[small]
            if zp.size:  # sum_n d_n z^n: Estrin halves the 16 terms 4 times
                # per small element, its piece's coefficients (z[small] is piece-major)
                d = series if len(val) == 1 else np.repeat(series, small.sum(axis=1), axis=1)
                while len(d) > 1:
                    d, zp = d[0::2] + d[1::2] * zp, zp * zp
                val[small] = d[0]
            if neg_a[-1, 0] < 0.0:  # a increases; a piece from k = 0 needs no shift
                za = neg_a * xr
                val *= np.exp(za)
                if use_c:
                    val -= np.expm1(za) * cst
            if len(val) > 1:  # rows in order; numpy would add a lone column pairwise
                val = np.add.reduce(val, axis=0) if val.shape[1] > 1 else np.cumsum(val)[-1:]
            parts.append(val.reshape(-1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def h1(self, s: float) -> float:
        """h at one point, as a float."""
        return float(self.h(s))

    def momentum_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes k and weights c of a rule for the momentum measure
        dmu(k) = 4 pi k w(k) dk, so that h(s) = int e^{-|s|k} dmu(k) is about
        sum c e^{-|s|k}: n-point Gauss-Legendre per table piece, on panels
        that halve toward k = 0, down to below 2^-_K_GRADES, for a piece
        starting there.  An h table has no momentum measure: ConfigError.
        """
        if self._pp is not None:
            raise ConfigError("an h_table kernel has no momentum measure: use --method mc")
        ks, cs = [], []
        for _, c, wa, dw, a, length in self._momentum[1]:
            grades = _K_GRADES + max(0, int(np.ceil(np.log2(length)))) if a == 0.0 else 0
            t, wt = _panel_rule(np.append(0.0, 2.0 ** -np.arange(grades, -1, -1)), n)
            ks.append(a + length * t)
            cs.append(c * wt * ks[-1] * (wa + dw * t))
        return np.concatenate(ks), np.concatenate(cs)

    def first_order(self, horizon=None, n: int = 20) -> tuple[float, int]:
        """C_1(T) = int_0^T (T - u) e^{-2u} h(u) du, or with horizon None the
        pinned c_1 = int_0^64 e^{-2u} h(u) du (e^{-128} < 1e-55), and the number
        of points: composite n-point Gauss-Legendre on panels halving toward
        u = 0, down to 2^-50 of the top, and on h tables split at the abscissae,
        where the PCHIP is only C^1.  At n = 20 within 4.5e-16 relative of scipy
        quad at T = 0.5, 5 and 30 on the cutoff-1 and cutoff-1000 indicators, a
        radial table from k = 0.25 and an h table.
        """
        top = 64.0 if horizon is None else horizon
        edges = np.append(top * 2.0 ** -np.arange(_U_GRADES + 1), 0.0)
        if self._pp is not None:
            edges = np.concatenate([edges, self.spec.points[:, 0]])
        u, w = _panel_rule(np.unique(edges[edges <= top]), n)
        if horizon is not None:
            w = w * (horizon - u)
        f = w * np.exp(-2.0 * u) * self.h(u)
        return math.fsum(f.tolist()), f.size

    def psi(self, s):
        """First antiderivative int_0^s h; odd in s."""
        return _elementwise(s, lambda a: self._psi_pp(a) if self._pp is not None
                            else self._pieces(a, 0), odd=True)

    def phi(self, s):
        """Second antiderivative with Phi'' = h, Phi(0) = Phi'(0) = 0; even."""
        return _elementwise(s, self._phi_pp if self._pp is not None else self._phi_ein)

    def _phi_ein(self, a):
        """Phi at a >= 0 (1-d) on the form-factor modes, from its Ein forms."""
        # imported here, not at module load: it is large and only Phi uses it
        from scipy.special import exp1

        x_k = a[:, None] * self._k  # A(X) = X - Ein(X), B(X) = X^2/2 - X - expm1(-X)
        xl = np.maximum(x_k, _SMALL)
        ab = _series_below_small(np.stack([xl - np.euler_gamma - np.log(xl) - exp1(xl),
                                           xl * (0.5 * xl - 1.0) - np.expm1(-xl)]), x_k, _AB)
        da, db = np.diff(ab, axis=2)
        return da @ self._alpha + db @ self._beta / np.where(a > 0.0, a, 1.0)

    def _moment(self, n: int) -> float:
        """4 pi int k^n w dk, exact on the pieces: h''(0) at n = 3, h''''(0) at 5."""
        k0, k1 = self._k[:-1], self._k[1:]
        return sum(c @ (k1**j - k0**j) / j for c, j in ((self._alpha, n + 1), (self._beta, n + 2)))

    def _grid(self, key: float, bound: float, dx: float) -> tuple[int, float, bool]:
        """(ceil(key / dx), dx, met) for a cubic Hermite table over [0, key] of
        f with sup|f''''| = bound, whose cubics match f and f' at both ends:
        each is within bound dx^4 / 384 of f, also where f'''' jumps.  dx
        halves from the given start, which stays a node, until that is within
        _PHI_TOL norm_inf or one more halving would pass _PHI_INTERVALS
        intervals (8 MiB); met says whether the bound holds."""
        tol = _PHI_TOL * self.norm_inf
        while bound * dx**4 / 384.0 > tol and 2.0 * key / dx <= _PHI_INTERVALS:
            dx *= 0.5
        return math.ceil(key / dx), dx, bound * dx**4 / 384.0 <= tol

    def phi_dense(self, span: float) -> tuple[np.ndarray, float]:
        """Cubic Hermite table of Phi covering [0, span], and its node spacing
        dx: row r of the table holds coefficient c_{3-r} of the cubic
        Phi(i dx + u dx) = ((c3 u + c2) u + c1) u + c0, u in [0, 1], of each
        interval i; a last column (0, 0, 0, Phi(n dx)) holds the end node.

        Cached per power-of-two span key (at least 1).  The cubics match Phi
        and Psi, and Phi'''' = h'', so n and dx are `_grid`'s for sup|h''|:
        h''(0) = `_moment(3)` from dx = 1 on the form-factor modes; on an h
        table the largest |h''| at the ends of the PCHIP cubics, from dx =
        s_last, where h drops to 0, so s_last is a node.  Where the cap stops
        dx short of the bound, the build warns (UserWarning): on a cutoff-100
        indicator from span 512 on.  On the form-factor modes the nodes chain
        from Phi(0) = 0 by _PHI_GAUSS-point Gauss-Legendre of the exact `psi`
        over each interval, summed in blocks of about sqrt(intervals), then
        over the blocks: within 3e-15 |Phi| of phi() up to span 1024, and
        without phi() or scipy.  h tables take Phi and Psi from the PCHIP.
        At span 30 on the cutoff-1 indicator the table is within 3.04e-11 of
        phi() (bound 3.05e-11) in 128 KiB, built in 6-9 ms on a 2-core x86;
        BENCH_hermite_phi_table.json and CHANGES.md hold the other kernels.
        """
        key = int(2.0 ** np.ceil(np.log2(max(span, 1.0))))
        if key not in self._phi_dense_cache:
            if self._pp is None:
                h2, start = self._moment(3), 1.0
            else:
                c3, c2 = self._pp.c[:2]
                h2 = np.abs(np.concatenate([2.0 * c2, 6.0 * c3 * np.diff(self._pp.x) + 2.0 * c2])).max()
                start = float(self.spec.points[-1, 0])
            n, dx, met = self._grid(key, h2, start)
            if not met:
                warnings.warn(f"the Phi table to span {key} is capped at {_PHI_INTERVALS} intervals: "
                              f"its error bound is {h2 * dx**4 / 384.0 / self.norm_inf:.3g} norm_inf, "
                              f"past the tolerance {_PHI_TOL:g}", UserWarning)
            x = np.arange(n + 1) * dx
            if self._pp is None:  # steps int Psi over each interval, chained from Phi(0) = 0
                nodes, weights = _panel_rule(x, _PHI_GAUSS)
                steps = (self.psi(nodes) * weights).reshape(n, -1).sum(axis=1)
                block = 1 << (n.bit_length() // 2)  # n is a power of two
                within = np.cumsum(steps.reshape(-1, block), axis=1)
                starts = np.concatenate([[0.0], np.cumsum(within[:-1, -1])])
                phi = np.concatenate([[0.0], (within + starts[:, None]).ravel()])
            else:
                phi = self._phi_pp(x)
                steps = np.diff(phi)
            self._phi_dense_cache[key] = (_hermite(phi, dx * self.psi(x), steps), dx)
        return self._phi_dense_cache[key]

    def displacement(self, rng, n: int, lo=None, hi=None):
        """n signed displacements d with density h(|s|)/||h||_1 from generator
        rng, or, given windows [lo, hi] (1-d arrays of n, lo <= hi), with that
        density truncated to them; and the probability P of each window, so
        that E[norm_l1 P g(d)] is the integral of g h over the window.

        On the form-factor modes h(|s|)/||h||_1 is the mixture, over momenta
        k ~ w(k)/int w (`_momenta`), of the Laplace law with rate k (Devroye,
        Non-Uniform Random Variate Generation, 1986, II.4): d = L / k with L ~
        Laplace(0, 1), or L truncated to [k lo, k hi] by _truncated_laplace,
        whose mass of the window is P, so the weight is exact given k.  Two
        generator calls per draw.  On an h table d is the exact inverse CDF
        of h(|s|) truncated to the window, by one generator call, and P =
        int_lo^hi h / ||h||_1: a window on one side of 0 is read from Psi, or
        from the mass beyond once its near end is past the median of |s|, and
        one across 0 from Psi on each side, then solved by `_invert`.  Without
        windows the window is the support [-s_last, s_last] and P is 1.0.  d
        is clipped into its window against rounding; a window of width 0 has
        P = 0 and d = lo, and one below 0 is drawn from its near end.
        Against the exact truncated CDF the Laplace draw and its mass are
        exact to 1e-15 relative, also in the deep tails, and the h-table draw
        and P to 1e-9 of the uniform's share and 1e-12 relative.  A draw over
        the whole line on the cutoff-1 indicator takes 70-85 ns in calls of
        500 on a 2-core x86 (BENCH_one_displacement.json).
        """
        if self._mass == 0.0:
            raise SamplingError("cannot sample displacements from a zero kernel")
        if self._pp is None:
            k = self._momenta(rng, n)
            if lo is None:
                return rng.laplace(size=n) / k, 1.0
            y, prob = _truncated_laplace(rng.random(n), k * lo, k * hi)
            return np.minimum(np.maximum(y / k, lo), hi), prob
        if lo is None:  # the support, as scalars: its ends are read once
            lo, hi = -self.spec.points[-1, 0], self.spec.points[-1, 0]
        u = rng.random(n)
        flip = hi < 0.0  # mirror a window below 0 onto [a, b], b >= 0
        a, b = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        ends = np.stack([np.abs(a), b])
        (psi_a, psi_b), (tail_a, tail_b) = self._psi_pp(ends), -self._tail_pp(ends)
        across, by_tail = a < 0.0, tail_a < psi_a
        mass = np.where(across, psi_a + psi_b, np.where(by_tail, tail_a - tail_b, psi_b - psi_a))
        v = u * mass
        mag = self._invert(np.broadcast_to(~across & by_tail, v.shape), np.where(
            across, np.abs(v - psi_a), np.where(by_tail, tail_a - v, psi_a + v)))
        d = np.where(flip != (across & (v < psi_a)), -mag, mag)
        return np.minimum(np.maximum(d, lo), hi), np.maximum(mass, 0.0) / self.norm_l1

    def _momenta(self, rng, n: int) -> np.ndarray:
        """n momenta k > 0 with density w(k)/int w on the form-factor modes,
        by the closed-form inverse CDF of the piecewise-linear w, from one
        generator call of uniforms on (0, 1]."""
        ends, rows = self._momentum
        q = (1.0 - rng.random(n)) * ends[-1]  # mass below k, in (0, mass]
        below, c, wa, dw, a, length = rows[np.searchsorted(ends, q)].T
        r = (q - below) / c  # > 0: solve wa t + dw t^2 / 2 = r by the stable root
        t = 2.0 * r / (wa + np.sqrt(np.maximum(wa * wa + 2.0 * dw * r, 0.0)))
        return a + length * np.minimum(t, 1.0)

    def _h_dense(self, span: float):
        """h on |s| <= span, as a function of s, cached per power-of-two span
        key: on an h table the PCHIP itself (`h`); on the form-factor modes a
        cubic Hermite table of h and h' (row 3 of `_pieces`) over [0, key],
        whose n and dx are `_grid`'s for h''''(0) = `_moment(5)` from
        dx = min(key, 1), or `h` where that bound needs more than
        _PHI_INTERVALS intervals: past T = 16 on a cutoff-100 indicator.  A
        call gathers each coefficient of phi_dense's (4, n + 1) layout at the
        node index of |s|/dx, an exact scaling, and adds them by Horner; past
        the table's end it reads h there.  At T = 5 on the cutoff-1
        indicator the table is within 2.03e-11 of `h` (bound 2.03e-11) in
        32 KiB, built in 0.22 ms, and a call on 8000 points takes about 7 ns
        a point, against 12-46 ns for `h`; the other kernels' figures are in
        BENCH_box_sampler.json (h_table).
        """
        key = 2.0 ** math.ceil(math.log2(span))
        if key in self._h_dense_cache:
            return self._h_dense_cache[key]
        h = self.h
        if self._pp is None:
            n, dx, met = self._grid(key, self._moment(5), min(key, 1.0))
            if met and n <= _PHI_INTERVALS:
                scale, x = 1.0 / dx, np.arange(n + 1) * dx
                values = self._pieces(x, 2)
                c3, *lower = _hermite(values, self._pieces(x, 3) * dx, np.diff(values))

                def h(s):
                    pos = np.minimum(np.abs(s) * scale, float(n))  # exact: scale is a power of two
                    i = pos.astype(np.intp)
                    u = pos - i
                    out = c3[i]
                    for coef in lower:
                        out *= u
                        out += coef[i]
                    return out

        self._h_dense_cache[key] = h  # only once built: worker threads share the kernel
        return h

    def quantile(self, u):
        """Inverse CDF of |s| under the normalized density h(|s|)/||h||_1,
        solved by `_invert` from the table of `_inverse` (its nodes and
        layout), from the mass beyond above u = 1/2, for u in [0, 1).  On
        10^5 uniform draws plus 4000 log-spaced ones reaching 1e-15 from
        either end, the exact CDF is met to 7.2e-16 absolute on each of 21
        indicator, radial and h tables.
        """
        return _elementwise(u, lambda u: self._invert(u > 0.5, np.where(u > 0.5, 1.0 - u, u)
                                                      * self._mass))

    @functools.cached_property
    def _inverse(self):
        """The inverse-CDF table of `_invert`, built on first use (threads
        that race on it build the same table); SamplingError on a zero kernel.

        Nodes: on the form-factor modes 0, then 32 per octave from
        2^-30 Psi(inf)/h(0) to where the mass beyond x, below max(w)/(x int
        w), falls under 2^-54 of Psi(inf); on an h table the abscissae and
        the midpoints, recursively, of the brackets across which h or the
        mass beyond more than halves, but not of those 2^-50 of x wide or
        with under 2^-50 of the mass beyond.  Keys: minus the mass beyond
        and then Psi at the nodes, one increasing array; rows [key_i,
        1/(key_i+1 - key_i), x_i, x_i+1 - x_i, m_i, m_i+1], width 0 at the
        seam between the halves and m = (dkey/dx)/h the Hermite slopes of
        x(key), capped at 3 so that the start stays monotone in its bracket.
        """
        if self._mass == 0.0:
            raise SamplingError("cannot sample displacements from a zero kernel")
        if self._pp is None:
            lo = 2.0**-30 * self._mass / self.norm_inf
            hi = 2.0**54 * 4.0 * np.pi * float(self.spec.points[:, 1].max()) / self._mass
            nodes = np.concatenate([[0.0], np.geomspace(lo, hi, int(32 * np.log2(hi / lo)) + 2)])
        else:
            nodes = self.spec.points[:, 0]
            for _ in range(64):
                h, tail = self._pp(nodes), -self._tail_pp(nodes)
                split = (h[:-1] > 2.0 * h[1:]) | (tail[:-1] > 2.0 * tail[1:])
                split &= (tail[:-1] > 2.0**-50 * self._mass) & (np.diff(nodes) > 2.0**-50 * nodes[1:])
                if not split.any():
                    break
                nodes = np.union1d(nodes, 0.5 * (nodes[:-1] + nodes[1:])[split])
        psi, tail, h = self._parts(nodes)
        keys = np.maximum.accumulate(np.concatenate([-tail, psi]))  # rounding can dip
        dk, xs, hs = np.diff(keys), np.concatenate([nodes, nodes]), np.concatenate([h, h])
        inv_dk = np.divide(1.0, dk, out=np.zeros_like(dk), where=dk > _TINY)
        width = np.maximum(np.diff(xs), 0.0)
        m = [np.divide(dk, hw, out=np.full_like(dk, 3.0), where=3.0 * hw > dk)
             for hw in (hs[:-1] * width, hs[1:] * width)]
        return keys, np.column_stack([keys[:-1], inv_dk, xs[:-1], width, *m])

    def _invert(self, upper, q):
        """x >= 0 (1-d) with mass q beyond it where `upper`, and with mass q
        below it (Psi(x) = q) elsewhere: from the cubic Hermite start on the
        bracket of q in `_inverse`, Newton steps on Psi, or on the log of
        the mass beyond, computed directly, so the tail keeps its relative
        accuracy.  Each element stops once its own step is below 2^-26 of
        its bracket (at most 8; 2 or 3 for uniform draws)."""
        keys, rows = self._inverse
        key = np.where(upper, -q, q)
        idx = np.minimum(np.maximum(np.searchsorted(keys, key, side="right") - 1, 0), len(rows) - 1)
        k0, inv_dk, lo, width, m0, m1 = rows[idx].T
        t = np.minimum(np.maximum((key - k0) * inv_dk, 0.0), 1.0)  # cubic Hermite start
        x = lo + width * (t + t * (1.0 - t) * ((m0 - 1.0) * (1.0 - t) - (m1 - 1.0) * t))
        hi, log_q = lo + width, np.log(np.maximum(q, _TINY))
        live = np.arange(x.size)  # elements still moving; each stops on its own step
        for _ in range(_NEWTON_MAX):  # on Psi below, on the log of the mass beyond above
            last, up = x[live], upper[live]
            psi, tail, d = self._parts(last)
            f = np.where(up, (log_q[live] - np.log(np.maximum(tail, _TINY))) * tail, psi - q[live])
            step = np.divide(f, d, out=np.zeros_like(f), where=d > 0)
            new = np.minimum(np.maximum(last - step, lo[live]), hi[live])
            x[live] = new
            live = live[np.abs(new - last) > _NEWTON_TOL * width[live]]
            if not live.size:
                break
        return x


def build_kernel(spec: KernelSpec) -> Kernel:
    """Validate the spec and build the evaluable kernel."""
    return Kernel(spec)
