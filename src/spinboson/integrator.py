"""Cluster-term integrands and their integration (quadrature and Monte Carlo).

One term of the expansion is indexed by a perfect matching P and a
connecting forest selection F.  With intervals t_A = [t_{2i}, t_{2i+1}] its
integrand is the signed product

    prod_j 1{t_{2j} < t_{2j+1}}                    ordering of each pair
  * prod_{l in F} (-1{t_A cap t_B != empty})       selected overlap edges
  * prod_{{A,B} not in F} (1 - r(F,v)_{AB} 1{t_A cap t_B != empty})
  * prod_{base pairs} exp(-2 (t_{2j+1} - t_{2j}))  exponential pair weights
  * prod_{{a,b} in P} h(t_a - t_b)                 kernel factors

integrated over the interpolation parameters v in [0,1]^F and over the
times: all 2p of them in [0, T]^{2p} for the finite-horizon coefficients,
or with t at the pinned pair fixed to 0 and the remaining 2p-1 coordinates
over the whole line for the infinite-volume (per-unit-time) coefficients.

The Monte Carlo route walks the opened spanning tree: pair lengths are
drawn from Exp(2) (cancelling the exponential weights), tree displacements
from the normalized kernel density along kernel edges (cancelling those h
factors) and uniformly over the feasible overlap window along selected
edges, with exact importance weights; the deleted cycle-closing kernel
factors and the interpolated hardcore factors are evaluated at the sampled
configuration.  The (-1)^|F| sign is carried symbolically so weights stay
positive within a term.  The v-integral is exact: given the sampled
configuration it depends only on which path-linked pairs overlap, so each
term looks it up in a table over those overlap patterns, filled from
combinatorics.forest_volume on first use.

The quadrature route (total dimension <= 5, i.e. p <= 2) does nested
adaptive integration with kink-aware splitting of the inner position
integral, entirely independent of the sampler.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .combinatorics import (
    ForestSelection,
    check_order,
    classify_pairs,
    enumerate_forest_selections,
    enumerate_matchings,
    forest_volume,
    open_cycles,
)
from .errors import ResourceError
from .kernel import Kernel
from .rng import batch_layout, batch_mean, map_batches, stream

__all__ = [
    "CoefficientEstimate",
    "ClusterTerm",
    "cluster_terms",
    "term_integrand",
    "integrate_term",
    "coefficient",
    "brute_force_coefficient",
]

_TAG_TERM = 3
_TAG_BRUTE = 4
_MC_CHUNK = 1 << 16
QUAD_TOL = 1e-6


@dataclass(frozen=True)
class CoefficientEstimate:
    value: float
    statistical_error: float
    quadrature_tolerance: float  # absolute deterministic-integration budget
    method: str  # 'quadrature' | 'monte_carlo'
    p: int
    finite_T: Optional[float] = None
    warning: Optional[str] = None


class ClusterTerm:
    """Compiled structure for one (matching, selection) pair."""

    def __init__(self, matching, selection: ForestSelection, pin_pair: int = 0):
        self.matching = tuple(matching)
        self.selection = selection
        self.p = len(matching)
        self.q = len(selection.micro_edges)
        self.sign = (-1.0) ** self.q
        self.pin_pair = pin_pair
        classes = classify_pairs(selection)
        self.forest_pairs = [e for e, c in classes if c[0] == "forest"]
        self.block_pairs = [e for e, c in classes if c[0] == "block"]
        self.path_pairs = [(e, c[1]) for e, c in classes if c[0] == "path"]
        self._opened = None
        self._volumes = None

    @property
    def opened(self):
        if self._opened is None:
            self._opened = open_cycles(self.matching, self.selection, root_pair=self.pin_pair)
        return self._opened

    @property
    def volumes(self) -> np.ndarray:
        """Exact v-integral per overlap pattern: bit k of the index is set when
        path pair k overlaps."""
        if self._volumes is None:
            codes = np.arange(1 << len(self.path_pairs))
            ov = np.zeros((len(codes), self.p, self.p), dtype=bool)
            for k, ((i, j), _) in enumerate(self.path_pairs):
                ov[:, i, j] = ov[:, j, i] = (codes >> k) & 1
            self._volumes = forest_volume(self.selection, ov)
        return self._volumes

    def volume(self, ov) -> np.ndarray:
        """Exact v-integral for overlap matrices ov of shape (..., p, p)."""
        code = np.zeros(ov.shape[:-2], dtype=np.intp)
        for k, ((i, j), _) in enumerate(self.path_pairs):
            code |= ov[..., i, j].astype(np.intp) << k
        return self.volumes[code]


def cluster_terms(p: int, p_max: Optional[int] = None, pin_pair: int = 0) -> list[ClusterTerm]:
    """All connecting (matching, selection) terms of order p, canonical order."""
    check_order(p, p_max)
    out = []
    for m in enumerate_matchings(p, p_max):
        for sel in enumerate_forest_selections(m, connecting_only=True, p_max=p_max):
            out.append(ClusterTerm(m, sel, pin_pair=pin_pair))
    return out


def _overlap_matrix(starts, ends):
    """Closed-interval overlap booleans, shape (..., p, p)."""
    s1 = starts[..., :, None]
    e1 = ends[..., :, None]
    s2 = starts[..., None, :]
    e2 = ends[..., None, :]
    return (s1 <= e2) & (s2 <= e1)


def term_integrand(kernel: Kernel, term: ClusterTerm, t, v=None):
    """Evaluate the signed integrand at times t (..., 2p).

    With v=None the interpolated hardcore factor is integrated exactly over
    v; otherwise v (..., |F|) gives one interpolation parameter per selected
    edge and the v-resolved integrand is returned.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 1
    if scalar:
        t = t[None, :]
    starts = t[..., 0::2]
    ends = t[..., 1::2]
    ordered = np.all(ends > starts, axis=-1)
    gaps = np.where(ends > starts, ends - starts, 0.0)
    value = np.where(ordered, np.exp(-2.0 * gaps.sum(axis=-1)), 0.0)
    for a, b in term.matching:
        value = value * kernel.h(t[..., a] - t[..., b])
    ov = _overlap_matrix(starts, ends)
    for i, j in term.forest_pairs:
        value = value * ov[..., i, j]
    value = value * term.sign
    for i, j in term.block_pairs:
        value = np.where(ov[..., i, j], 0.0, value)
    if v is None:
        value = value * term.volume(ov)
    else:
        v = np.asarray(v, dtype=float)
        if scalar and v.ndim == 1:
            v = v[None, :]
        for (i, j), spec in term.path_pairs:
            r = np.min(v[..., list(spec)], axis=-1)
            value = value * np.where(ov[..., i, j], 1.0 - r, 1.0)
    return float(value[0]) if scalar else value


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def _sample_chunk(kernel: Kernel, term: ClusterTerm, rng, n: int, horizon: Optional[float]):
    """Draw n tree-guided configurations: (lengths, starts, importance weight).

    The weight already absorbs the exponential pair factors (cancelled by the
    Exp(2) proposal), the tree kernel factors (cancelled by the displacement
    density), the overlap-window volumes of selected edges, and the deleted
    cycle-closing kernel factors evaluated at the sample.
    """
    p = term.p
    opened = term.opened
    lengths = rng.exponential(0.5, size=(n, p))
    s = np.zeros((n, p))
    weight = np.full(n, 0.5**p)
    if horizon is not None:
        s[:, term.pin_pair] = rng.uniform(0.0, horizon, size=n)
        weight *= horizon
    for child, parent, kind, cpt, ppt in opened.steps:
        if kind == "h":
            mag = kernel.quantile(rng.random(n))
            disp = (rng.integers(0, 2, size=n) * 2 - 1) * mag
            t_parent = s[:, parent] + (lengths[:, parent] if ppt % 2 else 0.0)
            t_child = t_parent + disp
            s[:, child] = t_child - (lengths[:, child] if cpt % 2 else 0.0)
            weight *= kernel.norm_l1
        else:
            span = lengths[:, child] + lengths[:, parent]
            s[:, child] = (s[:, parent] - lengths[:, child]) + rng.random(n) * span
            weight *= span
    for a, b in opened.deleted_edges:
        ta = s[:, a // 2] + (lengths[:, a // 2] if a % 2 else 0.0)
        tb = s[:, b // 2] + (lengths[:, b // 2] if b % 2 else 0.0)
        weight *= kernel.h(ta - tb)
    return lengths, s, weight


def _mc_chunk(kernel: Kernel, term: ClusterTerm, rng, n: int, horizon: Optional[float]):
    lengths, s, weight = _sample_chunk(kernel, term, rng, n, horizon)
    ends = s + lengths
    ov = _overlap_matrix(s, ends)
    mask = np.ones(n, dtype=bool)
    for i, j in term.block_pairs:
        mask &= ~ov[:, i, j]
    if horizon is not None:
        mask &= np.all((s >= 0.0) & (ends <= horizon), axis=1)
    vals = term.sign * weight * term.volume(ov) * mask
    return float(np.sum(vals))


def _mc_term(kernel, term, horizon, budget, seed, term_index, workers):
    ranges = batch_layout(budget)
    _ = term.volumes  # fill the table once, before the batches share it

    def run_batch(b):
        start, stop = ranges[b]
        rng = stream(seed, _TAG_TERM, term_index, b)
        left = stop - start
        parts = []
        while left > 0:
            n = min(_MC_CHUNK, left)
            parts.append(_mc_chunk(kernel, term, rng, n, horizon))
            left -= n
        return math.fsum(parts)

    sums = map_batches(run_batch, len(ranges), workers)
    return batch_mean(sums, [stop - start for start, stop in ranges])


# ---------------------------------------------------------------------------
# Quadrature route (p <= 2 time-pairs, kink-aware nested integration)
# ---------------------------------------------------------------------------


def _quad_pieces(f, points, lo, hi, epsrel):
    """Integrate f over (lo, hi) split at the given interior breakpoints."""
    cuts = sorted({x for x in points if lo < x < hi})
    bounds = [lo] + cuts + [hi]
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        val, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=epsrel, limit=200)
        total += val
    return total


def _quad_term(kernel, term, horizon, budget, pin_pair):
    if term.p > 2:
        raise ResourceError("deterministic quadrature supported for p <= 2 only")
    evals = [0]

    if term.p == 1:
        def f(length):
            evals[0] += 1
            return term_integrand(kernel, term, np.array([0.0, length]))

        if horizon is None:
            val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=QUAD_TOL / 50, limit=300)
        else:
            val, _ = integrate.quad(
                lambda u: (horizon - u) * f(u), 0.0, horizon,
                epsabs=1e-14, epsrel=QUAD_TOL / 50, limit=300,
            )
        warning = "evaluation budget exceeded" if budget and evals[0] > budget else None
        return val, warning

    pin = pin_pair
    free = 1 - pin
    # Compile the integrand to plain-float form.  With the pinned pair at 0
    # and the free pair starting at pos, every point time is
    # t = pos*(pair == free) + length*(odd point), so each cross kernel factor
    # is h(sigma*pos + c) with sigma = +-1 and c a length combination.
    internal_pairs = [a // 2 for a, b in term.matching if a // 2 == b // 2]
    cross_edges = [(a, b) for a, b in term.matching if a // 2 != b // 2]
    hardcore = bool(term.block_pairs)
    h1 = kernel.h1

    def inner(l_pin, l_free):
        lengths = (l_pin, l_free) if pin == 0 else (l_free, l_pin)
        const = math.exp(-2.0 * (l_pin + l_free))
        for i in internal_pairs:
            const *= h1(lengths[i])
        cross = []
        kinks = {-l_free, l_pin}
        for a, b in cross_edges:
            sigma = 1.0 if a // 2 == free else -1.0
            c = (lengths[a // 2] if a % 2 else 0.0) - (lengths[b // 2] if b % 2 else 0.0)
            cross.append((sigma, c))
            kinks.add(-sigma * c)

        def f(pos):
            evals[0] += 1
            val = const
            for sigma, c in cross:
                val *= h1(sigma * pos + c)
            return val

        if horizon is None:
            if hardcore:
                lo = _quad_pieces(f, kinks, -np.inf, -l_free, QUAD_TOL / 100)
                hi = _quad_pieces(f, kinks, l_pin, np.inf, QUAD_TOL / 100)
                return lo + hi
            return -_quad_pieces(f, kinks, -l_free, l_pin, QUAD_TOL / 100)
        # finite horizon: the translation zero-mode is integrated out exactly,
        # weighting by the number of allowed root positions in the box
        T = horizon

        def g(pos):
            width = min(T - l_pin, T - pos - l_free) - max(0.0, -pos)
            if width <= 0.0:
                return 0.0
            if hardcore and -l_free <= pos <= l_pin:
                return 0.0
            if not hardcore and not (-l_free <= pos <= l_pin):
                return 0.0
            return width * f(pos) * (1.0 if hardcore else -1.0)

        kinks |= {0.0, l_pin - l_free, T - l_free, l_pin - T}
        return _quad_pieces(g, kinks, l_pin - T, T - l_free, QUAD_TOL / 100)

    top = np.inf if horizon is None else horizon

    def mid(l_pin):
        val, _ = integrate.quad(
            lambda l_free: inner(l_pin, l_free), 0.0, top,
            epsabs=1e-13, epsrel=QUAD_TOL / 20, limit=120,
        )
        return val

    val, _ = integrate.quad(mid, 0.0, top, epsabs=1e-13, epsrel=QUAD_TOL / 4, limit=120)
    warning = "evaluation budget exceeded" if budget and evals[0] > budget else None
    return val, warning


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def integrate_term(
    kernel: Kernel,
    term: ClusterTerm,
    mode: str = "pinned",
    horizon: Optional[float] = None,
    method: str = "mc",
    budget: Optional[int] = None,
    seed: int = 0,
    term_index: int = 0,
    workers: int = 1,
) -> CoefficientEstimate:
    """Integrate one cluster term, pinned (infinite volume) or finite horizon."""
    if mode == "finite":
        if horizon is None or horizon <= 0:
            raise ValueError("finite mode needs a positive horizon")
    elif mode == "pinned":
        horizon = None
    else:
        raise ValueError("mode must be 'pinned' or 'finite'")
    _ = term.opened  # raises StructureError for non-connecting terms
    if kernel.norm_inf == 0.0 and kernel.norm_l1 == 0.0:
        # h identically zero wipes every term (each carries p kernel factors)
        return CoefficientEstimate(
            0.0, 0.0, 0.0, "quadrature" if method == "quad" else "monte_carlo",
            term.p, horizon, None,
        )
    if method == "quad":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", integrate.IntegrationWarning)
            value, warning = _quad_term(kernel, term, horizon, budget, term.pin_pair)
        if warning is None and any(
            issubclass(w.category, integrate.IntegrationWarning) for w in caught
        ):
            warning = "quadrature tolerance may not be met"
        return CoefficientEstimate(
            value, 0.0, QUAD_TOL * abs(value), "quadrature", term.p, horizon, warning
        )
    if method != "mc":
        raise ValueError("method must be 'quad' or 'mc'")
    value, err = _mc_term(kernel, term, horizon, budget or 200_000, seed, term_index, workers)
    return CoefficientEstimate(value, err, 0.0, "monte_carlo", term.p, horizon, None)


def coefficient(
    kernel: Kernel,
    p: int,
    mode: str = "pinned",
    horizon: Optional[float] = None,
    method: str = "mc",
    budget: Optional[int] = None,
    seed: int = 0,
    p_max: Optional[int] = None,
    pin_pair: int = 0,
    workers: int = 1,
    per_term: bool = False,
):
    """Connected coefficient of order p: sum of all connecting cluster terms.

    budget is the Monte Carlo sample count per term (default 200000); for
    the quadrature method it optionally caps integrand evaluations, flagging
    the estimate when exhausted.  Statistical errors combine in quadrature;
    deterministic tolerances add.
    """
    terms = cluster_terms(p, p_max=p_max, pin_pair=pin_pair)
    estimates = [
        integrate_term(
            kernel, t, mode=mode, horizon=horizon, method=method,
            budget=budget, seed=seed, term_index=idx, workers=workers,
        )
        for idx, t in enumerate(terms)
    ]
    value = math.fsum(e.value for e in estimates)
    stat = math.sqrt(math.fsum(e.statistical_error**2 for e in estimates))
    qtol = math.fsum(e.quadrature_tolerance for e in estimates)
    warning = next((e.warning for e in estimates if e.warning), None)
    total = CoefficientEstimate(
        value, stat, qtol, estimates[0].method if estimates else method, p,
        horizon if mode == "finite" else None, warning,
    )
    return (total, estimates) if per_term else total


def brute_force_coefficient(
    kernel: Kernel,
    p: int,
    horizon: float,
    budget: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> CoefficientEstimate:
    """Order-p Taylor coefficient of Z(alpha, T) from the raw moment series.

    Uniform sampling of the 2p times over [0, T]^{2p}; the spin moment is the
    closed form on the sorted times; scaled by (1/2)^p T^{2p} / p!.
    """
    if p > 3:
        raise ResourceError("raw-series coefficients are limited to p <= 3 (2p-dim integral)")
    check_order(p)
    scale = 0.5**p * horizon ** (2 * p) / math.factorial(p)
    ranges = batch_layout(budget)

    def run_batch(b):
        start, stop = ranges[b]
        rng = stream(seed, _TAG_BRUTE, b)
        left = stop - start
        parts = []
        while left > 0:
            n = min(_MC_CHUNK, left)
            t = rng.uniform(0.0, horizon, size=(n, 2 * p))
            hprod = np.ones(n)
            for j in range(p):
                hprod *= kernel.h(t[:, 2 * j + 1] - t[:, 2 * j])
            ts = np.sort(t, axis=1)
            moment = np.exp(-2.0 * (ts[:, 1::2] - ts[:, 0::2]).sum(axis=1))
            parts.append(float(np.sum(hprod * moment)))
            left -= n
        return math.fsum(parts)

    sums = map_batches(run_batch, len(ranges), workers)
    mean, err = batch_mean(sums, [stop - start for start, stop in ranges])
    return CoefficientEstimate(
        mean * scale, err * scale, 0.0, "monte_carlo", p, horizon, None
    )
