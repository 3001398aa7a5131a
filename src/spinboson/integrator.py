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
factors; Kernel.displacement draws them exactly, by composition over the
momentum on the form-factor modes) and uniformly over the feasible overlap
window along selected edges, with exact importance weights; the deleted
cycle-closing kernel factors and the interpolated hardcore factors are
evaluated at the sampled configuration.  The (-1)^|F| sign is carried
symbolically so weights stay positive within a term.  At a finite horizon
every draw is confined to [0, T], with each window's probability in the
weight (_sample_chunk).

Both routes, and term_integrand, read the overlap factors of a term from
ClusterTerm.weight: 0 where ForestSelection._overlap_code disallows the
intervals, else the exact v-integral of their overlap code, looked up in a
table filled from combinatorics.forest_volume on first use.

The quadrature route (p <= 2) is exact in the times and independent of
the sampler.  At p = 1 it is the graded Gauss-Legendre rule of
Kernel.first_order, on every kernel mode.  At p = 2 each kernel
factor is h(s) = int e^{-|s|k} dmu(k); per order of the endpoints the time
integral is closed in the momenta, summed on Kernel.momentum_rule (which
h tables lack).  Its tolerance is the measured change from a coarser rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .combinatorics import (
    ForestSelection,
    check_order,
    enumerate_forest_selections,
    enumerate_matchings,
    forest_volume,
    open_cycles,
)
from .errors import ResourceError
from .kernel import Kernel
from .rng import _kronecker, mc_mean

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
# Gauss-Legendre nodes per panel at p = 1 (in the pair length) and p = 2 (per
# momentum): the value, and the coarser rule that its difference is measured against
_QUAD_NODES = {1: (20, 10), 2: (8, 6)}
_TAYLOR = 16  # degree of the Taylor sum in _exp_divided_difference
_QUAD_BLOCK = 1 << 15  # momentum points per block of _order_sum: bounds its temporaries


@dataclass(frozen=True)
class CoefficientEstimate:
    value: float
    statistical_error: float
    quadrature_tolerance: float  # |fine - coarse| of two quadrature rules, measured
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

    @cached_property
    def opened(self):
        return open_cycles(self.matching, self.selection, root_pair=self.pin_pair)

    @cached_property
    def volumes(self) -> np.ndarray:
        """Exact v-integral per overlap pattern: bit k of the index is set when
        path pair k overlaps."""
        return forest_volume(self.selection, np.arange(1 << len(self.selection.path_pairs)))

    def weight(self, starts, ends) -> np.ndarray:
        """Interval weight of closed intervals [starts, ends] (..., p): 0 where
        the selection's _overlap_code disallows them, else volumes[code]."""
        allowed, code = self.selection._overlap_code(starts, ends)
        return np.where(allowed, self.volumes[code], 0.0)


def cluster_terms(p: int, pin_pair: int = 0) -> list[ClusterTerm]:
    """All connecting (matching, selection) terms of order p, in canonical order."""
    check_order(p)
    out = []
    for m in enumerate_matchings(p):
        for sel in enumerate_forest_selections(m, connecting_only=True):
            out.append(ClusterTerm(m, sel, pin_pair=pin_pair))
    return out


def term_integrand(kernel: Kernel, term: ClusterTerm, t):
    """Evaluate the signed integrand at times t (..., 2p), with the
    interpolated hardcore factor integrated exactly over v."""
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
    value = value * term.sign * term.weight(starts, ends)
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

    At a finite horizon T every pair is drawn inside [0, T], so no draw is
    wasted on a box mask (Hammersley & Handscomb, Monte Carlo Methods, 1964,
    conditional Monte Carlo).  With room_j = (T - l_j)+ the start of pair j
    must lie in [0, room_j]: the root's is uniform there (weight x room),
    an overlap child's uniform on [max(s_parent - l_child, 0),
    min(s_parent + l_parent, room_child)] (weight x that span, or 0), and a
    kernel child's displacement is drawn from the window that puts its
    start there (Kernel.displacement, weight x norm_l1 x the window's
    probability).  A pair longer than T has room 0 and weight 0.  Every
    endpoint then lies in [0, T], so the deleted kernel factors read the
    Hermite table Kernel._h_dense(T).
    """
    p = term.p
    opened = term.opened
    lengths = rng.exponential(0.5, size=(n, p))
    s = np.zeros((n, p))
    weight = np.full(n, 0.5**p)
    if horizon is not None:
        room = np.maximum(horizon - lengths, 0.0)
        s[:, term.pin_pair] = rng.random(n) * room[:, term.pin_pair]
        weight *= room[:, term.pin_pair]
    for child, parent, kind, cpt, ppt in opened.steps:
        if kind == "h":
            t_parent = s[:, parent] + (lengths[:, parent] if ppt % 2 else 0.0)
            offset = lengths[:, child] if cpt % 2 else 0.0  # child's endpoint less its start
            if horizon is None:
                d, prob = kernel.displacement(rng, n)
                s[:, child] = t_parent + d - offset
            else:
                lo = offset - t_parent  # the displacements that put the start in [0, room]
                d, prob = kernel.displacement(rng, n, lo, lo + room[:, child])
                s[:, child] = np.minimum(np.maximum(t_parent + d - offset, 0.0), room[:, child])
            weight *= kernel.norm_l1 * prob
        elif horizon is None:
            span = lengths[:, child] + lengths[:, parent]
            s[:, child] = (s[:, parent] - lengths[:, child]) + rng.random(n) * span
            weight *= span
        else:
            lo = np.maximum(s[:, parent] - lengths[:, child], 0.0)
            span = np.maximum(np.minimum(s[:, parent] + lengths[:, parent], room[:, child]) - lo, 0.0)
            s[:, child] = lo + rng.random(n) * span
            weight *= span
    if opened.deleted_edges:  # one elementwise h call on all of them, multiplied in edge order
        h = kernel.h if horizon is None else kernel._h_dense(horizon)
        cols = (s, s + lengths)  # endpoint x is column x // 2 of the starts or of the ends
        diffs = np.concatenate([cols[a % 2][:, a // 2] - cols[b % 2][:, b // 2]
                                for a, b in opened.deleted_edges])
        for factor in h(diffs).reshape(len(opened.deleted_edges), n):
            weight *= factor
    return lengths, s, weight


def _mc_chunk(kernel: Kernel, term: ClusterTerm, rng, n: int, horizon: Optional[float]):
    lengths, s, weight = _sample_chunk(kernel, term, rng, n, horizon)
    return term.sign * weight * term.weight(s, s + lengths)


# ---------------------------------------------------------------------------
# Quadrature route (p <= 2: exact time integrals per endpoint order)
# ---------------------------------------------------------------------------


def _endpoint_orders(term: ClusterTerm):
    """(weight, 2 cover, span) per order of the 2p endpoints in which every
    start comes before its end and term.weight is not 0; the weight is
    sign * term.weight.  cover[j] counts the intervals
    over gap j between consecutive endpoints, and span[e, j] is 1 where
    matching edge e spans it."""
    p = term.p
    gaps = np.arange(2 * p - 1) + 0.5
    edges = np.array(term.matching)
    out = []
    for order in itertools.permutations(range(2 * p)):
        rank = np.argsort(order)  # position of each endpoint
        starts, ends = rank[0::2], rank[1::2]
        if np.any(starts > ends):
            continue
        weight = float(term.weight(starts, ends))
        if not weight:
            continue
        cover = ((starts[:, None] < gaps) & (gaps < ends[:, None])).sum(axis=0)
        lo, hi = np.sort(rank[edges], axis=1).T
        span = ((lo[:, None] < gaps) & (gaps < hi[:, None])).astype(float)
        out.append((term.sign * weight, 2.0 * cover, span))
    return out


def _exp_divided_difference(x):
    """exp[x_0, ..., x_m] per row of x (n, m + 1), x <= 0: the corner of expm
    of the bidiagonal matrix with diagonal x and ones above it (Opitz;
    McCurdy, Ng & Parlett, Math. Comp. 43, 1984).  Taylor to degree _TAYLOR
    at x 2^-s, |x| 2^-s <= 1/2, by Horner, then s squarings of the upper
    triangle; all entries are positive, so the squarings do not cancel."""
    m = x.shape[1]
    s = max(0, math.ceil(math.log2(max(2.0 * float(-x.min()), 1.0))))
    a, b = x.T * 2.0**-s, 2.0**-s
    one, zero = np.ones(len(x)), np.zeros(len(x))
    e = {(i, j): one if i == j else zero for i in range(m) for j in range(i, m)}
    for q in range(_TAYLOR, 0, -1):  # e = I + A e / q
        aq, bq = a / q, b / q
        e = {(i, j): aq[i] * e[i, j] + (bq * e[i + 1, j] if i < j else 1.0) for i, j in e}
    for level in range(s, -1, -1):
        # the diagonal is exp(x 2^-level) exactly: squaring it would double its
        # rounding error at every level
        e.update({(i, i): d for i, d in enumerate(np.exp(x.T * 2.0**-level))})
        if level:
            e = {(i, j): sum((e[i, l] * e[l, j] for l in range(i + 1, j + 1)), e[i, i] * e[i, j])
                 for i, j in e}
    return e[0, m - 1]


def _order_sum(kernel: Kernel, term: ClusterTerm, horizon, n: int):
    """Value of the term, summed over its endpoint orders with the momenta
    of its p kernel factors on the tensor grid of kernel.momentum_rule(n)
    in blocks of _QUAD_BLOCK points, and the number of points.  Gap j of an
    order has rate Lambda_j: 2 per interval over it plus the momentum of
    each edge spanning it.  Pinned, the gaps give prod 1/Lambda_j; in
    [0, T], T^{2p} exp[-Lambda_1 T, ..., -Lambda_{2p-1} T, 0, 0]."""
    k, c = kernel.momentum_rule(n)
    p = term.p
    orders = _endpoint_orders(term)
    points = len(k) ** p
    parts = []
    for lo in range(0, points, _QUAD_BLOCK):
        idx = np.unravel_index(np.arange(lo, min(lo + _QUAD_BLOCK, points)), (len(k),) * p)
        ks = np.stack([k[i] for i in idx], axis=1)
        cs = np.prod([c[i] for i in idx], axis=0)
        for weight, cover, span in orders:
            lam = cover + ks @ span
            if horizon is None:
                g = 1.0 / np.prod(lam, axis=1)
            else:
                x = np.concatenate([-horizon * lam, np.zeros((len(lam), 2))], axis=1)
                g = horizon ** (2 * p) * _exp_divided_difference(x)
            parts.append(weight * float(cs @ g))
    return math.fsum(parts), points


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
        if horizon is None or not 0 < horizon < math.inf:
            raise ValueError("finite mode needs a finite positive horizon")
    elif mode == "pinned":
        horizon = None
    else:
        raise ValueError("mode must be 'pinned' or 'finite'")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    _ = term.opened  # raises StructureError for non-connecting terms
    if method not in ("quad", "mc"):
        raise ValueError("method must be 'quad' or 'mc'")
    if method == "quad" and term.p > 2:
        raise ResourceError("deterministic quadrature supported for p <= 2 only")
    if kernel.norm_inf == 0.0 and kernel.norm_l1 == 0.0:
        # h identically zero wipes every term (each carries p kernel factors)
        return CoefficientEstimate(
            0.0, 0.0, 0.0, "quadrature" if method == "quad" else "monte_carlo",
            term.p, horizon, None,
        )
    if method == "quad":
        route = (partial(kernel.first_order, horizon) if term.p == 1
                 else partial(_order_sum, kernel, term, horizon))
        n_fine, n_coarse = _QUAD_NODES[term.p]
        value, points = route(n_fine)
        coarse, _ = route(n_coarse)
        warning = "evaluation budget exceeded" if budget and points > budget else None
        return CoefficientEstimate(
            value, 0.0, abs(value - coarse), "quadrature", term.p, horizon, warning
        )
    _ = term.volumes  # fill the table and pair classes before the batches share them
    value, err = mc_mean(
        lambda rng, runs: _mc_chunk(kernel, term, rng, sum(runs), horizon),
        budget or 200_000, _MC_CHUNK, seed, _TAG_TERM, term_index, workers=workers,
    )
    return CoefficientEstimate(value, err, 0.0, "monte_carlo", term.p, horizon, None)


def coefficient(
    kernel: Kernel,
    p: int,
    mode: str = "pinned",
    horizon: Optional[float] = None,
    method: str = "mc",
    budget: Optional[int] = None,
    seed: int = 0,
    pin_pair: int = 0,
    workers: int = 1,
    per_term: bool = False,
):
    """Connected coefficient of order p: sum of all connecting cluster terms.

    budget is the Monte Carlo sample count per term (default 200000).  The
    quadrature rule has a fixed size; a budget below the points it evaluates
    for a term only flags the estimate "evaluation budget exceeded".  The
    quadrature tolerance of a term is the measured difference between the
    rule and a coarser one.  Statistical errors combine in quadrature;
    deterministic tolerances add.  per_term also returns the (term, estimate)
    pairs, in cluster_terms order.
    """
    terms = cluster_terms(p, pin_pair=pin_pair)
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
    return (total, list(zip(terms, estimates))) if per_term else total


def brute_force_coefficient(
    kernel: Kernel,
    p: int,
    horizon: float,
    budget: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> CoefficientEstimate:
    """Order-p Taylor coefficient of Z(alpha, T) from the raw moment series.

    Randomized quasi-Monte Carlo over [0, T]^{2p}: the times are T u for the
    shifted Kronecker points u of rng._kronecker, one shift per run, so each
    batch mean is one independent randomization.  The spin moment is the
    closed form on the times sorted column-wise by an odd-even transposition
    network (Knuth, TAOCP Vol. 3, 5.3.4); scaled by (1/2)^p T^{2p} / p!.
    Every pair difference lies in [-T, T], so h is read from the Hermite
    table Kernel._h_dense(T).  At T = 5 on the cutoff-1 indicator the
    variance of a run's mean falls 17-27x at p = 2 against as many uniform
    draws (300 runs of 2000 to 4000 points); the other orders, and the Sobol
    and Korobov sets that gained less, are in CHANGES.md.  Measured limit:
    the error is understated where most batches miss a narrow peak of h h.
    On the cutoff-100 indicator at T = 5 and 10^4 points z_2 read -12.7
    sigma at 1 of 8 seeds, its error 5.8% of z_2 against 16-46% at the rest.
    """
    if p > 3:
        raise ResourceError("raw-series coefficients are limited to p <= 3 (2p-dim integral)")
    check_order(p)
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    scale = 0.5**p * horizon ** (2 * p) / math.factorial(p)

    h = kernel._h_dense(horizon)  # every time lies in [0, T]

    def draw(rng, runs):
        t = horizon * _kronecker(rng, runs, 2 * p)
        hprod = np.ones(len(t))
        for factor in h(t[:, 1::2] - t[:, 0::2]).T:  # one h call, pairs in order
            hprod *= factor
        ts = list(t.T)  # odd-even transposition network: 2p rounds over the columns
        for j in [j for r in range(2 * p) for j in range(r % 2, 2 * p - 1, 2)]:
            ts[j], ts[j + 1] = np.minimum(ts[j], ts[j + 1]), np.maximum(ts[j], ts[j + 1])
        # the gaps, added left to right as sum(axis=1) adds rows shorter than 8
        return hprod * np.exp(-2.0 * sum(ts[j + 1] - ts[j] for j in range(0, 2 * p, 2)))

    mean, err = mc_mean(draw, budget, _MC_CHUNK, seed, _TAG_BRUTE, workers=workers)
    return CoefficientEstimate(
        mean * scale, err * scale, 0.0, "monte_carlo", p, horizon, None
    )
