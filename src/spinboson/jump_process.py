"""The +-1 continuous-time jump process and its Monte Carlo functionals.

The process is X(t) = B * (-1)^{N(t)} with N a unit-rate Poisson process and
B a symmetric random sign ("free" boundary at t = 0).  The partition
function of the induced long-range one-dimensional Ising model is

    Z(alpha, T) = E[ exp( (alpha/2) * int_0^T int_0^T X(t) X(s) h(t-s) dt ds ) ]

and the product moments have the closed form (for increasing times)

    E[X(t_1) ... X(t_q)] = exp(-2 * [(t_2-t_1) + (t_4-t_3) + ...]),  q even,
                         = 0,                                        q odd,

which this module both implements directly and re-estimates by simulation.

The double time integral over a piecewise-constant path collapses to a
bilinear combination of the kernel's second antiderivative Phi over the
segment boundaries,

    action = -sum_{k,l} w_k w_l Phi(x_k - x_l),   w_k = sigma_{k+1} - sigma_k,

with sigma the segment signs (0 outside [0,T]); this is exact per path, so
the only Monte Carlo noise is over paths.  As Phi is even with Phi(0) = 0,
the estimators sum -2 w_k w_l Phi(x_l - x_k) over each path's own k < l
boundary pairs, M(M-1)/2 of them for M boundaries: grouped by M, which fixes
the pairs and weights, in bounded blocks with pairs as rows and paths as
columns, so one sequential column reduction adds each path in pair order
and no path is padded to the longest one in its call.  Phi comes from the
kernel's cubic Hermite table (Kernel.phi_dense), 128 KiB up to T = 32 on
the cutoff-1 indicator, so its gathers hit cache.  Estimators run on
rng.mc_mean: each fixed group of batches draws from its own counter-keyed
stream and batches reduce in fixed order, which makes them
bit-reproducible for any worker count.

The mean and the variance of the action are exact, 2 C_1(T) and
4 C_2(T), the first two cumulant terms of log Z = sum_n c^n kappa_n / n!,
c = alpha/2; `estimate_Z` subtracts them as control variates.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimateUnreliableError
from .integrator import _order_sum, cluster_terms
from .kernel import Kernel
from .rng import mc_mean

__all__ = [
    "SpinPath",
    "MCEstimate",
    "sample_path",
    "interaction_action",
    "estimate_Z",
    "moment_closed_form",
    "estimate_moment_mc",
]

_CHUNK = 1024
_PAIR_BLOCK = 1 << 14  # pairs x paths per block of _action_chunk; bounds its buffers
_TAG_Z = 1
_TAG_MOMENT = 2
_EXP_LIMIT = 700.0
_KAPPA2_NODES = 4  # momentum_rule nodes per panel for the action variance
_MOMENTS = weakref.WeakKeyDictionary()  # kernel -> {horizon: (E[A], Var A)}; kernels are immutable


@dataclass(frozen=True)
class SpinPath:
    """One realization: initial sign and the sorted jump times on (0, horizon)."""

    initial_sign: int
    jump_times: np.ndarray
    horizon: float

    def __post_init__(self):
        if self.initial_sign not in (-1, 1):
            raise ValueError("initial_sign must be +1 or -1")
        jt = np.asarray(self.jump_times, dtype=float)
        if jt.size and (np.any(np.diff(jt) <= 0) or jt[0] <= 0 or jt[-1] >= self.horizon):
            raise ValueError("jump times must be strictly increasing inside (0, horizon)")
        object.__setattr__(self, "jump_times", jt)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    samples: int
    seed: int


def sample_path(horizon: float, rng: np.random.Generator) -> SpinPath:
    """Draw one path: sign first, then exponential(1) waits accumulated to horizon."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    sign = int(rng.integers(0, 2)) * 2 - 1
    jumps = []
    t = rng.exponential()
    while t < horizon:
        jumps.append(t)
        t += rng.exponential()
    return SpinPath(sign, np.asarray(jumps), float(horizon))


def _boundary_weights(m):
    """Boundary weights w_k = sigma_{k+1} - sigma_k of a path that starts at
    +1 and jumps m times: 1, -2, 2, ..., and +-1 at its end, m + 2 of them."""
    w = np.full(m + 2, 2.0)
    w[1::2] = -2.0
    w[0], w[-1] = 1.0, 0.5 * w[-1]
    return w


def interaction_action(path: SpinPath, kernel: Kernel) -> float:
    """Exact double integral int int X(t) X(s) h(t-s) over [0, horizon]^2."""
    x = np.concatenate([[0.0], path.jump_times, [path.horizon]])
    w = path.initial_sign * _boundary_weights(len(path.jump_times))
    diffs = np.abs(x[:, None] - x[None, :])
    return -float(np.einsum("k,l,kl->", w, w, kernel.phi(diffs)))


def _jump_matrix(rng, n, horizon):
    """Poisson jump times for n paths, padded past horizon; fixed draw layout.

    Every row is extended while any row ends before horizon.  The extra times
    of a row that already reached it fall past horizon, so each row's jumps
    come from its own draws alone, and the batches that rng.mc_mean packs
    into one call stay independent.
    """
    block = max(8, int(horizon + 10.0 * math.sqrt(horizon) + 20.0))
    times = np.cumsum(e := rng.exponential(size=(n, block)), axis=1, out=e)
    while float(times[:, -1].min()) < horizon:
        more = np.cumsum(e := rng.exponential(size=(n, block)), axis=1, out=e)
        times = np.concatenate([times, times[:, -1:] + more], axis=1)
    return times


def _action_chunk(times, horizon, phi_tab, dx):
    """Action of each path, -2 sum_{k<l} w_k w_l Phi(x_l - x_k) over its own
    boundary pairs, with Phi the cubic Hermite table phi_tab of spacing dx
    (Kernel.phi_dense).

    Paths with M boundaries share the first M(M-1)/2 pairs of one l-major
    (k, l) table and the weights w_k w_l (even in the sign), so each group
    is summed in blocks of about _PAIR_BLOCK pairs x paths (one path when it
    alone has more), pairs as rows.  A block's boundary times are scaled
    once by 1/dx (exactly only if dx is a power of two: on the form-factor
    modes and h tables whose last abscissa is one); each pair's node index
    is its scaled gap truncated, its cubic is evaluated by Horner from the
    table's four rows.  np.add.reduce(axis=0) adds the rows in order, so
    each path's pairs in order; a lone column it would add pairwise, so a
    one-path block keeps np.cumsum.  Memory is O(n m + _PAIR_BLOCK).
    """
    counts = (times < horizon).sum(axis=1)
    order = np.argsort(counts, kind="stable")
    ms, starts = np.unique(counts[order], return_index=True)
    l_idx, k_idx = np.tril_indices(int(ms[-1]) + 2, -1)  # (1, 0), (2, 0), (2, 1), ...
    out, size = np.empty(len(counts)), max(_PAIR_BLOCK, len(k_idx))
    buf, buf_i = np.empty((3, size)), np.empty(size, np.int64)  # shared by all blocks
    c3, *lower = phi_tab  # c3, then c2, c1, c0 for Horner
    for m, group in zip(ms.tolist(), np.split(order, starts[1:])):
        a = _boundary_weights(m)
        k, l = k_idx[: (m + 2) * (m + 1) // 2], l_idx[: (m + 2) * (m + 1) // 2]
        c, step = (a[k] * a[l])[:, None], max(1, _PAIR_BLOCK // len(k))
        for start in range(0, len(group), step):
            rows = group[start : start + step]
            xt = np.empty((m + 2, len(rows)))
            xt[0], xt[1:-1], xt[-1] = 0.0, times[rows, :m].T, horizon
            xt /= dx
            pos, u, phi = buf[:, : len(k) * len(rows)].reshape(3, len(k), len(rows))
            i0 = buf_i[: pos.size].reshape(pos.shape)
            np.take(xt, l, axis=0, out=pos, mode="clip")  # mode="raise" would buffer out
            pos -= np.take(xt, k, axis=0, out=u, mode="clip")
            np.copyto(i0, pos, casting="unsafe")  # truncation: pos >= 0
            np.subtract(pos, i0, out=u)
            np.take(c3, i0, out=phi, mode="clip")
            for coef in lower:
                phi *= u
                phi += np.take(coef, i0, out=pos, mode="clip")
            phi *= c
            out[rows] = np.add.reduce(phi, axis=0) if len(rows) > 1 else np.cumsum(phi)[-1]
    return -2.0 * out


def _action_moments(kernel: Kernel, horizon: float) -> tuple[float, float | None]:
    """(E[A], Var A), exact and cached per kernel and horizon: 2 C_1(T) by
    Kernel.first_order and 4 C_2(T) by integrator._order_sum at p = 2 on
    momentum_rule(_KAPPA2_NODES), or None on an h table, which has no such rule."""
    known = _MOMENTS.setdefault(kernel, {})
    if horizon not in known:
        try:
            kappa2 = 4.0 * math.fsum(
                _order_sum(kernel, term, horizon, _KAPPA2_NODES)[0] for term in cluster_terms(2))
        except ConfigError:
            kappa2 = None
        known[horizon] = 2.0 * kernel.first_order(horizon)[0], kappa2
    return known[horizon]


def estimate_Z(
    alpha: float,
    horizon: float,
    kernel: Kernel,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of Z(alpha, horizon) with batch-means error bars.

    With c = alpha/2, the exact mean action A_bar (_action_moments) and
    x = c(A - A_bar), each path contributes e^x - x - (x^2 - c^2 kappa_2)/2,
    whose mean is e^{-c A_bar} Z because E[x] = 0 and E[x^2] = c^2 kappa_2;
    the batch-means value and error are then scaled by e^{c A_bar}.  These
    are the control variates x and x^2 with fixed coefficients (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2004, 4.1), on the draws
    of the plain average of e^{cA}.  kappa_2 = Var A = 4 C_2(T) is the p = 2
    endpoint-order quadrature (_action_moments) at 4 Gauss-Legendre nodes
    per momentum panel, so the estimate is biased by at most
    e^{c A_bar} (c^2/2) |delta kappa_2| for that rule's error delta kappa_2:
    1.1e-12 at T = 30, alpha = R_min/2 on the cutoff-1 indicator, where the
    error is 1.1e-8.  An h table has no momentum measure: there each path
    contributes e^x - x.  Against the first-order term alone the variance
    falls 1.2e4x at that point (2048 paths, rms error over 30 seeds); the
    gain shrinks with the third-order term left, to 1.2x at 64 R_min
    (BENCH_second_order_cv.json, z_variance_30_seeds).  Raises
    EstimateUnreliableError once |cA| passes 700.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    phi_tab, dx = kernel.phi_dense(horizon)
    c = 0.5 * alpha
    mean, kappa2 = _action_moments(kernel, horizon)
    c_mean = c * mean

    def draw(rng, runs):
        n = sum(runs)
        rng.integers(0, 2, size=n)  # initial signs, unused (A is even in them): keeps later draws
        times = _jump_matrix(rng, n, horizon)
        expo = c * _action_chunk(times, horizon, phi_tab, dx)
        if float(np.max(np.abs(expo))) > _EXP_LIMIT:
            raise EstimateUnreliableError(
                "exp overflow in Z estimate: alpha * horizon too large"
            )
        centred = expo - c_mean
        return np.exp(centred) - centred - (
            0.0 if kappa2 is None else 0.5 * (centred * centred - c * c * kappa2))

    value, se = mc_mean(draw, samples, _CHUNK, seed, _TAG_Z, workers=workers)
    scale = math.exp(c_mean)
    return MCEstimate(scale * value, scale * se, samples, seed)


def _increasing_times(times) -> np.ndarray:
    """times as a float array: 1-d, at least one, strictly increasing."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("need a 1-D tuple of at least one time")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    return t


def moment_closed_form(times) -> float:
    """E[X(t_1)...X(t_q)] for strictly increasing times: exp of -2 times the
    sum of consecutive-pair gaps for even q, zero for odd q."""
    t = _increasing_times(times)
    if t.size % 2 == 1:
        return 0.0
    gaps = t[1::2] - t[0::2]
    return float(np.exp(-2.0 * gaps.sum()))


def estimate_moment_mc(times, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo average of prod_i X(t_i) over simulated paths."""
    t = _increasing_times(times)
    if t[0] < 0.0:
        raise ValueError("times must be >= 0: the process starts at 0")
    horizon = float(t[-1])
    q = t.size

    def draw(rng, runs):
        n = sum(runs)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        jumps = _jump_matrix(rng, n, horizon)
        flips = np.zeros(n, dtype=np.int64)
        for ti in t:
            flips += (jumps <= ti).sum(axis=1)
        parity = 1.0 - 2.0 * (flips % 2)
        return parity * (signs if q % 2 else 1.0)

    value, se = mc_mean(draw, samples, 8 * _CHUNK, seed, _TAG_MOMENT, workers=workers)
    return MCEstimate(value, se, samples, seed)
