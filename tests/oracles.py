"""Reference implementations that the tests compare the library against.

The library integrates the interpolation parameters v exactly
(ClusterTerm.weight); these keep v resolved, pair by pair, so the exact
v-integral can be checked against the integrand it integrates.

The finite-T Monte Carlo draws work column by column in the library; the
row-wise references below (np.sort, sum(axis=1) and the stacked (n, 2p)
endpoint matrix) read the same streams, the same windowed displacements
and the same h table, so their outputs must be the library's bit for bit.

`hermite_phi` evaluates Kernel.phi_dense's cubic Hermite table one gap at a
time, with the arithmetic jump_process._action_chunk uses on its blocks.
"""

import math

import numpy as np

from spinboson.combinatorics import ForestSelection, _norm_edge
from spinboson.integrator import _MC_CHUNK, _TAG_BRUTE, ClusterTerm
from spinboson.integrator import term_integrand as exact_term_integrand
from spinboson.kernel import Kernel
from spinboson.rng import _kronecker, mc_mean


def hermite_phi(phi_tab, pos):
    """Phi at pos dx >= 0 from the table (c3, c2, c1, c0) of node spacing dx:
    node i = trunc(pos), u = pos - i, ((c3 u + c2) u + c1) u + c0."""
    i = np.asarray(pos).astype(np.int64)
    u = pos - i
    c3, c2, c1, c0 = phi_tab[:, i]
    return ((c3 * u + c2) * u + c1) * u + c0


def overlap_matrix(starts, ends):
    """Closed-interval overlap booleans, shape (..., p, p)."""
    s1 = starts[..., :, None]
    e1 = ends[..., :, None]
    s2 = starts[..., None, :]
    e2 = ends[..., None, :]
    return (s1 <= e2) & (s2 <= e1)


def overlap_code(selection: ForestSelection, overlap) -> int:
    """Overlap-pattern code of the path pairs read from an overlap matrix:
    bit k is set when selection.path_pairs[k] overlaps."""
    return sum(int(overlap[i][j]) << k for k, ((i, j), _) in enumerate(selection.path_pairs))


def interpolated_coupling(selection: ForestSelection, v, pair) -> float:
    """The coupling r(F, v) for a base-pair pair not in the selection."""
    i, j = _norm_edge(*pair)
    vs = np.asarray(v, dtype=float)
    if vs.shape != (len(selection.micro_edges),):
        raise ValueError("v must assign one value per selected edge")
    if np.any((vs < 0) | (vs > 1)):
        raise ValueError("interpolation parameters must lie in [0, 1]")
    if (i, j) in selection.micro_edges:
        raise ValueError("selected edges carry the derivative factor, not a coupling")
    x, y = selection.blocks.block_of[i], selection.blocks.block_of[j]
    if x == y:
        return 1.0
    path = selection.hat_path(x, y)
    if path is None:
        return 0.0
    return float(min(vs[e] for e in path))


def term_integrand(kernel: Kernel, term: ClusterTerm, t, v=None):
    """Evaluate the signed integrand at times t (..., 2p).

    With v=None this is the library's integrand, integrated exactly over v;
    otherwise v (..., |F|) gives one interpolation parameter per selected
    edge and the v-resolved integrand is returned.
    """
    if v is None:
        return exact_term_integrand(kernel, term, t)
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
    ov = overlap_matrix(starts, ends)
    for i, j in term.selection.micro_edges:
        value = value * ov[..., i, j]
    value = value * term.sign
    for i, j in term.selection.block_pairs:
        value = np.where(ov[..., i, j], 0.0, value)
    v = np.asarray(v, dtype=float)
    if scalar and v.ndim == 1:
        v = v[None, :]
    for (i, j), spec in term.selection.path_pairs:
        r = np.min(v[..., list(spec)], axis=-1)
        value = value * np.where(ov[..., i, j], 1.0 - r, 1.0)
    return float(value[0]) if scalar else value


def raw_series_draw(kernel: Kernel, p: int, horizon: float):
    """The per-sample raw-series quantity of brute_force_coefficient on the
    same shifted Kronecker times and the same h table over [0, T], with the
    moment on the np.sort-ed times summed by sum(axis=1)."""

    h = kernel._h_dense(horizon)

    def draw(rng, runs):
        t = horizon * _kronecker(rng, runs, 2 * p)
        hprod = np.ones(len(t))
        for factor in h(t[:, 1::2] - t[:, 0::2]).T:
            hprod *= factor
        ts = np.sort(t, axis=1)
        return hprod * np.exp(-2.0 * (ts[:, 1::2] - ts[:, 0::2]).sum(axis=1))

    return draw


def raw_series_coefficient(kernel: Kernel, p: int, horizon: float, budget: int, seed: int,
                           workers: int = 1):
    """(value, error) of the raw-series coefficient on brute_force_coefficient's
    streams, drawn by raw_series_draw."""
    scale = 0.5**p * horizon ** (2 * p) / math.factorial(p)
    mean, err = mc_mean(raw_series_draw(kernel, p, horizon), budget, _MC_CHUNK, seed,
                        _TAG_BRUTE, workers=workers)
    return mean * scale, err * scale


def mc_chunk(kernel: Kernel, term: ClusterTerm, rng, n: int, horizon):
    """The per-sample values of integrator._mc_chunk from the same draws, with
    the deleted-edge factors gathered from the stacked (n, 2p) endpoints.
    At a finite horizon each draw is confined to [0, T] as the library's:
    the endpoint t of a pair j lies in [o_j, o_j + room_j], o_j its offset
    from the start (0 or the length), room_j = (T - l_j)+, and the deleted
    factors read the h table over [0, T]."""
    p = term.p
    lengths = rng.exponential(0.5, size=(n, p))
    s = np.zeros((n, p))
    weight = np.full(n, 0.5**p)
    if horizon is not None:
        room = np.maximum(horizon - lengths, 0.0)
        s[:, term.pin_pair] = rng.random(n) * room[:, term.pin_pair]
        weight *= room[:, term.pin_pair]
    for child, parent, kind, cpt, ppt in term.opened.steps:
        if kind == "h":
            t_parent = s[:, parent] + (lengths[:, parent] if ppt % 2 else 0.0)
            offset = lengths[:, child] if cpt % 2 else 0.0
            if horizon is None:
                d, prob = kernel.displacement(rng, n)
                s[:, child] = t_parent + d - offset
            else:
                d, prob = kernel.displacement(rng, n, offset - t_parent,
                                              offset - t_parent + room[:, child])
                s[:, child] = np.clip(t_parent + d - offset, 0.0, room[:, child])
            weight *= kernel.norm_l1 * prob
        else:
            lo, span = s[:, parent] - lengths[:, child], lengths[:, child] + lengths[:, parent]
            if horizon is not None:
                lo = np.maximum(lo, 0.0)
                span = np.clip(np.minimum(s[:, parent] + lengths[:, parent], room[:, child]) - lo,
                               0.0, None)
            s[:, child] = lo + rng.random(n) * span
            weight *= span
    t = np.stack([s, s + lengths], axis=2).reshape(n, 2 * p)
    a, b = np.array(term.opened.deleted_edges).T
    h = kernel.h if horizon is None else kernel._h_dense(horizon)
    for factor in h(t[:, a] - t[:, b]).T:
        weight *= factor
    return term.sign * weight * term.weight(s, s + lengths)
