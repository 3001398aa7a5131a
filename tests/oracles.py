"""Reference implementations that the tests compare the library against.

The library integrates the interpolation parameters v exactly
(ClusterTerm.weight); these keep v resolved, pair by pair, so the exact
v-integral can be checked against the integrand it integrates.
"""

import numpy as np

from spinboson.combinatorics import ForestSelection, _norm_edge
from spinboson.integrator import ClusterTerm
from spinboson.integrator import term_integrand as exact_term_integrand
from spinboson.kernel import Kernel


def overlap_matrix(starts, ends):
    """Closed-interval overlap booleans, shape (..., p, p)."""
    s1 = starts[..., :, None]
    e1 = ends[..., :, None]
    s2 = starts[..., None, :]
    e2 = ends[..., None, :]
    return (s1 <= e2) & (s2 <= e1)


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
    for i, j in term.forest_pairs:
        value = value * ov[..., i, j]
    value = value * term.sign
    for i, j in term.block_pairs:
        value = np.where(ov[..., i, j], 0.0, value)
    v = np.asarray(v, dtype=float)
    if scalar and v.ndim == 1:
        v = v[None, :]
    for (i, j), spec in term.path_pairs:
        r = np.min(v[..., list(spec)], axis=-1)
        value = value * np.where(ov[..., i, j], 1.0 - r, 1.0)
    return float(value[0]) if scalar else value
