import math

import numpy as np
import pytest
from scipy import integrate

from spinboson.combinatorics import base_matching, enumerate_forest_selections, forest_volume
from spinboson.errors import ResourceError, StructureError
from spinboson.integrator import (
    ClusterTerm,
    brute_force_coefficient,
    cluster_terms,
    coefficient,
    integrate_term,
    term_integrand,
)
from spinboson.rng import stream

CROSS_A = ((0, 2), (1, 3))


def _single_term(p):
    m = base_matching(p)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    return ClusterTerm(m, sel)


def test_term_census():
    assert len(cluster_terms(1)) == 1
    assert len(cluster_terms(2)) == 3
    assert len(cluster_terms(3)) == 23


def test_order2_term_signs(indicator_kernel):
    # one negative selected-edge term plus two positive hardcore terms
    _, per_term = coefficient(
        indicator_kernel, 2, method="mc", budget=20_000, seed=14, per_term=True
    )
    signs = sorted(np.sign(e.value) for e in per_term)
    assert signs == [-1.0, 1.0, 1.0]


def test_term_integrand_p1(indicator_kernel):
    term = _single_term(1)
    for s in (0.2, 1.0, 3.7):
        want = math.exp(-2 * s) * float(indicator_kernel.h(s))
        assert term_integrand(indicator_kernel, term, np.array([0.0, s])) == pytest.approx(
            want, rel=1e-12
        )
    # ordering indicator kills reversed pairs
    assert term_integrand(indicator_kernel, term, np.array([0.5, 0.2])) == 0.0


def test_term_integrand_sign(indicator_kernel):
    term = _single_term(2)  # base matching with one selected overlap edge
    t = np.array([0.0, 1.0, 0.5, 1.5])  # overlapping intervals
    assert term.sign == -1.0
    assert term_integrand(indicator_kernel, term, t) < 0
    # non-overlapping: the selected-edge factor vanishes
    t2 = np.array([0.0, 1.0, 2.0, 3.0])
    assert term_integrand(indicator_kernel, term, t2) == 0.0


def test_term_integrand_translation_invariance(indicator_kernel):
    rng = stream(55, 0)
    for term in cluster_terms(3)[:6]:
        starts = rng.uniform(-2, 2, size=3)
        lengths = rng.exponential(0.7, size=3) + 1e-3
        t = np.empty(6)
        t[0::2] = starts
        t[1::2] = starts + lengths
        v = rng.random(term.q) if term.q else None
        a = term_integrand(indicator_kernel, term, t, v=v)
        b = term_integrand(indicator_kernel, term, t + 13.7, v=v)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-15)


def test_pinned_c1_quadrature_and_mc(indicator_kernel):
    # independent oracle: adaptive quadrature of exp(-2t) h(t) with the closed form
    oracle, _ = integrate.quad(
        lambda t: math.exp(-2 * t) * 4 * math.pi * (1 - math.exp(-t) * (1 + t)) / t**2,
        1e-12, np.inf, epsrel=1e-11, limit=400,
    )
    quad_est = coefficient(indicator_kernel, 1, method="quad")
    assert quad_est.value == pytest.approx(oracle, rel=1e-8)
    mc_est = coefficient(indicator_kernel, 1, method="mc", budget=400_000, seed=12)
    assert abs(mc_est.value - oracle) < 3 * mc_est.statistical_error


def test_zero_kernel_coefficients_vanish(zero_kernel):
    assert coefficient(zero_kernel, 1, method="quad").value == 0.0
    assert coefficient(zero_kernel, 2, method="mc", budget=2_000, seed=1).value == 0.0
    assert brute_force_coefficient(zero_kernel, 1, 3.0, budget=2_000, seed=1).value == 0.0


def test_pinned_p2_overlap_term_against_reduction(indicator_kernel):
    # The base-matching term with the selected overlap edge reduces exactly to
    # -int int (l1 + l2) e^{-2(l1+l2)} h(l1) h(l2) dl1 dl2 (position integral
    # is the window length); compare the generic nested quadrature against it.
    m = base_matching(2)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    term = ClusterTerm(m, sel)
    est = integrate_term(indicator_kernel, term, method="quad")
    f = lambda l: math.exp(-2 * l) * float(indicator_kernel.h(l))
    a, _ = integrate.quad(f, 0, np.inf, epsrel=1e-10, limit=300)
    b, _ = integrate.quad(lambda l: l * f(l), 0, np.inf, epsrel=1e-10, limit=300)
    want = -2.0 * a * b
    assert est.value == pytest.approx(want, rel=2e-6)
    assert est.value < 0
    mc = integrate_term(indicator_kernel, term, method="mc", budget=300_000, seed=3)
    assert abs(mc.value - want) < 3 * mc.statistical_error + 1e-6 * abs(want)


def test_pinned_p2_quadrature_vs_mc_all_terms(indicator_kernel):
    for idx, term in enumerate(cluster_terms(2)):
        quad_est = integrate_term(indicator_kernel, term, method="quad")
        mc_est = integrate_term(
            indicator_kernel, term, method="mc", budget=400_000, seed=31, term_index=idx
        )
        tol = 3 * mc_est.statistical_error + 1e-6 * abs(quad_est.value)
        assert abs(quad_est.value - mc_est.value) < tol


def test_pinning_point_independence_p2(indicator_kernel):
    a = coefficient(indicator_kernel, 2, method="quad", pin_pair=0)
    b = coefficient(indicator_kernel, 2, method="quad", pin_pair=1)
    assert a.value == pytest.approx(b.value, rel=3e-6)


def test_finite_c1_against_2d_quadrature(indicator_kernel):
    T = 3.0
    oracle, _ = integrate.dblquad(
        lambda t2, t1: float(indicator_kernel.h(t2 - t1)) * math.exp(-2 * (t2 - t1)),
        0.0, T, lambda t1: t1, lambda t1: T, epsabs=1e-10, epsrel=1e-9,
    )
    est = coefficient(indicator_kernel, 1, mode="finite", horizon=T, method="quad")
    assert est.value == pytest.approx(oracle, rel=1e-6)
    mc = coefficient(indicator_kernel, 1, mode="finite", horizon=T, method="mc",
                     budget=400_000, seed=8)
    assert abs(mc.value - oracle) < 3 * mc.statistical_error


def test_finite_p2_quadrature_vs_mc(indicator_kernel):
    T = 2.0
    quad_est = coefficient(indicator_kernel, 2, mode="finite", horizon=T, method="quad")
    mc_est = coefficient(indicator_kernel, 2, mode="finite", horizon=T, method="mc",
                         budget=400_000, seed=9)
    tol = 3 * mc_est.statistical_error + 2e-6 * abs(quad_est.value)
    assert abs(quad_est.value - mc_est.value) < tol


def test_brute_force_p1_matches_quadrature(indicator_kernel):
    T = 3.0
    est = brute_force_coefficient(indicator_kernel, 1, T, budget=600_000, seed=5)
    quad_est = coefficient(indicator_kernel, 1, mode="finite", horizon=T, method="quad")
    assert abs(est.value - quad_est.value) < 3 * est.statistical_error


def test_resummation_orders_2_and_3(indicator_kernel):
    # raw Taylor coefficients of Z(alpha, T) against the exponential of the
    # connected coefficients: z2 = C2/2 + C1^2/2 and z3 = C3/6 + C1 C2/2 + C1^3/6
    T = 2.0
    c1 = coefficient(indicator_kernel, 1, mode="finite", horizon=T, method="quad")
    c2 = coefficient(indicator_kernel, 2, mode="finite", horizon=T, method="mc",
                     budget=250_000, seed=41)
    c3 = coefficient(indicator_kernel, 3, mode="finite", horizon=T, method="mc",
                     budget=60_000, seed=42)
    z2 = brute_force_coefficient(indicator_kernel, 2, T, budget=2_000_000, seed=43)
    z3 = brute_force_coefficient(indicator_kernel, 3, T, budget=2_000_000, seed=44)

    want2 = c2.value / 2 + c1.value**2 / 2
    err2 = math.sqrt(z2.statistical_error**2 + (c2.statistical_error / 2) ** 2)
    assert abs(z2.value - want2) < 3 * err2

    want3 = c3.value / 6 + c1.value * c2.value / 2 + c1.value**3 / 6
    err3 = math.sqrt(
        z3.statistical_error**2
        + (c3.statistical_error / 6) ** 2
        + (c1.value * c2.statistical_error / 2) ** 2
    )
    assert abs(z3.value - want3) < 3 * err3


def _proposal_density(kernel, term, lengths, starts):
    """Density of the tree-guided proposal at a sampled configuration."""
    dens = np.prod(2.0 * np.exp(-2.0 * lengths), axis=1)
    t = np.empty((lengths.shape[0], 2 * term.p))
    t[:, 0::2] = starts
    t[:, 1::2] = starts + lengths
    for child, parent, kind, cpt, ppt in term.opened.steps:
        if kind == "h":
            disp = t[:, cpt] - t[:, ppt]
            dens *= kernel.h(disp) / kernel.norm_l1
        else:
            dens *= 1.0 / (lengths[:, child] + lengths[:, parent])
    return dens, t


def test_mc_weights_reproduce_integrand(indicator_kernel):
    # per-sample identity: estimator value times proposal density equals the
    # exact integrand, so importance weights cannot be silently wrong
    from spinboson.integrator import _overlap_matrix, _sample_chunk

    rng_master = stream(91, 0)
    terms = cluster_terms(2) + cluster_terms(3)[:8]
    terms += [t for t in cluster_terms(4) if t.q == 3][:2]  # three-edge forests
    for idx, term in enumerate(terms):
        n = 64
        lengths, starts, weight = _sample_chunk(
            indicator_kernel, term, stream(92, idx), n, None
        )
        dens, t = _proposal_density(indicator_kernel, term, lengths, starts)
        ov = _overlap_matrix(starts, starts + lengths)
        hard = np.ones(n)
        for i, j in term.block_pairs:
            hard *= ~ov[:, i, j]
        v = rng_master.random((n, term.q)) if term.q else None
        path_factor = np.ones(n)
        for (i, j), spec in term.path_pairs:
            r = np.min(v[:, list(spec)], axis=1)
            path_factor *= np.where(ov[:, i, j], 1.0 - r, 1.0)
        lhs = term.sign * weight * hard * path_factor * dens
        rhs = term_integrand(indicator_kernel, term, t, v=v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)


def test_mc_weights_reproduce_integrand_finite(indicator_kernel):
    from spinboson.integrator import _overlap_matrix, _sample_chunk

    T = 4.0
    term = cluster_terms(2)[1]  # crossing matching, hardcore pair
    n = 128
    lengths, starts, weight = _sample_chunk(indicator_kernel, term, stream(93, 0), n, T)
    dens, t = _proposal_density(indicator_kernel, term, lengths, starts)
    dens /= T  # uniform root position over [0, T]
    ov = _overlap_matrix(starts, starts + lengths)
    hard = (~ov[:, 0, 1]).astype(float)
    box = np.all((starts >= 0) & (starts + lengths <= T), axis=1)
    lhs = term.sign * weight * hard * box * dens
    rhs = term_integrand(indicator_kernel, term, t) * box
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)


def test_pinned_c3_matches_finite_horizon_slope(indicator_kernel):
    # The finite-horizon coefficient grows like T * c_p plus an O(1) boundary
    # deficit, so a horizon difference isolates the pinned value.
    c3 = coefficient(indicator_kernel, 3, method="mc", budget=150_000, seed=70)
    lo = coefficient(indicator_kernel, 3, mode="finite", horizon=20.0, method="mc",
                     budget=100_000, seed=71)
    hi = coefficient(indicator_kernel, 3, mode="finite", horizon=40.0, method="mc",
                     budget=100_000, seed=72)
    slope = (hi.value - lo.value) / 20.0
    sigma = math.sqrt(
        c3.statistical_error**2
        + (hi.statistical_error / 20.0) ** 2
        + (lo.statistical_error / 20.0) ** 2
    )
    assert abs(slope - c3.value) < 3 * sigma


def test_pipeline_on_tabulated_kernels(indicator_kernel):
    # radial form-factor table reproducing the sharp cutoff: same coefficients
    from spinboson.kernel import KernelSpec, build_kernel

    radial = build_kernel(KernelSpec.radial_table([[0.0, 1.0], [1.0, 1.0]]))
    for p in (1, 2):
        a = coefficient(indicator_kernel, p, method="quad")
        b = coefficient(radial, p, method="quad")
        assert b.value == pytest.approx(a.value, rel=1e-5)


def _naive_integrand(kernel, term, t, v):
    """From-scratch integrand: queries the coupling op instead of the
    compiled pair classes."""
    from spinboson.combinatorics import interpolated_coupling

    p = term.p
    starts, ends = t[0::2], t[1::2]
    if np.any(ends <= starts):
        return 0.0
    val = math.exp(-2.0 * float(np.sum(ends - starts)))
    for a, b in term.matching:
        val *= float(kernel.h(t[a] - t[b]))
    micro = set(term.selection.micro_edges)
    for i in range(p):
        for j in range(i + 1, p):
            ov = (starts[i] <= ends[j]) and (starts[j] <= ends[i])
            if (i, j) in micro:
                val *= -1.0 if ov else 0.0
            else:
                r = interpolated_coupling(term.selection, v, (i, j))
                val *= 1.0 - r * ov
    return val


def test_term_integrand_against_naive_reimplementation(indicator_kernel):
    rng = stream(95, 0)
    terms = cluster_terms(3) + [t for t in cluster_terms(4) if t.q >= 2][:6]
    for term in terms:
        for _ in range(6):
            starts = rng.uniform(-1.5, 1.5, size=term.p)
            lengths = rng.exponential(0.8, size=term.p) + 1e-3
            t = np.empty(2 * term.p)
            t[0::2] = starts
            t[1::2] = starts + lengths
            v = rng.random(term.q)
            got = term_integrand(indicator_kernel, term, t, v=v)
            want = _naive_integrand(indicator_kernel, term, t, v)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_exact_v_integrand_uses_forest_volume(indicator_kernel):
    # v = 0 switches every path coupling off, leaving the rest of the integrand;
    # the exact v-integral must then be that times forest_volume of the sample
    from spinboson.integrator import _overlap_matrix

    rng = stream(96, 0)
    terms = [t for t in cluster_terms(4) if t.path_pairs]
    for term in terms[::7] + [t for t in terms if t.q == 3][:4]:
        starts = rng.uniform(-1.5, 1.5, size=(16, term.p))
        lengths = rng.exponential(0.8, size=(16, term.p)) + 1e-3
        t = np.empty((16, 2 * term.p))
        t[:, 0::2] = starts
        t[:, 1::2] = starts + lengths
        got = term_integrand(indicator_kernel, term, t)
        rest = term_integrand(indicator_kernel, term, t, v=np.zeros((16, term.q)))
        ov = _overlap_matrix(starts, starts + lengths)
        want = [r * forest_volume(term.selection, o) for r, o in zip(rest, ov)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert term_integrand(indicator_kernel, term, t[3]) == got[3]


def test_quadrature_budget_warning(indicator_kernel):
    term = cluster_terms(2)[1]
    est = integrate_term(indicator_kernel, term, method="quad", budget=10)
    assert est.warning == "evaluation budget exceeded"


def test_mc_deterministic_across_workers(indicator_kernel):
    a = coefficient(indicator_kernel, 2, method="mc", budget=30_000, seed=6, workers=1)
    b = coefficient(indicator_kernel, 2, method="mc", budget=30_000, seed=6, workers=3)
    assert (a.value, a.statistical_error) == (b.value, b.statistical_error)


def test_non_connecting_term_rejected(indicator_kernel):
    m = base_matching(2)
    empty = [s for s in enumerate_forest_selections(m) if not s.micro_edges][0]
    with pytest.raises(StructureError):
        integrate_term(indicator_kernel, ClusterTerm(m, empty), method="mc", budget=10)


def test_quadrature_capped_at_p2(indicator_kernel):
    with pytest.raises(ResourceError):
        coefficient(indicator_kernel, 3, method="quad")


def test_brute_force_capped(indicator_kernel):
    with pytest.raises(ResourceError):
        brute_force_coefficient(indicator_kernel, 4, 2.0, budget=10)
