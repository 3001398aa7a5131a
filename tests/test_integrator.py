import math
import threading

import numpy as np
import pytest
from scipy import integrate

from spinboson.combinatorics import base_matching, enumerate_forest_selections, forest_volume
from spinboson.errors import ConfigError, ResourceError, StructureError
from spinboson.integrator import (
    ClusterTerm,
    _exp_divided_difference,
    _mc_chunk,
    brute_force_coefficient,
    cluster_terms,
    coefficient,
    integrate_term,
)
from spinboson.kernel import Kernel, KernelSpec, build_kernel
from spinboson.rng import stream

from oracles import (
    interpolated_coupling,
    mc_chunk,
    overlap_code,
    overlap_matrix,
    raw_series_coefficient,
    raw_series_draw,
    term_integrand,
)

CROSS_A = ((0, 2), (1, 3))
FOUR_PIECES = [[0.25, 0.6], [0.5, 1.0], [1.0, 0.8], [1.6, 0.3], [2.2, 0.5]]


@pytest.fixture(scope="module")
def radial_kernel():
    return build_kernel(KernelSpec.radial_table(FOUR_PIECES))


def _single_term(p):
    m = base_matching(p)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    return ClusterTerm(m, sel)


def test_term_census():
    assert len(cluster_terms(1)) == 1
    assert len(cluster_terms(2)) == 3
    assert len(cluster_terms(3)) == 23


def test_cluster_terms_classify_pairs_on_first_use(indicator_kernel):
    # enumeration leaves the pair classes unset; the first use fills both together
    terms = cluster_terms(4)
    assert not any({"block_pairs", "path_pairs"} & set(vars(t.selection)) for t in terms)
    picks = (0, 97, 194, 291)
    for k in picks:
        eager = cluster_terms(4)[k]
        _ = eager.selection.path_pairs
        assert {"block_pairs", "path_pairs"} <= set(vars(eager.selection))
        a = integrate_term(indicator_kernel, terms[k], budget=300, seed=4, term_index=k)
        b = integrate_term(indicator_kernel, eager, budget=300, seed=4, term_index=k)
        assert {"block_pairs", "path_pairs"} <= set(vars(terms[k].selection))
        assert (a.value, a.statistical_error) == (b.value, b.statistical_error)
    untouched = [t for k, t in enumerate(terms) if k not in picks]
    assert not any({"block_pairs", "path_pairs"} & set(vars(t.selection)) for t in untouched)


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


def test_zero_kernel_checks_the_method_and_order_first(zero_kernel):
    # a zero kernel makes every term 0, but an unknown method and quadrature
    # past p = 2 are refused on it as on any other kernel
    with pytest.raises(ValueError, match="method must be"):
        integrate_term(zero_kernel, cluster_terms(1)[0], method="bogus")
    with pytest.raises(ResourceError, match="p <= 2"):
        coefficient(zero_kernel, 3, method="quad")


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


@pytest.mark.parametrize("horizon", [None, 5.0])
def test_mc_c2_rooted_at_pair_1_matches_quadrature(indicator_kernel, horizon):
    # the quadrature route ignores pin_pair; Monte Carlo roots its sampling tree there
    mode = "pinned" if horizon is None else "finite"
    quad = coefficient(indicator_kernel, 2, mode=mode, horizon=horizon, method="quad")
    mc = coefficient(indicator_kernel, 2, mode=mode, horizon=horizon, method="mc",
                     budget=200_000, seed=5, pin_pair=1)
    assert abs(mc.value - quad.value) < 3 * mc.statistical_error


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


def test_raw_series_error_is_calibrated(indicator_kernel):
    # Each raw-series batch is one shifted Kronecker run, so the batch means
    # are independent and the batch-means error must be honest.  Over K = 400
    # seeds at T = 3 and budget 10,000 (100 runs of 100 points), the z-scores
    # of z_1 against quadrature C_1 and of z_2 against C_2/2 + C_1^2/2 (both
    # by quadrature, exact to 1e-11 relative) follow the t law with 99
    # degrees of freedom, sd 1.01.  Their mean has sd 1/sqrt(400) = 0.05, so
    # +-0.25 is 5 sds; their sd has a relative sd of 1/sqrt(2 K) = 3.5%, so
    # [0.85, 1.15] is 4 sds either side.  The spread of the 400 values is
    # their variance, with relative sd sqrt(2/399) = 7.1%, against the mean
    # SE^2 (relative sd 0.7%): 0.3 is 4 sds.
    T, budget, K = 3.0, 10_000, 400
    c1 = coefficient(indicator_kernel, 1, mode="finite", horizon=T, method="quad").value
    c2 = coefficient(indicator_kernel, 2, mode="finite", horizon=T, method="quad").value
    for p, want in [(1, c1), (2, c2 / 2 + c1**2 / 2)]:
        runs = [brute_force_coefficient(indicator_kernel, p, T, budget=budget, seed=s)
                for s in range(K)]
        values = np.array([r.value for r in runs])
        se = np.array([r.statistical_error for r in runs])
        z = (values - want) / se
        assert abs(z.mean()) <= 0.25, (p, z.mean())
        assert 0.85 <= z.std(ddof=1) <= 1.15, (p, z.std(ddof=1))
        assert abs(values.var(ddof=1) / np.mean(se**2) - 1.0) < 0.3


def test_finite_cluster_error_is_calibrated(indicator_kernel):
    # The finite-horizon cluster terms draw every configuration inside the
    # box, with weights that depend on the drawn windows; their batch-means
    # error must stay honest.  Over K = 300 seeds at budget 10,000 (100
    # batches of 100 per term), the z-scores of c_1 and c_2 at T = 2 and 5
    # against quadrature (exact to 1e-11 relative) follow the t law with 99
    # degrees of freedom, sd 1.01.  Their mean has sd 1/sqrt(300) = 0.058,
    # so +-0.25 is 4.3 sds; their sd has a relative sd of 1/sqrt(2 K) =
    # 4.1%, so [0.85, 1.15] is 3.7 sds either side; the spread of the
    # values against the mean SE^2 has relative sd sqrt(2/299) = 8.2%, so
    # 0.3 is 3.7 sds.  Measured: means -0.09 to 0.00, sds 0.99 to 1.04.
    K, budget = 300, 10_000
    for T in (2.0, 5.0):
        for p in (1, 2):
            want = coefficient(indicator_kernel, p, mode="finite", horizon=T, method="quad").value
            runs = [coefficient(indicator_kernel, p, mode="finite", horizon=T, method="mc",
                                budget=budget, seed=s) for s in range(K)]
            values = np.array([r.value for r in runs])
            se = np.array([r.statistical_error for r in runs])
            z = (values - want) / se
            assert abs(z.mean()) <= 0.25, (T, p, z.mean())
            assert 0.85 <= z.std(ddof=1) <= 1.15, (T, p, z.std(ddof=1))
            assert abs(values.var(ddof=1) / np.mean(se**2) - 1.0) < 0.3, (T, p)


def test_raw_series_loads_no_scipy():
    # the raw series draws its points in the repo, with no scipy.stats.qmc
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from spinboson.integrator import brute_force_coefficient\n"
        "from spinboson.kernel import KernelSpec, build_kernel\n"
        "ker = build_kernel(KernelSpec.indicator(1.0))\n"
        "for p in (1, 2, 3):\n"
        "    brute_force_coefficient(ker, p, 5.0, budget=20_000, seed=p)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    assert out.stdout.rstrip().endswith("[]")


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
    from spinboson.integrator import _sample_chunk

    rng_master = stream(91, 0)
    terms = cluster_terms(2) + cluster_terms(3)[:8]
    terms += [t for t in cluster_terms(4) if t.q == 3][:2]  # three-edge forests
    for idx, term in enumerate(terms):
        n = 64
        lengths, starts, weight = _sample_chunk(
            indicator_kernel, term, stream(92, idx), n, None
        )
        dens, t = _proposal_density(indicator_kernel, term, lengths, starts)
        ov = overlap_matrix(starts, starts + lengths)
        hard = np.ones(n)
        for i, j in term.selection.block_pairs:
            hard *= ~ov[:, i, j]
        v = rng_master.random((n, term.q)) if term.q else None
        path_factor = np.ones(n)
        for (i, j), spec in term.selection.path_pairs:
            r = np.min(v[:, list(spec)], axis=1)
            path_factor *= np.where(ov[:, i, j], 1.0 - r, 1.0)
        lhs = term.sign * weight * hard * path_factor * dens
        rhs = term_integrand(indicator_kernel, term, t, v=v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)


def _laplace_mass(k, lo, hi):
    """Mass of the Laplace law of rate k on [lo, hi], from its CDF."""
    cdf = [np.where(x < 0, 0.5 * np.exp(k * x), 1.0 - 0.5 * np.exp(-k * x)) for x in (lo, hi)]
    return cdf[1] - cdf[0]


def _box_proposal_density(kernel, term, lengths, starts, horizon, momenta):
    """Density of the finite-horizon proposal at a sampled configuration,
    and the factor it leaves on the integrand: 1 on an h table, whose
    windowed draw has density h(d) / (norm_l1 P), P the window's share of
    norm_l1 from psi; given the momentum k of each kernel edge on the
    form-factor modes, where the draw has the truncated Laplace density
    (k/2) e^{-k|d|} / P_k and the factor is (k/2) e^{-k|d|} norm_l1 / h(d)."""
    room = np.maximum(horizon - lengths, 0.0)
    dens = np.prod(2.0 * np.exp(-2.0 * lengths), axis=1) / room[:, term.pin_pair]
    factor = np.ones(len(lengths))
    t = np.empty((lengths.shape[0], 2 * term.p))
    t[:, 0::2] = starts
    t[:, 1::2] = starts + lengths
    for child, parent, kind, cpt, ppt in term.opened.steps:
        if kind == "h":
            disp = t[:, cpt] - t[:, ppt]
            lo = (lengths[:, child] if cpt % 2 else 0.0) - t[:, ppt]
            hi = lo + room[:, child]
            if kernel.spec.mode == "h_table":
                prob = (kernel.psi(hi) - kernel.psi(lo)) / kernel.norm_l1
                dens *= kernel.h(disp) / kernel.norm_l1 / prob
            else:
                k = momenta.pop(0)
                laplace = 0.5 * k * np.exp(-k * np.abs(disp))
                dens *= laplace / _laplace_mass(k, lo, hi)
                factor *= laplace * kernel.norm_l1 / kernel.h(disp)
        else:
            lo = np.maximum(starts[:, parent] - lengths[:, child], 0.0)
            hi = np.minimum(starts[:, parent] + lengths[:, parent], room[:, child])
            dens *= 1.0 / (hi - lo)
    return dens, factor, t


def test_mc_weights_reproduce_integrand_finite(indicator_kernel, table_kernel, monkeypatch):
    # per-sample identity at T = 4 for the proposal that stays in the box:
    # weight times proposal density equals the exact integrand (times the
    # momentum's share on the form-factor modes, see _box_proposal_density)
    # wherever the weight is positive, and the weight is 0 only where a pair
    # is longer than T
    from spinboson.integrator import _sample_chunk

    momenta, draw = [], Kernel._momenta
    monkeypatch.setattr(Kernel, "_momenta",
                        lambda self, rng, n: momenta.append(draw(self, rng, n)) or momenta[-1])
    T, n = 4.0, 128
    terms = cluster_terms(2) + cluster_terms(3)[::7]
    assert {kind for term in terms for _, _, kind, _, _ in term.opened.steps} == {"h", "overlap"}
    for kernel in (indicator_kernel, table_kernel):
        for idx, term in enumerate(terms):
            lengths, starts, weight = _sample_chunk(kernel, term, stream(93, idx), n, T)
            live = weight > 0
            assert np.array_equal(~live, np.any(lengths > T, axis=1))
            dens, factor, t = _box_proposal_density(kernel, term, lengths[live], starts[live],
                                                    T, [k[live] for k in momenta])
            momenta.clear()
            ov = overlap_matrix(starts[live], starts[live] + lengths[live])
            hard = np.ones(len(dens))
            for i, j in term.selection.block_pairs:
                hard *= ~ov[:, i, j]
            v = stream(91, idx).random((len(dens), term.q))
            path_factor = np.ones(len(dens))
            for (i, j), spec in term.selection.path_pairs:
                path_factor *= np.where(ov[:, i, j], 1.0 - np.min(v[:, list(spec)], axis=1), 1.0)
            lhs = term.sign * weight[live] * hard * path_factor * dens
            rhs = term_integrand(kernel, term, t, v=v) * factor
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("horizon", [0.5, 3.0, 30.0])
def test_finite_draws_lie_in_the_box(indicator_kernel, radial_kernel, table_kernel, horizon):
    # every finite-horizon draw with a positive weight lies in [0, T]: the
    # starts from 0 and the ends up to T (but for the rounding of
    # (T - l) + l); exactly the draws with a pair longer than T weigh 0
    from spinboson.integrator import _sample_chunk

    terms = [t for p in (1, 2, 3) for t in cluster_terms(p)] + cluster_terms(4)[::61]
    top = np.nextafter(horizon, np.inf)
    for kernel in (indicator_kernel, radial_kernel, table_kernel):
        for idx, term in enumerate(terms):
            lengths, s, weight = _sample_chunk(kernel, term, stream(95, idx), 500, horizon)
            live = weight > 0
            assert np.all(s >= 0.0) and np.all(weight >= 0.0)
            assert np.all((s + lengths)[live] <= top)
            assert np.array_equal(~live, np.any(lengths > horizon, axis=1))
            inside = (1.0 - math.exp(-2.0 * horizon)) ** term.p  # all p Exp(2) lengths <= T
            assert abs(live.mean() - inside) <= 4 * math.sqrt(inside * (1 - inside) / 500) + 1e-12


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
    radial = build_kernel(KernelSpec.radial_table([[0.0, 1.0], [1.0, 1.0]]))
    for p in (1, 2):
        a = coefficient(indicator_kernel, p, method="quad")
        b = coefficient(radial, p, method="quad")
        assert b.value == pytest.approx(a.value, rel=1e-5)


def _naive_integrand(kernel, term, t, v):
    """From-scratch integrand: queries the coupling op instead of the
    compiled pair classes."""
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
    rng = stream(96, 0)
    terms = [t for t in cluster_terms(4) if t.selection.path_pairs]
    for term in terms[::7] + [t for t in terms if t.q == 3][:4]:
        starts = rng.uniform(-1.5, 1.5, size=(16, term.p))
        lengths = rng.exponential(0.8, size=(16, term.p)) + 1e-3
        t = np.empty((16, 2 * term.p))
        t[:, 0::2] = starts
        t[:, 1::2] = starts + lengths
        got = term_integrand(indicator_kernel, term, t)
        rest = term_integrand(indicator_kernel, term, t, v=np.zeros((16, term.q)))
        ov = overlap_matrix(starts, starts + lengths)
        want = [r * forest_volume(term.selection, overlap_code(term.selection, o))
                for r, o in zip(rest, ov)]
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


@pytest.mark.parametrize("points", [
    [[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]],
    [[0.0, 1.0], [0.3, 0.5], [7.3, 0.1]],
])
def test_h_table_mc_is_the_same_for_workers_on_fresh_kernels(points, monkeypatch):
    # the inverse-CDF table is built on first use: at workers=2 inside the
    # thread pool, where worker threads may race on it, with the same bits
    # as at workers=1
    in_main, parts = {}, Kernel._parts

    def recording(self, x):  # a kernel's first _parts call builds its table
        in_main.setdefault(id(self), threading.current_thread() is threading.main_thread())
        return parts(self, x)

    monkeypatch.setattr(Kernel, "_parts", recording)
    kernels = [build_kernel(KernelSpec.h_table(points)) for _ in range(2)]
    assert not in_main and all("_inverse" not in vars(ker) for ker in kernels)
    runs = [coefficient(ker, 2, method="mc", budget=20_000, seed=4, workers=workers)
            for ker, workers in zip(kernels, (1, 2))]
    assert (runs[0].value, runs[0].statistical_error) == (runs[1].value, runs[1].statistical_error)
    assert list(in_main.values()) == [True, False]


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table([[0.0, 0.0], [0.5, 1.0], [1.0, 0.2], [2.0, 0.0]]),
])
def test_form_factor_terms_never_call_quantile(spec, monkeypatch):
    # kernel edges on the form-factor modes are drawn by composition, never
    # through the Newton inverse CDF
    def forbidden(self, u):
        raise AssertionError("Kernel.quantile called on a form-factor kernel")

    monkeypatch.setattr(Kernel, "quantile", forbidden)
    ker = build_kernel(spec)
    terms = cluster_terms(3)
    assert any(kind == "h" for t in terms for _, _, kind, _, _ in t.opened.steps)
    for i, term in enumerate(terms):
        for mode, horizon in (("pinned", None), ("finite", 3.0)):
            est = integrate_term(ker, term, mode=mode, horizon=horizon, budget=200, seed=4,
                                 term_index=i)
            assert math.isfinite(est.value)


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table([[0.25, 0.6], [0.5, 1.0], [1.0, 0.8], [1.6, 0.3], [2.2, 0.5]]),
])
def test_form_factor_mc_never_calls_parts(spec, monkeypatch):
    # Monte Carlo evaluates h alone on the form-factor modes: neither the
    # deleted cycle edges nor the raw series compute Psi or the mass beyond
    def forbidden(self, x):
        raise AssertionError("Kernel._parts called by Monte Carlo")

    ker = build_kernel(spec)
    monkeypatch.setattr(Kernel, "_parts", forbidden)
    terms = cluster_terms(3)
    assert any(t.opened.deleted_edges for t in terms)
    for i, term in enumerate(terms):
        for mode, horizon in (("pinned", None), ("finite", 3.0)):
            est = integrate_term(ker, term, mode=mode, horizon=horizon, budget=200, seed=4,
                                 term_index=i)
            assert math.isfinite(est.value)
    assert math.isfinite(brute_force_coefficient(ker, 2, 3.0, budget=200, seed=4).value)


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_horizon_must_be_finite_and_positive(indicator_kernel, horizon):
    for method in ("mc", "quad"):
        with pytest.raises(ValueError, match="finite positive horizon"):
            integrate_term(indicator_kernel, _single_term(1), mode="finite", horizon=horizon,
                           method=method, budget=10)
    with pytest.raises(ValueError, match="finite and positive"):
        brute_force_coefficient(indicator_kernel, 1, horizon, budget=10)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_raw_series_equals_sorted_reference(indicator_kernel, radial_kernel, p, workers,
                                            monkeypatch):
    # the sorting network and the left-to-right gap sum are np.sort and
    # sum(axis=1) bit for bit: per sample, and in the value and the batch-means
    # error (whose sums can absorb a last-bit change of a few samples)
    from spinboson import integrator

    draws, mc_mean = [], integrator.mc_mean

    def recording(draw, *args, **kwargs):
        draws.append(draw)
        return mc_mean(draw, *args, **kwargs)

    monkeypatch.setattr(integrator, "mc_mean", recording)
    for kernel in (indicator_kernel, radial_kernel):
        est = brute_force_coefficient(kernel, p, 3.0, budget=20_000, seed=11, workers=workers)
        want = raw_series_coefficient(kernel, p, 3.0, 20_000, 11, workers=workers)
        assert (est.value, est.statistical_error) == want
        draw = draws.pop()
        for runs in [(5000,), (1, 2000, 2999)]:  # one lone run, and packed runs
            got = draw(stream(11, 0), runs).tobytes()
            assert got == raw_series_draw(kernel, p, 3.0)(stream(11, 0), runs).tobytes()


def test_mc_chunk_equals_stacked_reference(indicator_kernel, radial_kernel):
    # column-wise deleted-edge factors against the stacked (n, 2p) endpoints:
    # every p <= 3 term and five p = 4 terms (every term has a deleted edge),
    # pinned and at T = 3, where every draw lies in the box
    from spinboson.integrator import _sample_chunk

    terms = [t for p in (1, 2, 3) for t in cluster_terms(p)] + cluster_terms(4)[::61]
    for kernel in (indicator_kernel, radial_kernel):
        for idx, term in enumerate(terms):
            for horizon in (None, 3.0):
                got = _mc_chunk(kernel, term, stream(94, idx), 300, horizon)
                want = mc_chunk(kernel, term, stream(94, idx), 300, horizon)
                assert got.tobytes() == want.tobytes()
            lengths, s, weight = _sample_chunk(kernel, term, stream(94, idx), 300, 3.0)
            live = weight > 0
            assert np.all(s >= 0.0) and np.all((s + lengths)[live] <= np.nextafter(3.0, 4.0))


# c_2 on the cutoff-1 indicator, pinned and at T = 2, 5, 30: a momentum grid
# of 24 grades and 20 nodes per panel agrees to 1e-15; the nested scipy
# quadrature of earlier versions missed them by up to 6.6e-10.
C2_INDICATOR = {None: 15.1279351742455, 2.0: 7.27822544598524, 5.0: 46.1724734908785,
                30.0: 423.082227370683}


@pytest.mark.parametrize("horizon", [None, 2.0, 5.0, 30.0])
def test_c2_quadrature_values_and_measured_error(indicator_kernel, horizon):
    mode = "pinned" if horizon is None else "finite"
    est = coefficient(indicator_kernel, 2, mode=mode, horizon=horizon, method="quad")
    assert est.value == pytest.approx(C2_INDICATOR[horizon], rel=1e-11)
    assert est.warning is None
    assert 0.0 <= est.quadrature_tolerance <= 1e-8 * abs(est.value)


def test_pinned_quadrature_independent_of_pin_pair(indicator_kernel):
    # the pinned pair does not enter the gap integrals
    a = coefficient(indicator_kernel, 2, method="quad", pin_pair=0)
    b = coefficient(indicator_kernel, 2, method="quad", pin_pair=1)
    assert a.value == b.value


def test_h_table_c2_quadrature_rejected(table_kernel):
    with pytest.raises(ConfigError, match="--method mc"):
        coefficient(table_kernel, 2, method="quad")


@pytest.mark.parametrize("horizon", [None, 0.5, 5.0, 30.0])
def test_c1_quadrature_on_h_table_matches_split_quad(table_kernel, horizon):
    # the defining integral, split at the table's abscissae (PCHIP is C^1 there)
    top = 64.0 if horizon is None else horizon
    cuts = sorted({0.0, top, *(x for x in table_kernel.spec.points[:, 0] if x < top)})

    def f(u):
        return (1.0 if horizon is None else horizon - u) * math.exp(-2.0 * u) * table_kernel.h(u)

    want = math.fsum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(cuts[:-1], cuts[1:]))
    mode = "pinned" if horizon is None else "finite"
    est = coefficient(table_kernel, 1, mode=mode, horizon=horizon, method="quad")
    assert est.value == pytest.approx(want, rel=1e-13)
    assert est.quadrature_tolerance <= 1e-12 * est.value


def _g(x, m):
    """exp[x, 0, ..., 0] with m zeros: (e^x - sum_{k<m} x^k / k!) / x^m."""
    return (math.exp(x) - math.fsum(x**k / math.factorial(k) for k in range(m))) / x**m


@pytest.mark.parametrize("rows", [
    [[-3.0, -0.5]],
    [[-40.0, -7.0, -0.25, 0.0]],
    [[-2.5, 0.0, 0.0], [-0.1, 0.0, 0.0], [-700.0, 0.0, 0.0]],
    # one call: the last row sets 14 squarings for all three
    [[-0.3, -1.1, -2.6, 0.0, 0.0], [-5.0, -9.0, -14.0, 0.0, 0.0], [-6000.0, 0.0, 0.0, 0.0, 0.0]],
])
def test_exp_divided_difference_closed_forms(rows):
    x = np.array(rows)
    got = _exp_divided_difference(x)
    want = []
    for r in x:
        nodes = [a for a in r if a != 0.0]
        zeros = len(r) - len(nodes)
        # distinct nonzero nodes: sum_i exp[x_i, 0, ..., 0] / prod_{j != i} (x_i - x_j)
        want.append(math.fsum(_g(a, zeros) / math.prod(a - b for b in nodes if b != a)
                              for a in nodes))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_exp_divided_difference_confluent():
    # all nodes equal: exp[x, ..., x] (m + 1 of them) = e^x / m!
    rows = [[-0.3] * 5, [-12.0] * 5, [-250.0] * 3]
    got = [_exp_divided_difference(np.array([r]))[0] for r in rows]
    want = [math.exp(r[0]) / math.factorial(len(r) - 1) for r in rows]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("pin_pair", [-1, 2, 5])
def test_pin_pair_outside_the_pairs_rejected(indicator_kernel, pin_pair):
    for method in ("mc", "quad"):
        with pytest.raises(ValueError, match="root pair"):
            coefficient(indicator_kernel, 2, method=method, budget=10, pin_pair=pin_pair)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_rejected(indicator_kernel, budget):
    # only None means the default: 0 is neither 200000 samples nor "no cap"
    for method in ("mc", "quad"):
        with pytest.raises(ValueError, match="budget"):
            integrate_term(indicator_kernel, _single_term(2), method=method, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            coefficient(indicator_kernel, 1, mode="finite", horizon=3.0, method=method,
                        budget=budget)
    with pytest.raises(ValueError):
        brute_force_coefficient(indicator_kernel, 1, 3.0, budget=budget)
