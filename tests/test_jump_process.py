import math

import numpy as np
import pytest
from scipy import integrate

from spinboson.errors import EstimateUnreliableError
from spinboson.integrator import coefficient
from spinboson.jump_process import (
    _CHUNK,
    _PAIR_BLOCK,
    _TAG_Z,
    SpinPath,
    _action_chunk,
    _action_moments,
    _boundary_weights,
    _jump_matrix,
    estimate_moment_mc,
    estimate_Z,
    interaction_action,
    moment_closed_form,
    sample_path,
)
from spinboson.kernel import KernelSpec, build_kernel
from spinboson.rng import mc_mean, stream
from spinboson.series import radius_bound

from oracles import hermite_phi

FOUR_PIECES = [[0.25, 0.6], [0.5, 1.0], [1.0, 0.8], [1.6, 0.3], [2.2, 0.5]]


def test_sample_path_deterministic():
    a = sample_path(5.0, stream(3, 1))
    b = sample_path(5.0, stream(3, 1))
    assert a.initial_sign == b.initial_sign
    np.testing.assert_array_equal(a.jump_times, b.jump_times)


def test_sample_path_statistics():
    rng = stream(11, 0)
    n = 60_000
    jumps = np.empty(n)
    signs = np.empty(n)
    for i in range(n):
        p = sample_path(5.0, rng)
        jumps[i] = len(p.jump_times)
        signs[i] = p.initial_sign
    # Poisson(5) jump count and symmetric initial sign
    assert abs(jumps.mean() - 5.0) < 3 * math.sqrt(5.0 / n)
    assert abs(np.mean(signs == 1) - 0.5) < 3 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_horizon_must_be_finite_and_positive(indicator_kernel, horizon):
    with pytest.raises(ValueError, match="finite and positive"):
        estimate_Z(1e-4, horizon, indicator_kernel, samples=10, seed=1)
    with pytest.raises(ValueError, match="finite and positive"):
        sample_path(horizon, stream(1, 0))


def test_spin_path_validation():
    with pytest.raises(ValueError):
        SpinPath(2, np.array([1.0]), 5.0)
    with pytest.raises(ValueError):
        SpinPath(1, np.array([3.0, 2.0]), 5.0)
    with pytest.raises(ValueError):
        SpinPath(1, np.array([6.0]), 5.0)


def _action_by_quadrature(path, kernel):
    """Sum over segment pairs of the signed mass int_a^b dt int_c^d ds h(t - s),
    each a 1-d quad of h(u) L(u), L(u) the length of [a, b] and [c + u, d + u]
    overlapping, split at the kinks of L and at u = 0."""
    bounds = np.concatenate([[0.0], path.jump_times, [path.horizon]])
    total = 0.0
    for i in range(len(bounds) - 1):
        for j in range(len(bounds) - 1):
            a, b, c, d = bounds[i], bounds[i + 1], bounds[j], bounds[j + 1]

            def f(u):
                return kernel.h(u) * max(0.0, min(b, d + u) - max(a, c + u))

            cuts = sorted({a - d, b - c, *(x for x in (a - c, b - d, 0.0) if a - d < x < b - c)})
            val = math.fsum(integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
                            for lo, hi in zip(cuts[:-1], cuts[1:]))
            total += (-1) ** (i + j) * val
    return total


def test_action_constant_path_is_rectangle_mass(indicator_kernel):
    p = SpinPath(1, np.array([]), 3.0)
    got = interaction_action(p, indicator_kernel)
    assert got == pytest.approx(_action_by_quadrature(p, indicator_kernel), rel=1e-10)
    assert got > 0


def test_action_invariant_under_global_flip(indicator_kernel):
    jumps = np.array([0.4, 1.1, 1.7])
    up = SpinPath(1, jumps, 2.5)
    down = SpinPath(-1, jumps, 2.5)
    assert interaction_action(up, indicator_kernel) == pytest.approx(
        interaction_action(down, indicator_kernel), rel=1e-14
    )


def test_action_one_jump_against_quadrature(indicator_kernel):
    p = SpinPath(1, np.array([1.0]), 2.0)
    got = interaction_action(p, indicator_kernel)
    assert got == pytest.approx(_action_by_quadrature(p, indicator_kernel), rel=1e-7)


def test_action_random_paths_against_quadrature(indicator_kernel):
    rng = stream(17, 0)
    done = 0
    while done < 3:
        p = sample_path(3.0, rng)
        if len(p.jump_times) > 6:
            continue
        got = interaction_action(p, indicator_kernel)
        want = _action_by_quadrature(p, indicator_kernel)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
        done += 1


def test_estimate_Z_at_alpha_zero_is_exactly_one(indicator_kernel):
    est = estimate_Z(0.0, 5.0, indicator_kernel, samples=10, seed=1)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_estimate_Z_positive_alpha_jensen(indicator_kernel):
    est = estimate_Z(3e-4, 5.0, indicator_kernel, samples=20_000, seed=2)
    assert est.value > 1.0 - 3 * est.std_error


def test_estimate_Z_deterministic_and_worker_invariant(indicator_kernel):
    a = estimate_Z(2e-4, 4.0, indicator_kernel, samples=5_000, seed=9, workers=1)
    b = estimate_Z(2e-4, 4.0, indicator_kernel, samples=5_000, seed=9, workers=4)
    assert (a.value, a.std_error) == (b.value, b.std_error)


def test_estimate_Z_overflow_reported(indicator_kernel):
    with pytest.raises(EstimateUnreliableError):
        estimate_Z(1e6, 10.0, indicator_kernel, samples=200, seed=3)


def test_estimate_Z_agrees_with_naive_path_average(indicator_kernel):
    alpha, horizon = 5e-4, 3.0
    est = estimate_Z(alpha, horizon, indicator_kernel, samples=40_000, seed=21)
    # independent route: explicit paths + exact per-path action
    rng = stream(22, 0)
    n = 12_000
    vals = np.empty(n)
    for i in range(n):
        p = sample_path(horizon, rng)
        vals[i] = math.exp(0.5 * alpha * interaction_action(p, indicator_kernel))
    naive = vals.mean()
    se = math.sqrt(est.std_error**2 + vals.var(ddof=1) / n)
    assert abs(est.value - naive) < 3 * se


@pytest.fixture(scope="module")
def mean_action_kernels(indicator_kernel, table_kernel):
    # cutoff 1000: h falls on the scale 1e-3, which the panels must resolve near 0
    return {"indicator": indicator_kernel, "h_table": table_kernel,
            "radial_table": build_kernel(KernelSpec.radial_table(FOUR_PIECES)),
            "wide_indicator": build_kernel(KernelSpec.indicator(1000.0))}


@pytest.mark.parametrize("name", ["indicator", "radial_table", "h_table", "wide_indicator"])
@pytest.mark.parametrize("horizon", [0.5, 5.0, 30.0])
def test_mean_action_matches_quad(mean_action_kernels, name, horizon):
    # the defining integral 2 int_0^T (T - u) e^{-2u} h(u) du, split at the
    # h table's abscissae, where its PCHIP is only C^1
    kernel = mean_action_kernels[name]
    cuts = [0.0, horizon]
    if kernel.spec.mode == "h_table":
        cuts = sorted({0.0, horizon, *(x for x in kernel.spec.points[:, 0] if x < horizon)})

    def f(u):
        return (horizon - u) * math.exp(-2.0 * u) * kernel.h(u)

    want = 2.0 * math.fsum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                           for a, b in zip(cuts[:-1], cuts[1:]))
    assert _action_moments(kernel, horizon)[0] == pytest.approx(want, rel=1e-13)
    if kernel.spec.mode == "h_table":
        return
    # on the form-factor modes, the closed form in the momentum:
    # C_1(T) = int dmu(k) [T/(2+k) - (1 - e^{-(2+k)T})/(2+k)^2], dmu = 4 pi k w(k) dk
    pts = kernel.spec.points

    def g(k):
        lam = 2.0 + k
        w = np.interp(k, pts[:, 0], pts[:, 1])
        return 4.0 * math.pi * k * w * (horizon / lam + math.expm1(-lam * horizon) / lam**2)

    c1_momentum = math.fsum(integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                            for a, b in zip(pts[:-1, 0], pts[1:, 0]))
    c1 = coefficient(kernel, 1, mode="finite", horizon=horizon, method="quad")
    assert c1.value == pytest.approx(c1_momentum, rel=1e-13)


@pytest.fixture(scope="module")
def z_path_estimates(indicator_kernel):
    """Z at T = 30, alpha = R_min/2, 2048 paths, seeds 1..30."""
    alpha = radius_bound(indicator_kernel) / 2
    return [estimate_Z(alpha, 30.0, indicator_kernel, samples=2048, seed=s) for s in range(1, 31)]


def test_estimate_Z_reported_error_matches_spread(z_path_estimates, indicator_kernel):
    # at the z_path inputs, and at T = 5 with c A_bar = 1, where the error is
    # scaled by e^{c A_bar} = e
    alpha = 2.0 / _action_moments(indicator_kernel, 5.0)[0]
    at_t5 = [estimate_Z(alpha, 5.0, indicator_kernel, samples=2000, seed=s) for s in range(1, 31)]
    for runs in (z_path_estimates, at_t5):
        values = np.array([z.value for z in runs])
        rms_error = math.sqrt(np.mean([z.std_error**2 for z in runs]))
        assert 0.6 <= values.std(ddof=1) / rms_error <= 1.6


def test_estimate_Z_control_variate_error(z_path_estimates):
    # the plain average of e^{cA} gives 1.7e-4 here
    for z in z_path_estimates:
        assert z.std_error / z.value < 1e-5


def test_estimate_Z_second_order_control_variate_error(z_path_estimates):
    # subtracting the first-order term alone gives 1.2e-6 here
    for z in z_path_estimates:
        assert z.std_error / z.value < 1e-7


def test_estimate_Z_matches_the_hamiltonian_log_Z(z_path_estimates):
    # log Z = 0.0265656757627 at the z_path inputs, from the Hamiltonian of a
    # discretized bath (Talbot series to p = 4 and a Krylov exponential agree
    # to 2e-13), an independent route to Z's bias, which the benchmark's
    # 1e6-path reference is too coarse to see
    want, n = math.exp(0.0265656757627), len(z_path_estimates)
    mean = math.fsum(z.value for z in z_path_estimates) / n
    sigma_mean = math.sqrt(math.fsum(z.std_error**2 for z in z_path_estimates)) / n
    assert abs(mean - want) < 3 * sigma_mean


@pytest.mark.parametrize("spec,horizon", [
    (KernelSpec.indicator(1.0), 5.0),
    (KernelSpec.indicator(1.0), 30.0),
    (KernelSpec.radial_table(FOUR_PIECES), 5.0),
], ids=["indicator-T5", "indicator-T30", "four_pieces-T5"])
def test_action_variance_matches_sampled_paths(spec, horizon):
    # Z's second order is kappa_2 = Var A = 4 C_2(T) from quadrature; the
    # unbiased sample variance of A over 10^5 paths checks it, with sigma from
    # the sample's fourth central moment
    kernel = build_kernel(spec)
    phi_tab, dx = kernel.phi_dense(horizon)
    rng = stream(51, 0)
    a = np.concatenate([_action_chunk(_jump_matrix(rng, 1024, horizon), horizon, phi_tab, dx)
                        for _ in range(98)])
    n, dev = a.size, a - a.mean()
    var = float(dev @ dev) / (n - 1)
    sigma = math.sqrt((np.mean(dev**4) - var * var * (n - 3) / (n - 1)) / n)
    c2 = coefficient(kernel, 2, mode="finite", horizon=horizon, method="quad").value
    for kappa2 in (_action_moments(kernel, horizon)[1], 4.0 * c2):
        assert abs(var - kappa2) < 3 * sigma


def test_estimate_Z_on_an_h_table_keeps_the_first_order_control_variate(table_kernel):
    # an h table has no momentum measure, so no kappa_2: each path contributes
    # e^x - x, x = c (A - A_bar), as before the quadratic term was subtracted
    alpha, horizon = 3e-4, 5.0
    mean, kappa2 = _action_moments(table_kernel, horizon)
    assert kappa2 is None
    phi_tab, dx = table_kernel.phi_dense(horizon)
    c = 0.5 * alpha
    c_mean = c * mean

    def draw(rng, runs):
        rng.integers(0, 2, size=sum(runs))
        x = c * _action_chunk(_jump_matrix(rng, sum(runs), horizon), horizon, phi_tab, dx) - c_mean
        return np.exp(x) - x

    value, se = mc_mean(draw, 4096, _CHUNK, 5, _TAG_Z)
    est = estimate_Z(alpha, horizon, table_kernel, samples=4096, seed=5)
    assert (est.value, est.std_error) == (math.exp(c_mean) * value, math.exp(c_mean) * se)


def test_moment_closed_form_examples():
    assert moment_closed_form([0.5, 1.5]) == pytest.approx(math.exp(-2), rel=1e-14)
    assert moment_closed_form([0.7]) == 0.0
    eps = 1e-6
    assert moment_closed_form([1, 1 + eps, 2, 2 + eps]) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        moment_closed_form([1.0, 1.0])
    with pytest.raises(ValueError):
        moment_closed_form([2.0, 1.0])


def test_moment_mc_matches_closed_form():
    est = estimate_moment_mc([0.5, 1.5], samples=300_000, seed=4)
    assert abs(est.value - math.exp(-2)) < 3 * est.std_error
    est = estimate_moment_mc([0.7], samples=100_000, seed=5)
    assert abs(est.value) < 3 * est.std_error
    est = estimate_moment_mc([0.2, 0.4, 1.0, 1.3], samples=300_000, seed=6)
    assert abs(est.value - math.exp(-1)) < 3 * est.std_error


def test_moment_mc_random_tuples_lemma_equivalence():
    rng = stream(30, 0)
    for trial in range(5):
        q = int(rng.integers(1, 7))
        t = np.cumsum(0.05 + rng.exponential(0.4, size=q)) + rng.uniform(0, 0.5)
        est = estimate_moment_mc(t, samples=200_000, seed=100 + trial)
        want = moment_closed_form(t)
        assert abs(est.value - want) < 3 * max(est.std_error, 1e-12)


@pytest.mark.parametrize("times,message", [
    ([], "at least one time"),
    ([[0.5, 1.0]], "1-D"),
    ([1.0, 0.5], "strictly increasing"),
    ([-1.0], ">= 0"),
    ([-1.0, 0.5], ">= 0"),
])
def test_moment_mc_checks_its_times(times, message):
    # the closed form's checks, and none before t = 0, where the simulated
    # process starts: [-1, 0.5] would estimate 0.370 against e^-3 = 0.0498
    with pytest.raises(ValueError, match=message):
        estimate_moment_mc(times, samples=10, seed=1)


def test_moment_mc_deterministic_across_workers():
    a = estimate_moment_mc([0.3, 0.9], samples=30_000, seed=8, workers=1)
    b = estimate_moment_mc([0.3, 0.9], samples=30_000, seed=8, workers=8)
    assert (a.value, a.std_error) == (b.value, b.std_error)


def _padded_action(signs, times, horizon, phi_tab, dx):
    """-sum_{k,l} w_k w_l Phi(|x_k - x_l|) over every path padded to the
    longest one, Phi from the cubic Hermite table: the O(n m^2) reference."""
    counts = (times < horizon).sum(axis=1)
    m_max = int(counts.max())
    x = np.empty((len(signs), m_max + 2))
    x[:, 0] = 0.0
    cols = np.arange(m_max)
    x[:, 1 : m_max + 1] = np.where(cols[None, :] < counts[:, None], times[:, :m_max], horizon)
    x[:, m_max + 1] = horizon
    w = np.zeros((len(signs), m_max + 2))
    for i, m in enumerate(counts):
        w[i, : m + 2] = signs[i] * _boundary_weights(m)
    phi = hermite_phi(phi_tab, np.abs(x[:, :, None] - x[:, None, :]) / dx)
    return -np.einsum("nkl,nk,nl->n", phi, w, w)


def _chunk_with_short_paths(n, horizon, seed):
    rng = stream(seed, 0)
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    times = _jump_matrix(rng, n, horizon)
    times[:3] = horizon + 1.0 + np.arange(times.shape[1])  # no jumps
    times[3, 0] = 0.5 * horizon  # one jump
    times[3, 1:] = horizon + 1.0 + np.arange(times.shape[1] - 1)
    return signs, times


class _SlowDraws:
    """Exponential draws of (r + 1 + c) / 64 in row r of call c: dyadic, so
    their sums are exact, and small enough that rows need several blocks."""

    def __init__(self):
        self.draws = []

    def exponential(self, size):
        assert len(self.draws) < 6, "the rows never reach the horizon"
        n, block = size
        e = np.repeat((np.arange(n)[:, None] + 1.0 + len(self.draws)) / 64, block, axis=1)
        self.draws.append(e.copy())
        return e


def test_jump_matrix_extends_every_row_past_the_horizon(indicator_kernel):
    horizon, rng = 5.0, _SlowDraws()
    times = _jump_matrix(rng, 6, horizon)
    assert len(rng.draws) >= 3  # row 0 needs four blocks, row 5 two
    assert times.shape == (6, sum(d.shape[1] for d in rng.draws))
    assert np.all(times[:, -1] >= horizon)
    for row, got in enumerate(times):  # the cumulative sums of the row's own draws
        assert np.array_equal(got, np.cumsum(np.concatenate([d[row] for d in rng.draws])))
    # a row's up to 10^4 pair terms, each up to Phi(5) = 35, cancel to about
    # 1e-2, so their rounding is bounded in absolute terms, not relative to A
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    np.testing.assert_allclose(_action_chunk(times, horizon, phi_tab, dx),
                               _padded_action(np.ones(6), times, horizon, phi_tab, dx),
                               rtol=0.0, atol=1e-12)


def test_action_chunk_matches_padded_formula_and_scalar_oracle(indicator_kernel):
    horizon = 30.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    signs, times = _chunk_with_short_paths(1024, horizon, 41)
    got = _action_chunk(times, horizon, phi_tab, dx)
    want = _padded_action(signs, times, horizon, phi_tab, dx)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # a path's action does not depend on the other paths of its call
    parts = [_action_chunk(times[a:a + 100], horizon, phi_tab, dx)
             for a in range(0, 1024, 100)]
    assert np.array_equal(np.concatenate(parts), got)
    # against the exact Phi: cubic Hermite interpolation is off by at most
    # max|h''| dx^4 / 384 per pair, h''(0) = 4 pi int_0^1 k^3 dk = pi, and the
    # table's nodes by under 1e-12
    counts = (times < horizon).sum(axis=1)
    for i in list(range(4)) + list(range(4, 1024, 61)):
        path = SpinPath(int(signs[i]), times[i, : counts[i]], horizon)
        w = signs[i] * _boundary_weights(counts[i])
        bound = np.abs(w).sum() ** 2 * (math.pi * dx**4 / 384 + 1e-12)
        assert abs(got[i] - interaction_action(path, indicator_kernel)) <= bound


def _sequential_action(sign, jumps, horizon, phi_tab, dx):
    """-2 sum_{k<l} w_k w_l Phi(x_l - x_k) of one path, Phi from the cubic
    Hermite table at the gaps of the times scaled by 1/dx, added one pair at
    a time in the l-major order (1, 0), (2, 0), (2, 1), (3, 0), ...: the
    summation order Z is pinned to."""
    x = np.concatenate([[0.0], jumps, [horizon]])
    w = sign * _boundary_weights(len(jumps))
    l, k = np.tril_indices(len(x), -1)
    x = x / dx  # dx is a power of two: exact
    phi = hermite_phi(phi_tab, x[l] - x[k])
    return -2.0 * np.cumsum(w[k] * w[l] * phi)[-1]


def test_action_chunk_is_the_sequential_sum_of_each_path(indicator_kernel):
    horizon = 30.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    signs, times = _chunk_with_short_paths(1024, horizon, 41)
    got = _action_chunk(times, horizon, phi_tab, dx)
    counts = (times < horizon).sum(axis=1)
    for i in list(range(4)) + list(range(4, 1024, 51)):
        want = _sequential_action(signs[i], times[i, : counts[i]], horizon, phi_tab, dx)
        assert got[i] == want
        assert _action_chunk(times[i : i + 1], horizon, phi_tab, dx)[0] == want
    # the grouping by jump count does not depend on the order of the paths
    perm = stream(41, 1).permutation(1024)
    assert np.array_equal(_action_chunk(times[perm], horizon, phi_tab, dx), got[perm])


def test_action_chunk_path_longer_than_a_block(indicator_kernel):
    horizon = 30.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    signs, times = _chunk_with_short_paths(24, horizon, 43)
    times = np.concatenate([times, times[:, -1:] + 1.0 + np.arange(200)], axis=1)
    times[5, :200] = np.sort(stream(43, 1).uniform(0.0, horizon, 200))
    times[5, 200:] = horizon + 1.0 + np.arange(times.shape[1] - 200)
    assert 202 * 201 // 2 > _PAIR_BLOCK  # the long path fills more than one block
    got = _action_chunk(times, horizon, phi_tab, dx)
    want = _padded_action(signs, times, horizon, phi_tab, dx)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for i in range(24):
        assert _action_chunk(times[i : i + 1], horizon, phi_tab, dx)[0] == got[i]


def test_action_chunk_groups_of_one_two_three_and_a_short_last_block(indicator_kernel):
    # a block holds pairs as rows and paths as columns, and its column sums
    # are added in row order only from two columns on: groups of 1, 2 and 3
    # paths, and one that fills a block and part of a second, must all give
    # each path's sequential pair-order sum
    horizon = 30.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    rng = stream(44, 0)
    step = _PAIR_BLOCK // (32 * 31 // 2)  # paths per block at 30 jumps
    sizes = {7: 1, 12: 2, 25: 3, 30: step + 5}
    jumps = [np.sort(rng.uniform(0.0, horizon, m)) for m, n in sizes.items() for _ in range(n)]
    times = horizon + 1.0 + np.tile(np.arange(31.0), (len(jumps), 1))
    for i, j in enumerate(rng.permutation(len(jumps))):
        times[i, : len(jumps[j])] = jumps[j]
    signs = rng.integers(0, 2, size=len(jumps)) * 2.0 - 1.0
    counts = (times < horizon).sum(axis=1)
    assert sorted(np.unique(counts, return_counts=True)[1].tolist()) == [1, 2, 3, step + 5]
    got = _action_chunk(times, horizon, phi_tab, dx)
    for i in range(len(jumps)):
        assert got[i] == _sequential_action(signs[i], times[i, : counts[i]], horizon, phi_tab, dx)


def test_action_chunk_at_a_power_of_two_horizon_reaches_the_table_end(indicator_kernel):
    # at T = 32 the gap (0, T) of a path is the whole span: it lands on the
    # table's end column, so a path without jumps has A = 2 Phi(T) exactly
    horizon = 32.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    assert (phi_tab.shape[1] - 1) * dx == horizon
    signs, times = _chunk_with_short_paths(64, horizon, 45)
    got = _action_chunk(times, horizon, phi_tab, dx)
    assert got[0] == 2.0 * phi_tab[3, -1]
    assert got[0] == pytest.approx(2.0 * indicator_kernel.phi(horizon), rel=1e-14)
    counts = (times < horizon).sum(axis=1)
    for i in range(8):
        path = SpinPath(int(signs[i]), times[i, : counts[i]], horizon)
        w = signs[i] * _boundary_weights(counts[i])
        bound = np.abs(w).sum() ** 2 * (math.pi * dx**4 / 384 + 1e-12)
        assert abs(got[i] - interaction_action(path, indicator_kernel)) <= bound


def test_action_chunk_memory_is_not_quadratic(indicator_kernel):
    import tracemalloc

    horizon = 30.0
    phi_tab, dx = indicator_kernel.phi_dense(horizon)
    times = _chunk_with_short_paths(1024, horizon, 42)[1]
    tracemalloc.start()
    try:
        _action_chunk(times, horizon, phi_tab, dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the padded cube needs over 100 MiB here


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_alpha_must_be_finite(indicator_kernel, alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        estimate_Z(alpha, 5.0, indicator_kernel, samples=10, seed=1)
