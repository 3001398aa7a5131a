import math

import numpy as np
import pytest
from scipy import integrate

from spinboson.errors import ConfigError, SamplingError
from spinboson.kernel import KernelSpec, build_kernel


def test_indicator_norms_match_exact_values(indicator_kernel):
    # 4*pi*int_0^1 k dk and 8*pi*int_0^inf ds int_0^1 dk k exp(-s k)
    assert indicator_kernel.norm_inf == pytest.approx(2 * math.pi, rel=1e-9)
    assert indicator_kernel.norm_l1 == pytest.approx(8 * math.pi, rel=1e-9)


def test_indicator_h_at_zero_and_one(indicator_kernel):
    assert indicator_kernel.h(0.0) == pytest.approx(2 * math.pi, rel=1e-12)
    # oracle: 1-D quadrature of the defining integral 4*pi*int_0^1 k e^{-k} dk
    oracle, _ = integrate.quad(lambda k: 4 * math.pi * k * math.exp(-k), 0.0, 1.0)
    assert oracle == pytest.approx(4 * math.pi * (1 - 2 / math.e), rel=1e-12)
    assert indicator_kernel.h(1.0) == pytest.approx(oracle, rel=1e-9)


def test_h_is_even_and_nonnegative(indicator_kernel, table_kernel):
    s = np.array([-7.3, -1.0, -0.02, 0.0, 0.4, 3.3, 25.0])
    for ker in (indicator_kernel, table_kernel):
        np.testing.assert_allclose(ker.h(s), ker.h(-s), rtol=0, atol=0)
        assert np.all(ker.h(s) >= 0)


def test_indicator_closed_form_everywhere(indicator_kernel):
    for s in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
        exact = 4 * math.pi * (1 - math.exp(-s) * (1 + s)) / s**2
        assert indicator_kernel.h(s) == pytest.approx(exact, rel=1e-9)


def test_norm_inf_equals_h_at_zero(indicator_kernel, table_kernel):
    for ker in (indicator_kernel, table_kernel):
        assert ker.norm_inf == pytest.approx(float(ker.h(0.0)), rel=1e-12)


def test_norm_l1_is_twice_half_line_integral(indicator_kernel):
    val, _ = integrate.quad(indicator_kernel.h, 0, np.inf, epsrel=1e-11, limit=400)
    assert indicator_kernel.norm_l1 == pytest.approx(2 * val, rel=1e-8)


def test_radial_table_reproduces_indicator(indicator_kernel):
    # w(k) = 1 on [0, 1] is exactly the cutoff-1 form factor.
    ker = build_kernel(KernelSpec.radial_table([[0.0, 1.0], [1.0, 1.0]]))
    assert ker.norm_inf == pytest.approx(2 * math.pi, rel=1e-7)
    assert ker.norm_l1 == pytest.approx(8 * math.pi, rel=1e-7)
    for s in [0.0, 0.3, 1.7, 9.0]:
        assert float(ker.h(s)) == pytest.approx(float(indicator_kernel.h(s)), rel=1e-7)


def test_h_table_tracks_sampled_kernel(indicator_kernel, table_kernel):
    for s in [0.05, 0.7, 3.0, 20.0]:
        assert float(table_kernel.h(s)) == pytest.approx(
            float(indicator_kernel.h(s)), rel=2e-3
        )
    assert table_kernel.norm_l1 == pytest.approx(indicator_kernel.norm_l1, rel=5e-2)


def test_zero_table_kernel_has_zero_norms(zero_kernel):
    assert zero_kernel.norm_inf == 0.0
    assert zero_kernel.norm_l1 == 0.0
    assert zero_kernel.rectangle_mass(0, 1, 0, 1) == 0.0


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.indicator(-1.0))
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.indicator(0.0))
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.h_table([[0.0, 1.0], [0.0, 0.5]]))  # non-monotone abscissa
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.h_table([[0.0, 1.0], [1.0, -0.5]]))  # negative value
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.h_table([[0.5, 1.0], [1.0, 0.5]]))  # must start at 0
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.from_dict({"mode": "mystery"}))


def test_rectangle_mass_against_2d_quadrature(indicator_kernel):
    # oracle: direct 2-D adaptive quadrature of int_0^1 int_0^1 h(t-s)
    oracle, err = integrate.dblquad(
        lambda s, t: indicator_kernel.h(t - s), 0.0, 1.0, 0.0, 1.0, epsabs=1e-11
    )
    got = indicator_kernel.rectangle_mass(0.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_rectangle_mass_degenerate_and_symmetry(indicator_kernel):
    assert indicator_kernel.rectangle_mass(0.5, 0.5, 0.0, 2.0) == 0.0
    a = indicator_kernel.rectangle_mass(0.0, 1.0, 2.0, 3.5)
    b = indicator_kernel.rectangle_mass(2.0, 3.5, 0.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_rectangle_mass_rejects_reversed_bounds(indicator_kernel):
    with pytest.raises(ValueError):
        indicator_kernel.rectangle_mass(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        indicator_kernel.rectangle_mass(0.0, 1.0, 2.0, 1.0)


def test_rectangle_mass_additivity_on_random_splits(indicator_kernel):
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, c = rng.uniform(-3, 3, size=2)
        b = a + rng.uniform(0.1, 4.0)
        d = c + rng.uniform(0.1, 4.0)
        whole = indicator_kernel.rectangle_mass(a, b, c, d)
        m = a + rng.uniform(0.05, 0.95) * (b - a)
        n = c + rng.uniform(0.05, 0.95) * (d - c)
        parts = (
            indicator_kernel.rectangle_mass(a, m, c, n)
            + indicator_kernel.rectangle_mass(m, b, c, n)
            + indicator_kernel.rectangle_mass(a, m, n, d)
            + indicator_kernel.rectangle_mass(m, b, n, d)
        )
        assert parts == pytest.approx(whole, rel=1e-8, abs=1e-12)


def test_quantile_inverts_cdf_to_1e10(indicator_kernel):
    us = np.concatenate(
        [[1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9], np.linspace(0.001, 0.999, 199)]
    )
    xs = indicator_kernel.quantile(us)
    cdf = indicator_kernel.psi(xs) / (indicator_kernel.norm_l1 / 2)
    # normalization of the sampler CDF uses the grid-end mass; compare there
    cdf_grid = indicator_kernel._psi_pp(xs) / indicator_kernel._psi_end
    assert np.max(np.abs(cdf_grid - us)) < 1e-10
    assert np.max(np.abs(cdf - us)) < 1e-9


def test_sampler_matches_density(indicator_kernel):
    rng = np.random.default_rng(42)
    n = 200_000
    s = indicator_kernel.sample_displacement(rng, size=n)
    # sign symmetry
    frac_pos = np.mean(s > 0)
    assert abs(frac_pos - 0.5) < 3 * math.sqrt(0.25 / n)
    # CDF of |s| at a few abscissae, binomial error bars
    half = indicator_kernel.norm_l1 / 2
    for x in [0.2, 1.0, 4.0, 20.0]:
        p = indicator_kernel.psi(x) / half
        emp = np.mean(np.abs(s) <= x)
        assert abs(emp - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-9
    # truncated first moment against quadrature (the raw first moment of the
    # cutoff kernel diverges logarithmically, so test E[min(|s|, M)] instead)
    M = 10.0
    num, _ = integrate.quad(
        lambda t: min(t, M) * indicator_kernel.h(t), 0, np.inf, epsrel=1e-10, limit=400
    )
    mean_trunc = num / half
    emp = np.minimum(np.abs(s), M)
    se = emp.std(ddof=1) / math.sqrt(n)
    assert abs(emp.mean() - mean_trunc) < 3 * se


def test_sampler_deterministic_for_fixed_seed(indicator_kernel):
    from spinboson.rng import stream

    a = indicator_kernel.sample_displacement(stream(7, 0), size=100)
    b = indicator_kernel.sample_displacement(stream(7, 0), size=100)
    np.testing.assert_array_equal(a, b)


def test_zero_kernel_sampling_raises(zero_kernel):
    with pytest.raises(SamplingError):
        zero_kernel.sample_displacement(np.random.default_rng(0), size=4)


def test_phi_properties(indicator_kernel):
    assert indicator_kernel.phi(0.0) == 0.0
    s = np.linspace(0.1, 12.0, 40)
    np.testing.assert_allclose(indicator_kernel.phi(s), indicator_kernel.phi(-s))
    # convexity: second differences nonnegative
    xs = np.linspace(0.0, 8.0, 200)
    vals = indicator_kernel.phi(xs)
    second = np.diff(vals, 2)
    assert np.min(second) > -1e-12
    # indicator kernel has the exact antiderivative Psi(s) = 4*pi*(1 - (1-e^{-s})/s)
    for x in [0.3, 1.0, 4.0, 15.0]:
        exact = 4 * math.pi * (1 - (1 - math.exp(-x)) / x)
        assert indicator_kernel.psi(x) == pytest.approx(exact, rel=1e-9)


def test_phi_dense_interpolation_bound(indicator_kernel):
    # linear interpolation of a function with second derivative h is off by at
    # most max|h| dx^2 / 8; the tables' own rounding is below 1e-12
    from spinboson.rng import stream

    rng = stream(8, 0)
    for span in (30.0, 100.0):
        tab, dx = indicator_kernel.phi_dense(span)
        xs = np.arange(len(tab)) * dx
        assert xs[-1] >= span
        x = np.concatenate([rng.uniform(0.0, xs[-1], size=100_000),
                            rng.uniform(0.0, 1.0, size=100_000)])  # h is largest near 0
        err = np.max(np.abs(np.interp(x, xs, tab) - indicator_kernel.phi(x)))
        bound = indicator_kernel.norm_inf * dx**2 / 8
        assert err <= bound + 1e-12
        assert err > 0.5 * bound  # the bound is what the table achieves
