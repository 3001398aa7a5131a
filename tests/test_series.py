import math

import numpy as np
import pytest

from spinboson import rng, series
from spinboson.errors import CertificateError, ResourceError
from spinboson.integrator import CoefficientEstimate, coefficient
from spinboson.kernel import KernelSpec, build_kernel
from spinboson.series import (
    alpha_from_lambda,
    coupling_bound,
    delta_gamma,
    energy,
    lambda_from_alpha,
    radius_bound,
    tail_bound,
)


def test_radius_bound_indicator(indicator_kernel):
    r = radius_bound(indicator_kernel)
    assert r == pytest.approx(1.0 / (256 * math.pi * math.sqrt(math.e)), rel=1e-12)
    assert r == pytest.approx(7.54e-4, rel=5e-3)  # 3 significant figures
    # formula identity, exact
    m = max(indicator_kernel.norm_inf, indicator_kernel.norm_l1)
    assert r * 32 * math.sqrt(math.e) * m == pytest.approx(1.0, rel=1e-14)
    # coupling-constant radius
    assert 4 * math.pi * math.sqrt(r) == pytest.approx(0.34, rel=5e-2)


def test_radius_scales_inversely_with_kernel(table_kernel):
    pts = np.asarray(table_kernel.spec.points).copy()
    scaled = build_kernel(KernelSpec.h_table(np.column_stack([pts[:, 0], 3.0 * pts[:, 1]])))
    assert radius_bound(scaled) == pytest.approx(radius_bound(table_kernel) / 3.0, rel=1e-9)


def test_energy_orders_draw_from_distinct_streams(indicator_kernel, monkeypatch):
    # every order numbers its terms from 0, so one seed for all orders would
    # hand term i of each order the same stream, yet their variances are added
    keys, stream = [], rng.stream

    def recording(seed, *key):
        keys.append((seed, *key))
        return stream(seed, *key)

    monkeypatch.setattr(rng, "stream", recording)
    energy(indicator_kernel, alpha=1e-4, p_max=3, method="mc", budget=50, seed=7)
    assert len(keys) == 27
    assert len(set(keys)) == len(keys)


def test_zero_kernel_radius_unbounded(zero_kernel):
    assert radius_bound(zero_kernel) == math.inf


def test_delta_gamma_value_and_minimum():
    assert delta_gamma(0.5) == pytest.approx(math.sqrt(math.e), rel=1e-14)
    with pytest.raises(ValueError):
        delta_gamma(0.0)
    with pytest.raises(ValueError):
        delta_gamma(1.0)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    ratios = [delta_gamma(g) / g for g in grid]
    best = grid[int(np.argmin(ratios))]
    assert best in (0.4, 0.5)  # the optimum sits near 1/2


def test_coupling_bound_reciprocal_radius(indicator_kernel):
    K = coupling_bound(indicator_kernel)  # default gamma = 1/2
    assert K * radius_bound(indicator_kernel) == pytest.approx(1.0, rel=1e-12)
    assert K == pytest.approx(32 * math.sqrt(math.e) * 8 * math.pi, rel=1e-9)


def test_tail_bound_values(indicator_kernel):
    assert tail_bound(indicator_kernel, 0.0, 3) == 0.0
    alpha = radius_bound(indicator_kernel) / 2  # K * alpha = 1/2 exactly
    want = -math.log(0.5) - 0.5 - 0.125
    assert tail_bound(indicator_kernel, alpha, 2) == pytest.approx(want, rel=1e-9)
    # monotone in p_max and in |alpha|
    tails = [tail_bound(indicator_kernel, alpha, pm) for pm in range(1, 8)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    more = tail_bound(indicator_kernel, 1.5 * alpha, 2)
    assert more > tails[1]
    with pytest.raises(CertificateError):
        tail_bound(indicator_kernel, 2 * radius_bound(indicator_kernel), 2)


def test_pinned_coefficients_inside_majorant(indicator_kernel):
    # |c_p| <= p! K^p / p for the orders the quadrature route can pin down
    K = coupling_bound(indicator_kernel)
    for p in (1, 2):
        c = coefficient(indicator_kernel, p, method="quad")
        assert abs(c.value) <= math.factorial(p) * K**p / p


def test_lambda_alpha_round_trip():
    for lam in (0.01, 0.34, 2.0):
        assert lambda_from_alpha(alpha_from_lambda(lam)) == pytest.approx(lam, rel=1e-15)
    assert alpha_from_lambda(4 * math.pi) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [-1e-4, -math.inf])
def test_lambda_from_a_negative_alpha_is_refused(alpha):
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        lambda_from_alpha(alpha)


def test_energy_checks_p_max_once_and_runs_every_order_under_it(indicator_kernel, monkeypatch):
    # p_max is the truncation order: each coefficient gets its own order alone
    seen = []

    def recording(kernel, p, **kwargs):
        assert "p_max" not in kwargs
        seen.append(p)
        return CoefficientEstimate(1.0, 0.0, 0.0, "monte_carlo", p, None, None)

    monkeypatch.setattr(series, "coefficient", recording)
    for p_max in (0, -1, 7):
        with pytest.raises(ResourceError):
            energy(indicator_kernel, alpha=1e-4, p_max=p_max, method="mc", budget=1, seed=1)
    assert seen == []
    with pytest.warns(UserWarning, match="p=6: enumeration sizes grow factorially"):
        res = energy(indicator_kernel, alpha=1e-4, p_max=6, method="mc", budget=1, seed=1)
    assert seen == [1, 2, 3, 4, 5, 6]
    assert len(res.coefficients) == 6


def test_energy_zero_alpha(indicator_kernel):
    res = energy(indicator_kernel, alpha=0.0, p_max=2, method="quad")
    assert res.energy == 0.0
    assert res.tail_bound == 0.0
    assert res.certified


def test_energy_negative_at_small_positive_alpha(indicator_kernel):
    alpha = radius_bound(indicator_kernel) / 10
    res = energy(indicator_kernel, alpha=alpha, p_max=2, method="quad")
    assert res.energy < 0  # c1 > 0 since the order-1 integrand is positive
    assert res.certified and res.tail_bound is not None
    # leading order dominates: the p_max = 1 truncation differs from the
    # 2-term series by less than its own tail certificate
    res1 = energy(indicator_kernel, alpha=alpha, p_max=1, method="quad")
    assert abs(res.energy - res1.energy) <= res1.tail_bound


def test_energy_from_lambda_matches_alpha_route(indicator_kernel):
    lam = 0.05
    via_lam = energy(indicator_kernel, lam=lam, p_max=2, method="quad")
    via_alpha = energy(indicator_kernel, alpha=alpha_from_lambda(lam), p_max=2, method="quad")
    assert via_lam.energy == via_alpha.energy
    assert via_lam.alpha == pytest.approx(via_alpha.alpha, rel=1e-15)


def test_energy_uncertified_outside_radius(indicator_kernel):
    res = energy(indicator_kernel, alpha=1.0, p_max=1, method="quad")
    assert not res.certified
    assert res.tail_bound is None
    assert res.warning is not None


def test_energy_accepts_complex_alpha(indicator_kernel):
    c = [coefficient(indicator_kernel, 1, method="quad")]
    res = energy(indicator_kernel, alpha=1e-4 + 1e-5j, p_max=1, method="quad")
    want = -(1e-4 + 1e-5j) * c[0].value
    assert res.energy == pytest.approx(want, rel=1e-12)


def test_series_vs_simulation_short_horizon(indicator_kernel):
    # finite-horizon identity log Z = sum_p alpha^p C_p(T)/p! at T = 10; the
    # acceptance suite runs the full-scale T = 30 version
    from spinboson.jump_process import estimate_Z
    from spinboson.integrator import coefficient as coeff

    alpha = radius_bound(indicator_kernel) / 2
    T = 10.0
    z = estimate_Z(alpha, T, indicator_kernel, samples=150_000, seed=60)
    c1 = coeff(indicator_kernel, 1, mode="finite", horizon=T, method="quad")
    c2 = coeff(indicator_kernel, 2, mode="finite", horizon=T, method="mc",
               budget=150_000, seed=61)
    c3 = coeff(indicator_kernel, 3, mode="finite", horizon=T, method="mc",
               budget=40_000, seed=62)
    series_val = sum(alpha**p * c.value / math.factorial(p)
                     for p, c in ((1, c1), (2, c2), (3, c3)))
    sigma = math.sqrt(
        (z.std_error / z.value) ** 2
        + sum((alpha**p * c.statistical_error / math.factorial(p)) ** 2
              for p, c in ((2, c2), (3, c3)))
    )
    x = coupling_bound(indicator_kernel) * alpha
    tail = T * (-math.log1p(-x) - x - x**2 / 2 - x**3 / 3)
    assert abs(math.log(z.value) - series_val) <= 3 * sigma + tail


def test_energy_requires_one_coupling(indicator_kernel):
    with pytest.raises(ValueError):
        energy(indicator_kernel, alpha=1e-4, lam=0.1, p_max=1)
    with pytest.raises(ValueError):
        energy(indicator_kernel, p_max=1)


@pytest.mark.parametrize("coupling", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": complex(1e-4, math.nan)},
    {"lam": math.nan}, {"lam": math.inf},
])
def test_energy_rejects_a_coupling_that_is_not_finite(indicator_kernel, coupling):
    with pytest.raises(ValueError, match="coupling must be finite"):
        energy(indicator_kernel, p_max=1, method="quad", **coupling)
