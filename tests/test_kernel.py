import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from spinboson.errors import ConfigError, SamplingError
from spinboson.kernel import _PHI_INTERVALS, _PHI_TOL, _SMALL, Kernel, KernelSpec, build_kernel
from spinboson.rng import stream

from oracles import hermite_phi

FOUR_PIECES = [[0.25, 0.6], [0.5, 1.0], [1.0, 0.8], [1.6, 0.3], [2.2, 0.5]]
RISING_FALLING = [[0.0, 0.0], [0.5, 1.0], [1.0, 0.2], [2.0, 0.0]]  # from k = 0 with w(0) = 0


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
    zero_radial = build_kernel(KernelSpec.radial_table([[0.0, 0.0], [1.0, 0.0]]))
    for ker in (zero_kernel, zero_radial):
        assert ker.norm_inf == 0.0
        assert ker.norm_l1 == 0.0
        assert ker.phi(1.0) == 0.0
    with pytest.raises(SamplingError):
        zero_radial.quantile(0.5)


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


@pytest.mark.parametrize("doc", [
    {"mode": "indicator", "cutoff": None},
    {"mode": "indicator", "cutoff": {}},
    {"mode": "radial_table", "points": [[0.5, 1.0], [1.0, {}]]},
    {"mode": "h_table", "points": [{}, None]},
    {"mode": "h_table", "points": [[0.0, 1.0], None]},
    {"mode": "h_table", "points": [[0.0, 1.0], [1.0, None]]},
    {"mode": "indicator", "cutoff": "one"},
    {"mode": "indicator", "cutoff": True},
    {"mode": "indicator", "cutoff": "1"},
    {"mode": "radial_table", "points": [[0, True], ["1", 1]]},
    {"mode": "h_table", "points": [[0.0, 1.0], [1.0, False]]},
])
def test_malformed_kernel_configs_are_config_errors(doc):
    # a null, an object, a boolean, a string or a ragged table where numbers
    # belong (float() would read True as 1.0 and parse "1"); a null inside a
    # full table row reads as nan, which validation rejects
    with pytest.raises(ConfigError):
        build_kernel(KernelSpec.from_dict(doc))


@st.composite
def _valid_table(draw):
    """A valid radial_table (from k in [0, 1]) or h_table of 2-6 points, as
    (mode, points), with zeros among the values."""
    mode = draw(st.sampled_from(["radial_table", "h_table"]))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5))
    values = draw(st.lists(st.just(0.0) | st.floats(0.0, 5.0),
                           min_size=len(steps) + 1, max_size=len(steps) + 1))
    if mode == "h_table":
        return mode, np.column_stack([np.cumsum([0.0, *steps]), sorted(values, reverse=True)])
    return mode, np.column_stack([draw(st.floats(0.0, 1.0)) + np.cumsum([0.0, *steps]), values])


def _break_rule(draw, rule, mode, pts):
    """The config document of the valid table (mode, pts) with `rule` broken,
    and the message that names the rule."""
    pts, i = pts.copy(), draw(st.integers(0, len(pts) - 2))
    if rule == "object":
        doc = draw(st.sampled_from([[], "radial_table", 3, None, {"points": pts.tolist()}]))
        return doc, "must be an object with a 'mode' key"
    if rule == "key":
        return {"mode": draw(st.sampled_from(["indicator", "radial_table", "h_table"]))}, "needs"
    if rule == "mode":
        mode = draw(st.sampled_from(["", "indicator ", "H_TABLE", "gaussian"]))
        return {"mode": mode, "points": pts.tolist()}, "unknown kernel mode"
    if rule == "shape":
        pts = draw(st.sampled_from([pts[:1], pts.ravel(), np.column_stack([pts, pts[:, 1]])]))
        return {"mode": mode, "points": pts.tolist()}, "an (n>=2, 2) points array"
    if rule == "finite":
        pts[i + draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        message = "must be finite"
    elif rule == "increasing":
        pts[i + 1, 0] = pts[i, 0] - draw(st.floats(0.0, 1.0))
        message = "abscissae must be strictly increasing"
    elif rule == "nonnegative":
        pts[i + draw(st.integers(0, 1)), 1] = -draw(st.floats(1e-6, 5.0))
        message = "values must be nonnegative"
    elif rule == "momenta":
        mode, pts[:, 0] = "radial_table", pts[:, 0] - pts[0, 0] - draw(st.floats(1e-6, 2.0))
        message = "momenta must be >= 0"
    elif rule == "start":
        mode, pts[:, 0] = "h_table", pts[:, 0] - pts[0, 0] + draw(st.floats(1e-6, 2.0))
        pts[:, 1] = np.sort(pts[:, 1])[::-1]
        message = "must start at s = 0"
    else:  # a value above the one before it
        mode, pts[:, 0] = "h_table", pts[:, 0] - pts[0, 0]
        pts[:, 1] = np.sort(pts[:, 1])[::-1]
        pts[i + 1, 1] = pts[i, 1] + draw(st.floats(1e-6, 2.0))
        message = "values must be non-increasing"
    return {"mode": mode, "points": pts.tolist()}, message


_RULES = ["object", "key", "mode", "shape", "finite", "increasing", "nonnegative", "momenta",
          "start", "monotone"]


@pytest.mark.parametrize("rule", _RULES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(table=_valid_table(), data=st.data())
def test_spec_validation_names_the_broken_rule(rule, table, data, tmp_path_factory):
    # a drawn valid table builds; with one rule broken, KernelSpec (from a
    # config document, and Kernel on the spec itself) raises ConfigError with
    # that rule's message, and the CLI prints it and exits 2
    import contextlib
    import io
    import json

    from spinboson.cli import main

    mode, pts = table
    ker = build_kernel(KernelSpec(mode, pts))
    assert np.isfinite(ker.norm_inf) and ker.norm_inf >= 0.0
    doc, message = _break_rule(data.draw, rule, mode, pts)
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_kernel(KernelSpec.from_dict(doc))
    if isinstance(doc, dict) and "points" in doc:
        with pytest.raises(ConfigError, match=re.escape(message)):
            Kernel(KernelSpec(doc["mode"], np.asarray(doc["points"], dtype=float)))
    path = tmp_path_factory.mktemp("spec") / "kernel.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["norms", "--kernel", str(path)]) == 2
    assert out.getvalue() == "" and message in err.getvalue()


def test_overflowing_norms_refused_and_subnormal_h_builds_silently(tmp_path):
    # a radial table whose norms overflow double precision is a ConfigError that
    # names the overflow, at Kernel and through the CLI; a subnormal h value only
    # overflows PCHIP's harmonic mean of slopes to its limit 0, so the kernel
    # builds without a warning and reads as the table with that value set to 0
    import contextlib
    import io
    import json

    from spinboson.cli import main

    huge = [[0.0, 1e308], [1.0, 1e308]]
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"mode": "radial_table", "points": huge}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="norms overflow: norm_inf = nan, norm_l1 = inf"):
            Kernel(KernelSpec("radial_table", np.array(huge)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["norms", "--kernel", str(path)]) == 2
        assert out.getvalue() == "" and "norms overflow" in err.getvalue()
        sub = Kernel(KernelSpec("h_table", np.array([[0.0, 1.0], [0.5, 2.2e-313], [1.0, 0.0]])))
        zero = Kernel(KernelSpec("h_table", np.array([[0.0, 1.0], [0.5, 0.0], [1.0, 0.0]])))
    x = np.linspace(0.0, 1.5, 301)
    assert np.abs(sub.h(x) - zero.h(x)).max() <= 2.2e-313
    assert np.array_equal(sub.psi(x), zero.psi(x))
    assert (sub.norm_inf, sub.norm_l1) == (zero.norm_inf, zero.norm_l1)


def test_rectangle_mass_against_2d_quadrature(indicator_kernel):
    # oracle: direct 2-D adaptive quadrature of int_0^1 int_0^1 h(t-s), which is
    # Phi(1) - Phi(0) - Phi(0) + Phi(-1) = 2 Phi(1) as Phi is even with Phi(0) = 0
    oracle, err = integrate.dblquad(
        lambda s, t: indicator_kernel.h(t - s), 0.0, 1.0, 0.0, 1.0, epsabs=1e-11
    )
    assert 2 * indicator_kernel.phi(1.0) == pytest.approx(oracle, rel=1e-8)


def test_quantile_inverts_cdf_to_1e10(indicator_kernel):
    us = np.concatenate(
        [[1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9], np.linspace(0.001, 0.999, 199)]
    )
    xs = indicator_kernel.quantile(us)
    cdf = indicator_kernel.psi(xs) / (indicator_kernel.norm_l1 / 2)
    assert np.max(np.abs(cdf - us)) < 1e-12


def test_quantile_tail_solves_exact_cdf(indicator_kernel):
    # cutoff-1 indicator: CDF of |s| is F(x) = 1 - (1 - e^{-x})/x; the error
    # is relative to the smaller of u and 1 - u, so the tails count in full
    for u in (1e-9, 1 - 1e-9, 1 - 1e-12):
        x = indicator_kernel.quantile(u)
        beyond = -math.expm1(-x) / x  # 1 - F(x)
        if u < 0.5:
            below = x * math.fsum((-x) ** n / math.factorial(n + 2) for n in range(20))
            assert abs(below - u) <= 1e-12 * u
        else:
            assert abs(beyond - (1 - u)) <= 1e-12 * (1 - u)


def test_quantile_on_coarse_h_table_solves_exact_cdf():
    # h = 1 - s/10 on [0, 10]: Psi = s - s^2/20, mass 5, CDF 1 - (10 - x)^2/100;
    # the table's own two abscissae are far too coarse to start Newton from,
    # and near x = 10 the mass beyond is far below the rounding of Psi
    ker = build_kernel(KernelSpec.h_table([[0.0, 1.0], [10.0, 0.0]]))
    for u in (0.1, 0.9, 1 - 1e-9, 1 - 1e-12):
        x = ker.quantile(u)
        assert abs((1.0 - (10.0 - x) ** 2 / 100.0) - u) <= 1e-12
        assert abs(x - (10.0 - 10.0 * math.sqrt(1.0 - u))) <= 4 * math.ulp(10.0)


@pytest.mark.parametrize("points", [
    [[0.0, 1.0], [10.0, 0.0]],
    [[0.0, 1.0], [10.0, 0.5]],  # h jumps to 0 at the end
    [[0.0, 1.0], [1.0, 1e-6], [1000.0, 0.0]],  # first piece falls 1e6-fold
    [[0.0, 1.0], [2.0, 0.3], [5.0, 0.0], [9.0, 0.0]],  # support ends inside the table
    [[0.0, 1.0], [1.0, 1e-6], [1e9, 0.0]],  # most mass far out; h is rounding near 1e9
])
def test_quantile_inverts_h_table_cdf(points):
    ker = build_kernel(KernelSpec.h_table(points))
    half = ker.norm_l1 / 2
    us = np.concatenate([np.geomspace(1e-12, 0.5, 40), 1 - np.geomspace(1e-12, 0.5, 40),
                         np.linspace(0.001, 0.999, 199)])
    xs = ker.quantile(us)
    assert np.max(np.abs(ker.psi(xs) / half - us)) <= 1e-14


def _check_displacement_law(kernel, s):
    """Sign symmetry, the CDF of |s| at four abscissae and E[min(|s|, M)] of
    signed displacements s against the density h(|s|)/||h||_1."""
    n = s.size
    # sign symmetry
    frac_pos = np.mean(s > 0)
    assert abs(frac_pos - 0.5) < 3 * math.sqrt(0.25 / n)
    # CDF of |s| at a few abscissae, binomial error bars
    half = kernel.norm_l1 / 2
    for x in [0.2, 1.0, 4.0, 20.0]:
        p = kernel.psi(x) / half
        emp = np.mean(np.abs(s) <= x)
        assert abs(emp - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-9
    # truncated first moment against quadrature (the raw first moment of the
    # cutoff kernel diverges logarithmically, so test E[min(|s|, M)] instead)
    M = 10.0
    num, _ = integrate.quad(lambda t: min(t, M) * kernel.h(t), 0, np.inf, epsrel=1e-10, limit=400)
    mean_trunc = num / half
    emp = np.minimum(np.abs(s), M)
    se = emp.std(ddof=1) / math.sqrt(n)
    assert abs(emp.mean() - mean_trunc) < 3 * se


def test_sampler_matches_density(indicator_kernel, draw_displacement):
    rng = np.random.default_rng(42)
    n = 200_000
    _check_displacement_law(indicator_kernel, draw_displacement(indicator_kernel, rng, size=n))


# w(0) = 0 at k = 0, so the smallest momenta are the rarest, then a falling piece
RISE_FALL = [[0.0, 0.0], [0.5, 1.0], [1.0, 0.2], [2.0, 0.0]]
FORM_FACTOR_SPECS = {
    "indicator": KernelSpec.indicator(1.0),
    "from_zero": KernelSpec.radial_table(RISE_FALL),
    "from_quarter": KernelSpec.radial_table(FOUR_PIECES),
}


@pytest.mark.parametrize("spec", FORM_FACTOR_SPECS.values(), ids=FORM_FACTOR_SPECS.keys())
def test_displacement_matches_density(spec):
    ker = build_kernel(spec)
    _check_displacement_law(ker, ker.displacement(np.random.default_rng(42), 200_000)[0])


class _ExtremeDraws:
    """Generator stand-in returning the extreme values numpy can: uniforms 0
    and 1 - 2^-53, and Laplace variates +-ln(2^52)."""

    def random(self, size):
        return np.resize([0.0, 1.0 - 2.0**-53], size)

    def laplace(self, size):
        return np.resize([52 * math.log(2.0), -52 * math.log(2.0)], size)


@pytest.mark.parametrize("spec", FORM_FACTOR_SPECS.values(), ids=FORM_FACTOR_SPECS.keys())
def test_displacement_is_finite_at_extreme_uniforms(spec):
    # the momentum uniform lies in (0, 1], so k > 0 even on a piece from k = 0
    s, _ = build_kernel(spec).displacement(_ExtremeDraws(), 4)
    assert np.all(np.isfinite(s)) and np.all(s != 0.0)


def test_sampler_deterministic_for_fixed_seed(indicator_kernel, draw_displacement):
    a = draw_displacement(indicator_kernel, stream(7, 0), size=100)
    b = draw_displacement(indicator_kernel, stream(7, 0), size=100)
    np.testing.assert_array_equal(a, b)


def test_zero_kernel_sampling_raises(zero_kernel, draw_displacement):
    with pytest.raises(SamplingError):
        draw_displacement(zero_kernel, np.random.default_rng(0), size=4)
    zero_radial = build_kernel(KernelSpec.radial_table([[0.0, 0.0], [1.0, 0.0]]))
    for ker in (zero_kernel, zero_radial):
        with pytest.raises(SamplingError):
            ker.displacement(np.random.default_rng(0), 4)


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
    # cubic Hermite interpolation of a function with fourth derivative h'' is
    # off by at most max|h''| dx^4 / 384, here h''(0) = 4 pi int_0^1 k^3 dk = pi;
    # the table's own rounding is below 1e-12
    rng = stream(8, 0)
    for span in (30.0, 100.0):
        tab, dx = indicator_kernel.phi_dense(span)
        end = (tab.shape[1] - 1) * dx
        assert end >= span
        assert indicator_kernel.phi_dense(end) is indicator_kernel.phi_dense(span)  # cached
        x = np.concatenate([rng.uniform(0.0, end, size=100_000),
                            rng.uniform(0.0, 1.0, size=100_000)])  # h'' is largest near 0
        err = np.max(np.abs(hermite_phi(tab, x / dx) - indicator_kernel.phi(x)))
        bound = math.pi * dx**4 / 384
        assert err <= bound + 1e-12
        assert err > 0.5 * bound  # the bound is what the table achieves


K64 = np.linspace(0.0, 4.0, 65)


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.indicator(10.0),
    KernelSpec.indicator(100.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.radial_table(np.column_stack([K64, np.exp(-K64)])),
    KernelSpec.h_table([[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]]),  # the README's
    KernelSpec.h_table([[0.0, 1.0], [0.3, 0.5], [7.3, 0.1]]),  # h drops to 0 off the grid
], ids=["cutoff1", "cutoff10", "cutoff100", "four_pieces", "64_pieces", "readme_h_table",
        "h_table_ends_off_grid"])
def test_phi_dense_error_is_within_the_hermite_bound(spec):
    # the error is within the stated bound sup|h''| dx^4 / 384 but for the
    # nodes' rounding (4e-15 of |Phi|), the bound is within _PHI_TOL
    # norm_inf, and the grid is the coarsest that meets it: dx is its start
    # (1 on the form-factor modes, the last abscissa on an h table), or twice
    # dx would pass the bound; on the form-factor modes the error reaches at
    # least 0.3 of the bound
    kernel = build_kernel(spec)
    tab, dx = kernel.phi_dense(30.0)
    rng = stream(9, 0)
    x = np.concatenate([rng.uniform(0.0, 32.0, size=20_000),
                        rng.uniform(0.0, 64 * dx, size=20_000)])  # h'' is largest near 0
    phi = kernel.phi(x)
    err = np.abs(hermite_phi(tab, x / dx) - phi)
    pts = spec.points
    if spec.mode == "radial_table":
        h2 = 4 * math.pi * math.fsum(  # h''(0) = 4 pi int k^3 w dk, the largest |h''|
            integrate.quad(lambda k: k**3 * np.interp(k, pts[:, 0], pts[:, 1]), lo, hi,
                           epsabs=0.0, epsrel=1e-13)[0]
            for lo, hi in zip(pts[:-1, 0], pts[1:, 0]))
        start = 1.0
    else:
        h2, start = _pchip_h2(pts), pts[-1, 0]
    bound, tol = h2 * dx**4 / 384, _PHI_TOL * kernel.norm_inf
    assert np.max(err - 4e-15 * np.abs(phi)) <= bound <= tol
    assert dx == start or 16 * bound > tol
    if spec.mode == "radial_table":
        assert np.max(err) >= 0.3 * bound


def _pchip_h2(points):
    """The largest |h''| of an h table's PCHIP, from scipy's own: h'' is
    linear on each piece, so it is read at both ends of every piece."""
    ss = points[:, 0]
    d2 = PchipInterpolator(ss, points[:, 1]).derivative(2)
    return max(np.abs(d2(ss[:-1])).max(), np.abs(d2(np.nextafter(ss[1:], 0.0))).max())


_OFF_DYADIC = st.floats(0.1, 3.0).filter(lambda v: (v * 1024) % 1)  # not a multiple of 2^-10


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(_OFF_DYADIC, min_size=1, max_size=5), st.floats(0.5, 10.0),
       st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5))
def test_h_table_phi_dense_is_the_coarsest_grid_within_the_bound(steps, h0, ratios):
    # h tables of 2-6 points at least 0.1 apart, none a multiple of 2^-10,
    # with h > 0 at the last one, where h drops to 0: at spans 1, 7 and 30
    # the Phi table meets _PHI_TOL norm_inf but for the nodes' rounding,
    # holds at most _PHI_INTERVALS intervals and is the coarsest grid that
    # meets its bound (from dx = the last abscissa, halved)
    ss = np.cumsum([0.0, *steps])
    hs = h0 * np.cumprod([1.0, *ratios[: len(steps)]])
    pts = np.column_stack([ss, hs])
    kernel = build_kernel(KernelSpec.h_table(pts))
    h2, tol = _pchip_h2(pts), _PHI_TOL * kernel.norm_inf
    rng = stream(9, 3)
    for span in (1.0, 7.0, 30.0):
        tab, dx = kernel.phi_dense(span)
        n = tab.shape[1] - 1
        assert span <= n * dx and n <= _PHI_INTERVALS
        bound = h2 * dx**4 / 384
        assert bound <= tol
        assert dx == ss[-1] or 16 * bound > tol
        x = np.concatenate([rng.uniform(0.0, n * dx, 2000), rng.uniform(0.0, min(n * dx, ss[-1]), 4000)])
        phi = kernel.phi(x)
        assert np.max(np.abs(hermite_phi(tab, x / dx) - phi) - 4e-15 * np.abs(phi)) <= tol


def test_phi_dense_warns_once_where_the_interval_cap_stops_dx_short():
    # on a cutoff-100 indicator the 2^18-interval cap meets the bound up to
    # span 128 and stops dx short of it at span 512: that build warns, once
    ker = build_kernel(KernelSpec.indicator(100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ker.phi_dense(128.0)
    with pytest.warns(UserWarning, match=r"span 512 .* 1\.89e-10 norm_inf, past the tolerance 1e-11") as got:
        ker.phi_dense(512.0)
    assert len(got) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ker.phi_dense(300.0)  # the same table, cached


def test_phi_dense_loads_no_scipy():
    # the Z set-up path: the table chains from Phi(0) = 0, so it needs no phi()
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from spinboson.kernel import KernelSpec, build_kernel\n"
        "build_kernel(KernelSpec.indicator(1.0)).phi_dense(30.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    assert out.stdout.rstrip().endswith("[]")


# A radial table with w(k_0) > 0 at k_0 > 0 and a jump to 0 after the last point.
def _phi_integrand(y):
    """y - 1 + e^{-y}, by its Taylor series where the closed form cancels."""
    if y < 0.1:
        return y * y * math.fsum((-y) ** n / math.factorial(n + 2) for n in range(14))
    return y - 1.0 + math.exp(-y)


def _defining_integrals(points, s):
    """h, Psi, Phi and the mass beyond s at s >= 0 by scipy quad of their
    k-integrals 4 pi int k w e^{-sk}, 4 pi int w (1 - e^{-sk}),
    4 pi int (w/k)(sk - 1 + e^{-sk}) and 4 pi int w e^{-sk}."""
    pts = np.asarray(points, dtype=float)
    k, w = pts[:, 0], pts[:, 1]
    integrands = (
        lambda q: q * np.interp(q, k, w) * math.exp(-s * q),
        lambda q: np.interp(q, k, w) * -math.expm1(-s * q),
        lambda q: np.interp(q, k, w) * _phi_integrand(s * q) / q,
        lambda q: np.interp(q, k, w) * math.exp(-s * q),
    )
    # split at the table points and where e^{-sk} has decayed
    cuts = set(k.tolist())
    if s > 0:
        cuts |= {k[0] + j / s for j in (1, 10, 50) if k[0] + j / s < k[-1]}
    cuts = sorted(cuts)
    return [
        4 * math.pi * math.fsum(
            integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )
        for f in integrands
    ]


@pytest.mark.parametrize("spec, points", [
    (KernelSpec.indicator(1.0), [[0.0, 1.0], [1.0, 1.0]]),
    (KernelSpec.radial_table(FOUR_PIECES), FOUR_PIECES),
], ids=["indicator", "four_pieces"])
def test_closed_forms_match_quad_of_defining_integrals(spec, points):
    ker = build_kernel(spec)
    for s in (0.0, 1e-8, 1e-3, 0.3, 1.0, 30.0, 1e4):
        want = _defining_integrals(points, s)
        got = (ker.h(s), ker.psi(s), ker.phi(s))
        for name, g, v in zip(("h", "psi", "phi"), got, want):
            assert g == pytest.approx(v, rel=1e-10, abs=1e-300), (name, s)
        assert ker.h1(s) == pytest.approx(want[0], rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("spec, points", [
    (KernelSpec.indicator(1.0), [[0.0, 1.0], [1.0, 1.0]]),
    (KernelSpec.radial_table(FOUR_PIECES), FOUR_PIECES),
    (KernelSpec.radial_table(RISING_FALLING), RISING_FALLING),
], ids=["indicator", "four_pieces", "rising_falling"])
def test_h_matches_quad_at_series_seams_and_extremes(spec, points):
    # h, Psi and the mass beyond switch from their series to the G-row
    # recursion where |s| len = _SMALL on each piece: both sides of every
    # seam, 0, 1e-300 and 700/len
    ker = build_kernel(spec)
    lengths = np.diff(np.asarray(points)[:, 0])
    seams = _SMALL / lengths
    for s in [0.0, 1e-300, *seams * (1 - 2**-20), *seams * (1 + 2**-20), *700.0 / lengths]:
        h, psi, _, beyond = _defining_integrals(points, s)
        assert ker.h(s) == pytest.approx(h, rel=1e-12), s
        assert ker.h(-s) == ker.h(s)
        got_psi, got_beyond, _ = ker._parts(np.array([s]))[:, 0]
        assert got_psi == pytest.approx(psi, rel=1e-12), s
        assert got_beyond == pytest.approx(beyond, rel=1e-12), s


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.radial_table(RISING_FALLING),
], ids=["indicator", "four_pieces", "rising_falling"])
def test_parts_h_row_is_h(spec):
    # one evaluator: the h row of _parts is h bit for bit, on both sides of
    # every series seam and far out
    ker = build_kernel(spec)
    k = spec.points[:, 0]
    seams = _SMALL / np.diff(k)
    xs = np.concatenate([[0.0, 1e-300], np.abs(stream(9, 1).laplace(size=2000)), seams,
                         np.nextafter(seams, 0.0), np.nextafter(seams, np.inf), 700.0 / np.diff(k)])
    assert np.array_equal(ker._parts(xs)[2], ker.h(xs))


def test_indicator_is_the_one_piece_radial_table(indicator_kernel):
    ker = build_kernel(KernelSpec.radial_table([[0.0, 1.0], [1.0, 1.0]]))
    s = np.array([0.0, 1e-6, 0.4, 3.0, 1e3])
    for f in ("h", "psi", "phi"):
        np.testing.assert_array_equal(getattr(ker, f)(s), getattr(indicator_kernel, f)(s))
    assert (ker.norm_inf, ker.norm_l1) == (indicator_kernel.norm_inf, indicator_kernel.norm_l1)


def test_radial_table_norms_are_exact():
    ker = build_kernel(KernelSpec.radial_table(FOUR_PIECES))
    pts = np.asarray(FOUR_PIECES)
    k, w = pts[:, 0], pts[:, 1]
    # int k w and int w of the piecewise-linear w, piece by piece
    dk = np.diff(k)
    int_kw = np.sum(dk * (k[:-1] * (2 * w[:-1] + w[1:]) + k[1:] * (w[:-1] + 2 * w[1:])) / 6)
    int_w = np.sum(dk * (w[:-1] + w[1:]) / 2)
    assert ker.norm_inf == pytest.approx(4 * math.pi * int_kw, rel=1e-14)
    assert ker.norm_l1 == pytest.approx(8 * math.pi * int_w, rel=1e-14)


def test_quantile_inverts_radial_table_cdf():
    ker = build_kernel(KernelSpec.radial_table(FOUR_PIECES))
    pts = np.asarray(FOUR_PIECES)
    us = np.concatenate([[1e-9, 1e-6], np.linspace(0.001, 0.999, 199), [1 - 1e-9, 1 - 1e-12]])
    xs = ker.quantile(us)
    half = ker.norm_l1 / 2
    lower = us <= 0.5
    assert np.max(np.abs(ker.psi(xs[lower]) / half - us[lower]) / us[lower]) < 1e-12
    # above 1/2: the mass beyond x, 4 pi int w e^{-xk} dk by quad, against 1 - u
    for u, x in zip(us[~lower], xs[~lower]):
        beyond = 4 * math.pi * math.fsum(
            integrate.quad(lambda q: np.interp(q, pts[:, 0], pts[:, 1]) * math.exp(-x * q),
                           lo, hi, epsabs=0.0, epsrel=1e-13)[0]
            for lo, hi in zip(pts[:-1, 0], pts[1:, 0]))
        assert beyond == pytest.approx((1 - u) * half, rel=1e-10)


def test_many_piece_evaluation_has_bounded_memory():
    # the pieces are summed in passes: a 2^16-node call on a 64-piece table
    # keeps its temporaries near 2^16 elements, and agrees with small calls
    import tracemalloc

    k = np.linspace(0.0, 4.0, 65)
    ker = build_kernel(KernelSpec.radial_table(np.column_stack([k, np.exp(-k)])))
    xs = np.linspace(0.0, 30.0, (1 << 16) + 1)
    tracemalloc.start()
    try:
        h, psi = ker.h(xs), ker.psi(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    few = xs[::4096]
    np.testing.assert_allclose(h[::4096], ker.h(few), rtol=1e-14)
    np.testing.assert_allclose(psi[::4096], ker.psi(few), rtol=1e-14)


def test_radial_table_build_makes_no_quad_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy quad called during the kernel build")

    monkeypatch.setattr(integrate, "quad", forbidden)
    ker = build_kernel(KernelSpec.radial_table(FOUR_PIECES))
    ker.quantile(0.3)
    ker.phi_dense(10.0)


def test_build_makes_no_parts_call(monkeypatch):
    # the inverse-CDF table, the one reader of Psi and the mass beyond at
    # build time, is built on first use, so a build never calls _parts
    def forbidden(self, x):
        raise AssertionError("Kernel._parts called during the kernel build")

    ks = np.linspace(0.0, 4.0, 65)
    specs = [KernelSpec.indicator(1.0), KernelSpec.radial_table(np.column_stack([ks, np.exp(-ks)])),
             KernelSpec.h_table([[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]])]
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "_parts", forbidden)
        kernels = [build_kernel(spec) for spec in specs]
    for ker in kernels:
        x = ker.quantile(0.3)
        assert ker.psi(x) == pytest.approx(0.15 * ker.norm_l1, rel=1e-12)
    d, prob = kernels[-1].displacement(stream(5, 0), 1000)
    assert np.all(np.abs(d) <= 8.0) and np.ndim(prob) == 0 and prob == 1.0


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.h_table([[0.0, 1.0], [10.0, 0.0]]),
])
def test_quantile_is_elementwise(spec):
    # Newton stops per element, so a draw never depends on the other draws of
    # its call, and the batches rng.mc_mean packs into one call stay independent
    ker = build_kernel(spec)
    us = np.concatenate([stream(9, 0).random(1000), [1e-12, 1 - 1e-12]])
    xs = ker.quantile(us)
    alone = np.array([ker.quantile(us[i:i + 1])[0] for i in range(us.size)])
    assert np.array_equal(xs, alone)


@pytest.mark.parametrize("spec,size", [
    (KernelSpec.indicator(1.0), 1000),
    (KernelSpec.radial_table(FOUR_PIECES), 1000),
    (KernelSpec.h_table([[0.0, 1.0], [10.0, 0.0]]), 1000),
    (KernelSpec.radial_table(FOUR_PIECES), 30_000),
], ids=["spec0", "spec1", "spec2", "four_pieces_30000"])
def test_h_is_elementwise(spec, size):
    # each element takes its own branch of the series seam and the pieces sum
    # alike for any call size, so the h factors of the batches rng.mc_mean
    # packs into one call stay independent; at 30,000 elements a 4-piece table
    # would differ from one element alone if a pass summed only some pieces
    ker = build_kernel(spec)
    k = spec.points[:, 0]
    seams = _SMALL / np.diff(k)
    xs = np.concatenate([stream(9, 0).laplace(size=size), seams,
                         np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)])
    hs, psis = ker.h(xs), ker.psi(xs)
    for i in range(0, xs.size, max(1, xs.size // 2000)):
        assert hs[i] == ker.h(xs[i:i + 1])[0]
        assert psis[i] == ker.psi(xs[i:i + 1])[0]


@st.composite
def _kernels(draw):
    """An indicator, a radial table of 2-6 points from k in [0, 1] or an h
    table of 2-6 points, with zeros among the values but not all zero."""
    mode = draw(st.sampled_from(["indicator", "radial_table", "h_table"]))
    if mode == "indicator":
        return build_kernel(KernelSpec.indicator(draw(st.floats(0.1, 100.0))))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5))
    values = [draw(st.floats(0.1, 5.0))] + draw(st.lists(
        st.just(0.0) | st.floats(0.0, 5.0), min_size=len(steps), max_size=len(steps)))
    if mode == "radial_table":
        k = draw(st.floats(0.0, 1.0)) + np.cumsum([0.0, *steps])
        return build_kernel(KernelSpec.radial_table(np.column_stack([k, values])))
    return build_kernel(KernelSpec.h_table(np.column_stack([np.cumsum([0.0, *steps]),
                                                            sorted(values, reverse=True)])))


_SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
# +-0, negative values and values past every last abscissa (at most 16 here)
_TIMES = st.sampled_from([0.0, -0.0, 5e-324, -1e-300]) | st.floats(-60.0, 60.0) | st.floats(-1e4, 1e4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_kernels(), arrays(np.float64, _SHAPES, elements=_TIMES),
       arrays(np.float64, _SHAPES, elements=st.floats(0.0, 1.0, exclude_max=True)))
def test_evaluators_keep_the_elementwise_contract(ker, s, u):
    # h, psi, phi and quantile give at s[i] their value at the scalar s[i],
    # bit for bit, in the shape of s, and a float for a scalar; psi is odd
    # and phi even
    for f, x in ((ker.h, s), (ker.psi, s), (ker.phi, s), (ker.quantile, u)):
        out, alone = f(x), [f(float(xi)) for xi in x.ravel()]
        assert all(type(v) is float for v in alone)
        assert type(out) is float if x.ndim == 0 else out.shape == x.shape
        assert np.asarray(out).tobytes() == np.array(alone).tobytes()
    assert np.array_equal(ker.psi(-s), -ker.psi(s))
    assert np.array_equal(ker.phi(-s), ker.phi(s))


# ---------------------------------------------------------------------------
# finite-horizon pieces: the slope row, the h table and the windowed draw
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.radial_table(RISING_FALLING),
], ids=["indicator", "four_pieces", "rising_falling"])
def test_slope_row_matches_quad_of_defining_integral(spec):
    # row 3 of _pieces is h' = -4 pi int k^2 w e^{-|s|k} dk, on both sides of
    # each piece's series seam and far out
    ker = build_kernel(spec)
    pts = spec.points
    seams = _SMALL / np.diff(pts[:, 0])
    for s in np.concatenate([[0.0, 0.3, 1.0, 4.0, 30.0], seams * 0.999, seams * 1.001]):
        want = -4 * math.pi * math.fsum(
            integrate.quad(lambda k: k * k * np.interp(k, pts[:, 0], pts[:, 1]) * math.exp(-s * k),
                           lo, hi, epsabs=0.0, epsrel=1e-13)[0]
            for lo, hi in zip(pts[:-1, 0], pts[1:, 0]))
        assert ker._pieces(np.array([s]), 3)[0] == pytest.approx(want, rel=1e-12), s


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.indicator(10.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.radial_table(np.column_stack([K64, np.exp(-K64)])),
], ids=["cutoff1", "cutoff10", "four_pieces", "64_pieces"])
@pytest.mark.parametrize("horizon", [0.5, 5.0, 30.0])
def test_h_table_is_within_its_bound(spec, horizon):
    # the Hermite table of h over [0, 2^ceil(log2 T)] is within its bound
    # _PHI_TOL norm_inf of h, and reaches a fair share of it (dx is the
    # largest power of two that meets the bound, so the bound is past
    # _PHI_TOL norm_inf / 16; the error reaches 0.1-0.8 of the bound here)
    ker = build_kernel(spec)
    h = ker._h_dense(horizon)
    span = 2.0 ** math.ceil(math.log2(horizon))
    assert ker._h_dense(span) is h  # cached per power-of-two span
    rng = stream(9, 2)
    s = np.concatenate([rng.uniform(-span, span, size=40_000),
                        rng.uniform(0.0, span / 64, size=10_000), [0.0, span, -span]])
    err = np.max(np.abs(h(s) - ker.h(s)))
    assert 0.05 / 16 * _PHI_TOL * ker.norm_inf < err <= _PHI_TOL * ker.norm_inf
    assert h(np.array([2 * span]))[0] == pytest.approx(ker.h(span), rel=1e-12)  # past the end


def test_h_table_on_an_h_table_kernel_is_its_pchip(table_kernel):
    assert table_kernel._h_dense(5.0) == table_kernel.h


@pytest.mark.parametrize("cutoff, horizon, last", [(1.0, 65536.0, 2048.0), (100.0, 30.0, 16.0)])
def test_h_table_past_the_interval_cap_is_h(cutoff, horizon, last):
    # where the bound needs more than _PHI_INTERVALS intervals, the table is
    # h itself rather than a coarser table past its bound; up to span
    # `last` the bound fits within the cap and the table is kept
    ker = build_kernel(KernelSpec.indicator(cutoff))
    assert ker._h_dense(horizon) == ker.h
    assert ker._h_dense(last) != ker.h


def test_h_table_builds_in_a_millisecond_and_loads_no_scipy():
    # the finite-T workload rebuilds its kernel per call, so the T = 5 table
    # on the cutoff-1 indicator must be cheap: best of 20 builds below 1 ms
    import subprocess
    import sys

    script = (
        "import sys, time\n"
        "from spinboson.kernel import KernelSpec, build_kernel\n"
        "best = 1.0\n"
        "for _ in range(20):\n"
        "    ker = build_kernel(KernelSpec.indicator(1.0))\n"
        "    t0 = time.perf_counter(); ker._h_dense(5.0); best = min(best, time.perf_counter() - t0)\n"
        "print(best, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    best, mods = out.stdout.split(" ", 1)
    assert float(best) < 1e-3 and mods.strip() == "[]"


def _laplace_window_cdf(y, a, b):
    """Mass of Laplace(0, 1) on [a, y] and on [a, b], and the share of [a, b]
    below y counted from the end the draw counts from (a, but b for a window
    below 0), from the CDF in expm1 forms."""
    if a >= 0:
        return math.expm1(a - y) / math.expm1(a - b), -0.5 * math.exp(-a) * math.expm1(a - b)
    if b < 0:
        return math.expm1(y - b) / math.expm1(a - b), -0.5 * math.exp(b) * math.expm1(a - b)
    mass = -0.5 * math.expm1(a) - 0.5 * math.expm1(-b)
    if y >= 0:
        below = -0.5 * math.expm1(a) - 0.5 * math.expm1(-y)
    else:  # y - a carries the rounding of a: past 1 the difference of exps is exact enough
        below = 0.5 * (math.exp(y) - math.exp(a)) if y - a > 1 else 0.5 * math.exp(a) * math.expm1(y - a)
    return below / mass, mass


LAPLACE_WINDOWS = [(-1.0, 2.0), (-5.0, 0.0), (0.0, 5.0), (-1e-9, 1e-9), (-0.3, 1e-14),
                   (-700.0, 700.0), (-3.0, -2.0), (0.5, 0.5), (-2.0, -2.0), (0.0, 0.0),
                   (3.0, 3.0 + 1e-7), (30.0, 80.0), (-40.0, -39.0), (700.0, 720.0)]


@pytest.mark.parametrize("a, b", LAPLACE_WINDOWS)
def test_truncated_laplace_inverts_the_window_cdf(a, b):
    # windows across 0, in both deep tails, narrow and of width 0, at the
    # extreme uniforms 0 and 1 - 2^-53 and between: the mass to 1e-15
    # relative, and each draw at its uniform's share of the window, to the
    # rounding of the draw itself; a window below 0 is drawn as Kernel.displacement
    # draws it, mirrored above 0 and flipped back
    from spinboson.kernel import _truncated_laplace

    us = np.array([0.0, 1e-300, 1e-17, 1e-9, 0.3, 0.5, 0.77, 1 - 1e-9, 1 - 2.0**-53])
    if b < 0:
        y, mass = _truncated_laplace(us, np.full(us.size, -b), np.full(us.size, -a))
        y = -y
    else:
        y, mass = _truncated_laplace(us, np.full(us.size, a), np.full(us.size, b))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(mass))
    tol = 4 * np.spacing(np.maximum(abs(a), abs(b)))
    assert np.all((y >= a - tol) & (y <= b + tol))
    if b == a:
        assert np.all(mass == 0.0) and np.all(y == a)
        return
    _, want = _laplace_window_cdf(a, a, b)
    assert np.all(mass == mass[0]) and abs(mass[0] - want) <= 1e-15 * want
    for u, yy in zip(us, y):
        share, _ = _laplace_window_cdf(yy, a, b)
        density = 0.5 * math.exp(-abs(yy)) / want  # of the share, per unit of y
        assert abs(share - u) <= 1e-15 + 4 * density * np.spacing(abs(yy)), (u, yy)


class _Uniforms:
    """Generator stand-in whose random(n) returns the given uniforms."""

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, size):
        return np.resize(self.us, size)


WINDOWS = np.array([(-1.0, 2.0), (-3.0, 0.5), (-0.01, 0.01), (0.0, 4.0), (-4.0, 0.0),
                    (0.5, 0.5), (-2.0, -2.0), (3.0, 5.0), (-25.0, -20.0), (40.0, 60.0),
                    (-600.0, 600.0), (1e-12, 2e-12), (-59.0, 59.5)])


@pytest.mark.parametrize("points", [
    [[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]],  # the README's
    [[0.0, 1.0], [1.0, 1e-6], [1000.0, 0.0]],  # first piece falls 1e6-fold
], ids=["readme", "steep"])
def test_h_table_window_draw_inverts_the_truncated_cdf(points):
    # on an h table the windowed draw is the exact inverse of the truncated
    # CDF from psi: each draw at its uniform's share of the window (read on
    # the mass beyond past the median), P the psi difference over norm_l1
    ker = build_kernel(KernelSpec.h_table(points))
    us = np.array([0.0, 1e-12, 0.2, 0.5, 0.9, 1 - 2.0**-53])
    lo, hi = np.repeat(WINDOWS[:, 0], us.size), np.repeat(WINDOWS[:, 1], us.size)
    d, prob = ker.displacement(_Uniforms(np.tile(us, len(WINDOWS))), len(lo), lo, hi)
    assert np.all((lo <= d) & (d <= hi)) and np.all((prob >= 0.0) & (prob <= 1.0))
    mass = ker.psi(hi) - ker.psi(lo)
    np.testing.assert_allclose(prob * ker.norm_l1, mass, rtol=1e-12, atol=1e-15 * ker.norm_l1)
    share = np.divide(ker.psi(d) - ker.psi(lo), mass, out=np.zeros_like(d), where=mass > 0)
    u = np.tile(us, len(WINDOWS))
    u = np.where(hi < 0.0, 1.0 - u, u)  # a window below 0 is counted from its near end
    live = mass > 1e-9 * ker.norm_l1
    assert np.max(np.abs(share - u)[live]) < 1e-9
    assert np.all(d[hi == lo] == lo[hi == lo]) and np.all(prob[hi == lo] == 0.0)


@pytest.mark.parametrize("spec", [
    KernelSpec.indicator(1.0),
    KernelSpec.radial_table(FOUR_PIECES),
    KernelSpec.h_table([[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]]),
], ids=["indicator", "four_pieces", "readme_h_table"])
@pytest.mark.parametrize("window", [(-1.0, 2.0), (-6.0, 0.3), (0.0, 4.0), (3.0, 7.0),
                                    (-30.0, -20.0), (-0.05, 0.05), None])
def test_window_draw_law_matches_the_truncated_cdf(spec, window):
    # the P-weighted law of the windowed draw is h truncated to the window:
    # the weighted CDF at five abscissae within 4 sds of psi's, and the
    # mean of P within 4 sds of the window's share of norm_l1 (on the
    # form-factor modes P depends on the drawn momentum; on an h table it
    # is that share exactly); with no window (None) the draw covers the
    # whole line, from Psi(-inf) = -norm_l1 / 2, and P is 1 exactly
    ker = build_kernel(spec)
    n = 200_000
    if window is None:
        d, prob = ker.displacement(stream(10, 1), n)
        assert np.all(prob == 1.0)
        prob, below, share, xs = np.ones(n), -0.5 * ker.norm_l1, 1.0, np.linspace(-4.0, 4.0, 7)[1:-1]
    else:
        lo, hi = np.full(n, window[0]), np.full(n, window[1])
        d, prob = ker.displacement(stream(10, 1), n, lo, hi)
        assert np.all((lo <= d) & (d <= hi))
        below = ker.psi(window[0])
        share, xs = (ker.psi(window[1]) - below) / ker.norm_l1, np.linspace(*window, 7)[1:-1]
    assert abs(prob.mean() - share) <= 4 * prob.std() / math.sqrt(n) + 1e-14 * share
    for x in xs:
        want = (ker.psi(x) - below) / ker.norm_l1
        ind = prob * (d <= x)
        assert abs(ind.mean() - want) <= 4 * ind.std() / math.sqrt(n) + 1e-14 * share, x


@pytest.mark.parametrize("spec", FORM_FACTOR_SPECS.values(), ids=FORM_FACTOR_SPECS.keys())
def test_window_draw_is_finite_at_extreme_uniforms(spec):
    # the momentum uniform 1 - u lies in (0, 1], so k > 0; the window draw
    # stays in its window and P in [0, 1] at u = 0 and 1 - 2^-53
    ker = build_kernel(spec)
    lo, hi = np.repeat(WINDOWS[:, 0], 2), np.repeat(WINDOWS[:, 1], 2)
    d, prob = ker.displacement(_ExtremeDraws(), len(lo), lo, hi)
    assert np.all((lo <= d) & (d <= hi)) and np.all((prob >= 0.0) & (prob <= 1.0))
    assert np.all(prob[lo == hi] == 0.0) and np.all(prob[lo < hi] > 0.0)


def test_zero_kernel_window_draw_raises(zero_kernel):
    zero_radial = build_kernel(KernelSpec.radial_table([[0.0, 0.0], [1.0, 0.0]]))
    for ker in (zero_kernel, zero_radial):
        with pytest.raises(SamplingError):
            ker.displacement(np.random.default_rng(0), 4, np.zeros(4), np.ones(4))


def test_displacement_keeps_its_draws(indicator_kernel):
    # the unwindowed draw shares the momentum draw with the windowed one and
    # keeps its order: the momenta from the first call, then the Laplace
    # variates over them
    for ker in (indicator_kernel, build_kernel(KernelSpec.radial_table(FOUR_PIECES))):
        rng = stream(12, 0)
        k = ker._momenta(rng, 1000)
        want = rng.laplace(size=1000) / k
        d, prob = ker.displacement(stream(12, 0), 1000)
        assert d.tobytes() == want.tobytes() and prob == 1.0
