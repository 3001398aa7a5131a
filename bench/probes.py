"""Per-layer metrics of a traced run.

Two sources, so that every metric is measured on every workload:

* counts at layer boundaries during the traced operations of the workload
  (per operation; zero where the workload bypasses the layer), and each
  layer's self time as a share of the traced operation time;
* fixed probes of single layers, each timed at the input size that the
  workload it serves uses (listed in bench/README.md).

Probes run after the timed loop, so they never disturb end-to-end numbers.
"""

from __future__ import annotations

import math
import statistics
import time

from spans import LAYERS, Instrumented, Tracer

PROBE_TERMS = 32               # prefix of the cmc_p4 visit order for term_ms
PROBE_REPEATS = 5
SELF_LAYERS = tuple(x for x in LAYERS if x != "series")


def best_median(fn, repeats=PROBE_REPEATS):
    """Median wall seconds of repeated calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))]


def probe_kernel(mods, w, seed):
    import numpy as np

    out = {}
    tracer = Tracer()
    with Instrumented(tracer):
        t0 = time.perf_counter()
        radial = mods.build(w.RADIAL)
        out["kernel.build_s"] = time.perf_counter() - t0
    out["kernel.build_quad_calls"] = tracer.calls("scipy.quad")

    indicator = mods.build(w.INDICATOR)
    fresh = mods.build(w.INDICATOR)
    t0 = time.perf_counter()
    fresh.phi_dense(w.Z_HORIZON)
    out["kernel.phi_dense_s"] = time.perf_counter() - t0

    rng = np.random.default_rng(seed)
    small = w.CMC_BUDGET // 100  # samples per sampler call in cmc_p4
    us = [rng.random(small) for _ in range(200)]
    out["kernel.quantile_us_small"] = best_median(
        lambda: [indicator.quantile(u) for u in us]) / len(us) * 1e6
    big = rng.random(10_000)
    out["kernel.quantile_us_per_sample"] = best_median(
        lambda: indicator.quantile(big)) / big.size * 1e6

    ss = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 600)])
    table = mods.build({"mode": "h_table",
                        "points": np.column_stack([ss, indicator.h(ss)]).tolist()})
    xs = [float(x) for x in rng.uniform(0.0, 10.0, 2000)]
    for mode, k in (("indicator", indicator), ("radial_table", radial), ("h_table", table)):
        h1 = k.h1
        out[f"kernel.h1_us.{mode}"] = best_median(lambda: [h1(x) for x in xs]) / len(xs) * 1e6
    return indicator, radial, out


def probe_quadrature(mods, w, indicator, radial):
    """A heavy c_2 term at T = 5 by quadrature on the radial_table kernel: the
    scalar h1 loop through a scipy PPoly.  The indicator kernel is the same
    function with h in closed form, so its value is the oracle.  Returns the
    metrics and whether the oracle check passed."""
    term = mods.integrator.cluster_terms(2)[1]

    def run(kernel):
        return mods.integrator.integrate_term(kernel, term, mode="finite",
                                              horizon=w.RESUM_HORIZON, method="quad")

    t0 = time.perf_counter()
    got = run(radial).value
    out = {"integrator.quad_term_s": time.perf_counter() - t0}
    tracer = Tracer()
    with Instrumented(tracer, [radial]):
        run(radial)
    out["integrator.quad_calls"] = tracer.calls("scipy.quad")
    out["integrator.h1_calls"] = tracer.calls("kernel.h1")
    want = run(indicator).value
    return out, abs(got - want) <= w.QUAD_REL_TOL * abs(want)


def probe_layers(mods, w, seed, indicator):
    out = {}
    alpha = mods.series.radius_bound(indicator) / 2
    for T in (10.0, 30.0):
        indicator.phi_dense(T)  # the table is set-up, not path work
        t0 = time.perf_counter()
        mods.jump_process.estimate_Z(alpha, T, indicator, w.PROBE_SAMPLES, seed)
        out[f"jump_process.us_per_path.T{int(T)}"] = (
            (time.perf_counter() - t0) / w.PROBE_SAMPLES * 1e6)

    stream = mods.rng.stream
    out["rng.stream_us"] = best_median(
        lambda: [stream(seed, 3, 0, b) for b in range(1000)]) / 1000 * 1e6

    out["combinatorics.enumerate_s"] = best_median(
        lambda: mods.integrator.cluster_terms(w.CMC_P))
    terms4 = mods.integrator.cluster_terms(w.CMC_P)
    out["combinatorics.terms.p4"] = len(terms4)
    out["combinatorics.terms.p2"] = len(mods.integrator.cluster_terms(2))
    out["integrator.sampler_calls.c4"] = len(terms4) * len(
        mods.rng.batch_layout(w.CMC_BUDGET))

    order = [(k * w.CMC_STRIDE) % len(terms4) for k in range(PROBE_TERMS)]
    term_ms = []
    for k in order:
        t0 = time.perf_counter()
        mods.integrator.integrate_term(indicator, terms4[k], method="mc",
                                       budget=w.CMC_BUDGET, seed=seed, term_index=k)
        term_ms.append((time.perf_counter() - t0) * 1e3)
    out["integrator.term_ms.p50"] = percentile(term_ms, 0.5)
    out["integrator.term_ms.p90"] = percentile(term_ms, 0.9)

    budget = w.RESUM_BUDGET // 3
    t0 = time.perf_counter()
    mods.integrator.coefficient(indicator, 2, mode="finite", horizon=w.RESUM_HORIZON,
                                method="mc", budget=budget, seed=seed)
    out["integrator.mc_samples_per_s"] = 3 * budget / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    mods.integrator.brute_force_coefficient(indicator, 2, w.RESUM_HORIZON,
                                            budget=2 * budget, seed=seed)
    out["integrator.raw_s"] = time.perf_counter() - t0
    return out


def traced_counts(tracer, n_ops, traced_walls):
    """Per-operation counts at layer boundaries, and self-time shares."""
    out = {
        "rng.streams": tracer.calls("rng.stream") / n_ops,
        "kernel.quantile_calls": tracer.calls("kernel.quantile") / n_ops,
    }
    total = math.fsum(traced_walls)
    selfs = tracer.self_seconds()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * selfs.get(layer, 0.0) / total
    return out


def layer_metrics(mods, w, seed, tracer, walls, traced_walls):
    """Every per-layer metric this process can measure (the parent adds the
    fresh-process ones: cli.import_s and the T = 100 path probe), and whether
    the quadrature probe's oracle check passed."""
    out = traced_counts(tracer, len(traced_walls), traced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    indicator, radial, kernel_out = probe_kernel(mods, w, seed)
    out.update(kernel_out)
    out.update(probe_layers(mods, w, seed, indicator))
    quad_out, ok = probe_quadrature(mods, w, indicator, radial)
    out.update(quad_out)
    return out, ok
