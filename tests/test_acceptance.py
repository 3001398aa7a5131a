"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The stochastic criteria
use fixed seeds, so the whole suite is reproducible bit for bit.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import pytest

from spinboson.cli import main
from spinboson.integrator import coefficient
from spinboson.jump_process import estimate_Z
from spinboson.kernel import KernelSpec, build_kernel
from spinboson.series import coupling_bound, radius_bound


@pytest.fixture(scope="module")
def kernel():
    return build_kernel(KernelSpec.indicator(1.0))


@pytest.fixture(scope="module")
def kernel_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "indicator.json"
    path.write_text(json.dumps({"mode": "indicator", "cutoff": 1.0}))
    return str(path)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_criterion_1_kernel_constants(kernel):
    t0 = time.time()
    rel_inf = abs(kernel.norm_inf - 2 * math.pi) / (2 * math.pi)
    rel_l1 = abs(kernel.norm_l1 - 8 * math.pi) / (8 * math.pi)
    dt = time.time() - t0
    ok = rel_inf < 1e-6 and rel_l1 < 1e-6 and dt < 1.0
    report(1, ok, f"sup norm off by {rel_inf:.2e}, L1 off by {rel_l1:.2e}, {dt:.2f}s")


def test_criterion_2_radius_certificates(kernel):
    t0 = time.time()
    r = radius_bound(kernel)
    exact = 1.0 / (256 * math.pi * math.sqrt(math.e))
    lam_r = 4 * math.pi * math.sqrt(r)
    dt = time.time() - t0
    ok = (
        abs(r - exact) / exact < 1e-12
        and abs(r - 7.54e-4) / 7.54e-4 < 5e-4  # 3 significant figures
        and abs(lam_r - 0.34) < 6e-3  # quoted to 2 figures (true value 0.345)
        and dt < 1.0
    )
    report(2, ok, f"R_min = {r:.6e}, lambda radius = {lam_r:.4f}, {dt:.2f}s")


def test_criterion_3_lemma1_suite():
    t0 = time.time()
    code, out = run_cli([
        "verify", "lemma1", "--samples", "1000000", "--seed", "2026",
        "--tuples", "20", "--workers", "2",
    ])
    doc = json.loads(out)
    dt = time.time() - t0
    ok = code == 0 and doc["passes"] >= 18 and dt < 120
    report(3, ok, f"{doc['passes']}/20 tuples within 3 sigma at 1e6 paths, {dt:.1f}s")


def test_criterion_4_bkar_suite():
    t0 = time.time()
    oks, details = [], []
    for p in (2, 3):
        code, out = run_cli([
            "verify", "bkar", "--p", str(p), "--trials", "100", "--seed", "9",
        ])
        doc = json.loads(out)
        oks.append(code == 0 and doc["max_residual"] < 1e-8)
        details.append(f"p={p} max residual {doc['max_residual']:.2e}")
        if p == 2:
            oks.append(doc["analytic_disjoint_residual"] == 0.0)
            oks.append(doc["analytic_overlap_residual"] == 0.0)
    dt = time.time() - t0
    ok = all(oks) and dt < 30
    report(4, ok, "; ".join(details) + f", analytic cases exact, {dt:.1f}s")


def test_criterion_5_combinatorial_census():
    t0 = time.time()
    code, out = run_cli(["verify", "counts", "--p", "4"])
    doc = json.loads(out)
    dt = time.time() - t0
    ok = code == 0 and all(doc["checks"].values()) and dt < 60
    report(5, ok, f"checks {doc['checks']}, per-tree max {doc['per_tree_max']}, {dt:.1f}s")


def test_criterion_6_resummation_identity(kernel_cfg):
    t0 = time.time()
    code, out = run_cli([
        "verify", "resummation", "--kernel", kernel_cfg, "--horizon", "2", "5",
        "--budget", "1000000", "--seed", "31", "--workers", "2",
    ])
    doc = json.loads(out)
    dt = time.time() - t0
    ok = code == 0 and doc["passed"] and dt < 600
    details = [
        f"T={c['horizon']}: order1 {'ok' if c['order1_ok'] else 'BAD'}, "
        f"order2 dev {abs(c['raw_order2'] - c['exp_combination_order2']):.3e} "
        f"vs 3sigma {3 * c['order2_sigma']:.3e}"
        for c in doc["checks"]
    ]
    report(6, ok, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_7_series_vs_simulation(kernel):
    t0 = time.time()
    alpha = radius_bound(kernel) / 2
    T = 30.0
    z = estimate_Z(alpha, T, kernel, samples=1_000_000, seed=77, workers=2)
    log_z = math.log(z.value)
    sigma_log = z.std_error / z.value

    c1 = coefficient(kernel, 1, mode="finite", horizon=T, method="quad")
    c2 = coefficient(kernel, 2, mode="finite", horizon=T, method="mc",
                     budget=400_000, seed=78, workers=2)
    c3 = coefficient(kernel, 3, mode="finite", horizon=T, method="mc",
                     budget=120_000, seed=79, workers=2)
    series_val = sum(
        alpha**p * c.value / math.factorial(p) for p, c in ((1, c1), (2, c2), (3, c3))
    )
    sigma_series = math.sqrt(
        sum((alpha**p * c.statistical_error / math.factorial(p)) ** 2
            for p, c in ((1, c1), (2, c2), (3, c3)))
    )
    x = coupling_bound(kernel) * alpha  # = 1/2 exactly at the default gamma
    tail = T * (-math.log1p(-x) - x - x**2 / 2 - x**3 / 3)
    budget_total = 3 * (sigma_log + sigma_series) + tail + 1e-4 * abs(c1.value) * alpha
    dev = abs(log_z - series_val)
    dt = time.time() - t0
    ok = dev <= budget_total and abs(x - 0.5) < 1e-12 and dt < 900
    report(
        7, ok,
        f"log Z = {log_z:.6f}, series = {series_val:.6f}, |dev| = {dev:.2e} "
        f"<= 3sigma+tail = {budget_total:.3f} (tail {tail:.3f}), {dt:.1f}s",
    )


def test_criterion_8_integrator_self_consistency(kernel):
    t0 = time.time()
    oks, details = [], []
    for p, budget in ((1, 2_000_000), (2, 800_000)):
        quad = coefficient(kernel, p, method="quad")
        mc = coefficient(kernel, p, method="mc", budget=budget, seed=100 + p, workers=2)
        tol = 3 * mc.statistical_error + 1e-6 * abs(quad.value)
        dev = abs(quad.value - mc.value)
        oks.append(dev <= tol)
        details.append(f"c{p}: quad {quad.value:.6f}, mc {mc.value:.6f}, dev {dev:.2e} <= {tol:.2e}")
    # quadrature ignores pin_pair; Monte Carlo roots its sampling tree there
    pin1 = coefficient(kernel, 2, method="mc", budget=800_000, seed=201, pin_pair=1, workers=2)
    pin_tol = 3 * pin1.statistical_error + 1e-6 * abs(quad.value)
    pin_dev = abs(quad.value - pin1.value)
    oks.append(pin_dev <= pin_tol)
    details.append(f"c2 rooted at pair 1: mc {pin1.value:.6f}, dev {pin_dev:.2e} <= {pin_tol:.2e}")
    dt = time.time() - t0
    ok = all(oks) and dt < 600
    report(8, ok, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_9_determinism(kernel_cfg):
    runs = [
        ["simulate", "--kernel", kernel_cfg, "--alpha", "2e-4", "--horizon", "4",
         "--samples", "4000", "--seed", "5"],
        ["coefficient", "--kernel", kernel_cfg, "--p", "2", "--method", "mc",
         "--budget", "20000", "--seed", "6"],
        ["coefficient", "--kernel", kernel_cfg, "--p", "1", "--finite-T", "3",
         "--raw", "--budget", "20000", "--seed", "6"],
        ["energy", "--kernel", kernel_cfg, "--alpha", "3e-4", "--pmax", "2",
         "--method", "mc", "--budget", "20000", "--seed", "7"],
        ["verify", "lemma1", "--samples", "50000", "--tuples", "4", "--seed", "8"],
        ["verify", "bkar", "--p", "2", "--trials", "10", "--seed", "9"],
        ["verify", "resummation", "--kernel", kernel_cfg, "--horizon", "2",
         "--budget", "50000", "--seed", "10"],
    ]
    mismatches = []
    for argv in runs:
        code1, out1 = run_cli(argv + ["--workers", "1"])
        code8, out8 = run_cli(argv + ["--workers", "8"])
        if out1 != out8 or code1 != code8:
            mismatches.append(argv[0] + (" " + argv[1] if argv[0] == "verify" else ""))
    ok = not mismatches
    report(9, ok, "byte-identical output for workers 1 vs 8 across all "
                  f"stochastic subcommands{'' if ok else ': mismatches ' + str(mismatches)}")
