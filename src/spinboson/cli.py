"""Command-line entry point.

Subcommands:
  norms        kernel norms from a JSON kernel config
  radius       convergence-radius certificate
  simulate     Monte Carlo estimate of Z(alpha, T)
  coefficient  connected (or raw-series) coefficients, quadrature or MC
  energy       truncated energy series with tail certificate
  counts       combinatorial census numbers
  verify       lemma1 | bkar | resummation | counts  (exit 1 on failure)

All numeric output is a single JSON document on stdout (CSV only for the
per-term coefficient dump); diagnostics go to stderr.  Exit codes: 0
success, 1 verification failure, 2 usage or configuration error.  Identical
invocations with the same seed produce byte-identical output for any
--workers value.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import combinatorics as comb
from . import integrator, jump_process, series
from .errors import (
    CertificateError,
    ConfigError,
    EstimateUnreliableError,
    ResourceError,
    SamplingError,
    StructureError,
)
from .kernel import KernelSpec, build_kernel
from .rng import stream

KERNEL_ENV = "SPINBOSON_KERNEL"
BKAR_RESIDUAL_TOL = 1e-12

_TAG_TUPLES = 7
_TAG_BKAR = 8


def _load_kernel(args):
    path = getattr(args, "kernel", None) or os.environ.get(KERNEL_ENV)
    if not path:
        raise ConfigError(
            f"no kernel config: pass --kernel PATH or set {KERNEL_ENV}"
        )
    return build_kernel(KernelSpec.from_json(path))


def _jsonable(x):
    if isinstance(x, float):
        return None if not math.isfinite(x) else x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x))
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(doc) -> None:
    print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))


def _coeff_doc(est: integrator.CoefficientEstimate) -> dict:
    return {
        "value": est.value,
        "statistical_error": est.statistical_error,
        "quadrature_tolerance": est.quadrature_tolerance,
        "method": est.method,
        "p": est.p,
        "finite_T": est.finite_T,
        "warning": est.warning,
    }


# ---------------------------------------------------------------------------
# subcommand handlers: return (document, exit_code)
# ---------------------------------------------------------------------------


def _cmd_norms(args):
    ker = _load_kernel(args)
    return {
        "norm_inf": ker.norm_inf,
        "norm_l1": ker.norm_l1,
        "h_at_zero": float(ker.h(0.0)),
    }, 0


def _cmd_radius(args):
    ker = _load_kernel(args)
    r = series.radius_bound(ker)
    unbounded = math.isinf(r)
    return {
        "R_min": None if unbounded else r,
        "lambda_radius": None if unbounded else 4.0 * math.pi * math.sqrt(r),
        "K": series.coupling_bound(ker, args.gamma) if not unbounded else 0.0,
        "gamma": args.gamma,
        "delta": series.delta_gamma(args.gamma),
        "unbounded": unbounded,
    }, 0


def _cmd_simulate(args):
    ker = _load_kernel(args)
    est = jump_process.estimate_Z(
        args.alpha, args.horizon, ker, args.samples, args.seed, workers=args.workers
    )
    return {
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "seed": est.seed,
    }, 0


def _cmd_coefficient(args):
    ker = _load_kernel(args)
    mode = "finite" if args.finite_T is not None else "pinned"
    if args.raw:
        if mode != "finite":
            raise ConfigError("--raw needs --finite-T (the raw series lives at finite T)")
        est = integrator.brute_force_coefficient(
            ker, args.p, args.finite_T, budget=args.budget or 1_000_000,
            seed=args.seed, workers=args.workers,
        )
        return _coeff_doc(est), 0
    total, per_term = integrator.coefficient(
        ker, args.p, mode=mode, horizon=args.finite_T, method=args.method,
        budget=args.budget, seed=args.seed or 0, p_max=args.p_max,
        pin_pair=args.pin_pair, workers=args.workers, per_term=True,
    )
    if args.per_term and args.output == "csv":
        terms = integrator.cluster_terms(args.p, p_max=args.p_max, pin_pair=args.pin_pair)
        buf = io.StringIO()
        buf.write("index,p,matching,forest,sign,value,statistical_error\n")
        for idx, (t, e) in enumerate(zip(terms, per_term)):
            matching = ";".join(f"{a}-{b}" for a, b in t.matching)
            forest = ";".join(f"{i}-{j}" for i, j in t.selection.micro_edges)
            buf.write(
                f"{idx},{t.p},{matching},{forest},{int(t.sign)},"
                f"{e.value!r},{e.statistical_error!r}\n"
            )
        sys.stdout.write(buf.getvalue())
        return None, 0
    doc = _coeff_doc(total)
    if args.per_term:
        doc["terms"] = [_coeff_doc(e) for e in per_term]
    return doc, 0


def _cmd_energy(args):
    ker = _load_kernel(args)
    res = series.energy(
        ker, alpha=args.alpha, lam=args.lam, p_max=args.pmax, method=args.method,
        budget=args.budget, seed=args.seed or 0, gamma=args.gamma, workers=args.workers,
    )
    return {
        "alpha": res.alpha,
        "lambda": res.lam,
        "energy": res.energy,
        "statistical_error": res.statistical_error,
        "quadrature_tolerance": res.quadrature_tolerance,
        "tail_bound": res.tail_bound,
        "radius_bound": res.radius_bound,
        "K": res.K,
        "gamma": res.gamma,
        "delta": res.delta,
        "certified": res.certified,
        "coefficients": [_coeff_doc(c) for c in res.coefficients],
        "warning": res.warning,
    }, 0


def _census(p):
    matchings = comb.matching_count(p)
    connecting = len(integrator.cluster_terms(p, p_max=max(p, comb.DEFAULT_P_MAX)))
    per_tree = [
        comb.count_compatible_pairs(tree, p, p_max=max(p, comb.DEFAULT_P_MAX))
        for tree in comb.spanning_trees(p)
    ]
    return matchings, connecting, per_tree


def _cmd_counts(args):
    matchings, connecting, per_tree = _census(args.p)
    return {
        "p": args.p,
        "matchings": matchings,
        "connecting_pairs": connecting,
        "per_tree_max": max(per_tree) if per_tree else 0,
        "trees": len(per_tree),
    }, 0


def _cmd_verify_lemma1(args):
    rng = stream(args.seed, _TAG_TUPLES)
    reports = []
    passes = 0
    for i in range(args.tuples):
        q = int(rng.integers(1, 7))
        t = np.cumsum(0.05 + rng.exponential(0.4, size=q)) + rng.uniform(0, 0.5)
        est = jump_process.estimate_moment_mc(
            t, samples=args.samples, seed=args.seed + 1 + i, workers=args.workers
        )
        want = jump_process.moment_closed_form(t)
        ok = abs(est.value - want) <= 3 * max(est.std_error, 1e-15)
        passes += ok
        reports.append({
            "times": [float(x) for x in t],
            "closed_form": want,
            "mc_value": est.value,
            "mc_std_error": est.std_error,
            "within_3_sigma": bool(ok),
        })
    required = args.tuples - 2 if args.tuples >= 10 else args.tuples
    passed = passes >= required
    return {
        "tuples": reports,
        "passes": passes,
        "required": required,
        "samples": args.samples,
        "passed": passed,
    }, 0 if passed else 1


def _cmd_verify_bkar(args):
    rng = stream(args.seed, _TAG_BKAR, args.p)
    residuals = []
    matchings = list(comb.enumerate_matchings(args.p, p_max=args.p))
    for _ in range(args.trials):
        m = matchings[int(rng.integers(0, len(matchings)))]
        starts = rng.uniform(-1.5, 1.5, size=args.p)
        lengths = rng.exponential(0.8, size=args.p) + 1e-3
        t = np.empty(2 * args.p)
        t[0::2] = starts
        t[1::2] = starts + lengths
        residuals.append(comb.verify_bkar_identity(m, t))
    doc = {
        "p": args.p,
        "trials": args.trials,
        "max_residual": max(residuals),
        "tolerance": BKAR_RESIDUAL_TOL,
    }
    if args.p == 2:
        m = comb.base_matching(2)
        doc["analytic_disjoint_residual"] = comb.verify_bkar_identity(
            m, [0.0, 1.0, 2.0, 3.0]
        )
        doc["analytic_overlap_residual"] = comb.verify_bkar_identity(
            m, [0.0, 2.0, 1.0, 3.0]
        )
    passed = doc["max_residual"] < BKAR_RESIDUAL_TOL and all(
        doc.get(k, 0.0) == 0.0
        for k in ("analytic_disjoint_residual", "analytic_overlap_residual")
    )
    doc["passed"] = passed
    return doc, 0 if passed else 1


def _cmd_verify_resummation(args):
    ker = _load_kernel(args)
    horizons = args.horizon
    checks = []
    for T in horizons:
        c1_quad = integrator.coefficient(ker, 1, mode="finite", horizon=T, method="quad")
        c1_mc = integrator.coefficient(
            ker, 1, mode="finite", horizon=T, method="mc",
            budget=args.budget, seed=args.seed, workers=args.workers,
        )
        c2 = integrator.coefficient(
            ker, 2, mode="finite", horizon=T, method="mc",
            budget=args.budget, seed=args.seed + 1, workers=args.workers,
        )
        z1 = integrator.brute_force_coefficient(
            ker, 1, T, budget=2 * args.budget, seed=args.seed + 2, workers=args.workers
        )
        z2 = integrator.brute_force_coefficient(
            ker, 2, T, budget=2 * args.budget, seed=args.seed + 3, workers=args.workers
        )
        # order 1: raw coefficient equals the connected one; quadrature pins it
        err1 = 3 * z1.statistical_error + 1e-4 * abs(c1_quad.value)
        ok1 = abs(z1.value - c1_quad.value) <= err1
        okq = abs(c1_mc.value - c1_quad.value) <= (
            3 * c1_mc.statistical_error + 1e-4 * abs(c1_quad.value)
        )
        # order 2: z2 = C2/2 + C1^2/2
        want2 = c2.value / 2 + c1_quad.value**2 / 2
        sigma2 = math.sqrt(z2.statistical_error**2 + (c2.statistical_error / 2) ** 2)
        ok2 = abs(z2.value - want2) <= 3 * sigma2
        checks.append({
            "horizon": T,
            "raw_order1": z1.value,
            "connected_order1_quad": c1_quad.value,
            "connected_order1_mc": c1_mc.value,
            "order1_ok": bool(ok1),
            "order1_quad_crosscheck_ok": bool(okq),
            "raw_order2": z2.value,
            "exp_combination_order2": want2,
            "order2_sigma": sigma2,
            "order2_ok": bool(ok2),
        })
    passed = all(c["order1_ok"] and c["order1_quad_crosscheck_ok"] and c["order2_ok"]
                 for c in checks)
    return {"checks": checks, "budget": args.budget, "passed": passed}, 0 if passed else 1


def _cmd_verify_counts(args):
    doc = {"p": args.p, "checks": {}}
    ok_counts = all(
        comb.matching_count(q) == len(list(comb.enumerate_matchings(q, p_max=args.p)))
        for q in range(1, args.p + 1)
    )
    doc["checks"]["matching_counts"] = ok_counts

    def tree_assembles(m, s):
        try:
            comb.open_cycles(m, s)
            return True
        except StructureError:
            return False

    ok_even = True
    ok_consistency = True
    ok_offspring = True
    for q in range(1, args.p + 1):
        for m in comb.enumerate_matchings(q, p_max=args.p):
            blocks = comb.partition_join(m)
            ok_even &= all(len(b) % 2 == 0 for b in blocks.point_blocks)
            conn = list(comb.enumerate_forest_selections(m, connecting_only=True, p_max=args.p))
            every = list(comb.enumerate_forest_selections(m, p_max=args.p))
            spanning = [s for s in every if tree_assembles(m, s)]
            ok_consistency &= sorted(s.micro_edges for s in conn) == sorted(
                s.micro_edges for s in spanning
            )
            for s in conn:
                opened = comb.open_cycles(m, s)
                ok_offspring &= sum(opened.offspring) == len(s.micro_edges) <= max(q - 1, 0)
    doc["checks"]["even_cycle_supports"] = ok_even
    doc["checks"]["connecting_enumeration_consistent"] = ok_consistency
    doc["checks"]["offspring_counts"] = ok_offspring

    ok_tree = True
    per_tree_max = 0
    for q in range(1, args.p + 1):
        for tree in comb.spanning_trees(q):
            n = comb.count_compatible_pairs(tree, q, p_max=args.p)
            per_tree_max = max(per_tree_max, n) if q == args.p else per_tree_max
            ok_tree &= n < 4**q
    doc["checks"]["per_tree_below_4_to_p"] = ok_tree
    doc["per_tree_max"] = per_tree_max

    ok_cayley = True
    for q in range(2, 7):
        census = comb.degree_census(q)
        for degs, count in census.items():
            want = math.factorial(q - 2)
            for d in degs:
                want //= math.factorial(d - 1)
            ok_cayley &= count == want
    doc["checks"]["cayley_degree_formula"] = ok_cayley

    passed = all(doc["checks"].values())
    doc["passed"] = passed
    return doc, 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Cluster-expansion energy series for the massless spin-boson "
        "model, with Monte Carlo and combinatorial verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel(p):
        p.add_argument("--kernel", help=f"kernel config JSON (default ${KERNEL_ENV})")

    def add_workers(p):
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers; results are independent of this")

    p = sub.add_parser("norms", help="kernel norms")
    add_kernel(p)

    p = sub.add_parser("radius", help="convergence-radius certificate")
    add_kernel(p)
    p.add_argument("--gamma", type=float, default=series.DEFAULT_GAMMA)

    p = sub.add_parser("simulate", help="Monte Carlo Z(alpha, T)")
    add_kernel(p)
    add_workers(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("coefficient", help="connected or raw coefficients")
    add_kernel(p)
    add_workers(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--finite-T", dest="finite_T", type=float, default=None)
    p.add_argument("--method", choices=("quad", "mc"), default="mc")
    p.add_argument("--budget", type=int, default=None,
                   help="MC samples per term (default 200000)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p-max", dest="p_max", type=int, default=None)
    p.add_argument("--pin-pair", dest="pin_pair", type=int, default=0)
    p.add_argument("--per-term", dest="per_term", action="store_true")
    p.add_argument("--raw", action="store_true",
                   help="order-p Taylor coefficient of Z from the raw series")
    p.add_argument("--output", choices=("json", "csv"), default="json",
                   help="csv applies to --per-term dumps")

    p = sub.add_parser("energy", help="truncated energy series")
    add_kernel(p)
    add_workers(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--pmax", type=int, default=3)
    p.add_argument("--method", choices=("quad", "mc"), default="mc")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gamma", type=float, default=series.DEFAULT_GAMMA)

    p = sub.add_parser("counts", help="combinatorial census")
    p.add_argument("--p", type=int, required=True)

    v = sub.add_parser("verify", help="verification suites (exit 1 on failure)")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("lemma1", help="moment closed form vs simulation")
    add_workers(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tuples", type=int, default=20)

    p = vsub.add_parser("bkar", help="forest interpolation identity residuals")
    add_workers(p)  # accepted for interface uniformity; the check is exact
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)

    p = vsub.add_parser("resummation", help="raw vs connected coefficients")
    add_kernel(p)
    add_workers(p)
    p.add_argument("--horizon", type=float, nargs="+", default=[2.0, 5.0])
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)

    p = vsub.add_parser("counts", help="combinatorial census checks")
    p.add_argument("--p", type=int, default=4)

    return parser


_HANDLERS = {
    "norms": _cmd_norms,
    "radius": _cmd_radius,
    "simulate": _cmd_simulate,
    "coefficient": _cmd_coefficient,
    "energy": _cmd_energy,
    "counts": _cmd_counts,
    ("verify", "lemma1"): _cmd_verify_lemma1,
    ("verify", "bkar"): _cmd_verify_bkar,
    ("verify", "resummation"): _cmd_verify_resummation,
    ("verify", "counts"): _cmd_verify_counts,
}


def _stochastic_needs_seed(args) -> bool:
    if args.command == "coefficient":
        return (args.method == "mc" or args.raw) and args.seed is None
    if args.command == "energy":
        return args.method == "mc" and args.seed is None
    return False


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    if _stochastic_needs_seed(args):
        print("error: --seed is required for stochastic runs", file=sys.stderr)
        return 2
    key = (args.command, args.verify_command) if args.command == "verify" else args.command
    try:
        doc, code = _HANDLERS[key](args)
    except (ConfigError, ResourceError, CertificateError,
            StructureError, SamplingError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimateUnreliableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if doc is not None:
        _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
