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
per-term coefficient dump); diagnostics go to stderr, each distinct
warning once, as `warning: <message>`, when it is raised.  Exit codes: 0
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
import warnings
from dataclasses import asdict

from . import integrator, jump_process, series, verify
from .errors import ConfigError, EstimateUnreliableError, SamplingError
from .kernel import KernelSpec, build_kernel

KERNEL_ENV = "SPINBOSON_KERNEL"


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
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(doc) -> None:
    print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))


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
    return asdict(est), 0


def _cmd_coefficient(args):
    if args.output == "csv" and not args.per_term:
        raise ConfigError("--output csv is the per-term table; it needs --per-term")
    ker = _load_kernel(args)
    mode = "finite" if args.finite_T is not None else "pinned"
    if args.raw:
        if mode != "finite":
            raise ConfigError("--raw needs --finite-T (the raw series lives at finite T)")
        ignored = [flag for flag, given in (("--method quad", args.method == "quad"),
                                            ("--per-term", args.per_term),
                                            ("--pin-pair", args.pin_pair != 0)) if given]
        if ignored:
            raise ConfigError("--raw is one Monte Carlo estimate of the whole raw series; "
                              f"it takes no {', '.join(ignored)}")
        est = integrator.brute_force_coefficient(
            ker, args.p, args.finite_T, budget=1_000_000 if args.budget is None else args.budget,
            seed=args.seed, workers=args.workers,
        )
        return asdict(est), 0
    total, per_term = integrator.coefficient(
        ker, args.p, mode=mode, horizon=args.finite_T, method=args.method,
        budget=args.budget, seed=args.seed or 0, pin_pair=args.pin_pair,
        workers=args.workers, per_term=True,
    )
    if args.per_term and args.output == "csv":
        buf = io.StringIO()
        buf.write("index,p,matching,forest,sign,value,statistical_error\n")
        for idx, (t, e) in enumerate(per_term):
            matching = ";".join(f"{a}-{b}" for a, b in t.matching)
            forest = ";".join(f"{i}-{j}" for i, j in t.selection.micro_edges)
            buf.write(
                f"{idx},{t.p},{matching},{forest},{int(t.sign)},"
                f"{e.value!r},{e.statistical_error!r}\n"
            )
        sys.stdout.write(buf.getvalue())
        return None, 0
    doc = asdict(total)
    if args.per_term:
        doc["terms"] = [asdict(e) for _, e in per_term]
    return doc, 0


def _cmd_energy(args):
    ker = _load_kernel(args)
    res = series.energy(
        ker, alpha=args.alpha, lam=args.lam, p_max=args.pmax, method=args.method,
        budget=args.budget, seed=args.seed or 0, gamma=args.gamma, workers=args.workers,
    )
    doc = asdict(res)
    doc["lambda"] = doc.pop("lam")
    return doc, 0


def _suite(run):
    """The handler of a verify suite: run(args)'s document, exit 1 unless it passed."""
    return lambda args: (doc := run(args), 0 if doc["passed"] else 1)


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

    def workers(text):  # fewer than one is a usage error on every subcommand
        if int(text) < 1:
            raise argparse.ArgumentTypeError("workers must be >= 1")
        return int(text)

    def add_workers(p):
        p.add_argument("--workers", type=workers, default=1,
                       help="parallel workers; results are independent of this")

    p = sub.add_parser("norms", help="kernel norms")
    p.set_defaults(run=_cmd_norms)
    add_kernel(p)

    p = sub.add_parser("radius", help="convergence-radius certificate")
    p.set_defaults(run=_cmd_radius)
    add_kernel(p)
    p.add_argument("--gamma", type=float, default=series.DEFAULT_GAMMA)

    p = sub.add_parser("simulate", help="Monte Carlo Z(alpha, T)")
    p.set_defaults(run=_cmd_simulate)
    add_kernel(p)
    add_workers(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("coefficient", help="connected or raw coefficients")
    p.set_defaults(run=_cmd_coefficient)
    add_kernel(p)
    add_workers(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--finite-T", dest="finite_T", type=float, default=None)
    p.add_argument("--method", choices=("quad", "mc"), default="mc")
    p.add_argument("--budget", type=int, default=None,
                   help="MC samples per term (default 200000)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pin-pair", dest="pin_pair", type=int, default=0)
    p.add_argument("--per-term", dest="per_term", action="store_true")
    p.add_argument("--raw", action="store_true",
                   help="order-p Taylor coefficient of Z from the raw series")
    p.add_argument("--output", choices=("json", "csv"), default="json",
                   help="csv is the --per-term table (and needs --per-term)")

    p = sub.add_parser("energy", help="truncated energy series")
    p.set_defaults(run=_cmd_energy)
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
    p.set_defaults(run=lambda args: (verify.census(args.p), 0))
    p.add_argument("--p", type=int, required=True)

    v = sub.add_parser("verify", help="verification suites (exit 1 on failure)")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("lemma1", help="moment closed form vs simulation")
    p.set_defaults(run=_suite(lambda args: verify.lemma1(args.samples, args.seed, args.tuples,
                                                         workers=args.workers)))
    add_workers(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tuples", type=int, default=20)

    p = vsub.add_parser("bkar", help="forest interpolation identity residuals")
    p.set_defaults(run=_suite(lambda args: verify.bkar(args.p, args.trials, args.seed)))
    add_workers(p)  # accepted for interface uniformity; the check is exact
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)

    p = vsub.add_parser("resummation", help="raw vs connected coefficients")
    p.set_defaults(run=_suite(lambda args: verify.resummation(
        _load_kernel(args), args.horizon, args.budget, args.seed, workers=args.workers)))
    add_kernel(p)
    add_workers(p)
    p.add_argument("--horizon", type=float, nargs="+", default=[2.0, 5.0])
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)

    p = vsub.add_parser("counts", help="combinatorial census checks")
    p.set_defaults(run=_suite(lambda args: verify.counts(args.p)))
    p.add_argument("--p", type=int, default=4)

    return parser


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
    shown = set()

    def show(message, *_):  # each distinct warning once, as its message alone, when raised
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = show
            doc, code = args.run(args)
    except (ValueError, SamplingError, FileNotFoundError, EstimateUnreliableError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # ConfigError & co. are usage errors: 2
        return 1 if isinstance(exc, EstimateUnreliableError) else 2
    if doc is not None:
        _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
