"""The benchmark workloads.  Runs in a fresh child process of run.py:

    python3 bench/workloads.py setup --workload W
    python3 bench/workloads.py run --workload W --seed N --seconds S --trace 0|1 --trace-out F
    python3 bench/workloads.py rss_probe --seed N

Each role prints one JSON object as its last line of stdout.  Nothing from
numpy, scipy or the package is imported at module level, so that the set-up
timer sees the full cost of `import spinboson.cli` in a fresh process.

Why these workloads (each stresses a different layer; see bench/README.md):

  z_path      Z(alpha, T) paths: jump_process and its padded O(m^2) action.
              Bypasses combinatorics, integrator, quantile and scipy quad.
  cmc_p4      pinned c_4 by tree-guided MC at 5 samples per sampler call:
              per-call overhead in kernel.quantile, rng streams, integrator.
              Bypasses jump_process.
  resum_T5    `verify resummation` through the CLI at ~10^3 samples per call:
              the same MC code and quantile, dominated by per-sample cost.

The radial_table kernel build and its scalar h1 quadrature loop are measured
by the layer probes of every traced run (probes.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

from spans import Instrumented, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

INDICATOR = {"mode": "indicator", "cutoff": 1.0}
RADIAL = {"mode": "radial_table", "points": [[0.0, 1.0], [1.0, 1.0]]}

Z_HORIZON = 30.0          # acceptance criterion 7: T = 30, alpha = R_min / 2
Z_SAMPLES = 2048          # 100 batches of ~20 paths, ~0.15 s: many operations per run
CMC_P = 4
CMC_TERMS = 304
CMC_BUDGET = 500          # 100 batches of 5 samples: one sampler call each
CMC_STRIDE = 97           # coprime to 304: any prefix of the visit order mixes term kinds
RESUM_HORIZON = 5.0
RESUM_BUDGET = 100_000    # 1000 samples per sampler call (2000 in the raw series)
QUAD_REL_TOL = 1e-6       # radial_table vs indicator quadrature (the same h)
SIGMAS = 5.0              # oracle tolerance in combined standard errors
PROBE_SAMPLES = 2048      # jump_process.us_per_path probes (~20 paths per batch)
OP_SEED_STRIDE = 1_000_000


def op_seed(seed: int, i: int) -> int:
    return seed * OP_SEED_STRIDE + i


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Modules:
    """The package layers, imported on demand (after the set-up timer starts)."""

    def __init__(self):
        import spinboson.cli
        from spinboson import integrator, jump_process, kernel, rng, series

        self.cli = spinboson.cli
        self.kernel = kernel
        self.jump_process = jump_process
        self.rng = rng
        self.integrator = integrator
        self.series = series

    def build(self, doc):
        return self.kernel.build_kernel(self.kernel.KernelSpec.from_dict(doc))


def bits(*xs) -> tuple:
    """Exact identity of float results (repr round-trips every bit)."""
    return tuple(repr(float(x)) for x in xs)


# ---------------------------------------------------------------------------
# workloads: set-up, one operation, per-op and per-run oracle checks
# ---------------------------------------------------------------------------


class Workload:
    """One workload: set-up, one operation `op`, and its oracle checks.

    `op` returns a dict with the result's exact bits, the squared error of its
    headline estimate (sigma2), and the work it did (paths or MC samples)."""

    name = ""

    def close(self):
        pass

    def run_checks(self, results) -> dict:
        return {}

    def notes(self) -> dict:
        """Observations that are reported but are not failures."""
        return {}

    def wall_s(self, walls) -> float:
        """Median wall time of one operation."""
        return statistics.median(walls)

    def var_x_s(self, results) -> float:
        """sigma^2 x seconds of one operation: sigma^2 pooled over operations
        (each is a noisy batch-means estimate), times the median wall time."""
        return (statistics.fmean(r["sigma2"] for r in results)
                * statistics.median(r["wall"] for r in results))


class ZPath(Workload):
    name = "z_path"
    spec = INDICATOR

    def setup(self, mods, timer):
        self.mods = mods
        self.kernel = timer("build", mods.build, self.spec)
        timer("phi_dense", self.kernel.phi_dense, Z_HORIZON)
        self.alpha = mods.series.radius_bound(self.kernel) / 2
        ref = load_reference()["z_path"]
        self.ref_log_z, self.ref_sigma = ref["log_Z"], ref["log_Z_sigma"]

    def op(self, seed, i, workers=1):
        z = self.mods.jump_process.estimate_Z(
            self.alpha, Z_HORIZON, self.kernel, Z_SAMPLES, op_seed(seed, i), workers=workers
        )
        return {"bits": bits(z.value, z.std_error), "sigma2": z.std_error**2,
                "work": Z_SAMPLES, "value": z.value, "err": z.std_error}

    def check(self, r):
        sigma = math.hypot(r["err"] / r["value"], self.ref_sigma)
        return abs(math.log(r["value"]) - self.ref_log_z) <= SIGMAS * sigma


class CmcP4(Workload):
    name = "cmc_p4"
    spec = INDICATOR

    def setup(self, mods, timer):
        self.mods = mods
        self.kernel = timer("build", mods.build, self.spec)
        self.terms = timer("enumerate", mods.integrator.cluster_terms, CMC_P)
        n = len(self.terms)
        self.order = [(k * CMC_STRIDE) % n for k in range(n)]
        self.ref = load_reference()["cmc_p4"]

    def op(self, seed, i, workers=1):
        k = self.order[i % len(self.order)]
        est = self.mods.integrator.integrate_term(
            self.kernel, self.terms[k], mode="pinned", method="mc", budget=CMC_BUDGET,
            seed=op_seed(seed, i // len(self.order)), term_index=k, workers=workers,
        )
        return {"bits": bits(est.value, est.statistical_error),
                "sigma2": est.statistical_error**2, "work": CMC_BUDGET, "term": k,
                "value": est.value, "err": est.statistical_error,
                "sign": self.terms[k].sign}

    def check(self, r):
        return math.isfinite(r["value"]) and r["value"] * r["sign"] >= 0.0

    def run_checks(self, results):
        """Term count, and the visited terms' sum against the committed per-term
        reference (the whole of c_4 once a full pass has run)."""
        got = math.fsum(r["value"] for r in results)
        want = math.fsum(self.ref["terms"][r["term"]][0] for r in results)
        var = math.fsum(r["err"] ** 2 + self.ref["terms"][r["term"]][1] ** 2 for r in results)
        return {
            "term_count": len(self.terms) == CMC_TERMS == len(self.ref["terms"]),
            "c4_partial_sum": abs(got - want) <= SIGMAS * math.sqrt(var),
        }

    def var_x_s(self, results):
        """sigma^2 x seconds of the whole c_4 estimate.

        Only some terms are visited in a run, so sigma^2 of c_4 is the
        reference variance of c_4 times the ratio of the visited terms'
        variances to their reference variances (which also scales it to this
        budget); each term weighs in by its share of the variance.  The time
        is wall_s."""
        got = math.fsum(r["sigma2"] for r in results)
        ref = math.fsum(self.ref["terms"][r["term"]][1] ** 2 for r in results)
        ref_var = math.fsum(e ** 2 for _, e in self.ref["terms"])
        return got / ref * ref_var * self.wall_s([r["wall"] for r in results])

    def wall_s(self, walls):
        """Wall time of the whole c_4 estimate: terms times the mean term time
        (term times differ by kind, so their median jumps between kinds)."""
        return len(self.terms) * statistics.fmean(walls)


class Returns:
    """Records what named functions of a module return while the context is open."""

    def __init__(self, module, names):
        self.module, self.names, self.values = module, names, []

    def __enter__(self):
        self.saved = {n: getattr(self.module, n) for n in self.names}
        for name, fn in self.saved.items():
            def record(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                self.values.append(out)
                return out
            setattr(self.module, name, record)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)
        return False


class ResumT5(Workload):
    """`verify resummation` at one horizon, through the CLI entry point.

    The command's own pass flag applies 3-sigma gates to three statistics, so
    on fresh seeds it reports a failure in about 0.8% of calls.  The oracle
    here re-checks the same identities at SIGMAS from the estimates the
    command computed (recorded as they are returned), against the committed
    quadrature values; a usage or runtime error (exit code 2) fails the
    operation, and the number of 3-sigma gate failures is reported."""

    name = "resum_T5"
    spec = INDICATOR

    def setup(self, mods, timer):
        self.mods = mods
        self.kernel = timer("build", mods.build, self.spec)
        self.cfg = os.path.join(HERE, "out", f"kernel-{os.getpid()}.json")
        os.makedirs(os.path.dirname(self.cfg), exist_ok=True)
        with open(self.cfg, "w", encoding="utf-8") as f:
            json.dump(self.spec, f)
        ref = load_reference()["indicator_quad_T5"]
        self.c1_quad, self.c2_quad = ref["c1"], ref["c2"]
        self.gate_failures = 0

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cfg)

    def notes(self):
        return {"verify_3sigma_gate_failures": self.gate_failures}

    def op(self, seed, i, workers=1):
        argv = ["verify", "resummation", "--horizon", repr(RESUM_HORIZON),
                "--budget", str(RESUM_BUDGET), "--seed", str(op_seed(seed, i)),
                "--workers", str(workers), "--kernel", self.cfg]
        buf = io.StringIO()
        with Returns(self.mods.integrator, ("coefficient", "brute_force_coefficient")) as rec, \
                contextlib.redirect_stdout(buf):
            code = self.mods.cli.main(argv)
        text = buf.getvalue()
        doc = json.loads(text) if code in (0, 1) else {}
        sigma = doc["checks"][0]["order2_sigma"] if doc else math.inf
        # MC samples: c_1 (one term) + c_2 (three terms) at B, two raw orders at 2B
        return {"bits": (code, text), "sigma2": sigma**2, "work": 8 * RESUM_BUDGET,
                "code": code, "doc": doc, "estimates": rec.values}

    def check(self, r):
        if r["code"] not in (0, 1) or len(r["estimates"]) != 5:
            return False
        self.gate_failures += r["code"] == 1
        c1_quad, c1_mc, c2, z1, z2 = r["estimates"]
        chk = r["doc"]["checks"][0]

        def near(x, want, sigma, rel):
            return abs(x - want) <= SIGMAS * sigma + rel * abs(want)

        want2 = c2.value / 2 + self.c1_quad**2 / 2
        return (
            chk["raw_order1"] == z1.value and chk["raw_order2"] == z2.value
            and chk["connected_order1_mc"] == c1_mc.value
            and near(c1_quad.value, self.c1_quad, 0.0, 1e-9)
            and near(z1.value, self.c1_quad, z1.statistical_error, 1e-4)
            and near(c1_mc.value, self.c1_quad, c1_mc.statistical_error, 1e-4)
            and near(c2.value, self.c2_quad, c2.statistical_error, 1e-6)
            and near(z2.value, want2, math.hypot(z2.statistical_error,
                                                 c2.statistical_error / 2), 0.0)
        )


WORKLOADS = {w.name: w for w in (ZPath, CmcP4, ResumT5)}


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------


def timed_setup(workload):
    """Fresh-process set-up: import, kernel build, tables; seconds per step."""
    steps = {}

    def timer(step, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        steps[step] = time.perf_counter() - t0
        return out

    mods = timer("import", Modules)
    workload.setup(mods, timer)
    return mods, steps


def role_setup(args):
    workload = WORKLOADS[args.workload]()
    _, steps = timed_setup(workload)
    workload.close()
    return {"setup": steps}


def run_op(workload, seed, i, workers=1, tracer=None):
    """One operation: (result or None, wall seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            r = workload.op(seed, i, workers)
        else:
            with Instrumented(tracer, [workload.kernel]):
                r = workload.op(seed, i, workers)
        err = None
    except Exception as exc:  # a failed operation is counted, not fatal
        r, err = None, f"{type(exc).__name__}: {exc}"
    return r, time.perf_counter() - t0, err


def role_run(args):
    workload = WORKLOADS[args.workload]()
    mods, steps = timed_setup(workload)
    errors = []
    attempted = failed = 0

    def count(err):
        nonlocal attempted, failed
        attempted += 1
        if err:
            failed += 1
            if len(errors) < 10:
                errors.append(err)

    # Worker-invariance guard, outside the timed loop (it also warms caches):
    # op 0 at workers=2 must match op 0 at workers=1 byte for byte.
    guard, _, guard_err = run_op(workload, args.seed, 0, workers=2)

    tracer = Tracer() if args.trace else None
    results, walls, traced_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        i = len(walls)
        r, wall, err = run_op(workload, args.seed, i)
        walls.append(wall)
        if err is None:
            r["wall"] = wall
            results.append(r)
            if not workload.check(r):
                err = "oracle check failed"
        if i == 0 and guard_err is None:
            guard_err = None if r and r["bits"] == guard["bits"] else (
                "workers=2 result differs from workers=1")
        if tracer is not None:
            rt, wall_t, err_t = run_op(workload, args.seed, i, tracer=tracer)
            traced_walls.append(wall_t)
            if err is None and (err_t or rt["bits"] != r["bits"]):
                err = "traced result differs from untraced"
        count(err and f"op {i}: {err}")
    count(guard_err and f"guard: {guard_err}")
    if results:
        for check, ok in workload.run_checks(results).items():
            count(None if ok else f"run check {check} failed")
    workload.close()

    out = {"setup": steps, "errors": errors, "attempted": attempted, "failed": failed,
           "notes": workload.notes(), "walls": walls, "peak_rss_mb": peak_rss_mb()}
    if results:
        ok_walls = [r["wall"] for r in results]
        out["e2e"] = {
            "wall_s": workload.wall_s(walls),
            "work_per_s": math.fsum(r["work"] for r in results) / math.fsum(ok_walls),
            "var_x_s": workload.var_x_s(results),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    if tracer is not None:
        from probes import layer_metrics

        out["layers"], probe_ok = layer_metrics(mods, sys.modules[__name__], args.seed,
                                                tracer, walls, traced_walls)
        count(None if probe_ok else "probe: radial_table quadrature differs from indicator")
        out.update(attempted=attempted, failed=failed)
        tracer.dump(args.trace_out)
    return out


def role_rss_probe(args):
    """Fresh process: Z paths at T = 100; its time per path and peak memory."""
    mods = Modules()
    kernel = mods.build(INDICATOR)
    alpha = mods.series.radius_bound(kernel) / 2
    kernel.phi_dense(100.0)  # the table is set-up, not path work
    t0 = time.perf_counter()
    mods.jump_process.estimate_Z(alpha, 100.0, kernel, PROBE_SAMPLES, args.seed)
    wall = time.perf_counter() - t0
    return {"us_per_path": wall / PROBE_SAMPLES * 1e6, "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "run", "rss_probe"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    role = {"setup": role_setup, "run": role_run, "rss_probe": role_rss_probe}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
