"""Spinboson benchmark: one command, three workloads, end-to-end and per-layer
metrics, oracle checks on every output.

    python3 bench/run.py --workload z_path --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
src/ (nothing is installed or compiled).  Workloads: z_path, cmc_p4 and
resum_T5 (see bench/README.md for what each one measures).

Each workload runs as a closed loop of one client in a fresh process with
OpenMP/OpenBLAS/MKL pinned to one thread and workers=1, for --seconds.
Set-up time is measured in that process and in fresh set-up-only processes
run before and after it, so that the median spans the host's drift over the
run.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, whose spans are
written to bench/out/, as are the wall times of every operation.  Exit code
0 with a result line; any other code, and no result line, when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("z_path", "cmc_p4", "resum_T5")
SETUP_PROBES = 3       # set-up-only processes before the workload, and as many after
MARGIN_S = 140.0       # time limit of the whole run beyond --seconds: set-up, guard, probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def declared_metrics() -> dict:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), **versions,
            "threads": {v: "1" for v in THREAD_VARS}}


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: a virtual machine's speed can
    drift by tens of percent over minutes, which the load average does not
    show.  Recorded before and after each run, never used in a metric."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def child(args: list, deadline: float) -> dict:
    """Run one role of workloads.py in a fresh process; its last stdout line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:3])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(xs: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(xs)
    j = len(xs) - 11
    if j < 0:
        return None
    return 100.0 * (j + 1) / len(xs), xs[j]


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "spinboson", "__init__.py")):
        raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + args.seconds + MARGIN_S
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["host_speed_ms_before"] = host_speed_ms()

    def setup_probes():
        return [child(["setup", "--workload", args.workload], deadline)["setup"]
                for _ in range(SETUP_PROBES)]

    setups = setup_probes()
    trace_out = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    res = child(["run", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--trace-out", trace_out], deadline)
    setups += [res["setup"], *setup_probes()]
    rss = child(["rss_probe", "--seed", str(args.seed)], deadline) if args.trace else None
    env["loadavg_after"] = os.getloadavg()
    env["host_speed_ms_after"] = host_speed_ms()
    print("env " + json.dumps(env))

    totals = [sum(s.values()) for s in setups]
    setup_s = statistics.median(totals)
    steps = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    print(f"setup_s: median {setup_s:.4f} s over {len(setups)} fresh processes "
          f"({min(totals):.4f}-{max(totals):.4f} s); "
          + ", ".join(f"{k} {v:.4f} s" for k, v in steps.items()))
    walls = res["walls"]
    with open(os.path.join(OUT, f"walls-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump(walls, f)
    tail = tail_percentile(walls)
    print(f"operation wall time: median {statistics.median(walls):.4f} s, "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile with ten beyond")
          + f", n = {len(walls)} operations")
    print(f"checks: attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_frac {res['failed'] / res['attempted']:.4f}")
    for err in res["errors"]:
        print("  failure: " + err)
    for k, v in res["notes"].items():
        print(f"  note: {k} = {v}")

    if args.trace:
        values = dict(res["layers"])
        values["cli.import_s"] = statistics.median(s["import"] for s in setups)
        values["jump_process.us_per_path.T100"] = rss["us_per_path"]
        values["jump_process.peak_rss_mb.T100"] = rss["peak_rss_mb"]
        print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    else:
        values = dict(res.get("e2e", {}), setup_s=setup_s)
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing and res["failed"] == 0:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinboson benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
