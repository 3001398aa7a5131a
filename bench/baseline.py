"""Measure the committed baseline and the run-to-run spread of every metric.

    python3 bench/baseline.py [--runs 10]

For each workload: one discarded warm-up run, `--runs` untraced runs of
bench/run.py, each with its own seed, then one traced run, all for the
`run_seconds` of BENCHMARK.json.  The warm-up is there because a virtual
machine that has been idle may run faster for a minute or two, which is not
the state the figures should describe.  Writes bench/baseline.json with, per
metric, the median, the quartiles and the spread (interquartile distance over the median,
as `statistics.quantiles(values, n=4)` gives the quartiles) next to the
metric's bound from BENCHMARK.json; the pooled per-operation wall times with
the highest percentile that has ten operations beyond it; the per-layer
metrics of the traced run; failures; and each run's load averages and
host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
FIRST_SEED = 101      # run k uses seed FIRST_SEED + k; the warm-up FIRST_SEED - 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    record = json.loads(lines[-1])
    with open(os.path.join(HERE, "out", f"walls-{workload}-{seed}.json"), encoding="utf-8") as f:
        walls = json.load(f)
    return env, record, walls


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def tail(walls):
    xs = sorted(walls)
    j = len(xs) - 11
    out = {"n": len(xs), "median": statistics.median(xs)}
    if j >= 0:
        out.update(percentile=100.0 * (j + 1) / len(xs), value=xs[j])
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    doc = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}

    for name in names:
        per_metric, walls, loads = {}, [], []
        attempted = failed = 0
        seeds = [FIRST_SEED + k for k in range(args.runs)]
        run_once(name, FIRST_SEED - 1, seconds, 0)
        for seed in seeds:
            env, rec, run_walls = run_once(name, seed, seconds, 0)
            doc["environment"] = {k: v for k, v in env.items()
                                  if not k.endswith(("_before", "_after"))}
            loads.append({k: v for k, v in env.items() if k.endswith(("_before", "_after"))})
            attempted += rec["attempted"]
            failed += rec["failed"]
            walls += run_walls
            for k, m in rec["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in rec["metrics"].items()), flush=True)
        e2e = {}
        for k, values in per_metric.items():
            e2e[k] = {"unit": bounds[k]["unit"], "bound": bounds[k]["bound"], **spread(values)}
        _, traced, _ = run_once(name, FIRST_SEED + args.runs, seconds, 1)
        doc["workloads"][name] = {
            "seeds": seeds, "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "end_to_end": e2e, "wall_s_ops": tail(walls),
            "host_before_after": loads,
            "traced": {"correct": traced["correct"], "attempted": traced["attempted"],
                       "failed": traced["failed"],
                       "per_layer": {k: m for k, m in traced["metrics"].items()}},
        }
        for k, m in e2e.items():
            flag = "" if (m["spread"] or 0) <= m["bound"] / 3 else "  WIDE"
            print(f"{name} {k}: median {m['median']:.5g} spread {m['spread']:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        with open(BASELINE, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
