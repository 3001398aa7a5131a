"""Compute the committed oracle references in bench/reference.json.

    PYTHONPATH=src python3 bench/reference.py

Run once, at the commit that defines the benchmark.  The references are far
more precise than one benchmark operation (about 100x the samples), so each
run can check its own estimates against them:

  z_path            log Z(R_min/2, T=30) from 10^6 paths
  cmc_p4            every pinned c_4 term at 10^5 samples (value, error)
  indicator_quad_T5 c_1 and c_2 at T = 5 by quadrature on the indicator
                    kernel, whose h is in closed form
"""

from __future__ import annotations

import json
import math
import time

import workloads as w

Z_REF_SAMPLES = 1_000_000
Z_REF_SEED = 20_261_017
CMC_REF_BUDGET = 100_000
CMC_REF_SEED = 4_242
REF_WORKERS = 2           # the results do not depend on it (worker-invariance)


def main() -> None:
    mods = w.Modules()
    kernel = mods.build(w.INDICATOR)
    doc = {}

    t0 = time.perf_counter()
    c1 = mods.integrator.coefficient(kernel, 1, mode="finite", horizon=w.RESUM_HORIZON,
                                     method="quad")
    c2 = mods.integrator.coefficient(kernel, 2, mode="finite", horizon=w.RESUM_HORIZON,
                                     method="quad")
    doc["indicator_quad_T5"] = {"c1": c1.value, "c2": c2.value,
                                "seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    alpha = mods.series.radius_bound(kernel) / 2
    z = mods.jump_process.estimate_Z(alpha, w.Z_HORIZON, kernel, Z_REF_SAMPLES, Z_REF_SEED,
                                     workers=REF_WORKERS)
    doc["z_path"] = {"alpha": alpha, "horizon": w.Z_HORIZON, "samples": Z_REF_SAMPLES,
                     "seed": Z_REF_SEED, "Z": z.value, "Z_sigma": z.std_error,
                     "log_Z": math.log(z.value), "log_Z_sigma": z.std_error / z.value,
                     "seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    terms = mods.integrator.cluster_terms(w.CMC_P)
    ests = [
        mods.integrator.integrate_term(kernel, t, method="mc", budget=CMC_REF_BUDGET,
                                       seed=CMC_REF_SEED, term_index=k, workers=REF_WORKERS)
        for k, t in enumerate(terms)
    ]
    doc["cmc_p4"] = {
        "budget_per_term": CMC_REF_BUDGET, "seed": CMC_REF_SEED,
        "c4": math.fsum(e.value for e in ests),
        "c4_sigma": math.sqrt(math.fsum(e.statistical_error**2 for e in ests)),
        "terms": [[e.value, e.statistical_error] for e in ests],
        "seconds": time.perf_counter() - t0,
    }
    with open(w.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
