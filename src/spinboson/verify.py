"""Verification suites: every layer checked against an independent oracle.

Each suite takes plain arguments and returns a JSON-ready document whose
"passed" field says whether every check held.  census(p) gives the numbers of
the `counts` command; it and counts(p) tally the pairs compatible with each
labeled tree in one pass.  Estimators are called through their module
attributes (integrator.coefficient, ...), so code that wraps those attributes
to trace or record the estimates sees every call.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from . import combinatorics as comb
from . import integrator, jump_process
from .errors import StructureError
from .kernel import Kernel
from .rng import stream

__all__ = ["BKAR_RESIDUAL_TOL", "lemma1", "bkar", "resummation", "counts", "census"]

BKAR_RESIDUAL_TOL = 1e-12

_TAG_TUPLES = 7
_TAG_BKAR = 8


def lemma1(samples: int, seed: int, tuples: int = 20, workers: int = 1) -> dict:
    """Random increasing time tuples: simulated moment within 3 sigma of the
    closed form.  All tuples must pass below 10 tuples, all but two from 10 on."""
    if tuples < 1:
        raise ValueError("tuples must be >= 1")
    rng = stream(seed, _TAG_TUPLES)
    reports = []
    passes = 0
    for i in range(tuples):
        q = int(rng.integers(1, 7))
        t = np.cumsum(0.05 + rng.exponential(0.4, size=q)) + rng.uniform(0, 0.5)
        est = jump_process.estimate_moment_mc(
            t, samples=samples, seed=seed + 1 + i, workers=workers
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
    required = tuples - 2 if tuples >= 10 else tuples
    return {
        "tuples": reports,
        "passes": passes,
        "required": required,
        "samples": samples,
        "passed": passes >= required,
    }


def bkar(p: int, trials: int, seed: int) -> dict:
    """Residuals of the interpolation identity at random interval configurations.

    Even-numbered trials use the base matching, whose singleton blocks give
    every forest on the p pairs a selection, so they integrate many
    selections; odd ones draw a matching uniformly, which mostly leaves one
    or two blocks and few selections.  At p = 2 the two analytic cases
    (disjoint, overlapping) must come out exact.
    """
    comb.check_order(p)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, _TAG_BKAR, p)
    matchings = list(comb.enumerate_matchings(p))
    base = comb.base_matching(p)
    residuals = []
    for trial in range(trials):
        m = base if trial % 2 == 0 else matchings[int(rng.integers(0, len(matchings)))]
        starts = rng.uniform(-1.5, 1.5, size=p)
        lengths = rng.exponential(0.8, size=p) + 1e-3
        t = np.empty(2 * p)
        t[0::2] = starts
        t[1::2] = starts + lengths
        residuals.append(comb.verify_bkar_identity(m, t))
    doc = {
        "p": p,
        "trials": trials,
        "max_residual": max(residuals),
        "tolerance": BKAR_RESIDUAL_TOL,
    }
    if p == 2:
        doc["analytic_disjoint_residual"] = comb.verify_bkar_identity(base, [0.0, 1.0, 2.0, 3.0])
        doc["analytic_overlap_residual"] = comb.verify_bkar_identity(base, [0.0, 2.0, 1.0, 3.0])
    doc["passed"] = doc["max_residual"] < BKAR_RESIDUAL_TOL and all(
        doc.get(k, 0.0) == 0.0
        for k in ("analytic_disjoint_residual", "analytic_overlap_residual")
    )
    return doc


def resummation(kernel: Kernel, horizons, budget: int, seed: int, workers: int = 1) -> dict:
    """Raw-series coefficients of Z(alpha, T) against the connected ones.

    Order 1: the raw coefficient, the Monte Carlo connected one and the
    quadrature value agree.  Order 2: z_2 = C_2/2 + C_1^2/2.  Each gate is
    3 sigma (plus 1e-4 relative at order 1).
    """
    checks = []
    for T in horizons:
        c1_quad = integrator.coefficient(kernel, 1, mode="finite", horizon=T, method="quad")
        c1_mc = integrator.coefficient(
            kernel, 1, mode="finite", horizon=T, method="mc",
            budget=budget, seed=seed, workers=workers,
        )
        c2 = integrator.coefficient(
            kernel, 2, mode="finite", horizon=T, method="mc",
            budget=budget, seed=seed + 1, workers=workers,
        )
        z1 = integrator.brute_force_coefficient(
            kernel, 1, T, budget=2 * budget, seed=seed + 2, workers=workers
        )
        z2 = integrator.brute_force_coefficient(
            kernel, 2, T, budget=2 * budget, seed=seed + 3, workers=workers
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
    if not checks:  # no horizon: all() of nothing would pass
        raise ValueError("resummation needs at least one horizon")
    passed = all(c["order1_ok"] and c["order1_quad_crosscheck_ok"] and c["order2_ok"]
                 for c in checks)
    return {"checks": checks, "budget": budget, "passed": passed}


def _labeled_trees(p: int) -> list:
    """Labeled trees on p vertices as sorted edges: the base matching's connecting selections."""
    base = comb.base_matching(p)
    return [s.micro_edges for s in comb.enumerate_forest_selections(base, connecting_only=True)]


def _add_compatible_pairs(per_tree: Counter, matching, connecting) -> None:
    """Add each pair of a canonical matching and one of its connecting selections
    to every tree, keyed by its sorted edges, that one of its cycle openings gives."""
    block_of = comb.partition_join(matching).block_of
    cycles = [[e for e in matching if block_of[e[0] // 2] == b] for b in range(max(block_of) + 1)]
    openings = []  # contracted edges kept by each deletion that opens every cycle
    for deletion in itertools.product(*cycles):
        kept = [(a // 2, b // 2) for a, b in matching if (a, b) not in deletion]
        if len(sharp := {e for e in kept if e[0] != e[1]}) == len(kept):
            openings.append(sharp)
    for sel in connecting:
        micro = set(sel.micro_edges)
        per_tree.update({tuple(sorted(s | micro)) for s in openings if not s & micro})


def census(p: int) -> dict:
    """Matchings, connecting (matching, selection) pairs and labeled spanning
    trees of order p, with the most (matching, selection) pairs any one tree
    is compatible with.  Orders up to HARD_P_MAX."""
    comb.check_order(p)
    per_tree, connecting = Counter(), 0
    for m in comb.enumerate_matchings(p):
        conn = list(comb.enumerate_forest_selections(m, connecting_only=True))
        connecting += len(conn)
        _add_compatible_pairs(per_tree, m, conn)
    return {
        "p": p,
        "matchings": comb.matching_count(p),
        "connecting_pairs": connecting,
        "per_tree_max": max(per_tree.values()),
        "trees": len(_labeled_trees(p)),
    }


def _steps_follow_tree(matching, selection, opened) -> bool:
    """Whether the p - 1 steps of a cycle opening follow the opened P-edges
    and the selected micro edges once each: an overlap step along a micro
    edge, an h step along a P-edge from its point in the parent pair to its
    point in the child pair."""
    steps = opened.steps
    want = sorted([("h", e) for e in matching if e not in opened.deleted_edges]
                  + [("overlap", e) for e in selection.micro_edges])
    got = sorted((kind, tuple(sorted((cpt, ppt) if kind == "h" else (child, parent))))
                 for child, parent, kind, cpt, ppt in steps)
    return len(steps) == len(matching) - 1 and got == want and all(
        cpt // 2 == child and ppt // 2 == parent
        for child, parent, kind, cpt, ppt in steps if kind == "h")


def counts(p: int = 4) -> dict:
    """Census checks at orders 1..p: matching counts, every P-edge closing
    inside one block (key "even_cycle_supports"), connecting selections are
    exactly those whose cycle opening is a tree, the steps of each opening
    following its opened P-edges and selected micro edges once each, each
    from its parent pair to its child pair (key "offspring_counts"), fewer
    than 4^q compatible pairs per tree, and the labeled-tree degree census
    (orders 2..6) against Cayley's formula.  Orders up to HARD_P_MAX."""
    comb.check_order(p)
    checks = {}
    checks["matching_counts"] = all(
        comb.matching_count(q) == len(list(comb.enumerate_matchings(q)))
        for q in range(1, p + 1)
    )

    ok_closed = ok_consistency = ok_steps = ok_tree = True
    for q in range(1, p + 1):
        per_tree = Counter()
        for m in comb.enumerate_matchings(q):
            block_of = comb.partition_join(m).block_of
            ok_closed &= all(block_of[a // 2] == block_of[b // 2] for a, b in m)
            spanning = []
            for s in comb.enumerate_forest_selections(m):
                try:
                    opened = comb.open_cycles(m, s)
                except StructureError:
                    continue
                spanning.append(s.micro_edges)
                ok_steps &= _steps_follow_tree(m, s, opened)
            conn = list(comb.enumerate_forest_selections(m, connecting_only=True))
            ok_consistency &= sorted(s.micro_edges for s in conn) == sorted(spanning)
            _add_compatible_pairs(per_tree, m, conn)
        per_tree_max = max(per_tree.values())
        ok_tree &= per_tree_max < 4**q
    checks["even_cycle_supports"] = ok_closed
    checks["connecting_enumeration_consistent"] = ok_consistency
    checks["offspring_counts"] = ok_steps
    checks["per_tree_below_4_to_p"] = ok_tree

    checks["cayley_degree_formula"] = all(  # trees per degree sequence: a multinomial
        count == math.factorial(q - 2) // math.prod(math.factorial(d - 1) for d in degs)
        for q in range(2, 7)
        for degs, count in Counter(tuple(sum(v in e for e in tree) for v in range(q))
                                   for tree in _labeled_trees(q)).items()
    )

    return {
        "p": p,
        "checks": checks,
        "per_tree_max": per_tree_max,
        "passed": all(checks.values()),
    }
