"""Counter-based random streams, deterministic batch layout, and mc_mean,
the one Monte Carlo batch driver.

Every stochastic estimator in this package draws from Philox streams keyed
by (seed, *indices).  A stream is a pure function of its key, so estimates
are bit-identical no matter how work is split across workers: each unit of
work owns its key and its draws never depend on what other units did.

mc_mean packs consecutive small batches into groups, its units of work,
one stream each; the grouping depends on (samples, chunk) alone, so it
cannot make results depend on the workers.

The run contract: each draw call is told the sizes of the runs that tile
it, in order.  A packed call covers one run per batch; a lone batch is
drawn in calls of at most `chunk` samples, each call one run.  So a run
never spans two batches.  Plain Monte Carlo draws sum(runs) samples and
ignores the split, so its bits do not depend on it.  A randomized
quasi-Monte Carlo draw randomizes each run on its own (_kronecker): the
runs are independent, so are the batch means, and the batch-means error
stays honest for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

_PACK = 4096  # most samples in one packed draw call: bounds the call's temporaries
_BATCHES = 100  # batches per estimate, the fewer when there are fewer samples

# mc_mean is left out: it runs the estimators' own code as a callback, and
# bench/spans.py times every listed name as work of this module.
__all__ = ["stream", "batch_layout", "map_batches", "batch_mean"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, *key) counter tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def batch_layout(samples: int) -> list[tuple[int, int]]:
    """Fixed (start, stop) ranges splitting `samples` into min(samples,
    _BATCHES) near-equal batches.

    The layout depends only on samples, never on worker count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nb = min(_BATCHES, samples)
    base, extra = divmod(samples, nb)
    ranges = []
    start = 0
    for b in range(nb):
        size = base + (1 if b < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def map_batches(fn, n_batches: int, workers: int = 1) -> list:
    """Evaluate fn(batch_index) for all batches, in deterministic index order.

    With workers > 1 the batches run on a thread pool (the heavy lifting
    inside a batch is vectorized numpy, which releases the GIL); the pool
    yields results in index order, so the output is bit-identical to the
    workers == 1 run.  Fewer than one worker is a ValueError.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or n_batches == 1:
        return [fn(b) for b in range(n_batches)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_batches)))


def batch_mean(batch_sums, batch_sizes) -> tuple[float, float]:
    """Overall mean and batch-means standard error from per-batch sums.

    Accumulation uses math.fsum so the reduction is exact and independent of
    the order in which batches were computed.
    """
    n = int(sum(batch_sizes))
    total = math.fsum(batch_sums)
    mean = total / n
    nb = len(batch_sums)
    if nb < 2:
        return mean, 0.0
    means = [s / sz for s, sz in zip(batch_sums, batch_sizes)]
    var = math.fsum((m - mean) ** 2 for m in means) / (nb - 1)
    return mean, math.sqrt(var / nb)


@cache
def _r_alpha(d: int) -> np.ndarray:
    """alpha_j = phi_d^-j, j = 1..d, of the R_d sequence, with phi_d the root
    > 1 of x^(d+1) = x + 1 (fixed-point iteration contracts by at most 0.31)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1.0)
    alpha.flags.writeable = False
    return alpha


def _kronecker(rng, runs, d: int) -> np.ndarray:
    """Randomly shifted Kronecker points in [0, 1)^d, shape (sum(runs), d):
    run r of n points is u_i = frac(i alpha + Delta_r), i = 0..n-1, with
    alpha of the R_d sequence (_r_alpha) and Delta_r one uniform d-vector
    per run from rng (a Cranley-Patterson rotation).  Every point is
    uniform on [0, 1)^d and the runs are independent, so a run's mean is an
    unbiased estimate.  The points are computed as frac(k alpha + Delta_r -
    s_r alpha) over the call's indices k, s_r the run's first: that is
    frac(i alpha + Delta_r) up to the rounding of k alpha, at most 5.7e-12
    measured for k < 2^16."""
    runs = np.asarray(runs)
    alpha = _r_alpha(d)
    shift = rng.random((len(runs), d)) - np.multiply.outer(np.cumsum(runs) - runs, alpha)
    u = np.multiply.outer(alpha, np.arange(runs.sum()))
    u += np.repeat(shift.T, runs, axis=1)
    u -= np.floor(u)
    return u.T


def _groups(ranges, chunk):
    """Consecutive batches packed into one call while their total stays within
    min(chunk, _PACK); a larger batch is a group of its own."""
    cap = min(chunk, _PACK)
    groups, total = [], 0
    for b, (start, stop) in enumerate(ranges):
        size = stop - start
        if groups and total + size <= cap:
            groups[-1].append(b)
            total += size
        else:
            groups.append([b])
            total = size
    return groups


def mc_mean(draw, samples: int, chunk: int, seed: int, *key: int, workers: int = 1):
    """Mean and batch-means standard error of a per-sample quantity.

    draw(rng, runs) draws sum(runs) samples from rng and returns the
    quantity per sample, an array of sum(runs); runs is the tuple of the
    sizes of the runs the call covers, in order.  Group g of consecutive
    batches of batch_layout(samples) draws from stream(seed, *key, g).  A
    batch larger than min(chunk, _PACK) is a group alone, drawn in calls of
    at most `chunk`, one run each; smaller consecutive batches share one
    call of at most that many samples, one run per batch, and each batch
    sums its own slice of the values.  Batches therefore use disjoint
    draws, and the result depends on (seed, key, samples, chunk) alone, bit
    for bit, whatever the worker count.
    """
    ranges = batch_layout(samples)
    sizes = [stop - start for start, stop in ranges]
    groups = _groups(ranges, chunk)

    def run_group(g):
        rng, batches = stream(seed, *key, g), groups[g]
        start, stop = ranges[batches[0]][0], ranges[batches[-1]][1]
        if len(batches) == 1:
            return [math.fsum(float(np.sum(draw(rng, (min(chunk, stop - lo),))))
                              for lo in range(start, stop, chunk))]
        cuts = [ranges[b][0] - start for b in batches]
        runs = tuple(sizes[batches[0]:batches[-1] + 1])
        return np.add.reduceat(draw(rng, runs), cuts).tolist()

    sums = [s for group in map_batches(run_group, len(groups), workers) for s in group]
    return batch_mean(sums, sizes)
