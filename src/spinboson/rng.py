"""Counter-based random streams, deterministic batch layout, and mc_mean,
the one Monte Carlo batch driver.

Every stochastic estimator in this package draws from Philox streams keyed
by (seed, *indices).  A stream is a pure function of its key, so estimates
are bit-identical no matter how work is split across workers: each batch
owns its key and its draws never depend on what other batches did.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# mc_mean is left out: it runs the estimators' own code as a callback, and
# bench/spans.py times every listed name as work of this module.
__all__ = ["stream", "batch_layout", "map_batches", "batch_mean"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, *key) counter tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def batch_layout(samples: int, n_batches: int = 100) -> list[tuple[int, int]]:
    """Fixed (start, stop) ranges splitting `samples` into near-equal batches.

    The layout depends only on (samples, n_batches), never on worker count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nb = min(n_batches, samples)
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
    inside a batch is vectorized numpy, which releases the GIL); results are
    reassembled by index, so the output is bit-identical to the workers == 1
    run.
    """
    if workers <= 1 or n_batches == 1:
        return [fn(b) for b in range(n_batches)]
    out: list = [None] * n_batches
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for b, result in zip(range(n_batches), pool.map(fn, range(n_batches))):
            out[b] = result
    return out


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


def mc_mean(draw, samples: int, chunk: int, seed: int, *key: int, workers: int = 1):
    """Mean and batch-means standard error of a per-sample quantity.

    draw(rng, n) draws n samples from rng and returns the quantity summed
    over them.  Batch b of batch_layout(samples) draws from stream(seed,
    *key, b) in chunks of at most `chunk`, so the result depends on (seed,
    key, samples, chunk) alone, bit for bit, whatever the worker count.
    """
    ranges = batch_layout(samples)

    def run_batch(b):
        start, stop = ranges[b]
        rng = stream(seed, *key, b)
        return math.fsum(draw(rng, min(chunk, stop - lo)) for lo in range(start, stop, chunk))

    sums = map_batches(run_batch, len(ranges), workers)
    return batch_mean(sums, [stop - start for start, stop in ranges])
