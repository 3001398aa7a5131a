"""Counter-based random streams, deterministic batch layout, and mc_mean,
the one Monte Carlo batch driver.

Every stochastic estimator in this package draws from Philox streams keyed
by (seed, *indices).  A stream is a pure function of its key, so estimates
are bit-identical no matter how work is split across workers: each batch
owns its key and its draws never depend on what other batches did.

Small batches are packed: mc_mean hands consecutive whole batches, up to
min(chunk, _PACK) samples, to one call of the estimator's vectorized draw,
through a generator stand-in that takes each batch's rows from that batch's
own stream.  The draws and the per-batch sums are the ones an unpacked call
would give; only the number of numpy calls falls.  The packing depends on
(samples, chunk) alone, so it cannot make results depend on the workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_PACK = 4096  # most samples in one packed draw call: bounds the call's temporaries

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


class _Packed:
    """Generator stand-in for one call over several whole batches.

    Each draw takes every batch's rows from that batch's own stream, in call
    order, and concatenates them along axis 0, so each batch sees exactly
    the draws it would see drawn alone.
    """

    def __init__(self, streams, sizes):
        self._streams, self._sizes = streams, sizes

    def _cat(self, name, args, size):
        rest = tuple(np.atleast_1d(size))[1:]
        return np.concatenate([getattr(g, name)(*args, size=(m,) + rest)
                               for g, m in zip(self._streams, self._sizes)])

    def random(self, size):
        return self._cat("random", (), size)

    def exponential(self, scale=1.0, size=None):
        return self._cat("exponential", (scale,), size)

    def integers(self, low, high, size=None):
        return self._cat("integers", (low, high), size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._cat("uniform", (low, high), size)


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

    draw(rng, n) draws n samples from rng and returns the quantity per
    sample, an array of n.  Batch b of batch_layout(samples) draws from
    stream(seed, *key, b).  A batch larger than min(chunk, _PACK) is drawn
    alone, in calls of at most `chunk`; smaller consecutive batches are
    packed into one call of at most that many samples, whose rng draws each
    batch's rows from the batch's own stream.  Either way every batch sees
    the same draws and sums its values alone, so the result depends on
    (seed, key, samples, chunk) alone, bit for bit, whatever the worker
    count.  A draw whose number of generator calls depends on the values
    drawn must only append draws that leave its result unchanged when it
    runs on a packed group.
    """
    ranges = batch_layout(samples)
    groups = _groups(ranges, chunk)

    def run_group(g):
        batches = groups[g]
        sizes = [ranges[b][1] - ranges[b][0] for b in batches]
        streams = [stream(seed, *key, b) for b in batches]
        if len(batches) == 1:
            n = sizes[0]
            return [math.fsum(float(np.sum(draw(streams[0], min(chunk, n - lo))))
                              for lo in range(0, n, chunk))]
        vals = draw(_Packed(streams, sizes), sum(sizes))
        cuts = np.cumsum(sizes)[:-1]
        return [float(np.sum(part)) for part in np.split(vals, cuts)]

    sums = [s for group in map_batches(run_group, len(groups), workers) for s in group]
    return batch_mean(sums, [stop - start for start, stop in ranges])
