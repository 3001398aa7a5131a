import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.rng import batch_layout, batch_mean, mc_mean, stream


def per_sample(rng, n):
    # several generator calls per invocation, so a wrong interleaving of the
    # batches' streams, a wrong stream index or a shifted slice changes values
    e = rng.exponential(2.0, size=(n, 2)).sum(axis=1)
    return e * rng.random(n) + rng.integers(0, 3, size=n) - rng.uniform(-1.0, 1.0, size=n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    samples=st.integers(1, 5000),
    # batches hold at most 50 samples here, so half the draws split them
    chunk=st.integers(1, 50) | st.integers(51, 4096),
    workers=st.sampled_from([1, 2]),
)
def test_mc_mean_equals_plain_batch_loop(samples, chunk, workers):
    seed, key = 17, (3, 5)
    sums, sizes = [], []
    for b, (start, stop) in enumerate(batch_layout(samples)):
        rng = stream(seed, *key, b)
        parts = []
        left = stop - start
        while left > 0:
            n = min(chunk, left)
            parts.append(float(np.sum(per_sample(rng, n))))
            left -= n
        sums.append(math.fsum(parts))
        sizes.append(stop - start)
    want = batch_mean(sums, sizes)
    assert mc_mean(per_sample, samples, chunk, seed, *key, workers=workers) == want
