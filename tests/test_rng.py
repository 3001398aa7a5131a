import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboson.rng import batch_layout, batch_mean, map_batches, mc_mean, stream


def per_sample(rng, n):
    # several generator calls per invocation, so a wrong interleaving of the
    # draws, a wrong stream index or a shifted slice changes values
    e = rng.exponential(2.0, size=(n, 2)).sum(axis=1)
    return e * rng.random(n) + rng.integers(0, 3, size=n) - rng.uniform(-1.0, 1.0, size=n)


def piecewise_sum(rng, n, chunk):
    """Sum of n samples drawn from rng in calls of at most chunk."""
    parts = []
    while n > 0:
        parts.append(float(np.sum(per_sample(rng, min(chunk, n)))))
        n -= min(chunk, n)
    return math.fsum(parts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    samples=st.integers(1, 5000),
    # batches hold at most 50 samples here, so half the draws split them
    chunk=st.integers(1, 50) | st.integers(51, 4096),
    workers=st.sampled_from([1, 2]),
)
def test_mc_mean_equals_plain_batch_loop(samples, chunk, workers):
    seed, key = 17, (3, 5)
    # groups: consecutive batches while their total stays within
    # min(chunk, 4096); a larger batch is a group alone
    groups, total = [], 0
    for start, stop in batch_layout(samples):
        if groups and total + stop - start <= min(chunk, 4096):
            groups[-1].append((start, stop))
            total += stop - start
        else:
            groups.append([(start, stop)])
            total = stop - start
    sums, sizes = [], []
    for g, batches in enumerate(groups):
        rng = stream(seed, *key, g)
        lo, hi = batches[0][0], batches[-1][1]
        if len(batches) == 1:
            sums.append(piecewise_sum(rng, hi - lo, chunk))
        else:
            vals = per_sample(rng, hi - lo)
            # each batch sums its own slice, with the reduction mc_mean uses
            sums.extend(np.add.reduceat(vals, [a - lo for a, _ in batches]).tolist())
        sizes.extend(b - a for a, b in batches)
    want = batch_mean(sums, sizes)
    assert mc_mean(per_sample, samples, chunk, seed, *key, workers=workers) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chunk=st.integers(1, 60), extra=st.integers(0, 3000), workers=st.sampled_from([1, 2]))
@example(chunk=5000, extra=37, workers=1)  # batches of 4097 > 4096, each drawn in one call
def test_mc_mean_of_unpacked_batches_equals_per_batch_streams(chunk, extra, workers):
    # every batch is larger than min(chunk, 4096), so each is a group alone
    # and draws from the stream of its batch index, in pieces of chunk
    samples = 100 * (min(chunk, 4096) + 1) + extra
    seed, key = 23, (4,)
    ranges = batch_layout(samples)
    sums = [piecewise_sum(stream(seed, *key, b), stop - start, chunk)
            for b, (start, stop) in enumerate(ranges)]
    want = batch_mean(sums, [stop - start for start, stop in ranges])
    assert mc_mean(per_sample, samples, chunk, seed, *key, workers=workers) == want


def test_batch_means_error_is_honest_for_a_shared_group_stream():
    # 500 uniforms in 100 batches of 5: all batches are one group and share a
    # stream.  Disjoint slices keep the batch means independent, so the
    # reported SE^2 must match the spread of the means across seeds, and both
    # must match Var(U)/500 = 1/6000.
    n, want = 500, 1.0 / (12 * 500)
    runs = [mc_mean(lambda rng, k: rng.random(k), n, 4096, seed, 9) for seed in range(200)]
    means = np.array([m for m, _ in runs])
    se2 = np.array([se**2 for _, se in runs])
    # the mean of 200 SE^2 values, each a 99-dof variance estimate, has a
    # relative sd of sqrt(2/99/200) = 1.0%: 5% is five sds
    assert abs(se2.mean() / want - 1.0) < 0.05
    # the sample variance of 200 means has a relative sd of sqrt(2/199) = 10%:
    # 35% is 3.5 sds
    assert abs(means.var(ddof=1) / want - 1.0) < 0.35
    assert abs(means.var(ddof=1) / se2.mean() - 1.0) < 0.35


@pytest.mark.parametrize("workers", [0, -3])
def test_map_batches_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        map_batches(lambda b: b, 4, workers)
