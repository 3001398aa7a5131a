import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboson.rng import (
    _kronecker,
    _r_alpha,
    batch_layout,
    batch_mean,
    map_batches,
    mc_mean,
    stream,
)


def per_sample(rng, n):
    # several generator calls per invocation, so a wrong interleaving of the
    # draws, a wrong stream index or a shifted slice changes values
    e = rng.exponential(2.0, size=(n, 2)).sum(axis=1)
    return e * rng.random(n) + rng.integers(0, 3, size=n) - rng.uniform(-1.0, 1.0, size=n)


def per_call(rng, runs):
    """per_sample as a draw of mc_mean: one sample per point of the runs."""
    return per_sample(rng, sum(runs))


def piecewise_sum(rng, n, chunk):
    """Sum of n samples drawn from rng in calls of at most chunk."""
    parts = []
    while n > 0:
        parts.append(float(np.sum(per_sample(rng, min(chunk, n)))))
        n -= min(chunk, n)
    return math.fsum(parts)


def packed_groups(samples, chunk):
    """The (start, stop) batches of each group: consecutive batches while their
    total stays within min(chunk, 4096); a larger batch is a group alone."""
    groups, total = [], 0
    for start, stop in batch_layout(samples):
        if groups and total + stop - start <= min(chunk, 4096):
            groups[-1].append((start, stop))
            total += stop - start
        else:
            groups.append([(start, stop)])
            total = stop - start
    return groups


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
    for g, batches in enumerate(packed_groups(samples, chunk)):
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
    assert mc_mean(per_call, samples, chunk, seed, *key, workers=workers) == want


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
    assert mc_mean(per_call, samples, chunk, seed, *key, workers=workers) == want


def test_batch_means_error_is_honest_for_a_shared_group_stream():
    # 500 uniforms in 100 batches of 5: all batches are one group and share a
    # stream.  Disjoint slices keep the batch means independent, so the
    # reported SE^2 must match the spread of the means across seeds, and both
    # must match Var(U)/500 = 1/6000.
    n, want = 500, 1.0 / (12 * 500)
    runs = [mc_mean(lambda rng, r: rng.random(sum(r)), n, 4096, seed, 9) for seed in range(200)]
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    # up to 5000 samples every batch holds at most 50, so packed and lone
    # batches mix, and a chunk below 50 splits lone ones; past 409,600 every
    # batch exceeds 4096 and is a group alone, split when chunk is smaller
    layout=st.tuples(st.integers(1, 5000),
                     st.integers(1, 50) | st.integers(51, 4096) | st.integers(4097, 20_000))
    | st.tuples(st.integers(409_601, 800_000), st.integers(4097, 20_000)),
    workers=st.sampled_from([1, 2]),
)
def test_draw_calls_are_told_the_runs_that_tile_them(layout, workers):
    samples, chunk = layout
    calls = {}  # group index -> the runs of each of its calls, in call order

    def draw(rng, runs):
        calls.setdefault(rng.bit_generator.seed_seq.spawn_key[-1], []).append(runs)
        return np.ones(sum(runs))

    assert mc_mean(draw, samples, chunk, 31, 2, workers=workers)[0] == 1.0
    groups = packed_groups(samples, chunk)
    assert sorted(calls) == list(range(len(groups)))
    for g, batches in enumerate(groups):
        sizes = [stop - start for start, stop in batches]
        if len(batches) > 1:  # a packed group: one call, one run per batch
            assert calls[g] == [tuple(sizes)]
        else:  # a lone batch: calls of one run each, all of chunk but the last
            (size,) = sizes
            assert all(len(runs) == 1 for runs in calls[g])
            pieces = [runs[0] for runs in calls[g]]
            assert sum(pieces) == size and all(n == chunk for n in pieces[:-1])
            assert 0 < pieces[-1] <= chunk
            assert len(pieces) == 1 or size > min(chunk, 4096)


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_r_alpha_solves_its_polynomial(d):
    # alpha_1 = 1/phi_d with phi_d^(d+1) = phi_d + 1, i.e. a^(d+1) + a^d = 1
    alpha = _r_alpha(d)
    a = alpha[0]
    assert 0.5 < a < 1.0
    assert abs(a ** (d + 1) + a**d - 1.0) <= 1e-15
    assert np.allclose(alpha, a ** np.arange(1, d + 1), rtol=1e-15, atol=0.0)


def test_kronecker_points_are_shifted_lattice_runs():
    # each run is frac(i alpha + Delta) from i = 0, Delta drawn per run from
    # the stream in run order; against that formula run by run
    runs, d = (1, 2000, 2999, 7), 4
    u = _kronecker(stream(5, 1), runs, d)
    assert u.shape == (sum(runs), d) and np.all((u >= 0.0) & (u < 1.0))
    deltas, lo = stream(5, 1).random((len(runs), d)), 0
    for n, delta in zip(runs, deltas):
        want = np.arange(n)[:, None] * _r_alpha(d) + delta
        want -= np.floor(want)
        # distance on the circle: a point next to 0 may round to next to 1
        gap = np.abs(u[lo:lo + n] - want)
        assert np.minimum(gap, 1.0 - gap).max() < 1e-12
        lo += n


def test_kronecker_runs_are_uniform_and_independent():
    # over 400 streams, each coordinate of a fixed point is uniform: the mean
    # of U and of U^2 within 4 sds (sd 0.0144 and 0.0149 for 400 draws), and
    # two runs of one call, with their own shifts, are uncorrelated (sd 0.05)
    u = np.array([_kronecker(stream(s, 8), (3, 3), 2) for s in range(400)])
    assert np.all(np.abs(u.mean(axis=0) - 0.5) < 4 * 0.0144)
    assert np.all(np.abs((u * u).mean(axis=0) - 1 / 3) < 4 * 0.0149)
    assert abs(np.corrcoef(u[:, 0, 0], u[:, 3, 0])[0, 1]) < 4 * 0.05


def test_stream_tags_are_distinct():
    # streams are keyed by (seed, tag, ...): two estimators that shared a tag
    # would draw the same numbers, silently correlated
    tags = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "spinboson").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                tags.update((f"{path.stem}.{t.id}", ast.literal_eval(node.value))
                            for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("_TAG_"))
    assert len(tags) >= 6
    assert len(set(tags.values())) == len(tags), tags
