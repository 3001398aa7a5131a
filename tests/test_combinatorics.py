import functools
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from spinboson import combinatorics, integrator, verify
from spinboson.combinatorics import (
    ForestSelection,
    base_matching,
    check_order,
    enumerate_forest_selections,
    enumerate_matchings,
    forest_volume,
    matching_count,
    open_cycles,
    partition_join,
    verify_bkar_identity,
)
from spinboson.errors import ResourceError, StructureError
from spinboson.integrator import cluster_terms
from spinboson.rng import stream

from oracles import interpolated_coupling, overlap_code

CROSS_A = ((0, 2), (1, 3))  # a cross matching of 4 points


def test_matching_counts():
    for p, want in [(1, 1), (2, 3), (3, 15), (4, 105)]:
        assert matching_count(p) == want
        got = list(enumerate_matchings(p))
        assert len(got) == want
        assert len(set(got)) == want


def test_matching_count_formula():
    for p in range(1, 6):
        assert matching_count(p) == math.factorial(2 * p) // (2**p * math.factorial(p))


def test_order_cap_resource_guard():
    # one rule everywhere: past HARD_P_MAX refused, past DEFAULT_P_MAX a warning
    for p in (0, 7):
        with pytest.raises(ResourceError):
            cluster_terms(p)
    with pytest.raises(ResourceError):
        verify.census(7)
    with pytest.raises(ResourceError):
        verify_bkar_identity(base_matching(7), np.arange(14.0))
    with pytest.warns(UserWarning, match="p=5: enumeration sizes grow factorially"):
        assert len(cluster_terms(5)) == 5829


def test_order_cap_checked_once_per_entry_point(monkeypatch):
    # the lazy enumerators check nothing; cluster_terms, counts and census
    # each check once
    calls = []

    def counting(*args):
        calls.append(args)
        return check_order(*args)

    monkeypatch.setattr(combinatorics, "check_order", counting)
    monkeypatch.setattr(integrator, "check_order", counting)
    cluster_terms(4)
    assert calls == [(4,)]
    calls.clear()
    verify.counts(4)
    assert calls == [(4,)]
    calls.clear()
    verify.census(4)
    assert calls == [(4,)]


def test_partition_join_base_matching_gives_singletons():
    blocks = partition_join(base_matching(3))
    assert blocks.pair_blocks == ((0,), (1,), (2,))


def test_partition_join_crossing_merges():
    # hand union-find on 4 points: 0-1 and 2-3 from the base, 0-2 and 1-3 from P
    blocks = partition_join(CROSS_A)
    assert blocks.pair_blocks == ((0, 1),)
    assert blocks.block_of == (0, 0)



@pytest.mark.parametrize("matching", [((0, 2), (1, 2)), ((0, 1), (2, 4)), ((0, 1),) * 2])
def test_partition_join_rejects_a_non_matching(matching):
    with pytest.raises(ValueError, match="not a perfect matching"):
        partition_join(matching)


def test_cycle_supports_are_even():
    # every P-edge closes inside one block, so each block is a union of cycles
    for p in (2, 3, 4):
        for m in enumerate_matchings(p):
            block_of = partition_join(m).block_of
            assert all(block_of[a // 2] == block_of[b // 2] for a, b in m)


def test_forest_selections_p1():
    sels = list(enumerate_forest_selections(base_matching(1), connecting_only=True))
    assert len(sels) == 1 and sels[0].micro_edges == ()


def test_forest_selections_p2():
    # base matching: two singleton blocks, the single cross edge must be chosen
    conn = list(enumerate_forest_selections(base_matching(2), connecting_only=True))
    assert len(conn) == 1 and conn[0].micro_edges == ((0, 1),)
    both = list(enumerate_forest_selections(base_matching(2)))
    assert sorted(s.micro_edges for s in both) == [(), ((0, 1),)]
    # crossing matching: one block, intra-block edges forbidden, empty is connecting
    conn = list(enumerate_forest_selections(CROSS_A, connecting_only=True))
    assert len(conn) == 1 and conn[0].micro_edges == ()


def test_forest_selection_streams_are_consistent():
    for p in (2, 3):
        for m in enumerate_matchings(p):
            every = list(enumerate_forest_selections(m))
            conn = list(enumerate_forest_selections(m, connecting_only=True))
            k = len(partition_join(m).pair_blocks)
            filtered = [s for s in every if len(s.micro_edges) == k - 1 and _hat_connected(s, k)]
            assert sorted(s.micro_edges for s in conn) == sorted(s.micro_edges for s in filtered)


def _hat_connected(sel, k):
    seen = {0}
    frontier = [0]
    adj = {}
    for x, y in sel.hat_edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    while frontier:
        cur = frontier.pop()
        for nbr in adj.get(cur, []):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == k


def test_interpolated_coupling_rules():
    # p = 4 base matching with a two-edge path on blocks 0-1-2; block 3 isolated
    m = base_matching(4)
    sels = [
        s for s in enumerate_forest_selections(m)
        if sorted(s.micro_edges) == [(0, 1), (1, 2)]
    ]
    assert len(sels) == 1
    sel = sels[0]
    v = [0.3, 0.7]
    assert interpolated_coupling(sel, v, (0, 2)) == pytest.approx(0.3)
    assert interpolated_coupling(sel, v, (0, 3)) == 0.0
    with pytest.raises(ValueError):
        interpolated_coupling(sel, v, (0, 1))
    # same-block pair: crossing matching on 4 points plus a spectator pair
    m2 = ((0, 2), (1, 3), (4, 5))
    sel2 = next(iter(enumerate_forest_selections(m2, connecting_only=True)))
    v2 = [0.5] * len(sel2.micro_edges)
    assert interpolated_coupling(sel2, v2, (0, 1)) == 1.0


def test_coupling_vanishes_across_components(random_matching):
    # random instances: coupling nonzero only when the contracted graph plus the
    # selection connects the two base pairs (checked by independent reachability)
    rng = stream(77, 0)
    checked = 0
    for _ in range(40):
        p = int(rng.integers(2, 5))
        m = random_matching(p, rng)
        sels = list(enumerate_forest_selections(m))
        sel = sels[int(rng.integers(0, len(sels)))]
        v = rng.random(len(sel.micro_edges))
        adj = {i: set() for i in range(p)}
        for a, b in m:
            if a // 2 != b // 2:
                adj[a // 2].add(b // 2)
                adj[b // 2].add(a // 2)
        for i, j in sel.micro_edges:
            adj[i].add(j)
            adj[j].add(i)
        for i in range(p):
            for j in range(i + 1, p):
                if (i, j) in sel.micro_edges:
                    continue
                reach = _reachable(adj, i)
                r = interpolated_coupling(sel, v, (i, j))
                if j not in reach:
                    assert r == 0.0
                    checked += 1
    assert checked > 0


def _reachable(adj, start):
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nbr in adj[cur]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def test_open_cycles_p1():
    m = base_matching(1)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    opened = open_cycles(m, sel)
    assert opened.steps == ()


def test_open_cycles_p2_base():
    m = base_matching(2)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    opened = open_cycles(m, sel)
    assert opened.steps == ((1, 0, "overlap", None, None),)
    assert set(opened.deleted_edges) == set(m)


def test_open_cycles_counts_random(random_matching):
    rng = stream(78, 0)
    for _ in range(30):
        p = int(rng.integers(2, 5))
        m = random_matching(p, rng)
        blocks = partition_join(m)
        sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
        opened = open_cycles(m, sel)
        assert len(opened.deleted_edges) == len(blocks.pair_blocks)
        assert sum(kind == "overlap" for _, _, kind, _, _ in opened.steps) == len(sel.micro_edges)
        assert len(sel.micro_edges) <= p - 1
        assert len(opened.steps) == p - 1


def test_open_cycles_rejects_non_connecting():
    m = base_matching(2)
    empty = [s for s in enumerate_forest_selections(m) if not s.micro_edges][0]
    with pytest.raises(StructureError):
        open_cycles(m, empty)


def test_open_cycles_rejects_micro_edge_inside_a_block():
    # pairs 0 and 1 share one cycle, whose opening keeps the P-edge (1, 3)
    # between them; a micro edge (0, 1) doubles it and pair 2 stays unreached
    m = ((0, 2), (1, 3), (4, 5))
    blocks = partition_join(m)
    assert blocks.pair_blocks == ((0, 1), (2,))
    sel = ForestSelection(((0, 1),), ((0, 0),), blocks)
    with pytest.raises(StructureError):
        open_cycles(m, sel)


def _compatible_pair_counts(p):
    """Per-tree compatible-pair counts of order p, by the census helper."""
    counts = Counter()
    for m in enumerate_matchings(p):
        verify._add_compatible_pairs(counts, m, enumerate_forest_selections(m, connecting_only=True))
    return counts


def test_spanning_tree_counts_match_cayley():
    for p in (2, 3, 4, 5, 6):
        trees = verify._labeled_trees(p)
        assert len(trees) == len(set(trees)) == p ** (p - 2)
        assert all(len(t) == p - 1 and list(t) == sorted(t) for t in trees)


def test_degree_census_matches_cayley_formula():
    for p in (3, 4, 5, 6):
        census = {}
        for tree in verify._labeled_trees(p):
            degs = tuple(sum(v in e for e in tree) for v in range(p))
            census[degs] = census.get(degs, 0) + 1
        for degs, count in census.items():
            want = math.factorial(p - 2)
            for d in degs:
                want //= math.factorial(d - 1)
            assert count == want
        # completeness: degree sequences sum to 2(p-1)
        assert all(sum(d) == 2 * (p - 1) for d in census)


def test_count_compatible_pairs_small():
    assert _compatible_pair_counts(1).get((), 0) == 1
    n2 = _compatible_pair_counts(2).get(((0, 1),), 0)
    assert n2 == 3  # (base, edge), (cross, empty) x 2 -- by hand
    assert n2 < 4**2
    counts3 = _compatible_pair_counts(3)
    for tree in verify._labeled_trees(3):
        assert counts3.get(tree, 0) < 4**3


def _count_compatible_pairs_per_tree(tree, p):
    """Reference: every (matching, selection) pair enumerated again per tree."""
    count = 0
    for matching in enumerate_matchings(p):
        blocks = partition_join(matching)
        cycle_pedges = [[e for e in matching if blocks.block_of[e[0] // 2] == b]
                        for b in range(len(blocks.pair_blocks))]
        for sel in enumerate_forest_selections(matching, connecting_only=True):
            micro = set(sel.micro_edges)
            if not micro <= set(tree):
                continue
            target = set(tree) - micro
            for deletion in itertools.product(*cycle_pedges):
                kept = [e for e in matching if e not in set(deletion)]
                sharp = [tuple(sorted((a // 2, b // 2))) for a, b in kept if a // 2 != b // 2]
                if len(sharp) == len(set(sharp)) == len(kept) and set(sharp) == target:
                    count += 1
                    break
    return count


CENSUS = {  # p: matchings, connecting pairs, most compatible pairs per tree, labeled trees
    1: (1, 1, 1, 1),
    2: (3, 3, 3, 1),
    3: (15, 23, 13, 3),
    4: (105, 304, 43, 16),
    5: (945, 5829, 141, 125),
}


@pytest.mark.parametrize("p", sorted(CENSUS))
def test_census_numbers_are_pinned(p):
    matchings, connecting, per_tree_max, trees = CENSUS[p]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p = 5 is past the default cap
        assert verify.census(p) == {"p": p, "matchings": matchings, "connecting_pairs": connecting,
                                    "per_tree_max": per_tree_max, "trees": trees}
        assert verify.counts(p)["per_tree_max"] == per_tree_max


def test_compatible_pair_counts_match_per_tree_enumeration():
    for p in range(1, 5):
        counts = _compatible_pair_counts(p)
        trees = verify._labeled_trees(p)
        assert [counts.get(t, 0) for t in trees] == [
            _count_compatible_pairs_per_tree(t, p) for t in trees]
        # every counted pair opens to a spanning tree
        assert set(counts) <= set(trees)


def test_bkar_identity_analytic_p2():
    m = base_matching(2)
    disjoint = [0.0, 1.0, 2.0, 3.0]
    overlapping = [0.0, 2.0, 1.0, 3.0]
    assert verify_bkar_identity(m, disjoint) < 1e-14
    assert verify_bkar_identity(m, overlapping) < 1e-14


def test_bkar_identity_random_p3():
    rng = stream(79, 0)
    matchings = list(enumerate_matchings(3))
    for trial in range(25):
        m = matchings[int(rng.integers(0, len(matchings)))]
        starts = rng.uniform(-1.5, 1.5, size=3)
        lengths = rng.exponential(0.8, size=3) + 1e-3
        t = np.empty(6)
        t[0::2] = starts
        t[1::2] = starts + lengths
        assert verify_bkar_identity(m, t) < 1e-8


def test_bkar_identity_rejects_bad_intervals():
    with pytest.raises(ValueError):
        verify_bkar_identity(base_matching(2), [1.0, 0.5, 2.0, 3.0])


@pytest.mark.parametrize("t", [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                               [[0.0, 1.0], [2.0, 3.0]]])
def test_bkar_identity_needs_2p_times(t):
    with pytest.raises(ValueError, match="need 2p times"):
        verify_bkar_identity(base_matching(2), t)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_bkar_identity_exact_p4_to_p6():
    # sparse overlaps on the base matching give the most contributing selections
    rng = stream(80, 0)
    for p, trials in ((4, 6), (5, 4), (6, 2)):
        for _ in range(trials):
            starts = rng.uniform(0.0, 1.5 * p, size=p)
            lengths = rng.exponential(0.8, size=p) + 1e-3
            t = np.empty(2 * p)
            t[0::2] = starts
            t[1::2] = starts + lengths
            assert verify_bkar_identity(base_matching(p), t) <= 1e-12


def test_forest_volume_two_edge_path():
    m = base_matching(3)
    sel = [
        s for s in enumerate_forest_selections(m)
        if sorted(s.micro_edges) == [(0, 1), (1, 2)]
    ][0]
    # only the long pair (0, 2), path pair 0, overlaps: integral of 1 - min(v1, v2) is 2/3
    assert sel.path_pairs[0][0] == (0, 2)
    assert forest_volume(sel, 1) == pytest.approx(2 / 3, rel=1e-12)


def test_volume_tables_own_their_memory():
    # a view of forest_volume's work array would keep all 2^k x 2^q of it
    # alive in every cached term
    for p in range(1, 5):
        for term in cluster_terms(p):
            assert term.volumes.base is None


def _closed_form_volume(sel, overlap):
    """Reference for |F| <= 2 from overlap counts.  One selected edge carrying m
    overlapping couplings gives 1/(m+1).  Two edges with a overlapping
    couplings on the first, b on the second and c on the two-edge path give

        [1/(b+1) - 1/(a+b+c+2)] / (a+c+1) + [1/(a+1) - 1/(a+b+c+2)] / (b+c+1).
    """
    counts = {(0,): 0, (1,): 0, (0, 1): 0}
    for (i, j), edges in sel.path_pairs:
        if overlap[i][j]:
            counts[tuple(sorted(edges))] += 1
    a, b, c = counts[(0,)], counts[(1,)], counts[(0, 1)]
    q = len(sel.micro_edges)
    if q == 0:
        return 1.0
    if q == 1:
        return 1.0 / (a + 1.0)
    tot = 1.0 / (a + b + c + 2.0)
    return (1.0 / (b + 1.0) - tot) / (a + c + 1.0) + (1.0 / (a + 1.0) - tot) / (b + c + 1.0)


def _sobol_volume(sel, overlap):
    """Scrambled-Sobol mean over v of the v-resolved product, with the paths
    taken from the induced forest directly."""
    q = len(sel.micro_edges)
    v = qmc.Sobol(d=max(q, 1), scramble=True, seed=0).random(1 << 14)
    prod = np.ones(len(v))
    block_of = sel.blocks.block_of
    p = len(block_of)
    for i in range(p):
        for j in range(i + 1, p):
            if (i, j) in sel.micro_edges or not overlap[i][j]:
                continue
            path = sel.hat_path(block_of[i], block_of[j])
            if path:
                prod *= 1.0 - np.min(v[:, list(path)], axis=1)
    return float(prod.mean())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_forest_volume_properties(rnd):
    p = rnd.randint(2, 5)
    # a uniform matching rarely has more than two blocks; the base matching has
    # p, the only way to reach |F| = p - 1
    if rnd.random() < 0.5:
        m = base_matching(p)
    else:
        m = rnd.choice(list(enumerate_matchings(p)))
    sels = list(enumerate_forest_selections(m))
    # largest first, as draws favour early elements; |F| = 0 gives 1
    q = rnd.choice(sorted({len(s.micro_edges) for s in sels} - {0}, reverse=True) or [0])
    sel = rnd.choice([s for s in sels if len(s.micro_edges) == q])
    upper = np.triu(np.array([rnd.random() < 0.5 for _ in range(p * p)]).reshape(p, p), 1)
    overlap = upper | upper.T
    vol = forest_volume(sel, overlap_code(sel, overlap))
    assert 0.0 <= vol <= 1.0
    assert abs(vol - _sobol_volume(sel, overlap)) < 5e-3
    if q <= 2:
        assert vol == pytest.approx(_closed_form_volume(sel, overlap), rel=0, abs=1e-14)


def _linked(sel, x, y):
    """Whether the induced forest connects blocks x and y, by growing x's component."""
    seen = {x}
    while True:
        grown = seen | {a + b - c for a, b in sel.hat_edges for c in (a, b) if c in seen}
        if grown == seen:
            return y in seen
        seen = grown


def test_pair_classes_of_every_selection():
    # every pair outside the selection lies in one block, is linked by a hat
    # path that walks from its one block to the other, or is free
    for p in (2, 3, 4):
        for m in enumerate_matchings(p):
            for sel in enumerate_forest_selections(m):
                block_of = sel.blocks.block_of
                rest = [e for e in itertools.combinations(range(p), 2) if e not in sel.micro_edges]
                assert sel.block_pairs == [(i, j) for i, j in rest if block_of[i] == block_of[j]]
                assert [e for e, _ in sel.path_pairs] == [
                    (i, j) for i, j in rest
                    if block_of[i] != block_of[j] and _linked(sel, block_of[i], block_of[j])]
                for (i, j), edges in sel.path_pairs:
                    at = block_of[i]
                    for a, b in (sel.hat_edges[e] for e in edges):
                        assert at in (a, b)
                        at = a + b - at
                    assert at == block_of[j]


def test_open_cycles_rejects_root_pair_outside_the_pairs():
    m = base_matching(3)
    sel = next(iter(enumerate_forest_selections(m, connecting_only=True)))
    for root in (-1, 3, 5):
        with pytest.raises(ValueError, match="root pair"):
            open_cycles(m, sel, root_pair=root)


def test_open_cycles_rejects_selection_of_another_matching():
    # the base matching's singleton blocks split the one cycle of CROSS_A
    sel = next(iter(enumerate_forest_selections(base_matching(2), connecting_only=True)))
    with pytest.raises(StructureError, match="leaves its block"):
        open_cycles(CROSS_A, sel)


def test_verify_counts_catches_a_wrong_cycle_walk(monkeypatch):
    # a walk that steps to x's partner in P, not to the partner of x ^ 1,
    # stops after two base pairs and splits every longer cycle
    from spinboson import combinatorics, verify

    def short_walk(matching):
        partner = {}
        for a, b in matching:
            partner[a], partner[b] = b, a
        block_of, pair_blocks = [None] * len(matching), []
        for i in range(len(matching)):
            if block_of[i] is None:
                cycle, x = [], 2 * i
                while block_of[x // 2] is None:
                    block_of[x // 2] = len(pair_blocks)
                    cycle.append(x // 2)
                    x = partner[x]
                pair_blocks.append(tuple(sorted(cycle)))
        return combinatorics.BlockPartition(tuple(pair_blocks), tuple(block_of))

    assert verify.counts(3)["passed"]
    monkeypatch.setattr(combinatorics, "partition_join", short_walk)
    doc = verify.counts(3)
    assert doc["checks"]["even_cycle_supports"] is False
    assert doc["passed"] is False


@functools.lru_cache(maxsize=None)
def _brute_matchings(p):
    """Every perfect matching of 0..2p-1, read off all orderings of the points."""
    return {frozenset(tuple(sorted(perm[k:k + 2])) for k in range(0, 2 * p, 2))
            for perm in itertools.permutations(range(2 * p))}


def _brute_forests(matching):
    """Micro-edge sets with at most one edge per block pair and an acyclic
    induced block graph, from every subset of the pairs across blocks."""
    block_of = partition_join(matching).block_of
    across = [(i, j) for i, j in itertools.combinations(range(len(block_of)), 2)
              if block_of[i] != block_of[j]]
    forests = set()
    for r in range(len(across) + 1):
        for edges in itertools.combinations(across, r):
            hat = [tuple(sorted((block_of[i], block_of[j]))) for i, j in edges]
            root = list(range(max(block_of) + 1))  # union-find on the blocks

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            acyclic = True
            for x, y in hat:
                acyclic &= find(x) != find(y)
                root[find(x)] = find(y)
            if len(set(hat)) == len(hat) and acyclic:
                forests.add(edges)
    return forests


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda p: st.permutations(range(2 * p))))
def test_matchings_and_forest_selections_against_brute_force(perm):
    # a drawn ordering of the 2p points pairs consecutive ones into a matching
    p = len(perm) // 2
    matching = tuple(sorted(tuple(sorted(perm[k:k + 2])) for k in range(0, 2 * p, 2)))
    got = list(enumerate_matchings(p))
    assert len(got) == matching_count(p) and got.count(matching) == 1
    assert {frozenset(m) for m in got} == _brute_matchings(p)

    forests = _brute_forests(matching)
    sels = list(enumerate_forest_selections(matching))
    # micro edges follow their hat edges' order; as sets, each forest exactly once
    assert sorted(tuple(sorted(s.micro_edges)) for s in sels) == sorted(forests)
    connecting = [s.micro_edges for s in enumerate_forest_selections(matching, True)]
    assert len(set(connecting)) == len(connecting)
    spanning = set()
    for s in sels:
        try:
            open_cycles(matching, s)
        except StructureError:
            continue
        spanning.add(s.micro_edges)
    assert set(connecting) == spanning
