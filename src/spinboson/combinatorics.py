"""Perfect matchings, block partitions, forest selections, cycle openings.

Conventions: the 2p interaction times carry indices 0..2p-1; base pair i is
{2i, 2i+1}, and the base matching pairs consecutive indices.  Superimposing
the base matching with another perfect matching P decomposes the index set
into even cycles; the cycle supports induce a partition of the base pairs
into blocks, which are exactly the connected components of the contracted
multigraph of P's cross edges.

A forest selection F is a set of "micro" edges between base pairs lying in
distinct blocks, with at most one edge per unordered block pair, such that
the induced simple graph on the blocks is a forest.  Selections index the
terms of the BKAR (Brydges-Kennedy-Abdesselam-Rivasseau) interpolation
identity for the hardcore product over intervals t_A = [t_{2i}, t_{2i+1}]:

  prod_{A<B} 1{t_A cap t_B = empty}
    = sum_F int_{[0,1]^F} prod_l dv_l
        prod_{l in F} (-1{t_A cap t_B != empty})
        * prod_{{A,B} not in F} (1 - r(F,v)_{AB} 1{t_A cap t_B != empty})

with the interpolated coupling r equal to 1 inside a block, to the minimum
of v along the unique induced-forest path between two linked blocks, and to
0 across forest components.  That last property is what restricts log Z to
selections whose induced block graph is a spanning tree ("connecting").

Opening each superposition cycle by deleting one P-edge turns a connecting
pair (P, F) into a spanning tree on the base pairs whose edges are either
kernel-decay edges (from the opened matching) or interval-overlap edges
(from F); the Monte Carlo integrator walks that tree.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import ResourceError, StructureError

__all__ = [
    "DEFAULT_P_MAX",
    "HARD_P_MAX",
    "base_matching",
    "enumerate_matchings",
    "random_matching",
    "matching_count",
    "BlockPartition",
    "partition_join",
    "contracted_multigraph",
    "ForestSelection",
    "enumerate_forest_selections",
    "classify_pairs",
    "interpolated_coupling",
    "OpenedStructure",
    "open_cycles",
    "spanning_trees",
    "degree_census",
    "count_compatible_pairs",
    "forest_volume",
    "verify_bkar_identity",
]

DEFAULT_P_MAX = 4
HARD_P_MAX = 6


def check_order(p: int, p_max: Optional[int] = None) -> None:
    limit = DEFAULT_P_MAX if p_max is None else min(p_max, HARD_P_MAX)
    if p < 1:
        raise ResourceError("order p must be >= 1")
    if p > limit:
        raise ResourceError(
            f"order p={p} beyond the cap {limit}; enumeration grows factorially"
        )
    if p > DEFAULT_P_MAX:
        warnings.warn(f"order p={p}: enumeration sizes grow factorially", ResourceWarning)


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def base_matching(p: int) -> tuple[tuple[int, int], ...]:
    return tuple((2 * i, 2 * i + 1) for i in range(p))


def matching_count(p: int) -> int:
    """(2p)! / (2^p p!) by the double-factorial recursion."""
    n = 1
    for k in range(1, 2 * p, 2):
        n *= k
    return n


def enumerate_matchings(p: int, p_max: Optional[int] = None) -> Iterator[tuple]:
    """All perfect matchings of 0..2p-1, each exactly once, canonical order."""
    check_order(p, p_max)

    def rec(items):
        if not items:
            yield ()
            return
        a = items[0]
        for idx in range(1, len(items)):
            b = items[idx]
            rest = items[1:idx] + items[idx + 1 :]
            for sub in rec(rest):
                yield ((a, b),) + sub

    yield from rec(tuple(range(2 * p)))


def random_matching(p: int, rng: np.random.Generator) -> tuple:
    """Uniform perfect matching: shuffle and pair consecutive entries."""
    perm = rng.permutation(2 * p)
    pairs = sorted(_norm_edge(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(p))
    return tuple(pairs)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class BlockPartition:
    """Cycle supports of the superposition, on points and on base pairs."""

    point_blocks: tuple[frozenset, ...]
    pair_blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]  # base pair index -> block index


def _validate_matching(matching) -> int:
    points = sorted(x for e in matching for x in e)
    if points != list(range(len(points))) or len(points) != 2 * len(matching):
        raise ValueError("not a perfect matching of 0..2p-1")
    return len(matching)


def partition_join(matching) -> BlockPartition:
    """Connected components of the superposition of P with the base matching."""
    p = _validate_matching(matching)
    uf = _UnionFind(2 * p)
    for i in range(p):
        uf.union(2 * i, 2 * i + 1)
    for a, b in matching:
        uf.union(a, b)
    roots: dict[int, list[int]] = {}
    for x in range(2 * p):
        roots.setdefault(uf.find(x), []).append(x)
    point_blocks = sorted(roots.values(), key=min)
    block_of = [0] * p
    pair_blocks = []
    for bi, pts in enumerate(point_blocks):
        pairs = sorted({x // 2 for x in pts})
        pair_blocks.append(tuple(pairs))
        for i in pairs:
            block_of[i] = bi
    return BlockPartition(
        tuple(frozenset(b) for b in point_blocks), tuple(pair_blocks), tuple(block_of)
    )


def contracted_multigraph(matching) -> dict[tuple[int, int], int]:
    """Cross edges of P between base pairs, with multiplicity (at most 2)."""
    _validate_matching(matching)
    mult: dict[tuple[int, int], int] = {}
    for a, b in matching:
        i, j = a // 2, b // 2
        if i != j:
            e = _norm_edge(i, j)
            mult[e] = mult.get(e, 0) + 1
            assert mult[e] <= 2
    return mult


@dataclass(frozen=True)
class ForestSelection:
    """One micro-edge forest: edges between base pairs, induced forest on blocks."""

    micro_edges: tuple[tuple[int, int], ...]  # pairs of base-pair indices, sorted
    hat_edges: tuple[tuple[int, int], ...]  # induced block pairs, aligned with micro_edges
    blocks: BlockPartition
    _adj: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        adj: dict[int, list[tuple[int, int]]] = {}
        for idx, (x, y) in enumerate(self.hat_edges):
            adj.setdefault(x, []).append((y, idx))
            adj.setdefault(y, []).append((x, idx))
        object.__setattr__(self, "_adj", adj)

    def hat_path(self, x: int, y: int) -> Optional[tuple[int, ...]]:
        """Edge indices of the unique induced-forest path between blocks, if any."""
        if x == y:
            return ()
        seen = {x: None}
        queue = [x]
        while queue:
            cur = queue.pop(0)
            for nbr, eidx in self._adj.get(cur, []):
                if nbr in seen:
                    continue
                seen[nbr] = (cur, eidx)
                if nbr == y:
                    path = []
                    node = y
                    while seen[node] is not None:
                        prev, eidx2 = seen[node]
                        path.append(eidx2)
                        node = prev
                    return tuple(reversed(path))
                queue.append(nbr)
        return None


def _forests_on_blocks(k: int, spanning: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Acyclic edge subsets of the complete graph on k blocks (trees if spanning)."""
    edges = [(x, y) for x in range(k) for y in range(x + 1, k)]

    def rec(idx, chosen, uf):
        if idx == len(edges):
            if not spanning or len(chosen) == k - 1:
                yield tuple(chosen)
            return
        # prune: not enough edges left to finish a spanning tree
        if spanning and len(chosen) + (len(edges) - idx) < k - 1:
            return
        yield from rec(idx + 1, chosen, uf)
        x, y = edges[idx]
        uf2 = _UnionFind(k)
        uf2.parent = list(uf.parent)
        if uf2.union(x, y):
            chosen.append(edges[idx])
            yield from rec(idx + 1, chosen, uf2)
            chosen.pop()

    yield from rec(0, [], _UnionFind(k))


def enumerate_forest_selections(
    matching, connecting_only: bool = False, p_max: Optional[int] = None
) -> Iterator[ForestSelection]:
    """All valid forest selections for P (only spanning-tree ones if connecting)."""
    p = _validate_matching(matching)
    check_order(p, p_max)
    blocks = partition_join(matching)
    k = len(blocks.pair_blocks)
    for hat in _forests_on_blocks(k, spanning=connecting_only):
        choices = []
        for x, y in hat:
            mics = sorted(
                _norm_edge(i, j)
                for i in blocks.pair_blocks[x]
                for j in blocks.pair_blocks[y]
            )
            choices.append(mics)
        for combo in itertools.product(*choices):
            yield ForestSelection(tuple(combo), tuple(hat), blocks)


def classify_pairs(selection: ForestSelection):
    """Classify every unordered base-pair pair for the term integrand.

    Returns a list over pairs (i, j), i < j, of tuples:
      ('forest', edge_idx)  -- the pair is a selected micro edge
      ('block',)            -- same block: full hardcore factor
      ('path', edge_idxs)   -- linked through the induced forest: min-v coupling
      ('free',)             -- different forest components: no coupling
    """
    p = len(selection.blocks.block_of)
    micro_index = {e: idx for idx, e in enumerate(selection.micro_edges)}
    out = []
    for i in range(p):
        for j in range(i + 1, p):
            e = (i, j)
            if e in micro_index:
                out.append((e, ("forest", micro_index[e])))
                continue
            x, y = selection.blocks.block_of[i], selection.blocks.block_of[j]
            if x == y:
                out.append((e, ("block",)))
                continue
            path = selection.hat_path(x, y)
            if path is None:
                out.append((e, ("free",)))
            else:
                out.append((e, ("path", path)))
    return out


def interpolated_coupling(selection: ForestSelection, v, pair) -> float:
    """The coupling r(F, v) for a base-pair pair not in the selection."""
    i, j = _norm_edge(*pair)
    vs = np.asarray(v, dtype=float)
    if vs.shape != (len(selection.micro_edges),):
        raise ValueError("v must assign one value per selected edge")
    if np.any((vs < 0) | (vs > 1)):
        raise ValueError("interpolation parameters must lie in [0, 1]")
    if (i, j) in selection.micro_edges:
        raise ValueError("selected edges carry the derivative factor, not a coupling")
    x, y = selection.blocks.block_of[i], selection.blocks.block_of[j]
    if x == y:
        return 1.0
    path = selection.hat_path(x, y)
    if path is None:
        return 0.0
    return float(min(vs[e] for e in path))


@dataclass(frozen=True)
class OpenedStructure:
    """Cycle opening of (P, F): the spanning tree walked by the integrator."""

    opened_matching: tuple[tuple[int, int], ...]  # P-edges kept
    deleted_edges: tuple[tuple[int, int], ...]  # one P-edge per cycle
    tree_edges: tuple[tuple, ...]  # (i, j, kind, micro) with kind 'h'|'overlap'
    root: int
    parent: tuple[int, ...]  # parent base pair per pair (-1 at root)
    order: tuple[int, ...]  # BFS order, root first
    steps: tuple[tuple, ...]  # (child, parent, kind, child_point, parent_point)
    offspring: tuple[int, ...]  # number of overlap-edge children per base pair


def open_cycles(matching, selection: ForestSelection, root_pair: int = 0) -> OpenedStructure:
    """Delete one P-edge per superposition cycle (the one with the smallest
    endpoint) and assemble the spanning tree from the opened contracted edges
    plus the selected forest, rooted at root_pair."""
    p = _validate_matching(matching)
    blocks = selection.blocks
    deleted = []
    for pts in blocks.point_blocks:
        cycle_edges = [e for e in matching if e[0] in pts]
        deleted.append(min(cycle_edges, key=lambda e: (min(e), max(e))))
    deleted_set = set(deleted)
    opened = tuple(e for e in matching if e not in deleted_set)
    assert len(opened) == len(matching) - len(blocks.point_blocks)

    tree: list[tuple] = []
    for a, b in opened:
        i, j = a // 2, b // 2
        assert i != j, "internal edges always open their own 2-cycle"
        tree.append((*_norm_edge(i, j), "h", _norm_edge(a, b)))
    for (i, j) in selection.micro_edges:
        tree.append((i, j, "overlap", None))

    uf = _UnionFind(p)
    edge_set = set()
    for i, j, _, _ in tree:
        if (i, j) in edge_set or not uf.union(i, j):
            raise StructureError("opened edges plus selection do not form a tree")
        edge_set.add((i, j))
    if len(tree) != p - 1:
        raise StructureError("selection is not connecting: no spanning tree")

    adj: dict[int, list[tuple]] = {i: [] for i in range(p)}
    for i, j, kind, micro in tree:
        adj[i].append((j, kind, micro))
        adj[j].append((i, kind, micro))
    for i in adj:
        adj[i].sort(key=lambda x: x[0])

    parent = [-1] * p
    order = [root_pair]
    steps = []
    offspring = [0] * p
    seen = {root_pair}
    qpos = 0
    while qpos < len(order):
        cur = order[qpos]
        qpos += 1
        for nbr, kind, micro in adj[cur]:
            if nbr in seen:
                continue
            seen.add(nbr)
            parent[nbr] = cur
            order.append(nbr)
            if kind == "h":
                a, b = micro
                child_pt, parent_pt = (a, b) if a // 2 == nbr else (b, a)
                steps.append((nbr, cur, "h", child_pt, parent_pt))
            else:
                steps.append((nbr, cur, "overlap", None, None))
                offspring[cur] += 1
    assert len(order) == p

    return OpenedStructure(
        opened, tuple(deleted), tuple(tree), root_pair,
        tuple(parent), tuple(order), tuple(steps), tuple(offspring),
    )


def spanning_trees(p: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labeled trees on p vertices, as sorted edge tuples."""
    edges = [(i, j) for i in range(p) for j in range(i + 1, p)]
    if p == 1:
        yield ()
        return
    for combo in itertools.combinations(edges, p - 1):
        uf = _UnionFind(p)
        if all(uf.union(i, j) for i, j in combo):
            yield combo


def degree_census(p: int) -> dict[tuple[int, ...], int]:
    """Number of labeled trees per degree sequence, by exhaustive enumeration."""
    census: dict[tuple[int, ...], int] = {}
    for tree in spanning_trees(p):
        deg = [0] * p
        for i, j in tree:
            deg[i] += 1
            deg[j] += 1
        census[tuple(deg)] = census.get(tuple(deg), 0) + 1
    return census


def count_compatible_pairs(tree_edges, p: int, p_max: Optional[int] = None) -> int:
    """Count (P, selection) pairs from which some cycle opening yields this tree."""
    check_order(p, p_max)
    tree = {_norm_edge(i, j) for i, j in tree_edges}
    if len(tree) != p - 1:
        raise ValueError("tree_edges must form a spanning tree on the base pairs")
    count = 0
    for matching in enumerate_matchings(p, p_max):
        blocks = partition_join(matching)
        cycle_pedges = [
            [e for e in matching if e[0] in pts] for pts in blocks.point_blocks
        ]
        for sel in enumerate_forest_selections(matching, connecting_only=True, p_max=p_max):
            micro = set(sel.micro_edges)
            if not micro <= tree:
                continue
            target = tree - micro
            for deletion in itertools.product(*cycle_pedges):
                kept = [e for e in matching if e not in set(deletion)]
                sharp = [_norm_edge(a // 2, b // 2) for a, b in kept if a // 2 != b // 2]
                if len(sharp) == len(set(sharp)) and set(sharp) == target and len(kept) == len(sharp):
                    count += 1
                    break
    return count


def forest_volume(selection: ForestSelection, overlap):
    """Integral over v in [0,1]^F of the interpolated hardcore product,

        prod_{{A,B} path-linked, overlapping} (1 - min_{l in path} v_l),

    given the boolean overlap matrix of the intervals, shape (p, p), or a
    stack of them, shape (..., p, p); returns a float or an array.

    Exact for every |F| = q.  On the simplex where the q edges are ordered by
    increasing v, the minimum along each path is the path's lowest-ranked
    edge; with c_r overlapping paths whose minimum falls on the r-th edge the
    simplex integral of prod_r (1 - v_r)^{c_r} is prod_r 1 / sum_{r' >= r}
    (c_{r'} + 1).  The volume is the sum of that over the q! orderings.  The
    tail sum for rank r depends only on the set S of edges ranked r or later:
    it is |S| plus the number of overlapping paths lying inside S.  So the sum
    over orderings is accumulated over the 2^q sets S, each from its subsets
    one edge smaller.
    """
    ov = np.asarray(overlap, dtype=bool)
    q = len(selection.micro_edges)
    sets = np.arange(1 << q)
    tail = np.zeros(ov.shape[:-2] + (1 << q,)) + [int(S).bit_count() for S in sets]
    for (i, j), cls in classify_pairs(selection):
        if cls[0] == "path":
            path = sum(1 << e for e in cls[1])
            tail[..., (sets & path) == path] += ov[..., i, j, None]
    acc = np.empty_like(tail)
    acc[..., 0] = 1.0
    for S in range(1, 1 << q):  # every subset of S is visited before S
        acc[..., S] = sum(acc[..., S ^ (1 << e)] for e in range(q) if S >> e & 1) / tail[..., S]
    out = acc[..., -1]
    return float(out) if out.ndim == 0 else out


def verify_bkar_identity(matching, t) -> float:
    """|LHS - RHS| of the interpolation identity at a fixed time configuration.

    t lists the 2p times with t[2i] < t[2i+1]; intervals are closed, so
    endpoint touching counts as overlap.
    """
    p = _validate_matching(matching)
    t = np.asarray(t, dtype=float)
    if t.shape != (2 * p,):
        raise ValueError("need 2p times")
    starts, ends = t[0::2], t[1::2]
    if np.any(starts >= ends):
        raise ValueError("each interval needs t_{2i} < t_{2i+1}")
    overlap = [
        [
            (starts[i] <= ends[j]) and (starts[j] <= ends[i]) and i != j
            for j in range(p)
        ]
        for i in range(p)
    ]
    lhs = float(not any(overlap[i][j] for i in range(p) for j in range(i + 1, p)))

    rhs = 0.0
    for sel in enumerate_forest_selections(matching, connecting_only=False, p_max=p):
        term = (-1.0) ** len(sel.micro_edges)
        ok = True
        for (i, j), cls in classify_pairs(sel):
            if cls[0] == "forest" and not overlap[i][j]:
                ok = False  # the derivative factor demands overlap
            elif cls[0] == "block" and overlap[i][j]:
                ok = False  # full hardcore factor kills the term
            if not ok:
                break
        if not ok:
            continue
        rhs += term * forest_volume(sel, overlap)
    return abs(lhs - rhs)
