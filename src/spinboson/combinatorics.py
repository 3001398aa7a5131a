"""Perfect matchings, block partitions, forest selections, cycle openings.

Conventions: the 2p interaction times carry indices 0..2p-1; base pair i is
{2i, 2i+1}, and the base matching pairs consecutive indices.  Superimposing
the base matching with another perfect matching P decomposes the index set
into even cycles; the cycle supports induce a partition of the base pairs
into blocks, which are exactly the connected components of the contracted
multigraph of P's cross edges.

A forest selection F is a set of "micro" edges between base pairs lying in
distinct blocks, with at most one edge per unordered block pair, such that
the induced simple graph on the blocks is a forest.  F sorts every other
pair of base pairs into a block pair, a path pair (its blocks linked through
the induced forest) or a free pair.  Selections index the terms of the BKAR
(Brydges-Kennedy-Abdesselam-Rivasseau) interpolation identity for the
hardcore product over intervals t_A = [t_{2i}, t_{2i+1}]:

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

The order cap is checked once, where a caller's p enters: at the top of
every function that runs an enumeration to completion (cluster_terms under
the caller's cap, verify_bkar_identity and the tree censuses of verify up to
HARD_P_MAX, and brute_force_coefficient).  The lazy enumerators
enumerate_matchings and enumerate_forest_selections check nothing.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import ResourceError, StructureError

__all__ = [
    "DEFAULT_P_MAX",
    "HARD_P_MAX",
    "base_matching",
    "enumerate_matchings",
    "matching_count",
    "BlockPartition",
    "partition_join",
    "ForestSelection",
    "enumerate_forest_selections",
    "OpenedStructure",
    "open_cycles",
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
        warnings.warn(f"order p={p}: enumeration sizes grow factorially", UserWarning)


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


def enumerate_matchings(p: int) -> Iterator[tuple]:
    """All perfect matchings of 0..2p-1, each exactly once, canonical order."""

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


@dataclass(frozen=True)
class BlockPartition:
    """Cycle supports of the superposition, as sets of base pairs."""

    pair_blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]  # base pair index -> block index


def _validate_matching(matching) -> int:
    points = sorted(x for e in matching for x in e)
    if points != list(range(len(points))) or len(points) != 2 * len(matching):
        raise ValueError("not a perfect matching of 0..2p-1")
    return len(matching)


def partition_join(matching) -> BlockPartition:
    """Connected components of the superposition of P with the base matching.

    Each component is one cycle, walked from its lowest base pair: from a
    point x to its base partner x ^ 1, then to that point's partner in P."""
    p = _validate_matching(matching)
    partner = {}
    for a, b in matching:
        partner[a], partner[b] = b, a
    block_of: list = [None] * p
    pair_blocks = []
    for i in range(p):
        if block_of[i] is None:
            cycle, x = [], 2 * i
            while block_of[x // 2] is None:
                block_of[x // 2] = len(pair_blocks)
                cycle.append(x // 2)
                x = partner[x ^ 1]
            pair_blocks.append(tuple(sorted(cycle)))
    return BlockPartition(tuple(pair_blocks), tuple(block_of))


@dataclass(frozen=True)
class ForestSelection:
    """One micro-edge forest: edges between base pairs, induced forest on blocks.

    Its block and path pairs are worked out together on first use, so
    enumerating selections stays cheap; the pairs in neither are free."""

    micro_edges: tuple[tuple[int, int], ...]  # pairs of base-pair indices, sorted
    hat_edges: tuple[tuple[int, int], ...]  # induced block pairs, aligned with micro_edges
    blocks: BlockPartition

    def hat_path(self, x: int, y: int) -> Optional[tuple[int, ...]]:
        """Edge indices of the unique induced-forest path from block x to y, if any."""
        paths = {x: ()}
        queue = [x]
        for cur in queue:  # breadth-first over the blocks reached so far
            for idx, (a, b) in enumerate(self.hat_edges):
                nbr = b if a == cur else a if b == cur else None
                if nbr is not None and nbr not in paths:
                    paths[nbr] = paths[cur] + (idx,)
                    queue.append(nbr)
        return paths.get(y)

    @cached_property
    def block_pairs(self) -> list[tuple[int, int]]:
        """Pairs inside one block; fills path_pairs, the ((i, j), hat-edge
        indices) of the forest-linked pairs, in the same lexicographic order."""
        block_of, micro = self.blocks.block_of, set(self.micro_edges)
        block, path = [], []
        for i, j in itertools.combinations(range(len(block_of)), 2):
            if (i, j) in micro:
                continue
            if block_of[i] == block_of[j]:
                block.append((i, j))
            elif (edges := self.hat_path(block_of[i], block_of[j])) is not None:
                path.append(((i, j), edges))
        self.__dict__["path_pairs"] = path
        return block

    @cached_property
    def path_pairs(self) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
        """((i, j), hat-edge indices) of the pairs linked through the forest."""
        _ = self.block_pairs
        return self.__dict__["path_pairs"]


def _forests_on_blocks(k: int, spanning: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Acyclic edge subsets of the complete graph on k blocks (trees if spanning)."""
    edges = [(x, y) for x in range(k) for y in range(x + 1, k)]

    def rec(idx, chosen, comp):  # comp: component label of each block
        if idx == len(edges):
            if not spanning or len(chosen) == k - 1:
                yield tuple(chosen)
            return
        # prune: not enough edges left to finish a spanning tree
        if spanning and len(chosen) + (len(edges) - idx) < k - 1:
            return
        yield from rec(idx + 1, chosen, comp)
        x, y = edges[idx]
        cx, cy = comp[x], comp[y]
        if cx != cy:
            chosen.append(edges[idx])
            yield from rec(idx + 1, chosen, tuple(cx if c == cy else c for c in comp))
            chosen.pop()

    yield from rec(0, [], tuple(range(k)))


def enumerate_forest_selections(
    matching, connecting_only: bool = False
) -> Iterator[ForestSelection]:
    """All valid forest selections for P (only spanning-tree ones if connecting)."""
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


@dataclass(frozen=True)
class OpenedStructure:
    """Cycle opening of (P, F): the spanning tree walked by the integrator."""

    deleted_edges: tuple[tuple[int, int], ...]  # one P-edge per cycle
    steps: tuple[tuple, ...]  # (child, parent, kind, child_point, parent_point)


def open_cycles(matching, selection: ForestSelection, root_pair: int = 0) -> OpenedStructure:
    """Delete one P-edge per superposition cycle (the one with the smallest
    endpoint) and assemble the spanning tree from the opened contracted edges
    plus the selected forest, rooted at root_pair.  Breadth-first from the
    root, the p - 1 edges must reach all p base pairs: then they are a tree."""
    p = _validate_matching(matching)
    if not 0 <= root_pair < p:
        raise ValueError(f"root pair {root_pair} outside 0..{p - 1}")
    block_of = selection.blocks.block_of
    if any(block_of[a // 2] != block_of[b // 2] for a, b in matching):
        raise StructureError("a P-edge leaves its block: the selection is not on this matching")
    deleted = [min((e for e in matching if block_of[e[0] // 2] == b), key=sorted)
               for b in range(len(selection.blocks.pair_blocks))]
    opened = [e for e in matching if e not in deleted]
    if len(opened) + len(selection.micro_edges) != p - 1:
        raise StructureError("selection is not connecting: no spanning tree")

    adj: list[list[tuple]] = [[] for _ in range(p)]  # (neighbour, kind, its point, ours)
    for a, b in opened:
        adj[a // 2].append((b // 2, "h", b, a))
        adj[b // 2].append((a // 2, "h", a, b))
    for i, j in selection.micro_edges:
        adj[i].append((j, "overlap", None, None))
        adj[j].append((i, "overlap", None, None))
    order, steps = [root_pair], []
    for cur in order:  # breadth first, each pair's neighbours in increasing order
        for nbr, kind, child_pt, parent_pt in sorted(adj[cur], key=lambda e: e[0]):
            if nbr not in order:
                order.append(nbr)
                steps.append((nbr, cur, kind, child_pt, parent_pt))
    if len(order) != p:
        raise StructureError("opened edges plus selection do not form a tree")
    return OpenedStructure(tuple(deleted), tuple(steps))


def forest_volume(selection: ForestSelection, code):
    """Integral over v in [0,1]^F of the interpolated hardcore product,

        prod_{{A,B} path-linked, overlapping} (1 - min_{l in path} v_l),

    given the overlap-pattern code of the path pairs: bit k is set when the
    intervals of selection.path_pairs[k] overlap.  An integer gives a float,
    an integer array of codes an owned array of the same shape.

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
    codes = np.asarray(code)[..., None]
    q = len(selection.micro_edges)
    sets = np.arange(1 << q)
    tail = np.zeros(codes.shape[:-1] + (1 << q,)) + [int(S).bit_count() for S in sets]
    for k, (_, edges) in enumerate(selection.path_pairs):
        path = sum(1 << e for e in edges)
        tail[..., (sets & path) == path] += (codes >> k) & 1
    acc = np.empty_like(tail)
    acc[..., 0] = 1.0
    for S in range(1, 1 << q):  # every subset of S is visited before S
        acc[..., S] = sum(acc[..., S ^ (1 << e)] for e in range(q) if S >> e & 1) / tail[..., S]
    out = acc[..., -1]
    return float(out) if out.ndim == 0 else out.copy()  # a view would keep all of acc


def verify_bkar_identity(matching, t) -> float:
    """|LHS - RHS| of the interpolation identity at a fixed time configuration.

    t lists the 2p times with t[2i] < t[2i+1]; intervals are closed, so
    endpoint touching counts as overlap.  Orders up to HARD_P_MAX.
    """
    p = _validate_matching(matching)
    check_order(p, HARD_P_MAX)
    t = np.asarray(t, dtype=float)
    if t.shape != (2 * p,):
        raise ValueError("need 2p times")
    starts, ends = t[0::2], t[1::2]
    if np.any(starts >= ends):
        raise ValueError("each interval needs t_{2i} < t_{2i+1}")
    overlap = (starts[:, None] <= ends) & (starts <= ends[:, None])
    np.fill_diagonal(overlap, False)
    lhs = float(not overlap.any())

    rhs = 0.0
    for sel in enumerate_forest_selections(matching, connecting_only=False):
        # each selected pair must overlap (derivative factor), no same-block pair may
        if all(overlap[e] for e in sel.micro_edges) and not any(
                overlap[e] for e in sel.block_pairs):
            code = sum(int(overlap[e]) << k for k, (e, _) in enumerate(sel.path_pairs))
            rhs += (-1.0) ** len(sel.micro_edges) * forest_volume(sel, code)
    return abs(lhs - rhs)
