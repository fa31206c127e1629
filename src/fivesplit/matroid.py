"""Rank oracles, matroid intersection, and caterpillar separation width.

A matroid is given by its ground set and a rank function.  The separation
order of a subset A is r(A) + r(E - A) - r(E) + 1.  The caterpillar width of
a matroid is the smallest k such that some linear ordering of the ground set
keeps every proper prefix at separation order <= k; because singleton orders
do not depend on the ordering, it decomposes as

    max( max_e ord({e}),  min over orderings of the max prefix order )

and the second part satisfies a subset recursion solved by dynamic
programming over subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph_core import MultiGraph


class RankOracle:
    """Base: subclasses provide ground and _rank(frozenset) -> int; calls are memoised."""

    ground: frozenset[int]

    def __init__(self, ground: Iterable[int]):
        self.ground = frozenset(ground)
        self._memo: dict[frozenset[int], int] = {}

    def rank(self, subset: Iterable[int]) -> int:
        s = frozenset(subset)
        if not s <= self.ground:
            raise ValueError("subset leaves the ground set")
        if s not in self._memo:
            self._memo[s] = self._rank(s)
        return self._memo[s]

    def _rank(self, subset: frozenset[int]) -> int:
        raise NotImplementedError

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.rank(s) == len(s)

    def full_rank(self) -> int:
        return self.rank(self.ground)


class GraphicMatroid(RankOracle):
    """Cycle matroid of a multigraph: r(S) = |V| - #components of (V, S)."""

    def __init__(self, g: MultiGraph):
        super().__init__(g.edge_ids())
        self._g = g

    def _rank(self, subset: frozenset[int]) -> int:
        parent = {v: v for v in self._g.vertices}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = len(parent)
        for e in subset:
            u, v = self._g.endpoints(e)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return len(parent) - comps


class MinorOracle(RankOracle):
    """Minor M/contracted - deleted of a base oracle."""

    def __init__(self, base: RankOracle, contracted: Iterable[int], deleted: Iterable[int]):
        c = frozenset(contracted)
        d = frozenset(deleted)
        if c & d:
            raise ValueError("contracted and deleted sets overlap")
        super().__init__(base.ground - c - d)
        self._base = base
        self._c = c
        self._base_c_rank = base.rank(c)

    def _rank(self, subset: frozenset[int]) -> int:
        return self._base.rank(subset | self._c) - self._base_c_rank


def matroid_sep_order(m: RankOracle, subset: Iterable[int]) -> int:
    """Connectivity-style order of the partition (A, E - A)."""
    a = frozenset(subset)
    return m.rank(a) + m.rank(m.ground - a) - m.full_rank() + 1


@dataclass(frozen=True)
class IntersectionOutcome:
    found: bool
    common_set: frozenset[int] | None
    certificate: tuple[frozenset[int], frozenset[int]] | None


def matroid_intersection(m1: RankOracle, m2: RankOracle, k: int) -> IntersectionOutcome:
    """Common independent set of size k, or a rank certificate that none exists.

    Shortest augmenting paths in the exchange digraph.  On failure with
    |X| < k the set R of elements reachable from the M1-sources yields the
    partition (E - R, R) with r1(E - R) + r2(R) = |X| < k, which is verified
    before returning.
    """
    if m1.ground != m2.ground:
        raise ValueError("matroid intersection needs a common ground set")
    ground = sorted(m1.ground)
    x: set[int] = set()
    if k < 0:
        raise ValueError("negative target size")
    while len(x) < k:
        sources = [y for y in ground if y not in x and m1.is_independent(x | {y})]
        sinks = {y for y in ground if y not in x and m2.is_independent(x | {y})}
        prev: dict[int, int | None] = {y: None for y in sources}
        queue = list(sources)
        goal = None
        for y in queue:
            if y in sinks:
                goal = y
                break
        while queue and goal is None:
            a = queue.pop(0)
            if a in x:
                nexts = [
                    y
                    for y in ground
                    if y not in x and y not in prev and m1.is_independent(x - {a} | {y})
                ]
            else:
                nexts = [
                    b
                    for b in sorted(x)
                    if b not in prev and m2.is_independent(x - {b} | {a})
                ]
            for y in nexts:
                prev[y] = a
                if y not in x and y in sinks:
                    goal = y
                    break
                queue.append(y)
        if goal is None:
            reachable = frozenset(prev)
            rest = m1.ground - reachable
            r1, r2 = m1.rank(rest), m2.rank(reachable)
            if not (r1 == len(x - reachable) and r2 == len(x & reachable) and r1 + r2 < k):
                raise RuntimeError("matroid intersection: the rank certificate does not hold")
            return IntersectionOutcome(False, None, (rest, reachable))
        node: int | None = goal
        while node is not None:
            if node in x:
                x.discard(node)
            else:
                x.add(node)
            node = prev[node]
        if not (m1.is_independent(x) and m2.is_independent(x)):
            raise RuntimeError("matroid intersection: augmentation left a dependent set")
    out = frozenset(x)
    if not (len(out) == k and m1.is_independent(out) and m2.is_independent(out)):
        raise RuntimeError("matroid intersection: the result is not a common independent set")
    return IntersectionOutcome(True, out, None)


def common_completion_exists(
    base: RankOracle, s1: Iterable[int], s2: Iterable[int], size: int
) -> bool:
    """Is there X outside S1 + S2 with X + S1 and X + S2 both independent of the given size?

    Reduces to a common independent set of size ``size - |S1|`` in the minors
    M/S1 - (S2 - S1) and M/S2 - (S1 - S2).  S1 and S2 may overlap; their
    common part is forced into both sets.
    """
    a = frozenset(s1)
    b = frozenset(s2)
    k = size - len(a)
    if len(a) != len(b) or k < 0:
        return False
    if not base.is_independent(a) or not base.is_independent(b):
        return False
    m1 = MinorOracle(base, a, b - a)
    m2 = MinorOracle(base, b, a - b)
    if m1.full_rank() < k or m2.full_rank() < k:
        return False
    return matroid_intersection(m1, m2, k).found


def common_tree_exists(
    g: MultiGraph, s1: Iterable[int], s2: Iterable[int]
) -> bool:
    """Is there T disjoint from S1 and S2 with both T + S1 and T + S2 spanning trees?

    A common completion of S1 and S2 to n - 1 independent edges of the cycle
    matroid.  Requires |S1| = |S2| and disjointness.
    """
    a = frozenset(s1)
    b = frozenset(s2)
    if a & b:
        raise ValueError("the two forced sets must be disjoint")
    base = GraphicMatroid(g)
    if not (a <= base.ground and b <= base.ground):
        raise ValueError("forced sets must be edges of the graph")
    return common_completion_exists(base, a, b, g.n - 1)


def caterpillar_width(m: RankOracle) -> int:
    """Smallest achievable maximum prefix separation order over all orderings."""
    ground = sorted(m.ground)
    n = len(ground)
    if n < 2:
        raise ValueError("caterpillar width needs at least two elements")

    def order_of(mask: int) -> int:
        return matroid_sep_order(m, (ground[i] for i in range(n) if mask >> i & 1))

    singleton_best = max(order_of(1 << i) for i in range(n))
    # g(A) = max(ord(A), min over e in A of g(A - e)), over proper nonempty A
    g_val: dict[int, int] = {}
    for mask in sorted(range(1, 1 << n), key=lambda b: bin(b).count("1")):
        if mask == (1 << n) - 1:
            continue
        o = order_of(mask)
        if mask & (mask - 1) == 0:
            g_val[mask] = o
            continue
        best = min(g_val[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        g_val[mask] = max(o, best)
    prefix_best = min(
        g_val[((1 << n) - 1) & ~(1 << i)] for i in range(n)
    )
    return max(singleton_best, prefix_best)
