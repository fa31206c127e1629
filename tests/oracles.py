"""Second routes that only the tests use.

Each helper here decides a question by a method independent of the library's
own, so a test can compare the two.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from fivesplit.graph_core import (
    MultiGraph,
    contract_edge,
    delete_edge,
    find_isomorphism,
    is_k_connected,
    pieces,
)
from fivesplit.kirchhoff import five_invariant
from fivesplit.matroid import RankOracle
from fivesplit.minors import _simplified, canonical_form, enhanced_children
from fivesplit.search import _canonical_rep, _IsoDedupe
from fivesplit.splitting import EnhancedGraph, _bad_side, _derived


def _has_minor_recursive(host: MultiGraph, pattern: MultiGraph, _seen=None) -> bool:
    """Independent route by deletion/contraction recursion (simple patterns only)."""
    if _seen is None:
        _seen = set()
    h = _simplified(host)
    if h.m < pattern.m or h.n < pattern.n:
        return False
    if h.m == pattern.m:
        return h.n == pattern.n and find_isomorphism(h, pattern) is not None
    key = canonical_form(EnhancedGraph(h))
    if key in _seen:
        return False
    for e in sorted(h.edges):
        if _has_minor_recursive(delete_edge(h, e), pattern, _seen):
            return True
        if _has_minor_recursive(contract_edge(h, e), pattern, _seen):
            return True
    _seen.add(key)
    return False


# `search._three_connected_census` without its degree-order pruning: it grows
# every labelling of each class, so it checks that the pruning loses none.
def _three_connected_census(m: int) -> list[MultiGraph]:
    """Simple 3-connected graphs with exactly m edges, one per isomorphism class.

    Min degree 3 forces 2m >= 3n, so n <= 2m/3; subsets of vertex pairs are
    grown in lexicographic order.  Pruning: per-vertex degree cap, total
    deficiency vs edges left, and the prefix freeze (pairs are sorted, so once
    the scan passes a vertex's last pair its degree is final and must be >= 3).
    """
    out: list[MultiGraph] = []
    dedupe = _IsoDedupe()
    for n in range(4, 2 * m // 3 + 1):
        pairs = list(itertools.combinations(range(n), 2))
        total = len(pairs)
        if m > total:
            continue
        cap = 3 + max(0, 2 * m - 3 * n)
        deg = [0] * n
        chosen: list[tuple[int, int]] = []

        def rec(start: int) -> None:
            k = len(chosen)
            if k == m:
                if min(deg) >= 3:
                    g = MultiGraph(range(n), {i + 1: p for i, p in enumerate(chosen)})
                    if is_k_connected(g, 3) and dedupe.add(g):
                        out.append(_canonical_rep(g))
                return
            if total - start < m - k:
                return
            if sum(3 - d for d in deg if d < 3) > 2 * (m - k):
                return
            frozen = 0
            for i in range(start, total):
                u, v = pairs[i]
                while frozen < u:
                    if deg[frozen] < 3:
                        return
                    frozen += 1
                if deg[u] >= cap or deg[v] >= cap:
                    continue
                deg[u] += 1
                deg[v] += 1
                chosen.append(pairs[i])
                rec(i + 1)
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1

        rec(0)
    return out


def bad_side_by_pieces(g: MultiGraph, s: frozenset[int]) -> frozenset[int] | None:
    """`splitting._bad_side` as a frozenset scan over the pieces of each cut.

    The same cut order, piece order and break rules as the library's bitmask
    kernel, with the pieces recomputed on every call and no memo.
    """
    verts = sorted(g.vertices)
    cuts1 = [pieces(g, ())] + [pieces(g, (v,)) for v in verts]
    cuts2 = [pieces(g, x) for x in itertools.combinations(verts, 2)]
    side: frozenset[int] | None = None
    t = len(s)
    if t >= 2:
        for ps in cuts1:
            hit = [p for p in ps if p & s]
            if len(hit) >= 2:
                side = hit[0]
                break
    if side is None and t >= 4:
        for ps in cuts2:
            pair: list[frozenset[int]] = []
            for p in ps:
                c = len(p & s)
                if c == 2:
                    side = p
                    break
                if c == 1:
                    pair.append(p)
                    if len(pair) == 2:
                        side = pair[0] | pair[1]
                        break
            if side is not None:
                break
    return side


def _config_minima(
    g: MultiGraph,
) -> dict[frozenset[int], tuple[frozenset[int], frozenset[int]]]:
    """For each configuration without a bad separation in g itself, the forced
    minimal protections (C_min, D_min)."""
    edges = sorted(g.edges)
    rows: dict[frozenset[int], tuple[frozenset[int], frozenset[int]]] = {}
    if len(edges) < 5:
        return rows
    for combo in itertools.combinations(edges, 5):
        s = frozenset(combo)
        if _bad_side(g, s) is not None:
            continue
        c_min: set[int] = set()
        d_min: set[int] = set()
        for e in combo:
            if _bad_side(_derived(g, "delete", e), s - {e}) is not None:
                d_min.add(e)
            if not g.is_loop(e):
                child = _derived(g, "contract", e)
                if _bad_side(child, (s - {e}) & child.edge_ids()) is not None:
                    c_min.add(e)
        rows[s] = (frozenset(c_min), frozenset(d_min))
    return rows


def host_entries_by_frozensets(
    g: MultiGraph, include_plain: bool
) -> list[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """`search._host_entries` over the frozenset tables of `_config_minima`:
    a candidate is kept when no one-step reduction has a row that fits."""
    tables = {g.key(): _config_minima(g)}

    def fits(child: EnhancedGraph) -> bool:
        k = child.graph.key()
        if k not in tables:
            tables[k] = _config_minima(child.graph)
        return any(
            c2 <= child.contract_protected and d2 <= child.delete_protected
            for c2, d2 in tables[k].values()
        )

    by_cd: dict[tuple[frozenset[int], frozenset[int]], frozenset[int]] = {}
    for s, cd in tables[g.key()].items():
        by_cd.setdefault(cd, s)
    return [
        (c, d, s)
        for (c, d), s in by_cd.items()
        if (include_plain or c or d)
        and not any(fits(child) for _, child in enhanced_children(EnhancedGraph(g, c, d)))
    ]


def five_invariant_all_orderings_agree(
    g: MultiGraph, config: Sequence[int], samples: int = 6
) -> bool:
    """Spot check helper: the 5-invariant over a few orderings, up to sign."""
    es = sorted(set(config))
    base = five_invariant(g, es)
    for perm in itertools.islice(itertools.permutations(es), 1, samples):
        if not five_invariant(g, list(perm)).equal_up_to_sign(base):
            return False
    return True


def rank_axioms_hold(m: RankOracle, samples: int = 1000, seed: int = 0) -> bool:
    """Spot check: 0 <= r <= |S|, monotone, submodular on random subset pairs."""
    import random

    rng = random.Random(seed)
    ground = sorted(m.ground)
    for _ in range(samples):
        a = frozenset(e for e in ground if rng.random() < 0.5)
        b = frozenset(e for e in ground if rng.random() < 0.5)
        ra, rb = m.rank(a), m.rank(b)
        if not (0 <= ra <= len(a) and 0 <= rb <= len(b)):
            return False
        if a <= b and ra > rb:
            return False
        if m.rank(a | b) + m.rank(a & b) > ra + rb:
            return False
    return True
