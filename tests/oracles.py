"""Second routes that only the tests use.

Each helper here decides a question by a method independent of the library's
own, so a test can compare the two.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from fivesplit import named_graphs as ng
from fivesplit.graph_core import (
    EdgeSubset,
    MultiGraph,
    _int_det,
    boundary,
    connected_components,
    contract_edge,
    delete_edge,
    edge_vertices,
    find_isomorphism,
    is_connected,
    is_k_connected,
    pieces,
    spanning_trees,
)
from fivesplit.kirchhoff import five_invariant
from fivesplit.matroid import RankOracle
from fivesplit.minors import (
    _MAX_CANON_ORDERINGS,
    _MAX_CANON_VERTICES,
    CatalogEntry,
    _edge_colors,
    _refined_cells,
    _simplified,
    canonical_form,
    canonical_graph_key,
    enhanced_children,
)
from fivesplit.poly import MultiPoly
from fivesplit.search import _canonical_rep, _IsoDedupe
from fivesplit.splitting import (
    EnhancedGraph,
    SplitVerdict,
    SplitWitness,
    _bad_side,
    _tables_of,
    from_enhanced,
    to_enhanced,
)


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


def enhanced_has_minor(eg: EnhancedGraph, target: EnhancedGraph) -> bool:
    """Is target reachable from eg by reduction steps (including zero steps)?"""
    t_key = canonical_form(target)
    t_m, t_n, t_w = target.graph.m, target.graph.n, target.weight
    seen: set[tuple] = set()
    stack = [eg]
    while stack:
        cur = stack.pop()
        if cur.graph.m < t_m or cur.graph.n < t_n or cur.weight < t_w:
            continue
        key = canonical_form(cur)
        if key in seen:
            continue
        seen.add(key)
        if key == t_key:
            return True
        for _, child in enhanced_children(cur):
            stack.append(child)
    return False


def is_proper(g: MultiGraph, subset: Iterable[int]) -> bool:
    """True when each side of the separation has a vertex the other side misses."""
    a = frozenset(subset)
    va = edge_vertices(g, a)
    vb = edge_vertices(g, g.edge_ids() - a)
    return bool(va - vb) and bool(vb - va)


def induced_subgraph(g: MultiGraph, vertex_subset: Iterable[int]) -> MultiGraph:
    vs = frozenset(vertex_subset)
    return MultiGraph(
        vs, {e: (a, b) for e, (a, b) in g.edges.items() if a in vs and b in vs}
    )


def automorphism_count_by_permutations(g: MultiGraph) -> int:
    """|Aut(g)|: the vertex permutations, all n! of them tried, that keep the
    multiplicity of every vertex pair and of every loop."""
    verts = sorted(g.vertices)
    multiplicity = Counter(g.edges.values())
    count = 0
    for image in itertools.permutations(verts):
        f = dict(zip(verts, image))
        mapped = Counter(
            (f[u], f[v]) if f[u] <= f[v] else (f[v], f[u]) for u, v in g.edges.values()
        )
        count += mapped == multiplicity
    return count


# `minors.family_label` before it used `find_isomorphism`: a lookup by
# canonical form, so the two label routes share no isomorphism code.
def family_label_by_canonical_keys(g: MultiGraph) -> str:
    """Name of the underlying-graph family, by canonical-form lookup.

    A canonical key fixes the vertex and edge counts, so only registry graphs
    of the same size are canonicalised.
    """
    key = canonical_graph_key(g)
    for name, build in ng.NAMED_GRAPHS.items():
        ref = build()
        if (ref.n, ref.m) == (g.n, g.m) and canonical_graph_key(ref) == key:
            return name
    return "?"


# `minors._least_encoding` before `minors._least_order` pruned it: every
# ordering of the refined cells is tried, and the first least one is kept.
def least_encoding_by_product(
    eg: EnhancedGraph, config: frozenset[int] | None
) -> tuple[tuple, dict[int, int], dict[int, int]]:
    """The least edge encoding, the vertex positions giving it, and the edge colours.

    Only vertex orderings compatible with the refined invariant cells are
    tried; the encoding is the sorted tuple of (u, v, colour) edge triples.
    """
    g = eg.graph
    if g.n > _MAX_CANON_VERTICES:
        raise ValueError(f"canonical forms support at most {_MAX_CANON_VERTICES} vertices")
    colors = _edge_colors(eg, config)
    cells = _refined_cells(g, colors)
    count = 1
    for cell in cells:
        for i in range(2, len(cell) + 1):
            count *= i
        if count > _MAX_CANON_ORDERINGS:
            raise ValueError("graph is too symmetric for the canonical search")
    best_enc: tuple | None = None
    best_pos: dict[int, int] | None = None
    for perm_parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        pos: dict[int, int] = {}
        i = 0
        for part in perm_parts:
            for v in part:
                pos[v] = i
                i += 1
        enc = tuple(
            sorted(
                (min(pos[u], pos[v]), max(pos[u], pos[v]), colors[e])
                for e, (u, v) in g.edges.items()
            )
        )
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_pos = pos
    if best_enc is None or best_pos is None:
        raise RuntimeError("canonical search tried no vertex ordering")
    return best_enc, best_pos, colors


# The tree-sum route that `kirchhoff.kirchhoff_poly` ran beside the
# determinant on every call before it kept the determinant alone.
def kirchhoff_by_trees(g: MultiGraph) -> MultiPoly:
    """The Kirchhoff polynomial as the sum, over spanning trees, of the
    monomial of the edges outside the tree."""
    out = MultiPoly.zero()
    all_edges = g.edge_ids()
    for t in spanning_trees(g):
        out = out + MultiPoly.monomial(all_edges - t)
    return out


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning trees by the matrix-tree theorem: the determinant of
    the Laplacian with one row and column struck; 0 exactly when G is
    disconnected."""
    if g.n <= 1:
        return 1
    if not is_connected(g):
        return 0
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for a, b in g.edges.values():
        if a == b:
            continue
        ia, ib = idx[a], idx[b]
        lap[ia][ia] += 1
        lap[ib][ib] += 1
        lap[ia][ib] -= 1
        lap[ib][ia] -= 1
    reduced = [row[: n - 1] for row in lap[: n - 1]]
    return _int_det(reduced)


def _spanning_forests(g: MultiGraph) -> Iterator[EdgeSubset]:
    """Bases of the graphic matroid: one spanning tree per component, unioned."""
    comps = connected_components(g)
    per_comp = [list(spanning_trees(induced_subgraph(g, c))) for c in comps]
    for choice in itertools.product(*per_comp):
        yield frozenset().union(*choice) if choice else frozenset()


def is_matroid_dual_pair(
    g: MultiGraph, h: MultiGraph, bijection: Mapping[int, int]
) -> bool:
    """True when the bijection maps complements of bases of M(G) onto bases of M(H).

    Brute force over spanning forests; intended for reference-sized graphs.
    """
    ge, he = g.edge_ids(), h.edge_ids()
    if set(bijection) != set(ge) or set(bijection.values()) != set(he):
        return False
    if len(ge) != len(he):
        return False
    g_bases = set(_spanning_forests(g))
    h_bases = set(_spanning_forests(h))
    mapped = {frozenset(bijection[e] for e in ge - t) for t in g_bases}
    return mapped == h_bases


# `degree_ordered_census` without its degree-order pruning: it grows every
# labelling of each class, so it checks that the pruning loses none.
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


# The brute-force census that the wheel generator of
# `search._three_connected_census` replaced: it scans edge subsets in
# lexicographic order, growing only labellings whose degrees do not increase
# with the label, and keeps each class the first time it meets one.
# `search._census_key` restates that order.
def degree_ordered_census(m: int) -> list[MultiGraph]:
    """Simple 3-connected graphs with exactly m edges, one per isomorphism class.

    Min degree 3 forces 2m >= 3n, so n <= 2m/3; subsets of vertex pairs are
    grown in lexicographic order.  Pruning: per-vertex degree cap, total
    deficiency vs edges left, and the prefix freeze (pairs are sorted, so once
    the scan passes a vertex's last pair its degree is final and must be >= 3).

    Only labellings whose degrees do not increase with the label are grown.
    Every graph has one (sort its vertices by degree, highest first), so every
    isomorphism class is still met; each kept class is relabelled canonically,
    so which member is met first does not show.  When the freeze passes vertex
    u its degree is final, so the branch stops if deg[u] > deg[u - 1]; and a
    pair (u, v) is skipped when deg[u] already equals deg[u - 1], because every
    vertex below u is frozen by then.  The leaf checks the whole order again.
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
                if min(deg) >= 3 and all(a >= b for a, b in zip(deg, deg[1:])):
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
                    if deg[frozen] < 3 or (frozen and deg[frozen] > deg[frozen - 1]):
                        return
                    frozen += 1
                if deg[u] >= cap or deg[v] >= cap or (u and deg[u] == deg[u - 1]):
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


def census_key_by_scan(g: MultiGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`search._census_key` by a plain scan: the least sorted edge list over
    every labelling 0..n-1 that gives the positions, in order, vertices of
    non-increasing degree."""
    verts = sorted(g.vertices, key=lambda v: -g.degree(v))
    classes = [list(grp) for _, grp in itertools.groupby(verts, key=g.degree)]
    best = None
    for perms in itertools.product(*map(itertools.permutations, classes)):
        pos = {v: i for i, v in enumerate(itertools.chain.from_iterable(perms))}
        edges = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges.values()))
        if best is None or edges < best:
            best = edges
    return g.n, best


@functools.lru_cache(maxsize=4096)
def _cut_pieces(g: MultiGraph) -> tuple[list, list]:
    """`graph_core.pieces` of every cut of order <= 1, then of order 2."""
    verts = sorted(g.vertices)
    cuts1 = [pieces(g, ())] + [pieces(g, (v,)) for v in verts]
    cuts2 = [pieces(g, x) for x in itertools.combinations(verts, 2)]
    return cuts1, cuts2


def bad_side_by_pieces(g: MultiGraph, s: frozenset[int]) -> frozenset[int] | None:
    """`splitting._side_mask` as a frozenset scan over the pieces of each cut.

    The same cut order, piece order and break rules as the library's bitmask
    kernel, over every cut (none is dropped in advance), with no memo of
    answers; only each graph's pieces are kept.
    """
    cuts1, cuts2 = _cut_pieces(g)
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


def bad_side_of(g: MultiGraph, s: frozenset[int]) -> frozenset[int] | None:
    """`splitting._bad_side` on the tables rooted at g itself, as a set of edge ids."""
    t = _tables_of(g)
    side = _bad_side(t, g, t.mask(s))
    return t.edges_of(side) if side else None


def _witness(
    op: str, e: int | None, child: MultiGraph, s_child: frozenset[int], side: frozenset[int]
) -> SplitWitness:
    other = child.edge_ids() - side
    return SplitWitness(
        operation=op,
        edge=e,
        side_a=side,
        side_b=other,
        boundary=boundary(child, side),
        config_in_a=len(side & s_child),
        config_in_b=len(other & s_child),
    )


def engine_by_pieces(
    g: MultiGraph,
    s: frozenset[int],
    c_prot: frozenset[int],
    d_prot: frozenset[int],
) -> SplitVerdict:
    """The splitting engine on frozensets, over `bad_side_by_pieces`: g itself,
    then g - e and g / e for each e of s ascending, unless protected."""
    side = bad_side_by_pieces(g, s)
    if side is not None:
        return SplitVerdict(True, _witness("none", None, g, s, side))
    for e in sorted(s):
        if e not in d_prot:
            child = delete_edge(g, e)
            s2 = s - {e}
            side = bad_side_by_pieces(child, s2)
            if side is not None:
                return SplitVerdict(True, _witness("delete", e, child, s2, side))
        if e not in c_prot and not g.is_loop(e):
            child = contract_edge(g, e)
            s2 = (s - {e}) & child.edge_ids()
            side = bad_side_by_pieces(child, s2)
            if side is not None:
                return SplitVerdict(True, _witness("contract", e, child, s2, side))
    return SplitVerdict(False, None)


def _config_minima(
    g: MultiGraph,
) -> dict[frozenset[int], tuple[frozenset[int], frozenset[int]]]:
    """For each configuration without a bad separation in g itself, the forced
    minimal protections (C_min, D_min)."""
    edges = sorted(g.edges)
    rows: dict[frozenset[int], tuple[frozenset[int], frozenset[int]]] = {}
    if len(edges) < 5:
        return rows
    deleted = {e: delete_edge(g, e) for e in edges}
    contracted = {e: contract_edge(g, e) for e in edges if not g.is_loop(e)}
    for combo in itertools.combinations(edges, 5):
        s = frozenset(combo)
        if bad_side_of(g, s) is not None:
            continue
        c_min: set[int] = set()
        d_min: set[int] = set()
        for e in combo:
            if bad_side_of(deleted[e], s - {e}) is not None:
                d_min.add(e)
            if e in contracted:
                child = contracted[e]
                if bad_side_of(child, (s - {e}) & child.edge_ids()) is not None:
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


def association_roundtrip_ok(g: MultiGraph, config: Iterable[int]) -> bool:
    """to_enhanced . from_enhanced . to_enhanced is stable; used by tests."""
    eg, s_t = to_enhanced(g, config)
    expanded, s_p = from_enhanced(eg, s_t)
    eg2, s_t2 = to_enhanced(expanded, s_p)
    return canonical_form(eg, s_t) == canonical_form(eg2, s_t2)


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


class FreeMatroid(RankOracle):
    """The free matroid: every subset is independent, r(S) = |S|."""

    def _rank(self, subset: frozenset[int]) -> int:
        return len(subset)


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


def leibniz_det(mat: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant as the signed sum over permutations; no elimination, no division."""
    n = len(mat)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        term = MultiPoly.const(-1 if inversions & 1 else 1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


def graph_width_by_popcount(g: MultiGraph) -> tuple[int, tuple[int, ...]]:
    """The width DP visiting subsets by increasing size, as `graph_width` once did.

    A subset's order is counted vertex by vertex: a vertex is on the boundary
    when its edges lie on both sides.
    """
    edge_list = sorted(g.edges)
    full = (1 << g.m) - 1
    vmasks = [
        sum(1 << i for i, e in enumerate(edge_list) if v in g.edges[e]) for v in g.vertices
    ]

    def order(mask: int) -> int:
        return sum(1 for vm in vmasks if vm & mask and vm & (full ^ mask))

    f = [0] * (full + 1)
    parent = [-1] * (full + 1)
    for mask in sorted(range(1, full + 1), key=lambda b: b.bit_count()):
        o = order(mask)
        best, best_i = None, -1
        for i in range(g.m):
            if mask >> i & 1:
                v = f[mask & ~(1 << i)] if mask & (mask - 1) else o
                if best is None or v < best:
                    best, best_i = v, i
        f[mask] = max(o, best)
        parent[mask] = best_i
    ordering: list[int] = []
    mask = full
    while mask:
        ordering.append(edge_list[parent[mask]])
        mask &= ~(1 << parent[mask])
    return f[full], tuple(reversed(ordering))


def divexact_by_leading_terms(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact p / d by rebuilding the remainder after each leading-term step.

    Quadratic in the size of p, as `poly.divexact` once was for many-term
    divisors; raises ArithmeticError on the same step with the same message.
    """
    dm, dc = d.leading()
    quotient: dict = {}
    r = p
    while not r.is_zero():
        rm, rc = r.leading()
        if rc % dc:
            raise ArithmeticError("inexact polynomial division (coefficient)")
        exps = dict(rm)
        for v, e in dm:
            if exps.get(v, 0) < e:
                raise ArithmeticError("inexact polynomial division (monomial)")
            exps[v] -= e
        qm = tuple(sorted((v, e) for v, e in exps.items() if e))
        quotient[qm] = quotient.get(qm, 0) + rc // dc
        r = r - MultiPoly({qm: rc // dc}) * d
    return MultiPoly(quotient)


# -- dual partners by matroid-dual bijections --------------------------------


class _TreeCounts(NamedTuple):
    """A graph's spanning trees and how often edges and edge pairs lie in them."""

    trees: frozenset[frozenset[int]]
    per_edge: dict[int, int]
    pairs: dict[tuple[int, int], int]


def _tree_counts(g: MultiGraph) -> _TreeCounts:
    trees = frozenset(spanning_trees(g))
    edges = sorted(g.edges)
    per_edge = {e: 0 for e in edges}
    pairs = {(e, f): 0 for e in edges for f in edges}
    for t in trees:
        ts = sorted(t)
        for e in ts:
            per_edge[e] += 1
            for f in ts:
                pairs[(e, f)] += 1
    return _TreeCounts(trees, per_edge, pairs)


def find_dual_bijection(
    g: MultiGraph,
    h: MultiGraph,
    tags_g: Mapping[int, object],
    tags_h: Mapping[int, object],
) -> dict[int, int] | None:
    """Edge bijection mapping tree complements of g onto trees of h, or None.

    Tags must correspond under the bijection (callers encode the
    protection swap there).  Candidates are pruned by tree-count invariants:
    an edge in a(e) trees of g must map to an edge in N - a(e) trees of h, and
    pair counts transform as q(f, f') = N - b(f) - b(f') + both(f, f').
    """
    return _dual_bijection(g, _tree_counts(g), h, _tree_counts(h), tags_g, tags_h)


def _dual_bijection(
    g: MultiGraph,
    counts_g: _TreeCounts,
    h: MultiGraph,
    counts_h: _TreeCounts,
    tags_g: Mapping[int, object],
    tags_h: Mapping[int, object],
) -> dict[int, int] | None:
    """`find_dual_bijection` with each graph's tree counts given."""
    trees_g, trees_h = counts_g.trees, counts_h.trees
    n_trees = len(trees_g)
    if n_trees == 0 or len(trees_h) != n_trees or g.m != h.m:
        return None
    ge, he = sorted(g.edges), sorted(h.edges)
    a, pg = counts_g.per_edge, counts_g.pairs
    b, ph = counts_h.per_edge, counts_h.pairs
    qh = {
        (e, f): n_trees - b[e] - b[f] + ph[(e, f)]
        for e in he
        for f in he
        if e != f
    }
    for e in he:
        qh[(e, e)] = n_trees - b[e]
    key_g: dict[int, object] = {e: (a[e], tags_g.get(e)) for e in ge}
    key_h: dict[int, object] = {f: (n_trees - b[f], tags_h.get(f)) for f in he}
    for _ in range(2):
        nxt_g = {
            e: (key_g[e], tuple(sorted((repr(key_g[f]), pg[(e, f)]) for f in ge if f != e)))
            for e in ge
        }
        nxt_h = {
            f: (key_h[f], tuple(sorted((repr(key_h[f2]), qh[(f, f2)]) for f2 in he if f2 != f)))
            for f in he
        }
        names = {
            val: i
            for i, val in enumerate(
                sorted({repr(x) for x in nxt_g.values()} | {repr(x) for x in nxt_h.values()})
            )
        }
        key_g = {e: names[repr(nxt_g[e])] for e in ge}
        key_h = {f: names[repr(nxt_h[f])] for f in he}
    if sorted(key_g.values()) != sorted(key_h.values()):
        return None
    class_size = {k: sum(1 for e in ge if key_g[e] == k) for k in set(key_g.values())}
    order = sorted(ge, key=lambda e: (class_size[key_g[e]], e))
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def full_check() -> bool:
        all_g = g.edge_ids()
        for t in trees_g:
            image = frozenset(assigned[e] for e in all_g - t)
            if image not in trees_h:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return full_check()
        e = order[i]
        for f in he:
            if f in used or key_h[f] != key_g[e]:
                continue
            if any(qh[(f, assigned[e2])] != pg[(e, e2)] for e2 in assigned):
                continue
            assigned[e] = f
            used.add(f)
            if extend(i + 1):
                return True
            del assigned[e]
            used.discard(f)
        return False

    return dict(assigned) if extend(0) else None


def dual_partners_by_tree_bijection(entries: list[CatalogEntry]) -> list[int | None]:
    """Each entry's dual partner index, or None, by tree counts and a bijection search.

    Entries are paired greedily in order: entry i takes the first unpaired
    entry j >= i with its edge count and weight that `_dual_bijection`
    matches with C and D swapped.
    """
    partner: list[int | None] = [None] * len(entries)
    # each entry's tree counts, computed when first compared; entry i is
    # compared only with entries from i on, so it is dropped after its turn
    counts: dict[int, _TreeCounts] = {}
    for i, ei in enumerate(entries):
        counts.pop(i - 1, None)
        if partner[i] is not None:
            continue
        tags_i = {
            e: (e in ei.enhanced.contract_protected, e in ei.enhanced.delete_protected)
            for e in ei.enhanced.graph.edges
        }
        for j in range(i, len(entries)):
            if partner[j] is not None and j != i:
                continue
            ej = entries[j]
            if ej.enhanced.graph.m != ei.enhanced.graph.m or ej.weight != ei.weight:
                continue
            tags_j = {
                f: (f in ej.enhanced.delete_protected, f in ej.enhanced.contract_protected)
                for f in ej.enhanced.graph.edges
            }
            for k in (i, j):
                if k not in counts:
                    counts[k] = _tree_counts(entries[k].enhanced.graph)
            if _dual_bijection(
                ei.enhanced.graph, counts[i], ej.enhanced.graph, counts[j], tags_i, tags_j
            ):
                partner[i] = j
                partner[j] = i
                break
    return partner
