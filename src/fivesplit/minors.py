"""Minor containment, canonical forms, enhanced minor order, and the catalog.

Plain minors use the branch-set model: H is a minor of G when G carries
pairwise disjoint connected vertex sets, one per vertex of H, with at least as
many edges between two sets as H has between the corresponding vertices.

Enhanced graphs are ordered by six reduction operations: vertex deletion,
deletion of a non-delete-protected edge, contraction of a non-contract-
protected non-loop edge, removal of a protection mark, collapsing a parallel
pair onto a delete-protected survivor, and collapsing a degree-2 vertex onto a
contract-protected survivor.  All of them are weight non-increasing, where the
weight is the edge count plus the protection count.

Canonical forms label vertices by refined invariant cells and take the
lexicographically least edge encoding over the per-cell permutations, found
by a pruned search (`_least_order`); the encoding colours each edge by its
protection state (and optionally by configuration membership), so
isomorphism of enhanced graphs is exactly equality of canonical forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple

from . import named_graphs as ng
from .graph_core import (
    MultiGraph,
    _IsoSide,
    _check_vertex_count,
    _component_mask,
    blocks,
    contract_edge,
    delete_edge,
    delete_vertex,
    edge_vertices,
    find_isomorphism,
    spanning_trees,
)
from .splitting import EnhancedGraph

_MAX_CANON_VERTICES = 12
_MAX_CANON_ORDERINGS = 2_000_000
_MAX_MINOR_HOST_VERTICES = 16


@dataclass(frozen=True)
class MinorPattern:
    name: str
    graph: MultiGraph

    def __post_init__(self) -> None:
        if any(u == v for u, v in self.graph.edges.values()):
            raise ValueError("minor patterns must be loopless")


def _connected_vertex_masks(adj: list[int]) -> list[tuple[int, int]]:
    """Every connected vertex set of a bitmask adjacency, with its neighbours.

    Each set comes as (mask, neighbour mask outside the set), ordered by size
    and then by mask.
    """
    out = []
    for mask in range(1, 1 << len(adj)):
        if _component_mask(adj, mask) != mask:
            continue
        reach = 0
        rest = mask
        while rest:
            bit = rest & -rest
            reach |= adj[bit.bit_length() - 1]
            rest ^= bit
        out.append((mask, reach & ~mask))
    out.sort(key=lambda mr: (mr[0].bit_count(), mr[0]))
    return out


def _check_host_size(host: MultiGraph) -> None:
    if host.n > _MAX_MINOR_HOST_VERTICES:
        raise ValueError(
            f"minor search supports hosts with at most {_MAX_MINOR_HOST_VERTICES} vertices"
        )


def _minor_search(host: MultiGraph, pattern: MultiGraph) -> bool:
    if pattern.n == 0:
        return True
    _check_host_size(host)
    if pattern.m > host.m or pattern.n > host.n:
        return False
    hverts = sorted(host.vertices)
    hidx = {v: i for i, v in enumerate(hverts)}
    # per host vertex: a neighbour bitmask and a row of edge multiplicities
    nbr = [0] * len(hverts)
    mult = [[0] * len(hverts) for _ in hverts]
    for u, v in host.edges.values():
        if u != v:
            iu, iv = hidx[u], hidx[v]
            nbr[iu] |= 1 << iv
            nbr[iv] |= 1 << iu
            mult[iu][iv] += 1
            mult[iv][iu] += 1

    pmult: dict[tuple[int, int], int] = {}
    for u, v in pattern.edges.values():
        key = (u, v) if u <= v else (v, u)
        pmult[key] = pmult.get(key, 0) + 1
    pdeg: dict[int, int] = {v: 0 for v in pattern.vertices}
    for (u, v), c in pmult.items():
        pdeg[u] += c
        pdeg[v] += c
    order: list[int] = []
    remaining = set(pattern.vertices)
    while remaining:
        attached = [
            v for v in remaining if any((min(v, w), max(v, w)) in pmult for w in order)
        ]
        pool = attached or list(remaining)
        v = max(pool, key=lambda x: (pdeg[x], -x))
        order.append(v)
        remaining.discard(v)

    conn = _connected_vertex_masks(nbr)
    # needs[i]: (j, edges required between branch sets j and i) for j < i
    needs = [
        [
            (j, k)
            for j in range(i)
            if (k := pmult.get((min(order[i], order[j]), max(order[i], order[j])), 0))
        ]
        for i in range(len(order))
    ]
    total = len(order)

    def edges_between(a: int, b: int) -> int:
        count = 0
        while a:
            bit = a & -a
            a ^= bit
            i = bit.bit_length() - 1
            row = mult[i]
            common = nbr[i] & b
            while common:
                low = common & -common
                common ^= low
                count += row[low.bit_length() - 1]
        return count

    def place(i: int, used: int, chosen: list[int]) -> bool:
        if i == total:
            return True
        free = len(hverts) - used.bit_count()
        if free < total - i:
            return False
        for mask, reach in conn:
            if mask & used:
                continue
            for j, k in needs[i]:
                other = chosen[j]
                # a set with no neighbour in the other has no edge to it
                if not reach & other or (k > 1 and edges_between(mask, other) < k):
                    break
            else:
                chosen.append(mask)
                if place(i + 1, used | mask, chosen):
                    return True
                chosen.pop()
        return False

    return place(0, 0, [])


def _simplified(g: MultiGraph) -> MultiGraph:
    """Drop loops, parallels, and isolated vertices."""
    seen: set[tuple[int, int]] = set()
    edges: dict[int, tuple[int, int]] = {}
    for e in sorted(g.edges):
        u, v = g.edges[e]
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges[e] = (u, v)
    verts = {v for uv in edges.values() for v in uv}
    return MultiGraph(verts, edges)


def _reduced(g: MultiGraph) -> MultiGraph:
    """g with loops, parallel copies and vertices of degree <= 2 removed.

    A vertex of degree <= 1 is deleted, and a degree-2 vertex v with
    neighbours a, b is replaced by the edge ab (or just deleted when ab is
    already an edge), until nothing changes.  Edges are renumbered.
    """
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in _simplified(g).edges.values():
        adj[u].add(v)
        adj[v].add(u)
    todo = sorted(adj, reverse=True)
    while todo:
        v = todo.pop()
        nb = adj.get(v)
        if nb is None or len(nb) > 2:
            continue
        del adj[v]
        for w in nb:
            adj[w].discard(v)
        if len(nb) == 2:
            a, b = nb
            adj[a].add(b)
            adj[b].add(a)
        todo.extend(sorted(nb))
    pairs = sorted((u, w) for u in adj for w in adj[u] if u < w)
    return MultiGraph(adj, {i + 1: uv for i, uv in enumerate(pairs)})


def _blocks_as_graphs(g: MultiGraph, min_n: int, min_m: int) -> list[MultiGraph]:
    """The blocks of g with at least min_n vertices and min_m edges, as graphs."""
    out = []
    for part in blocks(g):
        if len(part) >= min_m:
            sub = MultiGraph(edge_vertices(g, part), {e: g.edges[e] for e in part})
            if sub.n >= min_n:
                out.append(sub)
    return out


def _reduced_blocks(g: MultiGraph, min_n: int, min_m: int) -> list[MultiGraph]:
    """The blocks of the reduction of g, each reduced again, down to a fixed point.

    Blocks with fewer than min_n vertices or min_m edges are skipped.
    """
    r = _reduced(g)
    parts = _blocks_as_graphs(r, min_n, min_m)
    if len(parts) == 1 and parts[0].m == r.m:
        return parts
    return [h for part in parts for h in _reduced_blocks(part, min_n, min_m)]


def _one_block(pattern: MultiGraph) -> bool:
    """Is the loopless pattern one block with no isolated vertex?

    That is a 2-connected graph, a single edge, or parallel edges on two vertices.
    """
    return pattern.m > 0 and len(blocks(pattern)) == 1 and all(
        pattern.degree(v) for v in pattern.vertices
    )


def _reduces_exactly(pattern: MultiGraph) -> bool:
    """Is the loopless pattern simple and 2-connected, with minimum degree >= 3?"""
    return (
        len(set(pattern.edges.values())) == pattern.m
        and all(pattern.degree(v) >= 3 for v in pattern.vertices)
        and _one_block(pattern)
    )


def has_minor(host: MultiGraph, pattern: MultiGraph | MinorPattern) -> bool:
    """Branch-set minor containment; reflexive on isomorphic graphs.

    A pattern H that is one block (2-connected, or an edge, or a multiple
    edge) with no isolated vertex has every model inside one block of the
    host, so only the host's blocks with at least as many vertices and edges
    as H are searched.  When H is also simple with minimum degree >= 3 (every
    F0 graph is), those blocks are reduced first, which gives the same answer:

    - H is simple, so loops and parallel copies in the host are never needed;
    - H has minimum degree >= 3, so no branch set is a single vertex of degree
      <= 2; a vertex of degree <= 1 in a larger branch set is a leaf of it and
      can be deleted;
    - a degree-2 vertex v with neighbours a, b then shares a branch set with a
      (say) and at most links that set to b, which the edge ab does as well;
      contracting va gives ab, so the reduced host is a minor of the host.

    The 16-vertex host limit applies to the blocks that are searched, and is
    checked for all of them before any search.  Other patterns are searched
    for in the host as it is.
    """
    pg = pattern.graph if isinstance(pattern, MinorPattern) else pattern
    if any(u == v for u, v in pg.edges.values()):
        raise ValueError("patterns must be loopless")
    if _reduces_exactly(pg):
        hosts = _reduced_blocks(host, pg.n, pg.m)
    elif _one_block(pg):
        hosts = _blocks_as_graphs(host, pg.n, pg.m)
    else:
        return _minor_search(host, pg)
    for h in hosts:
        _check_host_size(h)
    return any(_minor_search(h, pg) for h in hosts)


# The forbidden five, in the order minor-check --f0 reports them.
_F0_NAMES = ("K3,3", "K5", "C", "H", "O")


def f0() -> list[MinorPattern]:
    """The forbidden five: minor-minimal graphs on which some configuration is stuck."""
    return [MinorPattern(name, ng.named_graph(name)) for name in _F0_NAMES]


def f0_free(g: MultiGraph) -> bool:
    return not any(has_minor(g, p) for p in f0())


# -- canonical forms ----------------------------------------------------------


def _edge_colors(eg: EnhancedGraph, config: frozenset[int] | None) -> dict[int, int]:
    colors = {}
    for e in eg.graph.edges:
        c = 0
        if e in eg.contract_protected:
            c |= 1
        if e in eg.delete_protected:
            c |= 2
        if config is not None and e in config:
            c |= 4
        colors[e] = c
    return colors


def _refined_cells(g: MultiGraph, colors: dict[int, int]) -> list[list[int]]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e, (a, b) in g.edges.items():
        adj[a].append((colors[e], b))
        adj[b].append((colors[e], a))
    inv: dict[int, object] = {
        v: tuple(sorted(c for c, _ in adj[v])) for v in g.vertices
    }
    for _ in range(3):
        nxt = {
            v: (inv[v], tuple(sorted((c, repr(inv[w])) for c, w in adj[v])))
            for v in g.vertices
        }
        names = {val: i for i, val in enumerate(sorted({repr(x) for x in nxt.values()}))}
        inv = {v: names[repr(nxt[v])] for v in g.vertices}
    cells: dict[object, list[int]] = {}
    for v in sorted(g.vertices):
        cells.setdefault(inv[v], []).append(v)
    return [cells[k] for k in sorted(cells)]


def _least_order(g: MultiGraph, cells: list[list[int]], colors: dict[int, int]) -> list[int]:
    """The first vertex order, filling positions cell by cell, in the order of
    `itertools.product` over each sorted cell's permutations, whose encoding
    (sorted (min pos, max pos, colour) edge triples) is least.

    A pair's rank is its sorted edge colours and then an end mark above every
    colour, so comparing rows of ranks, row-major, compares encodings.  A
    branch is cut only when its placed rows, each completed by its ranks to
    the unplaced vertices in ascending order, rank above the best order's;
    ties go on.  A vertex is skipped when an unplaced vertex of its cell with
    a smaller label is its twin (equal loops, equal colours to every other
    vertex): swapping the two is an automorphism, so the branches agree.
    """
    verts = sorted(g.vertices)
    between: dict[tuple[int, int], list[int]] = {(a, b): [] for a in verts for b in verts}
    for e, (a, b) in g.edges.items():
        between[a, b].append(colors[e])
        if a != b:
            between[b, a].append(colors[e])
    end = max(colors.values(), default=0) + 1
    marks = {p: (*sorted(cs), end) for p, cs in between.items()}
    names = {mark: i for i, mark in enumerate(sorted(set(marks.values())))}
    rank = {a: {b: names[marks[a, b]] for b in verts} for a in verts}
    twins = {
        v: [u for u in cell[:i] if rank[u][u] == rank[v][v]
            and all(rank[u][w] == rank[v][w] for w in verts if w not in (u, v))]
        for cell in cells for i, v in enumerate(cell)
    }
    slots = [cell for cell in cells for _ in cell]
    order: list[int] = []
    free = set(verts)
    best = [[len(names)]] * len(verts)  # above every row, so the first order replaces it
    best_order: list[int] = []

    def place(i: int) -> None:
        nonlocal best, best_order
        below = False
        for r, v in enumerate(order):
            row = [rank[v][u] for u in order[r:]] + sorted(rank[v][u] for u in free)
            if row != best[r]:
                if row > best[r]:
                    return
                below = True
                break
        if i == len(slots):
            if below:
                best = [[rank[v][u] for u in order[r:]] for r, v in enumerate(order)]
                best_order = list(order)
            return
        for v in slots[i]:
            if v in free and not any(u in free for u in twins[v]):
                order.append(v)
                free.remove(v)
                place(i + 1)
                order.pop()
                free.add(v)

    place(0)
    return best_order


def _least_encoding(
    eg: EnhancedGraph, config: frozenset[int] | None
) -> tuple[tuple, dict[int, int], dict[int, int]]:
    """The least edge encoding, the vertex positions giving it, and the edge colours.

    Only vertex orderings compatible with the refined invariant cells are
    tried (`_least_order`); the encoding is the sorted tuple of
    (u, v, colour) edge triples.
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
    pos = {v: i for i, v in enumerate(_least_order(g, cells, colors))}
    enc = tuple(sorted((*sorted((pos[u], pos[v])), colors[e]) for e, (u, v) in g.edges.items()))
    return enc, pos, colors


def canonical_labeling(
    eg: EnhancedGraph, config: frozenset[int] | None = None
) -> tuple[EnhancedGraph, frozenset[int] | None, dict[int, int]]:
    """Canonically relabelled copy plus the old-edge -> new-edge map.

    Vertices become 0..n-1 and edges 1..m; among all vertex orderings
    compatible with the refined invariant cells the one minimising the edge
    encoding (sorted (u, v, colour) triples) is chosen.
    """
    g = eg.graph
    _, pos, colors = _least_encoding(eg, config)
    ends = {e: tuple(sorted((pos[u], pos[v]))) for e, (u, v) in g.edges.items()}
    ordered = sorted(g.edges, key=lambda e: (*ends[e], colors[e], e))
    edge_map = {e: i + 1 for i, e in enumerate(ordered)}
    out = EnhancedGraph(
        MultiGraph(range(g.n), {edge_map[e]: ends[e] for e in g.edges}),
        frozenset(edge_map[e] for e in eg.contract_protected),
        frozenset(edge_map[e] for e in eg.delete_protected),
    )
    new_config = frozenset(edge_map[e] for e in config) if config is not None else None
    return out, new_config, edge_map


def canonical_form(
    eg: EnhancedGraph, config: frozenset[int] | None = None
) -> tuple:
    """Isomorphism-invariant key: (n, sorted (u, v, colour) edge triples)."""
    return (eg.graph.n, _least_encoding(eg, config)[0])


def canonical_graph_key(g: MultiGraph) -> tuple:
    return canonical_form(EnhancedGraph(g))


# -- the enhanced minor order -------------------------------------------------


def enhanced_children(eg: EnhancedGraph) -> Iterator[tuple[str, EnhancedGraph]]:
    """All one-step reductions, yielded lazily in a fixed deterministic order.

    Protection removals come first: they reuse the graph itself, so a caller
    that stops at the first child with some property (the catalog search's
    minimality test) rejects most non-minimal candidates without building a
    smaller graph and its tables.
    """
    g = eg.graph
    c_set = eg.contract_protected
    d_set = eg.delete_protected
    for e in sorted(c_set):
        yield f"unprotect contract {e}", EnhancedGraph(g, c_set - {e}, d_set)
    for e in sorted(d_set):
        yield f"unprotect delete {e}", EnhancedGraph(g, c_set, d_set - {e})
    for v in sorted(g.vertices):
        h = delete_vertex(g, v)
        ids = h.edge_ids()
        yield f"delete vertex {v}", EnhancedGraph(h, c_set & ids, d_set & ids)
    for e in sorted(g.edges):
        if e not in d_set:
            yield f"delete edge {e}", EnhancedGraph(delete_edge(g, e), c_set - {e}, d_set)
    for e in sorted(g.edges):
        if e not in c_set and not g.is_loop(e):
            h = contract_edge(g, e)
            ids = h.edge_ids()
            yield f"contract edge {e}", EnhancedGraph(h, c_set & ids, d_set & ids)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in g.edges.items():
        if u != v:
            by_pair.setdefault((u, v), []).append(e)
    for pair in sorted(by_pair):
        es = sorted(by_pair[pair])
        if len(es) < 2:
            continue
        for keep, drop in itertools.permutations(es, 2):
            if drop in d_set:
                continue
            yield (
                f"merge parallel {drop} into {keep}",
                EnhancedGraph(delete_edge(g, drop), c_set - {drop}, (d_set - {drop}) | {keep}),
            )
    for w in sorted(g.vertices):
        inc = g.incident_edges(w)
        if len(inc) != 2 or g.degree(w) != 2:
            continue
        e1, e2 = inc
        if g.edges[e1] == g.edges[e2]:
            continue
        for keep, con in ((e1, e2), (e2, e1)):
            if con in c_set:
                continue
            h = contract_edge(g, con)
            ids = h.edge_ids()
            if keep not in ids:
                continue
            yield (
                f"smooth degree-2 vertex {w} contracting {con}",
                EnhancedGraph(h, (c_set & ids) | {keep}, d_set & ids),
            )


# -- catalog entries and their file format ------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    enhanced: EnhancedGraph
    witness: frozenset[int]
    family: str
    weight: int
    dual_partner: int | None

    def with_partner(self, partner: int | None) -> "CatalogEntry":
        return replace(self, dual_partner=partner)


_FLAG_TO_TEXT = {0: "-", 1: "c", 2: "d", 3: "cd"}
_TEXT_TO_FLAG = {v: k for k, v in _FLAG_TO_TEXT.items()}


def render_catalog(entries: list[CatalogEntry]) -> str:
    lines = ["# minor-minimal non-split catalog", "# schema 1"]
    for ent in entries:
        g = ent.enhanced.graph
        parts = []
        for e in sorted(g.edges):
            u, v = g.edges[e]
            flag = (e in ent.enhanced.contract_protected) | (
                (e in ent.enhanced.delete_protected) << 1
            )
            parts.append(f"{u}-{v}:{_FLAG_TO_TEXT[flag]}")
        witness = ",".join(str(e) for e in sorted(ent.witness))
        dual = "-" if ent.dual_partner is None else str(ent.dual_partner)
        lines.append(
            f"{g.n}|{','.join(parts)}|{witness}|{ent.family}|{ent.weight}|{dual}"
        )
    return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> list[CatalogEntry]:
    out: list[CatalogEntry] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) != 6:
            raise ValueError(f"malformed catalog line: {line!r}")
        n = int(fields[0])
        _check_vertex_count(n)
        edges: dict[int, tuple[int, int]] = {}
        c_set: set[int] = set()
        d_set: set[int] = set()
        for i, part in enumerate(fields[1].split(",")):
            uv, _, flag = part.partition(":")
            u, _, v = uv.partition("-")
            eid = i + 1
            edges[eid] = (int(u), int(v))
            f = _TEXT_TO_FLAG.get(flag)
            if f is None:
                raise ValueError(
                    f"bad protection mark {flag!r} on catalog edge {part!r}; "
                    "expected one of -, c, d, cd"
                )
            if f & 1:
                c_set.add(eid)
            if f & 2:
                d_set.add(eid)
        eg = EnhancedGraph(MultiGraph(range(n), edges), frozenset(c_set), frozenset(d_set))
        witness_ids = [int(t) for t in fields[2].split(",") if t]
        witness = frozenset(witness_ids)
        if len(witness_ids) != 5 or len(witness) != 5 or not witness <= eg.graph.edge_ids():
            raise ValueError(
                f"catalog witness {fields[2]!r} is not five distinct edges of its graph"
            )
        weight = int(fields[4])
        if weight != eg.weight:
            raise ValueError(
                f"catalog weight {weight} contradicts the edges and marks (weight {eg.weight})"
            )
        dual = None if fields[5] == "-" else int(fields[5])
        out.append(CatalogEntry(eg, witness, fields[3], weight, dual))
    for ent in out:
        if ent.dual_partner is not None and not 0 <= ent.dual_partner < len(out):
            raise ValueError(
                f"catalog dual index {ent.dual_partner} is outside 0..{len(out) - 1}"
            )
    return out


def family_label(g: MultiGraph) -> str:
    """Name of the first registry graph isomorphic to g, or "?" if none is."""
    side = _IsoSide(g)
    for name, build in ng.NAMED_GRAPHS.items():
        if find_isomorphism(side, build()) is not None:
            return name
    return "?"


# -- matroid-dual bijections between labelled graphs --------------------------


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


def assign_dual_partners(entries: list[CatalogEntry]) -> list[CatalogEntry]:
    """Fill dual_partner indices: C and D swap under the matroid-dual bijection."""
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
    return [entries[i].with_partner(partner[i]) for i in range(len(entries))]
