"""Multigraphs with stable edge identifiers, separations, and tree machinery.

Graphs here are finite multigraphs: loops and parallel edges are allowed, and
every edge carries an integer identifier that survives into subgraphs, so edge
subsets and configurations can be tracked across deletions and contractions.

A separation of a graph G is an unordered pair (A, B) of edge sets partitioning
E(G); its boundary is the set of vertices incident both to an edge of A and to
an edge of B, and its order is the size of the boundary.  Separations with an
empty side are exposed (they have order 0); callers filter as needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

EdgeSubset = frozenset[int]


class MultiGraph:
    """Immutable-by-convention multigraph.

    vertices: frozenset of integer vertex labels.
    edges: dict edge_id -> (u, v) with u <= v; loops have u == v.
    """

    __slots__ = ("vertices", "edges", "_key", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]):
        vs = frozenset(vertices)
        es: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in dict(edges).items():
            if u not in vs or v not in vs:
                raise ValueError(f"edge {eid} has endpoint outside the vertex set")
            es[int(eid)] = (u, v) if u <= v else (v, u)
        self.vertices = vs
        self.edges = es
        self._key: tuple | None = None
        self._hash: int | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> EdgeSubset:
        return frozenset(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self.edges[e]
        except KeyError:
            raise ValueError(f"unknown edge {e}") from None

    def is_loop(self, e: int) -> bool:
        u, v = self.endpoints(e)
        return u == v

    def incident_edges(self, v: int) -> list[int]:
        return sorted(e for e, (a, b) in self.edges.items() if v in (a, b))

    def degree(self, v: int) -> int:
        """Edge slots at v; a loop counts twice."""
        return sum((a == v) + (b == v) for a, b in self.edges.values())

    def key(self) -> tuple:
        """Identity key (labels included); suitable as a cache key."""
        if self._key is None:
            self._key = (
                tuple(sorted(self.vertices)),
                tuple(sorted((e, u, v) for e, (u, v) in self.edges.items())),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiGraph) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GraphSeparation:
    side_a: EdgeSubset
    side_b: EdgeSubset
    boundary: frozenset[int]
    order: int


def edge_vertices(g: MultiGraph, subset: Iterable[int]) -> frozenset[int]:
    """Vertices incident to at least one edge of the subset."""
    out: set[int] = set()
    for e in subset:
        u, v = g.endpoints(e)
        out.add(u)
        out.add(v)
    return frozenset(out)


def boundary(g: MultiGraph, subset: Iterable[int]) -> frozenset[int]:
    a = frozenset(subset)
    return edge_vertices(g, a) & edge_vertices(g, g.edge_ids() - a)


def delete_edge(g: MultiGraph, e: int) -> MultiGraph:
    g.endpoints(e)
    return MultiGraph(g.vertices, {f: uv for f, uv in g.edges.items() if f != e})


def delete_vertex(g: MultiGraph, v: int) -> MultiGraph:
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v}")
    return MultiGraph(
        g.vertices - {v},
        {e: (a, b) for e, (a, b) in g.edges.items() if v not in (a, b)},
    )


def contract_edge(g: MultiGraph, e: int) -> MultiGraph:
    """Contract a non-loop edge; the lower endpoint survives.

    Edges parallel to e would become loops and are deleted; loops elsewhere and
    pre-existing loops at the merged vertex are kept.
    """
    u, v = g.endpoints(e)
    if u == v:
        raise ValueError(f"cannot contract loop {e}")
    edges: dict[int, tuple[int, int]] = {}
    for f, (a, b) in g.edges.items():
        if f == e:
            continue
        if (a, b) == (u, v):
            continue
        na = u if a == v else a
        nb = u if b == v else b
        edges[f] = (na, nb)
    return MultiGraph(g.vertices - {v}, edges)


def connected_components(g: MultiGraph) -> list[frozenset[int]]:
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for a, b in g.edges.values():
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: MultiGraph) -> bool:
    return len(connected_components(g)) <= 1


def is_k_connected(g: MultiGraph, k: int) -> bool:
    """Vertex connectivity of the underlying simple graph is at least k.

    Decided from the separator definition: for k >= 1, G is k-connected when
    it has at least k + 1 vertices and G - X is connected for every set X of
    exactly k - 1 vertices.  Sets of size k - 1 suffice, because with
    n >= k + 1 a smaller separator extends to one of size k - 1 that keeps a
    vertex on each of two sides.  That is C(n, k - 1) searches over one
    neighbour bitmask per vertex, so it is meant for small k.
    """
    if k <= 0:
        return True
    n = g.n
    if n < k + 1:
        return False
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    adj = [0] * n
    for a, b in g.edges.values():
        if a != b:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
    full = (1 << n) - 1
    for cut in itertools.combinations(range(n), k - 1):
        alive = full
        for v in cut:
            alive &= ~(1 << v)
        if _component_mask(adj, alive) != alive:
            return False
    return True


def _component_mask(adj: list[int], alive: int) -> int:
    """The component of the lowest vertex of `alive` in the graph it induces.

    Vertices are bits; adj[i] is the neighbour bitmask of vertex i.
    """
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def spanning_trees(g: MultiGraph) -> Iterator[EdgeSubset]:
    """All spanning trees as edge-id sets, by deletion/contraction recursion."""
    if not is_connected(g):
        return

    def rec(h: MultiGraph) -> Iterator[frozenset[int]]:
        if h.n <= 1:
            yield frozenset()
            return
        e = min((f for f in h.edges if not h.is_loop(f)), default=None)
        if e is None:
            return
        for t in rec(contract_edge(h, e)):
            yield t | {e}
        rest = delete_edge(h, e)
        if is_connected(rest):
            yield from rec(rest)

    yield from rec(g)


def pieces(g: MultiGraph, cut: Iterable[int]) -> list[EdgeSubset]:
    """Pieces of G relative to a vertex cut X.

    One piece per component of G - X (its edges, including edges into X) plus
    one piece per edge with both endpoints inside X.  Every separation whose
    boundary lies inside X is a union of pieces versus the rest.
    """
    x = frozenset(cut)
    comp_of: dict[int, int] = {}
    adj: dict[int, list[int]] = {v: [] for v in g.vertices if v not in x}
    for a, b in g.edges.values():
        if a not in x and b not in x and a != b:
            adj[a].append(b)
            adj[b].append(a)
    cid = 0
    for root in sorted(adj):
        if root in comp_of:
            continue
        comp_of[root] = cid
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp_of:
                    comp_of[w] = cid
                    stack.append(w)
        cid += 1
    comp_edges: dict[int, set[int]] = {i: set() for i in range(cid)}
    out: list[EdgeSubset] = []
    for e, (a, b) in sorted(g.edges.items()):
        if a in x and b in x:
            out.append(frozenset([e]))
        else:
            anchor = a if a not in x else b
            comp_edges[comp_of[anchor]].add(e)
    out.extend(frozenset(es) for i, es in sorted(comp_edges.items()) if es)
    return out


def enumerate_low_order_separations(g: MultiGraph, max_order: int) -> Iterator[GraphSeparation]:
    """All separations of order <= max_order, each unordered pair once.

    Candidate cuts are vertex subsets X with |X| <= max_order; sides are unions
    of pieces relative to X.  The reported order is recomputed from the actual
    boundary, which may be smaller than |X|.
    """
    all_edges = g.edge_ids()
    verts = sorted(g.vertices)
    seen: set[EdgeSubset] = set()
    for size in range(max_order + 1):
        for x in itertools.combinations(verts, size):
            ps = pieces(g, x)
            for bits in range(1 << len(ps)):
                a: frozenset[int] = frozenset()
                for i in range(len(ps)):
                    if bits >> i & 1:
                        a |= ps[i]
                b = all_edges - a
                canon = a if sorted(a) <= sorted(b) else b
                if canon in seen:
                    continue
                seen.add(canon)
                bnd = boundary(g, canon)
                if len(bnd) > max_order:
                    continue
                yield GraphSeparation(canon, all_edges - canon, bnd, len(bnd))


def blocks(g: MultiGraph) -> list[EdgeSubset]:
    """Biconnected components as edge sets; bridges and loops are singletons.

    Two non-loop edges share a block exactly when some cycle contains both;
    parallel edges form 2-cycles and so share a block.
    """
    out: list[EdgeSubset] = [
        frozenset([e]) for e in sorted(g.edges) if g.is_loop(e)
    ]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e, (a, b) in sorted(g.edges.items()):
        if a != b:
            adj[a].append((e, b))
            adj[b].append((e, a))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = itertools.count()
    stack: list[int] = []
    # depth-first search with an explicit stack of (vertex, edge to its
    # parent, remaining incident edges), so deep graphs do not recurse
    for root in sorted(g.vertices):
        if root in disc:
            continue
        disc[root] = low[root] = next(counter)
        frames = [(root, -1, iter(adj[root]))]
        while frames:
            u, parent_edge, incident = frames[-1]
            for e, w in incident:
                if e == parent_edge:
                    continue
                if w not in disc:
                    stack.append(e)
                    disc[w] = low[w] = next(counter)
                    frames.append((w, e, iter(adj[w])))
                    break
                if disc[w] < disc[u]:
                    stack.append(e)
                    low[u] = min(low[u], disc[w])
            else:
                frames.pop()
                if not frames:
                    continue
                p = frames[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    blk: set[int] = set()
                    while True:
                        f = stack.pop()
                        blk.add(f)
                        if f == parent_edge:
                            break
                    out.append(frozenset(blk))
    return out


def _adjacency_counts(g: MultiGraph) -> dict[int, dict[int, int]]:
    """adj[v][w] = number of v-w edges; loops counted once under adj[v][v]."""
    adj: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    for a, b in g.edges.values():
        adj[a][b] = adj[a].get(b, 0) + 1
        if a != b:
            adj[b][a] = adj[b].get(a, 0) + 1
    return adj


class _IsoSide:
    """One graph's side of an isomorphism search, prepared once and reusable.

    inv[v] is (degree of v, triangles through v in the underlying simple graph)
    refined twice by its neighbours' invariants; order lists the vertices by
    (invariant, label), by_inv the vertices of each invariant in ascending
    order, and profile the sorted invariants as a tuple.
    """

    __slots__ = ("n", "m", "adj", "inv", "order", "by_inv", "profile")

    def __init__(self, g: MultiGraph):
        adj = _adjacency_counts(g)
        nbrs = {v: adj[v].keys() - {v} for v in adj}
        tri = {v: sum(len(nbrs[v] & nbrs[w]) for w in nbrs[v]) // 2 for v in adj}
        inv = {v: (sum(adj[v].values()) + adj[v].get(v, 0), tri[v]) for v in adj}
        for _ in range(2):
            inv = {
                v: (inv[v], tuple(sorted((c, inv[w]) for w, c in adj[v].items())))
                for v in adj
            }
        by_inv: dict[tuple, list[int]] = {}
        for v in sorted(g.vertices):
            by_inv.setdefault(inv[v], []).append(v)
        self.n, self.m = g.n, g.m
        self.adj = adj
        self.inv = inv
        self.order = sorted(g.vertices, key=lambda v: (inv[v], v))
        self.by_inv = by_inv
        self.profile = tuple(sorted(inv.values()))


def isomorphisms(
    g: MultiGraph | _IsoSide, h: MultiGraph | _IsoSide
) -> Iterator[dict[int, int]]:
    """Every vertex bijection from g to h preserving edge multiplicities.

    Backtracking over vertex-invariant classes: g's vertices are placed in
    (invariant, label) order, each onto h's unused vertices of its invariant
    in ascending order, so the maps come in lexicographic order of their
    images.  Either side may be an `_IsoSide` prepared beforehand, which a
    caller comparing one graph with many keeps instead of rebuilding it.
    Intended for the small reference graphs (brute force beyond ~10 vertices
    gets slow).
    """
    gs = g if isinstance(g, _IsoSide) else _IsoSide(g)
    hs = h if isinstance(h, _IsoSide) else _IsoSide(h)
    if gs.n != hs.n or gs.m != hs.m or gs.profile != hs.profile:
        return iter(())
    ga, ha, gi, by_inv, gv = gs.adj, hs.adj, gs.inv, hs.by_inv, gs.order
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> Iterator[dict[int, int]]:
        if i == len(gv):
            yield dict(mapping)
            return
        v = gv[i]
        gav = ga[v]
        for w in by_inv[gi[v]]:
            if w in used:
                continue
            haw = ha[w]
            if gav.get(v, 0) != haw.get(w, 0):
                continue
            if any(gav.get(vm, 0) != haw.get(wm, 0) for vm, wm in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1)
            del mapping[v]
            used.discard(w)

    return extend(0)


def find_isomorphism(
    g: MultiGraph | _IsoSide, h: MultiGraph | _IsoSide
) -> dict[int, int] | None:
    """The first map `isomorphisms` yields, or None when g and h differ."""
    return next(isomorphisms(g, h), None)


# -- text and graph6 input/output -------------------------------------------


# The parsers build a vertex set as large as the count they read, so a larger
# count is refused before anything is built.
_MAX_PARSED_VERTICES = 100_000


def _check_vertex_count(n: int) -> None:
    if n > _MAX_PARSED_VERTICES:
        raise ValueError(
            f"vertex count {n} exceeds the limit of {_MAX_PARSED_VERTICES} vertices"
        )


def parse_graph_text(text: str) -> tuple[MultiGraph, dict[str, EdgeSubset]]:
    """Parse the plain text format.

    First data line: ``n m``; then m lines ``edge_id u v`` with 0-based
    vertices; optional trailing ``c: ...`` / ``d: ...`` protection lines.
    Blank lines and ``#`` comments are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise ValueError("negative sizes in header")
    _check_vertex_count(n)
    edges: dict[int, tuple[int, int]] = {}
    prot: dict[str, set[int]] = {"c": set(), "d": set()}
    body = lines[1:]
    if len(body) < m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    for line in body[:m]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'edge_id u v', got {line!r}")
        eid, u, v = (int(p) for p in parts)
        if eid in edges:
            raise ValueError(f"duplicate edge id {eid}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {eid} endpoint out of range")
        edges[eid] = (u, v)
    for line in body[m:]:
        tag, _, rest = line.partition(":")
        tag = tag.strip().lower()
        if tag not in prot or not _:
            raise ValueError(f"unexpected line {line!r}")
        ids = {int(t) for t in rest.replace(",", " ").split()}
        unknown = ids - set(edges)
        if unknown:
            raise ValueError(f"{tag}: line names unknown edges {sorted(unknown)}")
        prot[tag] |= ids
    g = MultiGraph(range(n), edges)
    return g, {k: frozenset(v) for k, v in prot.items()}


def render_graph_text(
    g: MultiGraph,
    contract_protected: Iterable[int] = (),
    delete_protected: Iterable[int] = (),
) -> str:
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    out = [f"{g.n} {g.m}"]
    for e in sorted(g.edges):
        u, v = g.edges[e]
        out.append(f"{e} {idx[u]} {idx[v]}")
    c = sorted(set(contract_protected))
    d = sorted(set(delete_protected))
    if c:
        out.append("c: " + " ".join(map(str, c)))
    if d:
        out.append("d: " + " ".join(map(str, d)))
    return "\n".join(out) + "\n"


def from_graph6(line: str) -> MultiGraph:
    """Decode one graph6 line (n <= 62); edge ids follow graph6 bit order, from 1."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        raise ValueError("graph6 graphs with n > 62 are not supported")
    n = data[0]
    bits = []
    for b in data[1:]:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise ValueError("graph6 line too short")
    edges: dict[int, tuple[int, int]] = {}
    eid = 1
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges[eid] = (i, j)
                eid += 1
            pos += 1
    return MultiGraph(range(n), edges)


def load_graph(text: str) -> tuple[MultiGraph, dict[str, EdgeSubset]]:
    """Accept either the text format or a single graph6 line."""
    stripped = [
        ln.split("#", 1)[0].strip() for ln in text.splitlines() if ln.split("#", 1)[0].strip()
    ]
    if stripped:
        head = stripped[0].split()
        if len(head) == 2 and all(t.lstrip("-").isdigit() for t in head):
            return parse_graph_text(text)
    if len(stripped) == 1:
        g = from_graph6(stripped[0])
        return g, {"c": frozenset(), "d": frozenset()}
    raise ValueError("unrecognised graph input")
