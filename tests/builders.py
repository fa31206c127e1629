"""Graphs, graph texts and catalog lines that several test files build."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from fivesplit.graph_core import MultiGraph, find_isomorphism
from fivesplit.named_graphs import (
    _edge_id_of,
    _face_of_cycle,
    _from_pairs,
    complete_graph,
    cube,
    double_fan,
    double_fan_dual,
    dual_from_faces,
    k5_minus,
    octahedron,
    prism,
    prism_plus,
    wheel,
)
from fivesplit.splitting import EnhancedGraph


def path_graph(k: int) -> MultiGraph:
    """Path with k edges on vertices 0..k."""
    return _from_pairs(k + 1, [(i, i + 1) for i in range(k)])


def cycle_graph(n: int) -> MultiGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return _from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def triangle() -> MultiGraph:
    return complete_graph(3)


def wheel_rim_edges(k: int) -> frozenset[int]:
    return frozenset(range(1, k + 1))


def wheel_spoke_edges(k: int) -> frozenset[int]:
    return frozenset(range(k + 1, 2 * k + 1))


def subdivided_claw() -> MultiGraph:
    """K_{1,3} with every edge subdivided once; six bridges."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
    return _from_pairs(7, pairs)


def chain_of_k4s(count: int) -> MultiGraph:
    """K4 blocks in a row, block b on vertices 3b..3b+3."""
    pairs = [(3 * b + x, 3 * b + y) for b in range(count)
             for x, y in itertools.combinations(range(4), 2)]
    return MultiGraph(range(3 * count + 1), {i + 1: uv for i, uv in enumerate(pairs)})


def cycle_prism(k: int) -> MultiGraph:
    """C_k x K2: cubic and 3-connected for k >= 3, on 2k vertices."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return MultiGraph(range(2 * k), {i + 1: uv for i, uv in enumerate(pairs)})


def subdivided(g: MultiGraph, times: int) -> MultiGraph:
    """Every edge of g replaced by a path with `times` inner vertices."""
    edges: dict[int, tuple[int, int]] = {}
    first = nxt = max(g.vertices) + 1
    for u, v in g.edges.values():
        path = [u, *range(nxt, nxt + times), v]
        nxt += times
        for a, b in zip(path, path[1:]):
            edges[len(edges) + 1] = (a, b)
    return MultiGraph(g.vertices | set(range(first, nxt)), edges)


def h_graph_from_octahedron() -> MultiGraph:
    """Octahedron with the face {0,2,4} replaced by a new degree-3 vertex."""
    g = octahedron()
    drop = {(0, 2), (0, 4), (2, 4)}
    edges = {e: uv for e, uv in g.edges.items() if uv not in drop}
    nxt = max(g.edges) + 1
    for u in (0, 2, 4):
        edges[nxt] = (u, 6)
        nxt += 1
    return MultiGraph(g.vertices | {6}, edges)


# -- stored dual pairs -------------------------------------------------------


def cube_faces() -> list[frozenset[int]]:
    g = cube()
    faces = []
    for bit in range(3):
        for val in (0, 1):
            vs = {v for v in range(8) if (v >> bit) & 1 == val}
            faces.append(
                frozenset(e for e, (a, b) in g.edges.items() if a in vs and b in vs)
            )
    return faces


def wheel_faces(k: int) -> list[frozenset[int]]:
    g = wheel(k)
    faces = [_face_of_cycle(g, [i, (i + 1) % k, k]) for i in range(k)]
    faces.append(wheel_rim_edges(k))
    return faces


def k5_minus_faces() -> list[frozenset[int]]:
    g = k5_minus()
    return [_face_of_cycle(g, list(t)) for t in
            [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)]]


def prism_plus_faces() -> list[frozenset[int]]:
    g = prism_plus()
    cycles = [[0, 1, 4], [0, 4, 3], [1, 2, 5, 4], [0, 2, 5, 3], [0, 1, 2], [3, 4, 5]]
    return [_face_of_cycle(g, c) for c in cycles]


def _pair_via_faces(
    g: MultiGraph, faces: list[frozenset[int]], reference: MultiGraph
) -> dict[int, int]:
    """Edge bijection g -> reference through the face dual.

    The face dual carries g's edge ids; an isomorphism onto the reference
    labelling then identifies each dual edge with a reference edge id.
    """
    dual = dual_from_faces(g, faces)
    iso = find_isomorphism(dual, reference)
    if iso is None:
        raise ValueError("face dual does not match the reference graph")
    return {
        e: _edge_id_of(reference, iso[a], iso[b]) for e, (a, b) in dual.edges.items()
    }


def dual_pairs() -> list[tuple[str, MultiGraph, MultiGraph, dict[int, int]]]:
    """Named matroid-dual pairs with explicit edge bijections.

    Self-dual graphs appear paired with themselves under a nonidentity edge
    bijection.  Validation (complement of every spanning tree maps to a
    spanning tree) lives in the tests that use them.
    """
    out = []
    out.append(("W4", wheel(4), wheel(4), _pair_via_faces(wheel(4), wheel_faces(4), wheel(4))))
    out.append(("W5", wheel(5), wheel(5), _pair_via_faces(wheel(5), wheel_faces(5), wheel(5))))
    out.append(("K5-/prism", k5_minus(), prism(), _pair_via_faces(k5_minus(), k5_minus_faces(), prism())))
    out.append(("P+", prism_plus(), prism_plus(), _pair_via_faces(prism_plus(), prism_plus_faces(), prism_plus())))
    out.append(("cube/octahedron", cube(), octahedron(), _pair_via_faces(cube(), cube_faces(), octahedron())))
    dfd = double_fan_dual()
    out.append(("D/D*", double_fan(), dfd, {e: e for e in double_fan().edges}))
    return out


@st.composite
def scattered_multigraphs(draw, min_edges: int = 0, max_vertices: int = 7):
    """A multigraph with loops, parallel edges, isolated vertices, and vertex
    labels and edge ids with gaps; it has min_edges to 9 edges."""
    labels = sorted(draw(st.sets(st.integers(min_value=0, max_value=30),
                                 min_size=1 if min_edges else 0, max_size=max_vertices)))
    if not labels:
        return MultiGraph([], {})
    vertex = st.sampled_from(labels)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=min_edges, max_size=9))
    ids = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=len(ends),
                        max_size=len(ends), unique=True))
    return MultiGraph(labels, dict(zip(ids, ends)))


@st.composite
def protected_multigraphs(draw):
    """A `scattered_multigraphs` graph with random contract and delete protections."""
    g = draw(scattered_multigraphs())
    edges = sorted(g.edges)
    c = draw(st.sets(st.sampled_from(edges))) if edges else set()
    d = draw(st.sets(st.sampled_from(edges))) if edges else set()
    return EnhancedGraph(g, frozenset(c), frozenset(d))


# The one entry of `search-minimal --max-edges 6`: K4 with its witness and weight.
K4_CATALOG_LINE = "4|0-1:-,0-2:cd,0-3:cd,1-2:cd,1-3:cd,2-3:cd|2,3,4,5,6|K4|16|0"


_GRAPH_TOKENS = st.one_of(
    st.sampled_from(["c:", "d:", "C:", "c", ":", ",", "#", "x", "1.5", "-", "\u0663", "\u00b2"]),
    st.integers(min_value=-2, max_value=12).map(str),
)


@st.composite
def _near_graph_text(draw):
    """A header, edge lines and protection lines, each off by a little."""
    small = st.integers(min_value=-1, max_value=6)
    n = draw(small)
    edges = draw(st.lists(st.tuples(small, small, small), max_size=5))
    m = draw(st.sampled_from([len(edges), len(edges), draw(small)]))
    lines = [f"{n} {m}", *(f"{e} {u} {v}" for e, u, v in edges)]
    for tag, ids in draw(st.lists(st.tuples(st.sampled_from(["c", "d", "e"]),
                                            st.lists(small, max_size=3)), max_size=2)):
        lines.append(f"{tag}: " + ",".join(map(str, ids)))
    return "\n".join(lines)


# Input for the graph parsers: arbitrary text, lines of header-like numbers,
# protection tags, comments and digits that int() or str.isdigit() treat
# specially, near-valid text files, and short printable strings for graph6.
FUZZ_GRAPH_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(_GRAPH_TOKENS, max_size=4).map(" ".join), max_size=7).map("\n".join),
    _near_graph_text(),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130), max_size=24),
)
