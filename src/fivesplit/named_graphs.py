"""Reference graphs, planar duals from face structures, and the registry of
named graphs.

All constructions use vertices 0..n-1 and edge ids 1..m assigned in
lexicographic endpoint order (extra edges appended), so tests and the catalog
can refer to them stably.  Planar duals are built from explicit face lists
(each face a set of edge ids); the face structures are validated locally
(every edge on exactly two faces, Euler count) and globally by the brute-force
matroid duality check in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .graph_core import MultiGraph


def _from_pairs(n: int, pairs: list[tuple[int, int]]) -> MultiGraph:
    return MultiGraph(range(n), {i + 1: uv for i, uv in enumerate(pairs)})


def complete_graph(n: int) -> MultiGraph:
    return _from_pairs(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return _from_pairs(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def wheel(k: int) -> MultiGraph:
    """Wheel with k rim vertices 0..k-1 and hub k; rim edges 1..k, spokes k+1..2k."""
    if k < 3:
        raise ValueError("wheel needs at least 3 rim vertices")
    pairs = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return _from_pairs(k + 1, pairs)


def k5_minus() -> MultiGraph:
    """K5 with the edge {3,4} removed; a maximal planar triangular bipyramid."""
    pairs = [p for p in itertools.combinations(range(5), 2) if p != (3, 4)]
    return _from_pairs(5, pairs)


def prism() -> MultiGraph:
    """Two triangles 012 and 345 joined by the matching 03, 14, 25."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    return _from_pairs(6, pairs)


def prism_plus() -> MultiGraph:
    """The prism with the extra chord {0,4} (edge id 10)."""
    g = prism()
    edges = dict(g.edges)
    edges[10] = (0, 4)
    return MultiGraph(g.vertices, edges)


def cube() -> MultiGraph:
    """3-cube on vertices 0..7 read as bit strings."""
    pairs = [
        (u, v)
        for u, v in itertools.combinations(range(8), 2)
        if bin(u ^ v).count("1") == 1
    ]
    return _from_pairs(8, pairs)


def octahedron() -> MultiGraph:
    """K_{2,2,2}: all pairs except {0,1}, {2,3}, {4,5}."""
    skip = {(0, 1), (2, 3), (4, 5)}
    pairs = [p for p in itertools.combinations(range(6), 2) if p not in skip]
    return _from_pairs(6, pairs)


def h_graph() -> MultiGraph:
    """The cube with one vertex replaced by a triangle on its neighbours."""
    g = cube()
    edges = {e: uv for e, uv in g.edges.items() if 0 not in uv}
    nxt = max(g.edges) + 1
    for u, v in [(1, 2), (1, 4), (2, 4)]:
        edges[nxt] = (u, v)
        nxt += 1
    return MultiGraph(g.vertices - {0}, edges)


def double_fan() -> MultiGraph:
    """Path 0-1-2-3 plus two nonadjacent vertices 4, 5 joined to every path vertex."""
    pairs = [(0, 1), (1, 2), (2, 3)] + [(i, a) for a in (4, 5) for i in range(4)]
    pairs = sorted(pairs)
    return _from_pairs(6, pairs)


# -- planar duals ------------------------------------------------------------


def dual_from_faces(g: MultiGraph, faces: list[frozenset[int]]) -> MultiGraph:
    """Planar dual from a face structure; edge ids carry over unchanged.

    Faces are edge-id sets; every edge must lie on exactly two faces and the
    face count must satisfy Euler's relation for a connected plane graph.
    """
    if len(faces) != 2 - g.n + g.m:
        raise ValueError("face count violates Euler's relation")
    where: dict[int, list[int]] = {e: [] for e in g.edges}
    for i, face in enumerate(faces):
        for e in face:
            where[e].append(i)
    for e, fs in where.items():
        if len(fs) != 2:
            raise ValueError(f"edge {e} lies on {len(fs)} faces, expected 2")
    return MultiGraph(range(len(faces)), {e: (fs[0], fs[1]) for e, fs in where.items()})


def _edge_id_of(g: MultiGraph, u: int, v: int) -> int:
    hits = [e for e, uv in g.edges.items() if uv == ((u, v) if u <= v else (v, u))]
    if len(hits) != 1:
        raise ValueError(f"no unique edge {u}-{v}")
    return hits[0]


def _face_of_cycle(g: MultiGraph, cycle: list[int]) -> frozenset[int]:
    return frozenset(
        _edge_id_of(g, cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def double_fan_faces() -> list[frozenset[int]]:
    g = double_fan()
    cycles = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 1, 5], [1, 2, 5], [2, 3, 5],
              [0, 4, 3, 5]]
    return [_face_of_cycle(g, c) for c in cycles]


def double_fan_dual() -> MultiGraph:
    return dual_from_faces(double_fan(), double_fan_faces())


# -- the registry of named graphs ------------------------------------------

# Name -> constructor.  These are the catalog's family labels and the CLI's
# built-in patterns; no two entries are isomorphic.
NAMED_GRAPHS: dict[str, Callable[[], MultiGraph]] = {
    "K4": lambda: complete_graph(4),
    "W4": lambda: wheel(4),
    "W5": lambda: wheel(5),
    "K5-": k5_minus,
    "P": prism,
    "P+": prism_plus,
    "D": double_fan,
    "D*": double_fan_dual,
    "K3,3": lambda: complete_bipartite(3, 3),
    "K5": lambda: complete_graph(5),
    "C": cube,
    "H": h_graph,
    "O": octahedron,
}

# Long names accepted wherever a registry name is read from the user.
ALIASES = {"cube": "C", "octahedron": "O"}


def named_graph(name: str) -> MultiGraph:
    """The registry graph called name (a registry name or an alias)."""
    return NAMED_GRAPHS[ALIASES.get(name, name)]()

