"""Multigraph primitives: separations, minors operations, tree counts, duality."""

from __future__ import annotations

import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivesplit.graph_core import (
    _MAX_PARSED_VERTICES,
    MultiGraph,
    blocks,
    boundary,
    connected_components,
    contract_edge,
    delete_edge,
    delete_vertex,
    edge_vertices,
    enumerate_low_order_separations,
    find_isomorphism,
    from_graph6,
    is_connected,
    _IsoSide,
    is_k_connected,
    isomorphisms,
    load_graph,
    parse_graph_text,
    pieces,
    render_graph_text,
    spanning_trees,
)
from fivesplit.named_graphs import (
    complete_bipartite,
    complete_graph,
    cube,
    octahedron,
    wheel,
)
from builders import (
    FUZZ_GRAPH_TEXT,
    cycle_graph,
    cycle_prism,
    dual_pairs,
    path_graph,
    scattered_multigraphs,
    triangle,
)
from oracles import (
    automorphism_count_by_permutations,
    is_matroid_dual_pair,
    is_proper,
    spanning_tree_count,
)


def _random_multigraph(rng: random.Random, n: int, m: int) -> MultiGraph:
    edges = {}
    for e in range(1, m + 1):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges[e] = (u, v) if u <= v else (v, u)
    return MultiGraph(range(n), edges)


def test_boundary_on_a_path():
    g = path_graph(4)  # edges 1:(0,1) 2:(1,2) 3:(2,3)
    a = {1, 2}
    assert edge_vertices(g, a) == frozenset({0, 1, 2})
    assert boundary(g, a) == frozenset({2})
    assert len(boundary(g, a)) == 1


def test_separation_orders():
    c4 = cycle_graph(4)
    assert len(boundary(c4, {1, 2})) == 2
    k4 = complete_graph(4)
    star = frozenset(k4.incident_edges(0))
    assert len(star) == 3
    assert len(boundary(k4, star)) == 3


def test_is_proper():
    k4 = complete_graph(4)
    assert not is_proper(k4, {1})
    c = cube()
    # a face is not proper: each face vertex also meets a vertical edge
    face = frozenset(e for e, (u, v) in c.edges.items() if {u, v} <= {0, 1, 2, 3})
    assert len(face) == 4
    assert not is_proper(c, face)
    # the edges around one cube edge leave private vertices on both sides
    cap = frozenset(c.incident_edges(0)) | frozenset(c.incident_edges(1))
    assert is_proper(c, cap)
    assert not is_proper(c, c.edge_ids())
    assert not is_proper(c, frozenset())


def test_contract_parallel_pair_to_a_point():
    g = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
    h = contract_edge(g, 1)
    # the surviving parallel edge becomes a loop and is removed
    assert h.m == 0
    assert h.n == 1


def test_edge_ids_survive_operations():
    g = complete_graph(4)
    h = delete_edge(g, 3)
    assert h.edge_ids() == g.edge_ids() - {3}
    h = contract_edge(g, 1)
    assert 1 not in h.edge_ids()
    assert h.edge_ids() <= g.edge_ids()
    h = delete_vertex(g, 0)
    assert h.n == 3
    assert h.edge_ids() == {e for e in g.edges if 0 not in g.endpoints(e)}


def test_deletion_contraction_tree_counts():
    rng = random.Random(7)
    for _ in range(40):
        g = _random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 7))
        for e in g.edges:
            if g.is_loop(e):
                continue
            total = spanning_tree_count(g)
            assert total == spanning_tree_count(delete_edge(g, e)) + spanning_tree_count(
                contract_edge(g, e)
            )


def test_spanning_tree_counts():
    assert spanning_tree_count(complete_graph(5)) == 125
    assert spanning_tree_count(cycle_graph(6)) == 6
    assert spanning_tree_count(path_graph(4)) == 1
    two_cycle = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
    assert spanning_tree_count(two_cycle) == 2
    disconnected = MultiGraph([0, 1, 2], {1: (0, 1)})
    assert spanning_tree_count(disconnected) == 0


def test_spanning_trees_enumeration_matches_determinant():
    rng = random.Random(11)
    for _ in range(25):
        g = _random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 8))
        trees = list(spanning_trees(g))
        assert len(trees) == len(set(trees))
        assert len(trees) == spanning_tree_count(g)
        for t in trees:
            assert len(t) == g.n - 1


def test_connectivity_helpers():
    assert is_connected(triangle())
    assert not is_connected(MultiGraph([0, 1, 2], {1: (0, 1)}))
    comps = connected_components(MultiGraph([0, 1, 2, 3], {1: (0, 1), 2: (2, 3)}))
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
    assert is_k_connected(complete_graph(4), 3)
    assert not is_k_connected(cycle_graph(4), 3)
    assert is_k_connected(cube(), 3)
    assert not is_k_connected(cube(), 4)
    assert is_k_connected(complete_graph(5), 4)
    assert not is_k_connected(wheel(4), 4)


def _nx_k_connected(g: MultiGraph, k: int) -> bool:
    """The second route: networkx's vertex connectivity of the simple graph.

    Graphs on at most one vertex are k-connected only for k <= 0, the
    convention `is_k_connected` keeps; networkx has none of its own there.
    """
    if g.n <= 1:
        return k <= 0
    simple = nx.Graph()
    simple.add_nodes_from(g.vertices)
    simple.add_edges_from((u, v) for u, v in g.edges.values() if u != v)
    return nx.node_connectivity(simple) >= k


@st.composite
def _kconn_multigraphs(draw, max_n=10):
    """A multigraph on at most max_n vertices, loops, parallel edges and
    isolated vertices allowed; dense ones start from K_n with edges dropped."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    ends: list[tuple[int, int]] = []
    if n and draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))
        ends += [p for p, kept in zip(itertools.combinations(range(n), 2), keep) if kept]
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        ends += draw(st.lists(st.tuples(vertex, vertex), max_size=16))
    return MultiGraph(range(n), {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(ends, 1)})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kconn_multigraphs(), st.integers(min_value=0, max_value=5))
def test_is_k_connected_matches_networkx(g, k):
    assert is_k_connected(g, k) == _nx_k_connected(g, k)


def test_is_k_connected_on_tiny_graphs():
    empty = MultiGraph([], {})
    looped = MultiGraph([0], {1: (0, 0), 2: (0, 0)})
    doubled = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (1, 1)})
    for g, top in [(empty, 0), (looped, 0), (doubled, 1)]:
        for k in range(-1, 4):
            assert is_k_connected(g, k) == (k <= top), (g, k)
            assert _nx_k_connected(g, k) == (k <= top), (g, k)


def test_is_k_connected_on_a_large_prism():
    prism = cycle_prism(120)
    assert prism.n == 240
    assert is_k_connected(prism, 3)
    # without the rung at vertex 0, vertices 0 and 120 have degree 2
    rung = next(e for e, uv in prism.edges.items() if uv == (0, 120))
    assert not is_k_connected(delete_edge(prism, rung), 3)


def test_pieces_partition_the_edges():
    g = wheel(5)
    for x in itertools.combinations(sorted(g.vertices), 2):
        ps = pieces(g, x)
        union = frozenset().union(*ps) if ps else frozenset()
        assert union == g.edge_ids()
        assert sum(len(p) for p in ps) == g.m


def _brute_force_separations(g: MultiGraph, max_order: int):
    all_edges = sorted(g.edges)
    out = set()
    for r in range(len(all_edges) + 1):
        for a in itertools.combinations(all_edges, r):
            a = frozenset(a)
            b = g.edge_ids() - a
            if len(boundary(g, a)) <= max_order:
                out.add(a if sorted(a) <= sorted(b) else b)
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
def test_separation_enumeration_matches_brute_force(k):
    for g in [cycle_graph(4), complete_graph(4), path_graph(4), wheel(4)]:
        got = {s.side_a for s in enumerate_low_order_separations(g, k)}
        assert got == _brute_force_separations(g, k)


def test_c4_separations_are_path_pairs():
    g = cycle_graph(4)
    proper = [
        s
        for s in enumerate_low_order_separations(g, 2)
        if is_proper(g, s.side_a) and is_proper(g, s.side_b)
    ]
    for s in proper:
        # both sides of every proper order-2 separation of a cycle are paths
        for side in (s.side_a, s.side_b):
            sub = MultiGraph(g.vertices, {e: g.edges[e] for e in side})
            assert spanning_tree_count(
                MultiGraph(edge_vertices(g, side), {e: g.edges[e] for e in side})
            ) == 1
    assert len(proper) >= 2


def test_k4_has_no_proper_low_order_separation():
    g = complete_graph(4)
    for s in enumerate_low_order_separations(g, 2):
        assert not (len(s.side_a) >= 2 and len(s.side_b) >= 2)


def test_blocks():
    # two triangles sharing a vertex plus a pendant bridge
    g = MultiGraph(
        range(6),
        {
            1: (0, 1),
            2: (1, 2),
            3: (0, 2),
            4: (2, 3),
            5: (3, 4),
            6: (2, 4),
            7: (4, 5),
        },
    )
    got = sorted(sorted(b) for b in blocks(g))
    assert got == [[1, 2, 3], [4, 5, 6], [7]]
    lp = MultiGraph([0], {1: (0, 0)})
    assert blocks(lp) == [frozenset({1})]
    # a path and a cycle deeper than Python's recursion limit
    n = 5000
    path = MultiGraph(range(n), {i + 1: (i, i + 1) for i in range(n - 1)})
    got = blocks(path)
    assert len(got) == n - 1
    assert set(got) == {frozenset({e}) for e in path.edges}
    cycle = MultiGraph(range(n), {**path.edges, n: (0, n - 1)})
    assert blocks(cycle) == [frozenset(cycle.edges)]


def test_triangle_dual_to_parallel_triple():
    tri = triangle()
    band = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})
    assert is_matroid_dual_pair(tri, band, {1: 1, 2: 2, 3: 3})


def test_k4_is_not_self_dual_under_identity():
    k4 = complete_graph(4)
    assert not is_matroid_dual_pair(k4, k4, {e: e for e in k4.edges})


def test_named_dual_pairs_validate():
    names = set()
    for name, g, h, bij in dual_pairs():
        assert is_matroid_dual_pair(g, h, bij)
        names.add(name)
    assert "cube/octahedron" in names or any("cube" in n for n in names)


def test_find_isomorphism_on_relabelled_graphs():
    rng = random.Random(3)
    for g in [cube(), wheel(5), complete_bipartite(3, 3), octahedron()]:
        perm = dict(zip(sorted(g.vertices), rng.sample(sorted(g.vertices), g.n)))
        edges = {
            e + 10: (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for e, (u, v) in g.edges.items()
        }
        h = MultiGraph(g.vertices, edges)
        f = find_isomorphism(g, h)
        assert f is not None
        for u, v in g.edges.values():
            assert any(
                set(h.endpoints(e)) == {f[u], f[v]} for e in h.edges
            )


def test_find_isomorphism_rejects_distinct_graphs():
    assert find_isomorphism(complete_bipartite(3, 3), prism_like()) is None
    assert find_isomorphism(cycle_graph(6), path_graph(7)) is None
    # same degree sequence, different graphs
    g = cycle_graph(6)
    h = MultiGraph(range(6), {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (3, 4), 5: (4, 5), 6: (3, 5)})
    assert find_isomorphism(g, h) is None


def _is_isomorphism(g: MultiGraph, h: MultiGraph, f: dict[int, int]) -> bool:
    def pairs(graph, name):
        return sorted(tuple(sorted((name[u], name[v]))) for u, v in graph.edges.values())

    return sorted(f) == sorted(g.vertices) and pairs(g, f) == pairs(h, {v: v for v in h.vertices})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_multigraphs(max_vertices=6), st.randoms(use_true_random=False))
def test_isomorphisms_count_the_automorphisms_by_brute_force(g, rng):
    autos = list(isomorphisms(g, g))
    assert len(autos) == automorphism_count_by_permutations(g)
    assert len({tuple(sorted(f.items())) for f in autos}) == len(autos)
    assert all(_is_isomorphism(g, g, f) for f in autos)
    # a relabelled copy: as many maps, each an isomorphism, also from prepared sides
    verts = sorted(g.vertices)
    name = dict(zip(verts, rng.sample(range(40), len(verts))))
    h = MultiGraph(name.values(), {e + 7: (name[u], name[v]) for e, (u, v) in g.edges.items()})
    maps = list(isomorphisms(g, h))
    assert len(maps) == len(autos)
    assert all(_is_isomorphism(g, h, f) for f in maps)
    assert list(isomorphisms(_IsoSide(g), _IsoSide(h))) == maps
    assert find_isomorphism(g, h) == maps[0]


def test_automorphism_group_orders():
    orders = {
        "K4": (complete_graph(4), 24),
        "K5": (complete_graph(5), 120),
        "K3,3": (complete_bipartite(3, 3), 72),
        "prism": (prism_like(), 12),
        "W5": (wheel(5), 10),
        "cube": (cube(), 48),
        "octahedron": (octahedron(), 48),
    }
    for label, (g, order) in orders.items():
        assert sum(1 for _ in isomorphisms(g, g)) == order, label


def test_find_isomorphism_returns_the_first_map_yielded():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = _random_multigraph(rng, n, rng.randint(0, 8))
        h = _random_multigraph(rng, n, g.m) if rng.random() < 0.5 else g
        assert find_isomorphism(g, h) == next(isomorphisms(g, h), None)
    assert find_isomorphism(cycle_graph(6), path_graph(7)) is None
    assert next(isomorphisms(complete_bipartite(3, 3), prism_like()), None) is None


def prism_like() -> MultiGraph:
    from fivesplit.named_graphs import prism

    return prism()


def test_find_isomorphism_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 6)
        g = _random_simple(rng, n)
        h = _random_simple(rng, n)
        mine = find_isomorphism(g, h) is not None
        ref = nx.is_isomorphic(_to_nx(g), _to_nx(h))
        assert mine == ref


def _random_simple(rng: random.Random, n: int) -> MultiGraph:
    pairs = list(itertools.combinations(range(n), 2))
    chosen = [p for p in pairs if rng.random() < 0.5]
    return MultiGraph(range(n), {i + 1: p for i, p in enumerate(chosen)})


def _to_nx(g: MultiGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges.values())
    return out


def test_graph6_matches_networkx():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = _random_simple(rng, n)
        line = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        back = from_graph6(line)
        assert back.n == g.n
        assert find_isomorphism(back, g) is not None


def test_text_format_round_trip():
    g = wheel(4)
    text = render_graph_text(g, contract_protected=[1, 2], delete_protected=[5])
    back, prot = parse_graph_text(text)
    assert back.key() == g.key()
    assert prot["c"] == frozenset({1, 2})
    assert prot["d"] == frozenset({5})


def test_text_format_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_graph_text("")
    with pytest.raises(ValueError):
        parse_graph_text("2\n1 0 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("2 1\n1 0 5\n")
    with pytest.raises(ValueError):
        parse_graph_text("2 1\n1 0 1\nq: 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("2 1\n1 0 1\nc: 9\n")


def test_load_graph_accepts_both_formats():
    g1, _ = load_graph(render_graph_text(triangle()))
    assert g1.key() == triangle().key()
    line = nx.to_graph6_bytes(_to_nx(complete_graph(4)), header=False).decode().strip()
    g2, prot = load_graph(line)
    assert find_isomorphism(g2, complete_graph(4)) is not None
    assert prot["c"] == frozenset()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(FUZZ_GRAPH_TEXT)
def test_graph_parsers_raise_only_value_error(text):
    for parse in (parse_graph_text, load_graph, from_graph6):
        try:
            parse(text)
        except ValueError:
            pass


def test_parsers_refuse_vertex_counts_above_the_cap():
    g, _ = parse_graph_text(f"{_MAX_PARSED_VERTICES} 0")
    assert g.n == _MAX_PARSED_VERTICES
    start = time.perf_counter()
    # cap + 1 first: if it parsed, the nine-digit count would fill the memory
    for n in (_MAX_PARSED_VERTICES + 1, 999_999_999):
        for parse in (parse_graph_text, load_graph):
            with pytest.raises(ValueError, match=f"vertex count {n} exceeds the limit"):
                parse(f"{n} 0\n")
    assert time.perf_counter() - start < 1.0
