"""Minor containment, canonical forms, enhanced reductions, catalog encoding."""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivesplit.minors as minors_module
from fivesplit.graph_core import _MAX_PARSED_VERTICES, MultiGraph, find_isomorphism
from fivesplit.minors import (
    CatalogEntry,
    MinorPattern,
    _connected_vertex_masks,
    _least_encoding,
    _minor_search,
    _peripheral_cycles,
    _reduces_exactly,
    _simplified,
    assign_dual_partners,
    canonical_form,
    canonical_graph_key,
    canonical_labeling,
    enhanced_children,
    f0,
    f0_free,
    family_label,
    has_minor,
    parse_catalog,
    render_catalog,
)
from fivesplit.named_graphs import (
    ALIASES,
    NAMED_GRAPHS,
    _from_pairs,
    complete_bipartite,
    complete_graph,
    cube,
    double_fan,
    double_fan_faces,
    dual_from_faces,
    h_graph,
    k5_minus,
    named_graph,
    octahedron,
    prism,
    prism_plus,
    wheel,
)
from fivesplit.search import SearchConfig, build_catalog, enumerate_underlying
from fivesplit.splitting import EnhancedGraph, config_splits, plain
from builders import (
    K4_CATALOG_LINE,
    chain_of_k4s,
    cube_faces,
    cycle_graph,
    cycle_prism,
    h_graph_from_octahedron,
    k5_minus_faces,
    path_graph,
    prism_plus_faces,
    subdivided,
    wheel_faces,
)
import oracles
from oracles import (
    _has_minor_recursive,
    enhanced_has_minor,
    family_label_by_canonical_keys,
    is_matroid_dual_pair,
    least_encoding_by_product,
)


def test_basic_minor_facts():
    assert not has_minor(cube(), complete_graph(5))
    assert has_minor(h_graph(), complete_graph(4))
    assert has_minor(complete_graph(5), complete_graph(4))
    assert has_minor(cube(), cube())
    assert has_minor(cube(), complete_graph(4))
    assert has_minor(octahedron(), complete_graph(4))
    assert not has_minor(complete_graph(4), complete_graph(5))
    assert has_minor(cycle_graph(5), complete_graph(3))
    assert not has_minor(path_graph(5), cycle_graph(3))
    assert has_minor(cycle_graph(3), cycle_graph(3))


def test_minor_respects_multiplicities():
    double = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
    single_host = path_graph(3)
    assert not has_minor(single_host, double)
    assert not has_minor(path_graph(4), double)
    assert has_minor(cycle_graph(4), double)


def test_pattern_validation():
    with pytest.raises(ValueError):
        MinorPattern("loop", MultiGraph([0], {1: (0, 0)}))
    with pytest.raises(ValueError):
        has_minor(cube(), MultiGraph([0], {1: (0, 0)}))


def test_f0_membership():
    names = [p.name for p in f0()]
    assert sorted(names) == ["C", "H", "K3,3", "K5", "O"]
    for p in f0():
        assert not f0_free(p.graph)
    assert f0_free(complete_graph(4))
    for k in (3, 4, 5, 6):
        assert f0_free(wheel(k))
    assert f0_free(prism())
    assert not f0_free(complete_graph(6))


def test_h_graph_constructions_agree():
    assert find_isomorphism(h_graph(), h_graph_from_octahedron()) is not None


def test_recursive_oracle_agrees_on_census_hosts():
    pats = f0()
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            for p in pats:
                assert has_minor(g, p) == _has_minor_recursive(g, p.graph)


# -- the reduced-block search -------------------------------------------------

_DOUBLE_EDGE = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
_K4_PENDANT = MultiGraph(range(5), {**complete_graph(4).edges, 7: (3, 4)})


def _glued(g: MultiGraph, h: MultiGraph, pairs: dict[int, int]) -> MultiGraph:
    """Disjoint union of g and h, with h's vertex v identified with g's pairs[v]."""
    off = max(g.vertices) + 1
    label = {v: pairs.get(v, off + v) for v in h.vertices}
    top = max(g.edges, default=0)
    edges = {**g.edges, **{top + e: (label[u], label[v]) for e, (u, v) in h.edges.items()}}
    return MultiGraph(g.vertices | set(label.values()), edges)


def _two_sum(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    """Glue h's lowest edge onto g's lowest edge, then delete both."""
    (e, (a, b)), (f, (c, d)) = min(g.edges.items()), min(h.edges.items())
    glued = _glued(g, MultiGraph(h.vertices, {i: uv for i, uv in h.edges.items() if i != f}),
                   {c: a, d: b})
    return MultiGraph(glued.vertices, {i: uv for i, uv in glued.edges.items() if i != e})


def _assert_routes_agree(host: MultiGraph, pattern: MultiGraph) -> bool:
    """has_minor against the unreduced search, and against the recursive oracle
    where the pattern is simple and the recursion is short."""
    want = _minor_search(host, pattern)
    assert has_minor(host, pattern) == want
    simple = len(set(pattern.edges.values())) == pattern.m
    if simple and _simplified(host).m - pattern.m <= 4:
        assert _has_minor_recursive(host, pattern) == want
    return want


def test_reduction_applies_to_simple_2_connected_patterns_of_min_degree_3():
    assert all(_reduces_exactly(build()) for build in NAMED_GRAPHS.values())
    k4_bowtie = _glued(complete_graph(4), complete_graph(4), {0: 3})
    for pattern in (_DOUBLE_EDGE, cycle_graph(4), _K4_PENDANT, path_graph(1),
                    k4_bowtie, MultiGraph([], {})):
        assert not _reduces_exactly(pattern)


def test_patterns_outside_the_reduction_keep_their_answers():
    # each host would reduce to nothing, or lose the pendant edge
    assert has_minor(cycle_graph(4), cycle_graph(4))
    assert has_minor(cycle_graph(4), _DOUBLE_EDGE)
    assert has_minor(_K4_PENDANT, _K4_PENDANT)
    assert has_minor(_glued(complete_graph(4), complete_graph(4), {0: 3}),
                     _glued(complete_graph(4), complete_graph(4), {0: 3}))


@st.composite
def _messy_hosts(draw, max_n=10):
    """A multigraph of any connectivity on at most max_n vertices.

    A random base graph, or a registry graph, then a few steps that each add a
    loop, a parallel edge, a pendant vertex, a subdivision vertex or a triangle
    hung on a cut vertex.
    """
    if draw(st.booleans()):
        g = named_graph(draw(st.sampled_from(sorted(NAMED_GRAPHS))))
        label = {v: i for i, v in enumerate(sorted(g.vertices))}
        ends = [(label[u], label[v]) for u, v in g.edges.values()]
        n = g.n
    else:
        n = draw(st.integers(min_value=1, max_value=max_n - 2))
        vertex = st.integers(min_value=0, max_value=n - 1)
        ends = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    for step in draw(st.lists(st.integers(min_value=0, max_value=4), max_size=4)):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if step == 0:
            ends.append((v, v))
        elif step == 1 and ends:
            ends.append(draw(st.sampled_from(ends)))
        elif step == 2 and n < max_n:
            ends.append((v, n))
            n += 1
        elif step == 3 and ends and n < max_n:
            a, b = ends.pop(draw(st.integers(min_value=0, max_value=len(ends) - 1)))
            ends += [(a, n), (n, b)]
            n += 1
        elif step == 4 and n + 2 <= max_n:
            ends += [(v, n), (v, n + 1), (n, n + 1)]
            n += 2
    return MultiGraph(range(n), {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(ends, 1)})


_PATTERNS = [named_graph(name) for name in sorted(NAMED_GRAPHS)]
_PATTERNS += [_DOUBLE_EDGE, cycle_graph(4), _K4_PENDANT]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_messy_hosts(), st.sampled_from(_PATTERNS))
def test_reduced_search_agrees_on_messy_multigraphs(host, pattern):
    _assert_routes_agree(host, pattern)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    g = nx.empty_graph(n)
    g.add_edges_from((u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex))) if u != v)
    return g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_graphs())
def test_connected_vertex_masks_match_brute_force(g):
    adj = [sum(1 << w for w in g[v]) for v in range(len(g))]
    want = []
    for size in range(1, len(g) + 1):
        for subset in itertools.combinations(range(len(g)), size):
            if nx.is_connected(g.subgraph(subset)):
                mask = sum(1 << v for v in subset)
                reach = 0
                for v in subset:
                    reach |= adj[v]
                want.append((mask, reach & ~mask))
    want.sort(key=lambda mr: (mr[0].bit_count(), mr[0]))
    assert _connected_vertex_masks(adj) == want


def test_reduced_search_agrees_on_registry_graphs():
    for host in NAMED_GRAPHS.values():
        for pattern in NAMED_GRAPHS.values():
            _assert_routes_agree(host(), pattern())


def test_f0_graphs_survive_two_sums_and_subdivisions():
    pats = f0()
    for p in pats:
        for q in [*pats, MinorPattern("K4", complete_graph(4))]:
            s = _two_sum(p.graph, q.graph)
            assert _assert_routes_agree(s, p.graph)
            assert has_minor(s, q.graph)
        once = subdivided(p.graph, 1)
        assert has_minor(once, p)
        if once.n <= 16:
            assert _minor_search(once, p.graph)


def test_large_hosts_with_small_reduced_blocks_get_answers():
    chain = chain_of_k4s(6)
    assert chain.n == 19
    with pytest.raises(ValueError, match="at most 16 vertices"):
        _minor_search(chain, complete_graph(4))
    assert has_minor(chain, complete_graph(4))
    assert not has_minor(chain, complete_graph(5))
    assert f0_free(chain)
    k33 = complete_bipartite(3, 3)
    twice = subdivided(k33, 2)
    assert twice.n == 24
    assert has_minor(twice, k33)
    assert not has_minor(twice, complete_graph(5))


def test_large_reduced_blocks_are_refused_before_any_search(monkeypatch):
    searched = []
    monkeypatch.setattr(
        minors_module, "_minor_search", lambda *args: searched.append(args) or True
    )
    prism9 = cycle_prism(9)
    # a K3,3 block that would answer at once, hung on the prism by a cut vertex
    host = _glued(complete_bipartite(3, 3), prism9, {0: 0})
    # the 600-prism, as host or as pattern, is deeper than Python's recursion limit
    big = cycle_prism(600)
    for g, patterns in ((prism9, f0()), (host, f0()), (big, [*f0(), big])):
        for p in patterns:
            with pytest.raises(ValueError, match="at most 16 vertices"):
                has_minor(g, p)
    # a pattern larger than every block of the host is absent, as before
    assert not has_minor(complete_graph(5), big)
    assert searched == []


_THETA = MultiGraph(range(5), {1: (0, 2), 2: (2, 1), 3: (0, 3), 4: (3, 1), 5: (0, 4), 6: (4, 1)})
_ONE_BLOCK_PATTERNS = [path_graph(1), _DOUBLE_EDGE, cycle_graph(3), cycle_graph(4),
                       cycle_graph(5), _THETA, MultiGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})]


def test_one_block_patterns_are_found_in_the_blocks_of_large_hosts():
    chain = chain_of_k4s(6)
    assert chain.n == 19
    for pattern, found in ((cycle_graph(4), True), (_DOUBLE_EDGE, True),
                           (cycle_graph(5), False), (_THETA, False)):
        assert not _reduces_exactly(pattern)
        assert has_minor(chain, pattern) == found
        for count in (1, 2):
            small = chain_of_k4s(count)
            assert has_minor(small, pattern) == _minor_search(small, pattern) == found
            if len(set(pattern.edges.values())) == pattern.m:
                assert _has_minor_recursive(small, pattern) == found
    # a pendant edge, a second component or an isolated vertex keeps the
    # whole-host search and its limit
    for pattern in (_K4_PENDANT, _glued(cycle_graph(4), path_graph(1), {}),
                    MultiGraph(range(5), cycle_graph(4).edges)):
        with pytest.raises(ValueError, match="at most 16 vertices"):
            has_minor(chain, pattern)


def test_one_block_patterns_check_the_limit_on_blocks_before_any_search(monkeypatch):
    searched = []
    monkeypatch.setattr(
        minors_module, "_minor_search", lambda *args: searched.append(args) or True
    )
    # a K4 block would answer at once, but the 9-prism block is too large
    host = _glued(complete_graph(4), cycle_prism(9), {0: 0})
    for pattern in (cycle_graph(4), _DOUBLE_EDGE):
        with pytest.raises(ValueError, match="at most 16 vertices"):
            has_minor(host, pattern)
    assert searched == []
    # a triangle with a 20-edge tail: the bridges are smaller than the
    # pattern, so only the triangle is searched
    tail = _glued(cycle_graph(3), path_graph(20), {0: 0})
    assert tail.n == 23
    assert has_minor(tail, cycle_graph(3))
    assert [args[0].n for args in searched] == [3]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_messy_hosts(), st.sampled_from(_ONE_BLOCK_PATTERNS))
def test_one_block_patterns_agree_on_messy_multigraphs(host, pattern):
    _assert_routes_agree(host, pattern)


def _relabel(eg: EnhancedGraph, rng: random.Random) -> EnhancedGraph:
    g = eg.graph
    vperm = dict(zip(sorted(g.vertices), rng.sample(sorted(g.vertices), g.n)))
    eids = sorted(g.edges)
    eperm = dict(zip(eids, rng.sample(range(101, 101 + g.m), g.m)))
    edges = {eperm[e]: (vperm[u], vperm[v]) for e, (u, v) in g.edges.items()}
    return (
        EnhancedGraph(
            MultiGraph(g.vertices, edges),
            frozenset(eperm[e] for e in eg.contract_protected),
            frozenset(eperm[e] for e in eg.delete_protected),
        ),
        eperm,
    )


GOLDEN = Path(__file__).resolve().parent.parent / "data" / "catalog_max11.txt"


def _circulant(n: int, steps: tuple[int, ...]) -> MultiGraph:
    pairs = {(min(i, (i + s) % n), max(i, (i + s) % n)) for i in range(n) for s in steps}
    return _from_pairs(n, sorted(pairs))


def _petersen() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _from_pairs(10, outer + inner + [(i, i + 5) for i in range(5)])


_K3_BOX_K3 = _from_pairs(9, [
    (u, v) for u, v in itertools.combinations(range(9), 2) if u // 3 == v // 3 or u % 3 == v % 3
])

_SYMMETRIC_GRAPHS = {
    "cube": cube(),
    "octahedron": octahedron(),
    "K4,4": complete_bipartite(4, 4),
    "K3xK3": _K3_BOX_K3,
    "C8(1,2)": _circulant(8, (1, 2)),
    "C8(1,3)": _circulant(8, (1, 3)),
    "C8(1,4)": _circulant(8, (1, 4)),
    "C9(1,2)": _circulant(9, (1, 2)),
    "C9(1,3)": _circulant(9, (1, 3)),
    "doubled C9": _from_pairs(9, list(_circulant(9, (1,)).edges.values()) * 2),
    "9 isolated": MultiGraph(range(9), {}),
    "3 triangles": _from_pairs(9, [(3 * t + a, 3 * t + b) for t in range(3)
                                       for a, b in ((0, 1), (0, 2), (1, 2))]),
}


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(3)
    base = EnhancedGraph(wheel(4), frozenset({1, 5}), frozenset({2}))
    key = canonical_form(base, frozenset({1, 2, 5, 6, 7}))
    for _ in range(6):
        other, eperm = _relabel(base, rng)
        cfg = frozenset(eperm[e] for e in (1, 2, 5, 6, 7))
        assert canonical_form(other, cfg) == key


def test_canonical_form_sees_colors():
    g = wheel(4)
    a = canonical_form(EnhancedGraph(g, frozenset({1}), frozenset()))
    b = canonical_form(EnhancedGraph(g, frozenset(), frozenset({1})))
    c = canonical_form(EnhancedGraph(g))
    d = canonical_form(EnhancedGraph(g), frozenset({1, 2, 5, 6, 7}))
    assert len({a, b, c, d}) == 4
    assert canonical_graph_key(g) == canonical_form(EnhancedGraph(g))


def test_canonical_labeling_round_trip():
    rng = random.Random(5)
    base = EnhancedGraph(prism(), frozenset({1, 4}), frozenset({2}))
    canon, cfg, emap = canonical_labeling(base, frozenset({1, 2, 3, 4, 5}))
    assert sorted(canon.graph.edges) == list(range(1, base.graph.m + 1))
    assert sorted(canon.graph.vertices) == list(range(base.graph.n))
    assert cfg == frozenset(emap[e] for e in (1, 2, 3, 4, 5))
    assert canon.contract_protected == frozenset(emap[e] for e in (1, 4))
    assert canon.delete_protected == frozenset({emap[2]})
    assert canonical_form(canon) == canonical_form(base)
    other, eperm = _relabel(base, rng)
    canon2, _, _ = canonical_labeling(other)
    assert canonical_form(canon2) == canonical_form(canon)


def test_canonical_form_rejects_oversized_graphs(monkeypatch):
    def no_search(*args):
        raise AssertionError("the canonical search ran")

    # both limits are checked before any search
    monkeypatch.setattr(minors_module, "_least_order", no_search)
    big = cycle_graph(13)
    with pytest.raises(ValueError):
        canonical_form(EnhancedGraph(big))
    # 10! orderings of the isolated vertices and 3,628,800 of the Petersen
    # graph's one refined cell are both above the 2,000,000 limit
    for g in (MultiGraph(range(10), {}), _petersen()):
        with pytest.raises(ValueError, match="too symmetric"):
            canonical_form(EnhancedGraph(g))


def test_least_encoding_matches_the_product_on_the_catalog():
    # the pruned search returns the brute force's encoding and the very
    # positions it kept, so canonical labellings do not move
    entries = parse_catalog(GOLDEN.read_text())
    assert len(entries) == 36
    for entry in entries:
        for config in (entry.witness, None):
            assert _least_encoding(entry.enhanced, config) == least_encoding_by_product(
                entry.enhanced, config
            )


def test_least_encoding_matches_the_product_on_census_hosts():
    rng = random.Random(23)
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            base = EnhancedGraph(g)
            assert _least_encoding(base, None) == least_encoding_by_product(base, None)
            for _ in range(2):
                other, _ = _relabel(base, rng)
                ids = sorted(other.graph.edges)
                eg = EnhancedGraph(
                    other.graph, frozenset(rng.sample(ids, 2)), frozenset(rng.sample(ids, 2))
                )
                witness = frozenset(rng.sample(ids, 5))
                assert _least_encoding(eg, witness) == least_encoding_by_product(eg, witness)


@pytest.mark.parametrize("name", sorted(_SYMMETRIC_GRAPHS))
def test_least_encoding_matches_the_product_on_symmetric_graphs(name):
    eg = EnhancedGraph(_SYMMETRIC_GRAPHS[name])
    assert _least_encoding(eg, None) == least_encoding_by_product(eg, None)


@st.composite
def _coloured_multigraphs(draw, max_vertices: int = 9, min_edges: int = 0):
    """Up to max_vertices vertices with gaps in their labels and min_edges to
    14 edges: loops, parallel edges, isolated vertices, protections and
    perhaps a witness."""
    labels = sorted(draw(st.sets(st.integers(min_value=0, max_value=20), min_size=1,
                                 max_size=max_vertices)))
    vertex = st.sampled_from(labels)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=min_edges, max_size=14))
    g = MultiGraph(labels, {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(ends, 1)})
    ids = sorted(g.edges)
    c = draw(st.sets(st.sampled_from(ids))) if ids else set()
    d = draw(st.sets(st.sampled_from(ids))) if ids else set()
    config = draw(st.none() | st.sets(st.sampled_from(ids), max_size=5)) if ids else None
    return EnhancedGraph(g, frozenset(c), frozenset(d)), config


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coloured_multigraphs())
def test_least_encoding_matches_the_product_on_multigraphs(case):
    eg, config = case
    assert _least_encoding(eg, config) == least_encoding_by_product(eg, config)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_coloured_multigraphs(max_vertices=7, min_edges=7))
def test_least_encoding_matches_the_product_in_one_cell(case):
    # With every vertex in one cell, twins must also agree on their loops,
    # and a branch that ties with the best order must go on.
    eg, config = case
    with pytest.MonkeyPatch.context() as mp:
        for module in (minors_module, oracles):
            mp.setattr(module, "_refined_cells", lambda g, colors: [sorted(g.vertices)])
        assert _least_encoding(eg, config) == least_encoding_by_product(eg, config)


def test_nine_isolated_vertices_are_canonical_at_once():
    # 362,880 orderings: under the limit, and the twins leave one branch
    start = time.perf_counter()
    key = canonical_form(EnhancedGraph(MultiGraph(range(9), {})))
    assert time.perf_counter() - start < 1.0
    assert key == (9, ())


def test_enhanced_children_operations():
    g = complete_graph(4)
    eg = EnhancedGraph(g, frozenset({1}), frozenset({2}))
    kids = dict(enhanced_children(eg))
    assert f"unprotect contract 1" in kids
    assert f"unprotect delete 2" in kids
    assert "delete edge 2" not in kids  # edge 2 is delete-proof
    assert "delete edge 1" in kids
    assert "contract edge 1" not in kids  # edge 1 is contract-proof
    assert "contract edge 2" in kids
    assert "delete vertex 0" in kids
    # determinism
    names = [name for name, _ in enhanced_children(eg)]
    assert names == [name for name, _ in enhanced_children(eg)]
    # protection removals come first
    assert names[:2] == ["unprotect contract 1", "unprotect delete 2"]


def test_parallel_merge_child():
    g = MultiGraph([0, 1, 2], {1: (0, 1), 2: (0, 1), 3: (1, 2)})
    eg = EnhancedGraph(g)
    kids = dict(enhanced_children(eg))
    child = kids["merge parallel 2 into 1"]
    assert child.graph.edge_ids() == frozenset({1, 3})
    assert 1 in child.delete_protected
    # a delete-proof parallel cannot be dropped
    eg2 = EnhancedGraph(g, frozenset(), frozenset({2}))
    assert "merge parallel 2 into 1" not in dict(enhanced_children(eg2))
    assert "merge parallel 1 into 2" in dict(enhanced_children(eg2))


def test_degree_two_smooth_child():
    g = path_graph(2)  # 0 -1- 1 -2- 2 with middle vertex 1
    eg = EnhancedGraph(g)
    kids = dict(enhanced_children(eg))
    child = kids["smooth degree-2 vertex 1 contracting 2"]
    assert child.graph.edge_ids() == frozenset({1})
    assert 1 in child.contract_protected
    # a contract-proof edge cannot be smoothed away
    eg2 = EnhancedGraph(g, frozenset({2}), frozenset())
    assert "smooth degree-2 vertex 1 contracting 2" not in dict(enhanced_children(eg2))


def test_enhanced_minor_weight_monotone():
    eg = EnhancedGraph(complete_graph(4), frozenset({1, 2}), frozenset({3}))
    for _, child in enhanced_children(eg):
        assert child.weight <= eg.weight
        assert enhanced_has_minor(eg, child)


def test_enhanced_has_minor_basics():
    s = frozenset({1, 2, 3, 4, 5})
    k41 = EnhancedGraph(complete_graph(4), s, s)
    assert enhanced_has_minor(k41, k41)
    # a heavier pattern can never be a minor
    w4 = EnhancedGraph(wheel(4), frozenset({5, 6, 7, 8}), frozenset({1}))
    assert not enhanced_has_minor(k41, w4)
    assert enhanced_has_minor(plain(complete_graph(5)), plain(complete_graph(4)))
    assert not enhanced_has_minor(plain(complete_graph(5)), k41)


def test_catalog_round_trip():
    entries = build_catalog(SearchConfig(max_edges=8))
    text = render_catalog(entries)
    back = parse_catalog(text)
    assert len(back) == len(entries)
    for a, b in zip(entries, back):
        assert canonical_form(a.enhanced, a.witness) == canonical_form(b.enhanced, b.witness)
        assert a.family == b.family
        assert a.weight == b.weight
        assert a.dual_partner == b.dual_partner
    assert render_catalog(back) == text


def test_catalog_rejects_damage():
    entries = build_catalog(SearchConfig(max_edges=6))
    text = render_catalog(entries)
    with pytest.raises(ValueError):
        parse_catalog(text.replace("K4", "K4|extra"))
    with pytest.raises(ValueError):
        parse_catalog("garbage line\n")


@st.composite
def _damaged_catalogs(draw):
    """The K4 catalog line with up to three fields replaced by short junk."""
    fields = K4_CATALOG_LINE.split("|")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        fields[i] = draw(st.text(alphabet="0123456789-:,|cdx? ", max_size=6))
    return "# schema 1\n" + "|".join(fields) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=80), _damaged_catalogs()))
def test_parse_catalog_raises_only_value_error(text):
    try:
        parse_catalog(text)
    except ValueError:
        pass


def test_parse_catalog_refuses_vertex_counts_above_the_cap():
    (entry,) = parse_catalog(K4_CATALOG_LINE.replace("4|", f"{_MAX_PARSED_VERTICES}|", 1))
    assert entry.enhanced.graph.n == _MAX_PARSED_VERTICES
    start = time.perf_counter()
    # cap + 1 first: if it parsed, the nine-digit count would fill the memory
    for n in (_MAX_PARSED_VERTICES + 1, 999_999_999):
        with pytest.raises(ValueError, match=f"vertex count {n} exceeds the limit"):
            parse_catalog(K4_CATALOG_LINE.replace("4|", f"{n}|", 1))
    assert time.perf_counter() - start < 1.0


def test_family_labels():
    assert family_label(complete_graph(4)) == "K4"
    assert family_label(wheel(4)) == "W4"
    assert family_label(wheel(5)) == "W5"
    assert family_label(complete_bipartite(3, 3)) == "K3,3"
    assert family_label(prism()) == "P"
    assert family_label(path_graph(3)) == "?"
    for name, build in NAMED_GRAPHS.items():
        assert family_label(build()) == name
    assert family_label(named_graph("cube")) == "C"
    assert family_label(named_graph("octahedron")) == "O"


def test_family_label_agrees_with_the_canonical_key_lookup():
    rng = random.Random(20)
    graphs = [g for m in range(6, 12) for g in enumerate_underlying(m)]
    graphs += [build() for build in NAMED_GRAPHS.values()]
    graphs += [named_graph(alias) for alias in ALIASES]
    graphs += [_relabel(plain(g), rng)[0].graph for g in graphs]
    graphs.append(path_graph(3))
    for g in graphs:
        assert family_label(g) == family_label_by_canonical_keys(g)
    assert family_label(path_graph(3)) == "?"


def test_dual_bijection_cube_octahedron():
    bij = oracles.find_dual_bijection(cube(), octahedron(), {}, {})
    assert bij is not None
    assert is_matroid_dual_pair(cube(), octahedron(), bij)
    assert oracles.find_dual_bijection(wheel(4), wheel(4), {}, {}) is not None
    assert oracles.find_dual_bijection(cube(), cube(), {}, {}) is None
    assert oracles.find_dual_bijection(complete_graph(4), complete_graph(4), {}, {}) is not None


def test_dual_bijection_respects_tags():
    g = wheel(4)
    # spokes of a wheel map to rim edges of the dual wheel; tagging one spoke
    # as contract-proof forces its image to be delete-proof
    tags_g = {e: ("c" if e == 5 else None) for e in g.edges}
    for target_tag in ("c", None):
        tags_h = {e: (target_tag if e == 1 else None) for e in g.edges}
        bij = oracles.find_dual_bijection(g, g, tags_g, tags_h)
        if target_tag == "c":
            # tags travel as given: matching c-tag must land on edge 1
            assert bij is None or bij[5] == 1
        else:
            assert bij is None or bij[5] != 1


def test_assign_dual_partners_on_small_catalog():
    entries = build_catalog(SearchConfig(max_edges=8))
    withp = assign_dual_partners([e.with_partner(None) for e in entries])
    for i, entry in enumerate(withp):
        assert entry.dual_partner is not None
        j = entry.dual_partner
        assert withp[j].dual_partner == i
        assert withp[j].weight == entry.weight
    # K4(1) is self-dual
    k4_idx = next(i for i, e in enumerate(withp) if e.family == "K4")
    assert withp[k4_idx].dual_partner == k4_idx


# -- faces and dual partners from peripheral cycles ---------------------------


def _faces_by_networkx(g: MultiGraph) -> list[frozenset[int]] | None:
    """The faces of a simple graph's plane embedding found by networkx, or None
    when networkx finds it non-planar."""
    planar, emb = nx.check_planarity(nx.Graph(list(g.edges.values())))
    if not planar:
        return None
    eid = {frozenset(uv): e for e, uv in g.edges.items()}
    faces, seen = [], set()
    for u, v in emb.edges():
        if (u, v) not in seen:
            cyc = emb.traverse_face(u, v, mark_half_edges=seen)
            faces.append(frozenset(eid[frozenset(p)] for p in zip(cyc, cyc[1:] + cyc[:1])))
    return faces


def _on_two_faces(g: MultiGraph) -> bool:
    faces = _peripheral_cycles(g)
    return all(sum(e in f for f in faces) == 2 for e in g.edges)


def test_peripheral_cycles_are_the_curated_faces():
    cases = [
        (cube(), cube_faces()),
        (wheel(4), wheel_faces(4)),
        (wheel(5), wheel_faces(5)),
        (k5_minus(), k5_minus_faces()),
        (prism_plus(), prism_plus_faces()),
        (double_fan(), double_fan_faces()),
    ]
    for g, faces in cases:
        assert set(_peripheral_cycles(g)) == set(faces)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        cycles = _peripheral_cycles(g)
        assert max(sum(e in c for c in cycles) for e in g.edges) >= 3


def test_peripheral_cycles_decide_planarity_on_the_census():
    planar = 0
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            two = _on_two_faces(g)
            assert two == (not has_minor(g, complete_graph(5))
                           and not has_minor(g, complete_bipartite(3, 3)))
            faces = _faces_by_networkx(g)
            assert (faces is not None) == two
            if two:
                assert set(_peripheral_cycles(g)) == set(faces)
                planar += 1
    assert planar == 22


def test_split_verdicts_transfer_to_the_dual_of_every_planar_census_graph():
    configs = 0
    for m in range(6, 13):
        for g in enumerate_underlying(m):
            if not _on_two_faces(g):
                continue
            dual = dual_from_faces(g, _peripheral_cycles(g))
            assert is_matroid_dual_pair(g, dual, {e: e for e in g.edges})
            for s in itertools.combinations(sorted(g.edges), 5):
                assert config_splits(g, s).splits == config_splits(dual, s).splits
                configs += 1
    assert configs == 12_170


def _entry(eg: EnhancedGraph) -> CatalogEntry:
    return CatalogEntry(eg, frozenset(), "?", eg.weight, None)


def _shuffled_pool(m: int, rng: random.Random) -> list[CatalogEntry]:
    """Two randomly protected, relabelled copies of each census graph with m
    edges and, for most planar copies, the relabelled networkx dual with C and
    D swapped, one entry per canonical form, shuffled."""
    pool: list[EnhancedGraph] = []
    for g in enumerate_underlying(m):
        faces = _faces_by_networkx(g)
        for _ in range(2):
            c = frozenset(e for e in g.edges if rng.random() < 0.3)
            d = frozenset(e for e in g.edges if rng.random() < 0.3)
            pool.append(_relabel(EnhancedGraph(g, c, d), rng)[0])
            if faces is not None and rng.random() < 0.7:
                dual = EnhancedGraph(dual_from_faces(g, faces), d, c)
                pool.append(_relabel(dual, rng)[0])
    rng.shuffle(pool)
    keyed = {}
    for eg in pool:
        keyed.setdefault(canonical_form(eg), eg)
    return [_entry(eg) for eg in keyed.values()]


def _assert_partners_are_matroid_duals(entries: list[CatalogEntry]) -> None:
    """Each partner is reached from its entry by a matroid-dual bijection that
    carries C onto D and D onto C: the dual's edge ids, composed with the
    canonical labellings of the swapped dual and of the partner."""
    for ent in entries:
        if ent.dual_partner is None:
            continue
        a, b = ent.enhanced, entries[ent.dual_partner].enhanced
        dual = dual_from_faces(a.graph, _peripheral_cycles(a.graph))
        _, _, to_canon = canonical_labeling(
            EnhancedGraph(dual, a.delete_protected, a.contract_protected)
        )
        _, _, b_to_canon = canonical_labeling(b)
        from_canon = {c: f for f, c in b_to_canon.items()}
        bij = {e: from_canon[to_canon[e]] for e in a.graph.edges}
        assert is_matroid_dual_pair(a.graph, b.graph, bij)
        assert {bij[e] for e in a.contract_protected} == b.delete_protected
        assert {bij[e] for e in a.delete_protected} == b.contract_protected


@pytest.mark.parametrize("max_edges", [8, 11, 12])
def test_dual_partners_match_the_tree_bijection_oracle_on_catalogs(max_edges):
    entries = build_catalog(SearchConfig(max_edges=max_edges))
    assert [e.dual_partner for e in entries] == oracles.dual_partners_by_tree_bijection(entries)
    _assert_partners_are_matroid_duals(entries)


def test_dual_partners_match_the_tree_bijection_oracle_on_shuffled_pools():
    rng = random.Random(25)
    partnered = unpartnered = 0
    for m in range(6, 13):
        for _ in range(6):
            entries = assign_dual_partners(_shuffled_pool(m, rng))
            expected = oracles.dual_partners_by_tree_bijection(entries)
            assert [e.dual_partner for e in entries] == expected
            _assert_partners_are_matroid_duals(entries)
            partnered += sum(p is not None for p in expected)
            unpartnered += sum(p is None for p in expected)
    assert partnered and unpartnered


def test_assign_dual_partners_refuses_entries_outside_its_preconditions():
    k4 = complete_graph(4)
    looped = MultiGraph(k4.vertices, {**k4.edges, 7: (0, 0)})
    doubled = MultiGraph(k4.vertices, {**k4.edges, 7: (0, 1)})
    cases = [
        ([plain(looped)], "loop or a parallel pair"),
        ([plain(doubled)], "loop or a parallel pair"),
        ([plain(chain_of_k4s(2))], "not 3-connected"),
        ([plain(k4), plain(wheel(4)), _relabel(plain(k4), random.Random(1))[0]],
         "entries 0 and 2 have the same canonical form"),
    ]
    for graphs, message in cases:
        with pytest.raises(ValueError, match=message):
            assign_dual_partners([_entry(eg) for eg in graphs])
