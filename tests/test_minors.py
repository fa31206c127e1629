"""Minor containment, canonical forms, enhanced reductions, catalog encoding."""

from __future__ import annotations

import itertools
import random

import pytest

from fivesplit.graph_core import MultiGraph, find_isomorphism
from fivesplit.minors import (
    CatalogEntry,
    MinorPattern,
    _has_minor_recursive,
    assign_dual_partners,
    canonical_form,
    canonical_graph_key,
    canonical_labeling,
    enhanced_children,
    enhanced_has_minor,
    f0,
    f0_free,
    family_label,
    find_dual_bijection,
    has_minor,
    has_rooted_minor,
    parse_catalog,
    render_catalog,
)
from fivesplit.named_graphs import (
    NAMED_GRAPHS,
    complete_bipartite,
    complete_graph,
    cube,
    cycle_graph,
    h_graph,
    h_graph_from_octahedron,
    named_graph,
    octahedron,
    path_graph,
    prism,
    wheel,
)
from fivesplit.search import SearchConfig, build_catalog, enumerate_underlying
from fivesplit.splitting import EnhancedGraph, plain


def test_basic_minor_facts():
    assert not has_minor(cube(), complete_graph(5))
    assert has_minor(h_graph(), complete_graph(4))
    assert has_minor(complete_graph(5), complete_graph(4))
    assert has_minor(cube(), cube())
    assert has_minor(octahedron(), complete_graph(4))
    assert not has_minor(complete_graph(4), complete_graph(5))
    assert has_minor(cycle_graph(5), complete_graph(3))
    assert not has_minor(path_graph(5), cycle_graph(3))
    assert has_minor(cycle_graph(3), cycle_graph(3))


def test_minor_respects_multiplicities():
    double = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
    single_host = path_graph(3)
    assert not has_minor(single_host, double)
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


def test_rooted_minor_respects_roots():
    path = path_graph(4)  # a - b - c - d with edges 1, 2, 3
    pattern = path_graph(3)  # u - v - w
    assert has_rooted_minor(path, pattern, {0: 0, 2: 3})
    # pinning the endpoints of the pattern path to the middle of the host path
    # leaves nowhere for the middle branch set
    assert not has_rooted_minor(path, pattern, {0: 1, 2: 2})
    assert has_rooted_minor(cube(), complete_graph(4), {})


def test_rooted_minor_multiplicity():
    double = MultiGraph([0, 1], {1: (0, 1), 2: (0, 1)})
    c4 = cycle_graph(4)
    assert has_rooted_minor(c4, double, {0: 0, 1: 1})
    assert not has_rooted_minor(path_graph(3), double, {0: 0, 1: 2})


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


def test_canonical_form_rejects_oversized_graphs():
    big = cycle_graph(13)
    with pytest.raises(ValueError):
        canonical_form(EnhancedGraph(big))


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


def test_dual_bijection_cube_octahedron():
    bij = find_dual_bijection(cube(), octahedron())
    assert bij is not None
    from fivesplit.graph_core import is_matroid_dual_pair

    assert is_matroid_dual_pair(cube(), octahedron(), bij)
    assert find_dual_bijection(wheel(4), wheel(4)) is not None
    assert find_dual_bijection(cube(), cube()) is None
    assert find_dual_bijection(complete_graph(4), complete_graph(4)) is not None


def test_dual_bijection_respects_tags():
    g = wheel(4)
    # spokes of a wheel map to rim edges of the dual wheel; tagging one spoke
    # as contract-proof forces its image to be delete-proof
    tags_g = {e: ("c" if e == 5 else None) for e in g.edges}
    for target_tag in ("c", None):
        tags_h = {e: (target_tag if e == 1 else None) for e in g.edges}
        bij = find_dual_bijection(g, g, tags_g, tags_h)
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
