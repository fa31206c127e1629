"""Splitting of 5-edge configurations, protections, and plain-graph association."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivesplit

from fivesplit.graph_core import (
    MultiGraph,
    contract_edge,
    delete_edge,
    enumerate_low_order_separations,
    is_connected,
    pieces,
)
from fivesplit.matroid import common_tree_exists
from fivesplit.minors import canonical_form, parse_catalog
from fivesplit.named_graphs import (
    complete_bipartite,
    complete_graph,
    cube,
    octahedron,
    prism,
    wheel,
)
from fivesplit.search import _connected_census, enumerate_underlying
from fivesplit.splitting import (
    EnhancedGraph,
    GADGETS,
    _piece_masks,
    _Tables,
    config_splits,
    from_enhanced,
    graph_splits,
    plain,
    to_enhanced,
    witness_holds,
)
from builders import (
    cycle_graph,
    protected_multigraphs,
    scattered_multigraphs,
    wheel_rim_edges,
    wheel_spoke_edges,
)
from oracles import _config_minima as frozenset_config_minima
from oracles import (
    association_roundtrip_ok,
    bad_side_by_pieces,
    bad_side_of,
    engine_by_pieces,
)

K33_WITNESS = frozenset({1, 2, 4, 5, 9})
GOLDEN = Path(__file__).resolve().parent.parent / "data" / "catalog_max11.txt"


def _pairings(rest):
    a = rest[0]
    for b in rest[1:]:
        pair1 = (a, b)
        pair2 = tuple(f for f in rest[1:] if f != b)
        yield pair1, pair2


def _no_common_tree(g: MultiGraph, s1, s2) -> bool:
    ids = g.edge_ids()
    if not (set(s1) <= ids and set(s2) <= ids):
        # an operated-away configuration edge kills every candidate tree pair
        return True
    return not common_tree_exists(g, s1, s2)


def _splits_via_trees(g: MultiGraph, config) -> bool:
    """Independent decision route: a configuration splits exactly when one of
    its thirty tree-pair conditions fails, by the spanning-tree expansion of
    the corresponding Dodgson polynomial."""
    s = sorted(config)
    for e in s:
        rest = [f for f in s if f != e]
        for pair1, pair2 in _pairings(rest):
            if _no_common_tree(contract_edge(g, e), pair1, pair2):
                return True
            if _no_common_tree(delete_edge(g, e), pair1, pair2):
                return True
    return False


def test_k4_splits_everything():
    g = complete_graph(4)
    for s in itertools.combinations(sorted(g.edges), 5):
        verdict = config_splits(g, s)
        assert verdict.splits
        assert witness_holds(plain(g), s, verdict.witness)
    ok, wit = graph_splits(g)
    assert ok and wit is None


def test_k5_has_a_nonsplit_configuration():
    g = complete_graph(5)
    ok, wit = graph_splits(g)
    assert not ok
    assert wit == frozenset({1, 2, 3, 7, 9})
    assert not config_splits(g, wit).splits
    assert config_splits(g, wit).witness is None


def test_f0_verdicts():
    assert not graph_splits(complete_bipartite(3, 3))[0]
    assert not graph_splits(octahedron())[0]
    assert not graph_splits(cube())[0]
    assert graph_splits(wheel(5))[0]
    assert graph_splits(prism())[0]


def test_config_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        config_splits(g, [1, 2, 3])
    with pytest.raises(ValueError):
        config_splits(g, [1, 2, 3, 4, 99])
    with pytest.raises(ValueError):
        config_splits(g, [1, 2, 3, 4, 5, 6])


def test_witnesses_verify_and_tampering_fails():
    g = prism()
    for s in itertools.combinations(sorted(g.edges), 5):
        verdict = config_splits(g, s)
        assert verdict.splits
        w = verdict.witness
        assert witness_holds(plain(g), s, w)
        import dataclasses

        bad = dataclasses.replace(w, side_a=w.side_a | w.side_b, side_b=frozenset())
        assert not witness_holds(plain(g), s, bad)


def test_two_decision_routes_agree_exhaustively():
    for m in range(5, 9):
        for g in _connected_census(m):
            for s in itertools.combinations(sorted(g.edges), 5):
                assert config_splits(g, s).splits == _splits_via_trees(g, s)


def test_two_decision_routes_agree_on_multigraphs():
    rng = random.Random(19)
    done = 0
    while done < 12:
        n = rng.randint(3, 5)
        m = rng.randint(5, 7)
        edges = {}
        for e in range(1, m + 1):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                v = (v + 1) % n
            edges[e] = (min(u, v), max(u, v))
        g = MultiGraph(range(n), edges)
        if not is_connected(g):
            continue
        for s in itertools.combinations(sorted(g.edges), 5):
            assert config_splits(g, s).splits == _splits_via_trees(g, s)
        done += 1


def test_splitting_is_minor_closed():
    rng = random.Random(29)
    for base in [wheel(4), prism(), wheel(5)]:
        assert graph_splits(base)[0]
        for _ in range(10):
            g = base
            for _ in range(rng.randint(1, 3)):
                if g.m <= 5:
                    break
                e = rng.choice(sorted(g.edges))
                if rng.random() < 0.5 and not g.is_loop(e):
                    g = contract_edge(g, e)
                else:
                    g = delete_edge(g, e)
            assert graph_splits(g)[0]


def test_unprotected_enhanced_matches_plain():
    rng = random.Random(37)
    hosts = _connected_census(6) + _connected_census(7)
    for g in rng.sample(hosts, 25):
        eg = plain(g)
        for s in itertools.combinations(sorted(g.edges), 5):
            assert config_splits(eg, s).splits == config_splits(g, s).splits
        assert graph_splits(eg)[0] == graph_splits(g)[0]


def test_wheel_minimal_protections_on_w4():
    g = wheel(4)
    s = frozenset({1, 2, 5, 6, 7})  # rim 1,2 and spokes at vertices 0,1,2
    c = frozenset({1, 2, 5, 6, 7})
    d = frozenset({1, 2, 6})
    eg = EnhancedGraph(g, c, d)
    assert not config_splits(eg, s).splits
    # every single protection is load-bearing: removing any one splits
    for e in sorted(c):
        weaker = EnhancedGraph(g, c - {e}, d)
        assert config_splits(weaker, s).splits
    for e in sorted(d):
        weaker = EnhancedGraph(g, c, d - {e})
        assert config_splits(weaker, s).splits


def test_fully_protected_k4():
    g = complete_graph(4)
    for s in itertools.combinations(sorted(g.edges), 5):
        ss = frozenset(s)
        eg = EnhancedGraph(g, ss, ss)
        assert not config_splits(eg, ss).splits
    eg = EnhancedGraph(g, frozenset({1, 2, 3, 4, 5}), frozenset({1, 2, 3, 4, 5}))
    assert eg.weight == 16
    assert not graph_splits(eg)[0]


def test_protections_are_monotone():
    # adding protections can only help: the non-split verdict is preserved
    g = wheel(4)
    rng = random.Random(43)
    for _ in range(40):
        s = frozenset(rng.sample(sorted(g.edges), 5))
        c = frozenset(e for e in s if rng.random() < 0.5)
        d = frozenset(e for e in s if rng.random() < 0.5)
        if config_splits(EnhancedGraph(g, c, d), s).splits:
            continue
        c2 = c | frozenset(rng.sample(sorted(s), 2))
        d2 = d | frozenset(rng.sample(sorted(s), 2))
        assert not config_splits(EnhancedGraph(g, c2, d2), s).splits


def test_protected_sets_must_be_edges():
    with pytest.raises(ValueError):
        EnhancedGraph(complete_graph(4), frozenset({99}), frozenset())


def test_to_enhanced_rejects_splitting_configurations():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        to_enhanced(g, [1, 2, 3, 4, 5])


def test_to_enhanced_identity_on_three_connected_core():
    g = complete_bipartite(3, 3)
    eg, s = to_enhanced(g, K33_WITNESS)
    assert s == K33_WITNESS
    assert eg.graph.key() == g.key()
    assert eg.contract_protected == frozenset()
    assert eg.delete_protected == frozenset()


def test_doubled_edge_collapses_to_delete_proof():
    g = complete_bipartite(3, 3)
    new_id = max(g.edges) + 1
    edges = dict(g.edges)
    edges[new_id] = g.edges[1]  # double the configuration edge 1
    g2 = MultiGraph(g.vertices, edges)
    assert not config_splits(g2, K33_WITNESS).splits
    eg, s = to_enhanced(g2, K33_WITNESS)
    assert eg.graph.m == 9
    # the parallel pair collapsed onto a delete-proof configuration edge
    survivor = next(iter(s - frozenset({2, 4, 5, 9})))
    assert survivor in eg.delete_protected
    assert survivor not in eg.contract_protected
    assert association_roundtrip_ok(g2, K33_WITNESS)


def test_subdivided_edge_collapses_to_contract_proof():
    g = complete_bipartite(3, 3)
    u, v = g.edges[1]
    mid = max(g.vertices) + 1
    new_id = max(g.edges) + 1
    edges = dict(g.edges)
    edges[1] = (u, mid)
    edges[new_id] = (mid, v)
    g2 = MultiGraph(list(g.vertices) + [mid], edges)
    s2 = K33_WITNESS  # edge 1 now names one half of the subdivision
    assert not config_splits(g2, s2).splits
    eg, s = to_enhanced(g2, s2)
    assert eg.graph.m == 9
    survivor = next(iter(s - frozenset({2, 4, 5, 9})))
    assert survivor in eg.contract_protected
    assert survivor not in eg.delete_protected
    assert association_roundtrip_ok(g2, s2)


def test_from_enhanced_weight_is_edge_count():
    g = complete_graph(4)
    s = frozenset({1, 2, 3, 4, 5})
    eg = EnhancedGraph(g, s, s)
    for gadget in GADGETS:
        out, s_out = from_enhanced(eg, s, gadget)
        assert out.m == eg.weight == 16
        assert len(s_out) == 5
        back, s_back = to_enhanced(out, s_out)
        assert canonical_form(back, s_back) == canonical_form(eg, s)


def test_from_enhanced_output_is_pinned():
    # K4 with edge 1 plain, 2 contract-protected, 3 delete-protected, 4 both
    eg = EnhancedGraph(complete_graph(4), frozenset({2, 4}), frozenset({3, 4}))
    shared = {1: (0, 1), 2: (0, 4), 3: (0, 3), 5: (1, 3), 6: (2, 3), 7: (2, 4), 8: (0, 3)}
    both = {
        "triangle": {4: (1, 5), 9: (2, 5), 10: (1, 2)},
        "double-low": {4: (1, 5), 9: (1, 5), 10: (2, 5)},
        "double-high": {4: (2, 5), 9: (2, 5), 10: (1, 5)},
    }
    assert set(both) == set(GADGETS)
    for gadget, parts in both.items():
        out, s_out = from_enhanced(eg, [1, 2, 3, 4, 5], gadget)
        assert out.vertices == frozenset(range(6)), gadget
        assert out.edges == {**shared, **parts}, gadget
        assert s_out == frozenset({1, 2, 3, 4, 5}), gadget


def test_from_enhanced_rejects_unknown_gadget():
    g = complete_graph(4)
    s = frozenset({1, 2, 3, 4, 5})
    with pytest.raises(ValueError):
        from_enhanced(EnhancedGraph(g, s, s), s, "bowtie")


def test_association_roundtrip_on_witnesses():
    assert association_roundtrip_ok(complete_bipartite(3, 3), K33_WITNESS)
    g = complete_graph(5)
    wit = graph_splits(g)[1]
    assert wit is not None
    assert association_roundtrip_ok(g, wit)


def test_gadget_round_trip_on_golden_catalog():
    entries = parse_catalog(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) == 36
    for entry in entries:
        want = canonical_form(entry.enhanced, entry.witness)
        for gadget in GADGETS:
            back, s_back = to_enhanced(*from_enhanced(entry.enhanced, entry.witness, gadget))
            assert canonical_form(back, s_back) == want, (entry.family, gadget)


def test_to_enhanced_certificate_survives_optimised_python():
    script = (
        "import fivesplit.splitting as sp\n"
        "from fivesplit.named_graphs import complete_bipartite\n"
        "assert False, 'asserts are on'\n"
        "sp.is_k_connected = lambda g, k: False\n"
        "try:\n"
        f"    sp.to_enhanced(complete_bipartite(3, 3), {sorted(K33_WITNESS)})\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    src = str(Path(fivesplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def _has_bad_separation(g: MultiGraph, s: frozenset[int]) -> bool:
    """The definition, read from the separations of order <= 2 themselves."""
    for sep in enumerate_low_order_separations(g, 2):
        ca, cb = len(sep.side_a & s), len(sep.side_b & s)
        if sep.order <= 1 and ca and cb:
            return True
        if min(ca, cb) == 2 and max(ca, cb) >= 2:
            return True
    return False


def test_bad_side_matches_frozenset_scan_on_census_hosts():
    hosts = [g for m in range(6, 10) for g in enumerate_underlying(m)]
    assert len(hosts) == 5
    graphs = list(hosts)
    for g in hosts:
        for e in sorted(g.edges):
            graphs += [delete_edge(g, e), contract_edge(g, e)]
    for g in graphs:
        for t in (3, 4, 5):
            for combo in itertools.combinations(sorted(g.edges), t):
                s = frozenset(combo)
                assert bad_side_of(g, s) == bad_side_by_pieces(g, s), (g.edges, s)


@st.composite
def _configured_multigraphs(draw):
    """A multigraph with loops and parallel edges, and 2 to 5 of its edges."""
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=10))
    g = MultiGraph(range(n), {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(ends, 1)})
    size = draw(st.integers(min_value=2, max_value=min(5, g.m)))
    return g, frozenset(draw(st.permutations(sorted(g.edges)))[:size])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_configured_multigraphs())
def test_bad_side_matches_frozenset_scan_and_definition(case):
    g, s = case
    side = bad_side_of(g, s)
    assert side == bad_side_by_pieces(g, s)
    assert (side is not None) == _has_bad_separation(g, s)


# -- the cut tables of `_Tables` -------------------------------------------------


def _cuts(g: MultiGraph) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    verts = sorted(g.vertices)
    return [(), *((v,) for v in verts)], list(itertools.combinations(verts, 2))


def _cut_gives_a_side(ps: list[int], m: int, order2: bool) -> bool:
    """Does some configuration of 2 to 5 edges give a side on this one cut, by
    the rules of `_side_mask`?  Order-2 cuts are scanned only for 4 or more."""
    for t in range(4 if order2 else 2, 6):
        for combo in itertools.combinations(range(m), t):
            sm = sum(1 << i for i in combo)
            counts = [(p & sm).bit_count() for p in ps]
            if order2 and (2 in counts or counts.count(1) >= 2):
                return True
            if not order2 and sum(c > 0 for c in counts) >= 2:
                return True
    return False


def _assert_cut_tables_exact(g: MultiGraph) -> None:
    """`_Tables` keeps, in scan order, exactly the cuts that can give a side."""
    st_ = _Tables(g)
    masks = _piece_masks(g, st_.bit)
    cuts1, cuts2 = _cuts(g)
    assert st_.cuts(g)[1] == [masks(x) for x in cuts1 if _cut_gives_a_side(masks(x), g.m, False)]
    kept2 = [masks(x) for x in cuts2 if _cut_gives_a_side(masks(x), g.m, True)]
    if g.m >= 4:
        assert st_.cuts(g)[2] == kept2
    else:
        assert kept2 == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scattered_multigraphs())
def test_bitmask_pieces_equal_graph_core_pieces(g):
    st_ = _Tables(g)
    masks = _piece_masks(g, st_.bit)
    cuts1, cuts2 = _cuts(g)
    for x in cuts1 + cuts2:
        assert [st_.edges_of(p) for p in masks(x)] == pieces(g, x), x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_multigraphs())
def test_cut_tables_keep_exactly_the_cuts_that_can_give_a_side(g):
    _assert_cut_tables_exact(g)


def test_cut_tables_on_census_hosts_and_their_children():
    hosts = [g for m in range(6, 10) for g in enumerate_underlying(m)]
    for g in hosts:
        _assert_cut_tables_exact(g)
        # a 3-connected host keeps no cut at all
        assert _Tables(g).cuts(g)[1] == [] and _Tables(g).cuts(g)[2] == []
        for e in sorted(g.edges):
            _assert_cut_tables_exact(delete_edge(g, e))
            _assert_cut_tables_exact(contract_edge(g, e))


# -- the mask engine against the frozenset engine ---------------------------------


def _assert_engines_agree(eg: EnhancedGraph) -> None:
    """Same verdict and witness for every configuration, and the same first
    failing configuration."""
    g, c, d = eg.graph, eg.contract_protected, eg.delete_protected
    first = None
    for combo in itertools.combinations(sorted(g.edges), 5):
        s = frozenset(combo)
        expected = engine_by_pieces(g, s, c, d)
        assert config_splits(eg, s) == expected, (g.edges, c, d, s)
        if first is None and not expected.splits:
            first = s
    assert graph_splits(eg) == (first is None, first), (g.edges, c, d)


def test_engine_equals_the_frozenset_engine_on_census_hosts():
    hosts = [g for m in range(6, 10) for g in enumerate_underlying(m)]
    graphs = list(hosts)
    for g in hosts:
        for e in sorted(g.edges):
            graphs += [delete_edge(g, e), contract_edge(g, e)]
    for g in graphs:
        for c, d in {(frozenset(), frozenset()), *frozenset_config_minima(g).values()}:
            _assert_engines_agree(EnhancedGraph(g, c, d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(protected_multigraphs())
def test_engine_equals_the_frozenset_engine_on_multigraphs(eg):
    _assert_engines_agree(eg)
