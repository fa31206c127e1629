"""Acceptance suite: twelve end-to-end checks tying the whole package together.

Each test is one criterion, so ``pytest -v`` prints one pass/fail line per
criterion.  Shared censuses and the golden catalog load once per module.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from fivesplit.graph_core import MultiGraph
from fivesplit.kirchhoff import (
    DodgsonSpec,
    dodgson,
    dodgson_vanishes,
    dodgson_via_trees,
    five_invariant,
    thirty_dodgsons,
    thirty_specs,
)
from fivesplit.matroid import GraphicMatroid, caterpillar_width, common_tree_exists
from fivesplit.minors import (
    enhanced_children,
    f0_free,
    parse_catalog,
)
from fivesplit.named_graphs import (
    complete_bipartite,
    complete_graph,
    cube,
    h_graph,
    octahedron,
    wheel,
)
from fivesplit.search import SearchConfig, enumerate_underlying, find_minimal_nonsplit, verify_catalog
from fivesplit.splitting import (
    EnhancedGraph,
    config_splits,
    graph_splits,
)
from fivesplit.width import graph_width, has_width_le
from builders import dual_pairs, subdivided_claw, wheel_rim_edges, wheel_spoke_edges
from oracles import enhanced_has_minor, is_matroid_dual_pair

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "catalog_max11.txt"

FORBIDDEN = [
    ("K5", complete_graph(5)),
    ("K3,3", complete_bipartite(3, 3)),
    ("cube", cube()),
    ("octahedron", octahedron()),
    ("H", h_graph()),
]

EXPECTED_WITNESS = {
    "K5": frozenset({1, 2, 3, 7, 9}),
    "K3,3": frozenset({1, 2, 4, 5, 9}),
    "cube": frozenset({1, 2, 4, 6, 9}),
    "octahedron": frozenset({1, 2, 3, 4, 5}),
    "H": frozenset({4, 5, 6, 7, 9}),
}


@pytest.fixture(scope="module")
def three_connected_census() -> list[MultiGraph]:
    """All simple 3-connected graphs with at most 7 vertices and 12 edges."""
    return [g for m in range(6, 13) for g in enumerate_underlying(m) if g.n <= 7]


@pytest.fixture(scope="module")
def connected_census() -> list[MultiGraph]:
    """All connected simple graphs with at most 8 edges."""
    return [g for m in range(1, 9) for g in enumerate_underlying(m, three_connected=False)]


@pytest.fixture(scope="module")
def golden_catalog():
    return parse_catalog(GOLDEN.read_text(encoding="utf-8"))


def test_criterion_01_forbidden_graphs_do_not_split():
    for name, g in FORBIDDEN:
        splits_all, witness = graph_splits(g)
        assert not splits_all
        assert witness == EXPECTED_WITNESS[name]
        thirty = thirty_dodgsons(g, witness)
        assert len(thirty) == 30
        assert all(not poly.is_zero() for _, poly in thirty)


def test_criterion_02_forbidden_graphs_exceed_width_three():
    for _, g in FORBIDDEN:
        assert not has_width_le(g, 3)
        w, ordering = graph_width(g)
        assert w == 4
        assert len(ordering) == g.m


def test_criterion_03_width_bound_matches_forbidden_minor_freeness(three_connected_census):
    assert len(three_connected_census) == 34
    for g in three_connected_census:
        assert has_width_le(g, 3) == f0_free(g)


def test_criterion_04_splitting_matches_forbidden_minor_freeness(three_connected_census):
    for g in three_connected_census:
        assert graph_splits(g)[0] == f0_free(g)


def test_criterion_05_dodgson_vanishing_matches_common_trees(connected_census):
    assert len(connected_census) == 358
    for g in connected_census:
        ids = sorted(g.edges)
        for s1 in itertools.combinations(ids, 2):
            rest = [e for e in ids if e not in s1]
            for s2 in itertools.combinations(rest, 2):
                if s2 < s1:
                    continue
                spec = DodgsonSpec(frozenset(s1), frozenset(s2), frozenset())
                p = dodgson(g, spec)
                assert p.is_zero() == (not common_tree_exists(g, s1, s2))
                assert p.equal_up_to_sign(dodgson_via_trees(g, spec))


def _random_connected_multigraph(rng: random.Random) -> MultiGraph:
    n = rng.randint(4, 7)
    m = rng.randint(5, 10)
    edges: dict[int, tuple[int, int]] = {}
    order = list(range(n))
    rng.shuffle(order)
    for i, v in enumerate(order[1:], start=1):
        edges[i] = (rng.choice(order[:i]), v)
    eid = n
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges[eid] = (u, v)
        eid += 1
    return MultiGraph(range(n), edges)


def test_criterion_06_five_invariant_is_permutation_invariant():
    rng = random.Random(20260815)
    for _ in range(200):
        g = _random_connected_multigraph(rng)
        base = rng.sample(sorted(g.edges), 5)
        perm = base[:]
        rng.shuffle(perm)
        assert five_invariant(g, base).equal_up_to_sign(five_invariant(g, perm))


def test_criterion_07_split_verdicts_transfer_across_dual_pairs():
    pairs = dual_pairs()
    assert len(pairs) >= 4
    for _, g, h, bij in pairs:
        assert is_matroid_dual_pair(g, h, bij)
        for s in itertools.combinations(sorted(g.edges), 5):
            image = frozenset(bij[e] for e in s)
            assert config_splits(g, s).splits == config_splits(h, image).splits


def _wheel_nonsplit_rule(k: int, s: frozenset[int], c: frozenset[int], d: frozenset[int]) -> bool:
    """Protection conditions under which a wheel configuration never splits.

    1. every rim edge of the configuration is delete-protected;
    2. every spoke of the configuration is contract-protected;
    3. a rim vertex with all three incident edges in the configuration has a
       delete-protected spoke;
    4. a rim edge whose endpoints both have their spokes in the configuration
       is contract-protected.
    """
    rim, spokes = wheel_rim_edges(k), wheel_spoke_edges(k)
    if not (s & rim <= d and s & spokes <= c):
        return False
    for v in range(k):
        incident = {1 + v, 1 + (v - 1) % k, k + 1 + v}
        if incident <= s and k + 1 + v not in d:
            return False
    for v in range(k):
        e_rim = 1 + v
        if {e_rim, k + 1 + v, k + 1 + (v + 1) % k} <= s and e_rim not in c:
            return False
    return True


def test_criterion_08_wheel_protection_conditions_match_engine():
    for k in (4, 5):
        g = wheel(k)
        ids = sorted(g.edges)
        for combo in itertools.combinations(ids, 5):
            s = frozenset(combo)
            subsets = [frozenset(t) for r in range(6) for t in itertools.combinations(combo, r)]
            for c in subsets:
                for d in subsets:
                    verdict = config_splits(EnhancedGraph(g, c, d), s)
                    assert (not verdict.splits) == _wheel_nonsplit_rule(k, s, c, d)


def test_criterion_09_catalog_counts_and_golden_file(golden_catalog):
    growth = {
        6: {"K4": 1},
        8: {"W4": 10},
        9: {"K5-": 7, "P": 7},
        10: {"W5": 2, "P+": 5},
        11: {"D": 1, "D*": 1},
    }
    expected: dict[str, int] = {}
    total = 0
    for max_edges in (6, 8, 9, 10, 11):
        for fam, k in growth[max_edges].items():
            expected[fam] = expected.get(fam, 0) + k
            total += k
        entries = find_minimal_nonsplit(SearchConfig(max_edges=max_edges))
        assert len(entries) == total
        families: dict[str, int] = {}
        for e in entries:
            families[e.family] = families.get(e.family, 0) + 1
        assert families == expected
    assert total == 34
    report = verify_catalog(SearchConfig(max_edges=11), golden_catalog)
    assert report.ok, (report.missing, report.unexpected, report.mismatched)


def test_criterion_10_catalog_is_a_minor_minimal_antichain(golden_catalog):
    assert len(golden_catalog) == 36
    for entry in golden_catalog:
        splits_all, _ = graph_splits(entry.enhanced)
        assert not splits_all
        for _, child in enhanced_children(entry.enhanced):
            child_ok, _ = graph_splits(child)
            assert child_ok
    for a, b in itertools.permutations(golden_catalog, 2):
        assert not enhanced_has_minor(a.enhanced, b.enhanced)


def test_criterion_11_caterpillar_width_bounds_graph_width(connected_census):
    for g in connected_census:
        if g.m < 2:
            continue
        assert caterpillar_width(GraphicMatroid(g)) <= graph_width(g)[0]
    claw = subdivided_claw()
    assert caterpillar_width(GraphicMatroid(claw)) == 1
    assert graph_width(claw)[0] == 2


def test_criterion_12_splitting_matches_a_vanishing_dodgson_polynomial(three_connected_census):
    # the 3-connected graphs with 6 to 11 edges all have at most 7 vertices
    configurations = 0
    for g in three_connected_census:
        if g.m > 11:
            continue
        for s in itertools.combinations(sorted(g.edges), 5):
            vanishing = any(dodgson_vanishes(g, spec) for spec in thirty_specs(g, s))
            assert config_splits(g, s).splits == vanishing, (g.edges, s)
            configurations += 1
    assert configurations == 4682
