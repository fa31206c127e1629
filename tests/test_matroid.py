"""Rank oracles, matroid intersection, common trees, caterpillar width."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fivesplit

from fivesplit.graph_core import MultiGraph, is_connected, spanning_trees
from fivesplit.matroid import (
    GraphicMatroid,
    MinorOracle,
    RankOracle,
    caterpillar_width,
    common_tree_exists,
    matroid_intersection,
    matroid_sep_order,
)
from fivesplit.named_graphs import complete_graph, wheel
from builders import cycle_graph, path_graph, subdivided_claw, triangle
from oracles import FreeMatroid, rank_axioms_hold


def _random_multigraph(rng: random.Random, n: int, m: int) -> MultiGraph:
    edges = {}
    for e in range(1, m + 1):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges[e] = (u, v) if u <= v else (v, u)
    return MultiGraph(range(n), edges)


def test_graphic_rank_basics():
    m = GraphicMatroid(complete_graph(4))
    assert m.full_rank() == 3
    assert m.rank({1}) == 1
    assert m.rank(m.ground) == 3
    assert m.is_independent({1, 2})
    # a triangle is dependent
    tri = {e for e, (u, v) in complete_graph(4).edges.items() if {u, v} <= {0, 1, 2}}
    assert not m.is_independent(tri)
    loopy = GraphicMatroid(MultiGraph([0], {1: (0, 0)}))
    assert loopy.rank({1}) == 0


def test_rank_axioms_on_samples():
    rng = random.Random(1)
    for _ in range(8):
        g = _random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 7))
        assert rank_axioms_hold(GraphicMatroid(g), samples=200, seed=3)
    assert rank_axioms_hold(FreeMatroid(range(6)), samples=100, seed=4)


def test_minor_oracle_matches_direct_computation():
    g = wheel(4)
    base = GraphicMatroid(g)
    contracted = frozenset({1, 5})
    deleted = frozenset({2})
    minor = MinorOracle(base, contracted, deleted)
    assert minor.ground == base.ground - contracted - deleted
    for r in range(3):
        for sub in itertools.combinations(sorted(minor.ground), r):
            s = frozenset(sub)
            expect = base.rank(s | contracted) - base.rank(contracted)
            assert minor.rank(s) == expect


def test_sep_order_on_trees_is_one():
    t = path_graph(5)
    m = GraphicMatroid(t)
    for r in range(1, t.m):
        for sub in itertools.combinations(sorted(t.edges), r):
            assert matroid_sep_order(m, sub) == 1


def test_sep_order_on_c4():
    g = cycle_graph(4)
    m = GraphicMatroid(g)
    assert matroid_sep_order(m, {1, 3}) == 2
    assert matroid_sep_order(m, {1, 2}) == 2
    assert matroid_sep_order(m, {1}) == 2


def _brute_force_common(m1, m2, k: int) -> bool:
    ground = sorted(m1.ground)
    return any(
        m1.is_independent(sub) and m2.is_independent(sub)
        for sub in itertools.combinations(ground, k)
    )


def test_intersection_infeasible_certificate_on_c4():
    g = cycle_graph(4)
    m1 = GraphicMatroid(g)
    m2 = FreeMatroid(g.edge_ids())
    out = matroid_intersection(m1, m2, 4)
    assert not out.found
    assert out.common_set is None
    part_a, part_b = out.certificate
    assert part_a | part_b == m1.ground
    # the certificate bounds every common independent set: r1(A) + r2(B) < 4
    assert m1.rank(part_a) + m2.rank(part_b) < 4
    assert m1.rank(part_a) + m2.rank(part_b) == 3


def test_intersection_matches_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(2, 7)
        g1 = _random_multigraph(rng, n, m)
        g2 = _random_multigraph(rng, rng.randint(2, 4), m)
        m1 = GraphicMatroid(g1)
        m2 = GraphicMatroid(g2)
        for k in range(0, 4):
            out = matroid_intersection(m1, m2, k)
            assert out.found == _brute_force_common(m1, m2, k)
            if out.found:
                assert len(out.common_set) == k
                assert m1.is_independent(out.common_set)
                assert m2.is_independent(out.common_set)
            else:
                a, b = out.certificate
                assert m1.rank(a) + m2.rank(b) < k


class _LyingMatroid(RankOracle):
    """Claims every proper subset has rank 0 but the whole ground set is independent."""

    def _rank(self, subset):
        return len(subset) if subset == self.ground else 0


def test_lying_oracle_fails_the_certificate_check():
    # no singleton looks independent, so the search stops at once; the
    # certificate r1(E) = 0 is false, and the result must not be "no common set"
    with pytest.raises(RuntimeError, match="certificate"):
        matroid_intersection(_LyingMatroid([1, 2]), FreeMatroid([1, 2]), 1)


def test_certificate_check_survives_optimised_python():
    script = (
        "from fivesplit.matroid import RankOracle, matroid_intersection\n"
        "class Free(RankOracle):\n"
        "    def _rank(self, s):\n"
        "        return len(s)\n"
        "class Lying(RankOracle):\n"
        "    def _rank(self, s):\n"
        "        return len(s) if s == self.ground else 0\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    matroid_intersection(Lying([1, 2]), Free([1, 2]), 1)\n"
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


def test_intersection_rejects_mismatched_grounds():
    with pytest.raises(ValueError):
        matroid_intersection(FreeMatroid([1, 2]), FreeMatroid([1, 3]), 1)
    with pytest.raises(ValueError):
        matroid_intersection(FreeMatroid([1]), FreeMatroid([1]), -1)


def test_common_tree_on_triangle():
    g = triangle()
    assert common_tree_exists(g, {1}, {2})
    assert common_tree_exists(g, {1}, {3})
    with pytest.raises(ValueError):
        common_tree_exists(g, {1}, {1})


def _is_spanning_tree(g: MultiGraph, t: frozenset[int]) -> bool:
    sub = MultiGraph(g.vertices, {e: g.edges[e] for e in t})
    return len(t) == g.n - 1 and is_connected(sub)


def _brute_force_common_tree(g: MultiGraph, s1, s2) -> bool:
    s1, s2 = frozenset(s1), frozenset(s2)
    rest = sorted(g.edge_ids() - s1 - s2)
    k = g.n - 1 - len(s1)
    if k < 0:
        return False
    return any(
        _is_spanning_tree(g, frozenset(t) | s1) and _is_spanning_tree(g, frozenset(t) | s2)
        for t in itertools.combinations(rest, k)
    )


def test_common_tree_matches_brute_force():
    rng = random.Random(41)
    done = 0
    while done < 30:
        g = _random_multigraph(rng, rng.randint(3, 5), rng.randint(3, 7))
        if not is_connected(g):
            continue
        edges = sorted(g.edges)
        for s1 in itertools.combinations(edges, 2):
            for s2 in itertools.combinations(edges, 2):
                if set(s1) & set(s2):
                    continue
                got = common_tree_exists(g, s1, s2)
                assert got == _brute_force_common_tree(g, s1, s2)
        done += 1


def test_caterpillar_width_of_trees_is_one():
    for t in [path_graph(3), path_graph(5)]:
        assert caterpillar_width(GraphicMatroid(t)) == 1


def test_caterpillar_width_of_cycles_is_two():
    for n in (3, 4, 5, 6):
        assert caterpillar_width(GraphicMatroid(cycle_graph(n))) == 2


def test_caterpillar_width_of_subdivided_claw_is_one():
    # the subdivided claw is a tree, so its matroid is free: width 1
    g = subdivided_claw()
    assert g.m == g.n - 1
    assert caterpillar_width(GraphicMatroid(g)) == 1


def test_caterpillar_width_needs_two_elements():
    with pytest.raises(ValueError):
        caterpillar_width(GraphicMatroid(MultiGraph([0, 1], {1: (0, 1)})))


def test_caterpillar_width_matches_exhaustive_orderings():
    # a caterpillar decomposition exposes every prefix separation of the leaf
    # ordering along its spine plus every singleton at its pendant edges
    for g in [complete_graph(4), cycle_graph(4), wheel(4)]:
        m = GraphicMatroid(g)
        got = caterpillar_width(m)
        ground = sorted(m.ground)
        pendant = max(matroid_sep_order(m, {e}) for e in ground)
        best = None
        for perm in itertools.permutations(ground):
            w = max(
                matroid_sep_order(m, perm[: i + 1]) for i in range(len(perm) - 1)
            )
            w = max(w, pendant)
            best = w if best is None else min(best, w)
        assert got == best
