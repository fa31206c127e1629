"""Edge-ordering width: the DP, the bounded check, and known values."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fivesplit
from fivesplit.graph_core import MultiGraph, boundary
from fivesplit.named_graphs import (
    complete_graph,
    cube,
    octahedron,
    wheel,
)
from fivesplit.width import graph_width, has_width_le, ordering_width
from builders import cycle_graph, path_graph, subdivided_claw
from oracles import graph_width_by_popcount


def test_cycle_in_cyclic_order():
    g = cycle_graph(4)
    assert ordering_width(g, [1, 2, 3, 4]) == 2
    assert graph_width(g) == (2, graph_width(g)[1])
    assert graph_width(g)[0] == 2


def test_k4_star_first_ordering():
    g = complete_graph(4)
    star = sorted(g.incident_edges(0))
    rest = sorted(set(g.edges) - set(star))
    assert ordering_width(g, star + rest) == 3
    assert graph_width(g)[0] == 3


def test_ordering_width_validates_permutation():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        ordering_width(g, [1, 2])
    with pytest.raises(ValueError):
        ordering_width(g, [1, 2, 2])


def test_width_matches_prefix_definition():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(1, 6)
        edges = {}
        for e in range(1, m + 1):
            u, v = rng.randrange(n), rng.randrange(n)
            edges[e] = (min(u, v), max(u, v))
        g = MultiGraph(range(n), edges)
        order = sorted(g.edges)
        rng.shuffle(order)
        expect = max(
            (len(boundary(g, order[: i + 1])) for i in range(len(order) - 1)),
            default=0,
        )
        assert ordering_width(g, order) == expect


def test_exact_widths_of_small_graphs():
    assert graph_width(path_graph(5))[0] == 1
    assert graph_width(cycle_graph(6))[0] == 2
    assert graph_width(complete_graph(4))[0] == 3
    assert graph_width(complete_graph(5))[0] == 4
    assert graph_width(subdivided_claw())[0] == 2
    for k in (3, 4, 5):
        assert graph_width(wheel(k))[0] == 3


def test_returned_ordering_achieves_the_width():
    for g in [cycle_graph(5), complete_graph(4), wheel(4), subdivided_claw()]:
        w, order = graph_width(g)
        assert ordering_width(g, list(order)) == w


def _messy_multigraphs():
    """210 derandomised multigraphs of 1-14 edges on scattered vertex labels.

    They have loops, parallel edges and isolated vertices; one label of each
    graph is near the 100,000-vertex limit of the parsers.
    """
    rng = random.Random(20261019)
    for index in range(210):
        m = 1 + index % 14
        labels = rng.sample(range(3, 99_990, 7), rng.randint(1, 7)) + [99_999 - index]
        edges = {}
        for e in rng.sample(range(1, 60), m):
            if edges and rng.random() < 0.15:
                edges[e] = edges[rng.choice(list(edges))]  # a parallel edge
            else:
                u = rng.choice(labels)
                v = u if rng.random() < 0.1 else rng.choice(labels)
                edges[e] = (min(u, v), max(u, v))
        isolated = rng.sample(range(100_000, 100_050), rng.randint(0, 2))
        yield MultiGraph(labels + isolated, edges)


def test_has_width_le_matches_graph_width():
    rng = random.Random(7)
    graphs = [cycle_graph(4), complete_graph(4), wheel(4), path_graph(4)]
    for _ in range(10):
        n = rng.randint(2, 5)
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [p for p in pairs if rng.random() < 0.6]
        if not chosen:
            continue
        graphs.append(MultiGraph(range(n), {i + 1: p for i, p in enumerate(chosen)}))
    for g in graphs + list(_messy_multigraphs()):
        if g.m == 0:
            continue
        w = graph_width(g)[0]
        for k in range(-1, g.n + 2):
            assert has_width_le(g, k) == (k >= w)


def test_ascending_masks_give_the_popcount_order_result():
    # ascending integers and increasing subset size both visit every subset
    # before its supersets, so width and ordering (ties to the lowest edge) agree
    for g in _messy_multigraphs():
        assert graph_width(g) == graph_width_by_popcount(g)


def test_f0_members_exceed_width_three():
    assert not has_width_le(cube(), 3)
    assert not has_width_le(octahedron(), 3)
    assert not has_width_le(complete_graph(5), 3)
    assert graph_width(cube())[0] == 4
    assert graph_width(octahedron())[0] == 4


def test_wheels_have_width_le_three():
    for k in (3, 4, 5, 6):
        assert has_width_le(wheel(k), 3)


def test_trees_have_width_one():
    assert has_width_le(path_graph(6), 1)
    star = MultiGraph(range(5), {e: (0, e) for e in range(1, 5)})
    assert has_width_le(star, 1)
    assert not has_width_le(cycle_graph(4), 1)


def test_zero_edge_graph_rejected():
    with pytest.raises(ValueError):
        graph_width(MultiGraph([0], {}))
    with pytest.raises(ValueError):
        has_width_le(MultiGraph([0], {}), 1)


def test_width_certificate_survives_optimised_python():
    script = (
        "import fivesplit.width as w\n"
        "from fivesplit.named_graphs import complete_graph\n"
        "assert False, 'asserts are on'\n"
        "w.ordering_width = lambda g, ordering: -1\n"
        "try:\n"
        "    w.graph_width(complete_graph(4))\n"
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
