"""Graph families that several test files build as minor-search hosts."""

from __future__ import annotations

import itertools

from fivesplit.graph_core import MultiGraph


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
