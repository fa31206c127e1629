"""Linear separation width of a graph over edge orderings.

The width of an ordering e_1, ..., e_m is the largest separation order of a
proper prefix {e_1, ..., e_l}, 1 <= l <= m - 1; the width of the graph is the
minimum over all orderings.  A single-edge graph has width 0 by convention.

The optimum satisfies f(A) = max(order(A), min_{e in A} f(A - e)) over subsets
A of the edge set (the full set contributes order 0, so it folds in as a
no-op), which is solved bottom-up over bitmask-indexed subsets.  The search
space is 2^m; instances beyond 22 edges are refused.

The order of a subset A is the number of vertices touched both by A and by its
complement.  `graph_width` numbers the vertices that have an edge (at most 44)
and tabulates touched(A), the bitmask of vertices A touches, for every subset
in one pass, so each order is one AND and one popcount.  `has_width_le` walks
subsets one added edge at a time and updates the order from that edge's ends,
the only vertices whose side can change.  `ordering_width`, which certifies
the DP's ordering, counts the boundary vertex by vertex instead.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Sequence

from .graph_core import MultiGraph

_MAX_EDGES = 22


def _bit_setup(g: MultiGraph) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Edge list, edge -> bit, and vertex -> incidence mask for every vertex with an edge."""
    edge_list = sorted(g.edges)
    bit = {e: i for i, e in enumerate(edge_list)}
    incidence: dict[int, int] = {}
    for e, i in bit.items():
        for v in g.edges[e]:
            incidence[v] = incidence.get(v, 0) | 1 << i
    return edge_list, bit, incidence


def _order_of_mask(mask: int, full: int, vmasks: Sequence[int]) -> int:
    comp = full & ~mask
    return sum(1 for vm in vmasks if vm & mask and vm & comp)


def _check_size(g: MultiGraph) -> None:
    if g.m == 0:
        raise ValueError("width needs at least one edge")
    if g.m > _MAX_EDGES:
        raise ValueError(f"width DP supports at most {_MAX_EDGES} edges")


def ordering_width(g: MultiGraph, ordering: Sequence[int]) -> int:
    """Width of one ordering; the ordering must enumerate every edge once."""
    if sorted(ordering) != sorted(g.edges):
        raise ValueError("ordering must be a permutation of the edge set")
    if g.m <= 1:
        return 0
    _, bit, incidence = _bit_setup(g)
    vmasks = list(incidence.values())
    full = (1 << g.m) - 1
    width = 0
    mask = 0
    for e in ordering[:-1]:
        mask |= 1 << bit[e]
        width = max(width, _order_of_mask(mask, full, vmasks))
    return width


def graph_width(g: MultiGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum width and one optimal ordering."""
    _check_size(g)
    edge_list, _, incidence = _bit_setup(g)
    vertex_bit = {v: 1 << j for j, v in enumerate(incidence)}
    full = (1 << g.m) - 1
    # touched[mask | 1 << i] = touched[mask] | ends of edge i, for mask < 1 << i
    touched = array("Q", [0])
    for e in edge_list:
        a, b = g.edges[e]
        ends = vertex_bit[a] | vertex_bit[b]
        touched.extend(t | ends for t in islice(touched, len(touched)))
    f = bytearray(full + 1)
    parent = bytearray(full + 1)
    # mask ^ low < mask, so ascending order fills every subset first; the
    # strict < keeps the lowest edge among equal minima
    for mask in range(1, full + 1):
        low = best_low = mask & -mask
        best = f[mask ^ low]
        rest = mask ^ low
        while rest:
            low = rest & -rest
            rest ^= low
            v = f[mask ^ low]
            if v < best:
                best, best_low = v, low
        o = (touched[mask] & touched[full ^ mask]).bit_count()
        f[mask] = o if o > best else best
        parent[mask] = best_low.bit_length() - 1
    ordering: list[int] = []
    mask = full
    while mask:
        i = parent[mask]
        ordering.append(edge_list[i])
        mask &= ~(1 << i)
    ordering.reverse()
    width = f[full]
    if ordering_width(g, ordering) != width:
        raise RuntimeError("the width DP's ordering does not attain its width")
    return width, tuple(ordering)


def has_width_le(g: MultiGraph, k: int) -> bool:
    """Early-exit check: can every proper prefix be kept at order <= k?

    Level-by-level reachability over subsets whose order is <= k; avoids
    filling the whole table when the bound fails early.
    """
    _check_size(g)
    m = g.m
    full = (1 << m) - 1
    edge_list, _, incidence = _bit_setup(g)
    if m == 1:
        return k >= 0
    # the incidence masks of each edge's ends, keyed by the edge's bit; a loop has one end
    ends = {}
    for i, e in enumerate(edge_list):
        a, b = g.edges[e]
        ends[1 << i] = (incidence[a], incidence[b] if b != a else 0)
    level = {0: 0}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for mask, order in level.items():
            rest = full ^ mask
            while rest:
                low = rest & -rest
                rest ^= low
                cand = mask | low
                if cand in nxt:
                    continue
                # only the added edge's ends can change side: an end is on
                # the boundary of mask iff it has an edge in mask, and on
                # that of cand iff it has an edge outside cand
                out = full ^ cand
                va, vb = ends[low]
                o = (order + (va & out != 0) - (va & mask != 0)
                     + (vb & out != 0) - (vb & mask != 0))
                if o <= k:
                    nxt[cand] = o
        if not nxt:
            return False
        level = nxt
    return full in level
