"""Linear separation width of a graph over edge orderings.

The width of an ordering e_1, ..., e_m is the largest separation order of a
proper prefix {e_1, ..., e_l}, 1 <= l <= m - 1; the width of the graph is the
minimum over all orderings.  A single-edge graph has width 0 by convention.

The optimum satisfies f(A) = max(order(A), min_{e in A} f(A - e)) over subsets
A of the edge set (the full set contributes order 0, so it folds in as a
no-op), which is solved bottom-up over bitmask-indexed subsets.  The search
space is 2^m; instances beyond 22 edges are refused.
"""

from __future__ import annotations

from typing import Sequence

from .graph_core import MultiGraph

_MAX_EDGES = 22


def _bit_setup(g: MultiGraph) -> tuple[list[int], dict[int, int], list[int]]:
    """Edge list, edge -> bit, and per-vertex incidence masks."""
    edge_list = sorted(g.edges)
    bit = {e: i for i, e in enumerate(edge_list)}
    verts = sorted(g.vertices)
    vmask = []
    for v in verts:
        mask = 0
        for e, (a, b) in g.edges.items():
            if v in (a, b):
                mask |= 1 << bit[e]
        vmask.append(mask)
    return edge_list, bit, vmask


def _order_of_mask(mask: int, full: int, vmasks: list[int]) -> int:
    comp = full & ~mask
    return sum(1 for vm in vmasks if vm & mask and vm & comp)


def ordering_width(g: MultiGraph, ordering: Sequence[int]) -> int:
    """Width of one ordering; the ordering must enumerate every edge once."""
    if sorted(ordering) != sorted(g.edges):
        raise ValueError("ordering must be a permutation of the edge set")
    if g.m <= 1:
        return 0
    _, bit, vmasks = _bit_setup(g)
    full = (1 << g.m) - 1
    width = 0
    mask = 0
    for e in ordering[:-1]:
        mask |= 1 << bit[e]
        width = max(width, _order_of_mask(mask, full, vmasks))
    return width


def graph_width(g: MultiGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum width and one optimal ordering."""
    if g.m == 0:
        raise ValueError("width needs at least one edge")
    if g.m > _MAX_EDGES:
        raise ValueError(f"width DP supports at most {_MAX_EDGES} edges")
    edge_list, _, vmasks = _bit_setup(g)
    m = g.m
    full = (1 << m) - 1
    f = [0] * (full + 1)
    parent = [-1] * (full + 1)
    # mask & ~(1 << i) < mask, so ascending order fills every subset first
    for mask in range(1, full + 1):
        o = _order_of_mask(mask, full, vmasks)
        if mask & (mask - 1) == 0:
            f[mask] = o
            parent[mask] = mask.bit_length() - 1
            continue
        best, best_i = None, -1
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            v = f[mask & ~(1 << i)]
            if best is None or v < best:
                best, best_i = v, i
        f[mask] = max(o, best)
        parent[mask] = best_i
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
    if g.m == 0:
        raise ValueError("width needs at least one edge")
    if g.m > _MAX_EDGES:
        raise ValueError(f"width DP supports at most {_MAX_EDGES} edges")
    m = g.m
    full = (1 << m) - 1
    _, _, vmasks = _bit_setup(g)
    if m == 1:
        return k >= 0
    level = {0}
    for _ in range(m):
        nxt: set[int] = set()
        for mask in level:
            rest = full & ~mask
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                cand = mask | 1 << i
                if cand in nxt:
                    continue
                if cand == full or _order_of_mask(cand, full, vmasks) <= k:
                    nxt.add(cand)
        if not nxt:
            return False
        level = nxt
    return full in level
