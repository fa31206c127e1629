"""Splitting of five-edge configurations, with and without protections.

A 5-configuration S in a graph G splits with respect to a separation (A, B)
when either the separation has order <= 1 and both sides contain an edge of S,
or it has order <= 2 and one side contains exactly two edges of S and the
other at least two.  S splits outright when such a separation exists in G
itself, or in G - e / G / e for some e in S with the leftover configuration
S - e (edges erased by the operation leave the configuration).

An enhanced graph carries two protection sets: contract-protected edges may
not be contracted and delete-protected edges may not be deleted, which removes
the corresponding derived graphs from the quantifier above.

Separations of order <= 2 are scanned via vertex cuts: for every cut X with
|X| <= 2 the candidate sides are unions of the pieces of G relative to X,
so per cut only the multiset of per-piece configuration counts matters:
a side meeting S on both sides exists iff two pieces are hit (order <= 1),
and a side with exactly two S-edges exists iff some piece holds exactly two
or two pieces hold exactly one each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .graph_core import (
    EdgeSubset,
    MultiGraph,
    _component_mask,
    blocks,
    boundary,
    connected_components,
    contract_edge,
    delete_edge,
    enumerate_low_order_separations,
    is_connected,
    is_k_connected,
)


@dataclass(frozen=True)
class EnhancedGraph:
    """A multigraph with contract-protected and delete-protected edge sets."""

    graph: MultiGraph
    contract_protected: EdgeSubset = frozenset()
    delete_protected: EdgeSubset = frozenset()

    def __post_init__(self) -> None:
        edges = self.graph.edge_ids()
        if not self.contract_protected <= edges or not self.delete_protected <= edges:
            raise ValueError("protected sets must be edges of the graph")

    @property
    def weight(self) -> int:
        return self.graph.m + len(self.contract_protected) + len(self.delete_protected)


def plain(g: MultiGraph) -> EnhancedGraph:
    return EnhancedGraph(g, frozenset(), frozenset())


@dataclass(frozen=True)
class SplitWitness:
    """A verifiable split certificate.

    operation/edge name the derived graph ("none" means the graph itself);
    side_a/side_b partition the derived graph's edges; config_in_a/config_in_b
    count the leftover configuration on each side.
    """

    operation: str
    edge: int | None
    side_a: EdgeSubset
    side_b: EdgeSubset
    boundary: frozenset[int]
    config_in_a: int
    config_in_b: int


@dataclass(frozen=True)
class SplitVerdict:
    splits: bool
    witness: SplitWitness | None


# -- cut tables on one edge numbering -----------------------------------------


class _Tables:
    """Cut tables of a graph and of the graphs derived from it, on one edge numbering.

    Bit i stands for the i-th smallest edge id of the root graph.  Every graph
    that a deletion, a contraction or `minors.enhanced_children` derives from
    the root keeps a subset of its edge ids, so a configuration or a protection
    set is one int across the root and all its derived graphs.  The cut tables
    of each graph met are kept, keyed by the graph, and so are the deletions
    and contractions built by `child`.
    """

    __slots__ = ("ids", "bit", "tables", "children")

    def __init__(self, root: MultiGraph):
        self.ids = sorted(root.edges)
        self.bit = {e: 1 << i for i, e in enumerate(self.ids)}
        self.tables: dict[MultiGraph, tuple[int, list[list[int]], list[list[int]]]] = {}
        self.children: dict[tuple[MultiGraph, str, int], MultiGraph] = {}

    def mask(self, edges: Iterable[int]) -> int:
        bit = self.bit
        out = 0
        for e in edges:
            b = bit.get(e)
            if b is None:
                raise RuntimeError(f"edge {e} lies outside the root graph's edge numbering")
            out |= b
        return out

    def edges_of(self, mask: int) -> frozenset[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def cuts(self, g: MultiGraph) -> tuple[int, list[list[int]], list[list[int]]]:
        """The edge mask of g and its two cut tables."""
        found = self.tables.get(g)
        if found is None:
            found = self.tables[g] = (self.mask(g.edges), *_cut_tables(g, self.bit))
        return found

    def child(self, g: MultiGraph, op: str, e: int) -> MultiGraph:
        """g - e for op "delete", g / e for op "contract"."""
        key = (g, op, e)
        found = self.children.get(key)
        if found is None:
            found = delete_edge(g, e) if op == "delete" else contract_edge(g, e)
            self.children[key] = found
        return found


def _cut_tables(g: MultiGraph, bit: dict[int, int]) -> tuple[list[list[int]], list[list[int]]]:
    """The pieces of the cuts of order <= 2 that can give a bad side, as edge bitmasks.

    Edge e is `bit[e]`, one bit each, in the order of the edge ids.  Cuts are
    (), each vertex, then each vertex pair, over the sorted vertices, and
    pieces come in the order of `graph_core.pieces`.  A cut is kept only when
    it can give a side in `_side_mask`: a cut of order <= 1 needs an edge
    outside its largest piece, since s must meet two pieces; a cut of order 2,
    scanned only for |s| >= 4, needs two, since otherwise the largest piece
    holds at least three edges of s and at most one other piece holds one.
    """
    masks = _piece_masks(g, bit)
    verts = sorted(g.vertices)
    m = g.m
    cuts1 = [ps for x in [(), *((v,) for v in verts)] if _spare(ps := masks(x), m) >= 1]
    cuts2 = [ps for x in itertools.combinations(verts, 2) if _spare(ps := masks(x), m) >= 2]
    return cuts1, cuts2


def _side_mask(cuts1: list[list[int]], cuts2: list[list[int]], sm: int) -> int:
    """The side mask of the first bad separation for the configuration mask sm, or 0.

    Bad means: order <= 1 with sm on both sides, or order <= 2 with exactly
    two sm-edges on one side and at least two on the other.  Cuts are scanned
    in table order, then pieces in cut order.
    """
    t = sm.bit_count()
    if t >= 2:
        # the pieces of a cut partition the edges, so sm meets a second piece
        # exactly when the first piece it meets misses part of sm
        for ps in cuts1:
            for p in ps:
                if p & sm:
                    if sm & ~p:
                        return p
                    break
    if t >= 4:
        for ps in cuts2:
            single = 0
            for p in ps:
                c = (p & sm).bit_count()
                if c == 2:
                    return p
                if c == 1:
                    if single:
                        return single | p
                    single = p
    return 0


def _spare(ps: list[int], m: int) -> int:
    """Edges outside the largest piece."""
    return m - max((p.bit_count() for p in ps), default=0)


def _piece_masks(g: MultiGraph, bit: dict[int, int]) -> Callable[[tuple[int, ...]], list[int]]:
    """A function from a vertex cut X to the edge masks of `pieces(g, X)`, in its order.

    That order is one piece per edge with both ends in X, by edge id, then one
    per component of g - X that has an edge, by least vertex.  Components grow
    over per-vertex neighbour bitmasks, as in `is_k_connected`, and a piece is
    the union of its vertices' incident-edge masks.
    """
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    n = len(index)
    nbr = [0] * n
    inc = [0] * n
    loops = [0] * n
    for e, (a, b) in g.edges.items():
        ia, ib = index[a], index[b]
        if ia == ib:
            loops[ia] |= bit[e]
        else:
            nbr[ia] |= 1 << ib
            nbr[ib] |= 1 << ia
        inc[ia] |= bit[e]
        inc[ib] |= bit[e]

    def masks(cut: tuple[int, ...]) -> list[int]:
        x = [index[v] for v in cut]
        inner = 0
        alive = (1 << n) - 1
        for i in x:
            inner |= loops[i]
            alive &= ~(1 << i)
        if len(x) == 2:
            inner |= inc[x[0]] & inc[x[1]]
        out = []
        while inner:
            low = inner & -inner
            out.append(low)
            inner ^= low
        while alive:
            seen = _component_mask(nbr, alive)
            alive &= ~seen
            piece = 0
            while seen:
                low = seen & -seen
                piece |= inc[low.bit_length() - 1]
                seen ^= low
            if piece:
                out.append(piece)
        return out

    return masks


_CACHE: dict[MultiGraph, _Tables] = {}
_CACHE_CAP = 60000


def _tables_of(g: MultiGraph) -> _Tables:
    """The tables rooted at g, shared by the entry points through `_CACHE`."""
    t = _CACHE.get(g)
    if t is None:
        if len(_CACHE) >= _CACHE_CAP:
            _CACHE.clear()
        t = _CACHE[g] = _Tables(g)
    return t


def _bad_side(t: _Tables, g: MultiGraph, sm: int) -> int:
    """The first bad side for the configuration sm in g, as a mask, or 0.

    Edges of sm that g lacks leave the configuration: the edge that derived g
    was deleted or contracted, and the edges parallel to it that a contraction
    erased.
    """
    kept, cuts1, cuts2 = t.cuts(g)
    return _side_mask(cuts1, cuts2, sm & kept)


def _engine(
    t: _Tables, g: MultiGraph, sm: int, c: int, d: int
) -> tuple[str, int | None, int] | None:
    """The first bad side that splits the configuration sm, or None.

    g itself is scanned first, then g - e and g / e for each edge e of sm in
    ascending order, except the deletions that d protects and the
    contractions that c protects or a loop forbids.  The side comes as
    (operation, edge, side mask), with ("none", None, side) for g itself.
    """
    side = _bad_side(t, g, sm)
    if side:
        return "none", None, side
    rest = sm
    while rest:
        b = rest & -rest
        rest ^= b
        e = t.ids[b.bit_length() - 1]
        if not b & d:
            side = _bad_side(t, t.child(g, "delete", e), sm ^ b)
            if side:
                return "delete", e, side
        if not b & c and not g.is_loop(e):
            side = _bad_side(t, t.child(g, "contract", e), sm ^ b)
            if side:
                return "contract", e, side
    return None


def _split_side(
    eg: EnhancedGraph, s: frozenset[int]
) -> tuple[_Tables, int, tuple[str, int | None, int] | None]:
    """`_engine` on the cached tables of eg's graph: the tables, the mask of s
    and the engine's answer."""
    t = _tables_of(eg.graph)
    sm = t.mask(s)
    c, d = t.mask(eg.contract_protected), t.mask(eg.delete_protected)
    return t, sm, _engine(t, eg.graph, sm, c, d)


def _check_config(g: MultiGraph, config: Iterable[int]) -> frozenset[int]:
    s = frozenset(config)
    if len(s) != 5:
        raise ValueError("a configuration has five distinct edges")
    if not s <= g.edge_ids():
        raise ValueError("configuration edges must belong to the graph")
    return s


def _as_enhanced(g: MultiGraph | EnhancedGraph) -> EnhancedGraph:
    return g if isinstance(g, EnhancedGraph) else plain(g)


def config_splits(g: MultiGraph | EnhancedGraph, config: Iterable[int]) -> SplitVerdict:
    """Does the 5-configuration split?

    A plain graph is an enhanced graph with no protections; for an enhanced
    graph the protected derived graphs are excluded.
    """
    eg = _as_enhanced(g)
    s = _check_config(eg.graph, config)
    t, sm, found = _split_side(eg, s)
    if found is None:
        return SplitVerdict(False, None)
    op, e, side = found
    child = eg.graph if e is None else t.child(eg.graph, op, e)
    s_child = sm & t.cuts(child)[0]
    side_a = t.edges_of(side)
    witness = SplitWitness(
        operation=op,
        edge=e,
        side_a=side_a,
        side_b=child.edge_ids() - side_a,
        boundary=boundary(child, side_a),
        config_in_a=(side & s_child).bit_count(),
        config_in_b=(s_child & ~side).bit_count(),
    )
    return SplitVerdict(True, witness)


def graph_splits(g: MultiGraph | EnhancedGraph) -> tuple[bool, frozenset[int] | None]:
    """Whether every 5-configuration splits; if not, the first failing one.

    Configurations are scanned in sorted edge-id order.  Graphs with fewer
    than five edges split vacuously; disconnected graphs need no special
    handling because cross-component configurations split at order 0.
    """
    eg = _as_enhanced(g)
    for combo in itertools.combinations(sorted(eg.graph.edges), 5):
        s = frozenset(combo)
        if _split_side(eg, s)[2] is None:
            return False, s
    return True, None


def witness_holds(
    eg: EnhancedGraph, config: Iterable[int], w: SplitWitness
) -> bool:
    """Re-verify a split witness from the definition; used by tests."""
    s = frozenset(config)
    g = eg.graph
    if w.operation == "none":
        child, s2 = g, s
    elif w.operation == "delete":
        if w.edge not in s or w.edge in eg.delete_protected:
            return False
        child, s2 = delete_edge(g, w.edge), s - {w.edge}
    elif w.operation == "contract":
        if w.edge not in s or w.edge in eg.contract_protected or g.is_loop(w.edge):
            return False
        child = contract_edge(g, w.edge)
        s2 = (s - {w.edge}) & child.edge_ids()
    else:
        return False
    if w.side_a | w.side_b != child.edge_ids() or w.side_a & w.side_b:
        return False
    bnd = boundary(child, w.side_a)
    if bnd != w.boundary:
        return False
    ca, cb = len(w.side_a & s2), len(w.side_b & s2)
    if (ca, cb) != (w.config_in_a, w.config_in_b):
        return False
    if len(bnd) <= 1 and ca >= 1 and cb >= 1:
        return True
    return len(bnd) <= 2 and min(ca, cb) == 2 and max(ca, cb) >= 2


# -- association with plain graphs (lobe collapse and gadget expansion) ------


def to_enhanced(g: MultiGraph, config: Iterable[int]) -> tuple[EnhancedGraph, frozenset[int]]:
    """Collapse a non-split plain configuration to its enhanced 3-connected form.

    The block of G containing S is decomposed into maximal lobes: unions of
    sides of order-<=2 separations carrying at most one S-edge.  Each maximal
    lobe with more than one edge is replaced by a single edge between its two
    boundary vertices; the replacement inherits membership in the
    configuration and earns protections:

      * delete protection when the lobe minus S connects the two boundary
        vertices (the lobe survives deletion of its S-edge), and
      * contract protection when its S-edge does not itself join the two
        boundary vertices (the lobe survives contraction of its S-edge).

    Raises ValueError when S splits (no enhanced form exists then).
    """
    s = _check_config(g, config)
    if not is_connected(g):
        raise ValueError("the underlying graph must be connected")
    if _split_side(plain(g), s)[2] is not None:
        raise ValueError("the configuration splits; it has no enhanced form")
    holders = [b for b in blocks(g) if b & s]
    if len(holders) != 1:
        raise RuntimeError("a non-split configuration lives in one block")
    block_edges = holders[0]
    gp = MultiGraph(
        {v for e in block_edges for v in g.endpoints(e)},
        {e: g.edges[e] for e in block_edges},
    )
    lobes = [
        side
        for sep in enumerate_low_order_separations(gp, 2)
        for side in (sep.side_a, sep.side_b)
        if side and len(side & s) <= 1
    ]
    maximal: dict[int, frozenset[int]] = {}
    for e in sorted(gp.edges):
        m_e = frozenset([e]).union(*(lb for lb in lobes if e in lb))
        if len(m_e & s) > 1 or len(boundary(gp, m_e)) > 2:
            raise RuntimeError("union of lobes through an edge must again be a lobe")
        maximal[e] = m_e
    distinct = sorted({m for m in maximal.values()}, key=sorted)
    if sorted(e for lb in distinct for e in lb) != sorted(gp.edges):
        raise RuntimeError("maximal lobes must partition the block's edges")
    new_edges: dict[int, tuple[int, int]] = {}
    s_out: set[int] = set()
    c_out: set[int] = set()
    d_out: set[int] = set()
    next_id = max(g.edges) + 1
    for lb in distinct:
        if len(lb) == 1:
            (e,) = lb
            new_edges[e] = gp.edges[e]
            if e in s:
                s_out.add(e)
            continue
        ends = boundary(gp, lb)
        if len(ends) != 2:
            raise RuntimeError("a collapsed lobe has exactly two boundary vertices")
        x, y = sorted(ends)
        eid = next_id
        next_id += 1
        new_edges[eid] = (x, y)
        lobe_s = lb & s
        if not lobe_s:
            continue
        s_out.add(eid)
        (se,) = lobe_s
        rest = MultiGraph(gp.vertices, {f: gp.edges[f] for f in lb - s})
        if any(ends <= comp for comp in connected_components(rest)):
            d_out.add(eid)
        if frozenset(gp.endpoints(se)) != ends:
            c_out.add(eid)
    gt = MultiGraph({v for uv in new_edges.values() for v in uv}, new_edges)
    if len(s_out) != 5:
        raise RuntimeError("the collapsed configuration must keep five edges")
    if len(set(gt.edges.values())) != gt.m or any(u == v for u, v in gt.edges.values()):
        raise RuntimeError("the collapsed graph must be simple")
    if not is_k_connected(gt, 3):
        raise RuntimeError("the collapsed graph must be 3-connected")
    eg = EnhancedGraph(gt, frozenset(c_out), frozenset(d_out))
    if _split_side(eg, frozenset(s_out))[2] is not None:
        raise RuntimeError("the collapsed configuration must stay non-split")
    return eg, frozenset(s_out)


# The parts of a doubly protected edge xy, subdivided at the new vertex z.
_BOTH_PROTECTED = {
    "triangle": lambda x, y, z: [(x, z), (z, y), (x, y)],
    "double-low": lambda x, y, z: [(x, z), (x, z), (z, y)],
    "double-high": lambda x, y, z: [(z, y), (z, y), (x, z)],
}
GADGETS = tuple(_BOTH_PROTECTED)


def from_enhanced(
    eg: EnhancedGraph, config: Iterable[int], gadget: str = "triangle"
) -> tuple[MultiGraph, frozenset[int]]:
    """Expand protections into plain gadgets; inverse of to_enhanced on canonical forms.

    Per edge e = xy (x the lower endpoint): delete protection alone doubles the
    edge; contract protection alone subdivides it (the configuration moves to
    the half at x); both protections expand to the default triangle gadget
    x-z-y plus the chord xy, with the configuration on xz.  The alternative
    doubly protected gadgets subdivide and double one half instead.  Edge e
    keeps the first part of its gadget and new parts take fresh ids, so the
    configuration keeps its ids.  The edge count of the result equals the
    weight of the input.
    """
    if gadget not in GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}")
    g = eg.graph
    s = frozenset(config)
    if not s <= g.edge_ids():
        raise ValueError("configuration edges must belong to the graph")
    edges: dict[int, tuple[int, int]] = {}
    vertices = set(g.vertices)
    next_v = max(g.vertices) + 1 if g.vertices else 0
    next_e = max(g.edges) + 1 if g.edges else 1
    for e in sorted(g.edges):
        x, y = g.edges[e]
        in_d = e in eg.delete_protected
        if e in eg.contract_protected:
            z = next_v
            next_v += 1
            vertices.add(z)
            parts = _BOTH_PROTECTED[gadget](x, y, z) if in_d else [(x, z), (z, y)]
        else:
            parts = [(x, y)] * (2 if in_d else 1)
        edges[e] = parts[0]
        for part in parts[1:]:
            edges[next_e] = part
            next_e += 1
    out = MultiGraph(vertices, edges)
    if out.m != eg.weight:
        raise RuntimeError("gadget expansion must preserve the weight")
    return out, s
