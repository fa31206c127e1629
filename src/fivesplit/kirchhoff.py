"""Kirchhoff polynomials, Dodgson polynomials, and the 5-invariant.

For a connected graph G with n vertices and m edges, fix an expanded Laplacian

    M = [ A      X ]
        [ -X^T   0 ]

where A is the m x m diagonal matrix of edge variables x_e and X is the m x
(n-1) signed incidence matrix with one vertex column removed.  Then det M is
the Kirchhoff polynomial (the spanning tree generating function in the
complements), and for I, J, K subsets of E with |I| = |J| and K disjoint from
I and J, the Dodgson polynomial is

    P(I,J;K) = det M(I,J)_K

obtained by striking rows I, columns J, and zeroing the diagonal entries of K.
Dodgson polynomials depend on the edge order, the orientations and the
struck vertex only up to a global sign.  Every polynomial here uses one
matrix: edges ascending by id, each edge oriented from its stored lower
endpoint to its higher one, and the highest vertex's column struck.

Everything here is exact integer arithmetic; determinants use fraction-free
Bareiss elimination over the polynomial ring, and an independent expansion
over spanning trees provides a second route with matching signs.  Whether a
Dodgson polynomial is zero is decided without expanding it, by matroid
intersection (`dodgson_vanishes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph_core import MultiGraph, _int_det, spanning_trees
from .matroid import GraphicMatroid, MinorOracle, common_completion_exists
from .poly import MultiPoly, divexact


@dataclass(frozen=True)
class DodgsonSpec:
    i_set: frozenset[int]
    j_set: frozenset[int]
    k_set: frozenset[int]

    def validate(self, g: MultiGraph) -> None:
        for s in (self.i_set, self.j_set, self.k_set):
            unknown = s - g.edge_ids()
            if unknown:
                raise ValueError(f"spec names unknown edges {sorted(unknown)}")
        if len(self.i_set) != len(self.j_set):
            raise ValueError("|I| and |J| must agree")
        if self.k_set & (self.i_set | self.j_set):
            raise ValueError("K must be disjoint from I and J")


def _poly_det(rows: list[dict[int, MultiPoly]]) -> MultiPoly:
    """Determinant of a square matrix given by its sparse rows: fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 1968) with full pivoting.

    Row i maps column j to the nonzero entry M[i][j]; columns are 0..n-1.
    Pivots prefer entries with few terms and low degree, which keeps the
    arithmetic on the integer constants of the incidence blocks for as long as
    possible.  Eliminating the pivot at the r-th live row and c-th live column
    contributes (-1)^(r+c) to the sign.  A row with no entry in the pivot
    column is only rescaled by pivot / previous pivot, and left as it is when
    the two are equal; every other update skips the entries that are
    structurally zero.
    """
    n = len(rows)
    live_rows = list(range(n))
    live_cols = list(range(n))
    m = [dict(row) for row in rows]
    sign = 1
    prev = pivot = MultiPoly.const(1)
    while live_rows:
        best = None
        for i in live_rows:
            for j, p in m[i].items():
                lead_mono, lead_c = p.leading()
                score = (len(p.terms), sum(e for _, e in lead_mono), abs(lead_c), i, j)
                if best is None or score < best:
                    best = score
            if best is not None and best[:3] == (1, 0, 1):
                break  # a constant +-1; no later row can beat it
        if best is None:
            return MultiPoly.zero()
        pi, pj = best[3], best[4]
        if (live_rows.index(pi) + live_cols.index(pj)) & 1:
            sign = -sign
        live_rows.remove(pi)
        live_cols.remove(pj)
        pivot_row = m[pi]
        pivot = pivot_row.pop(pj)
        same = pivot == prev
        for i in live_rows:
            row = m[i]
            a = row.pop(pj, None)
            if a is None:
                if not same:
                    for j, x in row.items():
                        row[j] = divexact(x * pivot, prev)
                continue
            for j, y in pivot_row.items():
                x = row.pop(j, None)
                q = divexact((x * pivot if x is not None else MultiPoly.zero()) - a * y, prev)
                if q:
                    row[j] = q
            for j, x in row.items():
                if j not in pivot_row:
                    row[j] = divexact(x * pivot, prev)
        prev = pivot
    return pivot.negate() if sign < 0 else pivot


def _incidence_entry(tail: int, head: int, w: int) -> int:
    if tail == head:
        return 0
    if w == tail:
        return 1
    if w == head:
        return -1
    return 0


def _incidence_columns(g: MultiGraph) -> list[int]:
    """The incidence columns: every vertex but the struck highest one, ascending."""
    if g.n == 0:
        raise ValueError("convention needs at least one vertex")
    return sorted(g.vertices)[:-1]


def _dodgson_matrix(g: MultiGraph, spec: DodgsonSpec) -> list[dict[int, MultiPoly]]:
    """The sparse rows of M(I,J)_K: edge rows E - I, then the incidence rows;
    edge columns E - J, then the incidence columns."""
    vcols = _incidence_columns(g)
    edges = sorted(g.edges)
    rows = [e for e in edges if e not in spec.i_set]
    cols = [e for e in edges if e not in spec.j_set]
    colpos = {f: c for c, f in enumerate(cols)}
    vpos = [(w, len(cols) + c) for c, w in enumerate(vcols)]
    mat: list[dict[int, MultiPoly]] = []
    for e in rows:
        t, h = g.edges[e]
        row = {}
        if e in colpos and e not in spec.k_set:
            row[colpos[e]] = MultiPoly.variable(e)
        for w, c in vpos:
            x = _incidence_entry(t, h, w)
            if x:
                row[c] = MultiPoly.const(x)
        mat.append(row)
    for w in vcols:
        row = {}
        for f, c in colpos.items():
            x = -_incidence_entry(*g.edges[f], w)
            if x:
                row[c] = MultiPoly.const(x)
        mat.append(row)
    return mat


def dodgson(g: MultiGraph, spec: DodgsonSpec) -> MultiPoly:
    """Dodgson polynomial by symbolic determinant; multilinear by construction."""
    spec.validate(g)
    det = _poly_det(_dodgson_matrix(g, spec))
    if det.max_exponent() > 1:
        raise RuntimeError("Dodgson polynomial must be multilinear")
    if det.variables() & (spec.i_set | spec.j_set | spec.k_set):
        raise RuntimeError("Dodgson polynomial has a variable of I, J or K")
    return det


def dodgson_via_trees(g: MultiGraph, spec: DodgsonSpec) -> MultiPoly:
    """Dodgson polynomial by expansion over spanning trees; matches dodgson exactly.

    Expanding det M(I,J)_K multilinearly in the edge variables, the monomial
    with support U survives exactly when both R = (E - I) - U and C = (E - J) - U
    are spanning trees, contributing

        sgn(U) * det(X[R]) * det(X[C]),    sgn(U) = prod_{e in U} (-1)^{r(e)+c(e)}

    with r(e), c(e) the positions of e among the rows E - I and the columns
    E - J, and X[T] the tree-rows incidence minor (determinant +-1).
    """
    spec.validate(g)
    vcols = _incidence_columns(g)
    edges = sorted(g.edges)
    rows = [e for e in edges if e not in spec.i_set]
    cols = [e for e in edges if e not in spec.j_set]
    rowpos = {e: i for i, e in enumerate(rows)}
    colpos = {e: i for i, e in enumerate(cols)}
    all_edges = g.edge_ids()

    tree_sign: dict[frozenset[int], int] = {}
    for t in spanning_trees(g):
        order = sorted(t)
        mat = [
            [_incidence_entry(*g.edges[e], w) for w in vcols]
            for e in order
        ]
        tree_sign[t] = _int_det(mat)

    out = MultiPoly.zero()
    forbidden = spec.j_set | spec.k_set
    for r_tree, sr in tree_sign.items():
        if r_tree & spec.i_set:
            continue
        u = (all_edges - spec.i_set) - r_tree
        if u & forbidden:
            # the monomial support must avoid I, J and K
            continue
        c_tree = (all_edges - spec.j_set) - u
        sc = tree_sign.get(c_tree)
        if sc is None:
            continue
        sgn = sr * sc
        for e in u:
            sgn *= -1 if (rowpos[e] + colpos[e]) & 1 else 1
        out = out + MultiPoly.monomial(u, sgn)
    if out.max_exponent() > 1:
        raise RuntimeError("Dodgson polynomial must be multilinear")
    return out


def kirchhoff_poly(g: MultiGraph) -> MultiPoly:
    """Kirchhoff polynomial: sum over spanning trees of the complement monomials.

    Computed as the symbolic determinant with nothing struck or zeroed, its
    sign normalised positive.
    """
    return dodgson(g, DodgsonSpec(frozenset(), frozenset(), frozenset())).sign_normalised()


def thirty_specs(g: MultiGraph, config: Sequence[int] | frozenset[int]) -> list[DodgsonSpec]:
    """The 30 Dodgson index triples of a 5-edge configuration.

    One spec per choice of a distinguished edge e of S, a pairing of the
    remaining four into {a,b} and {c,d}, and a side: P({a,b},{c,d};{e}) or
    P({a,b,e},{c,d,e}; {}).  Specs are deduplicated on the unordered pair
    {I, J}; exactly 30 remain.
    """
    s = sorted(set(config))
    if len(s) != 5:
        raise ValueError("a configuration has five distinct edges")
    if not set(s) <= set(g.edges):
        raise ValueError("configuration edges must belong to the graph")
    seen: set[tuple] = set()
    out: list[DodgsonSpec] = []
    for e in s:
        rest = [f for f in s if f != e]
        a = rest[0]
        for b in rest[1:]:
            pair1 = frozenset([a, b])
            pair2 = frozenset(rest) - pair1
            for i_set, j_set, k_set in (
                (pair1, pair2, frozenset([e])),
                (pair1 | {e}, pair2 | {e}, frozenset()),
            ):
                lo, hi = sorted((tuple(sorted(i_set)), tuple(sorted(j_set))))
                key = (lo, hi, tuple(sorted(k_set)))
                if key in seen:
                    continue
                seen.add(key)
                out.append(DodgsonSpec(frozenset(lo), frozenset(hi), k_set))
    if len(out) != 30:
        raise RuntimeError(f"a configuration gave {len(out)} Dodgson specs, not 30")
    return out


def thirty_dodgsons(
    g: MultiGraph, config: Sequence[int] | frozenset[int]
) -> list[tuple[DodgsonSpec, MultiPoly]]:
    """The 30 Dodgson polynomials of a 5-edge configuration, in `thirty_specs` order."""
    return [(spec, dodgson(g, spec)) for spec in thirty_specs(g, config)]


def dodgson_vanishes(g: MultiGraph, spec: DodgsonSpec) -> bool:
    """Is the Dodgson polynomial of spec zero?  Exact, by matroid intersection.

    In the tree expansion (`dodgson_via_trees`) each monomial comes from one
    pair of spanning trees W + (J - I) and W + (I - J), with K <= W and W
    disjoint from I and J, and has coefficient +-1; distinct W give distinct
    monomials, so nothing cancels.  The polynomial is therefore zero exactly
    when no such W exists: no common completion of K + (J - I) and
    K + (I - J) to spanning trees of G - (I & J).  A loop or cycle in a
    forced set, or a disconnected G - (I & J), leaves none.
    """
    spec.validate(g)
    i, j, k = spec.i_set, spec.j_set, spec.k_set
    base = MinorOracle(GraphicMatroid(g), (), i & j)
    return not common_completion_exists(base, k | (j - i), k | (i - j), g.n - 1)


def five_invariant(g: MultiGraph, edges_ordered: Sequence[int]) -> MultiPoly:
    """The 5-invariant of an ordered 5-tuple of edges, sign-normalised.

    With edges (e1,...,e5),

        P({e1,e2},{e3,e4};{e5}) * P({e1,e3,e5},{e2,e4,e5})
      - P({e1,e3},{e2,e4};{e5}) * P({e1,e2,e5},{e3,e4,e5})

    with every P read off the module's one matrix: edges ascending by id, each
    edge oriented from its lower endpoint to its higher one, the highest
    vertex's column struck.  Another ordering or another matrix changes the
    result only by an overall sign; the representative with positive leading
    coefficient is returned.
    """
    es = list(edges_ordered)
    if len(es) != 5 or len(set(es)) != 5:
        raise ValueError("need five distinct edges")
    e1, e2, e3, e4, e5 = es
    _incidence_columns(g)  # refuse a graph with no vertex before naming its edges

    def dd(i_set: set[int], j_set: set[int], k_set: set[int]) -> MultiPoly:
        return dodgson(g, DodgsonSpec(frozenset(i_set), frozenset(j_set), frozenset(k_set)))

    term1 = dd({e1, e2}, {e3, e4}, {e5}) * dd({e1, e3, e5}, {e2, e4, e5}, set())
    term2 = dd({e1, e3}, {e2, e4}, {e5}) * dd({e1, e2, e5}, {e3, e4, e5}, set())
    return (term1 - term2).sign_normalised()
