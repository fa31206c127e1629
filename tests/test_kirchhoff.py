"""Kirchhoff polynomial, Dodgson polynomials, and the 5-invariant."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivesplit import kirchhoff
from fivesplit.graph_core import MultiGraph, contract_edge, delete_edge, is_connected
from fivesplit.kirchhoff import (
    DodgsonSpec,
    _dodgson_matrix,
    _poly_det,
    dodgson,
    dodgson_vanishes,
    dodgson_via_trees,
    five_invariant,
    kirchhoff_poly,
    thirty_dodgsons,
    thirty_specs,
)
from fivesplit.named_graphs import (
    complete_graph,
    cube,
    octahedron,
    wheel,
)
from fivesplit.poly import MultiPoly, divexact
from fivesplit.search import enumerate_underlying
from fivesplit.splitting import config_splits
from builders import cycle_graph, path_graph, scattered_multigraphs, triangle
from oracles import (
    divexact_by_leading_terms,
    five_invariant_all_orderings_agree,
    kirchhoff_by_trees,
    leibniz_det,
)


def _random_multigraph(rng: random.Random, n: int, m: int) -> MultiGraph:
    edges = {}
    for e in range(1, m + 1):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges[e] = (u, v) if u <= v else (v, u)
    return MultiGraph(range(n), edges)


def test_triangle_kirchhoff():
    psi = kirchhoff_poly(triangle())
    assert psi == MultiPoly.variable(1) + MultiPoly.variable(2) + MultiPoly.variable(3)


def test_k5_tree_count_via_kirchhoff():
    g = complete_graph(5)
    psi = kirchhoff_poly(g)
    assert psi.eval_int({e: 1 for e in g.edges}) == 125


def test_kirchhoff_is_homogeneous_multilinear():
    for g in [complete_graph(4), wheel(4), cycle_graph(5)]:
        psi = kirchhoff_poly(g)
        assert psi.max_exponent() == 1
        degree = g.m - g.n + 1
        assert all(len(mono) == degree for mono, _ in psi.sorted_terms())


def test_kirchhoff_of_disconnected_graph_is_zero():
    g = MultiGraph(range(4), {1: (0, 1), 2: (2, 3)})
    assert kirchhoff_poly(g).is_zero()


def test_kirchhoff_determinant_matches_the_tree_sum_on_the_census():
    census = [g for m in range(1, 9) for g in enumerate_underlying(m, three_connected=False)]
    assert len(census) == 358
    for g in census:
        assert kirchhoff_poly(g) == kirchhoff_by_trees(g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_multigraphs(min_edges=1))
def test_kirchhoff_determinant_matches_the_tree_sum_on_multigraphs(g):
    # loops, parallel edges and isolated vertices; a disconnected graph has
    # no spanning tree, so both routes give zero
    assert kirchhoff_poly(g) == kirchhoff_by_trees(g)


def test_deletion_contraction_identity():
    # psi_G = x_e psi_{G-e} + (prod of created-loop variables) psi_{G/e};
    # the loop factor accounts for parallels of e removed by the loop policy
    rng = random.Random(2)
    for _ in range(30):
        g = _random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 7))
        for e in sorted(g.edges):
            if g.is_loop(e):
                continue
            lhs = kirchhoff_poly(g)
            loops = MultiPoly.const(1)
            for f, uv in g.edges.items():
                if f != e and set(uv) == set(g.endpoints(e)):
                    loops = loops * MultiPoly.variable(f)
            rhs = MultiPoly.variable(e) * kirchhoff_poly(delete_edge(g, e)) + loops * kirchhoff_poly(
                contract_edge(g, e)
            )
            assert lhs == rhs


def test_striking_row_and_column_deletes_the_edge():
    # Psi^{e,e} = d(Psi)/dx_e = Psi_{G-e}; on the triangle this is the constant 1
    g = triangle()
    spec = DodgsonSpec(frozenset({1}), frozenset({1}), frozenset())
    p = dodgson(g, spec)
    assert p == MultiPoly.const(1)
    assert p == kirchhoff_poly(delete_edge(g, 1))
    k4 = complete_graph(4)
    spec4 = DodgsonSpec(frozenset({1}), frozenset({1}), frozenset())
    assert dodgson(k4, spec4) == kirchhoff_poly(delete_edge(k4, 1))


def test_zeroing_a_variable_contracts_the_edge():
    # Psi with x_e = 0 keeps the monomials avoiding e, i.e. Psi_{G/e}
    g = triangle()
    spec = DodgsonSpec(frozenset(), frozenset(), frozenset({1}))
    p = dodgson(g, spec)
    assert p == MultiPoly.variable(2) + MultiPoly.variable(3)
    assert p == kirchhoff_poly(contract_edge(g, 1))
    k4 = complete_graph(4)
    spec4 = DodgsonSpec(frozenset(), frozenset(), frozenset({1}))
    assert dodgson(k4, spec4) == kirchhoff_poly(contract_edge(k4, 1))


def test_triangle_small_dodgson_is_constant():
    g = triangle()
    spec = DodgsonSpec(frozenset({1}), frozenset({2}), frozenset())
    p = dodgson(g, spec)
    assert p.equal_up_to_sign(MultiPoly.const(1))
    assert p == dodgson_via_trees(g, spec)
    assert not p.variables() & {1, 2}


def test_bridge_in_i_gives_zero():
    # triangle with a pendant bridge; the bridge lies in every spanning tree
    g = MultiGraph(range(4), {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (2, 3)})
    spec = DodgsonSpec(frozenset({4}), frozenset({1}), frozenset())
    assert dodgson(g, spec).is_zero()
    assert dodgson_via_trees(g, spec).is_zero()


def test_dodgson_two_routes_agree_exactly():
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        g = _random_multigraph(rng, rng.randint(3, 5), rng.randint(4, 7))
        if not is_connected(g):
            continue
        edges = sorted(g.edges)
        for i_set in itertools.combinations(edges, 2):
            for j_set in itertools.combinations(edges, 2):
                if set(i_set) & set(j_set):
                    continue
                spec = DodgsonSpec(frozenset(i_set), frozenset(j_set), frozenset())
                assert dodgson(g, spec) == dodgson_via_trees(g, spec)
        checked += 1


def test_dodgson_convention_independent_up_to_sign():
    # relabelling vertices and edges moves the struck vertex and changes the
    # edge order and the orientations, so the relabelled graph computes the
    # same polynomial from another matrix
    rng = random.Random(17)
    done = flipped = 0
    while done < 50:
        g = _random_multigraph(rng, rng.randint(3, 5), rng.randint(4, 7))
        if not is_connected(g) or g.m < 5:
            continue
        edges = sorted(g.edges)
        spec = DodgsonSpec(frozenset(edges[:2]), frozenset(edges[2:4]), frozenset())
        vmap = dict(zip(sorted(g.vertices), rng.sample(sorted(g.vertices), g.n)))
        emap = dict(zip(edges, rng.sample(edges, g.m)))
        h = MultiGraph(g.vertices, {emap[e]: (vmap[u], vmap[v]) for e, (u, v) in g.edges.items()})
        i_h = frozenset(emap[e] for e in spec.i_set)
        spec_h = DodgsonSpec(i_h, frozenset(emap[e] for e in spec.j_set), frozenset())
        other = dodgson(h, spec_h)
        assert dodgson_via_trees(h, spec_h) == other
        back = {f: e for e, f in emap.items()}
        renamed = MultiPoly.zero()
        for mono, c in other.sorted_terms():
            renamed = renamed + MultiPoly.monomial([back[v] for v, _ in mono], c)
        base = dodgson(g, spec)
        assert base.equal_up_to_sign(renamed)
        flipped += not base.is_zero() and base != renamed
        done += 1
    # some relabellings flip the sign, so the matrix really changed
    assert 0 < flipped < done


def test_spec_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        DodgsonSpec(frozenset({1}), frozenset({2, 3}), frozenset()).validate(g)
    with pytest.raises(ValueError):
        DodgsonSpec(frozenset({1}), frozenset({2}), frozenset({1})).validate(g)
    with pytest.raises(ValueError):
        DodgsonSpec(frozenset({99}), frozenset({1}), frozenset()).validate(g)


def test_thirty_dodgsons_shape():
    g = complete_graph(5)
    out = thirty_dodgsons(g, [1, 2, 3, 4, 5])
    assert len(out) == 30
    small = [spec for spec, _ in out if len(spec.i_set) == 2]
    large = [spec for spec, _ in out if len(spec.i_set) == 3]
    assert len(small) == 15
    assert len(large) == 15
    for spec, _ in out:
        if len(spec.i_set) == 2:
            assert len(spec.k_set) == 1
            assert not spec.i_set & spec.j_set
        else:
            assert len(spec.k_set) == 0
            assert len(spec.i_set & spec.j_set) == 1
    with pytest.raises(ValueError):
        thirty_dodgsons(g, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        thirty_dodgsons(g, [1, 2, 3, 4, 99])


def test_five_invariant_permutation_invariance():
    g = wheel(5)
    config = [1, 3, 5, 7, 9]
    base = five_invariant(g, config)
    rng = random.Random(23)
    for _ in range(6):
        perm = rng.sample(config, 5)
        assert five_invariant(g, perm).equal_up_to_sign(base)
    assert five_invariant_all_orderings_agree(g, config)


def test_five_invariant_rejects_bad_edge_lists():
    g = wheel(4)
    with pytest.raises(ValueError):
        five_invariant(g, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        five_invariant(g, [1, 1, 2, 3, 4])


def test_triangle_in_k4_kills_a_product_term():
    # a configuration containing a triangle has a vanishing Dodgson, and an
    # ordering that places it in the defining formula drops that product term
    g = complete_graph(4)  # edges 1:(0,1) 2:(0,2) 3:(0,3) 4:(1,2) 5:(1,3) 6:(2,3)
    config = [1, 2, 4, 5, 6]  # contains triangle {1, 2, 4}
    zeros = [(spec, p) for spec, p in thirty_dodgsons(g, config) if p.is_zero()]
    assert zeros
    spec, _ = next(
        (s, p) for s, p in zeros if len(s.i_set) == 2 and not s.i_set & s.j_set
    )
    a, b = sorted(spec.i_set)
    c, d = sorted(spec.j_set)
    (e,) = spec.k_set
    fi = five_invariant(g, (a, b, c, d, e))
    term2 = dodgson(g, DodgsonSpec(frozenset({a, c}), frozenset({b, d}), frozenset({e}))) * dodgson(
        g, DodgsonSpec(frozenset({a, b, e}), frozenset({c, d, e}), frozenset())
    )
    assert fi.equal_up_to_sign(term2)


def test_k5_nonsplit_configurations_have_nonzero_five_invariant():
    g = complete_graph(5)
    edges = sorted(g.edges)
    nonsplit = [
        s for s in itertools.combinations(edges, 5) if not config_splits(g, s).splits
    ]
    assert nonsplit
    for s in nonsplit:
        assert not five_invariant(g, s).is_zero()


def test_tree_dodgsons():
    g = path_graph(4)
    # every edge of a tree is a bridge, so any I != J Dodgson vanishes
    spec = DodgsonSpec(frozenset({1}), frozenset({2}), frozenset())
    assert dodgson(g, spec).is_zero()
    # contracting an edge leaves a smaller tree with Kirchhoff polynomial 1
    spec_k = DodgsonSpec(frozenset(), frozenset(), frozenset({1}))
    assert dodgson(g, spec_k) == MultiPoly.const(1)


def test_thirty_specs_match_thirty_dodgsons():
    g = complete_graph(5)
    specs = thirty_specs(g, [5, 4, 3, 2, 1])
    assert specs == [spec for spec, _ in thirty_dodgsons(g, [1, 2, 3, 4, 5])]
    assert len(set(specs)) == 30
    with pytest.raises(ValueError, match="five distinct edges"):
        thirty_specs(g, [1, 2, 3, 4, 4])
    with pytest.raises(ValueError, match="belong to the graph"):
        thirty_specs(g, [1, 2, 3, 4, 99])


def _assert_vanishing_matches_tree_route(g: MultiGraph, config) -> list[bool]:
    zeros = []
    for spec in thirty_specs(g, config):
        zero = dodgson_via_trees(g, spec).is_zero()
        assert dodgson_vanishes(g, spec) == zero, spec
        zeros.append(zero)
    return zeros


def test_dodgson_vanishes_matches_tree_route_on_census():
    census = [g for m in range(1, 9) for g in enumerate_underlying(m, three_connected=False)]
    assert len(census) == 358
    rng = random.Random(20261018)
    for g in census:
        if g.m >= 5:
            _assert_vanishing_matches_tree_route(g, rng.sample(sorted(g.edges), 5))


@st.composite
def _multigraph_configurations(draw):
    """A multigraph of any connectivity, loops and parallel edges allowed, and a configuration."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=5, max_size=9))
    g = MultiGraph(range(n), {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(ends, 1)})
    config = draw(st.permutations(sorted(g.edges)))[:5]
    return g, config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_multigraph_configurations())
def test_dodgson_vanishes_matches_tree_route_on_multigraphs(case):
    _assert_vanishing_matches_tree_route(*case)


def test_dodgson_vanishes_keeps_an_edge_parallel_to_k():
    # K4 plus edge 7 parallel to edge 1; contracting 1 turns 7 into a loop,
    # which must still count when 7 lies in I or J
    g = MultiGraph(range(4), {**complete_graph(4).edges, 7: (0, 1)})
    specs = [s for s in thirty_specs(g, [1, 2, 5, 6, 7]) if s.k_set == {1}]
    split = [s for s in specs if 7 in s.i_set ^ s.j_set]
    assert split
    assert all(dodgson_vanishes(g, s) for s in split)
    assert _assert_vanishing_matches_tree_route(g, [1, 2, 5, 6, 7]).count(False) > 0


def test_dodgson_vanishes_on_loops_and_disconnected_graphs():
    # two disjoint triangles: no spanning tree, so all 30 polynomials vanish
    two_triangles = MultiGraph(
        range(6), {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (3, 4), 5: (4, 5), 6: (3, 5)}
    )
    assert all(_assert_vanishing_matches_tree_route(two_triangles, [1, 2, 3, 4, 5]))
    # edge 3 is a bridge, so deleting I & J = {3} disconnects the graph
    bridged = MultiGraph(range(4), {1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (0, 2), 5: (0, 1)})
    _assert_vanishing_matches_tree_route(bridged, [1, 2, 3, 4, 5])
    spec = DodgsonSpec(frozenset({1, 3}), frozenset({2, 3}), frozenset())
    assert dodgson_vanishes(bridged, spec)
    assert dodgson(bridged, spec).is_zero()
    # a loop in K kills every term
    looped = MultiGraph(range(3), {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (1, 1), 5: (0, 1)})
    spec = DodgsonSpec(frozenset({1}), frozenset({2}), frozenset({4}))
    assert dodgson_vanishes(looped, spec)
    assert dodgson(looped, spec).is_zero()
    assert _assert_vanishing_matches_tree_route(looped, [1, 2, 3, 4, 5]).count(False) > 0


def _random_entry(rng: random.Random) -> MultiPoly:
    r = rng.random()
    if r < 0.45:
        return MultiPoly.zero()
    if r < 0.7:
        return MultiPoly.const(rng.choice([-2, -1, 1, 1, 2, 3]))
    if r < 0.85:
        return MultiPoly.variable(rng.randint(1, 3))
    # repeated variables, squares and several terms
    x = MultiPoly.variable
    return x(rng.randint(1, 3)) * x(rng.randint(1, 3)) + x(rng.randint(1, 4)).scale(rng.choice([-1, 2]))


def _kernel_matrices(rng: random.Random, n: int):
    def fresh():
        return [[_random_entry(rng) for _ in range(n)] for _ in range(n)]

    for _ in range(10):
        yield fresh()
    yield [[MultiPoly.const(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n == 0:
        return
    mat = fresh()
    mat[rng.randrange(n)] = [MultiPoly.zero()] * n  # a zero row
    yield mat
    mat = fresh()
    j = rng.randrange(n)
    for row in mat:
        row[j] = MultiPoly.zero()  # a zero column
    yield mat
    if n >= 2:
        # singular: the last row a polynomial combination of two others
        mat = fresh()
        a, b = _random_entry(rng), _random_entry(rng)
        mat[-1] = [a * p + b * q for p, q in zip(mat[0], mat[-2])]
        yield mat


def test_sparse_bareiss_matches_the_leibniz_expansion():
    rng = random.Random(20261019)
    for n in range(7):
        for mat in _kernel_matrices(rng, n):
            rows = [{j: p for j, p in enumerate(row) if p} for row in mat]
            before = [dict(row) for row in rows]
            assert _poly_det(rows) == leibniz_det(mat), mat
            assert rows == before


def test_one_term_division_checks_every_term():
    x = MultiPoly.variable
    # every term but one is divisible
    with pytest.raises(ArithmeticError, match="coefficient"):
        divexact(x(1).scale(4) + x(2).scale(6) + x(3).scale(3) + MultiPoly.const(8), MultiPoly.const(2))
    with pytest.raises(ArithmeticError, match="monomial"):
        divexact(x(1) * x(2) + x(1) * x(3) + x(2) + x(1) * x(1), x(1))
    assert divexact(x(1) * x(2).scale(-6) + x(1).scale(4), x(1).scale(-2)) == x(2).scale(3) - MultiPoly.const(2)


def test_the_kernel_divides_through_the_module_name(monkeypatch):
    # the benchmark times `kirchhoff.divexact`; an inlined division would read as 0 calls
    calls = []

    def counting(p, d):
        calls.append(d)
        return divexact(p, d)

    monkeypatch.setattr(kirchhoff, "divexact", counting)
    g = complete_graph(4)
    spec = DodgsonSpec(frozenset({1}), frozenset({2}), frozenset({3}))
    assert _poly_det(_dodgson_matrix(g, spec)) == dodgson_via_trees(g, spec)
    assert calls


def test_kirchhoff_many_term_divisions_match_the_leading_term_loop(monkeypatch):
    # the cube's and the octahedron's determinants each divide about 1,500
    # terms by a 6-term pivot
    seen = []

    def recording(p, d):
        if len(d) > 1:
            seen.append((p, d))
        return divexact(p, d)

    monkeypatch.setattr(kirchhoff, "divexact", recording)
    for g in (cube(), octahedron(), complete_graph(5)):
        kirchhoff_poly(g)
    assert sorted(len(p) for p, _ in seen) == [425, 1536, 1591]
    for p, d in seen:
        q = divexact(p, d)
        assert list(q.terms.items()) == list(divexact_by_leading_terms(p, d).terms.items())
        assert q * d == p


def _census_polynomial_digest() -> str:
    census = [g for m in range(1, 9) for g in enumerate_underlying(m, three_connected=False)]
    assert len(census) == 358
    rng = random.Random(20261019)
    h = hashlib.sha1()
    for g in census:
        ids = sorted(g.edges)
        h.update(kirchhoff_poly(g).render().encode())
        for _ in range(2):
            r = rng.randint(0, min(3, len(ids)))
            i_set = frozenset(rng.sample(ids, r))
            j_set = frozenset(rng.sample(ids, r))
            rest = [e for e in ids if e not in i_set | j_set]
            k_set = frozenset(rng.sample(rest, rng.randint(1, len(rest)))) if rest else frozenset()
            for k in (frozenset(), k_set):
                h.update(dodgson(g, DodgsonSpec(i_set, j_set, k)).render().encode())
        if g.m >= 5:
            h.update(five_invariant(g, rng.sample(ids, 5)).render().encode())
    return h.hexdigest()


def test_census_polynomials_render_as_pinned():
    # every rendered polynomial is a determinant, unique whatever the pivots;
    # the digest was computed with the dense Bareiss elimination
    assert _census_polynomial_digest() == "cd05317cccfbfb6bfe41aefda2d0413bf682da0b"
