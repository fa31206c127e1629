"""Exact integer multivariate polynomial arithmetic."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivesplit.poly import MultiPoly, divexact, parse_poly
from oracles import divexact_by_leading_terms

x1 = MultiPoly.variable(1)
x2 = MultiPoly.variable(2)
x3 = MultiPoly.variable(3)


def _monomials():
    return st.dictionaries(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        max_size=3,
    )


def _polys():
    return st.lists(
        st.tuples(_monomials(), st.integers(min_value=-9, max_value=9)),
        max_size=5,
    ).map(
        lambda items: sum(
            (MultiPoly({tuple(sorted(m.items())): c}) for m, c in items),
            MultiPoly.zero(),
        )
    )


def test_constructors():
    assert MultiPoly.zero().is_zero()
    assert MultiPoly.const(0).is_zero()
    assert MultiPoly.const(3).eval_int({}) == 3
    assert MultiPoly.variable(7).eval_int({7: 5}) == 5
    assert MultiPoly.monomial([1, 2], -2).eval_int({1: 3, 2: 4}) == -24
    assert not MultiPoly.zero()
    assert MultiPoly.const(1)


def test_difference_of_squares():
    lhs = (x1 + x2) * (x1 - x2)
    rhs = x1 * x1 - x2 * x2
    assert lhs == rhs
    assert lhs.render() == "+ x1^2 - x2^2"
    assert lhs.max_exponent() == 2


@settings(max_examples=80, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert a * MultiPoly.zero() == MultiPoly.zero()
    assert a - a == MultiPoly.zero()
    assert -(-a) == a


@settings(max_examples=80, deadline=None)
@given(_polys())
def test_render_parse_round_trip(p):
    assert parse_poly(p.render()) == p


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys())
def test_eval_is_a_ring_homomorphism(a, b):
    point = {v: (v * 7 + 3) % 11 - 5 for v in (a.variables() | b.variables())}
    assert (a + b).eval_int(point) == a.eval_int(point) + b.eval_int(point)
    assert (a * b).eval_int(point) == a.eval_int(point) * b.eval_int(point)


def test_parse_accepts_plain_forms():
    assert parse_poly("0").is_zero()
    assert parse_poly("x1 + x2") == x1 + x2
    assert parse_poly("2*x1*x2") == MultiPoly.monomial([1, 2], 2)
    assert parse_poly("x3^2 - 4") == x3 * x3 - MultiPoly.const(4)
    with pytest.raises(ValueError):
        parse_poly("x1 + spam")


def test_equal_up_to_sign_and_normalisation():
    p = x1 - x2
    assert p.equal_up_to_sign(-p)
    assert p.equal_up_to_sign(p)
    assert not p.equal_up_to_sign(x1 + x2)
    assert (-p).sign_normalised() == p.sign_normalised()
    assert p.sign_normalised().leading()[1] > 0
    assert MultiPoly.zero().sign_normalised().is_zero()


def test_leading_zero_raises():
    with pytest.raises(ValueError):
        MultiPoly.zero().leading()


def test_scale_and_len():
    p = x1 + x2
    assert p.scale(3) == MultiPoly.const(3) * p
    assert p.scale(0).is_zero()
    assert len(p) == 2
    assert p.variables() == frozenset({1, 2})


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys())
def test_divexact_recovers_factor(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            divexact(p, q)
    else:
        assert divexact(p * q, q) == p


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        divexact(x1, x2)
    with pytest.raises(ArithmeticError):
        divexact(MultiPoly.const(3), MultiPoly.const(2))


def test_hash_consistent_with_eq():
    a = x1 * x2 + x3
    b = x3 + x2 * x1
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(max_size=60),
    st.text(alphabet="x0123456789^*+- \t\u0663", max_size=30),
    _polys().map(lambda p: p.render()).flatmap(
        lambda text: st.integers(min_value=0, max_value=len(text)).map(
            lambda cut: text[:cut] + "^" + text[cut:])),
))
def test_parse_poly_raises_only_value_error(text):
    try:
        parse_poly(text)
    except ValueError:
        pass


def _random_poly(rng, terms, variables, degree):
    out = MultiPoly.zero()
    for _ in range(terms):
        mono = {}
        for _ in range(rng.randint(0, degree)):
            v = rng.randint(1, variables)
            mono[v] = mono.get(v, 0) + 1
        out = out + MultiPoly({tuple(sorted(mono.items())): rng.choice([-3, -2, -1, 1, 2, 5])})
    return out


def _division_outcome(divide, p, d):
    try:
        q = divide(p, d)
    except ArithmeticError as exc:
        return str(exc)
    return list(q.terms.items())


def test_many_term_division_matches_the_leading_term_loop():
    rng = random.Random(20261019)
    raised = 0
    for _ in range(300):
        q = _random_poly(rng, rng.randint(1, 12), 5, 4)
        d = _random_poly(rng, rng.randint(2, 6), 5, 3)
        if len(d) < 2:
            continue
        p = q * d
        assert divexact(p, d) == q
        # the same quotient terms in the same order
        assert _division_outcome(divexact, p, d) == _division_outcome(divexact_by_leading_terms, p, d)
        # one more random term, or 1 added to the constant term, usually leaves a remainder
        bad = p + _random_poly(rng, 1, 5, 4) if rng.random() < 0.5 else p + MultiPoly.const(1)
        outcome = _division_outcome(divexact, bad, d)
        assert outcome == _division_outcome(divexact_by_leading_terms, bad, d)
        if isinstance(outcome, str):
            raised += 1
        else:
            assert MultiPoly(dict(outcome)) * d == bad
    assert raised > 200
