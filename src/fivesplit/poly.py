"""Sparse multivariate polynomials with integer coefficients.

Variables are indexed by positive integers (in this package, edge identifiers),
rendered as ``x<i>``.  A monomial is stored as a tuple of (variable, exponent)
pairs sorted by variable with all exponents >= 1; the empty tuple is the
constant monomial.  Terms live in a dict monomial -> nonzero coefficient.

Monomials are ordered graded lexicographically with x1 > x2 > ...: higher total
degree first, ties broken by the exponent of the smallest variable, and so on.
All canonical choices (rendering order, leading terms, sign normalisation)
refer to this order.
"""

from __future__ import annotations

import heapq
import re
from typing import Iterable, Iterator, Mapping

Monomial = tuple[tuple[int, int], ...]


def _monomial_key(mono: Monomial) -> tuple:
    """Sort key; smaller key = larger monomial in graded lex order."""
    deg = sum(e for _, e in mono)
    return (-deg, tuple((v, -e) for v, e in mono))


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _div_monomials(a: Monomial, b: Monomial) -> Monomial:
    """a / b; raises ArithmeticError unless b divides a."""
    exps: dict[int, int] = dict(a)
    for v, e in b:
        ne = exps.get(v, 0) - e
        if ne < 0:
            raise ArithmeticError("inexact polynomial division (monomial)")
        if ne:
            exps[v] = ne
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


class MultiPoly:
    """Immutable-by-convention sparse polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly({(): c})

    @staticmethod
    def variable(v: int) -> "MultiPoly":
        if v < 1:
            raise ValueError("variable indices are positive integers")
        return MultiPoly({((v, 1),): 1})

    @staticmethod
    def monomial(variables: Iterable[int], coeff: int = 1) -> "MultiPoly":
        """Product of distinct variables times coeff."""
        mono = tuple(sorted((v, 1) for v in variables))
        return MultiPoly({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.negate()

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return MultiPoly()
        # iterate over the smaller operand's terms
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _mul_monomials(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MultiPoly(out)

    def negate(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __neg__(self) -> "MultiPoly":
        return self.negate()

    def scale(self, c: int) -> "MultiPoly":
        if c == 0:
            return MultiPoly()
        return MultiPoly({m: c * k for m, k in self.terms.items()})

    def equal_up_to_sign(self, other: "MultiPoly") -> bool:
        return self.terms == other.terms or self.terms == other.negate().terms

    def leading(self) -> tuple[Monomial, int]:
        """Leading (monomial, coefficient) in graded lex order; zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        m = min(self.terms, key=_monomial_key)
        return m, self.terms[m]

    def sign_normalised(self) -> "MultiPoly":
        """This polynomial negated if its leading coefficient is negative."""
        if not self.terms:
            return self
        if self.leading()[1] < 0:
            return self.negate()
        return self

    def eval_int(self, assignment: Mapping[int, int]) -> int:
        """Exact integer evaluation; every variable present must be assigned."""
        total = 0
        for mono, c in self.terms.items():
            v = c
            for var, exp in mono:
                if var not in assignment:
                    raise ValueError(f"no value assigned to variable x{var}")
                v *= assignment[var] ** exp
            total += v
        return total

    def variables(self) -> frozenset[int]:
        return frozenset(v for mono in self.terms for v, _ in mono)

    def max_exponent(self) -> int:
        return max((e for mono in self.terms for _, e in mono), default=0)

    def sorted_terms(self) -> Iterator[tuple[Monomial, int]]:
        for m in sorted(self.terms, key=_monomial_key):
            yield m, self.terms[m]

    def render(self) -> str:
        """Canonical text form, e.g. '+ x1*x3 - x2*x4'; the zero polynomial is '0'."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, c in self.sorted_terms():
            sign = "+" if c > 0 else "-"
            a = abs(c)
            factors = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono]
            if not factors:
                body = str(a)
            elif a == 1:
                body = "*".join(factors)
            else:
                body = str(a) + "*" + "*".join(factors)
            parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


_TERM_RE = re.compile(r"([+-])\s*([^+-]+)")
_FACTOR_RE = re.compile(r"^(?:(\d+)|x(\d+)(?:\^(\d+))?)$")


def parse_poly(text: str) -> MultiPoly:
    """Inverse of MultiPoly.render; also accepts a missing leading sign."""
    s = text.strip()
    if s == "0" or not s:
        return MultiPoly()
    if s[0] not in "+-":
        s = "+ " + s
    out = MultiPoly()
    consumed = 0
    for match in _TERM_RE.finditer(s):
        consumed = match.end()
        sign = 1 if match.group(1) == "+" else -1
        coeff = sign
        mono: dict[int, int] = {}
        for factor in match.group(2).strip().split("*"):
            fm = _FACTOR_RE.match(factor.strip())
            if fm is None:
                raise ValueError(f"cannot parse factor {factor!r}")
            if fm.group(1) is not None:
                coeff *= int(fm.group(1))
            else:
                v = int(fm.group(2))
                e = int(fm.group(3) or 1)
                mono[v] = mono.get(v, 0) + e
        out = out + MultiPoly({tuple(sorted(mono.items())): coeff})
    if consumed != len(s):
        raise ValueError(f"trailing junk in polynomial text: {s[consumed:]!r}")
    return out


def divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact quotient p / d; raises ArithmeticError if d does not divide p.

    Leading-term elimination in the monomial order.  Exactness of each step is
    checked, so a failed division (a bug in a fraction-free algorithm upstream)
    cannot pass silently.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly()
    dm, dc = d.leading()
    quotient: dict[Monomial, int] = {}
    if len(d.terms) == 1:
        # one-term divisor: divide term by term
        for m, c in p.terms.items():
            if c % dc:
                raise ArithmeticError("inexact polynomial division (coefficient)")
            quotient[_div_monomials(m, dm) if dm else m] = c // dc
        return MultiPoly(quotient)
    # the remainder is updated in place, and a lazy heap yields its leading
    # term: a popped monomial no longer in the remainder was cancelled
    r = dict(p.terms)
    heap = [(_monomial_key(m), m) for m in r]
    heapq.heapify(heap)
    d_rest = [(m, c) for m, c in d.terms.items() if m != dm]
    while heap:
        rm = heapq.heappop(heap)[1]
        rc = r.pop(rm, 0)
        if not rc:
            continue
        if rc % dc:
            raise ArithmeticError("inexact polynomial division (coefficient)")
        qm = _div_monomials(rm, dm)
        qc = rc // dc
        quotient[qm] = quotient.get(qm, 0) + qc
        for m, c in d_rest:
            tm = _mul_monomials(qm, m)
            s = r.get(tm, 0) - qc * c
            if s:
                if tm not in r:
                    heapq.heappush(heap, (_monomial_key(tm), tm))
                r[tm] = s
            else:
                r.pop(tm, None)
    return MultiPoly(quotient)
