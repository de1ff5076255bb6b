"""Univariate polynomials with exact rational coefficients.

Coefficients are degree-indexed (coefficients[k] multiplies t**k) with no
trailing zeros; the zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q

from . import ratlinalg as rl
from .errors import InternalConsistencyError


def _trim(cs) -> tuple[Q, ...]:
    cs = [rl.frac(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class RationalPoly:
    """Exact rational polynomial in one variable."""

    coefficients: tuple[Q, ...]

    @classmethod
    def of(cls, *coeffs) -> "RationalPoly":
        return cls(_trim(coeffs))

    @classmethod
    def from_roots(cls, roots) -> "RationalPoly":
        p = cls.of(1)
        for r in roots:
            p = p * cls.of(-rl.frac(r), 1)
        return p

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading(self) -> Q:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return RationalPoly(_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly(())
        out = [Q(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPoly(_trim(out))

    def scale(self, c) -> "RationalPoly":
        c = rl.frac(c)
        return RationalPoly(_trim([c * a for a in self.coefficients]))

    def monic(self) -> "RationalPoly":
        return self.scale(1 / self.leading())

    def derivative(self) -> "RationalPoly":
        return RationalPoly(_trim([k * c for k, c in enumerate(self.coefficients)][1:]))

    def eval(self, x):
        """Horner evaluation; exact for Fraction input, float/complex passthrough."""
        acc = 0 * x if self.is_zero() else self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc


def integer_parts(p: RationalPoly) -> tuple[Q, list[int]]:
    """(c, P) with p = c * P for a nonzero p: P holds integer coefficients
    (degree-indexed) with content 1 and a positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p.coefficients))
    cs = [c.numerator * (den // c.denominator) for c in p.coefficients]
    prim = _primitive(cs)
    return Q(cs[-1], den * prim[-1]), prim


def _primitive(cs: list[int]) -> list[int]:
    """cs over its content with a positive leading coefficient; [] stays []."""
    if not cs:
        return cs
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _derivative(cs: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(cs)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and out[-1] == 0:
        out.pop()
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b, for deg a >= deg b >= 0."""
    r = list(a)
    lb, nb = b[-1], len(b)
    for k in range(len(a) - nb, -1, -1):
        t = r.pop()
        r = [lb * c for c in r]
        if t:
            for j in range(nb - 1):
                r[k + j] -= t * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _exact_div(x: int, d: int) -> int:
    q, rem = divmod(x, d)
    if rem:
        raise InternalConsistencyError("integer division is not exact")
    return q


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers; a remainder signals a bug."""
    r = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * max(0, len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = _exact_div(r.pop(), lb)
        if t:
            for j in range(nb - 1):
                r[k + j] -= t * b[j]
    if any(r):
        raise InternalConsistencyError("polynomial quotient is not exact")
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the primitive
    pseudo-remainder sequence; a and b are not both zero."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def squarefree_decomposition(p: RationalPoly) -> tuple[Q, list[RationalPoly]]:
    """Yun's algorithm: p = c * prod_i parts[i-1]**i with each part monic squarefree.

    Returns (c, [a1, a2, ...]); parts may be the constant 1 polynomial.
    Yun (1976) runs on the primitive integer part P of p: every gcd is
    primitive (primitive pseudo-remainders), so by Gauss's lemma every
    quotient is exact over the integers, and an inexact one is a bug.  The
    layers differ from Yun over Q only by constant factors, so they are
    made monic at the end.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero")
    c = p.leading()
    if p.degree == 0:
        return c, []
    a = integer_parts(p)[1]
    da = _derivative(a)
    g = _gcd(a, da)
    b = _exact_quotient(a, g)
    d = _sub(_exact_quotient(da, g), _derivative(b))
    layers = []
    while len(b) > 1:
        ai = _gcd(b, d)
        layers.append(ai)
        b = _exact_quotient(b, ai)
        d = _sub(_exact_quotient(d, ai), _derivative(b))
    return c, [RationalPoly(tuple(Q(x, ai[-1]) for x in ai)) for ai in layers]


def root_multiplicity_profile(p: RationalPoly) -> dict[int, int]:
    """Map multiplicity m -> number of distinct roots with that multiplicity."""
    _, parts = squarefree_decomposition(p)
    return {i + 1: part.degree for i, part in enumerate(parts) if part.degree > 0}


def is_perfect_square(p: RationalPoly) -> bool:
    """True when every root of p has even multiplicity."""
    _, parts = squarefree_decomposition(p)
    return all(part.degree == 0 for i, part in enumerate(parts) if (i + 1) % 2 == 1)


def resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """res(p, q), the Sylvester determinant, exact.

    With p = cp * P and q = cq * Q for primitive integer P, Q,
    res(p, q) = cp**deg(q) * cq**deg(p) * res(P, Q), and res(P, Q) comes
    from the subresultant PRS over the integers (Brown & Traub 1971).
    Degenerate shapes follow the determinant of the (possibly empty)
    Sylvester matrix: res(const, const) = 1, res(p, const c) = c**deg(p).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    cp, a = integer_parts(p)
    cq, b = integer_parts(q)
    return cp ** q.degree * cq ** p.degree * _subresultant(a, b)


def _subresultant(a: list[int], b: list[int]) -> int:
    """res(a, b) of nonzero primitive integer polynomials by the subresultant
    PRS (Cohen, A Course in Computational Algebraic Number Theory, Alg. 3.3.7)."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -1
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    g = h = 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [_exact_div(c, div) for c in r]
        g = a[-1]
        if delta:
            h = _exact_div(g**delta, h ** (delta - 1))
        if len(b) == 1:
            n = len(a) - 1
            return s * _exact_div(b[0] ** n, h ** (n - 1))
