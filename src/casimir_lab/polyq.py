"""Univariate polynomials over the integers, with a rational boundary type.

Coefficients are degree-indexed (coefficients[k] multiplies t**k) with no
trailing zeros; the zero polynomial has no coefficients.  The algorithms
(Yun's squarefree decomposition, subresultant resultants) take integer
coefficient lists.  `RationalPoly` holds `Fraction` coefficients for input
that arrives in rational form; `integer_parts` clears it to an integer list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property

from .errors import InternalConsistencyError


@dataclass(frozen=True)
class RationalPoly:
    """Exact rational polynomial in one variable (parsing and output boundary).

    Its squarefree layers (_layers) are derived on first use and kept for
    the life of the instance, outside the dataclass fields, so equality,
    hashing and repr do not see them.  Equal instances do not share them.
    """

    coefficients: tuple[Q, ...]

    def is_zero(self) -> bool:
        return not self.coefficients

    @cached_property
    def _layers(self) -> tuple:
        """((q, q'), ...): Yun's primitive integer squarefree layers q of
        integer_parts(self)[1], each with its derivative; the layer at
        position i holds the roots of multiplicity i + 1 and may be the
        constant [1].  The zero polynomial raises ValueError on every use,
        since a raising getter stores nothing."""
        _, parts = squarefree_decomposition(integer_parts(self)[1])
        return tuple((q, derivative(q)) for q in parts)


def integer_parts(p: RationalPoly) -> tuple[Q, list[int]]:
    """(c, P) with p = c * P for a nonzero p: P holds integer coefficients
    (degree-indexed) with content 1 and a positive leading coefficient."""
    if p.is_zero():
        raise ValueError("integer parts of the zero polynomial")
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


def derivative(cs: list[int]) -> list[int]:
    """The derivative of the integer polynomial cs; [] for a constant."""
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


def squarefree_decomposition(a: list[int]) -> tuple[int, list[list[int]]]:
    """Yun's algorithm: a = c * prod_i parts[i-1]**i with each part squarefree.

    a is a nonzero integer polynomial.  Returns (c, [a1, a2, ...]): every
    part is primitive with a positive leading coefficient, and may be the
    constant [1]; c is the content of a with the sign of its leading
    coefficient, because a product of primitive polynomials is primitive
    (Gauss's lemma).  Yun (1976) runs on a / c: every gcd is primitive
    (primitive pseudo-remainders), so every quotient is exact over the
    integers, and an inexact one is a bug.
    """
    if not a:
        raise ValueError("squarefree decomposition of zero")
    c = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    if len(a) == 1:
        return c, []
    a = [x // c for x in a]
    da = derivative(a)
    g = _gcd(a, da)
    if len(g) == 1:
        return c, [a]  # a is squarefree: the loop below would find exactly [a]
    b = _exact_quotient(a, g)
    d = _sub(_exact_quotient(da, g), derivative(b))
    layers = []
    while len(b) > 1:
        ai = _gcd(b, d)
        layers.append(ai)
        b = _exact_quotient(b, ai)
        d = _sub(_exact_quotient(d, ai), derivative(b))
    return c, layers


def root_multiplicity_profile(a: list[int]) -> dict[int, int]:
    """Map multiplicity m -> number of distinct roots of a with that multiplicity."""
    _, parts = squarefree_decomposition(a)
    return {i + 1: len(part) - 1 for i, part in enumerate(parts) if len(part) > 1}


def homogeneous_horner(cs: list[int], n: int, d: int) -> int:
    """d^deg q(n / d) = sum_k cs[k] n^k d^(deg - k) for the integer
    coefficients cs of q (degree-indexed, nonempty), in one Horner pass."""
    acc, power = cs[-1], 1
    for c in cs[-2::-1]:
        power *= d
        acc = acc * n + c * power
    return acc


def resultant(a: list[int], b: list[int]) -> int:
    """res(a, b), the Sylvester determinant, of nonzero integer polynomials.

    It comes from the subresultant PRS over the integers (Brown & Traub
    1971; Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.3.7), every division checked exact, and in closed form when the
    shorter operand is linear.  Degenerate shapes follow the
    determinant of the (possibly empty) Sylvester matrix:
    res(const, const) = 1 and res(a, const c) = c**deg(a).

    oplab.certify applies it to the integer polynomials P of den * D
    (oplab.char_poly), whose roots are den times those of D's polynomial,
    so at degrees d and d2: res(p, q) = res(P, Q) / den^(d d2),
    res(p, p') = res(P, P') / den^(d (d-1)) and
    res(p, p'') = res(P, P'') / den^(d (d-2)).
    """
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -1
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    if len(b) == 2:
        # res(a, b1 t + b0) = (-1)^deg(a) b1^deg(a) a(-b0 / b1), one homogeneous Horner pass
        return (s if len(a) % 2 else -s) * homogeneous_horner(a, -b[0], b[1])
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
