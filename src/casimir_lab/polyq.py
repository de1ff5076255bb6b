"""Univariate polynomials with exact rational coefficients.

Coefficients are degree-indexed (coefficients[k] multiplies t**k) with no
trailing zeros; the zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from . import ratlinalg as rl


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

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coefficients)
        d = other.coefficients
        qc = [Q(0)] * max(0, len(r) - len(d) + 1)
        inv = 1 / d[-1]
        for k in range(len(r) - len(d), -1, -1):
            f = r[k + len(d) - 1] * inv
            qc[k] = f
            if f != 0:
                for j, c in enumerate(d):
                    r[k + j] -= f * c
        return RationalPoly(_trim(qc)), RationalPoly(_trim(r))

    def substitute_scaled(self, s) -> "RationalPoly":
        """p(t/s) for rational s != 0."""
        s = rl.frac(s)
        return RationalPoly(_trim([c / s**k for k, c in enumerate(self.coefficients)]))


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.monic()


def squarefree_decomposition(p: RationalPoly) -> tuple[Q, list[RationalPoly]]:
    """Yun's algorithm: p = c * prod_i parts[i-1]**i with each part monic squarefree.

    Returns (c, [a1, a2, ...]); parts may be the constant 1 polynomial.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero")
    c = p.leading()
    p = p.monic()
    if p.degree == 0:
        return c, []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.divmod(a)[0]
    d = dp.divmod(a)[0] - b.derivative()
    parts: list[RationalPoly] = []
    while b.degree > 0:
        ai = poly_gcd(b, d)
        parts.append(ai)
        b = b.divmod(ai)[0]
        d = d.divmod(ai)[0] - b.derivative()
    return c, parts


def root_multiplicity_profile(p: RationalPoly) -> dict[int, int]:
    """Map multiplicity m -> number of distinct roots with that multiplicity."""
    _, parts = squarefree_decomposition(p)
    return {i + 1: part.degree for i, part in enumerate(parts) if part.degree > 0}


def is_perfect_square(p: RationalPoly) -> bool:
    """True when every root of p has even multiplicity."""
    _, parts = squarefree_decomposition(p)
    return all(part.degree == 0 for i, part in enumerate(parts) if (i + 1) % 2 == 1)


def sylvester_matrix(p: RationalPoly, q: RationalPoly) -> rl.Mat:
    n, m = p.degree, q.degree
    if n < 0 or m < 0:
        raise ValueError("Sylvester matrix needs nonzero polynomials")
    size = n + m
    rows = []
    pc = list(reversed(p.coefficients))
    qc = list(reversed(q.coefficients))
    for i in range(m):
        rows.append([Q(0)] * i + pc + [Q(0)] * (size - i - len(pc)))
    for i in range(n):
        rows.append([Q(0)] * i + qc + [Q(0)] * (size - i - len(qc)))
    return rl.mat(rows)


def resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """res(p, q) as the Sylvester determinant, exact.

    Degenerate shapes follow the determinant of the (possibly empty)
    Sylvester matrix: res(const, const) = 1, res(p, const c) = c**deg(p).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if p.degree == 0 and q.degree == 0:
        return Q(1)
    return rl.det(sylvester_matrix(p, q))
