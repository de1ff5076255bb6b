"""Fraction references for the integer polynomial core and the certificate values.

The package keeps `polyq.RationalPoly` only as a parsing and output type and
runs its algorithms on integer coefficient lists.  These are the Fraction
counterparts the tests compare against: polynomial arithmetic on
`RationalPoly`, the Sylvester resultant, the Gaussian-rational
Faddeev-LeVerrier reference, and `abc_values`, the separation, simplicity
and pairing resultants of two irreducibles at one metric.
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Optional

from casimir_lab import ratlinalg as rl
from casimir_lab.gaussian import QQi, gadd, gidentity, gmatmul, gscale, gtrace, gzeros
from casimir_lab.oplab import irrep_matrices
from casimir_lab.polyq import RationalPoly, integer_parts, resultant, squarefree_decomposition

# -- arithmetic on RationalPoly ---------------------------------------------


def add(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    a, b = p.coefficients, q.coefficients
    n = max(len(a), len(b))
    return RationalPoly.of(*((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def scale(p: RationalPoly, c) -> RationalPoly:
    c = rl.frac(c)
    return RationalPoly.of(*(c * a for a in p.coefficients))


def sub(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    return add(p, scale(q, -1))


def mul(*ps: RationalPoly) -> RationalPoly:
    out = RationalPoly.of(1)
    for p in ps:
        if out.is_zero() or p.is_zero():
            return RationalPoly.of()
        cs = [Q(0)] * (len(out.coefficients) + len(p.coefficients) - 1)
        for i, a in enumerate(out.coefficients):
            for j, b in enumerate(p.coefficients):
                cs[i + j] += a * b
        out = RationalPoly.of(*cs)
    return out


def from_roots(roots) -> RationalPoly:
    return mul(*(RationalPoly.of(-rl.frac(r), 1) for r in roots))


def monic(p: RationalPoly) -> RationalPoly:
    return scale(p, 1 / p.leading())


def derivative(p: RationalPoly) -> RationalPoly:
    return RationalPoly.of(*(k * c for k, c in enumerate(p.coefficients) if k))


def evaluate(p: RationalPoly, x):
    """Horner evaluation; exact for Fraction input."""
    acc = 0 * x
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def ints(p: RationalPoly) -> list[int]:
    """The coefficients of p, which must be integers, as an integer list."""
    assert all(c.denominator == 1 for c in p.coefficients), p
    return [int(c) for c in p.coefficients]


# -- resultants -------------------------------------------------------------


def rational_resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """res(p, q) through polyq.resultant on the integer parts:
    res(cp P, cq Q) = cp**deg(Q) * cq**deg(P) * res(P, Q)."""
    cp, a = integer_parts(p)
    cq, b = integer_parts(q)
    return cp ** q.degree * cq ** p.degree * resultant(a, b)


def sylvester(p: RationalPoly, q: RationalPoly) -> rl.Mat:
    """The Sylvester matrix, deg q rows of p then deg p rows of q."""
    n, m = p.degree, q.degree
    size = n + m
    pc = list(reversed(p.coefficients))
    qc = list(reversed(q.coefficients))
    rows = [[Q(0)] * i + pc + [Q(0)] * (size - i - len(pc)) for i in range(m)]
    rows += [[Q(0)] * i + qc + [Q(0)] * (size - i - len(qc)) for i in range(n)]
    return rl.mat(rows)


def sylvester_resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """The Sylvester determinant; the empty matrix has determinant 1."""
    return rl.det(sylvester(p, q)) if p.degree + q.degree > 0 else Q(1)


def is_perfect_square(a: list[int]) -> bool:
    """True when every root of the integer polynomial a has even multiplicity."""
    _, parts = squarefree_decomposition(a)
    return all(len(part) == 1 for i, part in enumerate(parts) if i % 2 == 0)


# -- characteristic polynomials and certificate values ----------------------


def rational_char_poly(cp) -> RationalPoly:
    """D's characteristic polynomial from char_poly's (P, den): coefficient
    P[i] / den^(d - i) at t^i."""
    p, den = cp
    d = len(p) - 1
    return RationalPoly.of(*(Q(c, den ** (d - i)) for i, c in enumerate(p)))


def reference_operator(g, rep, k):
    """D = -sum_ij kappa_ij M_i M_j, term by term in Q(i)."""
    mats = irrep_matrices(g, rep)
    acc = gzeros(rep.dim)
    for i in range(k.n):
        for j in range(k.n):
            if k.kappa[i][j] != 0:
                acc = gadd(acc, gscale(QQi(-k.kappa[i][j]), gmatmul(mats[i], mats[j])))
    return acc


def reference_char_poly(a) -> RationalPoly:
    """Faddeev-LeVerrier in Q(i)."""
    d = len(a)
    coeffs = [QQi(0)] * (d + 1)
    coeffs[d] = QQi(1)
    mk = a
    for step in range(1, d + 1):
        ck = gtrace(mk) / QQi(-step)
        coeffs[d - step] = ck
        if step < d:
            mk = gmatmul(a, gadd(mk, gscale(ck, gidentity(d))))
    assert all(c.im == 0 for c in coeffs)
    return RationalPoly.of(*(c.re for c in coeffs))


def doubled_den(char_poly_of, rep):
    """char_poly_of, except that rep's operator comes over 2 den: the same
    operator's polynomial det(sI - 2A) = 2^d P(s/2)."""
    def patched(op):
        p, den = char_poly_of(op)
        if op.rep != rep:
            return p, den
        d = len(p) - 1
        return [c * 2 ** (d - i) for i, c in enumerate(p)], 2 * den
    return patched


@lru_cache(maxsize=256)
def _reference_rep_poly(g, rep, k) -> RationalPoly:
    return reference_char_poly(reference_operator(g, rep, k))


@dataclass(frozen=True)
class ABCValues:
    """Separation (a), simplicity (b) and pairing (c) resultants at one metric."""

    a: Q
    b1: Optional[Q]
    b2: Optional[Q]
    c1: Optional[Q]
    c2: Optional[Q]


def abc_values(g, reps, k) -> ABCValues:
    """a = res(p1, p2); per rep, b = res(p, p') for real/complex type and
    c = res(p, p'') for quaternionic type; the unused slot is absent.  Every
    value is a Sylvester determinant of Fraction polynomials."""
    v1, v2 = reps
    p1, p2 = _reference_rep_poly(g, v1, k), _reference_rep_poly(g, v2, k)
    out = {"a": sylvester_resultant(p1, p2)}
    for tag, v, p in (("1", v1, p1), ("2", v2, p2)):
        if v.rep_type() == "quaternionic":
            out["b" + tag] = None
            out["c" + tag] = sylvester_resultant(p, derivative(derivative(p)))
        else:
            out["b" + tag] = sylvester_resultant(p, derivative(p))
            out["c" + tag] = None
    return ABCValues(**out)
