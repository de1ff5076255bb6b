"""Fraction references for the integer polynomial core and the certificate values.

The package keeps `polyq.RationalPoly` only as a parsing and output type and
runs its algorithms on integer coefficient lists, and `oplab` keeps its
operators as Gaussian-integer rows over one denominator.  These are the
Fraction counterparts the tests compare against: polynomial arithmetic on
`RationalPoly`, the Sylvester resultant, Gaussian-rational matrices, the
dense generators built from derivations and Kronecker products, the
operators as such matrices, the self-adjointness and Casimir checks on the
integer rows, the Gaussian-rational Faddeev-LeVerrier reference for
`oplab`'s Berkowitz characteristic polynomials, and
`abc_values`, the separation, simplicity and pairing resultants of two
irreducibles at one metric.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Optional

from casimir_lab import ratlinalg as rl
from casimir_lab.errors import InternalConsistencyError
from casimir_lab.gaussian import GZERO, QQi, gmatmul
from casimir_lab.oplab import GroupSpec, IrrepSpec, build_operator, diag_metric
from casimir_lab.polyq import RationalPoly, integer_parts, resultant, squarefree_decomposition

# -- arithmetic on RationalPoly ---------------------------------------------


def rpoly(*coeffs) -> RationalPoly:
    """The RationalPoly with these degree-indexed coefficients, trailing zeros dropped."""
    cs = [rl.frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return RationalPoly(tuple(cs))


def degree(p: RationalPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p.coefficients) - 1


def leading(p: RationalPoly) -> Q:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    return p.coefficients[-1]


def add(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    a, b = p.coefficients, q.coefficients
    n = max(len(a), len(b))
    return rpoly(*((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def scale(p: RationalPoly, c) -> RationalPoly:
    c = rl.frac(c)
    return rpoly(*(c * a for a in p.coefficients))


def sub(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    return add(p, scale(q, -1))


def mul(*ps: RationalPoly) -> RationalPoly:
    out = rpoly(1)
    for p in ps:
        if out.is_zero() or p.is_zero():
            return rpoly()
        cs = [Q(0)] * (len(out.coefficients) + len(p.coefficients) - 1)
        for i, a in enumerate(out.coefficients):
            for j, b in enumerate(p.coefficients):
                cs[i + j] += a * b
        out = rpoly(*cs)
    return out


def from_roots(roots) -> RationalPoly:
    return mul(*(rpoly(-rl.frac(r), 1) for r in roots))


def monic(p: RationalPoly) -> RationalPoly:
    return scale(p, 1 / leading(p))


def derivative(p: RationalPoly) -> RationalPoly:
    return rpoly(*(k * c for k, c in enumerate(p.coefficients) if k))


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
    return cp ** degree(q) * cq ** degree(p) * resultant(a, b)


def sylvester(p: RationalPoly, q: RationalPoly) -> rl.Mat:
    """The Sylvester matrix, deg q rows of p then deg p rows of q."""
    n, m = degree(p), degree(q)
    size = n + m
    pc = list(reversed(p.coefficients))
    qc = list(reversed(q.coefficients))
    rows = [[Q(0)] * i + pc + [Q(0)] * (size - i - len(pc)) for i in range(m)]
    rows += [[Q(0)] * i + qc + [Q(0)] * (size - i - len(qc)) for i in range(n)]
    return rl.mat(rows)


def sylvester_resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """The Sylvester determinant; the empty matrix has determinant 1."""
    return rl.det(sylvester(p, q)) if degree(p) + degree(q) > 0 else Q(1)


def is_perfect_square(a: list[int]) -> bool:
    """True when every root of the integer polynomial a has even multiplicity."""
    _, parts = squarefree_decomposition(a)
    return all(len(part) == 1 for i, part in enumerate(parts) if i % 2 == 0)


# -- Gaussian-rational matrices ---------------------------------------------

I_UNIT = QQi(0, 1)
GONE = QQi(1)


def _g(x) -> QQi:
    return x if isinstance(x, QQi) else QQi(x)


def gmat(rows):
    return tuple(tuple(_g(x) for x in r) for r in rows)


def gidentity(n: int):
    return tuple(tuple(GONE if i == j else GZERO for j in range(n)) for i in range(n))


def gzeros(n: int):
    return tuple(tuple(GZERO for _ in range(n)) for _ in range(n))


def gadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def gscale(c, a):
    c = _g(c)
    return tuple(tuple(c * x for x in r) for r in a)


def gtrace(a) -> QQi:
    s = GZERO
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def conj(z: QQi) -> QQi:
    return QQi(z.re, -z.im)


def gconj_transpose(a):
    return tuple(tuple(conj(a[j][i]) for j in range(len(a))) for i in range(len(a[0]) if a else 0))


def gkron(a, b):
    """Kronecker product, row-major (index = i_a * dim_b + i_b)."""
    na, nb = len(a), len(b)
    out = []
    for ia in range(na):
        for ib in range(nb):
            row = []
            for ja in range(na):
                for jb in range(nb):
                    row.append(a[ia][ja] * b[ib][jb])
            out.append(tuple(row))
    return tuple(out)


# -- operators as Gaussian-rational matrices --------------------------------


def gaussian_view(re, im, den: int):
    """(re + i im) / den as a Gaussian-rational matrix."""
    return tuple(
        tuple(QQi(Q(x, den), Q(y, den)) for x, y in zip(rr, ri))
        for rr, ri in zip(re, im)
    )


def operator_matrix(op):
    """An ExactOperator as a Gaussian-rational matrix."""
    return gaussian_view(op.re, op.im, op.den)


def derivation(m: int, a: int, b: int, c: int, d: int):
    """Integer matrix of [[a, b], [c, d]] acting as a derivation on spin m/2.

    In the monomial basis x^(m-k) y^k the basis vector e_k goes to
    (m-k)a+kd on the diagonal, k*b one step up and (m-k)*c one step down.
    """
    rows = [[0] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        rows[k][k] = a * (m - k) + d * k
        if k > 0:
            rows[k - 1][k] = b * k
        if k < m:
            rows[k + 1][k] = c * (m - k)
    return rows


def kron_identity(left: int, x, right: int):
    """I_left (x) X (x) I_right for an integer matrix X, row-major."""
    n = len(x)
    size = left * n * right
    out = [[0] * size for _ in range(size)]
    for a in range(left):
        for i in range(n):
            for j in range(n):
                if x[i][j]:
                    for b in range(right):
                        out[(a * n + i) * right + b][(a * n + j) * right + b] = x[i][j]
    return out


def doubled_generators(g, rep):
    """2 M_i for the orthonormal algebra basis on V as dense Gaussian-integer
    (re, im) rows: on each SU(2) copy the derivations of the Gaussian-integer
    matrices -i sigma_1, -i sigma_2, -i sigma_3 (real and imaginary parts act
    separately, as the derivation is linear), Kronecker-embedded between
    identities; a torus character z as 2z i times the identity."""
    assert len(rep.spins) == g.su2_copies and len(rep.torus_char) == g.torus_rank
    dims = [m + 1 for m in rep.spins]
    total = rep.dim
    zero = kron_identity(total, [[0]], 1)
    out = []
    for copy, m in enumerate(rep.spins):
        left, right = math.prod(dims[:copy]), math.prod(dims[copy + 1:])
        zm = derivation(m, 0, 0, 0, 0)
        for re, im in [
            (zm, derivation(m, 0, -1, -1, 0)),
            (derivation(m, 0, -1, 1, 0), zm),
            (zm, derivation(m, -1, 0, 0, 1)),
        ]:
            out.append((kron_identity(left, re, right), kron_identity(left, im, right)))
    for z in rep.torus_char:
        out.append((zero, kron_identity(total, [[2 * z]], 1)))
    return out


def irrep_matrices(g, rep):
    """Gaussian-rational matrices for the orthonormal algebra basis on V."""
    return [gaussian_view(re, im, 2) for re, im in doubled_generators(g, rep)]


def su2_generators(m: int):
    """The three spin-(m/2) matrices Y_1, Y_2, Y_3 in the monomial basis."""
    return irrep_matrices(GroupSpec(1), IrrepSpec((m,)))


def is_w_hermitian(op) -> bool:
    """Exact self-adjointness for the invariant inner product, on the integer rows.

    The monomial basis is not unitary, so the matrix need not equal its own
    conjugate transpose; self-adjointness reads W D = D^dagger W with W the
    diagonal Gram matrix of the basis, W_ii = 1 / b_i for b_i the product of
    the binomials of basis vector i.  Entrywise, with den cancelled:
    b_j re_ij = b_i re_ji and b_j im_ij = -b_i im_ji.
    """
    b = [1]
    for m in op.rep.spins:
        b = [x * math.comb(m, k) for x in b for k in range(m + 1)]
    d = op.dim
    return all(
        b[j] * op.re[i][j] == b[i] * op.re[j][i] and b[j] * op.im[i][j] == -b[i] * op.im[j][i]
        for i in range(d)
        for j in range(d)
    )


def casimir_cross_check(m: int) -> tuple:
    """Return (abstract weight-lattice value, 2 x operator value) for spin m/2.

    The identity-metric operator must be the scalar m(m+2)/4; doubling it
    reproduces the weight-lattice value m(m+2)/2 at |alpha|^2 = 2.  Any
    mismatch is a construction bug, not a data condition.
    """
    op = build_operator(GroupSpec(1), IrrepSpec((m,)), diag_metric([1, 1, 1]))
    scalar = Q(op.re[0][0], op.den)
    for i in range(op.dim):
        for j in range(op.dim):
            if op.re[i][j] != (op.re[0][0] if i == j else 0) or op.im[i][j]:
                raise InternalConsistencyError("identity-metric operator is not a scalar")
    if scalar != Q(m * (m + 2), 4):
        raise InternalConsistencyError("identity-metric operator is not the Casimir scalar")
    return (Q(m * (m + 2), 2), 2 * scalar)


# -- characteristic polynomials and certificate values ----------------------


def rational_char_poly(cp) -> RationalPoly:
    """D's characteristic polynomial from char_poly's (P, den): coefficient
    P[i] / den^(d - i) at t^i."""
    p, den = cp
    d = len(p) - 1
    return rpoly(*(Q(c, den ** (d - i)) for i, c in enumerate(p)))


def reference_operator(g, rep, k):
    """D = -sum_ij kappa_ij M_i M_j, term by term in Q(i)."""
    mats = irrep_matrices(g, rep)
    acc = gzeros(rep.dim)
    for i in range(k.n):
        for j in range(k.n):
            if k.kappa[i][j] != 0:
                acc = gadd(acc, gscale(QQi(-k.kappa[i][j]), gmatmul(mats[i], mats[j])))
    return acc


def reference_gaussian_char_poly(a) -> list:
    """Faddeev-LeVerrier in Q(i): [1, c_1, ..., c_d] with
    det(tI - A) = sum_k c_k t^(d-k), as QQi values."""
    d = len(a)
    coeffs = [QQi(1)]
    mk = a
    for step in range(1, d + 1):
        ck = gtrace(mk) / QQi(-step)
        coeffs.append(ck)
        if step < d:
            mk = gmatmul(a, gadd(mk, gscale(ck, gidentity(d))))
    return coeffs


def reference_char_poly(a) -> RationalPoly:
    """Faddeev-LeVerrier in Q(i), for a matrix whose characteristic polynomial is real."""
    coeffs = reference_gaussian_char_poly(a)
    assert all(c.im == 0 for c in coeffs)
    return rpoly(*(c.re for c in reversed(coeffs)))


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
