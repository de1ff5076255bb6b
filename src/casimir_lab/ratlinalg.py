"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  No
floating point anywhere in this module; callers that want floats convert
at the very end.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt, lcm
from typing import Iterable, Iterator

from .errors import DimensionMismatch, NotPositiveDefinite

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]

ZERO = Q(0)
ONE = Q(1)


def frac(x) -> Q:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        return Q(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged rows")
    return m


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _elim(rows: list[list[Q]], ncols: int) -> tuple[list[list[Q]], list[int]]:
    """In-place fraction Gauss elimination; returns (echelon rows, pivot cols)."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a: Mat) -> int:
    if not a:
        return 0
    rows = [list(r) for r in a]
    _, pivots = _elim(rows, len(a[0]))
    return len(pivots)


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("inverse of non-square matrix")
    aug = [list(r) + list(e) for r, e in zip(a, identity(n))]
    rows, pivots = _elim(aug, n)
    if len(pivots) != n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def det(a: Mat) -> Q:
    """Exact determinant via Bareiss on the denominator-cleared integer matrix."""
    n = len(a)
    if n == 0:
        return ONE
    if any(len(r) != n for r in a):
        raise DimensionMismatch("det of non-square matrix")
    scale = ONE
    m: list[list[int]] = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        m.append([int(x * den) for x in row])
    # Bareiss: exact integer one-step fraction-free elimination.
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return ZERO
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Q(sign * m[n - 1][n - 1], 1) / scale


def ldl(g: Mat) -> tuple[list[Q], list[list[Q]]]:
    """Decompose symmetric positive-definite g as Q(y) = sum_i d[i]*(y_i + sum_{j>i} u[i][j] y_j)^2.

    Returns (d, u) with u unit upper triangular.  Raises NotPositiveDefinite
    on a nonpositive pivot.
    """
    n = len(g)
    a = [[g[i][j] for j in range(n)] for i in range(n)]
    d: list[Q] = [ZERO] * n
    u = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise NotPositiveDefinite(f"pivot {i} is {d[i]}")
        u[i][i] = ONE
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
                a[l][k] = a[k][l]
    return d, u


def fraction_free_ldl(g) -> tuple[tuple[int, ...], ...]:
    """Rows (A_kk, ..., A_k,n-1) of the integer stages A of Bareiss elimination
    (Bareiss 1968) of a symmetric integer g: with Q_k the form of A on y_k..
    (Q_0 = y^T g y), A_kk Q_k = (sum_j A_kj y_j)^2 + A_{k-1,k-1} Q_{k+1}.
    A nonpositive A_kk, a leading principal minor, raises NotPositiveDefinite."""
    a, rows, prev = [list(r) for r in g], [], 1
    for k in range(len(a)):
        p = a[k][k]
        if p <= 0:
            raise NotPositiveDefinite(f"pivot {k} is {p}")
        rows.append(tuple(a[k][k:]))
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (p * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = p
    return tuple(rows)


def is_positive_definite(g: Mat) -> bool:
    den = lcm(*(x.denominator for row in g for x in row))
    try:
        fraction_free_ldl([[int(x * den) for x in row] for row in g])
        return True
    except NotPositiveDefinite:
        return False


def ellipsoid_points(g: Mat, center: Vec, bound: Q) -> Iterator[tuple[int, ...]]:
    """Integer points y with (y - center)^T g (y - center) <= bound.

    g must be symmetric positive definite; enumeration is fully exact
    (Fincke-Pohst with a rational LDL^T in place of Cholesky).
    """
    n = len(g)
    if bound < 0:
        return
    d, u = ldl(g)
    y = [0] * n

    def descend(i: int, remaining: Q) -> Iterator[tuple[int, ...]]:
        # Level i contributes d[i]*(z_i + sum_{j>i} u[i][j] z_j)^2 with z = y - center.
        shift = -center[i] + sum((u[i][j] * (y[j] - center[j]) for j in range(i + 1, n)), ZERO)
        # (yi + shift)^2 <= remaining / d[i]: t = yi*den + num, t^2 <= floor(x)
        num, den, x = shift.numerator, shift.denominator, remaining / d[i] * shift.denominator**2
        t_max = isqrt(x.numerator // x.denominator)
        for yi in range(-((t_max + num) // den), (t_max - num) // den + 1):
            y[i] = yi
            used = d[i] * (yi + shift) ** 2
            if i == 0:
                yield tuple(y)
            else:
                yield from descend(i - 1, remaining - used)
        y[i] = 0

    yield from descend(n - 1, bound)
