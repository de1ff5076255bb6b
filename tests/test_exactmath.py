"""Exact rational linear algebra, Gaussian rationals, and polynomials."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambient import dot, matmul, matvec, transpose
import polyref
from casimir_lab import polyq
from casimir_lab import ratlinalg as rl
from casimir_lab.errors import DimensionMismatch, InternalConsistencyError
from casimir_lab.gaussian import GZERO, QQi, gmatmul
from casimir_lab.polyq import (
    RationalPoly,
    _gcd,
    derivative,
    integer_parts,
    resultant,
    root_multiplicity_profile,
    squarefree_decomposition,
)
from polyref import (
    GONE,
    I_UNIT,
    conj,
    degree,
    evaluate,
    from_roots,
    gconj_transpose,
    gkron,
    gmat,
    gtrace,
    ints,
    is_perfect_square,
    leading,
    monic,
    mul,
    rational_resultant,
    rpoly,
    scale,
    sub,
    sylvester,
    sylvester_resultant,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def rand_matrix(rng, n, den=7):
    return rl.mat([[Q(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)] for _ in range(n)])


# --- ratlinalg ---


def test_det_matches_permanent_style_expansion():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        # cofactor expansion along the first row, written out independently
        def minor(m, i, j):
            return [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]

        def det_rec(m):
            if len(m) == 1:
                return m[0][0]
            return sum((-1) ** j * m[0][j] * det_rec(minor(m, 0, j)) for j in range(len(m)))

        assert rl.det(a) == det_rec([list(r) for r in a])


def solve(a: rl.Mat, b: rl.Vec) -> rl.Vec:
    """Reference: a^-1 b for square invertible a."""
    return matvec(rl.inverse(a), b)


def test_inverse_and_solve():
    a = rl.mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    inv = rl.inverse(a)
    assert matmul(a, inv) == rl.identity(3)
    b = (Q(1), Q(2), Q(3))
    x = solve(a, b)
    assert matvec(a, x) == b


def test_rank_counts_pivots():
    assert rl.rank(rl.mat([[1, 2], [2, 4]])) == 1
    assert rl.rank(rl.identity(4)) == 4
    assert rl.rank(rl.mat([[0, 0], [0, 0]])) == 0


def test_ldl_reconstructs_and_pd_matches_leading_minors():
    rng = random.Random(11)
    n = 3
    for _ in range(25):
        b = rand_matrix(rng, n, den=3)
        g = matmul(transpose(b), b)  # symmetric, PD iff b invertible
        minors = [rl.det(rl.mat([row[: k + 1] for row in g[: k + 1]])) for k in range(n)]
        # independent PD criterion: all leading principal minors positive
        assert rl.is_positive_definite(g) == all(m > 0 for m in minors)
        if not rl.is_positive_definite(g):
            continue
        d, u = rl.ldl(g)
        # convention: g = sum_i d[i] * u_row_i^T u_row_i with u unit upper triangular
        rebuilt = [[sum(d[i] * u[i][a] * u[i][c] for i in range(n)) for c in range(n)] for a in range(n)]
        assert rl.mat(rebuilt) == g


def _quad_form(g, y):
    v = rl.vec(y)
    return dot(v, matvec(g, v))


def test_ellipsoid_points_matches_box_scan():
    g = rl.mat([[2, 1], [1, 2]])
    center = (Q(1, 3), Q(-1, 2))
    bound = Q(30)
    got = set(rl.ellipsoid_points(g, center, bound))
    box = set()
    for x in range(-12, 13):
        for y in range(-12, 13):
            v = (Q(x) - center[0], Q(y) - center[1])
            if _quad_form(g, v) <= bound:
                box.add((x, y))
    assert got == box


def test_shape_mismatches_are_rejected():
    with pytest.raises(DimensionMismatch):
        rl.mat([[1, 2], [3]])
    for f in (rl.inverse, rl.det):
        with pytest.raises(DimensionMismatch):
            f(rl.mat([[1, 2, 3], [4, 5, 6]]))


# --- gaussian rationals ---


@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
def test_qqi_field_ops(ab, cd):
    z = QQi(*ab)
    w = QQi(*cd)
    assert (z + w) - w == z
    assert z * w == w * z
    if w != GZERO:
        assert (z / w) * w == z
    assert conj(z * w) == conj(z) * conj(w)


def test_qqi_units_and_norms():
    assert I_UNIT * I_UNIT == QQi(-1)
    assert GONE + GZERO == GONE
    z = QQi(Q(3, 2), Q(-1, 3))
    assert (z * conj(z)).im == 0
    assert complex(z) == 1.5 - 1j / 3


def test_gmat_conj_transpose_and_kron():
    a = gmat([[QQi(1, 2), QQi(0, 1)], [QQi(3), QQi(0, -1)]])
    b = gconj_transpose(a)
    assert b[0][1] == QQi(3)
    assert b[1][0] == QQi(0, -1)
    k = gkron(a, gmat([[GONE, GZERO], [GZERO, GONE]]))
    assert len(k) == 4 and k[0][0] == QQi(1, 2) and k[1][1] == QQi(1, 2)
    assert gtrace(gmatmul(a, b)).im == 0  # tr(A A^dagger) is real


# --- polynomials ---


def _poly_divmod(p: RationalPoly, d: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Reference: Euclidean division over the rationals."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p.coefficients)
    dc = d.coefficients
    qc = [Q(0)] * max(0, len(r) - len(dc) + 1)
    for k in range(len(r) - len(dc), -1, -1):
        f = qc[k] = r[k + len(dc) - 1] / dc[-1]
        for j, c in enumerate(dc):
            r[k + j] -= f * c
    return rpoly(*qc), rpoly(*r)


def _substitute_scaled(p: RationalPoly, s: Q) -> RationalPoly:
    """Reference: p(t/s) for rational s != 0."""
    return rpoly(*(c / s**k for k, c in enumerate(p.coefficients)))


def test_poly_basic_algebra():
    p = rpoly(-6, 11, -6, 1)  # (t-1)(t-2)(t-3)
    assert degree(p) == 3
    assert evaluate(p, Q(2)) == 0
    q, r = _poly_divmod(p, rpoly(-1, 1))
    assert r.is_zero()
    assert evaluate(q, Q(5)) == Q(6)  # quotient (t-2)(t-3) at t=5


def test_from_roots_and_derivative():
    p = from_roots([Q(1), Q(1), Q(4)])
    assert p.coefficients == (Q(-4), Q(9), Q(-6), Q(1))
    assert evaluate(polyref.derivative(p), Q(1)) == 0  # double root kills the derivative
    assert derivative(ints(p)) == ints(polyref.derivative(p)) == [9, -12, 3]
    assert derivative([7]) == []


def _fraction_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Reference: monic gcd over the rationals by Euclid."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero():
        return a
    return monic(a)


def _fraction_yun(p: RationalPoly):
    """Reference: Yun's algorithm over the rationals with monic Euclidean gcds."""
    c = leading(p)
    p = monic(p)
    if degree(p) == 0:
        return c, []
    dp = polyref.derivative(p)
    a = _fraction_gcd(p, dp)
    b = _poly_divmod(p, a)[0]
    d = sub(_poly_divmod(dp, a)[0], polyref.derivative(b))
    parts = []
    while degree(b) > 0:
        ai = _fraction_gcd(b, d)
        parts.append(ai)
        b = _poly_divmod(b, ai)[0]
        d = sub(_poly_divmod(d, ai)[0], polyref.derivative(b))
    return c, parts


def test_poly_gcd_and_squarefree():
    p = from_roots([Q(1), Q(1), Q(2)])
    q = from_roots([Q(1), Q(3)])
    assert _gcd(integer_parts(p)[1], integer_parts(q)[1]) == [-1, 1]
    # contents and signs of the inputs do not reach the primitive gcd
    assert _gcd(integer_parts(scale(p, Q(-10, 3)))[1], integer_parts(scale(q, Q(6)))[1]) == [-1, 1]
    assert _fraction_gcd(p, q).coefficients == (Q(-1), Q(1))
    c, parts = squarefree_decomposition([5 * x for x in ints(p)])
    assert c == 5
    # multiplicity 1 layer = (t-2), multiplicity 2 layer = (t-1)
    assert parts == [[-2, 1], [-1, 1]]
    assert squarefree_decomposition([-5 * x for x in ints(p)]) == (-5, parts)


def test_integer_parts():
    c, cs = integer_parts(rpoly(Q(-3, 4), 0, Q(-9, 2)))
    assert (c, cs) == (Q(-3, 4), [1, 0, 6])
    assert integer_parts(rpoly(7)) == (Q(7), [1])
    with pytest.raises(ValueError):
        integer_parts(rpoly(0))


def _factor(draw, degree):
    cs = [draw(rationals) for _ in range(degree)]
    lead = draw(rationals.filter(lambda x: x != 0))
    return rpoly(*cs, lead)


@st.composite
def repeated_factor_products(draw):
    """c * prod f_i**m_i for rational linear and quadratic f_i and m_i <= 3."""
    p = rpoly(draw(st.fractions(min_value=-40, max_value=40, max_denominator=30).filter(lambda x: x != 0)))
    for _ in range(draw(st.integers(0, 4))):
        f = _factor(draw, draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, 3))):
            p = mul(p, f)
    return p


@given(repeated_factor_products(), st.integers(-12, 12).filter(lambda k: k != 0))
def test_squarefree_decomposition_matches_the_fraction_yun(p, k):
    # the integer layers of k P, P the primitive integer part of p, are the
    # Fraction Yun's monic layers up to their leading coefficients
    cp, prim = integer_parts(p)
    c, parts = squarefree_decomposition([k * x for x in prim])
    assert c == k
    assert all(math.gcd(*part) == 1 and part[-1] > 0 for part in parts)
    lead, fraction_parts = _fraction_yun(p)
    assert lead == cp * prim[-1]
    assert [monic(rpoly(*part)) for part in parts] == fraction_parts


def test_squarefree_decomposition_layers():
    # 5 (2t+1)^3 (t^2+1)^2 (3t-2): layers 1, 2, 3 hold one factor each
    cube, square = rpoly(1, 2), rpoly(1, 0, 1)
    p = mul(cube, cube, cube, square, square, rpoly(-2, 3))
    c, parts = squarefree_decomposition([5 * x for x in ints(p)])
    assert c == 5
    assert parts == [[-2, 3], [1, 0, 1], [1, 2]]
    assert squarefree_decomposition([-3]) == (-3, [])
    with pytest.raises(ValueError):
        squarefree_decomposition([])


def test_inexact_quotient_is_a_bug(monkeypatch):
    with pytest.raises(InternalConsistencyError, match="polynomial quotient is not exact"):
        polyq._exact_quotient([1, 0, 1], [1, 1])  # (t^2 + 1) / (t + 1)
    with pytest.raises(InternalConsistencyError, match="integer division is not exact"):
        polyq._exact_quotient([1, 0, 3], [0, 2])  # 3t^2 + 1 over 2t
    # a wrong gcd makes Yun's quotients inexact
    monkeypatch.setattr(polyq, "_gcd", lambda a, b: [1, 1])
    with pytest.raises(InternalConsistencyError):
        squarefree_decomposition(ints(from_roots([1, 1, 2])))


def test_multiplicity_profile_and_perfect_square():
    p = ints(from_roots([Q(2), Q(2), Q(5), Q(5), Q(7)]))
    assert root_multiplicity_profile(p) == {1: 1, 2: 2}
    assert root_multiplicity_profile([-6 * x for x in p]) == {1: 1, 2: 2}
    assert not is_perfect_square(p)
    sq = ints(from_roots([Q(2), Q(2), Q(5), Q(5)]))
    assert is_perfect_square(sq)
    assert is_perfect_square([3])  # nonzero constant


def _prs_resultant(p: RationalPoly, q: RationalPoly) -> Q:
    """Independent oracle: Euclidean remainder recursion for resultants."""
    if p.is_zero() or q.is_zero():
        return Q(0)
    if degree(p) < degree(q):
        sign = -1 if (degree(p) * degree(q)) % 2 else 1
        return sign * _prs_resultant(q, p)
    if degree(q) == 0:
        return leading(q) ** degree(p)
    r = _poly_divmod(p, q)[1]
    if r.is_zero():
        return Q(0)
    sign = -1 if (degree(p) * degree(q)) % 2 else 1
    return sign * leading(q) ** (degree(p) - degree(r)) * _prs_resultant(q, r)


def test_resultant_matches_prs_oracle():
    rng = random.Random(2026)
    for _ in range(20):
        p = rpoly(*[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(2, 7))])
        q = rpoly(*[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(2, 7))])
        if p.is_zero() or q.is_zero():
            continue
        assert rational_resultant(p, q) == _prs_resultant(p, q)


def test_resultant_detects_common_roots():
    p = ints(from_roots([Q(1), Q(2)]))
    q = ints(from_roots([Q(2), Q(9)]))
    assert resultant(p, q) == 0
    r = ints(from_roots([Q(3), Q(9)]))
    assert resultant(p, r) != 0
    # frozen small case: res(t^2-1, t^2-4) = 9
    assert resultant([-1, 0, 1], [-4, 0, 1]) == 9
    # a common rational root of non-monic polynomials
    assert resultant([-2, 3], ints(mul(rpoly(-2, 3), rpoly(1, 0, 5)))) == 0


def test_sylvester_matrix_shape():
    p = rpoly(1, 2, 3)
    q = rpoly(4, 5)
    m = sylvester(p, q)
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    assert rl.det(m) == resultant([1, 2, 3], [4, 5])


def test_resultant_abnormal_remainder_sequence():
    # Knuth's pair: the remainder degrees 8, 6, 4, 2, 1, 0 skip after the first step
    p = [-5, 2, 8, -3, -3, 0, 1, 0, 1]
    q = [21, -9, -4, 0, 5, 0, 3]
    fp, fq = rpoly(*p), rpoly(*q)
    assert resultant(p, q) == sylvester_resultant(fp, fq) == _prs_resultant(fp, fq) != 0


def test_resultant_degenerate_shapes():
    c, d = [-2], [5]
    p = [2, 1, 0, 6]
    assert resultant(c, d) == 1
    assert resultant(p, c) == -8 and resultant(c, p) == -8
    with pytest.raises(ValueError):
        resultant(p, [])
    # rational inputs through their integer parts
    c, p = rpoly(Q(-2, 3)), rpoly(1, Q(1, 2), 0, 3)
    assert rational_resultant(p, c) == Q(-8, 27) and rational_resultant(c, p) == Q(-8, 27)


RESULTANT_SHAPES = ("deg 0/0", "p/const", "const/p", "p/p'", "p/p''", "common root", "even", "random")


def _of_t_squared(cs):
    """p(t^2) for p with coefficients cs: its remainder sequences drop degrees by 2."""
    return [c for x in cs for c in (x, 0)]


def _times(a, b):
    return ints(mul(rpoly(*a), rpoly(*b)))


integers = st.integers(-30, 30)


@settings(max_examples=400)
@given(
    st.sampled_from(RESULTANT_SHAPES),
    st.lists(integers, min_size=1, max_size=7),
    st.lists(integers, min_size=1, max_size=5),
    rationals,
)
def test_resultant_matches_sylvester_and_prs(shape, pcs, qcs, root):
    # integer inputs of any content; p' and p'' are rarely primitive
    p, q = pcs, qcs
    if shape == "deg 0/0":
        p, q = [pcs[0] or 1], [qcs[0] or 1]
    elif shape in ("p/const", "const/p"):
        q = [qcs[0] or 1]
        if shape == "const/p":
            p, q = q, p
    elif shape == "p/p'":
        q = derivative(p)
    elif shape == "p/p''":
        q = derivative(derivative(p))
    elif shape == "common root":
        linear = [-root.numerator, root.denominator]
        p, q = _times(p, linear), _times(q, linear)
    elif shape == "even":
        p, q = _of_t_squared(pcs), _times(_of_t_squared(qcs), [root.numerator, 0, root.denominator])
    fp, fq = rpoly(*p), rpoly(*q)
    assume(not fp.is_zero() and not fq.is_zero())
    p, q = list(fp.coefficients), list(fq.coefficients)  # trailing zeros dropped
    value = resultant([int(c) for c in p], [int(c) for c in q])
    assert value == sylvester_resultant(fp, fq) == _prs_resultant(fp, fq)
    if shape == "common root":
        assert value == 0


def test_substitute_scaled():
    p = rpoly(-6, 11, -6, 1)
    s = Q(2)
    q = _substitute_scaled(p, s)  # p(t/2): roots double
    assert evaluate(q, Q(2)) == 0 and evaluate(q, Q(4)) == 0 and evaluate(q, Q(6)) == 0
