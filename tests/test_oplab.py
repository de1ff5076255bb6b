"""Exact metric-dependent operators on product-group irreducibles."""

import dataclasses
import importlib
import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lab import cli, oplab
from casimir_lab.errors import (
    CapExceeded,
    DimensionMismatch,
    InternalConsistencyError,
    NotPositiveDefinite,
)
from casimir_lab.gaussian import QQi, gmatmul
from casimir_lab.oplab import (
    GroupSpec,
    IrrepSpec,
    MetricParam,
    build_operator,
    certify,
    char_poly,
    cluster_spectrum,
    diag_metric,
    enumerate_reps,
    multiplicity_at_float,
    numeric_spectrum,
    witness_sequence,
)
from casimir_lab.polyq import integer_parts, root_multiplicity_profile, squarefree_decomposition
from polyref import (
    abc_values,
    casimir_cross_check,
    degree,
    derivative,
    doubled_den,
    doubled_generators,
    evaluate,
    from_roots,
    gadd,
    gaussian_view,
    gconj_transpose,
    gidentity,
    gkron,
    gscale,
    gtrace,
    irrep_matrices,
    is_perfect_square,
    is_w_hermitian,
    operator_matrix,
    rational_char_poly,
    reference_char_poly,
    reference_gaussian_char_poly,
    reference_operator,
    rpoly,
    scale,
    su2_generators,
)

G1 = GroupSpec(1)
K123 = diag_metric([1, 2, 3])
K_OFF = MetricParam(
    ((Q(1), Q(0), Q(0)), (Q(0), Q(2), Q(1, 5)), (Q(0), Q(1, 5), Q(3)))
)


def test_generator_brackets():
    # [Y1, Y2] = Y3 and cyclic, on every symmetric power up to spin 3/2
    for m in (1, 2, 3):
        y = su2_generators(m)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = gadd(gmatmul(y[i], y[j]), gscale(QQi(-1), gmatmul(y[j], y[i])))
            assert comm == y[k]


def test_generator_normalization():
    # -2 tr(Yi Yj) = delta_ij on the defining rep
    y = su2_generators(1)
    for i in range(3):
        for j in range(3):
            tr = gtrace(gmatmul(y[i], y[j]))
            assert gscale(QQi(-2), ((tr,),))[0][0] == (QQi(1) if i == j else QQi(0))


def test_frozen_char_polys():
    # den = 4 at an integer metric: P(s) = det(sI - 4D)
    p1 = char_poly(build_operator(G1, IrrepSpec((1,)), K123))
    assert p1 == ([36, -12, 1], 4)  # (s - 6)^2
    assert rational_char_poly(p1) == rpoly(Q(9, 4), -3, 1)  # (t - 3/2)^2
    assert root_multiplicity_profile(p1[0]) == {2: 1}

    p2 = char_poly(build_operator(G1, IrrepSpec((2,)), K123))
    assert p2 == ([-3840, 752, -48, 1], 4)  # (s-12)(s-16)(s-20)
    assert rational_char_poly(p2) == rpoly(-60, 47, -12, 1)  # (t-3)(t-4)(t-5)
    assert root_multiplicity_profile(p2[0]) == {1: 3}

    torus = GroupSpec(0, 1)
    pt = char_poly(build_operator(torus, IrrepSpec((), (3,)), diag_metric([5])))
    assert pt == ([-180, 1], 4)
    assert rational_char_poly(pt) == rpoly(-45, 1)  # 5 * 3^2


def test_w_hermitian_vs_literal():
    # spin 1/2: the monomial basis is already orthonormal, so literal symmetry
    op1 = build_operator(G1, IrrepSpec((1,)), K_OFF)
    assert operator_matrix(op1) == gconj_transpose(operator_matrix(op1))
    assert is_w_hermitian(op1)
    # spin 1 with a mixed term: only W-self-adjoint, not literally Hermitian
    op2 = build_operator(G1, IrrepSpec((2,)), K_OFF)
    assert operator_matrix(op2) != gconj_transpose(operator_matrix(op2))
    assert is_w_hermitian(op2)


def test_every_operator_w_hermitian():
    for k in witness_sequence(3, 6, seed=7):
        for m in range(4):
            assert is_w_hermitian(build_operator(G1, IrrepSpec((m,)), k))


@pytest.mark.parametrize("part", ["re", "im"])
def test_w_hermitian_rejects_a_corrupted_entry(part):
    # spin 3/2 x spin 1/2 x torus at a mixed metric; one off-diagonal entry nudged
    g = GroupSpec(2, 1)
    op = build_operator(g, IrrepSpec((3, 1), (2,)), list(witness_sequence(7, 2, seed=5))[1])
    assert is_w_hermitian(op)
    rows = [list(r) for r in getattr(op, part)]
    rows[1][4] += 1
    bad = oplab.ExactOperator(**{**vars(op), part: tuple(map(tuple, rows))})
    assert not is_w_hermitian(bad)


def test_metric_scaling_covariance():
    # kappa -> s*kappa rescales the spectrum by s: coefficients pick up s^(d-k)
    for s in (2, 3):
        for m in (1, 2, 3):
            p = rational_char_poly(char_poly(build_operator(G1, IrrepSpec((m,)), K_OFF)))
            scaled_kappa = MetricParam(
                tuple(tuple(s * x for x in row) for row in K_OFF.kappa)
            )
            ps = rational_char_poly(char_poly(build_operator(G1, IrrepSpec((m,)), scaled_kappa)))
            d = degree(p)
            expect = tuple(c * Q(s) ** (d - k) for k, c in enumerate(p.coefficients))
            assert ps.coefficients == expect


def test_rotation_invariance_of_spectrum():
    # kappa -> P^T kappa P for a rotation P of the three su(2) directions is a
    # change of orthonormal algebra basis, hence spectrum-preserving.
    cyc = ((0, 1, 0), (0, 0, 1), (1, 0, 0))  # det +1
    flip = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))  # det +1
    for pmat in (cyc, flip):
        rows = [
            [
                sum(Q(pmat[k][i]) * K_OFF.kappa[k][l] * Q(pmat[l][j]) for k in range(3) for l in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        rotated = MetricParam(tuple(tuple(r) for r in rows))
        for m in (1, 2, 3):
            assert char_poly(build_operator(G1, IrrepSpec((m,)), rotated)) == char_poly(
                build_operator(G1, IrrepSpec((m,)), K_OFF)
            )


def test_quaternionic_even_multiplicity():
    # odd m is quaternionic: characteristic polynomial is a perfect square
    for k in witness_sequence(3, 5, seed=11):
        for m in (1, 3):
            assert is_perfect_square(char_poly(build_operator(G1, IrrepSpec((m,)), k))[0])
    # even m at a generic metric has simple spectrum instead
    assert not is_perfect_square(char_poly(build_operator(G1, IrrepSpec((2,)), K123))[0])


def test_abc_values_frozen():
    abc = abc_values(G1, (IrrepSpec((1,)), IrrepSpec((2,))), K123)
    assert abc.a == Q(11025, 64)
    assert abc.b1 is None and abc.c1 == 4  # quaternionic slot
    assert abc.c2 is None and abc.b2 == -4  # simple-spectrum slot


def test_multiplicity_at_float():
    p = from_roots([1, 1, 2])
    assert multiplicity_at_float(p, 1.0000000003) == 2
    assert multiplicity_at_float(p, 2.0) == 1
    with pytest.raises(InternalConsistencyError):
        multiplicity_at_float(p, 1.5)  # near no root at all


def test_witness_sequence_properties():
    seq = list(witness_sequence(3, 8, seed=2026))
    again = list(witness_sequence(3, 8, seed=2026))
    assert seq == again  # deterministic
    assert len(seq) == 8
    for k in seq:
        assert k.n == 3
        assert k.kappa == tuple(tuple(row) for row in zip(*k.kappa))  # symmetric
        assert k.is_positive_definite()
    # first half graded diagonals over primes 7, 11, 13, 17
    assert seq[0].kappa == ((1, 0, 0), (0, Q(8, 7), 0), (0, 0, Q(9, 7)))
    for k in seq[:4]:
        assert all(k.kappa[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    # second half must carry mixed terms (needed to separate torus characters)
    for k in seq[4:]:
        assert any(k.kappa[i][j] != 0 for i in range(3) for j in range(i + 1, 3))


def test_witness_sequence_is_lazy():
    t0 = time.perf_counter()
    first = next(iter(witness_sequence(3, 10**9, seed=2026)))
    assert time.perf_counter() - t0 < 0.1
    assert first == list(witness_sequence(3, 8, seed=2026))[0]
    assert list(witness_sequence(3, 0, seed=1)) == list(witness_sequence(3, -3, seed=1)) == []


def test_certify_refuses_a_budget_past_the_cap(monkeypatch):
    built = []
    monkeypatch.setattr(oplab, "witness_sequence", lambda *args: built.append(args) or iter(()))
    with pytest.raises(CapExceeded) as exc:
        certify(G1, rep_cap=1, budget=oplab.BUDGET_CAP + 1)
    assert (exc.value.what, exc.value.actual, exc.value.limit, built) == (
        "budget", oplab.BUDGET_CAP + 1, oplab.BUDGET_CAP, [])
    assert certify(G1, rep_cap=1, budget=oplab.BUDGET_CAP).status == "inconclusive"
    assert built == [(3, oplab.BUDGET_CAP, 2026)]


def test_enumerate_reps_counts_and_order():
    r1 = enumerate_reps(GroupSpec(1), 4)
    assert [v.spins for v in r1] == [(0,), (1,), (2,), (3,), (4,)]
    assert len(enumerate_reps(GroupSpec(0, 2), 3)) == 49
    r11 = enumerate_reps(GroupSpec(1, 1), 2)
    assert len(r11) == 15
    assert r11 == sorted(r11, key=lambda v: (v.spins, v.torus_char))


@pytest.mark.parametrize("su2,torus", [(c, t) for c in range(4) for t in range(3) if c + t])
def test_enumerate_reps_lists_every_label_once_in_order(monkeypatch, su2, torus):
    monkeypatch.setattr(oplab, "REP_COUNT_CAP", 10**6)
    monkeypatch.setattr(oplab, "TOTAL_DIM_CAP", 10**6)
    for cap in range(3):
        reps = enumerate_reps(GroupSpec(su2, torus), cap)
        assert reps == sorted(set(reps), key=lambda v: (v.spins, v.torus_char))
        assert len(reps) == (cap + 1) ** su2 * (2 * cap + 1) ** torus


def test_algebra_dimension_cap(monkeypatch):
    cap = oplab.ALGEBRA_DIM_CAP
    assert GroupSpec(cap // 3).algebra_dim == cap and GroupSpec(0, cap).algebra_dim == cap
    for su2, torus in ((cap // 3, 1), (0, cap + 1), (2000, 0)):
        with pytest.raises(CapExceeded) as exc:
            GroupSpec(su2, torus)
        assert (exc.value.what, exc.value.actual, exc.value.limit) == ("algebra dimension", 3 * su2 + torus, cap)
    # past the cap the walk over the copies is flat, not one call deep per copy
    monkeypatch.setattr(oplab, "ALGEBRA_DIM_CAP", 10**6)
    assert enumerate_reps(GroupSpec(2000), 0) == [IrrepSpec((0,) * 2000)]


# For each (SU(2) copies, torus rank) that the benchmark's operator workloads
# request, the largest rep cap they use; a smaller cap lists fewer reps.
BENCHMARK_SHAPES = [(1, 0, 8), (1, 0, 12), (0, 2, 3), (1, 1, 4), (1, 2, 1), (2, 0, 2), (3, 0, 1)]


@pytest.mark.parametrize("su2,torus,cap", BENCHMARK_SHAPES + [(1, 0, 0), (0, 1, 0), (1, 0, 16), (2, 1, 1)])
def test_rep_caps_count_the_enumerated_reps(monkeypatch, su2, torus, cap):
    g = GroupSpec(su2, torus)
    if (su2, torus, cap) in BENCHMARK_SHAPES:
        enumerate_reps(g, cap)  # the default caps admit it
    monkeypatch.setattr(oplab, "REP_COUNT_CAP", 10**6)
    monkeypatch.setattr(oplab, "TOTAL_DIM_CAP", 10**6)
    reps = enumerate_reps(g, cap)
    count, total = len(reps), sum(v.dim for v in reps)
    # admitted exactly at both caps, refused one below either
    monkeypatch.setattr(oplab, "REP_COUNT_CAP", count)
    monkeypatch.setattr(oplab, "TOTAL_DIM_CAP", total)
    assert enumerate_reps(g, cap) == reps
    for name, what, actual in (("REP_COUNT_CAP", "rep count", count), ("TOTAL_DIM_CAP", "total rep dimension", total)):
        with monkeypatch.context() as m:
            m.setattr(oplab, name, actual - 1)
            with pytest.raises(CapExceeded) as exc:
                enumerate_reps(g, cap)
        assert (exc.value.what, exc.value.actual, exc.value.limit) == (what, actual, actual - 1)


def test_irrep_spec_basics():
    v = IrrepSpec((2, 1), (3, -1))
    assert v.dim == 6
    assert v.dual() == IrrepSpec((2, 1), (-3, 1))
    assert IrrepSpec((1,)).rep_type() == "quaternionic"
    assert IrrepSpec((2,)).rep_type() == "real"
    assert IrrepSpec((), (3,)).rep_type() == "complex"
    assert IrrepSpec((1, 1)).rep_type() == "real"  # two quaternionic factors


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        build_operator(GroupSpec(1), IrrepSpec((1, 1)), K123)
    with pytest.raises(DimensionMismatch):
        build_operator(GroupSpec(1), IrrepSpec((1,)), diag_metric([1, 2]))


def test_casimir_cross_check():
    for m in range(7):
        abstract, doubled = casimir_cross_check(m)
        assert abstract == Q(m * (m + 2), 2)
        assert abstract == doubled


def test_numeric_spectrum_identity_metric():
    reps = [IrrepSpec((m,)) for m in range(4)]
    clusters = numeric_spectrum(G1, reps, diag_metric([1, 1, 1]))
    # eigenvalues m(m+2)/4 with full multiplicity m+1, one rep per cluster
    assert len(clusters) == 4
    for cl, m in zip(clusters, range(4)):
        assert abs(cl.center - m * (m + 2) / 4) < 1e-12
        assert dict(cl.per_rep) == {IrrepSpec((m,)): m + 1}
        assert cl.assembled_dims(ustar_dim=2) == {IrrepSpec((m,)): 2 * (m + 1) ** 2}


def test_numeric_spectrum_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        numeric_spectrum(G1, [IrrepSpec((1,))], diag_metric([1, -1, 1]))


def test_certify_small_su2():
    cert = certify(GroupSpec(1), rep_cap=2, budget=6, seed=2026)
    assert cert.certified
    assert cert.witness_kappa is not None and cert.witness_kappa.is_positive_definite()
    assert cert.candidates_tried >= 1
    assert all(val != 0 for _, _, _, val in cert.table)


def test_certify_inconclusive_on_empty_budget():
    cert = certify(GroupSpec(1), rep_cap=1, budget=0, seed=2026)
    assert not cert.certified
    assert cert.status == "inconclusive"
    assert cert.candidates_tried == 0


# -- the Gaussian-integer kernel against the Gaussian-rational reference ----


def _non_dyadic(n):
    """Symmetric, with diagonal (i + 3)/3 and every mixed entry over an odd denominator > 1."""
    odd = (3, 5, 7, 9, 11, 13, 17)
    return MetricParam(tuple(
        tuple(Q(i + 3, 3) if i == j else Q((-1) ** (i + j) * (i + j), odd[(i + j) % len(odd)] * odd[abs(i - j) % len(odd)])
              for j in range(n))
        for i in range(n)
    ))


@pytest.mark.parametrize("su2,torus,cap", [(1, 0, 2), (2, 0, 1), (3, 0, 1), (0, 2, 2), (1, 1, 2), (1, 2, 1)])
def test_char_poly_matches_gaussian_reference(su2, torus, cap):
    g = GroupSpec(su2, torus)
    metrics = list(witness_sequence(g.algebra_dim, 12, seed=2026)) + [_non_dyadic(g.algebra_dim)]
    for k in metrics:
        for v in enumerate_reps(g, cap):
            op = build_operator(g, v, k)
            ref = reference_operator(g, v, k)
            assert operator_matrix(op) == ref
            p, den = char_poly(op)
            assert den == op.den and len(p) == v.dim + 1 and p[-1] == 1
            assert rational_char_poly((p, den)) == reference_char_poly(ref)


def integer_rows(d):
    """A d x d integer matrix as row tuples."""
    flat = st.lists(st.integers(-20, 20), min_size=d * d, max_size=d * d)
    return flat.map(lambda xs: tuple(tuple(xs[i * d:(i + 1) * d]) for i in range(d)))


SQUARE_PAIRS = st.integers(1, 13).flatmap(lambda d: st.tuples(integer_rows(d), integer_rows(d)))


@st.composite
def char_poly_operators(draw):
    """An operator of dimension 1 to 13 with den in 1..10^6: a real integer
    matrix, marked real or not, or a Hermitian Gaussian-integer matrix."""
    re, im = draw(SQUARE_PAIRS)
    d = len(re)
    if draw(st.booleans()):
        return oplab.ExactOperator(re, ((0,) * d,) * d, draw(st.integers(1, 10**6)), IrrepSpec((d - 1,)), K123,
                                   real=draw(st.booleans()))
    re = tuple(tuple(re[min(i, j)][max(i, j)] for j in range(d)) for i in range(d))
    im = tuple(tuple((i < j) * im[i][j] - (i > j) * im[j][i] for j in range(d)) for i in range(d))
    return oplab.ExactOperator(re, im, draw(st.integers(1, 10**6)), IrrepSpec((d - 1,)), K123)


@settings(max_examples=30, deadline=None)
@given(char_poly_operators())
def test_char_poly_matches_the_reference_on_random_matrices(op):
    # P is the polynomial of A = re + i im whatever den is
    reference = reference_char_poly(gaussian_view(op.re, op.im, 1))
    assert char_poly(op) == (list(reference.coefficients), op.den)


@settings(max_examples=30, deadline=None)
@given(SQUARE_PAIRS)
def test_gaussian_recursion_matches_the_reference_on_any_matrix(parts):
    # A general Gaussian-integer matrix has a complex polynomial, which
    # char_poly refuses; the recursion itself still matches the reference.
    re, im = parts
    pr, pi = oplab._gaussian_berkowitz(re, im)
    assert list(map(QQi, pr, pi)) == reference_gaussian_char_poly(gaussian_view(re, im, 1))
    if any(pi):
        with pytest.raises(InternalConsistencyError, match="imaginary part"):
            char_poly(oplab.ExactOperator(re, im, 1, IrrepSpec((len(re) - 1,)), K123))


CASBENCH = Path(__file__).resolve().parents[1] / "casbench"


@pytest.mark.parametrize("workload", ["operator-certify", "operator-spectrum"])
def test_char_poly_matches_the_reference_on_every_benchmark_operator(monkeypatch, workload):
    # Every operator whose polynomial one round of the benchmark workload
    # asks for, at seed 1, through cli.main.
    monkeypatch.syspath_prepend(str(CASBENCH))
    requests = importlib.import_module("workloads").build_round(workload, 1)
    good, kinds = char_poly, set()

    def checked(op):
        kinds.add(op.real)
        p = good(op)
        assert rational_char_poly(p) == reference_char_poly(operator_matrix(op))
        return p

    monkeypatch.setattr(oplab, "char_poly", checked)
    monkeypatch.setattr(cli, "char_poly", checked)
    for req in requests:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(req.argv) == 0, req.argv
    assert kinds == {True, False}


def test_irrep_matrices_kron_layout():
    # generator of copy c is I (x) Y (x) I in row-major order, torus acts by i*z
    g = GroupSpec(2, 1)
    v = IrrepSpec((2, 1), (-3,))
    mats = irrep_matrices(g, v)
    y2, y1 = su2_generators(2), su2_generators(1)
    expect = [gkron(y, gidentity(2)) for y in y2] + [gkron(gidentity(3), y) for y in y1]
    expect.append(gscale(QQi(0, -3), gidentity(6)))
    assert mats == expect


def _densified(d, imaginary, rows):
    """(re, im) dense integer rows of a generator given as (imaginary, rows)."""
    m = [[0] * d for _ in range(d)]
    for r, row in enumerate(rows):
        for c, x in row:
            assert x and not m[r][c], (r, c, x)
            m[r][c] = x
    zero = [[0] * d for _ in range(d)]
    return (zero, m) if imaginary else (m, zero)


def _gaussian_product(x, y):
    """(re, im) of the product of two dense Gaussian-integer (re, im) matrices."""
    (xr, xi), (yr, yi) = x, y
    cols = list(zip(zip(*yr), zip(*yi)))
    rows = list(zip(xr, xi))
    re = [[sum(map(mul, a, c)) - sum(map(mul, b, e)) for c, e in cols] for a, b in rows]
    im = [[sum(map(mul, a, e)) + sum(map(mul, b, c)) for c, e in cols] for a, b in rows]
    return re, im


SMALL_GROUPS = [GroupSpec(c, n) for c in range(4) for n in range(4) if 1 <= c + n <= 3]


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: f"su2x{g.su2_copies}-t{g.torus_rank}")
def test_sparse_generators_and_pieces_match_the_dense_reference(g):
    # every rep with spins and characters up to 2 in size
    ranges = [range(3)] * g.su2_copies + [range(-2, 3)] * g.torus_rank
    for t in itertools.product(*ranges):
        v = IrrepSpec(t[:g.su2_copies], t[g.su2_copies:])
        ref = doubled_generators(g, v)
        assert [_densified(v.dim, *gen) for gen in oplab._doubled_generators(g, v)] == ref
        pieces = oplab._QuadPieces(g, v)
        for i, j in itertools.combinations_with_replacement(range(g.algebra_dim), 2):
            re, im = _gaussian_product(ref[i], ref[j])
            if i != j:
                re2, im2 = _gaussian_product(ref[j], ref[i])
                re = [list(map(add, a, b)) for a, b in zip(re, re2)]
                im = [list(map(add, a, b)) for a, b in zip(im, im2)]
            imaginary, flat = pieces.piece(i, j)
            part, other = (im, re) if imaginary else (re, im)
            assert not any(map(any, other)), (v, i, j)
            assert [x for row in part for x in row] == (flat or [0] * v.dim ** 2), (v, i, j)
            assert flat is None or any(flat)


@pytest.mark.parametrize("kappa", [K123, K_OFF], ids=["real", "complex"])
def test_char_poly_catches_a_wrong_product(monkeypatch, kappa):
    # Each product of the Berkowitz recursion in turn, off by one: every one
    # that changes the polynomial is refused.
    op = build_operator(G1, IrrepSpec((3,)), kappa)
    assert op.real == (kappa is K123)
    good = char_poly(op)
    refused = 0
    for n in itertools.count():
        calls = itertools.count()
        monkeypatch.setattr(oplab, "mul", lambda x, y: x * y + (next(calls) == n))
        try:
            assert char_poly(op) == good
        except InternalConsistencyError:
            refused += 1
        products = next(calls)
        if n + 1 == products:
            break
    assert refused > products // 2
    # a wrong pivot inside the determinant of the identity is refused too
    det = oplab.integer_det
    monkeypatch.setattr(oplab, "mul", mul)
    monkeypatch.setattr(oplab, "integer_det", lambda m: det([[m[0][0] + 1, *m[0][1:]], *m[1:]]))
    with pytest.raises(InternalConsistencyError, match="Bareiss determinant"):
        char_poly(op)


def test_char_poly_rejects_an_imaginary_coefficient():
    # D = (i): det(t - D) = t - i
    op = oplab.ExactOperator(((0,),), ((1,),), 1, IrrepSpec((0,)), diag_metric([1, 1, 1]))
    with pytest.raises(InternalConsistencyError, match="characteristic coefficient has imaginary part -1"):
        char_poly(op)


def test_operator_shares_pieces_only_within_one_rep():
    pieces = oplab._QuadPieces(G1, IrrepSpec((2,)))
    shared = build_operator(G1, IrrepSpec((2,)), K_OFF, pieces=pieces)
    assert shared == build_operator(G1, IrrepSpec((2,)), K_OFF)
    with pytest.raises(ValueError):
        build_operator(G1, IrrepSpec((3,)), K_OFF, pieces=pieces)


# mixed signs and denominators, with zeros on and off the diagonal
K_MIXED = MetricParam((
    (Q(3, 2), Q(-1, 3), Q(0), Q(2, 7)),
    (Q(-1, 3), Q(-5, 6), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(-4, 9)),
    (Q(2, 7), Q(0), Q(-4, 9), Q(2)),
))


def test_metric_weights_are_the_metrics_own():
    g, k = GroupSpec(1, 1), K_MIXED
    payload, key = cli._kappa_payload(k), hash(k)
    assert "_weights" not in vars(k)
    # lcm(2, 3, 7, 6, 9) = 126; each weight is -num * (126 / den), upper entries only
    assert k._weights == (((0, 0, -189), (0, 1, 42), (0, 3, -36), (1, 1, 105), (2, 3, 56), (3, 3, -252)), 126)
    filled = vars(k)["_weights"]
    for v in enumerate_reps(g, 2):
        op = build_operator(g, v, k, pieces=oplab._QuadPieces(g, v))
        fresh = MetricParam(k.kappa)
        assert op == build_operator(g, v, fresh)
        assert fresh == k and fresh._weights == k._weights
        assert op.den == 4 * 126 and operator_matrix(op) == reference_operator(g, v, k)
    # one list per instance, invisible to equality, hashing and the payload
    assert vars(k)["_weights"] is filled
    assert k == MetricParam(k.kappa) and hash(k) == key == hash(MetricParam(k.kappa))
    assert cli._kappa_payload(k) == payload
    assert [f.name for f in dataclasses.fields(k)] == ["kappa"]


def test_zero_metric_gives_the_zero_operator(capsys):
    k = diag_metric([0, 0, 0])
    assert k._weights == ((), 1)
    for v in enumerate_reps(G1, 3):
        op = build_operator(G1, v, k)
        assert (op.den, op.real) == (4, True)
        assert op.re == op.im == ((0,) * v.dim,) * v.dim
    assert cli.main(["spectrum", "--su2", "1", "--kappa", "diag:0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    for entry in out["reps"]:
        d = entry["dim"]
        assert entry["char_poly"] == ["0"] * d + ["1"]
        assert entry["multiplicity_profile"] == {str(d): 1}


def test_multiplicity_at_float_large_spin():
    # spin 6 at diag(1, 2, 3): every cluster centre is a correct float root,
    # and its exact multiplicity is the cluster's count
    g, v = G1, IrrepSpec((12,))
    p = rational_char_poly(char_poly(build_operator(g, v, K123)))
    clusters = numeric_spectrum(g, [v], K123)
    assert sum(dict(cl.per_rep)[v] for cl in clusters) == 13
    for cl in clusters:
        assert multiplicity_at_float(p, cl.center) == dict(cl.per_rep)[v]


def test_multiplicity_at_float_rejects_non_finite():
    p = from_roots([1, 2])
    for x in (float("nan"), float("inf")):
        with pytest.raises(InternalConsistencyError):
            multiplicity_at_float(p, x)


def _fraction_multiplicity_at_float(p, x, tol=1e-6):
    """Reference: the Newton residual |q(x)/q'(x)| of each squarefree layer in
    Fraction arithmetic, compared with the float tol * max(1, |x|)."""
    _, layers = squarefree_decomposition(integer_parts(p)[1])
    hits = []
    for i, part in enumerate(rpoly(*q) for q in layers):
        if degree(part) <= 0:
            continue
        dval = evaluate(derivative(part), Q(x))
        if dval != 0 and abs(evaluate(part, Q(x)) / dval) <= tol * max(1.0, abs(x)):
            hits.append(i + 1)
    if len(hits) != 1:
        return f"cluster center {x!r} matches {len(hits)} squarefree layers at tol {tol}"
    return hits[0]


def _verdict(p, x, tol=1e-6):
    try:
        return multiplicity_at_float(p, x, tol)
    except InternalConsistencyError as exc:
        return str(exc)


HALF_BELOW, HALF_ABOVE = Q(1, 2) - Q(1, 2**60), Q(1, 2) + Q(1, 2**60)
BIG = 2**61 + 3


@pytest.mark.parametrize("roots,x,tol,expected", [
    # the residual of the layer t - r at x = 1 is |1 - r|, against the bound 1/2
    ([Q(1, 2), 10, 10], 1.0, 0.5, 1),
    ([Q(1, 2), Q(1, 2), 10], 1.0, 0.5, 2),
    ([HALF_ABOVE, 10, 10], 1.0, 0.5, 1),
    ([HALF_BELOW, 10, 10], 1.0, 0.5, "cluster center 1.0 matches 0 squarefree layers at tol 0.5"),
    # at 0 the layer t^2 - 1/4 has a zero derivative and is skipped
    ([0, 3, 3], 0.0, 1e-6, 1),
    ([Q(1, 2), Q(-1, 2), Q(1, 2), Q(-1, 2), 7], 0.0, 1e-6,
     "cluster center 0.0 matches 0 squarefree layers at tol 1e-06"),
    ([Q(-3, 2)] * 3 + [1], -1.5, 1e-6, 3),
    ([Q(-3, 2)] * 3 + [1], -1.4999999999, 1e-6, 3),
    ([Q(-3, 2)] * 3 + [1], -1.49, 1e-6, "cluster center -1.49 matches 0 squarefree layers at tol 1e-06"),
    ([BIG, 1, 1], float(BIG), 1e-6, 1),
    ([BIG, BIG, 1], -float(BIG), 1e-6, "cluster center -2.305843009213694e+18 matches 0 squarefree layers at tol 1e-06"),
    ([0, 1, 1], 5e-324, 1e-6, 1),
    ([Q(5e-324), Q(5e-324), 1], 5e-324, 0.0, 2),
    ([Q(5e-324), 1, 1], 1e-323, 0.0, "cluster center 1e-323 matches 0 squarefree layers at tol 0.0"),
    # an infinite bound admits every layer, nan none
    ([1, 2, 2], 1.0, float("inf"), "cluster center 1.0 matches 2 squarefree layers at tol inf"),
    ([1, 2, 2], 1.0, float("nan"), "cluster center 1.0 matches 0 squarefree layers at tol nan"),
])
def test_multiplicity_at_float_matches_the_fraction_residual(roots, x, tol, expected):
    p = scale(from_roots(roots), Q(-7, 3))
    assert _verdict(p, x, tol) == _fraction_multiplicity_at_float(p, x, tol) == expected


def test_cluster_spectrum_matches_numeric_spectrum():
    reps = enumerate_reps(G1, 3)
    ops = [build_operator(G1, v, K_OFF) for v in reps]
    assert cluster_spectrum(ops, K_OFF) == numeric_spectrum(G1, reps, K_OFF)
    with pytest.raises(ValueError):
        cluster_spectrum(ops, K123)
    with pytest.raises(NotPositiveDefinite):
        cluster_spectrum(iter(()), diag_metric([1, -1, 1]))


# -- certify's integer table values against the Fraction reference ----------

# (SU(2) copies, torus rank, rep cap): torus characters of dimension 1
# (b = 1), the quaternionic spin 1/2 of dimension 2 (c = 4), and real and
# complex products of both.
CERTIFY_SHAPES = [(0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 0, 3), (1, 1, 1), (2, 0, 1)]
DENOMINATORS = (1, 2, 3, 5, 6, 7, 9, 11)


@st.composite
def shapes_and_metrics(draw):
    """A small group and rep cap with a symmetric metric whose entries have
    denominators up to 11; half of the metrics are diagonal."""
    su2, torus, cap = draw(st.sampled_from(CERTIFY_SHAPES))
    n = 3 * su2 + torus
    entry = st.builds(Q, st.integers(-9, 9), st.sampled_from(DENOMINATORS))
    mixed = draw(st.booleans())
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.builds(Q, st.integers(1, 40), st.sampled_from(DENOMINATORS)))
        for j in range(i + 1, n):
            if mixed:
                rows[i][j] = rows[j][i] = draw(entry)
    return GroupSpec(su2, torus), cap, MetricParam(tuple(tuple(r) for r in rows))


def _reference_table(g, cap, k):
    """Every required row (kind, V, W, value) in certificate order, from abc_values."""
    reps = enumerate_reps(g, cap)
    rows = []
    for v in reps:
        abc = abc_values(g, (v, v), k)
        rows.append(("c", v, None, abc.c1) if v.rep_type() == "quaternionic" else ("b", v, None, abc.b1))
    for i, v in enumerate(reps):
        for w in reps[i + 1:]:
            if w != v.dual():
                rows.append(("a", v, w, abc_values(g, (v, w), k).a))
    return tuple(rows)


@pytest.mark.parametrize("su2,torus,dual_pairs", [(0, 2, 4), (1, 1, 2)])
def test_certify_skips_exactly_the_dual_pairs(monkeypatch, su2, torus, dual_pairs):
    # T^2 cap 1: 9 characters, 4 pairs z, -z; SU(2) x T cap 1: 6 reps, 2 pairs
    g = GroupSpec(su2, torus)
    k = _non_dyadic(g.algebra_dim)
    reps = enumerate_reps(g, 1)
    r = len(reps)
    assert sum(w == v.dual() for v, w in itertools.combinations(reps, 2)) == dual_pairs
    monkeypatch.setattr(oplab, "witness_sequence", lambda n, budget, seed: [k])
    cert = certify(g, 1, budget=1)
    assert cert.certified and cert.witness_kappa == k
    assert len(cert.table) == r + r * (r - 1) // 2 - dual_pairs
    pairs = [(v, w) for kind, v, w, _ in cert.table if kind == "a"]
    assert pairs == [(v, w) for v, w in itertools.combinations(reps, 2) if w != v.dual()]
    assert cert.table == _reference_table(g, 1, k)


@settings(max_examples=40, deadline=None)
@given(shapes_and_metrics())
def test_certify_values_match_the_fraction_reference(case):
    g, cap, k = case
    expected = _reference_table(g, cap, k)
    for kind, v, _, value in expected:
        if kind == "b" and v.dim == 1:
            assert value == 1
        if kind == "c" and v.dim == 2:
            assert value == 4
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oplab, "witness_sequence", lambda n, budget, seed: [k])
        cert = certify(g, cap, budget=1)
        # the single candidate is exhaustive: a full table, or every zero value
        if cert.certified:
            assert cert.table == expected
        else:
            assert cert.violations == tuple(row for row in expected if row[3] == 0) != ()
        # the same operator over another denominator is refused, not mixed in
        last = enumerate_reps(g, cap)[-1]
        patched = doubled_den(oplab.char_poly, last)
        op = build_operator(g, last, k)
        assert rational_char_poly(patched(op)) == rational_char_poly(char_poly(op))
        m.setattr(oplab, "char_poly", patched)
        with pytest.raises(InternalConsistencyError, match="denominator"):
            certify(g, cap, budget=1)
