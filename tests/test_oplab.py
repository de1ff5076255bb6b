"""Exact metric-dependent operators on product-group irreducibles."""

from fractions import Fraction as Q

import pytest

from casimir_lab import oplab
from casimir_lab.errors import (
    DimensionMismatch,
    InternalConsistencyError,
    NotPositiveDefinite,
)
from casimir_lab.gaussian import QQi, gadd, gconj_transpose, gidentity, gkron, gmatmul, gscale, gtrace, gzeros
from casimir_lab.oplab import (
    GroupSpec,
    IrrepSpec,
    MetricParam,
    _su2_generators,
    abc_values,
    build_operator,
    casimir_cross_check,
    certify,
    char_poly,
    cluster_spectrum,
    diag_metric,
    enumerate_reps,
    irrep_matrices,
    is_w_hermitian,
    multiplicity_at_float,
    numeric_spectrum,
    witness_sequence,
)
from casimir_lab.polyq import (
    RationalPoly,
    is_perfect_square,
    poly_from_real_coeff_check,
    root_multiplicity_profile,
)

G1 = GroupSpec(1)
K123 = diag_metric([1, 2, 3])
K_OFF = MetricParam(
    ((Q(1), Q(0), Q(0)), (Q(0), Q(2), Q(1, 5)), (Q(0), Q(1, 5), Q(3)))
)


def test_generator_brackets():
    # [Y1, Y2] = Y3 and cyclic, on every symmetric power up to spin 3/2
    for m in (1, 2, 3):
        y = _su2_generators(m)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = gadd(gmatmul(y[i], y[j]), gscale(QQi(-1), gmatmul(y[j], y[i])))
            assert comm == y[k]


def test_generator_normalization():
    # -2 tr(Yi Yj) = delta_ij on the defining rep
    y = _su2_generators(1)
    for i in range(3):
        for j in range(3):
            tr = gtrace(gmatmul(y[i], y[j]))
            assert gscale(QQi(-2), ((tr,),))[0][0] == (QQi(1) if i == j else QQi(0))


def test_frozen_char_polys():
    p1 = char_poly(build_operator(G1, IrrepSpec((1,)), K123))
    assert p1 == RationalPoly.of(Q(9, 4), -3, 1)  # (t - 3/2)^2
    assert root_multiplicity_profile(p1) == {2: 1}

    p2 = char_poly(build_operator(G1, IrrepSpec((2,)), K123))
    assert p2 == RationalPoly.of(-60, 47, -12, 1)  # (t-3)(t-4)(t-5)
    assert root_multiplicity_profile(p2) == {1: 3}

    torus = GroupSpec(0, 1)
    pt = char_poly(build_operator(torus, IrrepSpec((), (3,)), diag_metric([5])))
    assert pt == RationalPoly.of(-45, 1)  # 5 * 3^2


def test_w_hermitian_vs_literal():
    # spin 1/2: the monomial basis is already orthonormal, so literal symmetry
    op1 = build_operator(G1, IrrepSpec((1,)), K_OFF)
    assert op1.matrix == gconj_transpose(op1.matrix)
    assert is_w_hermitian(op1)
    # spin 1 with a mixed term: only W-self-adjoint, not literally Hermitian
    op2 = build_operator(G1, IrrepSpec((2,)), K_OFF)
    assert op2.matrix != gconj_transpose(op2.matrix)
    assert is_w_hermitian(op2)


def test_every_operator_w_hermitian():
    for k in witness_sequence(3, 6, seed=7):
        for m in range(4):
            assert is_w_hermitian(build_operator(G1, IrrepSpec((m,)), k))


def test_metric_scaling_covariance():
    # kappa -> s*kappa rescales the spectrum by s: coefficients pick up s^(d-k)
    for s in (2, 3):
        for m in (1, 2, 3):
            p = char_poly(build_operator(G1, IrrepSpec((m,)), K_OFF))
            scaled_kappa = MetricParam(
                tuple(tuple(s * x for x in row) for row in K_OFF.kappa)
            )
            ps = char_poly(build_operator(G1, IrrepSpec((m,)), scaled_kappa))
            d = p.degree
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
            assert is_perfect_square(char_poly(build_operator(G1, IrrepSpec((m,)), k)))
    # even m at a generic metric has simple spectrum instead
    assert not is_perfect_square(char_poly(build_operator(G1, IrrepSpec((2,)), K123)))


def test_abc_values_frozen():
    abc = abc_values(G1, (IrrepSpec((1,)), IrrepSpec((2,))), K123)
    assert abc.a == Q(11025, 64)
    assert abc.b1 is None and abc.c1 == 4  # quaternionic slot
    assert abc.c2 is None and abc.b2 == -4  # simple-spectrum slot


def test_multiplicity_at_float():
    p = RationalPoly.from_roots([1, 1, 2])
    assert multiplicity_at_float(p, 1.0000000003) == 2
    assert multiplicity_at_float(p, 2.0) == 1
    with pytest.raises(InternalConsistencyError):
        multiplicity_at_float(p, 1.5)  # near no root at all


def test_witness_sequence_properties():
    seq = witness_sequence(3, 8, seed=2026)
    again = witness_sequence(3, 8, seed=2026)
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


def test_enumerate_reps_counts_and_order():
    r1 = enumerate_reps(GroupSpec(1), 4)
    assert [v.spins for v in r1] == [(0,), (1,), (2,), (3,), (4,)]
    assert len(enumerate_reps(GroupSpec(0, 2), 3)) == 49
    r11 = enumerate_reps(GroupSpec(1, 1), 2)
    assert len(r11) == 15
    assert r11 == sorted(r11, key=lambda v: (v.spins, v.torus_char))


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
        assert cl.multiplicity_map() == {IrrepSpec((m,)): m + 1}
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


def _reference_operator(g, rep, k):
    """D = -sum_ij kappa_ij M_i M_j, term by term in Q(i)."""
    mats = irrep_matrices(g, rep)
    acc = gzeros(rep.dim)
    for i in range(k.n):
        for j in range(k.n):
            if k.kappa[i][j] != 0:
                acc = gadd(acc, gscale(QQi(-k.kappa[i][j]), gmatmul(mats[i], mats[j])))
    return acc


def _reference_char_poly(a):
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
    return poly_from_real_coeff_check(coeffs)


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
    metrics = witness_sequence(g.algebra_dim, 12, seed=2026) + [_non_dyadic(g.algebra_dim)]
    for k in metrics:
        for v in enumerate_reps(g, cap):
            op = build_operator(g, v, k)
            ref = _reference_operator(g, v, k)
            assert op.matrix == ref
            assert char_poly(op) == _reference_char_poly(ref)


def test_irrep_matrices_kron_layout():
    # generator of copy c is I (x) Y (x) I in row-major order, torus acts by i*z
    g = GroupSpec(2, 1)
    v = IrrepSpec((2, 1), (-3,))
    mats = irrep_matrices(g, v)
    y2, y1 = _su2_generators(2), _su2_generators(1)
    expect = [gkron(y, gidentity(2)) for y in y2] + [gkron(gidentity(3), y) for y in y1]
    expect.append(gscale(QQi(0, -3), gidentity(6)))
    assert mats == expect


def test_trace_recursion_catches_a_wrong_product(monkeypatch):
    good = oplab._zmatmul

    def off_by_one(*args):
        re, im = good(*args)
        re[0][0] += 1
        return re, im

    op = build_operator(G1, IrrepSpec((3,)), K_OFF)
    monkeypatch.setattr(oplab, "_zmatmul", off_by_one)
    with pytest.raises(InternalConsistencyError, match="not divisible"):
        char_poly(op)


def test_operator_shares_pieces_only_within_one_rep():
    pieces = oplab._QuadPieces(G1, IrrepSpec((2,)))
    shared = build_operator(G1, IrrepSpec((2,)), K_OFF, pieces=pieces)
    assert shared == build_operator(G1, IrrepSpec((2,)), K_OFF)
    with pytest.raises(ValueError):
        build_operator(G1, IrrepSpec((3,)), K_OFF, pieces=pieces)


def test_multiplicity_at_float_large_spin():
    # spin 6 at diag(1, 2, 3): every cluster centre is a correct float root,
    # and its exact multiplicity is the cluster's count
    g, v = G1, IrrepSpec((12,))
    p = char_poly(build_operator(g, v, K123))
    clusters = numeric_spectrum(g, [v], K123)
    assert sum(cl.multiplicity_map()[v] for cl in clusters) == 13
    for cl in clusters:
        assert multiplicity_at_float(p, cl.center) == cl.multiplicity_map()[v]


def test_multiplicity_at_float_rejects_non_finite():
    p = RationalPoly.from_roots([1, 2])
    for x in (float("nan"), float("inf")):
        with pytest.raises(InternalConsistencyError):
            multiplicity_at_float(p, x)


def test_cluster_spectrum_matches_numeric_spectrum():
    reps = enumerate_reps(G1, 3)
    ops = [build_operator(G1, v, K_OFF) for v in reps]
    assert cluster_spectrum(ops, K_OFF) == numeric_spectrum(G1, reps, K_OFF)
    with pytest.raises(ValueError):
        cluster_spectrum(ops, K123)
    with pytest.raises(NotPositiveDefinite):
        cluster_spectrum(iter(()), diag_metric([1, -1, 1]))
