"""Assembled spectral reports, real forms, estimates, and the form-degree table."""

from fractions import Fraction as Q

import pytest

from casimir_lab.errors import InternalConsistencyError, NonDominantWeight
from casimir_lab.reps import KMode, RepType, VirtualDecomposition, trivial_decomposition
from casimir_lab.rootsys import RootSystemType, build_root_system
from casimir_lab.spectra import (
    HARMONIC_NOTE,
    IRREDUCIBLE_FLAG_COMPLEX,
    IRREDUCIBLE_FLAG_REAL,
    UNCOMPUTED,
    generic_estimate,
    hodge_rank1_check,
    normal_spectrum_report,
    real_spectrum_report,
)
from casimir_lab.weights import LatticeChoice, make_weight

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
WEIGHT = LatticeChoice.WEIGHT


def test_a1_trivial_mode_small_cap():
    rep_out = normal_spectrum_report(A1, WEIGHT, KMode.TRIVIAL, trivial_decomposition(A1), Q(9, 2))
    # classes at a^2 = 1/2, 9/2 <-> m = 0, 2 ... wait for m: (m+1)^2/2 <= 9/2
    assert [c.a_sq for c in rep_out.classes] == [Q(1, 2), Q(2), Q(9, 2)]
    for c, m in zip(rep_out.classes, (0, 1, 2)):
        assert len(c.members) == 1
        mem = c.members[0]
        assert mem.mu == (m,)
        assert mem.dim == m + 1
        assert mem.isotypic_dim == m + 1  # dim V x (dim U* = 1 trivial term)
        assert c.eigenspace_dim == (m + 1) ** 2
        assert c.flag == IRREDUCIBLE_FLAG_COMPLEX
        assert mem.hidden_orbit_id == 0
    assert rep_out.total_dim == 1 + 4 + 9
    assert rep_out.context["k_mode"] == "trivial"


def test_empty_ustar_empty_report():
    empty = VirtualDecomposition.from_dict({})
    rep_out = normal_spectrum_report(A1, WEIGHT, KMode.TRIVIAL, empty, Q(20))
    assert rep_out.classes == ()
    assert rep_out.total_dim == 0


def test_a2_big_class_diagonal_mode():
    # the class of a^2 = 182/3 carries two dual pairs and two stabilizer orbits
    rep_out = normal_spectrum_report(
        A2, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A2), Q(182, 3)
    )
    last = rep_out.classes[-1]
    assert last.a_sq == Q(182, 3)
    assert [m.mu for m in last.members] == [(0, 8), (4, 5), (5, 4), (8, 0)]
    for m in last.members:
        assert m.isotypic_dim == 1  # Hom_G'(V, V) = C for each diagonal block
        assert m.rep_type is RepType.COMPLEX  # none of the four is self-dual
        assert m.dual_mu == m.mu[::-1]
    assert last.eigenspace_dim == 45 + 165 + 165 + 45
    assert last.orbit_count == 2
    assert last.flag == "hidden-orbit certificate: 2 orbit(s), not transitive"
    # the two members of a dual pair share one orbit; the two pairs do not mix
    by_mu = {m.mu: m.hidden_orbit_id for m in last.members}
    assert by_mu[(0, 8)] == by_mu[(8, 0)]
    assert by_mu[(4, 5)] == by_mu[(5, 4)]
    assert by_mu[(0, 8)] != by_mu[(4, 5)]
    assert rep_out.labels["bold_g"] == "Q8xG"


def test_diagonal_dim_identity_against_big_sum():
    # diagonal-mode trivial-U* report: every class contributes sum of dim V^mu
    rep_out = normal_spectrum_report(
        A2, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A2), Q(182, 3)
    )
    for c in rep_out.classes:
        assert c.eigenspace_dim == sum(m.dim for m in c.members)
    assert rep_out.total_dim == sum(c.eigenspace_dim for c in rep_out.classes)


def test_real_fold_of_dual_pairs():
    rep_out = real_spectrum_report(
        A2, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A2), Q(182, 3)
    )
    last = rep_out.classes[-1]
    assert [(m.mu, m.partner_mu) for m in last.members] == [((0, 8), (8, 0)), ((4, 5), (5, 4))]
    for m, d in zip(last.members, (45, 165)):
        assert m.rep_type is RepType.COMPLEX
        assert m.isotypic_dim == 1
        assert m.real_mult == 1
        assert m.real_dim == 2 * d
    assert last.eigenspace_dim == 2 * 45 + 2 * 165
    assert last.flag == "hidden-orbit certificate: 2 orbit(s), not transitive"


def test_real_fold_self_dual_real():
    # diagonal blocks of self-dual mu are real: fold keeps mult and dim
    rep_out = real_spectrum_report(
        A1, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A1), Q(9, 2)
    )
    for c, m in zip(rep_out.classes, (0, 1, 2)):
        mem = c.members[0]
        assert mem.rep_type is RepType.REAL
        assert (mem.real_mult, mem.real_dim) == (1, m + 1)
        assert c.flag == IRREDUCIBLE_FLAG_REAL
    assert rep_out.labels["bold_g"] == "G"


def test_real_fold_totals_match_complex():
    u = VirtualDecomposition.from_dict({(1, 1): 1, (2, 0): 2})
    for kmode in (KMode.TRIVIAL, KMode.DIAGONAL):
        cx = normal_spectrum_report(A2, WEIGHT, kmode, u, Q(20))
        re = real_spectrum_report(A2, WEIGHT, kmode, u, Q(20))
        assert re.total_dim == cx.total_dim
        for ce, rce in zip(cx.classes, re.classes):
            assert rce.eigenspace_dim == ce.eigenspace_dim


def test_torus_mode_weight_filter():
    # U* the zero character: only even spins survive (odd ones lack weight 0)
    rep_out = normal_spectrum_report(A1, WEIGHT, KMode.TORUS, {(0,): 1}, Q(25, 2))
    assert [c.members[0].mu for c in rep_out.classes] == [(0,), (2,), (4,)]
    for c in rep_out.classes:
        assert c.members[0].isotypic_dim == 1


def test_torus_mode_real_fold_quaternionic():
    # U* = (1) + (-1) meets spin 1/2 twice; quaternionic iso 2 folds to 1 x 4
    u = {(1,): 1, (-1,): 1}
    cx = normal_spectrum_report(A1, WEIGHT, KMode.TORUS, u, Q(2))
    spin_half = cx.classes[0].members[0]
    assert spin_half.mu == (1,) and spin_half.rep_type is RepType.QUATERNIONIC
    assert spin_half.isotypic_dim == 2
    re = real_spectrum_report(A1, WEIGHT, KMode.TORUS, u, Q(2))
    folded = re.classes[0].members[0]
    assert (folded.real_mult, folded.real_dim) == (1, 4)
    assert re.classes[0].eigenspace_dim == 4 == cx.classes[0].eigenspace_dim


def test_torus_mode_non_real_ustar_rejected():
    # U* = (1) alone is not self-dual: spin 1/2 gets isotypic dim 1, which no
    # real structure can carry; the fold must refuse
    with pytest.raises(InternalConsistencyError):
        real_spectrum_report(A1, WEIGHT, KMode.TORUS, {(1,): 1}, Q(2))


def test_hidden_orbit_uncomputed_under_tiny_cap():
    rep_out = normal_spectrum_report(
        A2, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A2), Q(182, 3), point_cap=7
    )
    last = rep_out.classes[-1]
    assert last.orbit_count is None
    assert all(m.hidden_orbit_id == UNCOMPUTED for m in last.members)
    assert last.flag == f"hidden-orbit certificate: {UNCOMPUTED}"
    # the zero class (a hexagon, six points) still fits under the cap
    first = rep_out.classes[0]
    assert first.orbit_count == 1
    assert first.members[0].hidden_orbit_id == 0


def test_rank1_singleton_law():
    # every rank-1 class has exactly one dominant member up to a^2 = 200
    for u in (trivial_decomposition(A1), VirtualDecomposition.from_dict({(2,): 1, (0,): 3})):
        rep_out = normal_spectrum_report(A1, WEIGHT, KMode.TRIVIAL, u, Q(200))
        assert rep_out.classes
        for c in rep_out.classes:
            assert len(c.members) == 1
            assert c.flag == IRREDUCIBLE_FLAG_COMPLEX


def test_member_filter_consistency():
    # members with zero isotypic dimension are dropped; survivors keep the
    # original class eigenvalue and assemble the stated dimension
    u = VirtualDecomposition.from_dict({(1, 0): 1})
    rep_out = normal_spectrum_report(A2, WEIGHT, KMode.DIAGONAL, u, Q(20))
    for c in rep_out.classes:
        assert c.lam == c.a_sq - Q(2)  # |delta|^2 = 2 for A2 at scale 1
        assert c.eigenspace_dim == sum(m.isotypic_dim * m.dim for m in c.members)
        for m in c.members:
            assert m.isotypic_dim >= 1
            # diagonal mode with U* = adjoint-free fundamental: multiplicity of
            # the dual fundamental inside V (x) V*, never more than 1 here
            assert m.isotypic_dim <= 1


def test_estimate_a1_adjoint():
    bound = generic_estimate(A1, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A1), make_weight(A1, (2,)))
    assert bound.a_sq == Q(9, 2)
    assert bound.lam == Q(4)
    assert len(bound.terms) == 1
    assert bound.terms[0].mult == 1 and bound.terms[0].dim == 3
    assert bound.total_dim == 3


def test_estimate_a2_multi_member():
    bound = generic_estimate(A2, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A2), make_weight(A2, (8, 0)))
    assert bound.a_sq == Q(182, 3)
    assert {(t.mu, t.mult, t.dim) for t in bound.terms} == {
        ((8, 0), 1, 45),
        ((0, 8), 1, 45),
        ((5, 4), 1, 165),
        ((4, 5), 1, 165),
    }
    assert bound.total_dim == 420


def test_estimate_zero_weight():
    bound = generic_estimate(A1, WEIGHT, KMode.DIAGONAL, trivial_decomposition(A1), make_weight(A1, (0,)))
    assert bound.lam == 0
    assert bound.total_dim == 1


def test_estimate_rejects_nondominant():
    with pytest.raises(NonDominantWeight):
        generic_estimate(A1, WEIGHT, KMode.TRIVIAL, trivial_decomposition(A1), make_weight(A1, (-2,)))


def test_estimate_dominates_trivial_mode_report():
    # in trivial mode the report's class dimension is exactly the estimate
    u = VirtualDecomposition.from_dict({(1, 1): 1})
    rep_out = normal_spectrum_report(A2, WEIGHT, KMode.TRIVIAL, u, Q(20))
    for c in rep_out.classes:
        anchor = make_weight(A2, c.members[0].mu)
        bound = generic_estimate(A2, WEIGHT, KMode.TRIVIAL, u, anchor)
        assert bound.total_dim == c.eigenspace_dim
        assert bound.lam == c.lam


def test_hodge_table_rows():
    table = hodge_rank1_check(50)
    assert len(table.rows) == 10  # (m+1)^2/2 <= 50 for m = 0..9
    for row, m in zip(table.rows, range(10)):
        assert row.mu == (m,)
        assert row.a_sq == Q((m + 1) ** 2, 2)
        assert row.lam == Q(m * (m + 2), 2)
        if m == 0:
            assert row.invariant_dims == (1, 0, 0, 1)
            assert not row.member_all_p
        else:
            assert all(d > 0 for d in row.invariant_dims)
            assert row.member_all_p


def test_hodge_discrepancies_only_harmonic():
    table = hodge_rank1_check(50)
    assert [(d.mu, d.p) for d in table.discrepancies] == [((0,), 1), ((0,), 2)]
    for d in table.discrepancies:
        assert d.lam == 0
        assert d.annotation == HARMONIC_NOTE
