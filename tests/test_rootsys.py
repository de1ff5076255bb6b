"""Cartan-built root systems, Weyl groups and the invariant form, checked
against the textbook ambient realization in ambient.py."""

import itertools
import math
from fractions import Fraction as Q

import pytest

from ambient import matmul, matvec, reference, textbook, transpose, vadd, weyl_order
from casimir_lab import ratlinalg as rl
from casimir_lab import rootsys
from casimir_lab.errors import CapExceeded, InternalConsistencyError, InvalidDynkinType
from casimir_lab.rootsys import (
    DEFAULT_WEYL_CAP,
    RootSystemType,
    build_root_system,
    dominant_fw_coords,
    reflect_fw_coords,
    weyl_group,
    weyl_orbit,
)

SUPPORTED = (
    [("A", n) for n in range(1, 5)]
    + [(fam, n) for fam in "BC" for n in range(2, 5)]
    + [("D", n) for n in range(3, 6)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# Every supported type up to rank 8.
UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)]
    + [(fam, n) for fam in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def rs_of(fam, rank, scale=1):
    return build_root_system(RootSystemType(fam, rank), metric_scale=Q(scale))


def test_positive_root_counts():
    expected = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4, ("B", 3): 9,
                ("C", 3): 9, ("D", 4): 12, ("G", 2): 6, ("F", 4): 24}
    for (fam, rank), count in expected.items():
        assert len(rs_of(fam, rank).positive_roots_fw) == count


def test_e_series_is_bourbaki():
    for rank, count, det in ((6, 36, 3), (7, 63, 2), (8, 120, 1)):
        rs = rs_of("E", rank)
        assert len(rs.positive_roots_fw) == count
        assert rl.det(rl.mat(rs.cartan_matrix)) == det
    # Dynkin diagram 1-3-4-5-6-7-8 with 2 attached to 4 (0-based below).
    e8 = rs_of("E", 8).cartan_matrix
    edges = {(i, j) for i in range(8) for j in range(i + 1, 8) if e8[i][j]}
    assert edges == {(0, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    assert all(e8[i][j] == e8[j][i] == -1 for i, j in edges)


def test_cartan_matrices():
    assert rs_of("A", 2).cartan_matrix == ((2, -1), (-1, 2))
    b2 = rs_of("B", 2).cartan_matrix
    assert b2 in (((2, -2), (-1, 2)), ((2, -1), (-2, 2)))
    g2 = rs_of("G", 2).cartan_matrix
    assert sorted(x for row in g2 for x in row) == [-3, -1, 2, 2]


def _root_norms(rs):
    den, _ = rs.gram_fw_int
    return {Q(rs.form_fw_int(a, a), den) for a in rs.positive_roots_fw}


def test_long_roots_have_norm_two_and_scale_acts():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2), ("D", 4)):
        ref = textbook(fam, rank)
        assert max(ref.inner(a, a) for a in ref.positive_roots) == 2
        assert max(_root_norms(rs_of(fam, rank))) == 2
        assert max(_root_norms(rs_of(fam, rank, scale=3))) == 6


def test_delta_is_sum_of_fundamental_weights():
    for fam, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3)):
        ref = textbook(fam, rank)
        total = ref.fundamental_weights[0]
        for w in ref.fundamental_weights[1:]:
            total = vadd(total, w)
        assert total == ref.delta
        # and <delta, alpha_i^vee> = 1 for every simple root
        assert all(ref.pairing(ref.delta, a) == 1 for a in ref.simple_roots)
        # the Cartan build: the positive roots sum to 2 delta = (2, ..., 2)
        rs = rs_of(fam, rank)
        assert ref.fw_coords(ref.delta) == (1,) * rank
        assert tuple(map(sum, zip(*rs.positive_roots_fw))) == (2,) * rank


def test_fundamental_weights_dual_to_simple_coroots():
    ref = textbook("G", 2)
    for i, w in enumerate(ref.fundamental_weights):
        for j, a in enumerate(ref.simple_roots):
            assert ref.pairing(w, a) == (1 if i == j else 0)
    # the Cartan build: 2 (omega_i, alpha_j) / (alpha_j, alpha_j), alpha_j row j of C
    rs = rs_of("G", 2)
    for i, w in enumerate(((1, 0), (0, 1))):
        for j, a in enumerate(rs.cartan_matrix):
            assert Q(2 * rs.form_fw_int(w, a), rs.form_fw_int(a, a)) == (1 if i == j else 0)


def test_weyl_group_orders():
    for fam, rank, order in (("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12), ("A", 3, 24), ("B", 3, 48)):
        rs = rs_of(fam, rank)
        elems = weyl_group(rs)
        assert len(elems) == order == rs.weyl_order
        mats = {e.matrix for e in elems}
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        assert ident in mats
        # closure under inverse
        for e in elems:
            assert any(matmul(e.matrix, m) == ident for m in mats)
        # the same words as the textbook group, and conjugate matrices:
        # M_ambient omega_k = sum_j M[j][k] omega_j
        ref = reference(rs)
        assert [e.word for e in elems] == [word for word, _ in ref.weyl_group()]
        for e, (_, m) in zip(elems, ref.weyl_group()):
            # reflections are orthogonal in ambient coordinates
            assert matmul(m, transpose(m)) == rl.identity(ref.dim)
            for k, col in enumerate(zip(*e.matrix)):
                assert matvec(m, ref.fundamental_weights[k]) == ref.point(col)


def test_weyl_elements_preserve_the_form():
    rs = rs_of("B", 2)
    v, w = (1, 0), (1, 1)
    for e in weyl_group(rs):
        assert rs.form_fw_int(matvec(e.matrix, v), matvec(e.matrix, w)) == rs.form_fw_int(v, w)


def test_weyl_cap_refusal():
    rs = rs_of("B", 3)
    with pytest.raises(CapExceeded):
        weyl_group(rs, cap=10)


def test_to_dominant_lands_in_chamber():
    rs = rs_of("G", 2)
    ref = reference(rs)
    dom, word = dominant_fw_coords(rs, (1, -3))
    assert all(ref.pairing(ref.point(dom), a) >= 0 for a in ref.simple_roots)
    assert matvec(ref.word_matrix(word), ref.point((1, -3))) == ref.point(dom)


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_dominant_walk_box_scan(fam, rank):
    rs = rs_of(fam, rank)
    ref = reference(rs)
    for m in itertools.product(range(-3, 4), repeat=rank):
        dom, word = dominant_fw_coords(rs, m)
        (expected,) = [w for w in weyl_orbit(rs, m) if all(c >= 0 for c in w)]
        assert dom == expected
        w = ref.word_matrix(word)
        assert matvec(w, ref.point(m)) == ref.point(dom)
        assert rl.det(w) == (-1) ** len(word)


def test_highest_root_is_long_and_dominant():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2)):
        ref = textbook(fam, rank)
        theta = ref.highest_root
        assert ref.inner(theta, theta) == 2
        assert all(ref.pairing(theta, a) >= 0 for a in ref.simple_roots)
        assert theta in ref.positive_roots
        assert rs_of(fam, rank).positive_roots_fw[-1] == ref.fw_coords(theta)


@pytest.mark.parametrize("scale", [1, Q(3, 2)], ids=["1", "3/2"])
@pytest.mark.parametrize("fam,rank", SUPPORTED, ids=[f"{f}{n}" for f, n in SUPPORTED])
def test_cartan_build_matches_the_textbook_reference(fam, rank, scale):
    rs, ref = rs_of(fam, rank, scale), textbook(fam, rank)
    assert rs.cartan_matrix == ref.cartan_matrix
    assert rs.gram_fw == tuple(tuple(scale * x for x in row) for row in ref.gram_fw)
    assert set(rs.positive_roots_fw) == {ref.fw_coords(b) for b in ref.positive_roots}
    assert rs.positive_roots_fw[-1] == ref.fw_coords(ref.highest_root)
    # Every Weyl matrix M preserves the form: M^T G M = G, on den * G =
    # gram_fw_int entrywise.  Past the default cap (E6-E8) the simple
    # reflections, which generate W, are checked.
    g = rs.gram_fw_int[1]
    if rs.weyl_order <= DEFAULT_WEYL_CAP:
        mats = [e.matrix for e in weyl_group(rs)]
    else:
        with pytest.raises(CapExceeded):
            weyl_group(rs)
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        mats = [transpose([reflect_fw_coords(rs, e, i) for e in basis]) for i in range(rank)]
    for m in mats:
        cols = list(zip(*m))
        assert [[rs.form_fw_int(x, y) for y in cols] for x in cols] == [list(row) for row in g]


def test_invalid_types_rejected():
    # an unsupported type is bad input even past the rank cap
    for fam, rank in (("Z", 2), ("A", 0), ("G", 3), ("E", 5), ("F", 5), ("D", 2), ("E", 40)):
        with pytest.raises(InvalidDynkinType):
            RootSystemType(fam, rank)


def test_root_systems_are_interned_by_value():
    a2 = build_root_system(RootSystemType("A", 2), metric_scale="3/2")
    assert build_root_system(RootSystemType("A", 2), metric_scale=Q(3, 2)) is a2
    assert build_root_system(RootSystemType("A", 2), metric_scale=1) is not a2
    assert rs_of("A", 2) is rs_of("A", 2, 1)
    with pytest.raises(ValueError):
        rs_of("A", 2, -1)


def test_integer_forms_match_the_rational_ones():
    for fam, rank in (("A", 3), ("B", 2), ("C", 3), ("G", 2)):
        rs = rs_of(fam, rank, Q(3, 2))
        ref = reference(rs)
        den, g = rs.gram_fw_int
        assert tuple(tuple(Q(x, den) for x in row) for row in g) == rs.gram_fw
        x, y = tuple(range(1, rank + 1)), tuple(range(rank, -rank, -2))
        assert rs.form_fw_int(x, y) == den * rs.metric_scale * ref.inner(ref.point(x), ref.point(y))


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_coroot_pairings_match_the_form(fam, rank):
    """Row k of the table is <omega_i, alpha_k^vee> = 2 (omega_i, alpha_k) / (alpha_k, alpha_k)
    on the rational form, at any metric scale; the simple coroots pair to the identity."""
    for scale in (1, Q(3, 2)):
        rs = rs_of(fam, rank, scale)
        g = rs.gram_fw
        expected = []
        for a in rs.positive_roots_fw:
            ga = [sum(gij * aj for gij, aj in zip(row, a)) for row in g]
            aa = sum(ai * x for ai, x in zip(a, ga))
            expected.append(tuple(2 * x / aa for x in ga))
        assert rs.coroot_pairings == tuple(expected)
        assert all(type(x) is int for row in rs.coroot_pairings for x in row)
        table = dict(zip(rs.positive_roots_fw, rs.coroot_pairings))
        for i, alpha in enumerate(rs.cartan_matrix):
            assert table[alpha] == tuple(int(i == j) for j in range(rank))
        assert rs.weyl_denominator == math.prod(map(sum, expected))
        assert rs.two_rho_vee == tuple(sum(col) for col in zip(*expected))


def _textbook_minus_w0(fam, rank):
    """-w0 on Bourbaki's nodes: the diagram flip of A_n, D_n (n odd) and E_6."""
    perm = list(range(rank))
    if fam == "A":
        perm.reverse()
    elif fam == "D" and rank % 2:
        perm[-2:] = [rank - 1, rank - 2]
    elif fam == "E" and rank == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return tuple(perm)


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_minus_w0_is_the_textbook_diagram_flip(fam, rank):
    rs = rs_of(fam, rank)
    assert rs.minus_w0 == _textbook_minus_w0(fam, rank)
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for i, w in enumerate(basis):
        assert dominant_fw_coords(rs, tuple(-x for x in w))[0] == basis[rs.minus_w0[i]]


def test_root_system_invariants_refuse_a_broken_identity(monkeypatch):
    """A non-integral coroot pairing, and a -w0 that is not an involutive
    permutation of the fundamental weights, are internal inconsistencies."""

    def fresh(rs):
        return rootsys.RootSystem(rs.typ, rs.cartan_matrix, rs.metric_scale)

    b2 = fresh(rs_of("B", 2))
    b2.__dict__["positive_roots_fw"] = ((1, 1),)  # not a root of B2
    with pytest.raises(InternalConsistencyError, match="non-integral coroot pairing"):
        b2.coroot_pairings
    a2 = rs_of("A", 2)
    for walk_to, message in (((1, 1), "is not a fundamental weight"), ((0, 1), "is not an involutive permutation")):
        monkeypatch.setattr(rootsys, "dominant_fw_coords", lambda rs, m: (walk_to, ()))
        with pytest.raises(InternalConsistencyError, match=message):
            fresh(a2).minus_w0


def _corrupted_form(rs):
    """A fresh copy of rs whose integer form has 1 added to its first
    diagonal entry: still symmetric, no longer invariant under the
    reflection of a node next to node 0."""
    bad = rootsys.RootSystem(rs.typ, rs.cartan_matrix, rs.metric_scale)
    den, g = rs.gram_fw_int
    bad.__dict__["gram_fw_int"] = (den, ((g[0][0] + 1, *g[0][1:]), *g[1:]))
    return bad


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_simple_reflections_preserve_the_form(fam, rank):
    """The identity S_i (den G) S_i^T = den G holds on every type, at two
    metric scales, and agrees with the form of the reflected coordinate
    vectors pair by pair; with a corrupted form it is refused, except on
    A1, whose one reflection is -1."""
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for scale in (1, Q(3, 2)):
        rs = rs_of(fam, rank, scale)
        assert rs.reflections_preserve_form is True
        for i, x, y in itertools.product(range(rank), basis, basis):
            assert rs.form_fw_int(reflect_fw_coords(rs, x, i), reflect_fw_coords(rs, y, i)) == rs.form_fw_int(x, y)
        bad = _corrupted_form(rs)
        if rank == 1:
            assert bad.reflections_preserve_form is True
        else:
            with pytest.raises(InternalConsistencyError, match=r"simple reflection s_\d+ does not preserve the form"):
                bad.reflections_preserve_form


UP_TO_RANK_4 = [(fam, rank) for fam, rank in UP_TO_RANK_8 if rank <= 4]


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_4, ids=[f"{f}{n}" for f, n in UP_TO_RANK_4])
def test_parabolic_orders_are_the_stabilizers_of_chamber_points(fam, rank):
    """For every set J of nodes, |W_J| is the number of elements of the
    textbook Weyl group that fix the chamber point with zero coordinates
    on J and 1 elsewhere; the table keeps each J."""
    rs, ref = rs_of(fam, rank), textbook(fam, rank)
    group = [m for _, m in ref.weyl_group()]
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(rank), size):
            p = ref.point([int(i not in nodes) for i in range(rank)])
            assert rs.parabolic_order(nodes) == sum(matvec(m, p) == p for m in group), nodes
            assert rs._parabolic_orders[nodes] == rs.parabolic_order(nodes)


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_4, ids=[f"{f}{n}" for f, n in UP_TO_RANK_4])
def test_parabolic_indices_are_the_chamber_orbit_sizes(fam, rank):
    """For every set J of nodes, the Weyl orbit of the chamber point y_J,
    zero on J and 1 elsewhere, has |W| / |W_J| points: the orbit size that
    a class's |X| sums over its closed-chamber points."""
    rs = rs_of(fam, rank)
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(rank), size):
            y = tuple(int(i not in nodes) for i in range(rank))
            assert len(weyl_orbit(rs, y)) == rs.weyl_order // rs.parabolic_order(nodes), nodes


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_solomon_identity_holds_and_refuses_a_wrong_parabolic_order(fam, rank):
    """sum_J (-1)^|J| |W| / |W_J| = 1 on every type up to rank 8, checked
    once and kept; a root system whose |W_J| for J = {0} is 1 more is
    refused (on A1, whose W_{0} is W, |W| is kept first, so that only the
    index of J = {0} is wrong)."""
    rs = rs_of(fam, rank)
    assert rs.solomon_identity is True
    assert rs.__dict__["solomon_identity"] is True
    bad = rootsys.RootSystem(rs.typ, rs.cartan_matrix, rs.metric_scale)
    bad.weyl_order
    bad._parabolic_orders[(0,)] = rs.parabolic_order((0,)) + 1
    with pytest.raises(InternalConsistencyError, match=f"the parabolic indices of {fam}{rank} fail Solomon's identity"):
        bad.solomon_identity
    assert "solomon_identity" not in bad.__dict__


WEYL_ORDER_TYPES = UP_TO_RANK_8 + [(fam, 32) for fam in "ABCD"]


@pytest.mark.parametrize("fam,rank", WEYL_ORDER_TYPES, ids=[f"{f}{n}" for f, n in WEYL_ORDER_TYPES])
def test_parabolic_order_of_every_node_is_the_weyl_order(fam, rank):
    # |W| = |W_J| of all nodes (Macdonald's formula) against the closed forms
    rs = rs_of(fam, rank)
    assert rs.parabolic_order(tuple(range(rank))) == rs.weyl_order == weyl_order(fam, rank)
    assert rs.parabolic_order(()) == 1


def test_a_parabolic_order_that_is_not_an_integer_is_refused():
    """Doubled simple-root coordinates double every height, and A1's one
    root then gives |W| = 3/2, which is refused and not kept."""
    a1 = rs_of("A", 1)
    bad = rootsys.RootSystem(a1.typ, a1.cartan_matrix, a1.metric_scale)
    q, adj = a1.cartan_inverse_int
    bad.__dict__["cartan_inverse_int"] = (q, tuple(tuple(2 * x for x in row) for row in adj))
    with pytest.raises(InternalConsistencyError, match=r"\|W_J\| is not an integer for J = \(0,\)"):
        bad.parabolic_order((0,))
    assert bad._parabolic_orders == {}
