"""Root system realizations, Weyl groups, and the invariant form."""

import itertools
from fractions import Fraction as Q

import pytest

from casimir_lab import ratlinalg as rl
from casimir_lab.errors import CapExceeded, InvalidDynkinType
from casimir_lab.reps import weyl_orbit
from casimir_lab.rootsys import RootSystemType, build_root_system, dominant_fw_coords, highest_root, weyl_group


def rs_of(fam, rank, scale=1):
    return build_root_system(RootSystemType(fam, rank), metric_scale=Q(scale))


def test_positive_root_counts():
    expected = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4, ("B", 3): 9,
                ("C", 3): 9, ("D", 4): 12, ("G", 2): 6, ("F", 4): 24}
    for (fam, rank), count in expected.items():
        assert len(rs_of(fam, rank).positive_roots) == count


def test_e_series_is_bourbaki():
    for rank, count, det in ((6, 36, 3), (7, 63, 2), (8, 120, 1)):
        rs = rs_of("E", rank)
        assert len(rs.positive_roots) == count
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


def test_long_roots_have_norm_two_and_scale_acts():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2), ("D", 4)):
        rs = rs_of(fam, rank)
        norms = {rs.inner(a, a) for a in rs.positive_roots}
        assert max(norms) == 2
        rs3 = rs_of(fam, rank, scale=3)
        assert max(rs3.inner(a, a) for a in rs3.positive_roots) == 6


def test_delta_is_sum_of_fundamental_weights():
    for fam, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3)):
        rs = rs_of(fam, rank)
        total = rs.fundamental_weights[0]
        for w in rs.fundamental_weights[1:]:
            total = rl.vadd(total, w)
        assert total == rs.delta
        # and <delta, alpha_i^vee> = 1 for every simple root
        assert all(rs.pairing(rs.delta, a) == 1 for a in rs.simple_roots)


def test_fundamental_weights_dual_to_simple_coroots():
    rs = rs_of("G", 2)
    for i, w in enumerate(rs.fundamental_weights):
        for j, a in enumerate(rs.simple_roots):
            assert rs.pairing(w, a) == (1 if i == j else 0)


def test_weyl_group_orders():
    for fam, rank, order in (("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12), ("A", 3, 24), ("B", 3, 48)):
        rs = rs_of(fam, rank)
        elems = weyl_group(rs)
        assert len(elems) == order == rs.typ.weyl_order()
        mats = {e.matrix for e in elems}
        assert rl.identity(rs.ambient_dim) in mats
        for e in elems:
            # reflections are orthogonal in ambient coordinates…
            assert rl.matmul(e.matrix, rl.transpose(e.matrix)) == rl.identity(rs.ambient_dim)
            # …and closure under inverse holds
            assert rl.transpose(e.matrix) in mats


def test_weyl_elements_preserve_the_form():
    rs = rs_of("B", 2)
    v, w = rs.fundamental_weights[0], rs.delta
    for e in weyl_group(rs):
        assert rs.inner(e.apply(v), e.apply(w)) == rs.inner(v, w)


def test_weyl_cap_refusal():
    rs = rs_of("B", 3)
    with pytest.raises(CapExceeded):
        weyl_group(rs, cap=10)


def _ambient(rs, coords):
    """sum_i coords[i] * omega_i as an ambient rational vector."""
    v = rl.vec([0] * rs.ambient_dim)
    for c, w in zip(coords, rs.fundamental_weights):
        v = rl.vadd(v, rl.vscale(c, w))
    return v


def _word_matrix(rs, word):
    m = rl.identity(rs.ambient_dim)
    for i in word:
        m = rl.matmul(m, rs.simple_reflection_matrix(i))
    return m


def test_to_dominant_lands_in_chamber():
    rs = rs_of("G", 2)
    dom, word = dominant_fw_coords(rs, (1, -3))
    x = _ambient(rs, (1, -3))
    assert all(rs.pairing(_ambient(rs, dom), a) >= 0 for a in rs.simple_roots)
    assert rl.matvec(_word_matrix(rs, word), x) == _ambient(rs, dom)


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_dominant_walk_box_scan(fam, rank):
    rs = rs_of(fam, rank)
    for m in itertools.product(range(-3, 4), repeat=rank):
        dom, word = dominant_fw_coords(rs, m)
        (expected,) = [w for w in weyl_orbit(rs, m) if all(c >= 0 for c in w)]
        assert dom == expected
        w = _word_matrix(rs, word)
        assert rl.matvec(w, _ambient(rs, m)) == _ambient(rs, dom)
        assert rl.det(w) == (-1) ** len(word)


def test_highest_root_is_long_and_dominant():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2)):
        rs = rs_of(fam, rank)
        theta = highest_root(rs)
        assert rs.inner(theta, theta) == 2
        assert all(rs.pairing(theta, a) >= 0 for a in rs.simple_roots)
        assert theta in rs.positive_roots


def test_invalid_types_rejected():
    for fam, rank in (("Z", 2), ("A", 0), ("G", 3), ("E", 5), ("F", 5), ("D", 2)):
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
        den, g = rs.gram_fw_int
        assert rl.mat(g) == rl.mat_scale(den, rs.gram_fw)
        x, y = tuple(range(1, rank + 1)), tuple(range(rank, -rank, -2))
        assert rs.form_fw_int(x, y) == den * rs.inner(_ambient(rs, x), _ambient(rs, y))
