"""Casimir eigenvalues and sphere classes on the weight and root lattices."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient import reference
from casimir_lab import ratlinalg as rl
from casimir_lab import weights
from casimir_lab.errors import CapExceeded, NotInLattice
from casimir_lab.rootsys import RootSystemType, build_root_system
from casimir_lab.weights import (
    LatticeChoice,
    casimir_eigenvalue,
    classes_up_to,
    delta_norm_sq,
    dual_weight,
    enumerate_dominant,
    in_root_lattice,
    lattice_points,
    make_weight,
    shifted_norm_sq,
    sphere_set,
)

W = LatticeChoice.WEIGHT
R = LatticeChoice.ROOT


def rs_of(fam, rank, scale=1):
    return build_root_system(RootSystemType(fam, rank), metric_scale=Q(scale))


def test_rank1_casimir_formula():
    rs = rs_of("A", 1)
    for m in range(13):
        assert casimir_eigenvalue(rs, make_weight(rs, (m,))) == Q(m * (m + 2), 2)


def test_adjoint_casimir_is_twice_dual_coxeter():
    # with long roots of norm 2 the adjoint eigenvalue is 2 h-vee
    for fam, rank, hvee in (("A", 1, 2), ("A", 2, 3), ("B", 2, 3), ("G", 2, 4), ("A", 3, 4), ("B", 3, 5)):
        rs = rs_of(fam, rank)
        ref = reference(rs)
        mu = make_weight(rs, ref.fw_coords(ref.highest_root))
        assert casimir_eigenvalue(rs, mu) == 2 * hvee


def test_casimir_scales_with_metric():
    plain = rs_of("B", 2)
    scaled = rs_of("B", 2, scale=Q(5, 3))
    mu = (2, 1)
    assert casimir_eigenvalue(scaled, make_weight(scaled, mu)) == Q(5, 3) * casimir_eigenvalue(
        plain, make_weight(plain, mu)
    )


def test_lattice_membership():
    rs = rs_of("A", 2)
    assert in_root_lattice(rs, (1, 1))  # adjoint weight
    assert not in_root_lattice(rs, (1, 0))
    make_weight(rs, (1, 1), R)
    with pytest.raises(NotInLattice):
        make_weight(rs, (1, 0), R)
    with pytest.raises(NotInLattice):
        make_weight(rs, (Q(1, 2), 0), W)


def _box_scan_classes(rs, lat, cap):
    """Independent oracle: scan an integer coordinate box, keep points with
    |mu + delta|^2 <= cap, and bucket them by the exact squared radius."""
    cap = Q(cap)
    # |mu+delta| <= sqrt(cap) and |c_i| bounded via the dual basis: use a
    # generous fixed box instead of sharp bounds; radii here are small.
    span = 25
    buckets = {}
    for c1 in range(-span, span + 1):
        coords_list = [(c1,)] if rs.rank == 1 else [(c1, c2) for c2 in range(-span, span + 1)]
        for coords in coords_list:
            if lat is R and not in_root_lattice(rs, coords):
                continue
            mu = make_weight(rs, coords)
            n = shifted_norm_sq(rs, mu)
            if n <= cap:
                buckets.setdefault(n, set()).add(coords)
    # a Casimir class must label some irreducible: keep dominant-anchored radii
    return {
        n: pts for n, pts in buckets.items() if any(all(x >= 0 for x in p) for p in pts)
    }


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_classes_match_box_scan(fam, rank):
    rs = rs_of(fam, rank)
    cap = Q(40)
    for lat in (W, R):
        oracle = _box_scan_classes(rs, lat, cap)
        got = classes_up_to(rs, lat, cap)
        assert [c.a_sq for c in got] == sorted(oracle)
        for c in got:
            assert {w.fw_coords for w in c.sphere_members} == oracle[c.a_sq]
            assert {w.fw_coords for w in c.dominant_members} == {
                m for m in oracle[c.a_sq] if all(x >= 0 for x in m)
            }


def test_class_invariants():
    rs = rs_of("B", 2)
    for c in classes_up_to(rs, W, 30):
        assert c.lam == c.a_sq - delta_norm_sq(rs)
        for w in c.sphere_members:
            assert shifted_norm_sq(rs, w) == c.a_sq
        assert set(c.dominant_members) <= set(c.sphere_members)
        # dominant members are closed under duality
        duals = {dual_weight(rs, w).fw_coords for w in c.dominant_members}
        assert duals == {w.fw_coords for w in c.dominant_members}


def test_sphere_set_roundtrip():
    rs = rs_of("A", 2)
    mu = make_weight(rs, (8, 0))
    cls = sphere_set(rs, W, shifted_norm_sq(rs, mu))
    assert cls.a_sq == Q(182, 3)
    members = {w.fw_coords for w in cls.dominant_members}
    assert members == {(8, 0), (0, 8), (5, 4), (4, 5)}


def test_dual_weight_involution_and_types():
    a2 = rs_of("A", 2)
    assert dual_weight(a2, make_weight(a2, (3, 1))).fw_coords == (1, 3)
    assert dual_weight(a2, dual_weight(a2, make_weight(a2, (3, 1)))).fw_coords == (3, 1)
    for fam in ("B", "G"):
        rs = rs_of(fam, 2)
        assert dual_weight(rs, make_weight(rs, (2, 1))).fw_coords == (2, 1)  # self-dual types


def test_enumerate_dominant_sorted_and_complete():
    rs = rs_of("G", 2)
    doms = enumerate_dominant(rs, W, 50)
    assert all(w.is_dominant() for w in doms)
    coords = [w.fw_coords for w in doms]
    assert coords == sorted(coords)  # documented order: by coordinates
    assert all(shifted_norm_sq(rs, w) <= 50 for w in doms)
    # completeness against a plain double loop
    brute = sorted(
        (c1, c2)
        for c1 in range(8)
        for c2 in range(8)
        if shifted_norm_sq(rs, make_weight(rs, (c1, c2))) <= 50
    )
    assert coords == brute


def test_degenerate_radius_classes():
    rs = rs_of("A", 1)
    # a^2 = |delta|^2 contains exactly the zero weight among dominants
    cls = sphere_set(rs, W, delta_norm_sq(rs))
    assert [w.fw_coords for w in cls.dominant_members] == [(0,)]
    assert {w.fw_coords for w in cls.sphere_members} == {(0,), (-2,)}
    # radius 0: the single point -delta, not dominant
    zero = sphere_set(rs, W, 0)
    assert zero.dominant_members == ()
    assert [w.fw_coords for w in zero.sphere_members] == [(-1,)]


# --- the integer Fincke-Pohst enumerator against the Fraction one ---

# (family, rank, largest a^2 drawn): the Fraction reference stays fast.
SYSTEMS = [("A", 1, 60), ("A", 2, 40), ("B", 2, 40), ("G", 2, 40), ("A", 3, 20), ("B", 3, 20), ("C", 3, 20), ("D", 4, 10)]
scales = st.fractions(min_value=Q(1, 3), max_value=3, max_denominator=7)


@st.composite
def bounds(draw):
    """A system at a scale and a bound up to the system's a^2 in units of its
    form den * gram_fw."""
    fam, rank, cap = draw(st.sampled_from(SYSTEMS))
    rs = rs_of(fam, rank, draw(scales))
    return rs, draw(st.integers(-3, int(cap * rs.metric_scale * rs.gram_fw_int[0])))


@settings(max_examples=150, deadline=None)
@given(bounds(), st.booleans())
def test_lattice_points_match_fraction_fincke_pohst(case, dominant):
    """Ball mode is the Fraction scan of |m + 1|^2 <= bound / den; shell mode
    is the ball filtered to norm == bound; dominant keeps m >= 0."""
    rs, bound = case
    den = rs.gram_fw_int[0]
    ref = rl.ellipsoid_points(rs.gram_fw, (Q(-1),) * rs.rank, Q(bound, den))
    norm = {m: int(den * shifted_norm_sq(rs, make_weight(rs, m))) for m in ref if not dominant or min(m) >= 0}
    assert sorted(lattice_points(rs, bound, dominant=dominant)) == sorted(norm.items())
    shell = lattice_points(rs, bound, shell=True, dominant=dominant)
    assert sorted(shell) == sorted((m, n) for m, n in norm.items() if n == bound)


@st.composite
def radii(draw):
    """A system, a scale and a^2: on a weight's sphere, or any rational."""
    fam, rank, cap = draw(st.sampled_from(SYSTEMS))
    rs = rs_of(fam, rank, draw(scales))
    weight = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    sphere = weight.map(lambda m: shifted_norm_sq(rs, make_weight(rs, m)))
    a_sq = draw(st.one_of(sphere, st.fractions(min_value=-1, max_value=cap, max_denominator=12), st.just(Q(0))))
    return rs, min(a_sq, cap * rs.metric_scale)


@settings(max_examples=100, deadline=None)
@given(radii(), st.sampled_from([W, R]))
def test_sphere_sets_and_classes_match_fraction_scan(case, lat):
    rs, a_sq = case
    center = (Q(-1),) * rs.rank
    ref = {}
    for m in rl.ellipsoid_points(rs.gram_fw, center, a_sq):
        if lat is W or in_root_lattice(rs, m):
            ref.setdefault(shifted_norm_sq(rs, make_weight(rs, m)), []).append(m)
    assert [w.fw_coords for w in sphere_set(rs, lat, a_sq).sphere_members] == sorted(ref.get(a_sq, []))
    anchored = sorted(n for n, ms in ref.items() if any(min(m) >= 0 for m in ms))
    got = classes_up_to(rs, lat, a_sq)
    assert [c.a_sq for c in got] == anchored
    assert all([w.fw_coords for w in c.sphere_members] == sorted(ref[c.a_sq]) for c in got)
    doms = sorted(m for ms in ref.values() for m in ms if min(m) >= 0)
    assert [w.fw_coords for w in enumerate_dominant(rs, lat, a_sq)] == doms


def test_enumeration_refused_past_node_cap(monkeypatch):
    rs = rs_of("A", 2)
    assert len(lattice_points(rs, 600)) > 100
    monkeypatch.setattr(weights, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(CapExceeded) as exc:
        lattice_points(rs, 600)
    assert (exc.value.what, exc.value.limit) == ("enumeration nodes", 100) and exc.value.actual > 100
    monkeypatch.setattr(weights, "DEFAULT_NODE_CAP", 10)
    with pytest.raises(CapExceeded):
        lattice_points(rs, 600, shell=True)
