"""Casimir eigenvalues and sphere classes on the weight and root lattices."""

import itertools
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient import reference
from ballref import ball_classes
from casimir_lab import ratlinalg as rl
from casimir_lab import weights
from casimir_lab.errors import CapExceeded, NonDominantWeight, NotInLattice
from casimir_lab.reps import dual_label
from casimir_lab.rootsys import RootSystemType, build_root_system
from casimir_lab.weights import (
    LatticeChoice,
    casimir_eigenvalue,
    classes_up_to,
    delta_norm_sq,
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
    assert make_weight(rs, [1, 1], R) == (1, 1)  # a weight is its coordinate tuple
    assert make_weight(rs, (Q(2), -1), W) == (2, -1)
    with pytest.raises(NotInLattice):
        make_weight(rs, (1, 0), R)
    with pytest.raises(NotInLattice):
        make_weight(rs, (Q(1, 2), 0), W)
    with pytest.raises(NotInLattice):
        make_weight(rs, (1, 0, 0), W)


def test_casimir_eigenvalue_refuses_a_nondominant_weight():
    rs = rs_of("A", 2)
    with pytest.raises(NonDominantWeight, match=r"^\(1, -1\) is not dominant$"):
        casimir_eigenvalue(rs, make_weight(rs, (1, -1)))


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
            assert set(sphere_set(rs, lat, c.a_sq).sphere_members) == oracle[c.a_sq]
            assert c.sphere_size == len(oracle[c.a_sq])
            assert set(c.chamber_members) == {m for m in oracle[c.a_sq] if min(m) >= -1}
            assert set(c.dominant_members) == {
                m for m in oracle[c.a_sq] if all(x >= 0 for x in m)
            }


def test_class_invariants():
    rs = rs_of("B", 2)
    for c in classes_up_to(rs, W, 30):
        assert c.lam == c.a_sq - delta_norm_sq(rs)
        sphere = sphere_set(rs, W, c.a_sq).sphere_members
        for w in sphere:
            assert shifted_norm_sq(rs, w) == c.a_sq
        assert set(c.dominant_members) <= set(c.chamber_members) <= set(sphere)
        # dominant members are closed under duality
        duals = {dual_label(rs, w) for w in c.dominant_members}
        assert duals == set(c.dominant_members)


def test_sphere_set_roundtrip():
    rs = rs_of("A", 2)
    mu = make_weight(rs, (8, 0))
    cls = sphere_set(rs, W, shifted_norm_sq(rs, mu))
    assert cls.a_sq == Q(182, 3)
    members = set(cls.dominant_members)
    assert members == {(8, 0), (0, 8), (5, 4), (4, 5)}


def test_dual_weight_involution_and_types():
    a2 = rs_of("A", 2)
    assert dual_label(a2, make_weight(a2, (3, 1))) == (1, 3)
    assert dual_label(a2, dual_label(a2, make_weight(a2, (3, 1)))) == (3, 1)
    for fam in ("B", "G"):
        rs = rs_of(fam, 2)
        assert dual_label(rs, make_weight(rs, (2, 1))) == (2, 1)  # self-dual types


def test_enumerate_dominant_sorted_and_complete():
    rs = rs_of("G", 2)
    doms = enumerate_dominant(rs, W, 50)
    assert all(min(w) >= 0 for w in doms)
    assert doms == sorted(doms)  # documented order: by coordinates
    assert all(shifted_norm_sq(rs, w) <= 50 for w in doms)
    # completeness against a plain double loop
    brute = sorted(
        (c1, c2)
        for c1 in range(8)
        for c2 in range(8)
        if shifted_norm_sq(rs, make_weight(rs, (c1, c2))) <= 50
    )
    assert doms == brute


def test_degenerate_radius_classes():
    rs = rs_of("A", 1)
    # a^2 = |delta|^2 contains exactly the zero weight among dominants
    cls = sphere_set(rs, W, delta_norm_sq(rs))
    assert list(cls.dominant_members) == [(0,)]
    assert set(cls.sphere_members) == {(0,), (-2,)}
    # radius 0: the single point -delta, not dominant
    zero = sphere_set(rs, W, 0)
    assert zero.dominant_members == ()
    assert list(zero.sphere_members) == [(-1,)]


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
@given(bounds(), st.sampled_from([None, -1, 0]), st.sampled_from([W, R]))
def test_lattice_points_match_fraction_fincke_pohst(case, floor, lat):
    """Ball mode, with floor -1 (the closed chamber) or 0 (dominant), is the
    Fraction scan of |m + 1|^2 <= bound / den with every m_i >= floor; shell
    mode, with any floor or none, is that scan filtered to norm == bound;
    the root lattice keeps its weights."""
    rs, bound = case
    den = rs.gram_fw_int[0]
    ref = rl.ellipsoid_points(rs.gram_fw, (Q(-1),) * rs.rank, Q(bound, den))
    norm = {
        m: int(den * shifted_norm_sq(rs, make_weight(rs, m)))
        for m in ref
        if (floor is None or min(m) >= floor) and (lat is W or in_root_lattice(rs, m))
    }
    if floor is not None:
        assert sorted(lattice_points(rs, bound, floor, lat=lat)) == sorted(norm.items())
    shell = lattice_points(rs, bound, floor, shell=True, lat=lat)
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
    assert list(sphere_set(rs, lat, a_sq).sphere_members) == sorted(ref.get(a_sq, []))
    anchored = sorted(n for n, ms in ref.items() if any(min(m) >= 0 for m in ms))
    got = classes_up_to(rs, lat, a_sq)
    assert [c.a_sq for c in got] == anchored
    assert all(c.sphere_size == len(ref[c.a_sq]) for c in got)
    assert all(list(c.chamber_members) == sorted(m for m in ref[c.a_sq] if min(m) >= -1) for c in got)
    doms = sorted(m for ms in ref.values() for m in ms if min(m) >= 0)
    assert enumerate_dominant(rs, lat, a_sq) == doms
    assert enumerate_dominant(rs, lat, a_sq, shell=True) == sorted(m for m in ref.get(a_sq, []) if min(m) >= 0)


def test_enumeration_refused_past_node_cap(monkeypatch):
    rs = rs_of("A", 2)
    assert len(lattice_points(rs, 600, -1)) > 100
    monkeypatch.setattr(weights, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(CapExceeded) as exc:
        lattice_points(rs, 600, -1)
    assert (exc.value.what, exc.value.limit) == ("enumeration nodes", 100) and exc.value.actual > 100
    monkeypatch.setattr(weights, "DEFAULT_NODE_CAP", 10)
    with pytest.raises(CapExceeded):
        lattice_points(rs, 600, None, shell=True)


# Squared-radius cap of the ball-walk comparison per type, at metric scale 1.
BALL_CAPS = {"A1": 200, "A2": 60, "B2": 60, "G2": 60, "A3": 24, "B3": 24, "C3": 24, "D4": 16, "F4": 30}


@pytest.mark.parametrize("name", BALL_CAPS)
def test_classes_match_the_whole_ball_walk(name, monkeypatch):
    """On both lattices and at scales 1 and 3/2, the chamber walk gives the
    classes of the whole-ball walk (ballref): a^2, lambda, the dominant and
    the closed-chamber members, |X| = sum |W| / |W_J|, and X where
    sphere_set walks it; and it tries no more coordinate values than the
    ball walk, under a node cap set to the ball walk's count."""
    for scale, lat in itertools.product((1, Q(3, 2)), (W, R)):
        rs = rs_of(name[0], int(name[1:]), scale)
        cap = BALL_CAPS[name] * scale
        ref, ball_nodes = ball_classes(rs, lat, cap)
        with monkeypatch.context() as m:
            m.setattr(weights, "DEFAULT_NODE_CAP", ball_nodes)
            got = classes_up_to(rs, lat, cap)
        assert [c.a_sq for c in got] == sorted(ref), (scale, lat)
        for c in got:
            members = ref[c.a_sq]
            assert c.lam == c.a_sq - delta_norm_sq(rs)
            assert list(c.dominant_members) == [m for m in members if min(m) >= 0]
            assert list(c.chamber_members) == [m for m in members if min(m) >= -1]
            assert (c.sphere_size, c.sphere_members) == (len(members), None)
            walked = sphere_set(rs, lat, c.a_sq)
            assert walked == replace(c, sphere_members=tuple(members)), (scale, lat, c.a_sq)


def _nodes(monkeypatch, walk) -> int:
    """The coordinate values walk() tries: the least node cap it passes."""
    lo, hi = 0, weights.DEFAULT_NODE_CAP
    with monkeypatch.context() as m:
        while lo < hi:
            mid = (lo + hi) // 2
            m.setattr(weights, "DEFAULT_NODE_CAP", mid)
            try:
                walk()
                hi = mid
            except CapExceeded:
                lo = mid + 1
    return lo


@pytest.mark.parametrize("name,cap", [("A1", 60), ("A3", 20), ("B3", 20), ("C3", 20), ("D4", 12), ("G2", 40)])
def test_root_lattice_walk_counts_only_root_lattice_values(name, cap, monkeypatch):
    """At its innermost level the root-lattice chamber walk steps through
    the one coset of admissible m_0 (or none), so it tries one value per
    point there: its node count is the weight-lattice walk's, less the
    weight-lattice points, plus its own, on types whose omega_0 has order
    2 or 4 mod the root lattice (A1, A3, C3, D4), order 1 with a
    nontrivial quotient (B3) and a trivial quotient (G2)."""
    rs = rs_of(name[0], int(name[1:]))
    bound = cap * rs.gram_fw_int[0]
    points = {lat: lattice_points(rs, bound, -1, lat=lat) for lat in (W, R)}
    nodes = {lat: _nodes(monkeypatch, lambda: lattice_points(rs, bound, -1, lat=lat)) for lat in (W, R)}
    assert points[R] == [p for p in points[W] if in_root_lattice(rs, p[0])]
    assert nodes[R] == nodes[W] - len(points[W]) + len(points[R])
    assert len(points[R]) < len(points[W]) or name == "G2"
