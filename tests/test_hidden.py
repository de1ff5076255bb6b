"""Stabilizers of shifted eigenvalue spheres, orbits, Weyl inclusion."""

import dataclasses
import itertools
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction as Q

import pytest

from ambient import mat_scale, mat_sub, matmul, matvec, reference, transpose, vadd
from output_digest import LARGE_HIDDEN_CAPS
from permref import (
    elements,
    first_spanning_points,
    full_stabilizer,
    gram,
    gram_preserved,
    reference_sift,
    weyl_sign_orbit_count,
)
from casimir_lab import ratlinalg as rl
from casimir_lab import hidden, rootsys, spectra
from casimir_lab.errors import CapExceeded, InternalConsistencyError
from casimir_lab.hidden import (
    PermGroup,
    _check_gram,
    _check_strong_generators,
    _row_reader,
    _select_basis,
    chamber_orbit_count,
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from casimir_lab.ratlinalg import identity
from casimir_lab.rootsys import RootSystemType, build_root_system, weyl_group
from casimir_lab.weights import LatticeChoice, classes_up_to, sphere_set

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
B2 = build_root_system(RootSystemType("B", 2))
G2 = build_root_system(RootSystemType("G", 2))
A3 = build_root_system(RootSystemType("A", 3))
B3 = build_root_system(RootSystemType("B", 3))
C3 = build_root_system(RootSystemType("C", 3))
WEIGHT = LatticeChoice.WEIGHT


def _gram_automorphisms(gram):
    """Oracle: every permutation preserving all pairwise inner products.

    Pure combinatorics on the Gram matrix - no linear algebra.  Because the
    form is positive definite, each such permutation is induced by exactly
    one isometry of the span, so this set must coincide with the stabilizer.
    """
    n = len(gram)
    out = []
    img = [-1] * n
    used = [False] * n

    def rec(i):
        if i == n:
            out.append(tuple(img))
            return
        for y in range(n):
            if used[y] or gram[y][y] != gram[i][i]:
                continue
            if all(gram[y][img[j]] == gram[i][j] for j in range(i)):
                img[i] = y
                used[y] = True
                rec(i + 1)
                used[y] = False

    rec(0)
    return sorted(out)


def _elements(cfg, grp):
    return sorted(elements(grp, cfg.size))


def _orbits_of(cfg, perms):
    """The point orbits of a listed group, sorted by smallest member."""
    return sorted({tuple(sorted({p[i] for p in perms})) for i in range(cfg.size)})


def _config(rs, a_sq):
    return shifted_config(rs, sphere_set(rs, WEIGHT, Q(a_sq)))


def _configs_up_to(rs, cap):
    """The configuration of every weight-lattice class with a^2 <= cap, its
    sphere walked."""
    return [_config(rs, cls.a_sq) for cls in classes_up_to(rs, WEIGHT, Q(cap))]


def _chamber(members):
    """The closed-chamber members, min(m) >= -1."""
    return [m for m in members if min(m) >= -1]


# 10^10 times a point of a small class has coordinates past the int64 bound
# of ShiftedConfig, so its array holds Python ints.
OBJECT_SCALE = 10**10
# Each certificate test runs on the class itself and on its object-path copy.
SCALES = ((1, "int64"), (OBJECT_SCALE, "object"))


def _scaled(cfg, k):
    """cfg with every point multiplied by k: the Gram matrix times k^2, so
    the same stabilizer."""
    return dataclasses.replace(cfg, a_sq=cfg.a_sq * k * k, coords=tuple(tuple(k * c for c in y) for y in cfg.coords))


def _rows(cfg):
    """Every Gram row, as one reader of the search reads them."""
    row = _row_reader(cfg)
    return [row(x) for x in range(cfg.size)]


def _certify(cfg, base, perm):
    """The base-row certificate of perm, on a fresh row reader."""
    _check_gram(_row_reader(cfg), base, perm)


def _certified(cfg, base, perm):
    """The verdict of the base-row certificate: True, or False when it raises."""
    try:
        _certify(cfg, base, perm)
    except InternalConsistencyError as exc:
        assert str(exc) == "stabilizer permutation mismatch"
        return False
    return True


def _points(cfg):
    """The shifted points as textbook ambient vectors, sum_i y_i omega_i."""
    return [reference(cfg.rs).point(y) for y in cfg.coords]


def _textbook_weyl_perms(cfg):
    """The textbook Weyl matrices acting on the ambient points, one
    permutation per element in reference(rs).weyl_group() order; an image
    off the configuration is None."""
    pts = _points(cfg)
    index = {p: i for i, p in enumerate(pts)}
    return [tuple(index.get(matvec(m, p)) for p in pts) for _, m in reference(cfg.rs).weyl_group()]


def _textbook_weyl_verdict(cfg):
    """Reference verdict: every textbook Weyl matrix permutes the points."""
    return all(None not in p for p in _textbook_weyl_perms(cfg))


def _gram(cfg):
    """Reference Gram matrix of the ambient points under the invariant form."""
    pts, ref = _points(cfg), reference(cfg.rs)
    return [[cfg.rs.metric_scale * ref.inner(p, q) for q in pts] for p in pts]


def _reference_matrix(cfg, perm):
    """The ambient matrix sending a spanning subset B of the points to its
    image under perm, extended by the identity on the orthogonal complement
    of span X: C (B^T B)^-1 B^T + (I - B (B^T B)^-1 B^T), B and C as columns."""
    pts = _points(cfg)
    basis = []
    for i, p in enumerate(pts):
        if rl.rank(rl.mat([pts[j] for j in basis] + [p])) > len(basis):
            basis.append(i)
    d = reference(cfg.rs).dim
    if not basis:
        return identity(d)
    b_cols = transpose(rl.mat([pts[i] for i in basis]))
    c_cols = transpose(rl.mat([pts[perm[i]] for i in basis]))
    proj = matmul(rl.inverse(matmul(transpose(b_cols), b_cols)), transpose(b_cols))
    complement = mat_sub(identity(d), matmul(b_cols, proj))
    moved = matmul(c_cols, proj)
    return tuple(vadd(r, c) for r, c in zip(moved, complement))


def _is_isometry(cfg, phi, perm):
    """phi is orthogonal and sends point i to point perm[i], exactly."""
    pts = _points(cfg)
    return matmul(transpose(phi), phi) == identity(len(phi)) and all(
        matvec(phi, p) == pts[perm[i]] for i, p in enumerate(pts)
    )


def test_hexagon_full_dihedral():
    cfg = _config(A2, 8)
    assert cfg.size == 6
    grp = stabilizer_group(cfg)
    assert len(grp) == 12
    assert len(orbits(cfg, grp)) == 1
    assert check_weyl_inclusion(A2, cfg) is True
    # the Weyl group is a proper subgroup here: only 6 of the 12 permutations
    weyl_perms = set(_textbook_weyl_perms(cfg))
    assert len(weyl_perms) == 6
    assert weyl_perms < set(_elements(cfg, grp))


def test_stabilizer_matches_gram_oracle():
    cases = [
        (A1, Q(25, 2)),
        (A2, Q(26, 3)),
        (A2, Q(14, 3)),
        (B2, Q(13, 2)),
        (B2, Q(10)),
        (G2, Q(26, 3)),
    ]
    for rs, a_sq in cases:
        cfg = _config(rs, a_sq)
        assert cfg.size > 0
        assert _elements(cfg, stabilizer_group(cfg)) == _gram_automorphisms(_gram(cfg))


def test_group_axioms_and_exactness():
    cfg = _config(B2, Q(13, 2))
    grp = _elements(cfg, stabilizer_group(cfg))
    perms = set(grp)
    assert tuple(range(cfg.size)) in perms
    for g in grp:
        assert _is_isometry(cfg, _reference_matrix(cfg, g), g)
        # closure under composition (on permutations)
        for h in grp:
            comp = tuple(g[h[i]] for i in range(cfg.size))
            assert comp in perms


def test_known_nontransitive_classes():
    expected = [
        (A2, Q(98, 3), 18),
        (B2, Q(25, 2), 12),
        (B2, Q(25), 12),
        (B2, Q(65, 2), 16),
        (G2, Q(98, 3), 18),
    ]
    for rs, a_sq, npts in expected:
        cfg = _config(rs, a_sq)
        assert cfg.size == npts
        grp, full = stabilizer_group(cfg), full_stabilizer(cfg)
        assert _elements(cfg, grp) == full
        orbs = orbits(cfg, grp)
        assert orbs == _orbits_of(cfg, full)
        assert len(orbs) == 2, (rs.typ, a_sq)
        assert check_weyl_inclusion(rs, cfg) is True
        # orbits partition the points
        assert sorted(i for o in orbs for i in o) == list(range(cfg.size))


def test_transitive_everywhere_small_a1():
    for cfg in _configs_up_to(A1, 40):
        grp = stabilizer_group(cfg)
        assert len(orbits(cfg, grp)) == 1
        assert len(grp) == 2  # {1, -1} on a rank-1 span


def test_two_point_class():
    cfg = _config(A1, Q(1, 2))  # exactly {delta, -delta}
    assert cfg.size == 2
    pts = _points(cfg)
    assert pts[0] == tuple(-c for c in pts[1])
    grp = stabilizer_group(cfg)
    assert _elements(cfg, grp) == [(0, 1), (1, 0)]
    assert len(orbits(cfg, grp)) == 1


def test_radius_zero_single_point():
    cfg = _config(A1, 0)
    assert cfg.size == 1
    assert set(_points(cfg)[0]) == {Q(0)}
    grp = stabilizer_group(cfg)
    assert len(grp) == 1
    assert orbits(cfg, grp) == [(0,)]


def test_weyl_inclusion_across_systems():
    for rs, cap in ((A2, Q(20)), (B2, Q(15)), (G2, Q(15))):
        for cfg in _configs_up_to(rs, cap):
            assert check_weyl_inclusion(rs, cfg) is True
            perms = _textbook_weyl_perms(cfg)
            assert None not in set().union(*perms) and len(perms) == len(weyl_group(rs))


def test_point_cap_refused():
    cfg = _config(A2, Q(98, 3))
    with pytest.raises(CapExceeded) as ei:
        stabilizer_group(cfg, point_cap=10)
    assert ei.value.actual == 18 and ei.value.limit == 10


def test_rank_cap_refused():
    cfg = _config(B2, Q(13, 2))
    with pytest.raises(CapExceeded):
        stabilizer_group(cfg, rank_cap=1)


def test_stabilizer_matches_gram_oracle_rank3():
    # Two 48-point classes: one transitive, one with two orbits.
    for rs, a_sq in ((B3, Q(35, 4)), (A3, Q(17))):
        cfg = _config(rs, a_sq)
        assert cfg.size == 48
        assert _elements(cfg, stabilizer_group(cfg)) == _gram_automorphisms(_gram(cfg))


def test_weyl_witnesses_match_matrix_reference():
    for rs, a_sq in ((A2, Q(98, 3)), (B2, Q(25, 2)), (G2, Q(26, 3)), (B3, Q(35, 4)), (A1, 0)):
        cfg = _config(rs, a_sq)
        textbook = _textbook_weyl_perms(cfg)
        assert check_weyl_inclusion(rs, cfg) is _textbook_weyl_verdict(cfg) is True
        # the integer matrices of rootsys.weyl_group act the same way on coordinates
        index = {y: i for i, y in enumerate(cfg.coords)}
        assert [tuple(index[matvec(w.matrix, y)] for y in cfg.coords) for w in weyl_group(rs)] == textbook
        # without its first or last point X is no longer kept, for the reference too
        # (an empty X, left of the one-point class, is kept by every element)
        for k in (0, cfg.size - 1):
            broken = dataclasses.replace(cfg, coords=cfg.coords[:k] + cfg.coords[k + 1 :])
            assert check_weyl_inclusion(rs, broken) is _textbook_weyl_verdict(broken) is (cfg.size == 1)


def _fresh(rs):
    """A root system equal to rs but not interned, with none of its invariants computed yet."""
    return rootsys.RootSystem(rs.typ, rs.cartan_matrix, rs.metric_scale)


def _count_weyl_orbit_calls(monkeypatch, result=None):
    """Count rootsys.weyl_orbit calls; return `result` from them when given."""
    calls = []
    real = rootsys.weyl_orbit

    def counted(rs, *weights):
        calls.append(weights)
        return real(rs, *weights) if result is None else result

    monkeypatch.setattr(rootsys, "weyl_orbit", counted)
    return calls


def test_weyl_inclusion_fails_without_one_point(monkeypatch):
    cfg = _config(B2, Q(13, 2))
    broken = dataclasses.replace(cfg, coords=cfg.coords[1:])
    assert broken.size == cfg.size - 1
    assert check_weyl_inclusion(B2, broken) is _textbook_weyl_verdict(broken) is False
    # the verdict comes before the orbit identity
    rs = _fresh(B2)
    rs.positive_roots_fw  # read by |W|, before the counter
    calls = _count_weyl_orbit_calls(monkeypatch, result=set())
    assert check_weyl_inclusion(rs, broken) is False
    assert calls == []
    with pytest.raises(InternalConsistencyError, match="enumerated 0 Weyl elements, expected 8"):
        check_weyl_inclusion(rs, cfg)


def test_weyl_orbit_identity_is_enumerated_once_per_root_system(monkeypatch):
    cfg = _config(B2, Q(13, 2))
    rs = _fresh(B2)
    rs.positive_roots_fw  # read by |W|, before the counter
    calls = _count_weyl_orbit_calls(monkeypatch)
    assert [check_weyl_inclusion(rs, cfg) for _ in range(3)] == [True] * 3
    assert calls == [((1, 1),)]
    assert rs.delta_orbit_size == 8
    # a failing identity is not kept: it raises on every call, and enumerates every time
    rs = _fresh(B2)
    rs.positive_roots_fw  # read by |W|, before the counter
    calls = _count_weyl_orbit_calls(monkeypatch, result={(1, 1)})
    for k in range(1, 4):
        with pytest.raises(InternalConsistencyError, match="enumerated 1 Weyl elements, expected 8"):
            check_weyl_inclusion(rs, cfg)
        assert len(calls) == k


def test_weyl_inclusion_cap_refused():
    cfg = _config(G2, Q(26, 3))
    with pytest.raises(CapExceeded) as ei:
        check_weyl_inclusion(G2, cfg, weyl_cap=11)
    assert (ei.value.actual, ei.value.limit) == (12, 11)
    # the cap refuses before any point is reflected
    broken = dataclasses.replace(cfg, coords=cfg.coords[1:])
    with pytest.raises(CapExceeded):
        check_weyl_inclusion(G2, broken, weyl_cap=11)
    assert check_weyl_inclusion(G2, cfg, weyl_cap=12) is True


def test_non_generator_matrix_is_exact():
    cfg = _config(B3, Q(35, 4))
    grp = stabilizer_group(cfg)
    assert len(grp) == 48
    grp = _elements(cfg, grp)
    assert all(type(g) is tuple and all(type(i) is int for i in g) for g in grp)
    for g in grp:
        assert _is_isometry(cfg, _reference_matrix(cfg, g), g)


def test_generator_check_rejects_a_wrong_permutation():
    for scale, dtype in SCALES:
        cfg = _scaled(_config(B2, Q(25, 2)), scale)
        assert cfg.fy.dtype == dtype
        grp = stabilizer_group(cfg)
        p = grp.gens[0]
        _certify(cfg, grp.base, p)
        phi = _reference_matrix(cfg, p)
        assert _is_isometry(cfg, phi, p)
        swapped = (p[1], p[0]) + p[2:]
        with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
            _certify(cfg, grp.base, swapped)
        assert not gram_preserved(cfg, swapped)
        assert not _is_isometry(cfg, phi, swapped)
        assert not _is_isometry(cfg, _reference_matrix(cfg, swapped), swapped)
        assert not _is_isometry(cfg, mat_scale(2, phi), p)


def test_gram_certificate_rejects_every_swapped_element():
    cfg = _config(B2, Q(25, 2))
    grp = stabilizer_group(cfg)
    assert len(grp) == 8
    for p in _elements(cfg, grp):
        _certify(cfg, grp.base, p)
        with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
            _certify(cfg, grp.base, (p[1], p[0]) + p[2:])


def test_hidden_runs_without_rational_linear_algebra(monkeypatch):
    cases = [(B3, Q(35, 4), 48, 1), (A3, Q(17), 48, 2), (G2, Q(26, 3), 12, 1)]
    classes = [(rs, sphere_set(rs, WEIGHT, a_sq), order, n_orbits) for rs, a_sq, order, n_orbits in cases]
    verdicts = [_textbook_weyl_verdict(shifted_config(rs, cls)) for rs, cls, _, _ in classes]

    def forbidden(*args, **kwargs):
        raise AssertionError("ratlinalg called")

    # Every public ratlinalg function, patched in each module that holds it.
    public = {v for k, v in vars(rl).items() if not k.startswith("_") and getattr(v, "__module__", None) == rl.__name__}
    for name, mod in list(sys.modules.items()):
        if name == "casimir_lab" or name.startswith("casimir_lab."):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in public:
                    monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError, match="ratlinalg called"):
        rl.inverse(identity(2))
    for (rs, cls, order, n_orbits), verdict in zip(classes, verdicts):
        cfg = shifted_config(rs, cls)
        grp = stabilizer_group(cfg)
        assert (cfg.size, len(grp), len(orbits(cfg, grp))) == (order, order, n_orbits)
        assert check_weyl_inclusion(rs, cfg) is verdict is True


def _reference_classes():
    """Every weight-lattice class of A2/B2/G2 with a^2 <= 60 and of A3/B3/C3
    with a^2 <= 21, past the point cap too (at most 96 points)."""
    for rs, cap in ((A2, 60), (B2, 60), (G2, 60), (A3, 21), (B3, 21), (C3, 21)):
        yield from _configs_up_to(rs, cap)


def test_matches_full_reference_on_every_class():
    checked = 0
    for cfg in _reference_classes():
        grp = stabilizer_group(cfg, point_cap=cfg.size)
        full = full_stabilizer(cfg)
        assert len(grp) == len(full), (cfg.rs.typ, cfg.a_sq)
        assert orbits(cfg, grp) == _orbits_of(cfg, full)
        assert _elements(cfg, grp) == full
        checked += 1
    assert checked == 105


def _searched_orbits(cfg, **caps):
    """The orbits of the searched stabilizer: the certificate's reference."""
    return orbits(cfg, stabilizer_group(cfg, **caps))


def _count_searches(monkeypatch):
    """Record the class label and a^2 of every stabilizer search from here on."""
    searched = []
    real = hidden.stabilizer_group
    monkeypatch.setattr(hidden, "stabilizer_group", lambda cfg, *a, **kw: searched.append((cfg.rs.typ.label, cfg.a_sq)) or real(cfg, *a, **kw))
    return searched


def test_certified_orbits_are_the_searched_orbits():
    """On every reference class and on its object-path copy, the chamber
    count equals the reference count of the orbits of the Weyl reflections
    and -1 as index permutations of X, and it is 1 exactly where the
    searched stabilizer is transitive: on all but 18 classes."""
    several = []
    for cfg in _reference_classes():
        for scale, dtype in SCALES:
            scaled = _scaled(cfg, scale)
            assert scaled.y.dtype == dtype
            count = chamber_orbit_count(scaled.rs, _chamber(scaled.mu_coords))
            assert count == weyl_sign_orbit_count(scaled), (cfg.rs.typ, cfg.a_sq)
            assert (count == 1) == (len(_searched_orbits(scaled, point_cap=cfg.size)) == 1), (cfg.rs.typ, cfg.a_sq)
            if count > 1:
                several.append((cfg.rs.typ.label, scaled.a_sq))
    assert len(several) == 2 * 18


def _orbits_or_refusal(compute):
    try:
        return compute()
    except CapExceeded as exc:
        return str(exc)


def test_certified_orbits_on_the_large_hidden_rank4_classes(monkeypatch):
    """On every class of the rank-4 types of output_digest's large-hidden
    part, the chamber count equals the reference count, and at that part's
    point cap the report's hidden data has the searched orbit count, or is
    refused where the search is (every F4 class is past the cap).  It
    searches only where the chamber count is not 1: on 19 of the 20 A4
    classes and on some of B4, C4 and D4."""
    real = hidden.stabilizer_group
    searched = _count_searches(monkeypatch)
    refused = Counter()
    for name, cap in LARGE_HIDDEN_CAPS.items():
        rs = build_root_system(RootSystemType(name[0], int(name[1:])))
        for cls in classes_up_to(rs, WEIGHT, Q(cap)):
            cfg = _config(rs, cls.a_sq)
            assert chamber_orbit_count(rs, cls.chamber_members) == weyl_sign_orbit_count(cfg), (name, cls.a_sq)
            want = _orbits_or_refusal(lambda: orbits(cfg, real(cfg, point_cap=1152)))
            _, count = spectra._hidden_data(rs, WEIGHT, cls, 1152, 4)
            if isinstance(want, str):
                refused[name] += 1
                assert count is None, (name, cls.a_sq)
            else:
                assert count == len(want), (name, cls.a_sq)
    assert refused == {"B4": 3, "C4": 4, "D4": 3, "F4": 9}
    assert Counter(label for label, _ in searched) == {"A4": 19, "B4": 7, "C4": 25, "D4": 10}


ONE_ORBIT_CLASSES = ((A2, 2), (B2, Q(5, 2)), (G2, Q(26, 3)), (B3, Q(35, 4)), (A3, 5))


def test_a_class_missing_a_point_fails_the_orbit_sum(monkeypatch):
    """A one-orbit class with its one closed-chamber point removed, and |X|
    recounted without that point's Weyl orbit, counts no orbit, so the
    report's hidden data walks X: the walk finds the lost orbit, and its
    size refuses the class before any configuration is built."""
    monkeypatch.setattr(hidden, "shifted_config", lambda *args: pytest.fail("a configuration was built"))
    for rs, a_sq in ONE_ORBIT_CLASSES:
        cls = classes_up_to(rs, WEIGHT, Q(a_sq))[-1]
        (point,) = cls.chamber_members
        lost = len(rootsys.weyl_orbit(rs, tuple(c + 1 for c in point)))
        broken = dataclasses.replace(cls, chamber_members=(), sphere_size=cls.sphere_size - lost)
        assert chamber_orbit_count(rs, broken.chamber_members) == 0
        with pytest.raises(InternalConsistencyError, match="walked sphere fails the orbit sum"):
            spectra._hidden_data(rs, WEIGHT, broken, 60, 4)


def test_the_chamber_count_reads_every_closed_chamber_point_and_minus_w0():
    """The chamber points are the members m with min(m) >= -1, wall points
    included, and -1 pairs those that -w0 does not fix: on A2, a^2 = 2 is
    the orbit of (0, 0), which -w0 fixes; a^2 = 14/3 the orbits of (0, 1)
    and (1, 0), which -1 swaps; a^2 = 98/3 two orbits, of (2, 4) with
    (4, 2) and of the wall members (-1, 6) with (6, -1).  On B2, where
    -w0 = 1, a^2 = 25/2 is the orbits of (2, 0) and of the wall member
    (-1, 4)."""
    for rs, a_sq, chamber, count in (
        (A2, 2, [(0, 0)], 1),
        (A2, Q(14, 3), [(0, 1), (1, 0)], 1),
        (A2, Q(98, 3), [(-1, 6), (2, 4), (4, 2), (6, -1)], 2),
        (B2, Q(25, 2), [(-1, 4), (2, 0)], 2),
    ):
        cls = classes_up_to(rs, WEIGHT, Q(a_sq))[-1]
        assert list(cls.chamber_members) == _chamber(sphere_set(rs, WEIGHT, a_sq).sphere_members) == chamber
        assert chamber_orbit_count(rs, cls.chamber_members) == count


def test_a_weyl_orbit_that_minus_one_does_not_preserve_is_refused():
    """On A2, -1 swaps the Weyl orbits of (1, 2) and (2, 1), the shifted
    points of the class a^2 = 14/3.  Either orbit alone is closed under W,
    but its one chamber point is not fixed by -w0, so (c + f) / 2
    is not an integer and the count is refused."""
    for y in ((1, 2), (2, 1)):
        members = sorted(tuple(c - 1 for c in p) for p in rootsys.weyl_orbit(A2, y))
        assert len(members) == 6
        with pytest.raises(InternalConsistencyError, match="closed-chamber points fail the -w0 pairing"):
            chamber_orbit_count(A2, _chamber(members))


def test_certified_orbits_refuse_as_the_search_does():
    """The report's hidden data refuses a class exactly where the search
    refuses its configuration, which names the point cap first, then the
    span rank; at the class's own size and rank it is computed."""
    cls = sphere_set(B3, WEIGHT, Q(35, 4))
    cfg = shifted_config(B3, cls)
    for caps, message in (
        ({"point_cap": 47}, "configuration size = 48 exceeds cap 47"),
        ({"rank_cap": 2}, "configuration span rank = 3 exceeds cap 2"),
        ({"point_cap": 47, "rank_cap": 2}, "configuration size = 48 exceeds cap 47"),
    ):
        with pytest.raises(CapExceeded) as got:
            stabilizer_group(cfg, **caps)
        assert str(got.value) == message
        caps = {"point_cap": 48, "rank_cap": 3, **caps}
        assert spectra._hidden_data(B3, WEIGHT, cls, caps["point_cap"], caps["rank_cap"]) == (None, None)
    assert spectra._hidden_data(B3, WEIGHT, cls, 48, 3) == (dict.fromkeys(cls.dominant_members, 0), 1)


def test_certified_orbits_refuse_a_form_the_reflections_do_not_preserve():
    """A class found on the true form, whose root system then carries a
    corrupted one: the chamber count still finds one orbit, and the
    isometry identity refuses to certify it."""
    rs = rootsys.RootSystem(B2.typ, B2.cartan_matrix, B2.metric_scale)
    cls = sphere_set(rs, WEIGHT, Q(5, 2))
    den, g = rs.gram_fw_int
    rs.__dict__["gram_fw_int"] = (den, ((g[0][0] + 1, g[0][1]), g[1]))
    assert chamber_orbit_count(rs, cls.chamber_members) == 1
    with pytest.raises(InternalConsistencyError, match="simple reflection s_1 does not preserve the form"):
        spectra._hidden_data(rs, WEIGHT, cls, 60, 4)


def _row_blind_pairs(cfg, base):
    """For each base point b, the first two points off the base whose inner
    products agree with every other base point but not with b: swapping
    their images changes b's row only."""
    g = gram(cfg)
    pairs = []
    for b in base:
        first = {}
        for i in range(cfg.size):
            if i not in base:
                i0 = first.setdefault(tuple(g[i][c] for c in base if c != b), i)
                if g[i0][b] != g[i][b]:
                    pairs.append((i0, i))
                    break
    return pairs


def _swap_images(p, i, j):
    q = list(p)
    q[i], q[j] = p[j], p[i]
    return tuple(q)


def test_base_row_certificate_matches_the_n2_reference():
    """On every element of every reference group, on each with the images
    of points 0 and 1 swapped, and on each with the images of a row-blind
    pair swapped (one that every base row but one misses), the base-row
    certificate gives the verdict of the n^2 comparison of the permuted
    Gram matrix."""
    verdicts = Counter()
    for cfg in _reference_classes():
        grp = stabilizer_group(cfg, point_cap=cfg.size)
        pairs = _row_blind_pairs(cfg, grp.base)
        for p in _elements(cfg, grp):
            mutants = [("element", p)] + [("swapped", _swap_images(p, 0, 1))] * (cfg.size > 1)
            mutants += [("row-blind", _swap_images(p, i, j)) for i, j in pairs]
            for kind, perm in mutants:
                verdict = _certified(cfg, grp.base, perm)
                assert verdict is gram_preserved(cfg, perm), (cfg.rs.typ, cfg.a_sq, perm)
                verdicts[kind, verdict] += 1
    assert verdicts == {("element", True): 2052, ("swapped", False): 2052, ("row-blind", False): 3816}


def test_gram_matches_the_entrywise_dot_products():
    """The Gram rows the search reads, array products, equal y_i . (G y_j)
    taken one entry at a time, in Python ints, on every A2/B2/G2 class with
    a^2 <= 60, every 48-point B3 class with a^2 <= 21 and their object-path
    copies; a reader builds each row once."""
    configs = [cfg for rs in (A2, B2, G2) for cfg in _configs_up_to(rs, 60)]
    b3 = [cfg for cfg in _configs_up_to(B3, 21) if cfg.size == 48]
    assert [cfg.a_sq for cfg in b3] == [Q(35, 4), 14, 21]
    for cfg in configs + b3:
        for scale, dtype in SCALES:
            scaled = _scaled(cfg, scale)
            assert scaled.fy.dtype == dtype
            rows = _rows(scaled)
            assert rows == gram(scaled)
            assert all(type(v) is int for row in rows for v in row)
    row = _row_reader(b3[0])
    assert row(5) is row(5)


def test_desk_scale_classes_take_the_int64_path():
    rank4 = [_config(build_root_system(RootSystemType(f, 4)), a_sq) for f, a_sq, _ in RANK4]
    configs = list(_reference_classes()) + rank4
    assert len(configs) == 105 + 3
    for cfg in configs:
        assert cfg.y.dtype == cfg.fy.dtype == "int64", (cfg.rs.typ, cfg.a_sq)


def test_int64_bound_is_exact_at_its_edge():
    """On A1, den G = (1) and the bound is y^2 < 2^63: y = 3037000499 is the
    last int64 class, and y = 3037000500, whose Gram entries y^2 do not fit
    in int64, takes the object path.  Both classes' Gram rows are the
    Python products, and both keep their order-2 group."""
    for y, a_sq, dtype in ((3037000499, Q(3037000499**2, 2), "int64"), (3037000500, Q(3037000500**2, 2), "object")):
        cfg = _config(A1, a_sq)
        assert cfg.coords == ((-y,), (y,))
        assert cfg.fy.dtype == dtype
        assert _rows(cfg) == gram(cfg) == [[y * y, -y * y], [-y * y, y * y]]
        assert all(type(v) is int for row in _rows(cfg) for v in row)
        assert len(stabilizer_group(cfg)) == 2
    # Past the bound in rank 3 too: the stabilizer and Gram rows are unchanged by scaling.
    cfg = _config(B3, Q(35, 4))
    big = _scaled(cfg, OBJECT_SCALE)
    assert big.fy.dtype == object
    assert _rows(big) == gram(big)
    assert _rows(big) == [[OBJECT_SCALE**2 * v for v in row] for row in _rows(cfg)]
    assert _elements(big, stabilizer_group(big)) == _elements(cfg, stabilizer_group(cfg))


def test_weyl_check_on_the_object_path_and_at_the_int64_edge():
    """The reflected coordinate arrays keep cfg.y's dtype: the int64 and
    object classes on either side of the A1 edge, and the scaled copies of
    the certificate tests, each kept, with its first or last point removed,
    and emptied, give the textbook verdicts."""
    edge = [_config(A1, Q(y * y, 2)) for y in (3037000499, 3037000500)]
    cases = [(B2, Q(25, 2)), (G2, Q(26, 3)), (B3, Q(35, 4)), (A3, Q(17))]
    scaled = [_scaled(_config(rs, a_sq), scale) for rs, a_sq in cases for scale, _ in SCALES]
    assert [cfg.y.dtype for cfg in edge + scaled] == ["int64", "object"] + [dtype for _ in cases for _, dtype in SCALES]
    for cfg in edge + scaled:
        assert check_weyl_inclusion(cfg.rs, cfg) is _textbook_weyl_verdict(cfg) is True
        for k in (0, cfg.size - 1):
            broken = dataclasses.replace(cfg, coords=cfg.coords[:k] + cfg.coords[k + 1 :])
            assert check_weyl_inclusion(cfg.rs, broken) is _textbook_weyl_verdict(broken) is False
        empty = dataclasses.replace(cfg, coords=())
        assert empty.y.shape == (0, cfg.rs.rank)
        assert check_weyl_inclusion(cfg.rs, empty) is _textbook_weyl_verdict(empty) is True


def test_d5_class_is_searched_without_an_n_by_n_structure():
    """The 2,800-point D5 class a^2 = 40: its n x n Gram matrix alone would
    take 63 MB as int64, and the configuration, search, sift and orbits
    stay below that."""
    rs = build_root_system(RootSystemType("D", 5))
    cls = sphere_set(rs, WEIGHT, Q(40))
    tracemalloc.start()
    try:
        cfg = shifted_config(rs, cls)
        grp = stabilizer_group(cfg, point_cap=5000, rank_cap=8)
        n_orbits = len(orbits(cfg, grp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cfg.size, len(grp), n_orbits) == (2800, 3840, 5)
    assert peak < 64 * 2**20


RANK4 = [("D", 14, 192), ("B", 30, 576), ("C", 15, 576)]


@pytest.mark.parametrize("family,a_sq,points", RANK4)
def test_rank4_orders_match_full_reference(family, a_sq, points):
    rs = build_root_system(RootSystemType(family, 4))
    cfg = _config(rs, a_sq)
    assert cfg.size == points
    grp = stabilizer_group(cfg, point_cap=600)
    assert len(grp) == len(full_stabilizer(cfg)) == 1152
    assert len(orbits(cfg, grp)) == 1


def test_select_basis_matches_reference():
    systems = [(A2, 60), (B2, 60), (G2, 60), (A3, 40), (B3, 40), (C3, 40)]
    systems += [(build_root_system(RootSystemType(f, 4)), cap) for f, cap in (("D", 14), ("B", 21), ("C", 20))]
    configs = [cfg for rs, cap in systems for cfg in _configs_up_to(rs, cap)]
    assert len(configs) == 155
    for cfg in configs:
        assert _select_basis(cfg) == first_spanning_points(cfg), (cfg.rs.typ, cfg.a_sq)


def test_dropping_any_strong_generator_fails_the_sift():
    cases = 0
    for cfg in _reference_classes():
        grp = stabilizer_group(cfg, point_cap=cfg.size)
        _check_strong_generators(grp, cfg.size)
        for i in range(len(grp.gens)):
            dropped = PermGroup(grp.base, grp.gens[:i] + grp.gens[i + 1 :], grp.orbit_lengths)
            with pytest.raises(InternalConsistencyError):
                _check_strong_generators(dropped, cfg.size)
            cases += 1
    assert cases == 236


def test_sift_rejects_wrong_orbit_lengths_and_a_foreign_generator():
    cfg = _config(B3, Q(35, 4))
    grp = stabilizer_group(cfg)
    doubled = PermGroup(grp.base, grp.gens, grp.orbit_lengths[:-1] + (2 * grp.orbit_lengths[-1],))
    with pytest.raises(InternalConsistencyError, match="transversals do not match"):
        _check_strong_generators(doubled, cfg.size)
    # A generator of the base-point stabilizer that is not the identity:
    # the base images of the identity, yet a point moves.
    n = cfg.size
    moved = next(i for i in range(n) if i not in grp.base)
    other = next(i for i in range(n) if i not in grp.base and i != moved)
    swap = list(range(n))
    swap[moved], swap[other] = other, moved
    foreign = PermGroup(grp.base, grp.gens + (tuple(swap),), grp.orbit_lengths)
    with pytest.raises(InternalConsistencyError, match="sift"):
        _check_strong_generators(foreign, cfg.size)


def test_every_generator_with_two_images_swapped_is_rejected():
    for (rs, a_sq), (scale, dtype) in itertools.product(((B2, Q(25, 2)), (B3, Q(35, 4)), (A3, Q(17)), (G2, Q(98, 3))), SCALES):
        cfg = _scaled(_config(rs, a_sq), scale)
        assert cfg.fy.dtype == dtype
        grp = stabilizer_group(cfg)
        for p in grp.gens:
            _certify(cfg, grp.base, p)
            i = next(i for i in range(cfg.size) if p[i] != i)
            j = next(j for j in range(cfg.size) if j != i and p[j] != p[i])
            swapped = list(p)
            swapped[i], swapped[j] = p[j], p[i]
            with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
                _certify(cfg, grp.base, tuple(swapped))
            assert not gram_preserved(cfg, tuple(swapped))


def _sift_verdict(check, group, n):
    """'accepted', or the message of the InternalConsistencyError raised."""
    try:
        check(group, n)
    except InternalConsistencyError as exc:
        return str(exc)
    return "accepted"


def _same_sift_verdict(group, n):
    """The verdict of the sift, which must be the reference sift's."""
    verdict = _sift_verdict(_check_strong_generators, group, n)
    assert verdict == _sift_verdict(reference_sift, group, n), (group.base, group.orbit_lengths)
    return verdict


def _sift_mutations(grp, n):
    """The dropped-generator, doubled-length and foreign-generator mutations
    of the sift tests above."""
    for i in range(len(grp.gens)):
        yield "dropped", PermGroup(grp.base, grp.gens[:i] + grp.gens[i + 1 :], grp.orbit_lengths)
    yield "doubled", PermGroup(grp.base, grp.gens, grp.orbit_lengths[:-1] + (2 * grp.orbit_lengths[-1],))
    moved, other = [i for i in range(n) if i not in grp.base][:2]
    swap = list(range(n))
    swap[moved], swap[other] = other, moved
    yield "foreign", PermGroup(grp.base, grp.gens + (tuple(swap),), grp.orbit_lengths)


def test_sift_matches_the_reference_sift(monkeypatch):
    inverted = []
    real = hidden._inverse
    monkeypatch.setattr(hidden, "_inverse", lambda perm: inverted.append(perm) or real(perm))
    verdicts = Counter()
    for cfg in _reference_classes():
        grp = stabilizer_group(cfg, point_cap=cfg.size)
        verdicts["valid", _same_sift_verdict(grp, cfg.size)] += 1
        for kind, mutant in _sift_mutations(grp, cfg.size):
            verdicts[kind, _same_sift_verdict(mutant, cfg.size)] += 1
    sifted = "a Schreier generator does not sift to the identity"
    lengths = "stabilizer transversals do not match the orbits searched"
    assert verdicts == {
        ("valid", "accepted"): 105,
        ("dropped", lengths): 236,
        ("doubled", lengths): 105,
        # A foreign generator fixes the base, so a sift of base images can
        # miss it, the reference's as well; the package's generators are
        # isometries, fixed by their base images (_check_gram).
        ("foreign", sifted): 81,
        ("foreign", lengths): 20,
        ("foreign", "accepted"): 4,
    }
    # A3 a^2 = 17 has a nontrivial level 1: its sift inverts transversal elements on demand.
    cfg = _config(A3, Q(17))
    grp = stabilizer_group(cfg)
    assert grp.orbit_lengths == (24, 2, 1)
    inverted.clear()
    assert _same_sift_verdict(grp, cfg.size) == "accepted"
    assert inverted


def _reflection_dihedral(n):
    """The dihedral group of the regular n-gon, generated by the reflections
    i -> -i and i -> 1 - i, with base (0, 1).  Its breadth-first transversal
    of level 0 is the path 0, 1, n-1, 2, n-2, ..., n/2 of depth n - 1."""
    return PermGroup((0, 1), (tuple(-i % n for i in range(n)), tuple((1 - i) % n for i in range(n))), (n, 2))


def _inverse_depths(group):
    """The transversal depths of the points y whose u_y^-1 a Schreier
    generator u_x s u_y^-1 of level 0 needs (u_x s not u_y), in sift order."""
    b = group.base[0]
    transversal = {b: (group.base, 0)}
    queue = [b]
    for x in queue:
        img, depth = transversal[x]
        for s in group.gens:
            if s[x] not in transversal:
                transversal[s[x]] = (tuple(map(s.__getitem__, img)), depth + 1)
                queue.append(s[x])
    images = (tuple(map(s.__getitem__, img)) for img, _ in transversal.values() for s in group.gens)
    return [transversal[image[0]][1] for image in images if image != transversal[image[0]][0]]


def test_sift_inverts_deeper_than_the_recursion_limit():
    n = 1100
    deep = sys.getrecursionlimit()
    assert n - 1 > deep
    valid = _reflection_dihedral(n)
    assert _inverse_depths(valid) == [0, n - 1]
    assert _same_sift_verdict(valid, n) == "accepted"
    # The first reflection with the images of n/2 - 3 and n/2 + 5 swapped
    # keeps both orbit lengths, and the first Schreier generator that does
    # not sift needs an inverse past the recursion limit.
    bad = list(valid.gens[0])
    a, b = n // 2 - 3, n // 2 + 5
    bad[a], bad[b] = bad[b], bad[a]
    mutant = PermGroup(valid.base, (tuple(bad), valid.gens[1]), valid.orbit_lengths)
    assert _inverse_depths(mutant)[:2] == [0, n - 8]
    assert _same_sift_verdict(mutant, n) == "a Schreier generator does not sift to the identity"
