"""Stabilizers of shifted eigenvalue spheres, orbits, Weyl inclusion."""

import dataclasses
import itertools
import sys
from fractions import Fraction as Q
from operator import mul

import pytest

from ambient import mat_scale, mat_sub, matmul, matvec, reference, transpose, vadd
from permref import elements, full_stabilizer, select_basis
from casimir_lab import ratlinalg as rl
from casimir_lab import rootsys
from casimir_lab.errors import CapExceeded, InternalConsistencyError
from casimir_lab.hidden import (
    PermGroup,
    _check_gram,
    _check_strong_generators,
    _select_basis,
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


# 10^10 times a point of a small class has coordinates past the int64 bound
# of ShiftedConfig, so its array holds Python ints.
OBJECT_SCALE = 10**10
# Each certificate test runs on the class itself and on its object-path copy.
SCALES = ((1, "int64"), (OBJECT_SCALE, "object"))


def _scaled(cfg, k):
    """cfg with every point multiplied by k: the Gram matrix times k^2, so
    the same stabilizer."""
    return dataclasses.replace(cfg, a_sq=cfg.a_sq * k * k, coords=tuple(tuple(k * c for c in y) for y in cfg.coords))


def _gram_by_entries(cfg):
    """y_i . (G y_j) in Python ints, one entry at a time."""
    g = cfg.rs.gram_fw_int[1]
    images = [tuple(sum(map(mul, row, y)) for row in g) for y in cfg.coords]
    return [[sum(map(mul, y, gz)) for gz in images] for y in cfg.coords]


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
    for cls in classes_up_to(A1, WEIGHT, Q(40)):
        cfg = shifted_config(A1, cls)
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
        for cls in classes_up_to(rs, WEIGHT, cap):
            cfg = shifted_config(rs, cls)
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
    calls = _count_weyl_orbit_calls(monkeypatch, result=set())
    assert check_weyl_inclusion(rs, broken) is False
    assert calls == []
    with pytest.raises(InternalConsistencyError, match="enumerated 0 Weyl elements, expected 8"):
        check_weyl_inclusion(rs, cfg)


def test_weyl_orbit_identity_is_enumerated_once_per_root_system(monkeypatch):
    cfg = _config(B2, Q(13, 2))
    rs = _fresh(B2)
    calls = _count_weyl_orbit_calls(monkeypatch)
    assert [check_weyl_inclusion(rs, cfg) for _ in range(3)] == [True] * 3
    assert calls == [((1, 1),)]
    assert rs.delta_orbit_size == 8
    # a failing identity is not kept: it raises on every call, and enumerates every time
    rs = _fresh(B2)
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
        assert cfg.gram_int.dtype == dtype
        p = stabilizer_group(cfg).gens[0]
        _check_gram(cfg, p)
        phi = _reference_matrix(cfg, p)
        assert _is_isometry(cfg, phi, p)
        swapped = (p[1], p[0]) + p[2:]
        with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
            _check_gram(cfg, swapped)
        assert not _is_isometry(cfg, phi, swapped)
        assert not _is_isometry(cfg, _reference_matrix(cfg, swapped), swapped)
        assert not _is_isometry(cfg, mat_scale(2, phi), p)


def test_gram_certificate_rejects_every_swapped_element():
    cfg = _config(B2, Q(25, 2))
    grp = stabilizer_group(cfg)
    assert len(grp) == 8
    for p in _elements(cfg, grp):
        _check_gram(cfg, p)
        with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
            _check_gram(cfg, (p[1], p[0]) + p[2:])


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
        for cls in classes_up_to(rs, WEIGHT, Q(cap)):
            yield shifted_config(rs, cls)


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


def test_gram_matches_the_entrywise_dot_products():
    """gram_int, an array product, equals y_i . (G y_j) taken one entry at
    a time in Python ints, on every A2/B2/G2 class with a^2 <= 60 and every
    48-point B3 class with a^2 <= 21."""
    configs = [shifted_config(rs, cls) for rs in (A2, B2, G2) for cls in classes_up_to(rs, WEIGHT, Q(60))]
    b3 = [cfg for cfg in (shifted_config(B3, cls) for cls in classes_up_to(B3, WEIGHT, Q(21))) if cfg.size == 48]
    assert [cfg.a_sq for cfg in b3] == [Q(35, 4), 14, 21]
    for cfg in configs + b3:
        assert cfg.gram_int.shape == (cfg.size, cfg.size)
        assert cfg.gram_int.tolist() == cfg.gram_rows == _gram_by_entries(cfg)


def test_desk_scale_classes_take_the_int64_path():
    rank4 = [_config(build_root_system(RootSystemType(f, 4)), a_sq) for f, a_sq, _ in RANK4]
    configs = list(_reference_classes()) + rank4
    assert len(configs) == 105 + 3
    for cfg in configs:
        assert cfg.y.dtype == cfg.fy.dtype == cfg.gram_int.dtype == "int64", (cfg.rs.typ, cfg.a_sq)


def test_int64_bound_is_exact_at_its_edge():
    """On A1, den G = (1) and the bound is y^2 < 2^63: y = 3037000499 is the
    last int64 class, and y = 3037000500, whose Gram entries y^2 do not fit
    in int64, takes the object path.  Both Gram matrices are the Python
    products, and both classes keep their order-2 group."""
    for y, a_sq, dtype in ((3037000499, Q(3037000499**2, 2), "int64"), (3037000500, Q(3037000500**2, 2), "object")):
        cfg = _config(A1, a_sq)
        assert cfg.coords == ((-y,), (y,))
        assert cfg.gram_int.dtype == dtype
        assert cfg.gram_rows == _gram_by_entries(cfg) == [[y * y, -y * y], [-y * y, y * y]]
        assert all(type(v) is int for row in cfg.gram_rows for v in row)
        assert len(stabilizer_group(cfg)) == 2
    # Past the bound in rank 3 too: the stabilizer and Gram matrix are unchanged by scaling.
    cfg = _config(B3, Q(35, 4))
    big = _scaled(cfg, OBJECT_SCALE)
    assert big.gram_int.dtype == object
    assert big.gram_rows == _gram_by_entries(big)
    assert big.gram_rows == [[OBJECT_SCALE**2 * v for v in row] for row in cfg.gram_rows]
    assert _elements(big, stabilizer_group(big)) == _elements(cfg, stabilizer_group(cfg))


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
    configs = [shifted_config(rs, cls) for rs, cap in systems for cls in classes_up_to(rs, WEIGHT, Q(cap))]
    assert len(configs) == 155
    for cfg in configs:
        assert _select_basis(cfg) == select_basis(cfg), (cfg.rs.typ, cfg.a_sq)


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
        assert cfg.gram_int.dtype == dtype
        for p in stabilizer_group(cfg).gens:
            _check_gram(cfg, p)
            i = next(i for i in range(cfg.size) if p[i] != i)
            j = next(j for j in range(cfg.size) if j != i and p[j] != p[i])
            swapped = list(p)
            swapped[i], swapped[j] = p[j], p[i]
            with pytest.raises(InternalConsistencyError, match="stabilizer permutation mismatch"):
                _check_gram(cfg, tuple(swapped))
