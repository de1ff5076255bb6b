"""Stabilizers of shifted eigenvalue spheres, orbits, Weyl inclusion."""

import dataclasses
from fractions import Fraction as Q

import pytest

from casimir_lab import ratlinalg as rl
from casimir_lab.errors import CapExceeded, InternalConsistencyError
from casimir_lab.hidden import (
    _check_isometry,
    check_transitivity,
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from casimir_lab.ratlinalg import identity, matmul, matvec, transpose
from casimir_lab.rootsys import RootSystemType, build_root_system, weyl_group
from casimir_lab.weights import LatticeChoice, classes_up_to, sphere_set

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
B2 = build_root_system(RootSystemType("B", 2))
G2 = build_root_system(RootSystemType("G", 2))
A3 = build_root_system(RootSystemType("A", 3))
B3 = build_root_system(RootSystemType("B", 3))
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


def _config(rs, a_sq):
    return shifted_config(rs, sphere_set(rs, WEIGHT, Q(a_sq)))


def test_hexagon_full_dihedral():
    cfg = _config(A2, 8)
    assert cfg.size == 6
    grp = stabilizer_group(cfg)
    assert len(grp) == 12
    assert check_transitivity(cfg, grp)
    ok, witnesses = check_weyl_inclusion(A2, cfg)
    assert ok and len(witnesses) == 6
    # the Weyl group is a proper subgroup here: only 6 of the 12 permutations
    weyl_perms = {p for _, p in witnesses}
    stab_perms = {g.permutation for g in grp}
    assert weyl_perms < stab_perms


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
        got = sorted(g.permutation for g in stabilizer_group(cfg))
        assert got == _gram_automorphisms(cfg.gram)


def test_group_axioms_and_exactness():
    cfg = _config(B2, Q(13, 2))
    grp = stabilizer_group(cfg)
    perms = {g.permutation for g in grp}
    assert tuple(range(cfg.size)) in perms
    for g in grp:
        d = len(g.matrix)
        assert matmul(transpose(g.matrix), g.matrix) == identity(d)
        for i, p in enumerate(cfg.points):
            assert matvec(g.matrix, p) == cfg.points[g.permutation[i]]
        # closure under composition (on permutations)
        for h in grp:
            comp = tuple(g.permutation[h.permutation[i]] for i in range(cfg.size))
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
        grp = stabilizer_group(cfg)
        orbs = orbits(cfg, grp)
        assert len(orbs) == 2, (rs.typ, a_sq)
        assert not check_transitivity(cfg, grp)
        ok, _ = check_weyl_inclusion(rs, cfg)
        assert ok
        # orbits partition the points
        assert sorted(i for o in orbs for i in o) == list(range(cfg.size))


def test_transitive_everywhere_small_a1():
    for cls in classes_up_to(A1, WEIGHT, Q(40)):
        cfg = shifted_config(A1, cls)
        grp = stabilizer_group(cfg)
        assert check_transitivity(cfg, grp)
        assert len(grp) == 2  # {1, -1} on a rank-1 span


def test_two_point_class():
    cfg = _config(A1, Q(1, 2))  # exactly {delta, -delta}
    assert cfg.size == 2
    assert cfg.points[0] == tuple(-c for c in cfg.points[1])
    grp = stabilizer_group(cfg)
    assert sorted(g.permutation for g in grp) == [(0, 1), (1, 0)]
    assert check_transitivity(cfg, grp)


def test_radius_zero_single_point():
    cfg = _config(A1, 0)
    assert cfg.size == 1
    assert set(cfg.points[0]) == {Q(0)}
    grp = stabilizer_group(cfg)
    assert len(grp) == 1
    assert orbits(cfg, grp) == [(0,)]


def test_weyl_inclusion_across_systems():
    for rs, cap in ((A2, Q(20)), (B2, Q(15)), (G2, Q(15))):
        for cls in classes_up_to(rs, WEIGHT, cap):
            cfg = shifted_config(rs, cls)
            ok, witnesses = check_weyl_inclusion(rs, cfg)
            assert ok
            assert len(witnesses) == len(weyl_group(rs))


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
        got = sorted(g.permutation for g in stabilizer_group(cfg))
        assert got == _gram_automorphisms(cfg.gram)


def test_weyl_witnesses_match_matrix_reference():
    for rs, a_sq in ((A2, Q(98, 3)), (B2, Q(25, 2)), (G2, Q(26, 3)), (B3, Q(35, 4)), (A1, 0)):
        cfg = _config(rs, a_sq)
        index = {p: i for i, p in enumerate(cfg.points)}
        reference = [
            (w.word, tuple(index[w.apply(p)] for p in cfg.points)) for w in weyl_group(rs)
        ]
        ok, witnesses = check_weyl_inclusion(rs, cfg)
        assert ok
        assert witnesses == reference


def test_weyl_inclusion_fails_without_one_point():
    cfg = _config(B2, Q(13, 2))
    keep = range(1, cfg.size)
    broken = dataclasses.replace(
        cfg,
        coords=cfg.coords[1:],
        gram_int=tuple(tuple(cfg.gram_int[i][j] for j in keep) for i in keep),
    )
    assert broken.size == cfg.size - 1
    assert check_weyl_inclusion(B2, broken) == (False, [])


def test_weyl_inclusion_cap_refused():
    cfg = _config(G2, Q(26, 3))
    with pytest.raises(CapExceeded) as ei:
        check_weyl_inclusion(G2, cfg, weyl_cap=11)
    assert (ei.value.actual, ei.value.limit) == (12, 11)


def test_non_generator_matrix_is_exact():
    cfg = _config(B3, Q(35, 4))
    grp = stabilizer_group(cfg)
    # Only the generators' matrices are built (and checked) by stabilizer_group.
    built = [g for g in grp if "matrix" in vars(g)]
    assert 0 < len(built) and 2 ** len(built) <= len(grp)
    lazy = [g for g in grp if "matrix" not in vars(g)]
    d = len(cfg.points[0])
    for g in (lazy[0], lazy[len(lazy) // 2], lazy[-1]):
        assert matmul(transpose(g.matrix), g.matrix) == identity(d)
        for i, p in enumerate(cfg.points):
            assert matvec(g.matrix, p) == cfg.points[g.permutation[i]]


def test_generator_check_rejects_a_wrong_permutation():
    cfg = _config(B2, Q(25, 2))
    g = next(g for g in stabilizer_group(cfg) if "matrix" in vars(g))
    _check_isometry(cfg, g.matrix, g.permutation)
    p = g.permutation
    with pytest.raises(InternalConsistencyError):
        _check_isometry(cfg, g.matrix, (p[1], p[0]) + p[2:])
    with pytest.raises(InternalConsistencyError):
        _check_isometry(cfg, rl.mat_scale(2, g.matrix), p)
