"""Representation arithmetic: dimensions, characters, tensor products, types."""

import itertools
import math

import pytest

from casimir_lab import reps
from casimir_lab.errors import CapExceeded, NonDominantWeight
from casimir_lab.reps import (
    KMode,
    RepType,
    adjoint_rep,
    bold_g_label,
    classify_type,
    dual_label,
    exterior_powers,
    invariant_dim,
    rep,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from casimir_lab.rootsys import RootSystemType, build_root_system, weyl_orbit
from repref import character_of_decomposition, decompose_character

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
B2 = build_root_system(RootSystemType("B", 2))
G2 = build_root_system(RootSystemType("G", 2))
B3 = build_root_system(RootSystemType("B", 3))


def _total_dim(rs, decomposition):
    return sum(m * weyl_dim(rep(rs, c)) for c, m in decomposition.items())


def test_weyl_dims_small_table():
    assert [weyl_dim(rep(A1, (m,))) for m in range(6)] == [1, 2, 3, 4, 5, 6]
    assert weyl_dim(rep(A2, (1, 0))) == 3
    assert weyl_dim(rep(A2, (1, 1))) == 8
    assert weyl_dim(rep(A2, (8, 0))) == 45
    assert weyl_dim(rep(A2, (5, 4))) == 165
    assert weyl_dim(rep(B2, (1, 0))) == 5
    assert weyl_dim(rep(B2, (0, 1))) == 4
    assert weyl_dim(adjoint_rep(B2)) == 10
    assert weyl_dim(rep(G2, (1, 0))) == 7
    assert weyl_dim(adjoint_rep(G2)) == 14


def test_weight_multiplicities_sum_to_dimension():
    for r in (rep(A2, (2, 1)), rep(B2, (1, 1)), rep(G2, (1, 0)), rep(A1, (5,))):
        wm = weight_multiplicities(r)
        assert sum(wm.values()) == weyl_dim(r)
        # Weyl-invariance: every weight carries its whole orbit at equal mult
        for w, m in wm.items():
            assert all(wm.get(o) == m for o in weyl_orbit(r.rs, w))


def test_adjoint_weights_are_roots_plus_zero():
    adj = adjoint_rep(A2)
    wm = weight_multiplicities(adj)
    assert wm[(0, 0)] == 2  # Cartan multiplicity = rank
    assert wm[(1, 1)] == 1


def test_g2_seven_dim_zero_weight():
    wm = weight_multiplicities(rep(G2, (1, 0)))
    assert wm[(0, 0)] == 1  # short-root rep has a single zero weight


def test_tensor_small_cases():
    # Clebsch-Gordan on A1
    got = tensor_decompose(rep(A1, (2,)), rep(A1, (3,)))
    assert got == {(1,): 1, (3,): 1, (5,): 1}
    # 3 (x) 3bar = 8 + 1, and 3 (x) 3 = 6 + 3bar
    assert tensor_decompose(rep(A2, (1, 0)), rep(A2, (0, 1))) == {(1, 1): 1, (0, 0): 1}
    assert tensor_decompose(rep(A2, (1, 0)), rep(A2, (1, 0))) == {(2, 0): 1, (0, 1): 1}
    # adjoint (x) adjoint on A2 contains the adjoint twice
    sq = tensor_decompose(adjoint_rep(A2), adjoint_rep(A2))
    assert sq.get((1, 1)) == 2
    assert sq.get((0, 0)) == 1


def _convolution_tensor(a, b):
    """Independent route: multiply full characters, peel highest weights."""
    rs = a.rs
    ca = character_of_decomposition(rs, {a.highest: 1})
    cb = character_of_decomposition(rs, {b.highest: 1})
    prod = {}
    for w1, m1 in ca.items():
        for w2, m2 in cb.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            prod[w] = prod.get(w, 0) + m1 * m2
    return decompose_character(rs, prod)


def test_tensor_matches_convolution_oracle():
    pairs = []
    for m in range(6):
        for n in range(m, 6):
            if (m + 1) * (n + 1) <= 30:
                pairs.append((rep(A1, (m,)), rep(A1, (n,))))
    small_a2 = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    for i, c1 in enumerate(small_a2):
        for c2 in small_a2[i:]:
            v, w = rep(A2, c1), rep(A2, c2)
            if weyl_dim(v) * weyl_dim(w) <= 200:
                pairs.append((v, w))
    for v, w in pairs:
        got = tensor_decompose(v, w)
        assert got == _convolution_tensor(v, w)
        # dimension bookkeeping
        assert _total_dim(v.rs, got) == weyl_dim(v) * weyl_dim(w)


def test_dual_labels():
    assert dual_label(rep(A2, (3, 1))).highest == (1, 3)
    assert dual_label(rep(B2, (2, 1))).highest == (2, 1)
    assert dual_label(rep(A1, (4,))).highest == (4,)


def _type_by_invariant_form(r):
    """Independent oracle: a self-dual irreducible is real or quaternionic
    according to whether its invariant bilinear form is symmetric (trivial
    rep inside Sym^2 V) or antisymmetric (inside Lambda^2 V)."""
    rs = r.rs
    if dual_label(r).highest != r.highest:
        return RepType.COMPLEX
    zero = (0,) * rs.rank
    wedge = exterior_powers(r, 2)[2].get(zero, 0)
    square = tensor_decompose(r, r).get(zero, 0)
    sym = square - wedge  # trivial multiplicity in Sym^2 = total - alternating
    assert sym + wedge == 1 and {sym, wedge} <= {0, 1}
    return RepType.REAL if sym == 1 else RepType.QUATERNIONIC


def test_classify_type_matches_invariant_form_oracle():
    samples = [rep(A1, (m,)) for m in range(6)]
    samples += [rep(A2, c) for c in ((0, 0), (1, 0), (1, 1), (2, 2), (3, 0))]
    samples += [rep(B2, c) for c in ((1, 0), (0, 1), (1, 1), (0, 3), (2, 0))]
    samples += [rep(G2, c) for c in ((1, 0), (0, 1), (1, 1))]
    for r in samples:
        assert classify_type(r) is _type_by_invariant_form(r)


def test_known_types():
    assert classify_type(rep(A1, (1,))) is RepType.QUATERNIONIC
    assert classify_type(rep(A1, (2,))) is RepType.REAL
    assert classify_type(rep(A2, (1, 0))) is RepType.COMPLEX
    assert classify_type(rep(B2, (0, 1))) is RepType.QUATERNIONIC  # B2 ~ C2 spin rep
    assert classify_type(rep(B2, (1, 0))) is RepType.REAL
    assert classify_type(rep(G2, (1, 0))) is RepType.REAL


def test_bold_g_label():
    assert bold_g_label([classify_type(rep(A1, (2,))), classify_type(rep(G2, (1, 0)))]) == "G"
    assert bold_g_label([classify_type(rep(A1, (2,))), classify_type(rep(A1, (1,)))]) == "Q8xG"
    assert bold_g_label([classify_type(rep(A2, (1, 0)))]) == "Q8xG"
    assert bold_g_label([RepType.REAL, RepType.COMPLEX]) == "Q8xG"
    assert bold_g_label([RepType.QUATERNIONIC]) == "Q8xG"
    assert bold_g_label([]) == "G"


def test_exterior_powers_of_adjoint():
    # su(2): [triv, adj, adj, triv]
    ext = exterior_powers(adjoint_rep(A1), 3)
    assert ext == [{(0,): 1}, {(2,): 1}, {(2,): 1}, {(0,): 1}]
    # dimensions always match binomials of dim V
    adj2 = adjoint_rep(A2)
    for p, e in enumerate(exterior_powers(adj2, 4)):
        assert _total_dim(A2, e) == math.comb(8, p)
    # frozen: Lambda^2 of the A2 adjoint = adjoint + (3,0) + (0,3)
    assert exterior_powers(adj2, 2)[2] == {(1, 1): 1, (3, 0): 1, (0, 3): 1}


def _wedge_character(r, p):
    """Independent route: the character of Lambda^p V as the sums of the
    p-element subsets of the weights of V, listed with multiplicity."""
    weights = [w for w, m in weight_multiplicities(r).items() for _ in range(m)]
    char = {}
    for subset in itertools.combinations(weights, p):
        w = tuple(map(sum, zip(*subset))) if subset else (0,) * r.rs.rank
        char[w] = char.get(w, 0) + 1
    return char


def test_exterior_powers_match_the_peeled_characters():
    samples = [rep(A2, c) for c in ((1, 0), (1, 1), (2, 0), (2, 1))]
    samples += [rep(B2, c) for c in ((1, 0), (0, 1), (0, 2), (1, 1))]
    samples += [rep(G2, c) for c in ((1, 0), (0, 1))]
    samples += [rep(B3, c) for c in ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    for r in samples:
        got = exterior_powers(r, 3)
        for p in range(4):
            assert got[p] == decompose_character(r.rs, _wedge_character(r, p)), (r, p)
            assert _total_dim(r.rs, got[p]) == math.comb(weyl_dim(r), p)


def test_invariant_dim_trivial_mode():
    u = {(0, 0): 1}
    assert invariant_dim(rep(A2, (1, 1)), u, KMode.TRIVIAL) == 8
    two = {(0, 0): 1, (1, 1): 1}
    assert invariant_dim(rep(A2, (1, 0)), two, KMode.TRIVIAL) == 3 * 9


def test_invariant_dim_diagonal_mode():
    v = rep(A2, (1, 0))
    # (V (x) V*)^diag = Hom_G(V, V) = C
    assert invariant_dim((v, dual_label(v)), {(0, 0): 1}, KMode.DIAGONAL) == 1
    # (V (x) V)^diag = 0 because V (x) V has no trivial constituent
    assert invariant_dim((v, v), {(0, 0): 1}, KMode.DIAGONAL) == 0
    # against the adjoint: multiplicity of adj* in V (x) V*
    adj_u = {(1, 1): 1}
    assert invariant_dim((v, dual_label(v)), adj_u, KMode.DIAGONAL) == 1


def test_invariant_dim_torus_mode():
    v = rep(A1, (2,))
    assert weight_multiplicities(v) == {(2,): 1, (0,): 1, (-2,): 1}
    assert invariant_dim(v, {(0,): 1}, KMode.TORUS) == 1
    assert invariant_dim(v, {(2,): 1}, KMode.TORUS) == 1  # pairs with weight -2
    assert invariant_dim(rep(A1, (1,)), {(0,): 1}, KMode.TORUS) == 0
    assert invariant_dim(rep(A1, (1,)), {(1,): 2}, KMode.TORUS) == 2


def test_nondominant_rejected():
    with pytest.raises(NonDominantWeight, match=r"^highest weight \(1, -1\) must be dominant$"):
        rep(A2, (1, -1))


def test_decompositions_hold_no_zero_entries():
    # The signed-reflection sums of the exterior powers of G2's 7, A2's
    # adjoint and B3's spin rep cancel to 0 on some highest weights; those
    # must be absent, not listed with 0.
    samples = [rep(B2, (0, 1)), rep(G2, (1, 0)), rep(A2, (1, 1)), rep(B3, (0, 0, 1))]
    for r in samples:
        for d in [tensor_decompose(r, r), *exterior_powers(r, 3)]:
            assert d and all(m > 0 for m in d.values()), (r, d)
            assert all(min(c) >= 0 for c in d)
    assert invariant_dim(rep(A2, (1, 0)), {}, KMode.TRIVIAL) == 0


def test_weight_tables_are_capped(monkeypatch):
    r = rep(B2, (2, 2))
    n = len(weight_multiplicities(r))
    reps._full_weight_multiplicities.cache_clear()
    monkeypatch.setattr(reps, "WEIGHT_TABLE_CAP", n - 1)
    with pytest.raises(CapExceeded) as exc:
        weight_multiplicities(r)
    assert exc.value.what == "weight table size" and exc.value.limit == n - 1 < exc.value.actual
    monkeypatch.setattr(reps, "WEIGHT_TABLE_CAP", n)
    assert len(weight_multiplicities(r)) == n
