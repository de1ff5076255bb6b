"""Representation arithmetic: dimensions, characters, tensor products, types."""

import ast
import itertools
import math
from pathlib import Path

import pytest

from casimir_lab import reps
from casimir_lab.errors import CapExceeded, NonDominantWeight
from casimir_lab.reps import (
    KMode,
    RepType,
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
from casimir_lab.rootsys import RootSystemType, build_root_system, dominant_fw_coords, weyl_orbit
from casimir_lab.weights import LatticeChoice, enumerate_dominant
from repref import character_of_decomposition, decompose_character, diagonal_invariant_dim, weyl_dim_by_form

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
B2 = build_root_system(RootSystemType("B", 2))
G2 = build_root_system(RootSystemType("G", 2))
B3 = build_root_system(RootSystemType("B", 3))
A3 = build_root_system(RootSystemType("A", 3))


def _total_dim(rs, decomposition):
    return sum(m * weyl_dim(rs, c) for c, m in decomposition.items())


def _adjoint(rs):
    """The highest weight of the adjoint representation: the highest root."""
    return rs.positive_roots_fw[-1]


def test_weyl_dims_small_table():
    assert [weyl_dim(A1, (m,)) for m in range(6)] == [1, 2, 3, 4, 5, 6]
    assert weyl_dim(A2, (1, 0)) == 3
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(A2, (8, 0)) == 45
    assert weyl_dim(A2, (5, 4)) == 165
    assert weyl_dim(B2, (1, 0)) == 5
    assert weyl_dim(B2, (0, 1)) == 4
    assert weyl_dim(B2, _adjoint(B2)) == 10
    assert weyl_dim(G2, (1, 0)) == 7
    assert weyl_dim(G2, _adjoint(G2)) == 14


def test_weight_multiplicities_sum_to_dimension():
    for rs, mu in ((A2, (2, 1)), (B2, (1, 1)), (G2, (1, 0)), (A1, (5,))):
        wm = weight_multiplicities(rs, mu)
        assert sum(wm.values()) == weyl_dim(rs, mu)
        # Weyl-invariance: every weight carries its whole orbit at equal mult
        for w, m in wm.items():
            assert all(wm.get(o) == m for o in weyl_orbit(rs, w))


def test_adjoint_weights_are_roots_plus_zero():
    assert _adjoint(A2) == (1, 1)
    wm = weight_multiplicities(A2, _adjoint(A2))
    assert wm[(0, 0)] == 2  # Cartan multiplicity = rank
    assert wm[(1, 1)] == 1


def test_g2_seven_dim_zero_weight():
    wm = weight_multiplicities(G2, (1, 0))
    assert wm[(0, 0)] == 1  # short-root rep has a single zero weight


def test_tensor_small_cases():
    # Clebsch-Gordan on A1
    got = tensor_decompose(A1, (2,), (3,))
    assert got == {(1,): 1, (3,): 1, (5,): 1}
    # 3 (x) 3bar = 8 + 1, and 3 (x) 3 = 6 + 3bar
    assert tensor_decompose(A2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert tensor_decompose(A2, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}
    # adjoint (x) adjoint on A2 contains the adjoint twice
    sq = tensor_decompose(A2, _adjoint(A2), _adjoint(A2))
    assert sq.get((1, 1)) == 2
    assert sq.get((0, 0)) == 1


def _convolution_tensor(rs, a, b):
    """Independent route: multiply full characters, peel highest weights."""
    ca = character_of_decomposition(rs, {a: 1})
    cb = character_of_decomposition(rs, {b: 1})
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
                pairs.append((A1, (m,), (n,)))
    small_a2 = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    for i, v in enumerate(small_a2):
        for w in small_a2[i:]:
            if weyl_dim(A2, v) * weyl_dim(A2, w) <= 200:
                pairs.append((A2, v, w))
    for rs, v, w in pairs:
        got = tensor_decompose(rs, v, w)
        assert got == _convolution_tensor(rs, v, w)
        # dimension bookkeeping
        assert _total_dim(rs, got) == weyl_dim(rs, v) * weyl_dim(rs, w)


# Every supported type up to rank 8.
UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)]
    + [(fam, n) for fam in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _small_dominant_weights(rank):
    """Every dominant weight with coordinates at most 2, at most 1 past rank 4."""
    return itertools.product(range(3 if rank <= 4 else 2), repeat=rank)


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_weyl_dim_matches_the_form_product(fam, rank):
    rs = build_root_system(RootSystemType(fam, rank))
    for mu in _small_dominant_weights(rank):
        assert weyl_dim(rs, mu) == weyl_dim_by_form(rs, mu), mu


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_dual_label_matches_the_chamber_walk(fam, rank):
    rs = build_root_system(RootSystemType(fam, rank))
    for mu in _small_dominant_weights(rank):
        assert dual_label(rs, mu) == dominant_fw_coords(rs, tuple(-x for x in mu))[0], mu


def test_dual_labels():
    assert dual_label(A2, (3, 1)) == (1, 3)
    assert dual_label(A2, (1, 3)) == (3, 1)
    assert dual_label(B2, (2, 1)) == (2, 1)
    assert dual_label(G2, (2, 1)) == (2, 1)
    assert dual_label(A1, (4,)) == (4,)


def _type_by_invariant_form(rs, mu):
    """Independent oracle: V is self-dual exactly when V (x) V holds the
    trivial rep, and a self-dual irreducible is real or quaternionic
    according to whether its invariant bilinear form is symmetric (trivial
    rep inside Sym^2 V) or antisymmetric (inside Lambda^2 V)."""
    zero = (0,) * rs.rank
    square = tensor_decompose(rs, mu, mu).get(zero, 0)
    if not square:
        return RepType.COMPLEX
    wedge = exterior_powers(rs, mu, 2)[2].get(zero, 0)
    sym = square - wedge  # trivial multiplicity in Sym^2 = total - alternating
    assert sym + wedge == 1 and {sym, wedge} <= {0, 1}
    return RepType.REAL if sym == 1 else RepType.QUATERNIONIC


def test_classify_type_matches_invariant_form_oracle():
    samples = [(A1, (m,)) for m in range(6)]
    samples += [(A2, c) for c in ((0, 0), (1, 0), (1, 1), (2, 2), (3, 0))]
    samples += [(B2, c) for c in ((1, 0), (0, 1), (1, 1), (0, 3), (2, 0))]
    samples += [(G2, c) for c in ((1, 0), (0, 1), (1, 1))]
    for rs, mu in samples:
        assert classify_type(rs, mu) is _type_by_invariant_form(rs, mu)


@pytest.mark.parametrize("fam,rank", UP_TO_RANK_8, ids=[f"{f}{n}" for f, n in UP_TO_RANK_8])
def test_classify_type_matches_invariant_form_oracle_up_to_rank_8(fam, rank):
    """Every small dominant weight of dimension at most 300.  The oracle's
    weight tables of E8's trivial and adjoint reps pass the enumeration node
    cap; both reps are real."""
    rs = build_root_system(RootSystemType(fam, rank))
    for mu in _small_dominant_weights(rank):
        if weyl_dim(rs, mu) > 300:
            continue
        try:
            expected = _type_by_invariant_form(rs, mu)
        except CapExceeded:
            assert (fam, rank) == ("E", 8) and mu in ((0,) * 8, _adjoint(rs))
            expected = RepType.REAL
        assert classify_type(rs, mu) is expected, mu


def test_known_types():
    assert classify_type(A1, (1,)) is RepType.QUATERNIONIC
    assert classify_type(A1, (2,)) is RepType.REAL
    assert classify_type(A2, (1, 0)) is RepType.COMPLEX
    assert classify_type(B2, (0, 1)) is RepType.QUATERNIONIC  # B2 ~ C2 spin rep
    assert classify_type(B2, (1, 0)) is RepType.REAL
    assert classify_type(G2, (1, 0)) is RepType.REAL


def test_bold_g_label():
    assert bold_g_label([classify_type(A1, (2,)), classify_type(G2, (1, 0))]) == "G"
    assert bold_g_label([classify_type(A1, (2,)), classify_type(A1, (1,))]) == "Q8xG"
    assert bold_g_label([classify_type(A2, (1, 0))]) == "Q8xG"
    assert bold_g_label([RepType.REAL, RepType.COMPLEX]) == "Q8xG"
    assert bold_g_label([RepType.QUATERNIONIC]) == "Q8xG"
    assert bold_g_label([]) == "G"


def test_exterior_powers_of_adjoint():
    # su(2): [triv, adj, adj, triv]
    ext = exterior_powers(A1, _adjoint(A1), 3)
    assert ext == [{(0,): 1}, {(2,): 1}, {(2,): 1}, {(0,): 1}]
    # dimensions always match binomials of dim V
    adj2 = _adjoint(A2)
    for p, e in enumerate(exterior_powers(A2, adj2, 4)):
        assert _total_dim(A2, e) == math.comb(8, p)
    # frozen: Lambda^2 of the A2 adjoint = adjoint + (3,0) + (0,3)
    assert exterior_powers(A2, adj2, 2)[2] == {(1, 1): 1, (3, 0): 1, (0, 3): 1}


def _wedge_character(rs, mu, p):
    """Independent route: the character of Lambda^p V as the sums of the
    p-element subsets of the weights of V, listed with multiplicity."""
    weights = [w for w, m in weight_multiplicities(rs, mu).items() for _ in range(m)]
    char = {}
    for subset in itertools.combinations(weights, p):
        w = tuple(map(sum, zip(*subset))) if subset else (0,) * rs.rank
        char[w] = char.get(w, 0) + 1
    return char


def test_exterior_powers_match_the_peeled_characters():
    samples = [(A2, c) for c in ((1, 0), (1, 1), (2, 0), (2, 1))]
    samples += [(B2, c) for c in ((1, 0), (0, 1), (0, 2), (1, 1))]
    samples += [(G2, c) for c in ((1, 0), (0, 1))]
    samples += [(B3, c) for c in ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    for rs, mu in samples:
        got = exterior_powers(rs, mu, 3)
        for p in range(4):
            assert got[p] == decompose_character(rs, _wedge_character(rs, mu, p)), (mu, p)
            assert _total_dim(rs, got[p]) == math.comb(weyl_dim(rs, mu), p)


def test_invariant_dim_trivial_mode():
    u = KMode.TRIVIAL.read_ustar(A2, {(0, 0): 1})
    assert invariant_dim(A2, (1, 1), u) == 8
    two = KMode.TRIVIAL.read_ustar(A2, {(0, 0): 1, (1, 1): 1})
    assert invariant_dim(A2, (1, 0), two) == 3 * 9


def test_invariant_dim_checks_each_ustar_highest_weight():
    for mode in (KMode.TRIVIAL, KMode.DIAGONAL):
        with pytest.raises(NonDominantWeight, match=r"^highest weight \(1, -1\) must be dominant$"):
            mode.read_ustar(A2, {(1, -1): 1})


def test_invariant_dim_diagonal_mode():
    # mu is paired with its dual mu* = (0, 1): (V (x) V*)^diag = Hom_G(V, V) = C,
    # where the pair (V, V) would give 0, V (x) V having no trivial constituent
    assert invariant_dim(A2, (1, 0), KMode.DIAGONAL.read_ustar(A2, {(0, 0): 1})) == 1
    assert tensor_decompose(A2, (1, 0), (1, 0)).get((0, 0), 0) == 0
    # Schur: every block V^mu (x) V^mu* holds one invariant against U* trivial
    for rs, mu in ((A2, (2, 1)), (A2, (0, 3)), (A2, (1, 1)), (B2, (1, 1)), (G2, (0, 1))):
        assert invariant_dim(rs, mu, KMode.DIAGONAL.read_ustar(rs, {(0, 0): 1})) == 1, (rs.typ, mu)
    # against the adjoint: multiplicity of adj* in V (x) V*, twice on A2's adjoint itself
    adj_u = KMode.DIAGONAL.read_ustar(A2, {(1, 1): 1})
    assert invariant_dim(A2, (1, 0), adj_u) == 1
    assert invariant_dim(A2, (1, 1), adj_u) == 2


# (root system, cap on |mu + delta|^2) of the diagonal-mode reference.
DIAGONAL_REFERENCE_CAPS = [(A1, 30), (A2, 30), (B2, 30), (G2, 30), (A3, 14), (B3, 14)]


@pytest.mark.parametrize("rs,cap", DIAGONAL_REFERENCE_CAPS, ids=[rs.typ.label for rs, _ in DIAGONAL_REFERENCE_CAPS])
def test_invariant_dim_diagonal_mode_matches_the_dual_pair_reference(rs, cap):
    # Hom_G'(V^mu, V^mu (x) V^tau) against the V^tau* constituents of V^mu (x) V^mu*
    zero, one = (0,) * rs.rank, (1,) + (0,) * (rs.rank - 1)
    ustars = [{zero: 1}, {rs.positive_roots_fw[-1]: 1}, {one: 1, zero: 2}]
    low = itertools.product(range(2), repeat=rs.rank)
    quaternionic = [c for c in low if classify_type(rs, c) is RepType.QUATERNIONIC]
    assert quaternionic[:1] == {"A1": [(1,)], "B2": [(0, 1)]}.get(rs.typ.label, [])
    ustars += [{c: 1} for c in quaternionic[:1]]
    mus = enumerate_dominant(rs, LatticeChoice.WEIGHT, cap)
    assert (0,) * rs.rank in mus and len(mus) > 1
    for mults in ustars:
        u = KMode.DIAGONAL.read_ustar(rs, mults)
        got = [invariant_dim(rs, mu, u) for mu in mus]
        assert got == [diagonal_invariant_dim(rs, mu, u.summands) for mu in mus], mults
        # a quaternionic tau is outside the root lattice, so V^mu (x) V^tau never holds V^mu
        assert any(got) is (mults.keys() != set(quaternionic[:1])), mults


def _k_mode_comparisons(path):
    """Line numbers of the comparisons in a module that involve a KMode
    member (KMode.X) or a value named kmode (kmode, args.kmode)."""
    members = {k.name for k in KMode}

    def names_a_mode(node):
        return any(
            (isinstance(n, ast.Attribute) and n.attr in members and getattr(n.value, "id", None) == "KMode")
            or getattr(n, "id", getattr(n, "attr", None)) == "kmode"
            for n in ast.walk(node)
        )

    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(names_a_mode, [node.left, *node.comparators]))
    ]


def test_spectra_and_cli_hold_no_k_mode_branch():
    # Every rule that depends on K lives behind reps.KMode and invariant_dim.
    package = Path(reps.__file__).parent
    assert {name: _k_mode_comparisons(package / f"{name}.py") for name in ("spectra", "cli")} == {"spectra": [], "cli": []}
    assert _k_mode_comparisons(package / "reps.py")  # the scan sees the comparisons reps holds


def test_invariant_dim_torus_mode():
    v = (2,)
    assert weight_multiplicities(A1, v) == {(2,): 1, (0,): 1, (-2,): 1}
    assert invariant_dim(A1, v, KMode.TORUS.read_ustar(A1, {(0,): 1})) == 1
    assert invariant_dim(A1, v, KMode.TORUS.read_ustar(A1, {(2,): 1})) == 1  # pairs with weight -2
    assert invariant_dim(A1, (1,), KMode.TORUS.read_ustar(A1, {(0,): 1})) == 0
    assert invariant_dim(A1, (1,), KMode.TORUS.read_ustar(A1, {(1,): 2})) == 2


def test_nondominant_rejected():
    with pytest.raises(NonDominantWeight, match=r"^highest weight \(1, -1\) must be dominant$"):
        rep(A2, (1, -1))
    assert rep(A2, [1, 2]) == (1, 2)


def test_decompositions_hold_no_zero_entries():
    # The signed-reflection sums of the exterior powers of G2's 7, A2's
    # adjoint and B3's spin rep cancel to 0 on some highest weights; those
    # must be absent, not listed with 0.
    samples = [(B2, (0, 1)), (G2, (1, 0)), (A2, (1, 1)), (B3, (0, 0, 1))]
    for rs, mu in samples:
        for d in [tensor_decompose(rs, mu, mu), *exterior_powers(rs, mu, 3)]:
            assert d and all(m > 0 for m in d.values()), (mu, d)
            assert all(min(c) >= 0 for c in d)
    assert invariant_dim(A2, (1, 0), KMode.TRIVIAL.read_ustar(A2, {})) == 0


def test_weight_tables_are_capped(monkeypatch):
    n = len(weight_multiplicities(B2, (2, 2)))
    reps._full_weight_multiplicities.cache_clear()
    monkeypatch.setattr(reps, "WEIGHT_TABLE_CAP", n - 1)
    with pytest.raises(CapExceeded) as exc:
        weight_multiplicities(B2, (2, 2))
    assert exc.value.what == "weight table size" and exc.value.limit == n - 1 < exc.value.actual
    monkeypatch.setattr(reps, "WEIGHT_TABLE_CAP", n)
    assert len(weight_multiplicities(B2, (2, 2))) == n
