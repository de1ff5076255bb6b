"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Each check measures its own runtime against the stated budget and prints a
single summary line through the capture barrier, so the verdicts are
visible in any pytest run.  Checks state what they require and fail
honestly when the library's exact computation disagrees.
"""

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from ambient import reference, vadd
from casimir_lab.hidden import (
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from casimir_lab.oplab import (
    GroupSpec,
    IrrepSpec,
    build_operator,
    certify,
    char_poly,
    diag_metric,
    enumerate_reps,
    multiplicity_at_float,
    numeric_spectrum,
    witness_sequence,
)
from casimir_lab.polyq import root_multiplicity_profile
from polyref import degree, leading, operator_matrix, rational_char_poly, rational_resultant, rpoly
from casimir_lab.reps import KMode, dual_label, tensor_decompose, weyl_dim
from casimir_lab.rootsys import RootSystemType, build_root_system
from casimir_lab.spectra import generic_estimate, hodge_rank1_check
from repref import character_of_decomposition, decompose_character
from casimir_lab.weights import (
    LatticeChoice,
    casimir_eigenvalue,
    classes_up_to,
    in_root_lattice,
    make_weight,
    sphere_set,
)

A1 = build_root_system(RootSystemType("A", 1))
A2 = build_root_system(RootSystemType("A", 2))
B2 = build_root_system(RootSystemType("B", 2))
G2 = build_root_system(RootSystemType("G", 2))
WEIGHT = LatticeChoice.WEIGHT
ROOT = LatticeChoice.ROOT


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, elapsed, budget, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {number:2d}] {status}  {elapsed:6.2f}s / {budget:.0f}s budget"
        if detail:
            line += f"  {detail}"
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_01_casimir_formula(announce):
    budget = 1.0
    t0 = time.monotonic()
    bad = []
    g = GroupSpec(1)
    ident = diag_metric([1, 1, 1])
    for m in range(13):
        lam = casimir_eigenvalue(A1, make_weight(A1, (m,)))
        if lam != Q(m * (m + 2), 2):
            bad.append((m, "formula", lam))
        op = build_operator(g, IrrepSpec((m,)), ident)
        matrix = operator_matrix(op)
        scalar = lam / 2
        for i in range(op.dim):
            for j in range(op.dim):
                expect = scalar if i == j else 0
                if matrix[i][j] != expect:
                    bad.append((m, "operator", (i, j)))
    elapsed = time.monotonic() - t0
    announce(1, not bad and elapsed < budget, elapsed, budget, "m = 0..12, eigenvalue and 2x operator")
    assert not bad, bad
    assert elapsed < budget


def test_criterion_02_rank1_uniqueness(announce):
    budget = 1.0
    t0 = time.monotonic()
    classes = classes_up_to(A1, WEIGHT, Q(200))
    bad = [(c.a_sq, len(c.dominant_members)) for c in classes if len(c.dominant_members) != 1]
    elapsed = time.monotonic() - t0
    announce(2, not bad and elapsed < budget, elapsed, budget, f"{len(classes)} classes, a^2 <= 200")
    assert len(classes) == 20
    assert not bad, bad
    assert elapsed < budget


def test_criterion_03_rank2_coincidence(announce):
    budget = 5.0
    t0 = time.monotonic()
    found = []
    for c in classes_up_to(A2, WEIGHT, Q(182, 3)):
        ms = c.dominant_members
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if dual_label(A2, ms[i]) != ms[j]:
                    found.append((c.a_sq, ms[i], ms[j]))
    elapsed = time.monotonic() - t0
    witness = [f for f in found if f[0] == Q(182, 3)]
    ok = bool(witness) and elapsed < budget
    announce(3, ok, elapsed, budget, f"non-dual pair at a^2 = 182/3: {witness[:1]}")
    assert witness, "no non-dual coincidence found up to 182/3"
    coords = {w for _, a, b in witness for w in (a, b)}
    assert (8, 0) in coords and (5, 4) in coords
    assert elapsed < budget


def test_criterion_04_transitivity(announce):
    budget = 60.0
    t0 = time.monotonic()
    violations = []
    checked = 0
    for rs in (A1, A2, B2, G2):
        for cls in classes_up_to(rs, WEIGHT, Q(40)):
            if cls.sphere_size > 60:
                continue
            checked += 1
            cfg = shifted_config(rs, sphere_set(rs, WEIGHT, cls.a_sq))
            grp = stabilizer_group(cfg)
            n_orbits = len(orbits(cfg, grp))
            if not check_weyl_inclusion(rs, cfg):
                violations.append((rs.typ.family + str(rs.typ.rank), cls.a_sq, "weyl"))
            if n_orbits != 1:
                violations.append((rs.typ.family + str(rs.typ.rank), cls.a_sq, f"{n_orbits} orbits"))
    elapsed = time.monotonic() - t0
    detail = f"{checked} classes"
    if violations:
        detail += "; NOT transitive: " + ", ".join(f"{f} a^2={a}" for f, a, _ in violations)
    announce(4, not violations and elapsed < budget, elapsed, budget, detail)
    # The claim under test: one orbit for every class in range.  The exact
    # stabilizer computation finds five classes with two orbits (each with
    # the Weyl group still included), so this assertion records a genuine
    # counterexample, not a software defect; see the class-by-class data in
    # the hidden-symmetry tests, which freeze the same five classes.
    assert not violations, violations
    assert elapsed < budget


def test_criterion_05_type_corollaries(announce):
    budget = 30.0
    t0 = time.monotonic()
    g = GroupSpec(1)
    bad = []
    for k in witness_sequence(3, 100, seed=2026):
        for m in (1, 3):
            profile = root_multiplicity_profile(char_poly(build_operator(g, IrrepSpec((m,)), k))[0])
            if any(mult % 2 for mult in profile):
                bad.append((m, k.kappa, profile))
    simple_witness = diag_metric([1, 2, 3])
    for m in (2, 4):
        profile = root_multiplicity_profile(char_poly(build_operator(g, IrrepSpec((m,)), simple_witness))[0])
        if profile != {1: m + 1}:
            bad.append((m, "no all-simple witness", profile))
    elapsed = time.monotonic() - t0
    announce(5, not bad and elapsed < budget, elapsed, budget,
             "100 seeded kappa even multiplicity (m odd); all-simple witness (m even)")
    assert not bad, bad[:3]
    assert elapsed < budget


def test_criterion_06_certificates(announce):
    budget = 120.0
    t0 = time.monotonic()
    su2 = certify(GroupSpec(1), rep_cap=4)
    torus = certify(GroupSpec(0, 2), rep_cap=3)
    elapsed = time.monotonic() - t0
    ok = su2.certified and torus.certified and elapsed < budget
    announce(6, ok, elapsed, budget,
             f"su2 cap4: {su2.status} ({len(su2.table)} values); "
             f"torus rank2 cap3: {torus.status} ({len(torus.table)} values)")
    assert su2.certified
    assert all(val != 0 for _, _, _, val in su2.table)
    assert torus.certified
    assert all(val != 0 for _, _, _, val in torus.table)
    assert elapsed < budget


def test_criterion_07_assembly_identity(announce):
    budget = 10.0
    ustar_dim = 4
    t0 = time.monotonic()
    g = GroupSpec(1)
    k = diag_metric([1, 2, 3])
    reps, duals = enumerate_reps(g, 4)
    polys = {v: rational_char_poly(char_poly(build_operator(g, v, k))) for v in reps}
    clusters = numeric_spectrum(reps, duals, [build_operator(g, v, k) for v in reps], k, tol=1e-9)
    bad = []
    total = 0
    for cl in clusters:
        assembled = cl.assembled_dims(ustar_dim)
        for v, float_mult in cl.per_rep:
            exact_mult = multiplicity_at_float(polys[v], cl.center, tol=1e-9)
            if exact_mult != float_mult:
                bad.append((v.spins, cl.center, "float", float_mult, "exact", exact_mult))
            if assembled[v] != ustar_dim * exact_mult * v.dim:
                bad.append((v.spins, cl.center, "assembled", assembled[v]))
            total += assembled[v]
    elapsed = time.monotonic() - t0
    announce(7, not bad and total == 220 and elapsed < budget, elapsed, budget,
             f"{len(clusters)} clusters, assembled total {total} = 4 x sum dim^2")
    assert not bad, bad
    assert total == ustar_dim * sum((m + 1) ** 2 for m in range(5))
    assert elapsed < budget


def test_criterion_08_generic_estimate(announce):
    budget = 60.0
    t0 = time.monotonic()
    g = GroupSpec(1)
    reps, duals = enumerate_reps(g, 4)
    u = {(0,): 1}
    estimates = {
        m: generic_estimate(A1, WEIGHT, KMode.TRIVIAL.read_ustar(A1, u), make_weight(A1, (m,)))
        for m in range(5)
    }
    bad = []
    for k in witness_sequence(3, 50, seed=2026):
        for cl in numeric_spectrum(reps, duals, [build_operator(g, v, k) for v in reps], k):
            for v, mult in cl.per_rep:
                m = v.spins[0]
                terms = {t.mu: t.mult for t in estimates[m].terms}
                if (m,) not in terms:
                    bad.append((k.kappa, m, "term missing"))
                elif mult > terms[(m,)]:
                    bad.append((k.kappa, m, f"multiplicity {mult} > bound {terms[(m,)]}"))
    elapsed = time.monotonic() - t0
    announce(8, not bad and elapsed < budget, elapsed, budget,
             "50 seeded kappa, clusters dominated by class estimate")
    assert not bad, bad[:3]
    assert elapsed < budget


def test_criterion_09_hodge_rank1(announce):
    budget = 10.0
    t0 = time.monotonic()
    table = hodge_rank1_check(Q(50))
    bad = []
    for row in table.rows:
        if row.mu == (0,):
            if row.member_all_p or row.invariant_dims != (1, 0, 0, 1):
                bad.append(("zero weight", row))
        elif not row.member_all_p:
            bad.append(("missing degree", row))
    discs = [(d.mu, d.p, d.lam, "harmonic" in d.annotation) for d in table.discrepancies]
    if discs != [((0,), 1, Q(0), True), ((0,), 2, Q(0), True)]:
        bad.append(("discrepancies", discs))
    elapsed = time.monotonic() - t0
    announce(9, not bad and elapsed < budget, elapsed, budget,
             f"{len(table.rows)} rows; zero-weight gap annotated harmonic")
    assert not bad, bad
    assert elapsed < budget


def _box_scan_classes(rs, lat, cap, span):
    """Naive oracle: scan a coordinate box, bucket by shifted norm."""
    buckets = {}
    ref = reference(rs)
    for coords in itertools.product(range(-span, span + 1), repeat=rs.rank):
        if lat is LatticeChoice.ROOT and not in_root_lattice(rs, coords):
            continue
        shifted = vadd(ref.delta, ref.point(coords))
        a_sq = rs.metric_scale * ref.inner(shifted, shifted)
        if a_sq <= cap:
            buckets.setdefault(a_sq, set()).add(coords)
    return {
        a_sq: members
        for a_sq, members in buckets.items()
        if any(all(c >= 0 for c in m) for m in members)
    }


def _convolve(rs, v, w):
    ca = character_of_decomposition(rs, {v: 1})
    cb = character_of_decomposition(rs, {w: 1})
    prod = {}
    for w1, m1 in ca.items():
        for w2, m2 in cb.items():
            key = tuple(x + y for x, y in zip(w1, w2))
            prod[key] = prod.get(key, 0) + m1 * m2
    return decompose_character(rs, prod)


def _poly_rem(p, d):
    """The remainder of p by d over the rationals."""
    r = list(p.coefficients)
    for k in range(len(r) - degree(d) - 1, -1, -1):
        f = r[k + degree(d)] / leading(d)
        for j, c in enumerate(d.coefficients):
            r[k + j] -= f * c
    return rpoly(*r)


def _prs_resultant(p, q):
    """Euclidean remainder recursion; independent of the Sylvester route."""
    if p.is_zero() or q.is_zero():
        return Q(0)
    if degree(p) < degree(q):
        sign = -1 if (degree(p) * degree(q)) % 2 else 1
        return sign * _prs_resultant(q, p)
    if degree(q) == 0:
        return leading(q) ** degree(p)
    r = _poly_rem(p, q)
    if r.is_zero():
        return Q(0)
    sign = -1 if (degree(p) * degree(q)) % 2 else 1
    return sign * leading(q) ** (degree(p) - degree(r)) * _prs_resultant(q, r)


def test_criterion_10_oracle_equivalences(announce):
    budget = 60.0
    t0 = time.monotonic()
    bad = []

    # (a) lattice enumeration against the naive box scan, ranks <= 2
    scans = [
        (A1, WEIGHT, 20), (A1, ROOT, 20),
        (A2, WEIGHT, 30), (A2, ROOT, 30),
        (B2, WEIGHT, 30), (B2, ROOT, 30),
        (G2, WEIGHT, 30),
    ]
    for rs, lat, span in scans:
        oracle = _box_scan_classes(rs, lat, Q(100), span)
        got = {c.a_sq: set(sphere_set(rs, lat, c.a_sq).sphere_members) for c in classes_up_to(rs, lat, Q(100))}
        if got != oracle:
            bad.append(("box scan", rs.typ.family + str(rs.typ.rank), lat.value))

    # (b) tensor decomposition against character convolution, product dim <= 200
    pairs = []
    for m in range(200):
        if (m + 1) ** 2 > 200:
            break
        for n in range(m, 200):
            if (m + 1) * (n + 1) > 200:
                break
            pairs.append((A1, (m,), (n,)))
    a2_labels = [(a, b) for a in range(14) for b in range(14) if weyl_dim(A2, (a, b)) <= 200]
    for i, v in enumerate(a2_labels):
        for w in a2_labels[i:]:
            if weyl_dim(A2, v) * weyl_dim(A2, w) <= 200:
                pairs.append((A2, v, w))
    for rs, v, w in pairs:
        if tensor_decompose(rs, v, w) != _convolve(rs, v, w):
            bad.append(("tensor", v, w))

    # (c) resultants against the Sylvester determinant, 20 random pairs
    rng = random.Random(1789)
    for _ in range(20):
        p = rpoly(*[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))])
        q = rpoly(*[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))])
        if p.is_zero() or q.is_zero():
            continue
        if rational_resultant(p, q) != _prs_resultant(p, q):
            bad.append(("resultant", p.coefficients, q.coefficients))

    elapsed = time.monotonic() - t0
    announce(10, not bad and elapsed < budget, elapsed, budget,
             f"{len(scans)} box scans, {len(pairs)} tensor pairs, 20 resultants")
    assert not bad, bad[:3]
    assert elapsed < budget
