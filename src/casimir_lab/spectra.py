"""Spectral reports for normal metrics, assembled class by class.

A Casimir class (one squared radius a², one eigenvalue λ) contributes an
eigenspace built from its surviving dominant members: member μ enters with
isotypic dimension dim (V^μ ⊗ U*)^K under the selected K-mode, tensored
against V^{μ*}.  Reports record that assembly exactly, alongside the
hidden-symmetry data (stabilizer orbits of the shifted sphere set X) of
each class, and never replace a computed orbit count by the expected one:
a class is one orbit only when its closed-chamber points count one orbit
of the Weyl group and -1, both isometries (hidden.chamber_orbit_count),
and otherwise its orbits are those of the searched stabilizer of its
configuration, the one place where X is walked.  A member is its
dominant coordinate tuple μ over the class's root system; its dual μ*
(reps.dual_label) is computed once and read by its type and its row.

U* arrives as one reps.KModule, read once by KMode.read_ustar, which
carries its K mode.  Every rule that depends on K (isotypic dimension,
member type, the real check and the context note) is read from that
value, its KMode and invariant_dim, where the K-modes are described.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q

from . import hidden
from .errors import InternalConsistencyError, NonDominantWeight
from .ratlinalg import frac
from .reps import (
    KMode,
    KModule,
    RepType,
    bold_g_label,
    dual_label,
    exterior_powers,
    invariant_dim,
    weyl_dim,
)
from .rootsys import RootSystem, RootSystemType, build_root_system
from .weights import (
    Coords,
    LatticeChoice,
    casimir_eigenvalue,
    classes_up_to,
    enumerate_dominant,
    shifted_norm_sq,
    sphere_set,
)

UNCOMPUTED = "uncomputed (cap)"

IRREDUCIBLE_FLAG_COMPLEX = "(O_C x G)-irreducible"
IRREDUCIBLE_FLAG_REAL = "(O_R x G)-irreducible"


@dataclass(frozen=True)
class SpectralMember:
    """One dominant member of a class: the V^{mu*}-isotypic block data."""

    mu: tuple
    dual_mu: tuple
    dim: int
    rep_type: RepType
    isotypic_dim: int
    hidden_orbit_id: object  # int index, or UNCOMPUTED past the hidden caps


@dataclass(frozen=True)
class ClassEntry:
    a_sq: Q
    lam: Q
    members: tuple  # SpectralMember, or RealMember in the real report
    flag: str
    orbit_count: object  # int, or None when uncomputed
    eigenspace_dim: int


@dataclass(frozen=True)
class SpectralReport:
    context: dict
    classes: tuple
    labels: dict

    @property
    def total_dim(self) -> int:
        return sum(c.eigenspace_dim for c in self.classes)


@dataclass(frozen=True)
class RealMember:
    """A duality class [mu] = {mu, mu*} with real-form bookkeeping.

    isotypic_dim is the complex isotypic dimension (shared by both
    partners); real_mult x real_dim reproduces the same total real
    dimension the unfolded pair carries over C.
    """

    mu: tuple
    partner_mu: tuple
    rep_type: RepType
    isotypic_dim: int
    real_mult: int
    real_dim: int
    hidden_orbit_id: object


def _context(rs: RootSystem, lat: LatticeChoice, ustar: KModule) -> dict:
    return {
        "family": rs.typ.family,
        "rank": rs.typ.rank,
        "lattice": lat.value,
        "k_mode": ustar.kmode.value,
        "metric_scale": rs.metric_scale,
        "ustar": ustar.summands,
        **ustar.kmode.context_notes(),
    }


def _hidden_data(rs: RootSystem, lat: LatticeChoice, cls, point_cap: int, rank_cap: int):
    """(orbit id per member coords, orbit count), or (None, None) past the
    point cap or the rank cap, rs.rank being the span rank (W acts
    irreducibly, so a dominant member's Weyl orbit spans).  One <W, -1>-orbit
    (hidden.chamber_orbit_count) is one stabilizer orbit, W and -1 being
    isometries (RootSystem.reflections_preserve_form); others are searched,
    on X walked by sphere_set, whose size must be the class's orbit sum.
    """
    if cls.sphere_size > point_cap or rs.rank > rank_cap:
        return None, None
    if hidden.chamber_orbit_count(rs, cls.chamber_members) == 1:
        rs.reflections_preserve_form  # the isometry identity, checked once per root system
        return dict.fromkeys(cls.dominant_members, 0), 1
    walked = sphere_set(rs, lat, cls.a_sq)
    if walked.sphere_size != cls.sphere_size:
        raise InternalConsistencyError("the walked sphere fails the orbit sum of the closed-chamber points")
    cfg = hidden.shifted_config(rs, walked)
    orbs = hidden.orbits(cfg, hidden.stabilizer_group(cfg, point_cap, rank_cap))
    by_mu = {cfg.mu_coords[i]: oid for oid, orb in enumerate(orbs) for i in orb}
    # The points are distinct, so the orbits cover every one exactly when by_mu has size keys.
    if len(by_mu) != cfg.size:
        raise InternalConsistencyError("orbit partition missed a configuration point")
    return by_mu, len(orbs)


def _class_flag(n_members: int, orbit_count, single_flag: str) -> str:
    if n_members == 1:
        return single_flag
    if orbit_count is None:
        return f"hidden-orbit certificate: {UNCOMPUTED}"
    verdict = "transitive" if orbit_count == 1 else "not transitive"
    return f"hidden-orbit certificate: {orbit_count} orbit(s), {verdict}"


def _labels(member_types) -> dict:
    bold = bold_g_label(member_types)
    return {
        "bold_g": bold,
        "symmetry_group_description": (
            f"{bold} acts on each eigenspace; the orthogonal factor moves the "
            "isotypic multiplicity space, G moves each V^mu* block"
        ),
    }


def _kept_members(rs: RootSystem, dominant, ustar: KModule):
    """(mu, dual, isotypic dimension) of each dominant member mu whose
    isotypic dimension is nonzero, in member order."""
    for mu in dominant:
        iso = invariant_dim(rs, mu, ustar)
        if iso > 0:
            yield mu, dual_label(rs, mu), iso


def _complex_members(rs, lat, cls, ustar: KModule, point_cap, rank_cap):
    """(members with a nonzero isotypic dimension, orbit count); the hidden
    data is computed only when some member is kept."""
    kept = list(_kept_members(rs, cls.dominant_members, ustar))
    if not kept:
        return [], None
    orbit_by_mu, orbit_count = _hidden_data(rs, lat, cls, point_cap, rank_cap)
    members = [
        SpectralMember(
            mu=mu,
            dual_mu=dual,
            dim=weyl_dim(rs, mu),
            rep_type=ustar.kmode.member_type(rs, mu, dual),
            isotypic_dim=iso,
            hidden_orbit_id=UNCOMPUTED if orbit_by_mu is None else orbit_by_mu[mu],
        )
        for mu, dual, iso in kept
    ]
    return members, orbit_count


def normal_spectrum_report(
    rs: RootSystem,
    lat: LatticeChoice,
    ustar: KModule,
    a_sq_cap,
    point_cap: int = hidden.DEFAULT_POINT_CAP,
    rank_cap: int = hidden.DEFAULT_RANK_CAP,
) -> SpectralReport:
    """Every Casimir class up to the cap, filtered to members with invariants.

    Classes whose members all have zero isotypic dimension do not occur in
    the U*-spectrum and are dropped before their hidden data is computed.
    Hidden-orbit ids come from the exact stabilizer orbits when the class
    fits the caps, and are marked uncomputed otherwise: one orbit when its
    closed-chamber points count one orbit of W and -1, with no sphere
    walked and no configuration built, the searched stabilizer's orbits
    otherwise.
    """
    entries = []
    member_types = []
    for cls in classes_up_to(rs, lat, a_sq_cap):
        members, orbit_count = _complex_members(rs, lat, cls, ustar, point_cap, rank_cap)
        if not members:
            continue
        member_types.extend(m.rep_type for m in members)
        entries.append(
            ClassEntry(
                a_sq=cls.a_sq,
                lam=cls.lam,
                members=tuple(members),
                flag=_class_flag(len(members), orbit_count, IRREDUCIBLE_FLAG_COMPLEX),
                orbit_count=orbit_count,
                eigenspace_dim=sum(m.isotypic_dim * m.dim for m in members),
            )
        )
    return SpectralReport(
        context=_context(rs, lat, ustar),
        classes=tuple(entries),
        labels=_labels(member_types),
    )


def _fold_members(members) -> tuple:
    """Group complex members into duality classes with real bookkeeping.

    complex pair      -> one entry, real_mult = iso, real_dim = 2 dim
    real self-dual    -> real_mult = iso, real_dim = dim
    quaternionic      -> real_mult = iso/2, real_dim = 2 dim (iso must be
                         even; an odd value means the complex data cannot
                         be a complexified real module)

    U* is checked to be a real K-module first (KModule.check_real), so a
    missing or unequal partner and an odd quaternionic iso are internal
    errors.  Members arrive in ascending mu, so a pair is folded at its
    first member, the one below its dual.
    """
    by_mu = {m.mu: m for m in members}
    folded = []
    for m in members:
        if m.dual_mu == m.mu:
            if m.rep_type is RepType.QUATERNIONIC:
                if m.isotypic_dim % 2:
                    raise InternalConsistencyError(
                        f"quaternionic member {m.mu} has odd isotypic dimension {m.isotypic_dim}"
                    )
                real_mult, real_dim = m.isotypic_dim // 2, 2 * m.dim
            else:
                real_mult, real_dim = m.isotypic_dim, m.dim
            folded.append(
                RealMember(m.mu, m.mu, m.rep_type, m.isotypic_dim, real_mult, real_dim, m.hidden_orbit_id)
            )
            continue
        partner = by_mu.get(m.dual_mu)
        if partner is None or partner.isotypic_dim != m.isotypic_dim:
            raise InternalConsistencyError(
                f"member {m.mu} lacks a matching dual partner in the report of a real K-module"
            )
        if m.mu < m.dual_mu:
            iso = m.isotypic_dim
            folded.append(RealMember(m.mu, m.dual_mu, RepType.COMPLEX, iso, iso, 2 * m.dim, m.hidden_orbit_id))
    return tuple(folded)


def real_spectrum_report(
    rs: RootSystem,
    lat: LatticeChoice,
    ustar: KModule,
    a_sq_cap,
    point_cap: int = hidden.DEFAULT_POINT_CAP,
    rank_cap: int = hidden.DEFAULT_RANK_CAP,
) -> SpectralReport:
    """The real-form report: the complex report with members folded into
    duality classes [mu] (see _fold_members).

    U* must be a real K-module (KModule.check_real, ValueError otherwise,
    before any class is computed), so a failed fold identity below is an
    internal error, not bad input.
    Total real dimension per class equals the complex report's total for
    the same inputs (the real module complexifies to the complex one);
    that identity is enforced, not assumed.
    """
    ustar.check_real(rs)
    report = normal_spectrum_report(rs, lat, ustar, a_sq_cap, point_cap, rank_cap)
    entries = []
    for c in report.classes:
        folded = _fold_members(c.members)
        real_total = sum(m.real_mult * m.real_dim for m in folded)
        if real_total != c.eigenspace_dim:
            raise InternalConsistencyError(
                f"real fold changed the class dimension: {real_total} != {c.eigenspace_dim}"
            )
        flag = _class_flag(len(folded), c.orbit_count, IRREDUCIBLE_FLAG_REAL)
        entries.append(replace(c, members=folded, flag=flag))
    return replace(report, classes=tuple(entries))


@dataclass(frozen=True)
class EstimateTerm:
    mu: tuple
    dual_mu: tuple
    mult: int
    dim: int


@dataclass(frozen=True)
class EstimateBound:
    """Upper bound on an eigenspace: sum of V^{mu*} blocks over the class."""

    context: dict
    mu_lambda: tuple
    a_sq: Q
    lam: Q
    terms: tuple
    total_dim: int


def generic_estimate(
    rs: RootSystem, lat: LatticeChoice, ustar: KModule, mu_lambda: Coords
) -> EstimateBound:
    """Bound the eigenspace of lambda(mu_lambda) by its full Casimir class.

    Every dominant member mu of the class of |mu_lambda + delta|^2, read
    off one walk of the dominant weights on that sphere, contributes the
    block V^{mu*} with multiplicity dim (V^mu (x) U*)^K; zero-multiplicity
    members are absent from the U*-spectrum and are omitted from the bound.
    """
    if min(mu_lambda) < 0:
        raise NonDominantWeight(f"{mu_lambda} is not dominant")
    a_sq = shifted_norm_sq(rs, mu_lambda)
    kept = _kept_members(rs, enumerate_dominant(rs, lat, a_sq, shell=True), ustar)
    terms = tuple(EstimateTerm(mu, dual, mult, weyl_dim(rs, mu)) for mu, dual, mult in kept)
    return EstimateBound(
        context=_context(rs, lat, ustar),
        mu_lambda=mu_lambda,
        a_sq=a_sq,
        lam=casimir_eigenvalue(rs, mu_lambda),
        terms=terms,
        total_dim=sum(t.mult * t.dim for t in terms),
    )


@dataclass(frozen=True)
class HodgeRow:
    mu: tuple
    a_sq: Q
    lam: Q
    invariant_dims: tuple  # indexed by p = 0..3
    member_all_p: bool


@dataclass(frozen=True)
class HodgeDiscrepancy:
    mu: tuple
    p: int
    lam: Q
    annotation: str


@dataclass(frozen=True)
class HodgeTable:
    cap: Q
    rows: tuple
    discrepancies: tuple


HARMONIC_NOTE = "lambda = 0 (harmonic): outside the positive-eigenvalue comparison range"


def hodge_rank1_check(cap) -> HodgeTable:
    """Form-degree membership table for the SU(2) group case.

    For each dominant mu with |mu + delta|^2 <= cap and p = 0..3, computes
    dim (V^mu (x) V^mu (x) Lambda^p adjoint)^{diag SU(2)}.  Nonzero for
    all p means the mu-block occurs in every form degree.  Failures are
    listed as discrepancies; the lambda = 0 class gets the harmonic
    annotation instead of being silently merged.
    """
    cap = frac(cap)
    rs = build_root_system(RootSystemType("A", 1))
    ext = [KMode.DIAGONAL.read_ustar(rs, e) for e in exterior_powers(rs, rs.positive_roots_fw[-1], 3)]
    rows = []
    discrepancies = []
    for mu in enumerate_dominant(rs, LatticeChoice.WEIGHT, cap):
        lam = casimir_eigenvalue(rs, mu)
        dims = tuple(invariant_dim(rs, mu, u) for u in ext)
        rows.append(HodgeRow(mu, shifted_norm_sq(rs, mu), lam, dims, all(d > 0 for d in dims)))
        for p in range(4):
            if dims[p] == 0:
                note = HARMONIC_NOTE if lam == 0 else "membership fails at positive lambda"
                discrepancies.append(HodgeDiscrepancy(mu, p, lam, note))
    return HodgeTable(cap, tuple(rows), tuple(discrepancies))
