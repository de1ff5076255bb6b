"""Spectral reports for normal metrics, assembled class by class.

A Casimir class (one squared radius a², one eigenvalue λ) contributes an
eigenspace built from its surviving dominant members: member μ enters with
isotypic dimension dim (V^μ ⊗ U*)^K under the selected K-mode, tensored
against V^{μ*}.  Reports record that assembly exactly, alongside the
hidden-symmetry data (stabilizer orbits of the shifted sphere
configuration) of each class, and never replace a computed orbit count by
the expected one.

K-modes:
  trivial   K = {e}; U* any virtual sum of G-irreducibles.
  diagonal  G = G' x G', K = diag G', inputs expressed on the single root
            system of G'.  A member μ stands for the block V^μ (x) V^{μ*};
            reported dims and duals are G'-side.  The convention is stored
            in the report context.
  torus     K a torus; U* a multiset of torus weights; invariants count
            zero weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q

from .errors import CapExceeded, InternalConsistencyError, NonDominantWeight
from .hidden import DEFAULT_POINT_CAP, DEFAULT_RANK_CAP, orbits, shifted_config, stabilizer_group
from .reps import (
    KMode,
    RepType,
    bold_g_label,
    classify_type,
    dual_label,
    exterior_powers,
    invariant_dim,
    adjoint_rep,
    rep,
    weyl_dim,
)
from .rootsys import RootSystem, RootSystemType, build_root_system
from .weights import (
    LatticeChoice,
    Weight,
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


def _isotypic(v, ustar, kmode: KMode) -> int:
    return invariant_dim((v, dual_label(v)) if kmode is KMode.DIAGONAL else v, ustar, kmode)


def _ustar_payload(ustar, kmode: KMode):
    if kmode is KMode.TORUS:
        return tuple(sorted((tuple(c), int(m)) for c, m in ustar.items()))
    return tuple(ustar.terms)


def _context(rs: RootSystem, lat: LatticeChoice, kmode: KMode, ustar) -> dict:
    ctx = {
        "family": rs.typ.family,
        "rank": rs.typ.rank,
        "lattice": lat.value,
        "k_mode": kmode.value,
        "metric_scale": rs.metric_scale,
        "ustar": _ustar_payload(ustar, kmode),
    }
    if kmode is KMode.DIAGONAL:
        ctx["diagonal_convention"] = (
            "members label V^mu (x) V^mu* blocks of G' x G'; dims/duals are G'-side"
        )
    return ctx


def _hidden_data(rs: RootSystem, cls, point_cap: int, rank_cap: int):
    """(orbit id per member coords, orbit count), or (None, None) past caps."""
    try:
        cfg = shifted_config(rs, cls)
        group = stabilizer_group(cfg, point_cap=point_cap, rank_cap=rank_cap)
    except CapExceeded:
        return None, None
    orbs = orbits(cfg, group)
    index_of = {m: i for i, m in enumerate(cfg.mu_coords)}
    by_mu = {}
    for oid, orb in enumerate(orbs):
        for i in orb:
            by_mu[cfg.mu_coords[i]] = oid
    for m in index_of:
        if m not in by_mu:
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


def _member_type(v, kmode: KMode) -> RepType:
    """Type of the eigenspace block labeled by v.

    In diagonal mode the block is V^mu (x) V^mu* over G' x G', whose
    type is the square of the G'-side indicator: real whenever mu is
    self-dual (quaternionic never occurs), complex otherwise.  The other
    modes carry V^mu itself.
    """
    if kmode is KMode.DIAGONAL:
        if dual_label(v).highest.fw_coords == v.highest.fw_coords:
            return RepType.REAL
        return RepType.COMPLEX
    return classify_type(v)


def _complex_members(rs, cls, ustar, kmode, orbit_by_mu):
    members = []
    for w in cls.dominant_members:
        v = rep(rs, w.fw_coords)
        iso = _isotypic(v, ustar, kmode)
        if iso <= 0:
            continue
        oid = UNCOMPUTED if orbit_by_mu is None else orbit_by_mu[w.fw_coords]
        members.append(
            SpectralMember(
                mu=w.fw_coords,
                dual_mu=dual_label(v).highest.fw_coords,
                dim=weyl_dim(v),
                rep_type=_member_type(v, kmode),
                isotypic_dim=iso,
                hidden_orbit_id=oid,
            )
        )
    return members


def normal_spectrum_report(
    rs: RootSystem,
    lat: LatticeChoice,
    kmode: KMode,
    ustar,
    a_sq_cap,
    point_cap: int = DEFAULT_POINT_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> SpectralReport:
    """Every Casimir class up to the cap, filtered to members with invariants.

    Classes whose members all have zero isotypic dimension do not occur in
    the U*-spectrum and are dropped.  Hidden-orbit ids come from the exact
    stabilizer computation when the configuration fits the caps and are
    marked uncomputed otherwise.
    """
    entries = []
    member_types = []
    for cls in classes_up_to(rs, lat, a_sq_cap):
        orbit_by_mu, orbit_count = _hidden_data(rs, cls, point_cap, rank_cap)
        members = _complex_members(rs, cls, ustar, kmode, orbit_by_mu)
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
        context=_context(rs, lat, kmode, ustar),
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
    """
    by_mu = {m.mu: m for m in members}
    folded = []
    seen = set()
    for m in members:
        if m.mu in seen:
            continue
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
            seen.add(m.mu)
        else:
            partner = by_mu.get(m.dual_mu)
            if partner is None or partner.isotypic_dim != m.isotypic_dim:
                raise InternalConsistencyError(
                    f"member {m.mu} lacks a matching dual partner; U* is not a real K-module"
                )
            lead = m if m.mu <= m.dual_mu else partner
            folded.append(
                RealMember(
                    lead.mu,
                    lead.dual_mu,
                    RepType.COMPLEX,
                    lead.isotypic_dim,
                    lead.isotypic_dim,
                    2 * lead.dim,
                    lead.hidden_orbit_id,
                )
            )
            seen.add(m.mu)
            seen.add(m.dual_mu)
    return tuple(folded)


def real_spectrum_report(
    rs: RootSystem,
    lat: LatticeChoice,
    kmode: KMode,
    ustar,
    a_sq_cap,
    point_cap: int = DEFAULT_POINT_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> SpectralReport:
    """The real-form report: the complex report with members folded into
    duality classes [mu] (see _fold_members).

    Total real dimension per class equals the complex report's total for
    the same inputs (the real module complexifies to the complex one);
    that identity is enforced, not assumed.
    """
    report = normal_spectrum_report(rs, lat, kmode, ustar, a_sq_cap, point_cap, rank_cap)
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
    rs: RootSystem, lat: LatticeChoice, kmode: KMode, ustar, mu_lambda: Weight
) -> EstimateBound:
    """Bound the eigenspace of lambda(mu_lambda) by its full Casimir class.

    Every dominant member mu of the class of |mu_lambda + delta|^2
    contributes the block V^{mu*} with multiplicity dim (V^mu (x) U*)^K;
    zero-multiplicity members are absent from the U*-spectrum and are
    omitted from the bound.
    """
    if not mu_lambda.is_dominant():
        raise NonDominantWeight(f"{mu_lambda.fw_coords} is not dominant")
    a_sq = shifted_norm_sq(rs, mu_lambda)
    cls = sphere_set(rs, lat, a_sq)
    terms = []
    total = 0
    for w in cls.dominant_members:
        v = rep(rs, w.fw_coords)
        mult = _isotypic(v, ustar, kmode)
        if mult <= 0:
            continue
        d = weyl_dim(v)
        terms.append(EstimateTerm(w.fw_coords, dual_label(v).highest.fw_coords, mult, d))
        total += mult * d
    return EstimateBound(
        context=_context(rs, lat, kmode, ustar),
        mu_lambda=mu_lambda.fw_coords,
        a_sq=a_sq,
        lam=casimir_eigenvalue(rs, mu_lambda),
        terms=tuple(terms),
        total_dim=total,
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
    cap = Q(cap)
    rs = build_root_system(RootSystemType("A", 1))
    ext = exterior_powers(adjoint_rep(rs), 3)
    rows = []
    discrepancies = []
    for mu in enumerate_dominant(rs, LatticeChoice.WEIGHT, cap):
        lam = casimir_eigenvalue(rs, mu)
        v = rep(rs, mu.fw_coords)
        dims = tuple(invariant_dim((v, v), ext[p], KMode.DIAGONAL) for p in range(4))
        rows.append(HodgeRow(mu.fw_coords, shifted_norm_sq(rs, mu), lam, dims, all(d > 0 for d in dims)))
        for p in range(4):
            if dims[p] == 0:
                note = HARMONIC_NOTE if lam == 0 else "membership fails at positive lambda"
                discrepancies.append(HodgeDiscrepancy(mu.fw_coords, p, lam, note))
    return HodgeTable(cap, tuple(rows), tuple(discrepancies))
