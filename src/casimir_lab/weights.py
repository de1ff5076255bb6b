"""Weight lattices, Casimir eigenvalues and sphere/class enumeration.

A weight mu is its integer coordinates in the fundamental-weight basis;
dominant weights have nonnegative ones.  The Casimir eigenvalue is
(mu+d, mu+d) - (d, d) for d the half-sum of positive roots, which has
coordinates (1, ..., 1); norms are computed as exact ints on the integer
form den * gram_fw.  A Casimir class collects every lattice weight whose
shifted point mu+d lies on a common sphere.  All enumeration is exact:
integer points of rational ellipsoids, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from functools import lru_cache

from . import ratlinalg as rl
from . import rootsys as rsys
from .errors import NonDominantWeight, NotInLattice
from .rootsys import RootSystem


class LatticeChoice(Enum):
    WEIGHT = "weight_lattice"
    ROOT = "root_lattice"


@dataclass(frozen=True)
class Weight:
    """A lattice weight: its integer fundamental-weight coordinates."""

    fw_coords: tuple[int, ...]

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fw_coords)


@dataclass(frozen=True)
class CasimirClass:
    """All lattice weights whose shifted points share one squared radius a_sq."""

    a_sq: Q
    lam: Q
    dominant_members: tuple[Weight, ...]
    sphere_members: tuple[Weight, ...]


@lru_cache(maxsize=rsys.ROOT_SYSTEM_CACHE_SIZE)
def _cartan_inverse(rs: RootSystem) -> rl.Mat:
    return rl.inverse(rl.mat(rs.cartan_matrix))


def in_root_lattice(rs: RootSystem, fw_coords) -> bool:
    """mu = sum c_i alpha_i with integer c?  Solve c = m C^{-1} exactly."""
    cinv = _cartan_inverse(rs)
    m = rl.vec(fw_coords)
    c = rl.matvec(rl.transpose(cinv), m)
    return all(x.denominator == 1 for x in c)


def in_lattice(rs: RootSystem, lat: LatticeChoice, fw_coords) -> bool:
    if any(not isinstance(c, int) and rl.frac(c).denominator != 1 for c in fw_coords):
        return False
    if lat is LatticeChoice.WEIGHT:
        return True
    return in_root_lattice(rs, fw_coords)


def make_weight(rs: RootSystem, fw_coords, lat: LatticeChoice = LatticeChoice.WEIGHT) -> Weight:
    coords = tuple(int(c) for c in fw_coords)
    if len(coords) != rs.rank:
        raise NotInLattice(f"expected {rs.rank} coordinates, got {len(coords)}")
    if tuple(rl.frac(c) for c in fw_coords) != tuple(Q(c) for c in coords):
        raise NotInLattice(f"non-integral fundamental-weight coordinates {fw_coords}")
    if lat is LatticeChoice.ROOT and not in_root_lattice(rs, coords):
        raise NotInLattice(f"{coords} is not in the root lattice of {rs.typ.label}")
    return Weight(coords)


def _shifted_norm_int(rs: RootSystem, m) -> int:
    """den * |mu + delta|^2 for mu with fundamental-weight coordinates m,
    den = rs.gram_fw_int[0]: mu + delta has coordinates m + 1."""
    y = tuple(mi + 1 for mi in m)
    return rs.form_fw_int(y, y)


def delta_norm_sq(rs: RootSystem) -> Q:
    return Q(_shifted_norm_int(rs, (0,) * rs.rank), rs.gram_fw_int[0])


def shifted_norm_sq(rs: RootSystem, mu: Weight) -> Q:
    return Q(_shifted_norm_int(rs, mu.fw_coords), rs.gram_fw_int[0])


def casimir_eigenvalue(rs: RootSystem, mu: Weight) -> Q:
    """Casimir eigenvalue on the irreducible with highest weight mu (dominant)."""
    if not mu.is_dominant():
        raise NonDominantWeight(f"{mu.fw_coords} is not dominant")
    return shifted_norm_sq(rs, mu) - delta_norm_sq(rs)


_MINUS_ONE_CENTER = lambda r: tuple(Q(-1) for _ in range(r))


def _shifted_lattice_points(rs: RootSystem, lat: LatticeChoice, a_sq_cap: Q):
    """Yield (fw_coords, den * |mu+delta|^2) for all lattice weights with
    |mu+delta|^2 <= cap, den = rs.gram_fw_int[0]; the norm is an exact int."""
    center = _MINUS_ONE_CENTER(rs.rank)
    for m in rl.ellipsoid_points(rs.gram_fw, center, a_sq_cap):
        if lat is LatticeChoice.ROOT and not in_root_lattice(rs, m):
            continue
        yield m, _shifted_norm_int(rs, m)


def enumerate_dominant(rs: RootSystem, lat: LatticeChoice, a_sq_cap) -> list[Weight]:
    """All dominant lattice weights with |mu+delta|^2 <= a_sq_cap, sorted."""
    cap = rl.frac(a_sq_cap)
    out = []
    for m, _ in _shifted_lattice_points(rs, lat, cap):
        if all(mi >= 0 for mi in m):
            out.append(make_weight(rs, m, lat))
    out.sort(key=lambda w: w.fw_coords)
    return out


def _casimir_class(rs: RootSystem, lat: LatticeChoice, a_sq: Q, coords) -> CasimirClass:
    members = tuple(make_weight(rs, m, lat) for m in sorted(coords))
    return CasimirClass(
        a_sq=a_sq,
        lam=a_sq - delta_norm_sq(rs),
        dominant_members=tuple(w for w in members if w.is_dominant()),
        sphere_members=members,
    )


def sphere_set(rs: RootSystem, lat: LatticeChoice, a_sq) -> CasimirClass:
    """The full Casimir class at exactly |mu+delta|^2 = a_sq (may be empty)."""
    a_sq = rl.frac(a_sq)
    den = rs.gram_fw_int[0]
    # norm / den == a_sq, cross-multiplied
    target = a_sq.numerator * den
    coords = [m for m, norm in _shifted_lattice_points(rs, lat, a_sq) if norm * a_sq.denominator == target]
    return _casimir_class(rs, lat, a_sq, coords)


def classes_up_to(rs: RootSystem, lat: LatticeChoice, a_sq_cap) -> list[CasimirClass]:
    """Casimir classes with at least one dominant member, ascending in a_sq.

    One exact ellipsoid sweep buckets every lattice point by its exact
    shifted norm (an integer over one common denominator), so coincidences
    (equal a_sq) can never be split or merged by rounding.
    """
    cap = rl.frac(a_sq_cap)
    den = rs.gram_fw_int[0]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for m, norm in _shifted_lattice_points(rs, lat, cap):
        buckets.setdefault(norm, []).append(m)
    out = []
    for norm in sorted(buckets):
        if any(all(mi >= 0 for mi in m) for m in buckets[norm]):
            out.append(_casimir_class(rs, lat, Q(norm, den), buckets[norm]))
    return out


def dual_weight(rs: RootSystem, mu: Weight) -> Weight:
    """Highest weight of the dual representation: the dominant form of -mu."""
    dom, _ = rsys.dominant_fw_coords(rs, (-c for c in mu.fw_coords))
    return Weight(dom)
