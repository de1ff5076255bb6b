"""Weight lattices, Casimir eigenvalues and sphere/class enumeration.

A weight mu is the tuple of its integer coordinates in the
fundamental-weight basis, in this module and every layer above it;
dominant weights have nonnegative ones.  make_weight checks a weight
read from input.  The Casimir eigenvalue is
(mu+d, mu+d) - (d, d) for d the half-sum of positive roots, which has
coordinates (1, ..., 1); norms are computed as exact ints on the integer
form den * gram_fw.  A Casimir class collects every lattice weight whose
shifted point mu+d lies on a common sphere.

Enumeration is integer Fincke-Pohst (Fincke & Pohst 1985) on fraction-free
(Bareiss 1968) levels, kept on the root system (RootSystem.gram_fw_ldl):
lattice_points lists a ball with exact norms (classes_up_to,
enumerate_dominant) or one sphere, solving its last coordinate
(sphere_set), and refuses past DEFAULT_NODE_CAP nodes.  dual_weight walks
-mu into the dominant chamber, because mu need not be dominant;
reps.dual_label, whose highest weights are dominant, reads -w0 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from math import isqrt
from operator import mul

from . import ratlinalg as rl
from . import rootsys as rsys
from .errors import CapExceeded, NonDominantWeight, NotInLattice
from .rootsys import RootSystem

# Coordinate values one enumeration may try, summed over its levels.
DEFAULT_NODE_CAP = 100_000


class LatticeChoice(Enum):
    WEIGHT = "weight_lattice"
    ROOT = "root_lattice"


Coords = tuple[int, ...]


@dataclass(frozen=True)
class CasimirClass:
    """All lattice weights whose shifted points share one squared radius a_sq."""

    a_sq: Q
    lam: Q
    dominant_members: tuple[Coords, ...]
    sphere_members: tuple[Coords, ...]


def in_root_lattice(rs: RootSystem, fw_coords) -> bool:
    """mu = sum c_i alpha_i with integer c?  q c = q C^-T m must vanish mod q."""
    q, adj = rs.cartan_inverse_int
    return all(sum(map(mul, col, fw_coords)) % q == 0 for col in zip(*adj))


def make_weight(rs: RootSystem, fw_coords, lat: LatticeChoice = LatticeChoice.WEIGHT) -> Coords:
    """fw_coords as a checked weight: rank many integers, in the lattice lat."""
    coords = tuple(int(c) for c in fw_coords)
    if len(coords) != rs.rank:
        raise NotInLattice(f"expected {rs.rank} coordinates, got {len(coords)}")
    if any(c != k for c, k in zip(fw_coords, coords)):
        raise NotInLattice(f"non-integral fundamental-weight coordinates {fw_coords}")
    if lat is LatticeChoice.ROOT and not in_root_lattice(rs, coords):
        raise NotInLattice(f"{coords} is not in the root lattice of {rs.typ.label}")
    return coords


def shifted_norm_int(rs: RootSystem, m) -> int:
    """den * |mu + delta|^2 for mu with fundamental-weight coordinates m,
    den = rs.gram_fw_int[0]: mu + delta has coordinates m + 1."""
    y = tuple(mi + 1 for mi in m)
    return rs.form_fw_int(y, y)


def delta_norm_sq(rs: RootSystem) -> Q:
    return Q(shifted_norm_int(rs, (0,) * rs.rank), rs.gram_fw_int[0])


def shifted_norm_sq(rs: RootSystem, mu: Coords) -> Q:
    return Q(shifted_norm_int(rs, mu), rs.gram_fw_int[0])


def casimir_eigenvalue(rs: RootSystem, mu: Coords) -> Q:
    """Casimir eigenvalue on the irreducible with highest weight mu (dominant)."""
    if min(mu) < 0:
        raise NonDominantWeight(f"{mu} is not dominant")
    return shifted_norm_sq(rs, mu) - delta_norm_sq(rs)


def lattice_points(rs: RootSystem, bound: int, shell: bool = False, dominant: bool = False):
    """[(m, Q(m + 1))] for the weights m with Q(m + 1) <= bound, or == bound
    in shell mode, and m >= 0 if dominant; Q(y) = y^T G y = den |mu+delta|^2
    for (den, G) = rs.gram_fw_int and y = m + 1 the shifted coordinates.

    Level k (last coordinate first) is p Q_k = s^2 + prev Q_{k+1} of
    rs.gram_fw_ldl = rl.fraction_free_ldl(G), kept on the root system;
    s = p y_k + (outer terms), so Q_k <= prev bound is
    s^2 <= prev (p bound - Q_{k+1}); shell mode solves it as an equality
    at k = 0.  More than DEFAULT_NODE_CAP values tried raise CapExceeded."""
    rows = rs.gram_fw_ldl
    prevs = (1,) + tuple(row[0] for row in rows)
    m, y = [0] * rs.rank, [0] * rs.rank
    out = []
    nodes = 0

    def level(k: int, q_outer: int) -> None:
        nonlocal nodes
        row, prev = rows[k], prevs[k]
        p, last = row[0], shell and k == 0
        lin = sum(map(mul, row[1:], y[k + 1 :])) + p  # s = p m_k + lin
        r = prev * (p * bound - q_outer)
        t = isqrt(r)
        lo, hi = -((t + lin) // p), (t - lin) // p
        if dominant:
            lo = max(lo, 0)
        nodes += 1 if last else max(0, hi - lo + 1)
        if nodes > DEFAULT_NODE_CAP:
            raise CapExceeded("enumeration nodes", nodes, DEFAULT_NODE_CAP)
        if last:
            for s in {t, -t} if t * t == r else ():
                m[0], rem = divmod(s - lin, p)
                if not rem and m[0] >= lo:
                    out.append((tuple(m), bound))
            return
        for mk in range(lo, hi + 1):
            s = p * mk + lin
            qk = (s * s + prev * q_outer) // p
            m[k], y[k] = mk, mk + 1
            if k:
                level(k - 1, qk)
            else:
                out.append((tuple(m), qk))

    if bound >= 0:
        level(rs.rank - 1, 0)
    return out


def _lattice_weights(rs: RootSystem, lat: LatticeChoice, a_sq: Q, shell: bool = False, dominant: bool = False):
    """lattice_points of the lattice weights with |mu+delta|^2 <= a_sq, or
    == a_sq in shell mode, as (fw_coords, den |mu+delta|^2)."""
    bound, rem = divmod(a_sq.numerator * rs.gram_fw_int[0], a_sq.denominator)
    if shell and rem:
        return []
    pts = lattice_points(rs, bound, shell, dominant)
    if lat is LatticeChoice.ROOT:
        return [(m, norm) for m, norm in pts if in_root_lattice(rs, m)]
    return pts


def enumerate_dominant(rs: RootSystem, lat: LatticeChoice, a_sq_cap) -> list[Coords]:
    """All dominant lattice weights with |mu+delta|^2 <= a_sq_cap, sorted."""
    return [m for m, _ in sorted(_lattice_weights(rs, lat, rl.frac(a_sq_cap), dominant=True))]


def _casimir_class(rs: RootSystem, a_sq: Q, coords) -> CasimirClass:
    members = tuple(sorted(coords))
    return CasimirClass(
        a_sq=a_sq,
        lam=a_sq - delta_norm_sq(rs),
        dominant_members=tuple(m for m in members if min(m) >= 0),
        sphere_members=members,
    )


def sphere_set(rs: RootSystem, lat: LatticeChoice, a_sq) -> CasimirClass:
    """The full Casimir class at exactly |mu+delta|^2 = a_sq (may be empty)."""
    a_sq = rl.frac(a_sq)
    return _casimir_class(rs, a_sq, [m for m, _ in _lattice_weights(rs, lat, a_sq, shell=True)])


def classes_up_to(rs: RootSystem, lat: LatticeChoice, a_sq_cap) -> list[CasimirClass]:
    """Casimir classes with at least one dominant member, ascending in a_sq.

    One ball enumeration buckets every lattice point by its exact shifted
    norm (an integer over one common denominator), so coincidences (equal
    a_sq) can never be split or merged by rounding.
    """
    den = rs.gram_fw_int[0]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for m, norm in _lattice_weights(rs, lat, rl.frac(a_sq_cap)):
        buckets.setdefault(norm, []).append(m)
    return [
        _casimir_class(rs, Q(norm, den), buckets[norm])
        for norm in sorted(buckets)
        if any(min(m) >= 0 for m in buckets[norm])
    ]


def dual_weight(rs: RootSystem, mu: Coords) -> Coords:
    """Highest weight of the dual representation: the dominant form of -mu."""
    return rsys.dominant_fw_coords(rs, (-c for c in mu))[0]
