"""Weight lattices, Casimir eigenvalues and sphere/class enumeration.

A weight mu is the tuple of its integer coordinates in the
fundamental-weight basis, in this module and every layer above it;
dominant weights have nonnegative ones.  make_weight checks a weight
read from input.  The Casimir eigenvalue is
(mu+d, mu+d) - (d, d) for d the half-sum of positive roots, which has
coordinates (1, ..., 1); norms are computed as exact ints on the integer
form den * gram_fw.  A Casimir class collects every lattice weight whose
shifted point mu+d lies on a common sphere X.

Enumeration is integer Fincke-Pohst (Fincke & Pohst 1985) on fraction-free
(Bareiss 1968) levels, kept on the root system (RootSystem.gram_fw_ldl):
lattice_points lists a ball with exact norms or one sphere, solving its
last coordinate, above one floor on every coordinate, and refuses past
DEFAULT_NODE_CAP nodes.  Floor -1 is the closed chamber y = m + 1 >= 0,
which meets each Weyl orbit once (Humphreys, Reflection Groups and Coxeter
Groups, 1990, 1.12): classes_up_to buckets its ball by norm and sums |X|
over the parabolic orders, walking no X.  Floor 0 gives the dominant
weights (enumerate_dominant), and no floor a whole shell X (sphere_set).
Root-lattice membership reads the simple-root coordinates of RootSystem
(simple_root_coords_int), and the root-lattice walk steps its innermost
coordinate through their one admissible coset.  Duals of dominant weights
are reps.dual_label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from math import gcd, isqrt
from operator import mul

from . import ratlinalg as rl
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
    """All lattice weights whose shifted points y = mu + 1 share one squared
    radius a_sq, the sphere X, kept as its sorted members in the closed
    chamber y >= 0 (one per Weyl orbit) and its sorted dominant members.
    sphere_size is |X| = sum |W| / |W_J(y)| over the chamber members, J(y)
    the zeros of y, or len(X) where sphere_set walked X (sphere_members,
    None otherwise)."""

    a_sq: Q
    lam: Q
    chamber_members: tuple[Coords, ...]
    dominant_members: tuple[Coords, ...]
    sphere_size: int
    sphere_members: tuple[Coords, ...] | None = None


def in_root_lattice(rs: RootSystem, fw_coords) -> bool:
    """mu = sum c_i alpha_i with integer c?  q c = q C^-T m must vanish mod q."""
    q = rs.cartan_inverse_int[0]
    return all(v % q == 0 for v in rs.simple_root_coords_int(fw_coords))


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


def lattice_points(rs: RootSystem, bound: int, floor, shell: bool = False, lat: LatticeChoice = LatticeChoice.WEIGHT):
    """[(m, Q(m + 1))] for the weights m of the lattice lat with
    Q(m + 1) <= bound, or == bound in shell mode, and every m_i >= floor
    (None for none); Q(y) = y^T G y = den |mu+delta|^2 for (den, G) =
    rs.gram_fw_int and y = m + 1 the shifted coordinates.

    Level k (last coordinate first) is p Q_k = s^2 + prev Q_{k+1} of
    rs.gram_fw_ldl = rl.fraction_free_ldl(G), kept on the root system;
    s = p y_k + (outer terms), so Q_k <= prev bound is
    s^2 <= prev (p bound - Q_{k+1}); shell mode solves it as an equality
    at k = 0.  The m_0 that complete m_1.. to a root-lattice weight are
    one coset of d_0 Z (or none), d_0 the order of omega_0 mod the root
    lattice, and the root-lattice walk steps level 0 through it.  More
    than DEFAULT_NODE_CAP values tried raise CapExceeded."""
    rows = rs.gram_fw_ldl
    prevs = (1,) + tuple(row[0] for row in rows)
    m, y = [0] * rs.rank, [0] * rs.rank
    out = []
    nodes = 0
    root = lat is LatticeChoice.ROOT
    if root:
        q, first = rs.cartan_inverse_int[0], rs.cartan_inverse_int[1][0]
        step = q // gcd(q, *first)

    def coset_start(lo: int):
        # The least m_0 >= lo with q m C^-1 = 0 mod q (in_root_lattice), if any.
        m[0] = 0
        rest = rs.simple_root_coords_int(m)
        for r in range(lo, lo + step):
            if all((r * a + b) % q == 0 for a, b in zip(first, rest)):
                return r
        return None

    def level(k: int, q_outer: int) -> None:
        nonlocal nodes
        row, prev = rows[k], prevs[k]
        p, last = row[0], shell and k == 0
        lin = sum(map(mul, row[1:], y[k + 1 :])) + p  # s = p m_k + lin
        r = prev * (p * bound - q_outer)
        t = isqrt(r)
        lo, hi = -((t + lin) // p), (t - lin) // p
        if floor is not None:
            lo = max(lo, floor)
        st = 1
        if root and not k:
            lo, st = coset_start(lo), step
            if lo is None:
                return
        nodes += 1 if last else max(0, (hi - lo) // st + 1)
        if nodes > DEFAULT_NODE_CAP:
            raise CapExceeded("enumeration nodes", nodes, DEFAULT_NODE_CAP)
        if last:
            for s in {t, -t} if t * t == r else ():
                m[0], rem = divmod(s - lin, p)
                if not rem and m[0] >= lo and (m[0] - lo) % st == 0:
                    out.append((tuple(m), bound))
            return
        for mk in range(lo, hi + 1, st):
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


def _lattice_weights(rs: RootSystem, lat: LatticeChoice, a_sq: Q, floor, shell: bool = False):
    """lattice_points of the lattice weights with |mu+delta|^2 <= a_sq, or
    == a_sq in shell mode, as (fw_coords, den |mu+delta|^2)."""
    bound, rem = divmod(a_sq.numerator * rs.gram_fw_int[0], a_sq.denominator)
    if shell and rem:
        return []
    return lattice_points(rs, bound, floor, shell, lat)


def enumerate_dominant(rs: RootSystem, lat: LatticeChoice, a_sq_cap, shell: bool = False) -> list[Coords]:
    """All dominant lattice weights with |mu+delta|^2 <= a_sq_cap, or
    == a_sq_cap in shell mode, sorted."""
    return [m for m, _ in sorted(_lattice_weights(rs, lat, rl.frac(a_sq_cap), 0, shell))]


def sphere_set(rs: RootSystem, lat: LatticeChoice, a_sq) -> CasimirClass:
    """The Casimir class at exactly |mu+delta|^2 = a_sq, its sphere X walked
    (may be empty)."""
    a_sq = rl.frac(a_sq)
    sphere = tuple(sorted(m for m, _ in _lattice_weights(rs, lat, a_sq, None, shell=True)))
    chamber = tuple(m for m in sphere if min(m) >= -1)
    dominant = tuple(m for m in chamber if min(m) >= 0)
    return CasimirClass(a_sq, a_sq - delta_norm_sq(rs), chamber, dominant, len(sphere), sphere)


def classes_up_to(rs: RootSystem, lat: LatticeChoice, a_sq_cap) -> list[CasimirClass]:
    """Casimir classes with at least one dominant member, ascending in a_sq.

    One walk of the closed chamber y = m + 1 >= 0 buckets its points by
    their exact shifted norm (an integer over one common denominator), so
    coincidences (equal a_sq) can never be split or merged by rounding.
    """
    den, delta, order = rs.gram_fw_int[0], shifted_norm_int(rs, (0,) * rs.rank), rs.weyl_order
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for m, norm in _lattice_weights(rs, lat, rl.frac(a_sq_cap), -1):
        buckets.setdefault(norm, []).append(m)
    classes = []
    # Only a bucket with a dominant member (every m_i >= 0) is a class, and only those are sorted.
    for norm in sorted(norm for norm, ms in buckets.items() if max(map(min, ms)) >= 0):
        chamber = tuple(sorted(buckets[norm]))
        dominant = tuple(m for m in chamber if min(m) >= 0)
        # |X| = sum |W| / |W_J(y)|: W_J is trivial off the walls, and a wall point's J are its -1s.
        walls = (tuple(i for i, c in enumerate(m) if c == -1) for m in chamber if min(m) < 0)
        size = order * len(dominant) + sum(order // rs.parabolic_order(j) for j in walls)
        classes.append(CasimirClass(Q(norm, den), Q(norm - delta, den), chamber, dominant, size))
    return classes
