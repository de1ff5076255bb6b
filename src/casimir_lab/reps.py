"""Representation-theoretic quantities: dimensions, weight multiplicities,
tensor and exterior decompositions, real/complex/quaternionic type.

An irreducible is its dominant highest weight mu over an interned
RootSystem rs: every function takes rs first, then plain tuples.  rep
checks a highest weight read from input: make_weight, then dominance.
KMode holds every rule that depends on the isotropy group K; its
read_ustar reads and checks U* once into a KModule (the mode, the
summands in coordinate order and dim U*), and invariant_dim counts the
K-invariants of V^mu (x) U* from that one value.

Everything is exact.  Weight multiplicities come from the Freudenthal
recursion over dominant weights (expanded along Weyl orbits).  Tensor
products and exterior powers both use the signed-reflection
(Brauer-Klimyk) rule: a tensor product on the weights of one factor, an
exterior power on its character from Newton's identities.  Characters and
decompositions are {coords: multiplicity} dicts keyed by integer
fundamental-weight coordinates; a decomposition holds no zero entries.  A
weight table past WEIGHT_TABLE_CAP distinct weights is refused.

Every weight and root here is in those integer coordinates: norms use the
integer form RootSystem.form_fw_int, the positive roots come from
RootSystem.positive_roots_fw, and rootsys.dominant_fw_coords moves a
weight into the dominant chamber.  No ambient vector is built.  The
constants of the root system are read from it, not recomputed per call:
weyl_dim is one integer dot product per positive root with the coroot
pairings RootSystem.coroot_pairings over RootSystem.weyl_denominator;
dual_label permutes a highest weight by RootSystem.minus_w0; classify_type
tests mu for a fixed point of -w0 and takes the parity of mu . 2 rho^vee
(RootSystem.two_rho_vee).  The adjoint is the highest root,
RootSystem.positive_roots_fw[-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from functools import lru_cache
from operator import mul

from . import rootsys as rsys
from . import weights as wts
from .errors import CapExceeded, InternalConsistencyError, NonDominantWeight
from .rootsys import RootSystem, weyl_orbit
from .weights import Coords

# Weight tables kept across calls, keyed on (root system, highest weight).
WEIGHT_TABLE_CACHE_SIZE = 1024
# Distinct weights one weight table may hold.
WEIGHT_TABLE_CAP = 4096


class RepType(Enum):
    REAL = "real"
    COMPLEX = "complex"
    QUATERNIONIC = "quaternionic"


class KMode(Enum):
    """The isotropy group K of M = G/K, acting on the K-module U*, and
    every rule that depends on it.  U* is read once, by read_ustar, into a
    KModule that carries its mode.

    trivial   K = {e}; U* any sum of G-irreducibles, always real;
              everything is invariant.
    diagonal  G = G' x G', K = diag G', inputs expressed on the single root
              system of G'; U* a sum of G'-irreducibles.  A member mu
              stands for the block V^mu (x) V^mu*, whose type is the square
              of the G'-side indicator: real when mu is self-dual, complex
              otherwise, never quaternionic.  Reported dims and duals are
              G'-side, as the report context notes.  U* is real when every
              irreducible has the multiplicity of its dual mu*, and a
              quaternionic one an even multiplicity.
    torus     K a torus; U* a multiset of torus weights, zero multiplicities
              kept; invariants count zero weights.  U* is real when every
              weight nu has the multiplicity of -nu.

    Outside diagonal mode a member's block is V^mu itself, of its own type
    (classify_type).
    """

    TRIVIAL = "trivial"
    DIAGONAL = "diagonal"
    TORUS = "torus"

    def read_ustar(self, rs: RootSystem, mults: dict) -> KModule:
        """U* from its {coords: multiplicity} pairs, as a KModule listing
        them in coordinate order: a torus multiset keeps its zero
        multiplicities, a sum of irreducibles drops them and reads each
        summand with rep (NonDominantWeight).  A negative multiplicity is
        refused (ValueError) in every mode."""
        pairs = tuple(sorted(mults.items()))
        for c, m in pairs:
            if m < 0:
                raise ValueError(f"U* multiplicity of {list(c)} must be non-negative, got {m}")
        if self is KMode.TORUS:
            return KModule(self, pairs, sum(m for _, m in pairs))
        summands = tuple((rep(rs, c), m) for c, m in pairs if m)
        return KModule(self, summands, sum(m * weyl_dim(rs, c) for c, m in summands))

    def member_type(self, rs: RootSystem, mu: Coords, dual: Coords) -> RepType:
        """Type of the eigenspace block labeled by mu, whose dual is dual."""
        if self is KMode.DIAGONAL:
            return RepType.REAL if dual == mu else RepType.COMPLEX
        return classify_type(rs, mu)

    def context_notes(self) -> dict:
        """The report context entries that state the mode's convention."""
        if self is KMode.DIAGONAL:
            return {"diagonal_convention": "members label V^mu (x) V^mu* blocks of G' x G'; dims/duals are G'-side"}
        return {}


@dataclass(frozen=True)
class KModule:
    """U* as read by KMode.read_ustar: its K mode, its (coords,
    multiplicity) summands in coordinate order, and its dimension (the
    dims of the irreducibles, or one per torus weight, with multiplicity)."""

    kmode: KMode
    summands: tuple
    dim: int

    def check_real(self, rs: RootSystem) -> None:
        """Refuse (ValueError) a U* that is not a real K-module, as input
        the real report is not defined for."""
        if self.kmode is KMode.TRIVIAL:
            return
        mults = dict(self.summands)
        for nu, m in self.summands:
            if self.kmode is KMode.TORUS:
                partner = tuple(-x for x in nu)
            else:
                partner = dual_label(rs, nu)
                if partner == nu and m % 2 and classify_type(rs, nu) is RepType.QUATERNIONIC:
                    raise ValueError(
                        f"U* is not a real K-module: quaternionic {list(nu)} has odd multiplicity {m}")
            if mults.get(partner, 0) != m:
                raise ValueError(
                    f"U* is not a real K-module: {list(nu)} has multiplicity {m}, "
                    f"its dual {list(partner)} {mults.get(partner, 0)}")


def rep(rs: RootSystem, fw_coords) -> Coords:
    """fw_coords as the highest weight of an irreducible of rs: a checked
    weight (weights.make_weight) that is dominant."""
    mu = wts.make_weight(rs, fw_coords)
    if min(mu) < 0:
        raise NonDominantWeight(f"highest weight {mu} must be dominant")
    return mu


def weyl_dim(rs: RootSystem, mu: Coords) -> int:
    """dim V^mu by the Weyl product formula prod <mu + delta, alpha^vee> over
    RootSystem.weyl_denominator; exact, asserts integrality."""
    mu_d = tuple(m + 1 for m in mu)
    num = 1
    for row in rs.coroot_pairings:
        num *= sum(map(mul, row, mu_d))
    den = rs.weyl_denominator
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise InternalConsistencyError(f"Weyl dimension {Q(num, den)} is not a positive integer")
    return d


def _dominant_weight_multiplicities(rs: RootSystem, coords: Coords) -> dict[Coords, int]:
    """Freudenthal recursion: multiplicities of the dominant weights of V^mu.

    Norms and pairings are den * (x, y) on fundamental-weight coordinates
    (RootSystem.form_fw_int); den cancels from every ratio and comparison.
    """
    form = rs.form_fw_int
    mu = tuple(coords)
    mu_d = tuple(m + 1 for m in mu)
    mu_d_sq = form(mu_d, mu_d)
    mu_sq = form(mu, mu)

    # Dominant candidates: the dominant nu with |nu + delta|^2 <= |mu + delta|^2
    # and mu - nu = C^T c for an integral c >= 0, alpha_i being row i of the
    # Cartan matrix C; q c = (q C^-T)(mu - nu), and the height of nu is sum(c).
    q = rs.cartan_inverse_int[0]
    candidates: list[tuple[int, Coords]] = []
    for nu, _ in wts.lattice_points(rs, mu_d_sq, 0):
        qc = rs.simple_root_coords_int(tuple(a - b for a, b in zip(mu, nu)))
        if min(qc) >= 0 and all(v % q == 0 for v in qc):
            candidates.append((sum(qc) // q, nu))
    candidates.sort()

    mults: dict[Coords, int] = {}
    for height, nu in candidates:
        if height == 0:
            mults[nu] = 1
            continue
        nu_d = tuple(x + 1 for x in nu)
        denom = mu_d_sq - form(nu_d, nu_d)
        acc = 0
        for a in rs.positive_roots_fw:
            w = nu
            while True:
                w = tuple(x + y for x, y in zip(w, a))
                if form(w, w) > mu_sq:
                    break
                m = mults.get(rsys.dominant_fw_coords(rs, w)[0], 0)
                if m:
                    acc += 2 * m * form(w, a)
        val, rem = divmod(acc, denom)
        if rem:
            raise InternalConsistencyError("non-integral Freudenthal multiplicity")
        if val:
            mults[nu] = val
    return mults


def weight_multiplicities(rs: RootSystem, mu: Coords) -> dict[Coords, int]:
    """The full weight multiset of V^mu as {fw-coords: multiplicity}."""
    return dict(_full_weight_multiplicities(rs, mu))


@lru_cache(maxsize=WEIGHT_TABLE_CACHE_SIZE)
def _full_weight_multiplicities(rs: RootSystem, coords: Coords) -> tuple[tuple[Coords, int], ...]:
    """The weight table of V^coords, refused (CapExceeded) as soon as it
    holds more than WEIGHT_TABLE_CAP distinct weights."""
    table: dict[Coords, int] = {}
    for nu, m in _dominant_weight_multiplicities(rs, coords).items():
        for w in weyl_orbit(rs, nu):
            table[w] = m
        if len(table) > WEIGHT_TABLE_CAP:
            raise CapExceeded("weight table size", len(table), WEIGHT_TABLE_CAP)
    return tuple(sorted(table.items()))


def _signed_reflections(rs: RootSystem, shift: Coords, pairs) -> dict[Coords, int]:
    """Sum of m V^(shift + nu) over the (nu, m) pairs by the signed-reflection
    rule: w walks shift + nu + delta into the dominant chamber; on a wall it
    adds nothing, otherwise sign(w) m to V^(w(shift + nu + delta) - delta).
    A tensor product is a highest weight shifted by the weights of the other
    factor; a Weyl-invariant character is shift 0 with its own pairs.  Both
    are genuine, so a negative multiplicity is an internal inconsistency."""
    acc: dict[Coords, int] = {}
    for nu, m in pairs:
        t = tuple(x + 1 + y for x, y in zip(shift, nu))
        dc, word = rsys.dominant_fw_coords(rs, t)
        if 0 in dc:
            continue
        target = tuple(x - 1 for x in dc)
        acc[target] = acc.get(target, 0) + (-m if len(word) % 2 else m)
    if any(m < 0 for m in acc.values()):
        raise InternalConsistencyError("negative multiplicity in a genuine representation")
    return {c: m for c, m in acc.items() if m}


def tensor_decompose(rs: RootSystem, a: Coords, b: Coords) -> dict[Coords, int]:
    """Decompose V^a (x) V^b by the signed-reflection rule on the weights of
    the smaller factor."""
    if weyl_dim(rs, b) > weyl_dim(rs, a):
        a, b = b, a
    return _signed_reflections(rs, a, _full_weight_multiplicities(rs, b))


def exterior_powers(rs: RootSystem, mu: Coords, pmax: int) -> list[dict[Coords, int]]:
    """Exterior powers Lambda^p V^mu for p = 0..pmax: Newton's identities on
    characters, each decomposed by the signed-reflection rule."""
    base = _full_weight_multiplicities(rs, mu)
    zero = (0,) * rs.rank
    chars: list[dict[Coords, int]] = [{zero: 1}]
    for p in range(1, pmax + 1):
        # p Lambda^p = sum_k (-1)^(k-1) psi^k(V) Lambda^(p-k), the Adams
        # operation psi^k(V) taking each weight w of V to k w
        acc: dict[Coords, int] = {}
        for k in range(1, p + 1):
            sign = 1 if k % 2 == 1 else -1
            for w1, m1 in base:
                for w2, m2 in chars[p - k].items():
                    w = tuple(k * x + y for x, y in zip(w1, w2))
                    acc[w] = acc.get(w, 0) + sign * m1 * m2
        ep = {}
        for w, m in acc.items():
            v, rem = divmod(m, p)
            if rem:
                raise InternalConsistencyError("non-integral exterior-power character")
            if v:
                ep[w] = v
        chars.append(ep)

    return [_signed_reflections(rs, zero, ch.items()) for ch in chars]


def dual_label(rs: RootSystem, mu: Coords) -> Coords:
    """The highest weight -w0 mu of the dual of V^mu: mu's coordinates
    permuted by RootSystem.minus_w0."""
    return tuple(mu[j] for j in rs.minus_w0)


def classify_type(rs: RootSystem, mu: Coords) -> RepType:
    """Real/complex/quaternionic type of V^mu.

    Complex iff mu is not self-dual, that is not fixed by -w0; otherwise
    the parity of <mu, 2 rho^vee> = sum_{alpha>0} <mu, alpha^vee>
    separates real (even) from quaternionic (odd).
    """
    if any(mu[j] != m for j, m in zip(rs.minus_w0, mu)):
        return RepType.COMPLEX
    s = sum(map(mul, mu, rs.two_rho_vee))
    return RepType.QUATERNIONIC if s % 2 else RepType.REAL


def bold_g_label(types) -> str:
    """Symmetry-group label: plain "G" when every listed RepType is real, else "Q8xG"."""
    return "G" if all(t is RepType.REAL for t in types) else "Q8xG"


def invariant_dim(rs: RootSystem, mu: Coords, U: KModule) -> int:
    """dim (V^mu (x) U)^K for the highest weight mu of rs (see KMode).

    - TRIVIAL: dim V^mu * dim U.
    - DIAGONAL: sum over the summands tau of U of m_tau times the
      multiplicity of V^mu in V^mu (x) V^tau, which is the number of trivial
      constituents of V^mu (x) V^mu* (x) V^tau over G' by
      (V^mu (x) V^mu* (x) V^tau)^G' = Hom_G'(V^mu, V^mu (x) V^tau).
    - TORUS: the zero-weight vectors of V^mu (x) U.
    """
    if U.kmode is KMode.TRIVIAL:
        return weyl_dim(rs, mu) * U.dim
    if U.kmode is KMode.DIAGONAL:
        return sum(m * tensor_decompose(rs, mu, tau).get(mu, 0) for tau, m in U.summands)
    wm = weight_multiplicities(rs, mu)
    return sum(m * wm.get(tuple(-x for x in u), 0) for u, m in U.summands)
