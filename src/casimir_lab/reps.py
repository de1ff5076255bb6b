"""Representation-theoretic quantities: dimensions, weight multiplicities,
tensor and exterior decompositions, real/complex/quaternionic type.

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
takes the parity of mu . 2 rho^vee (RootSystem.two_rho_vee).
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
    TRIVIAL = "trivial"
    DIAGONAL = "diagonal"
    TORUS = "torus"


@dataclass(frozen=True, eq=False)
class RepLabel:
    """An irreducible representation: a root system and a dominant highest weight."""

    rs: RootSystem
    highest: Coords

    def __post_init__(self):
        if min(self.highest) < 0:
            raise NonDominantWeight(f"highest weight {self.highest} must be dominant")

    def __eq__(self, other):
        return isinstance(other, RepLabel) and self.rs is other.rs and self.highest == other.highest

    def __hash__(self):
        return hash((id(self.rs), self.highest))


def rep(rs: RootSystem, fw_coords) -> RepLabel:
    return RepLabel(rs, wts.make_weight(rs, fw_coords))


def adjoint_rep(rs: RootSystem) -> RepLabel:
    return rep(rs, rs.positive_roots_fw[-1])


def weyl_dim(r: RepLabel) -> int:
    """dim V^mu by the Weyl product formula prod <mu + delta, alpha^vee> over
    RootSystem.weyl_denominator; exact, asserts integrality."""
    mu_d = tuple(m + 1 for m in r.highest)
    num = 1
    for row in r.rs.coroot_pairings:
        num *= sum(map(mul, row, mu_d))
    den = r.rs.weyl_denominator
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
    q, adj = rs.cartan_inverse_int
    candidates: list[tuple[int, Coords]] = []
    for nu, _ in wts.lattice_points(rs, mu_d_sq, dominant=True):
        diff = tuple(a - b for a, b in zip(mu, nu))
        qc = [sum(map(mul, col, diff)) for col in zip(*adj)]
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


def weight_multiplicities(r: RepLabel) -> dict[Coords, int]:
    """The full weight multiset of V^mu as {fw-coords: multiplicity}."""
    return dict(_full_weight_multiplicities(r.rs, r.highest))


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


def tensor_decompose(a: RepLabel, b: RepLabel) -> dict[Coords, int]:
    """Decompose V^a (x) V^b by the signed-reflection rule on the weights of b."""
    if a.rs is not b.rs:
        raise ValueError("tensor factors must share one root system")
    if weyl_dim(b) > weyl_dim(a):
        a, b = b, a
    weights_b = _full_weight_multiplicities(a.rs, b.highest)
    return _signed_reflections(a.rs, a.highest, weights_b)


def exterior_powers(r: RepLabel, pmax: int) -> list[dict[Coords, int]]:
    """Exterior powers Lambda^p V for p = 0..pmax: Newton's identities on
    characters, each decomposed by the signed-reflection rule."""
    rs = r.rs
    base = dict(_full_weight_multiplicities(rs, r.highest))
    zero = (0,) * rs.rank

    def adams(k: int) -> dict[Coords, int]:
        return {tuple(k * x for x in w): m for w, m in base.items()}

    def convolve(c1, c2):
        out: dict[Coords, int] = {}
        for w1, m1 in c1.items():
            for w2, m2 in c2.items():
                w = tuple(x + y for x, y in zip(w1, w2))
                out[w] = out.get(w, 0) + m1 * m2
        return {w: m for w, m in out.items() if m != 0}

    chars: list[dict[Coords, int]] = [{zero: 1}]
    for p in range(1, pmax + 1):
        acc: dict[Coords, int] = {}
        for k in range(1, p + 1):
            term = convolve(adams(k), chars[p - k])
            sign = 1 if k % 2 == 1 else -1
            for w, m in term.items():
                acc[w] = acc.get(w, 0) + sign * m
        ep = {}
        for w, m in acc.items():
            v, rem = divmod(m, p)
            if rem:
                raise InternalConsistencyError("non-integral exterior-power character")
            if v:
                ep[w] = v
        chars.append(ep)

    return [_signed_reflections(rs, zero, ch.items()) for ch in chars]


def dual_label(r: RepLabel) -> RepLabel:
    """The dual V^(-w0 mu): mu's coordinates permuted by RootSystem.minus_w0."""
    return RepLabel(r.rs, tuple(r.highest[j] for j in r.rs.minus_w0))


def classify_type(r: RepLabel) -> RepType:
    """Real/complex/quaternionic type of V^mu.

    Complex iff mu is not self-dual; otherwise the parity of
    <mu, 2 rho^vee> = sum_{alpha>0} <mu, alpha^vee> separates real (even)
    from quaternionic (odd).
    """
    if dual_label(r).highest != r.highest:
        return RepType.COMPLEX
    s = sum(map(mul, r.highest, r.rs.two_rho_vee))
    return RepType.QUATERNIONIC if s % 2 else RepType.REAL


def bold_g_label(types) -> str:
    """Symmetry-group label: plain "G" when every listed RepType is real, else "Q8xG"."""
    return "G" if all(t is RepType.REAL for t in types) else "Q8xG"


def invariant_dim(V, U, kmode: KMode) -> int:
    """Dimension of the K-invariant subspace of V (x) U for the supported K modes.

    U is a {coords: multiplicity} dict in every mode: highest weights of
    irreducibles in the first two, torus weights in the third.

    - TRIVIAL: V a RepLabel, U a sum of irreducibles over the same group;
      everything is invariant, so dim V * dim U.
    - DIAGONAL: V a pair (V1, V2) of RepLabels over the factor group G',
      U a sum of irreducibles over G'; counts the trivial constituents of
      V1 (x) V2 (x) U.
    - TORUS: V a RepLabel, U a multiset of torus weights; counts
      zero-weight vectors of V (x) U.
    """
    if kmode is KMode.TRIVIAL:
        return weyl_dim(V) * sum(m * weyl_dim(rep(V.rs, c)) for c, m in U.items())
    if kmode is KMode.DIAGONAL:
        v1, v2 = V
        t = tensor_decompose(v1, v2)
        return sum(m * t.get(dual_label(rep(v1.rs, tau)).highest, 0) for tau, m in U.items())
    if kmode is KMode.TORUS:
        wm = weight_multiplicities(V)
        return sum(m * wm.get(tuple(-x for x in u), 0) for u, m in U.items())
    raise ValueError(f"unsupported K mode {kmode}")
