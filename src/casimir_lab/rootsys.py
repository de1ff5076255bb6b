"""Root systems from their Cartan matrices.

A root system is its Cartan matrix C[i][j] = <alpha_i, alpha_j^vee>, read
off Bourbaki's Dynkin diagrams (Lie Groups and Lie Algebras, Ch. IV-VI,
Plates I-IX), and a global metric scale.  Weights and roots live in
integer fundamental-weight coordinates: the simple root alpha_i is row i
of C, the simple reflection s_i is m -> m - m_i C[i] (reflect_fw_coords),
the roots are the Weyl orbit of the simple roots (weyl_orbit), and a root
m is positive when its simple-root coordinates m C^-1 are nonnegative.

The invariant form takes long roots to squared norm 2 at metric_scale = 1.
The half root norms d_i = (alpha_i, alpha_i)/2 solve
C[i][j] d_j = C[j][i] d_i, and (omega_i, omega_j) = (C^-1)_ij d_j on the
fundamental weights, times metric_scale (gram_fw; den * gram_fw in
integers is gram_fw_int and form_fw_int).  dominant_fw_coords walks a
weight into the dominant chamber, and weyl_group lists the Weyl group as
integer matrices on fundamental-weight coordinates.

A RootSystem is immutable and build_root_system interns it, so it keeps
its invariants, each computed on first use and checked then: the positive
roots; the integer coroot pairings <omega_i, alpha^vee> with the Weyl
denominator prod <delta, alpha^vee> and 2 rho^vee (a non-integral pairing
raises InternalConsistencyError); the permutation -w0 of the fundamental
weights, from the chamber walk of each -omega_i (it must be an involution);
|W delta|, whose identity |W delta| = |W| is checked once per root system;
and the fraction-free LDL levels of the integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from operator import mul

from . import ratlinalg as rl
from .errors import CapExceeded, InternalConsistencyError, InvalidDynkinType
from .ratlinalg import Mat

DEFAULT_WEYL_CAP = 10080
# Largest admitted Lie rank: the Cartan inverse and the roots grow like rank^4.
RANK_CAP = 32
# Distinct (type, metric scale) pairs kept by build_root_system.
ROOT_SYSTEM_CACHE_SIZE = 16

IntMat = tuple[tuple[int, ...], ...]

_EXCEPTIONAL_WEYL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


@dataclass(frozen=True)
class RootSystemType:
    """A Dynkin family letter plus rank, validated at construction.

    A rank past RANK_CAP is refused (CapExceeded) here, before any Cartan
    matrix is built.
    """

    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "C" and n >= 2)
            or (fam == "D" and n >= 3)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise InvalidDynkinType(f"{fam}{n} is not a supported Dynkin type")
        if n > RANK_CAP:
            raise CapExceeded("Lie rank", n, RANK_CAP)

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def weyl_order(self) -> int:
        fam, n = self.family, self.rank
        if fam == "A":
            return factorial(n + 1)
        if fam in ("B", "C"):
            return 2**n * factorial(n)
        if fam == "D":
            return 2 ** (n - 1) * factorial(n)
        return _EXCEPTIONAL_WEYL_ORDERS[(fam, n)]


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element: a word in simple reflections and its integer
    matrix on fundamental-weight coordinates (column vectors)."""

    word: tuple[int, ...]
    matrix: IntMat

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """An irreducible root system: its type, its Cartan matrix and the
    metric scale that multiplies the invariant form globally."""

    typ: RootSystemType
    cartan_matrix: IntMat
    metric_scale: Q

    @property
    def rank(self) -> int:
        return self.typ.rank

    @cached_property
    def cartan_inverse_int(self) -> tuple[int, IntMat]:
        """(q, q C^-1) for the Cartan matrix C, q the least common denominator."""
        cinv = rl.inverse(rl.mat(self.cartan_matrix))
        q = lcm(*(x.denominator for row in cinv for x in row))
        return q, tuple(tuple(int(x * q) for x in row) for row in cinv)

    @cached_property
    def gram_fw(self) -> Mat:
        """The invariant form on the fundamental weights:
        metric_scale * (C^-1)_ij * d_j with d the half root norms."""
        d = _half_root_norms(self.cartan_matrix)
        q, adj = self.cartan_inverse_int
        return tuple(tuple(self.metric_scale * Q(a, q) * dj for a, dj in zip(row, d)) for row in adj)

    @cached_property
    def gram_fw_int(self) -> tuple[int, IntMat]:
        """(den, den * gram_fw): the form on fundamental-weight coordinates in
        integers, den the least common denominator of gram_fw."""
        den = lcm(*(x.denominator for row in self.gram_fw for x in row))
        return den, tuple(tuple(int(x * den) for x in row) for row in self.gram_fw)

    def form_fw_int(self, x, y) -> int:
        """den * (x, y) for x, y in fundamental-weight coordinates, an exact
        int with den = gram_fw_int[0]."""
        g = self.gram_fw_int[1]
        return sum(xi * sum(gij * yj for gij, yj in zip(row, y)) for xi, row in zip(x, g))

    @cached_property
    def positive_roots_fw(self) -> IntMat:
        """The positive roots in fundamental-weight coordinates, ascending in
        height (the highest root last).  Checks that they are half of all
        roots and that their half sum is delta = (1, ..., 1)."""
        roots = weyl_orbit(self, *self.cartan_matrix)
        q, adj = self.cartan_inverse_int
        positive = []
        for m in roots:
            qc = [sum(map(mul, m, col)) for col in zip(*adj)]  # q m C^-1
            if min(qc) >= 0:
                positive.append((sum(qc), m))
        if 2 * len(positive) != len(roots):
            raise InternalConsistencyError("positive roots are not half of all roots")
        if any(sum(col) != 2 for col in zip(*(m for _, m in positive))):
            raise InternalConsistencyError("delta != half sum of positive roots")
        return tuple(m for _, m in sorted(positive))

    @cached_property
    def coroot_pairings(self) -> IntMat:
        """Row k holds <omega_i, alpha_k^vee> = 2 (omega_i, alpha_k) / (alpha_k, alpha_k)
        for the k-th positive root, so <mu, alpha_k^vee> is row k dotted with
        mu's coordinates.  A non-integral pairing is an internal inconsistency."""
        g = self.gram_fw_int[1]
        rows = []
        for a in self.positive_roots_fw:
            ga = [sum(map(mul, row, a)) for row in g]  # den (omega_i, a)
            aa = sum(map(mul, a, ga))
            row = [divmod(2 * x, aa) for x in ga]
            if any(rem for _, rem in row):
                raise InternalConsistencyError("non-integral coroot pairing")
            rows.append(tuple(p for p, _ in row))
        return tuple(rows)

    @cached_property
    def weyl_denominator(self) -> int:
        """prod_{alpha > 0} <delta, alpha^vee>, the denominator of the Weyl dimension formula."""
        return prod(map(sum, self.coroot_pairings))

    @cached_property
    def two_rho_vee(self) -> tuple[int, ...]:
        """<omega_i, 2 rho^vee> for each i: mu dotted with it is sum_{alpha > 0} <mu, alpha^vee>."""
        return tuple(map(sum, zip(*self.coroot_pairings)))

    @cached_property
    def minus_w0(self) -> tuple[int, ...]:
        """The permutation of the fundamental weights by -w_0: -w_0 omega_i is
        omega_j for j = minus_w0[i], read off the chamber walk of -omega_i.
        The result must be an involutive permutation."""
        n = self.rank
        perm = []
        for i in range(n):
            dom = dominant_fw_coords(self, tuple(-int(i == j) for j in range(n)))[0]
            if sorted(dom) != [0] * (n - 1) + [1]:
                raise InternalConsistencyError(f"-w0 omega_{i} = {dom} is not a fundamental weight")
            perm.append(dom.index(1))
        if any(perm[p] != i for i, p in enumerate(perm)):
            raise InternalConsistencyError(f"-w0 = {perm} is not an involutive permutation")
        return tuple(perm)

    @cached_property
    def delta_orbit_size(self) -> int:
        """|W delta|, enumerated once.  The orbit of delta is free, so it has
        |W| points: InternalConsistencyError is raised otherwise."""
        found = len(weyl_orbit(self, (1,) * self.rank))
        order = self.typ.weyl_order()
        if found != order:
            raise InternalConsistencyError(f"enumerated {found} Weyl elements, expected {order}")
        return found

    @cached_property
    def gram_fw_ldl(self) -> IntMat:
        """rl.fraction_free_ldl(gram_fw_int[1]), the levels of lattice enumeration."""
        return rl.fraction_free_ldl(self.gram_fw_int[1])


def _cartan_matrix(fam: str, n: int) -> IntMat:
    """Bourbaki's Cartan matrix, node i being Bourbaki's node i + 1: a chain,
    the D fork, the E branch of node 1 at node 3, and one multiple bond
    (i, j, k) with C[i][j] = -k and alpha_i long."""
    if fam == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif fam == "E":
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    bond = {"B": (n - 2, n - 1, 2), "C": (n - 1, n - 2, 2), "F": (1, 2, 2), "G": (1, 0, 3)}.get(fam)
    if bond:
        i, j, k = bond
        c[i][j] = -k
    return tuple(map(tuple, c))


def _half_root_norms(c: IntMat) -> tuple[Q, ...]:
    """d_i = (alpha_i, alpha_i)/2 from C[i][j] d_j = C[j][i] d_i along the
    connected Dynkin diagram, scaled so that long roots have d = 1."""
    d = {0: Q(1)}
    while len(d) < len(c):
        for i, j in [(i, j) for i in d for j in range(len(c)) if j not in d and c[i][j]]:
            d[j] = c[j][i] * d[i] / c[i][j]
    top = max(d.values())
    return tuple(d[i] / top for i in range(len(c)))


def weyl_orbit(rs: RootSystem, *weights) -> set[tuple[int, ...]]:
    """The union of the Weyl orbits of the given weights, in
    fundamental-weight coordinates: breadth-first over the simple
    reflections (s_i fixes m when m_i = 0)."""
    seen = set(map(tuple, weights))
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for i, mi in enumerate(m):
                if mi:
                    r = reflect_fw_coords(rs, m, i)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return seen


def build_root_system(typ: RootSystemType, metric_scale=1) -> RootSystem:
    """The root system of an irreducible type at a positive metric scale.

    Root systems are immutable and interned: equal (type, metric scale)
    pairs give the same object, so caches keyed on it hit across requests.
    """
    metric_scale = rl.frac(metric_scale)
    if metric_scale <= 0:
        raise ValueError("metric_scale must be positive")
    return _build_root_system(typ, metric_scale)


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def _build_root_system(typ: RootSystemType, metric_scale: Q) -> RootSystem:
    rs = RootSystem(typ=typ, cartan_matrix=_cartan_matrix(typ.family, typ.rank), metric_scale=metric_scale)
    rs.positive_roots_fw  # derived now, so that a failed identity check refuses the build
    return rs


def dominant_fw_coords(rs: RootSystem, m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Walk a weight in fundamental-weight coordinates into the closed dominant
    chamber, reflecting in the first simple root with negative pairing.

    Returns (dominant coords, word): the product of the simple reflections
    s_{word[0]} s_{word[1]} ... maps m onto the dominant coords, and the
    word is reduced, so its parity is the sign of that Weyl element.
    """
    m = tuple(m)
    steps: list[int] = []
    while True:
        for i, mi in enumerate(m):
            if mi < 0:
                m = reflect_fw_coords(rs, m, i)
                steps.append(i)
                break
        else:
            return m, tuple(reversed(steps))


def reflect_fw_coords(rs: RootSystem, m: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The simple reflection s_i in fundamental-weight coordinates:
    m - m_i alpha_i, where alpha_i has coordinates row i of the Cartan matrix."""
    row = rs.cartan_matrix[i]
    mi = m[i]
    return tuple(mj - mi * cj for mj, cj in zip(m, row))


def weyl_group(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> list[WeylElement]:
    """The full Weyl group as integer matrices on fundamental-weight
    coordinates, breadth-first over reduced words.

    Refuses (CapExceeded) when the group order from the classical order
    formula exceeds cap.
    """
    order = rs.typ.weyl_order()
    if order > cap:
        raise CapExceeded(f"Weyl group order of {rs.typ.label}", order, cap)
    n = rs.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # Column k of s_i is s_i applied to the k-th coordinate vector.
    gen_cols = [[reflect_fw_coords(rs, e, i) for e in ident] for i in range(n)]
    seen = {ident}
    frontier = [WeylElement(word=(), matrix=ident)]
    out = list(frontier)
    while frontier:
        nxt = []
        for w in frontier:
            for i, cols in enumerate(gen_cols):
                m = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in w.matrix)
                if m not in seen:
                    seen.add(m)
                    elem = WeylElement(word=w.word + (i,), matrix=m)
                    nxt.append(elem)
                    out.append(elem)
        frontier = nxt
    if len(out) != order:
        raise InternalConsistencyError(f"enumerated {len(out)} Weyl elements, expected {order}")
    return out
