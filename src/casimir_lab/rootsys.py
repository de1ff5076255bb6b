"""Root systems over exact rationals.

Each irreducible type gets its textbook ambient realization (A_n in the
sum-zero hyperplane of R^{n+1}, B/C/D/F in R^n, G_2 in the sum-zero
hyperplane of R^3, E_6/7/8 inside R^8 with half-integer coordinates).
The bilinear form is a rational multiple of the standard dot product,
chosen so that long roots have squared norm 2 at metric_scale = 1; the
metric_scale knob multiplies the form globally.

The ambient realization is where the root system is built.  Weights and
roots are otherwise handled in integer fundamental-weight coordinates: the form is den * gram_fw
(gram_fw_int, form_fw_int), the simple reflection s_i is
m -> m - m_i * (row i of the Cartan matrix) (reflect_fw_coords), and
dominant_fw_coords walks a weight into the dominant chamber.  weyl_group
keeps the ambient matrix action as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import factorial, lcm

from . import ratlinalg as rl
from .errors import CapExceeded, InternalConsistencyError, InvalidDynkinType
from .ratlinalg import Mat, Vec

DEFAULT_WEYL_CAP = 10080
# Distinct (type, metric scale) pairs kept by build_root_system.
ROOT_SYSTEM_CACHE_SIZE = 16

_EXCEPTIONAL_WEYL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


@dataclass(frozen=True)
class RootSystemType:
    """A Dynkin family letter plus rank, validated at construction."""

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
    """A Weyl group element: a word in simple reflections and its ambient matrix."""

    word: tuple[int, ...]
    matrix: Mat

    def apply(self, x: Vec) -> Vec:
        return rl.matvec(self.matrix, x)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """An irreducible root system realized in rational ambient coordinates.

    base_form_scale is the fixed rational constant making long roots have
    squared norm 2 under inner() at metric_scale = 1; metric_scale rescales
    the form globally on top of that.
    """

    typ: RootSystemType
    ambient_dim: int
    simple_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    fundamental_weights: tuple[Vec, ...]
    delta: Vec
    gram_fw: Mat
    metric_scale: Q
    base_form_scale: Q

    @property
    def rank(self) -> int:
        return self.typ.rank

    @cached_property
    def gram_fw_int(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
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
    def positive_roots_fw(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots in fundamental-weight coordinates <beta, alpha_i^vee>,
        in the order of positive_roots (the highest root last)."""
        return tuple(tuple(int(c) for c in self.fw_coords(b)) for b in self.positive_roots)

    def inner(self, x: Vec, y: Vec) -> Q:
        """The invariant bilinear form (scaled dot product)."""
        if len(x) != self.ambient_dim or len(y) != self.ambient_dim:
            raise rl.DimensionMismatch("vector does not live in the ambient space")
        return self.metric_scale * self.base_form_scale * rl.dot(x, y)

    def pairing(self, x: Vec, alpha: Vec) -> Q:
        """<x, alpha^vee> = 2(x, alpha)/(alpha, alpha); scale independent."""
        return 2 * rl.dot(x, alpha) / rl.dot(alpha, alpha)

    def fw_coords(self, x: Vec) -> Vec:
        """Coordinates of (the root-span part of) x in the fundamental-weight basis."""
        return tuple(self.pairing(x, a) for a in self.simple_roots)

    def simple_reflection_matrix(self, i: int) -> Mat:
        a = self.simple_roots[i]
        return rl.mat_sub(rl.identity(self.ambient_dim), rl.mat_scale(Q(2) / rl.dot(a, a), rl.outer(a, a)))


def _family_simple_roots(fam: str, n: int) -> tuple[list[Vec], Q]:
    """Simple roots in the textbook realization and the long-root normalizer."""
    e = lambda i, d: tuple(Q(1) if j == i else Q(0) for j in range(d))

    if fam == "A":
        d = n + 1
        roots = [rl.vsub(e(i, d), e(i + 1, d)) for i in range(n)]
        return roots, Q(1)
    if fam == "B":
        roots = [rl.vsub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [e(n - 1, n)]
        return roots, Q(1)
    if fam == "C":
        roots = [rl.vsub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [rl.vscale(2, e(n - 1, n))]
        return roots, Q(1, 2)
    if fam == "D":
        roots = [rl.vsub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [rl.vadd(e(n - 2, n), e(n - 1, n))]
        return roots, Q(1)
    if fam == "G":
        return [rl.vec([1, -1, 0]), rl.vec([-2, 1, 1])], Q(1, 3)
    if fam == "F":
        return [
            rl.vec([0, 1, -1, 0]),
            rl.vec([0, 0, 1, -1]),
            rl.vec([0, 0, 0, 1]),
            rl.vec([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)]),
        ], Q(1)
    if fam == "E":
        # Bourbaki numbering inside R^8; E6/E7 take the leading subsets.
        half = Q(1, 2)
        alpha1 = rl.vec([half, -half, -half, -half, -half, -half, -half, half])
        alpha2 = rl.vec([1, 1, 0, 0, 0, 0, 0, 0])
        rest = [rl.vsub(e(i - 2, 8), e(i - 3, 8)) for i in range(3, 9)]  # e_{i-1} - e_{i-2}, 1-based
        all8 = [alpha1, alpha2] + rest
        return all8[:n], Q(1)
    raise InvalidDynkinType(fam)


def _close_under_reflections(rs_simple: list[Vec]) -> list[Vec]:
    """All roots: the closure of the simple roots under simple reflections."""
    seen = set(rs_simple)
    frontier = list(rs_simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for a in rs_simple:
                r = rl.vsub(beta, rl.vscale(2 * rl.dot(beta, a) / rl.dot(a, a), a))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


def build_root_system(typ: RootSystemType, metric_scale=1) -> RootSystem:
    """The full rational realization of an irreducible root system.

    Root systems are immutable and interned: equal (type, metric scale)
    pairs give the same object, so caches keyed on it hit across requests.
    """
    metric_scale = rl.frac(metric_scale)
    if metric_scale <= 0:
        raise ValueError("metric_scale must be positive")
    return _build_root_system(typ, metric_scale)


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def _build_root_system(typ: RootSystemType, metric_scale: Q) -> RootSystem:
    simple, base_scale = _family_simple_roots(typ.family, typ.rank)
    d = len(simple[0])
    n = typ.rank

    all_roots = _close_under_reflections(simple)
    # Expansion in the simple-root basis decides positivity.
    a_mat = rl.mat(simple)
    gram_simple = rl.matmul(a_mat, rl.transpose(a_mat))
    gram_inv = rl.inverse(gram_simple)
    positive = []
    for beta in all_roots:
        coeffs = rl.matvec(gram_inv, rl.matvec(a_mat, beta))
        if all(c >= 0 for c in coeffs):
            positive.append(beta)
    positive.sort(key=lambda b: (sum(rl.matvec(gram_inv, rl.matvec(a_mat, b))), b))
    if 2 * len(positive) != len(all_roots):
        raise InternalConsistencyError("positive roots are not half of all roots")

    cartan = []
    for ai in simple:
        row = []
        for aj in simple:
            c = 2 * rl.dot(ai, aj) / rl.dot(aj, aj)
            if c.denominator != 1:
                raise InternalConsistencyError("non-integral Cartan entry")
            row.append(int(c))
        cartan.append(tuple(row))
    cartan_q = rl.mat(cartan)
    cartan_inv = rl.inverse(cartan_q)
    fws = []
    for i in range(n):
        w = tuple(Q(0) for _ in range(d))
        for k in range(n):
            w = rl.vadd(w, rl.vscale(cartan_inv[i][k], simple[k]))
        fws.append(w)

    delta = tuple(Q(0) for _ in range(d))
    for w in fws:
        delta = rl.vadd(delta, w)
    half_sum = rl.vscale(Q(1, 2), tuple(sum(col) for col in zip(*positive)))
    if delta != half_sum:
        raise InternalConsistencyError("delta != half sum of positive roots")

    long_sq = max(rl.dot(b, b) for b in all_roots)
    if base_scale * long_sq != 2:
        raise InternalConsistencyError("long-root normalization broken")

    form = metric_scale * base_scale
    gram_fw = rl.mat([[form * rl.dot(wi, wj) for wj in fws] for wi in fws])

    return RootSystem(
        typ=typ,
        ambient_dim=d,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        cartan_matrix=tuple(cartan),
        fundamental_weights=tuple(fws),
        delta=delta,
        gram_fw=gram_fw,
        metric_scale=metric_scale,
        base_form_scale=base_scale,
    )


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
    """The full Weyl group as explicit ambient matrices, BFS over reduced words.

    Refuses (CapExceeded) when the group order from the classical order
    formula exceeds cap.
    """
    order = rs.typ.weyl_order()
    if order > cap:
        raise CapExceeded(f"Weyl group order of {rs.typ.label}", order, cap)
    gens = [rs.simple_reflection_matrix(i) for i in range(rs.rank)]
    ident = WeylElement(word=(), matrix=rl.identity(rs.ambient_dim))
    seen = {ident.matrix: ident}
    frontier = [ident]
    out = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(gens):
                m = rl.matmul(w.matrix, g)
                if m not in seen:
                    elem = WeylElement(word=w.word + (i,), matrix=m)
                    seen[m] = elem
                    nxt.append(elem)
                    out.append(elem)
        frontier = nxt
    if len(out) != order:
        raise InternalConsistencyError(f"enumerated {len(out)} Weyl elements, expected {order}")
    return out


def highest_root(rs: RootSystem) -> Vec:
    """The highest root (a long root; the last positive root in height order)."""
    return rs.positive_roots[-1]
