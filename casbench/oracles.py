"""Reference computations for checking casimir-lab outputs.

Nothing here imports the package under test.  Root data start from
hard-coded Cartan matrices and simple-root lengths (long roots have
squared length 2, simple roots in Bourbaki order), and everything else is
derived with plain Fractions, integer box scans and numpy on matrices
built here.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import lru_cache

import numpy as np

# (Cartan matrix A with A[i][j] = <alpha_i, alpha_j^vee>, squared simple-root lengths)
CARTAN = {
    "A1": ([[2]], [2]),
    "A2": ([[2, -1], [-1, 2]], [2, 2]),
    "B2": ([[2, -2], [-1, 2]], [2, 1]),
    "G2": ([[2, -1], [-3, 2]], [Q(2, 3), 2]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [2, 2, 2]),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [2, 2, 1]),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [1, 1, 2]),
}

WEYL_ORDER = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48}


def _inverse(m):
    """Gauss-Jordan inverse over the rationals."""
    n = len(m)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


class RootData:
    """One root system, derived from its Cartan matrix and root lengths."""

    def __init__(self, name: str):
        cartan, lengths = CARTAN[name]
        self.name = name
        self.rank = n = len(cartan)
        self.cartan = cartan
        self.lengths = [Q(x) for x in lengths]
        self.cartan_inv = _inverse(cartan)
        # (omega_i, omega_j) = (A^-1)[j][i] * |alpha_i|^2 / 2
        self.gram_fw = [[self.cartan_inv[j][i] * self.lengths[i] / 2 for j in range(n)] for i in range(n)]
        self.positive_roots = self._positive_roots()
        self.delta = (1,) * n
        self.delta_sq = self.norm_sq(self.delta)
        self._weyl_words = None

    # -- geometry in fundamental-weight coordinates ---------------------

    def norm_sq(self, y) -> Q:
        g = self.gram_fw
        return sum((g[i][j] * y[i] * y[j] for i in range(self.rank) for j in range(self.rank)), Q(0))

    def shifted_norm_sq(self, mu) -> Q:
        return self.norm_sq([m + 1 for m in mu])

    def reflect(self, c, i):
        """s_i on fundamental-weight coordinates: alpha_i has coordinates A[i]."""
        ci = c[i]
        return tuple(cj - ci * self.cartan[i][j] for j, cj in enumerate(c))

    def dominant(self, c):
        c = tuple(c)
        while True:
            i = next((k for k, x in enumerate(c) if x < 0), None)
            if i is None:
                return c
            c = self.reflect(c, i)

    def dual(self, mu):
        """Highest weight of the dual: the dominant conjugate of -mu."""
        return self.dominant(tuple(-m for m in mu))

    def to_root_coords(self, c):
        n = self.rank
        return tuple(sum((c[i] * self.cartan_inv[i][k] for i in range(n)), Q(0)) for k in range(n))

    # -- roots and the Weyl group ----------------------------------------

    def _positive_roots(self):
        n = self.rank
        simple = [tuple(int(i == k) for k in range(n)) for i in range(n)]

        def reflect_root(beta, i):
            # <beta, alpha_i^vee> = sum_k beta_k A[k][i]
            p = sum(beta[k] * self.cartan[k][i] for k in range(n))
            return tuple(b - p * int(k == i) for k, b in enumerate(beta))

        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(n):
                    r = reflect_root(beta, i)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return sorted(b for b in seen if all(x >= 0 for x in b))

    def pairing_with_root(self, y, beta) -> Q:
        """(y, beta) for y in fw coordinates, beta in simple-root coordinates."""
        return sum((y[k] * beta[k] * self.lengths[k] / 2 for k in range(self.rank)), Q(0))

    def weyl_words(self):
        """(word, sign) for every Weyl element, from a BFS of the orbit of delta."""
        if self._weyl_words is None:
            start = self.delta
            seen = {start: ()}
            frontier = [start]
            while frontier:
                nxt = []
                for v in frontier:
                    for i in range(self.rank):
                        r = self.reflect(v, i)
                        if r not in seen:
                            seen[r] = seen[v] + (i,)
                            nxt.append(r)
                frontier = nxt
            self._weyl_words = [(w, -1 if len(w) % 2 else 1) for w in seen.values()]
        return self._weyl_words

    def apply_word(self, word, c):
        for i in reversed(word):
            c = self.reflect(c, i)
        return c

    # -- representation data ---------------------------------------------

    def weyl_dim(self, mu) -> int:
        y = [m + 1 for m in mu]
        num = Q(1)
        den = Q(1)
        for beta in self.positive_roots:
            num *= self.pairing_with_root(y, beta)
            den *= self.pairing_with_root(self.delta, beta)
        d = num / den
        assert d.denominator == 1 and d > 0
        return int(d)

    def partitions(self, gamma) -> int:
        """Kostant's partition function: ways to write gamma as a sum of positive roots."""
        return _kostant(self.name, tuple(gamma), 0)

    def weight_mult(self, mu, nu) -> int:
        """Multiplicity of weight nu in V^mu by Kostant's formula."""
        lam = tuple(m + 1 for m in mu)
        target = tuple(x + 1 for x in nu)
        total = 0
        for word, sign in self.weyl_words():
            w = self.apply_word(word, lam)
            gamma = self.to_root_coords(tuple(a - b for a, b in zip(w, target)))
            if all(g.denominator == 1 and g >= 0 for g in gamma):
                total += sign * self.partitions(tuple(int(g) for g in gamma))
        return total

    def zero_weight_mult(self, mu) -> int:
        return self.weight_mult(mu, (0,) * self.rank)

    def isotypic(self, mu, kmode: str) -> int:
        """dim (V^mu (x) U*)^K for U* trivial, by Schur's lemma or the zero weight."""
        if kmode == "trivial":
            return self.weyl_dim(mu)
        if kmode == "diagonal":
            return 1
        if kmode == "torus":
            return self.zero_weight_mult(mu)
        raise ValueError(kmode)

    # -- Casimir classes by a naive box scan -------------------------------

    def box_bound(self, a_sq_cap) -> int:
        """|y_i| <= sqrt(cap * (G^-1)_ii) on the ellipsoid y^T G y <= cap."""
        ginv = _inverse(self.gram_fw)
        return max(math.isqrt(int(Q(a_sq_cap) * ginv[i][i]) + 1) + 1 for i in range(self.rank))

    def classes(self, a_sq_cap):
        """{a_sq: sorted shifted-norm class members} for every lattice weight with
        |mu + delta|^2 <= cap, scanning the whole coordinate box."""
        cap = Q(a_sq_cap)
        b = self.box_bound(cap)
        n = self.rank
        den = math.lcm(*(x.denominator for row in self.gram_fw for x in row))
        g = [[int(x * den) for x in row] for row in self.gram_fw]
        limit = cap * den
        out: dict = {}
        for y in _box(n, b):
            val = sum(g[i][j] * y[i] * y[j] for i in range(n) for j in range(n))
            if val <= limit:
                out.setdefault(val, []).append(tuple(c - 1 for c in y))
        return {Q(v, den): sorted(ms) for v, ms in out.items()}


@lru_cache(maxsize=None)
def _kostant(name: str, gamma: tuple, start: int) -> int:
    roots = ROOT_DATA(name).positive_roots
    if all(g == 0 for g in gamma):
        return 1
    if start == len(roots):
        return 0
    beta = roots[start]
    total = 0
    cur = gamma
    while all(g >= 0 for g in cur):
        total += _kostant(name, cur, start + 1)
        cur = tuple(g - b for g, b in zip(cur, beta))
    return total


def _box(n, b):
    if n == 0:
        yield ()
        return
    for rest in _box(n - 1, b):
        for v in range(-b, b + 1):
            yield rest + (v,)


@lru_cache(maxsize=None)
def ROOT_DATA(name: str) -> RootData:
    return RootData(name)


class ClassInfo:
    """Expected data of one Casimir class."""

    def __init__(self, rd: RootData, a_sq: Q, members):
        self.a_sq = a_sq
        self.lam = a_sq - rd.delta_sq
        self.members = members
        self.points = len(members)
        self.dominant = [m for m in members if all(c >= 0 for c in m)]
        # shifted points in the closed dominant chamber: one per Weyl orbit
        self.chamber_points = sum(1 for m in members if all(c >= -1 for c in m))


@lru_cache(maxsize=None)
def class_table(name: str, a_sq_cap) -> list:
    rd = ROOT_DATA(name)
    return [ClassInfo(rd, a, ms) for a, ms in sorted(rd.classes(a_sq_cap).items())]


def sphere(name: str, a_sq) -> ClassInfo:
    rd = ROOT_DATA(name)
    a_sq = Q(a_sq)
    return ClassInfo(rd, a_sq, rd.classes(a_sq).get(a_sq, []))


def expected_report(name: str, cap, kmode: str) -> list:
    """[(class, [(mu, dual, dim, isotypic)])] for a report with trivial U*."""
    rd = ROOT_DATA(name)
    out = []
    for cls in class_table(name, cap):
        members = []
        for mu in cls.dominant:
            iso = rd.isotypic(mu, kmode)
            if iso > 0:
                members.append((mu, rd.dual(mu), rd.weyl_dim(mu), iso))
        if members:
            out.append((cls, members))
    return out


# -- SU(2)^c x T^n operators in an orthonormal basis ------------------------


def spin_matrices(m: int):
    """Standard Hermitian spin-(m/2) matrices J_x, J_y, J_z."""
    j = m / 2
    ms = [j - k for k in range(m + 1)]
    jp = np.zeros((m + 1, m + 1))
    for k in range(1, m + 1):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    jx = (jp + jp.T) / 2
    jy = (jp - jp.T) / 2j
    jz = np.diag(ms).astype(float)
    return jx, jy, jz


def operator(spins, torus, kappa):
    """sum_ab kappa_ab H_a H_b with H the Hermitian generators of the irreducible.

    The algebra basis is -i J_k per SU(2) factor and i z_t per torus
    factor, so H = J_k and H = -z_t I; kappa is a dense rational matrix.
    """
    dims = [m + 1 for m in spins]
    total = math.prod(dims)
    gens = []
    for c, m in enumerate(spins):
        for jk in spin_matrices(m):
            acc = np.ones((1, 1))
            for f, d in enumerate(dims):
                acc = np.kron(acc, jk if f == c else np.eye(d))
            gens.append(acc)
    for z in torus:
        gens.append(-z * np.eye(total))
    k = np.array([[float(x) for x in row] for row in kappa])
    d = np.zeros((total, total), dtype=complex)
    for a in range(len(gens)):
        for b in range(len(gens)):
            if k[a, b] != 0:
                d += k[a, b] * (gens[a] @ gens[b])
    return d


def eigenvalues(spins, torus, kappa):
    return np.linalg.eigvalsh(operator(spins, torus, kappa))


def exact_trace(spins, torus, kappa) -> Q:
    """trace D = sum over SU(2) factors of (sum_k kappa_kk) m(m+1)(m+2)/12 times
    the other factors' dimension, plus kappa_tt z_t^2 dim V per torus factor."""
    dim = math.prod(m + 1 for m in spins)
    total = Q(0)
    for c, m in enumerate(spins):
        diag = sum(Q(kappa[3 * c + k][3 * c + k]) for k in range(3))
        total += diag * Q(m * (m + 1) * (m + 2), 12) * (dim // (m + 1))
    base = 3 * len(spins)
    for t, z in enumerate(torus):
        total += Q(kappa[base + t][base + t]) * z * z * dim
    return total


def irreps(su2: int, torus: int, cap: int):
    """Every (spins, torus character) with 0 <= m_i <= cap and |z_t| <= cap."""
    out = [((), ())]
    for _ in range(su2):
        out = [(s + (m,), z) for s, z in out for m in range(cap + 1)]
    for _ in range(torus):
        out = [(s, z + (t,)) for s, z in out for t in range(-cap, cap + 1)]
    return out


def is_quaternionic(spins, torus) -> bool:
    return not any(torus) and sum(spins) % 2 == 1


def dual_irrep(spins, torus):
    return spins, tuple(-z for z in torus)
