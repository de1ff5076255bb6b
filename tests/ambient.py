"""The textbook ambient realization of the irreducible root systems.

An independent reference for `rootsys`, which builds every root system
from its Cartan matrix alone.  Here each type is realized as in Bourbaki's
plates (Lie Groups and Lie Algebras, Ch. IV-VI, Plates I-IX): A_n in the
sum-zero hyperplane of R^{n+1}, B/C/D/F in R^n, G_2 in the sum-zero
hyperplane of R^3 and E_6/7/8 inside R^8 with half-integer coordinates.
The form is a rational multiple of the dot product that gives long roots
squared norm 2 (metric scale 1); the roots are the closure of the simple
roots under reflections, positive when their simple-root expansion is
nonnegative.  Vectors are tuples of Fraction, matrices tuples of rows; the
vector and matrix helpers below serve only the tests.
"""

from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

from casimir_lab import ratlinalg as rl

# -- rational vectors and matrices ------------------------------------------


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vscale(c, x):
    return tuple(c * a for a in x)


def dot(x, y):
    return sum((a * b for a, b in zip(x, y, strict=True)), Q(0))


def transpose(m):
    return tuple(zip(*m))


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def matvec(a, x):
    return tuple(dot(r, x) for r in a)


def mat_sub(a, b):
    return tuple(vsub(ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_scale(c, a):
    return tuple(vscale(c, r) for r in a)


# -- the realization ----------------------------------------------------------


def _simple_roots(fam, n):
    """Bourbaki's simple roots and the constant that scales the dot product
    to give long roots squared norm 2."""
    e = lambda i, d: tuple(Q(int(j == i)) for j in range(d))
    if fam == "A":
        return [vsub(e(i, n + 1), e(i + 1, n + 1)) for i in range(n)], Q(1)
    if fam in "BCD":
        chain = [vsub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        last = {"B": e(n - 1, n), "C": vscale(2, e(n - 1, n)), "D": vadd(e(n - 2, n), e(n - 1, n))}[fam]
        return chain + [last], Q(1, 2) if fam == "C" else Q(1)
    half = Q(1, 2)
    if fam == "G":
        return [rl.vec([1, -1, 0]), rl.vec([-2, 1, 1])], Q(1, 3)
    if fam == "F":
        return [vsub(e(1, 4), e(2, 4)), vsub(e(2, 4), e(3, 4)), e(3, 4), (half, -half, -half, -half)], Q(1)
    # E_8 in Bourbaki's numbering: alpha_1 = (e_1 + e_8 - e_2 - ... - e_7)/2,
    # alpha_2 = e_1 + e_2, alpha_i = e_{i-1} - e_{i-2} (1-based); E_6 and E_7
    # take the leading simple roots.
    alpha1 = (half,) + (-half,) * 6 + (half,)
    alpha2 = vadd(e(0, 8), e(1, 8))
    rest = [vsub(e(i - 2, 8), e(i - 3, 8)) for i in range(3, 9)]
    return ([alpha1, alpha2] + rest)[:n], Q(1)


class Ambient:
    """One irreducible root system in its textbook realization, at metric
    scale 1."""

    def __init__(self, family, rank):
        simple, self.base_scale = _simple_roots(family, rank)
        self.simple_roots = tuple(simple)
        self.dim = len(simple[0])
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            frontier = [r for r in {self.reflect(b, a) for b in frontier for a in simple} if r not in roots]
            roots.update(frontier)
        gram_simple = [[dot(a, b) for b in simple] for a in simple]
        expand = rl.inverse(rl.mat(gram_simple))
        heights = {b: matvec(expand, tuple(dot(b, a) for a in simple)) for b in roots}
        self.positive_roots = tuple(
            sorted((b for b in roots if min(heights[b]) >= 0), key=lambda b: (sum(heights[b]), b))
        )
        self.cartan_matrix = tuple(tuple(int(self.pairing(a, b)) for b in simple) for a in simple)
        cinv = rl.inverse(rl.mat(self.cartan_matrix))
        self.fundamental_weights = tuple(
            tuple(sum((c * a[k] for c, a in zip(row, simple)), Q(0)) for k in range(self.dim)) for row in cinv
        )
        self.delta = vscale(Q(1, 2), tuple(map(sum, zip(*self.positive_roots))))
        fws = self.fundamental_weights
        self.gram_fw = tuple(tuple(self.inner(w, v) for v in fws) for w in fws)

    @property
    def highest_root(self):
        return self.positive_roots[-1]

    def inner(self, x, y):
        """The invariant form at metric scale 1."""
        return self.base_scale * dot(x, y)

    @staticmethod
    def pairing(x, alpha):
        """<x, alpha^vee> = 2 (x, alpha) / (alpha, alpha)."""
        return 2 * dot(x, alpha) / dot(alpha, alpha)

    def reflect(self, x, alpha):
        return vsub(x, vscale(self.pairing(x, alpha), alpha))

    def fw_coords(self, x):
        """The fundamental-weight coordinates <x, alpha_i^vee>."""
        return tuple(self.pairing(x, a) for a in self.simple_roots)

    def point(self, coords):
        """sum_i coords[i] * omega_i."""
        out = (Q(0),) * self.dim
        for c, w in zip(coords, self.fundamental_weights):
            out = vadd(out, vscale(c, w))
        return out

    def reflection_matrix(self, i):
        a = self.simple_roots[i]
        c = Q(2) / dot(a, a)
        return tuple(tuple(int(j == k) - c * a[j] * a[k] for k in range(self.dim)) for j in range(self.dim))

    def word_matrix(self, word):
        m = rl.identity(self.dim)
        for i in word:
            m = matmul(m, self.reflection_matrix(i))
        return m

    def weyl_group(self):
        """[(word, matrix)] over the Weyl group, breadth-first over words
        w s_i, in the order of rootsys.weyl_group."""
        gens = [self.reflection_matrix(i) for i in range(len(self.simple_roots))]
        out = [((), rl.identity(self.dim))]
        seen = {out[0][1]}
        frontier = list(out)
        while frontier:
            nxt = []
            for word, m in frontier:
                for i, g in enumerate(gens):
                    mg = matmul(m, g)
                    if mg not in seen:
                        seen.add(mg)
                        nxt.append((word + (i,), mg))
            out += nxt
            frontier = nxt
        return out


@lru_cache(maxsize=None)
def textbook(family, rank):
    return Ambient(family, rank)


def reference(rs):
    """The textbook realization of a rootsys.RootSystem's type."""
    return textbook(rs.typ.family, rs.rank)


# |W| of the exceptional types, from Bourbaki's plates.
EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


def weyl_order(family, rank):
    """|W| by its closed forms: (n + 1)! on A_n, 2^n n! on B_n and C_n,
    2^(n - 1) n! on D_n, and the plates' values on E, F and G."""
    if family == "A":
        return factorial(rank + 1)
    if family in "BC":
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return EXCEPTIONAL_WEYL_ORDERS[(family, rank)]
