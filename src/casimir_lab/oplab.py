"""Exact metric-parameterized operators on irreducibles of SU(2)^c x T^n.

Builds the operator -sum_ij kappa_ij M_i M_j from explicit representation
matrices, extracts characteristic polynomials and resultants, and searches
for rational witness metrics certifying generic spectral simplicity of a
cap-bounded representation list.  Each doubled generator 2 M_i is sparse
integer rows tagged real or imaginary (i times those rows), so each
quadratic piece is one integer matrix, real or imaginary, and an operator
is Gaussian-integer rows over a common denominator.  Its characteristic
polynomial comes from Berkowitz's division-free algorithm (Berkowitz 1984;
Abdeljaoued 1997), on integers for a real operator and on Gaussian
integers otherwise.

Dual pairs share one characteristic polynomial.  On the monomial basis of
V, let i-bar reverse every SU(2) digit k -> m - k of the index i (so
i-bar = dim V - 1 - i) and let s_i = (-1)^(digit sum of i).  Then for
every metric, on the integer rows A = den * D,

    A_{V*}[i][j] = s_i s_j conj(A_V[i-bar][j-bar]).

Proof: write T for the signed reversal T[i][i-bar] = s_i, so T^(-1) is
the reversal with the signs on the other side, (T^(-1))[j-bar][j] = s_j.
Each doubled generator satisfies G^{V*} = T conj(G^V) T^(-1), read off
_doubled_generators at a row of digit k.  For 2 Y_1 = i X_1, the entry
one stride up is -i(k+1); its mirror i-bar has digit m - k and the entry
one stride down, -(m - (m-k) + 1) = -(k + 1) in X_1, so conj gives
i(k+1), and s_i s_j = -1 for digits k, k+1 restores -i(k+1); the stride
down is the same computation read backwards.  For the real 2 Y_2 the
mirrored entry is m - (m-k) + 1 = k + 1 and the sign -1 gives -(k+1)
back; for 2 Y_3 = i X_3 the mirrored diagonal is i(m - 2k), conjugated to
i(2k - m).  A torus character z acts as 2zi on V and as -2zi = conj(2zi)
on V*.  Products and real combinations keep the relation, since conj is
multiplicative and kappa is real, so D_{V*} = T conj(D_V) T^(-1), which is
the identity above.  Hence P_{V*} = conj(P_V), and P_V is real (char_poly
checks that every coefficient is), so V and V* have one polynomial P and
one den.  For the table values this gives b(V*) = b(V) and
a(V*, W*) = res(P_V, P_W) = a(V, W), times (-1)^(deg P_V deg P_W) when
V* comes after W* in the rep list.  certify and spectrum compute P once
per dual pair, for the member listed first.  D_{V*} is similar to
conj(D_V), whose eigenvalues are those of D_V, all real since D is
self-adjoint, so numeric_spectrum takes the first member's operator alone
and solves D_V once for both members of a pair.

Normalization: each su(2) copy uses the basis Y_1, Y_2, Y_3 given by the
symmetric-power images of -(i/2)*sigma_k, which is orthonormal for the
bi-invariant form <X, Y> = -2 trace(XY) on the defining representation.  With
this choice every matrix entry is a Gaussian rational, and the operator at
kappa = identity acts on the spin-(m/2) factor by m(m+2)/4 — exactly half of
the weight-lattice Casimir value m(m+2)/2 computed by the weights module at
the |alpha|^2 = 2 normalization.  The factor 2 is fixed and documented here.

Kept per process, in two lru_caches of metric-independent data, as rootsys
and reps keep theirs: _rep_list per (GroupSpec, rep cap), the label tuple
of enumerate_reps and each label's dual position, at most
REP_LIST_CACHE_SIZE lists of at most REP_COUNT_CAP labels (19 KB each);
and _quad_pieces per IrrepSpec, whose shape fixes its group, the doubled
generators, the pieces (each multiplied out when a metric first asks for
it) and the float scale, at most IRREP_CACHE_SIZE entries.  That holds all
488 irreducibles of all admitted lists, about 6 MB with every piece
built, 0.18 MB for the largest (SU(2)^4's (1, 1, 1, 1): 78 pieces of 16 x 16); a rep past the
caps, which only a direct build_operator call reaches, keeps d^2 integers
per piece.  enumerate_reps checks the rep caps on every call before the
lookup, so a kept list never skips a refusal, and a kept entry is never
changed, only extended by pieces.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Optional

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InternalConsistencyError, NotPositiveDefinite
from .polyq import RationalPoly, derivative, homogeneous_horner, resultant, root_multiplicity_profile
from .ratlinalg import frac, integer_det, is_positive_definite

Q = Fraction

# Admission cap on the Lie algebra dimension 3c + n: metrics are n x n and
# every operator sums up to n(n+1)/2 quadratic pieces.  Any rep cap >= 1
# refuses every group past dimension 12 by its rep count anyway.
ALGEBRA_DIM_CAP = 24
# Entries of the per-process tables, at most 0.6 and 6 MB (module docstring).
REP_LIST_CACHE_SIZE = 32
IRREP_CACHE_SIZE = 512


@dataclass(frozen=True)
class GroupSpec:
    """The group SU(2)^c x T^n with its 3c + n dimensional Lie algebra.

    A group past ALGEBRA_DIM_CAP is refused (CapExceeded) here, before any
    rep label or metric of it is built.
    """

    su2_copies: int
    torus_rank: int = 0

    def __post_init__(self):
        if self.su2_copies < 0 or self.torus_rank < 0:
            raise ValueError("factor counts must be nonnegative")
        if self.su2_copies + self.torus_rank < 1:
            raise ValueError("need at least one group factor")
        if self.algebra_dim > ALGEBRA_DIM_CAP:
            raise CapExceeded("algebra dimension", self.algebra_dim, ALGEBRA_DIM_CAP)

    @property
    def algebra_dim(self) -> int:
        return 3 * self.su2_copies + self.torus_rank

    def check_kappa_size(self, n: int) -> None:
        if n != self.algebra_dim:
            raise DimensionMismatch(f"kappa is {n}x{n}, algebra dimension is {self.algebra_dim}")


@dataclass(frozen=True)
class IrrepSpec:
    """Irreducible label: spin parameters m_i (spin m_i/2) plus a torus character."""

    spins: tuple
    torus_char: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "spins", tuple(int(m) for m in self.spins))
        object.__setattr__(self, "torus_char", tuple(int(z) for z in self.torus_char))
        if any(m < 0 for m in self.spins):
            raise ValueError("spin parameters must be nonnegative integers")

    @property
    def dim(self) -> int:
        d = 1
        for m in self.spins:
            d *= m + 1
        return d

    def dual(self) -> "IrrepSpec":
        return IrrepSpec(self.spins, tuple(-z for z in self.torus_char))

    def rep_type(self) -> str:
        """Real/complex/quaternionic trichotomy for this product family.

        A nonzero torus character breaks self-duality (complex type); otherwise
        the product of spin factors is self-dual with indicator (-1)^(sum m_i).
        """
        if any(z != 0 for z in self.torus_char):
            return "complex"
        return "quaternionic" if sum(self.spins) % 2 == 1 else "real"


@dataclass(frozen=True)
class MetricParam:
    """Symmetric rational matrix parameterizing the operator (not assumed definite)."""

    kappa: tuple

    def __post_init__(self):
        # Entries that are Fractions already are kept as they are; the
        # symmetry test is one tuple comparison, in which an entry identical
        # to its mirror (a shared zero, say) passes without Fraction.__eq__.
        rows = tuple(map(tuple, self.kappa))
        if not all(isinstance(x, Q) for row in rows for x in row):
            rows = tuple(tuple(map(frac, row)) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("kappa must be square")
        if rows != tuple(zip(*rows)):
            raise ValueError("kappa must be exactly symmetric")
        object.__setattr__(self, "kappa", rows)

    @property
    def n(self) -> int:
        return len(self.kappa)

    @cached_property
    def positive_definite(self) -> bool:
        """The exact test, computed once per instance and kept outside the
        dataclass fields, as _weights is."""
        return is_positive_definite([list(r) for r in self.kappa])

    @cached_property
    def _weights(self) -> tuple:
        """(terms, lcm) over the nonzero upper entries kappa_ij = num/den
        (i <= j): lcm of their denominators, and (i, j, -num * (lcm / den))
        per entry, in row order.

        Computed once per instance and kept outside the dataclass fields, so
        equality, hashing and the serialized form do not see it.
        """
        terms = [(i, j, x) for i, row in enumerate(self.kappa) for j, x in enumerate(row[i:], i) if x]
        lcm = math.lcm(*(x.denominator for _, _, x in terms))
        return tuple((i, j, -x.numerator * (lcm // x.denominator)) for i, j, x in terms), lcm


def diag_metric(entries) -> MetricParam:
    vals = [frac(x) for x in entries]
    n = len(vals)
    return MetricParam(tuple(tuple(vals[i] if i == j else Q(0) for j in range(n)) for i in range(n)))


def _doubled_generators(rep: IrrepSpec):
    """2 M_i for the orthonormal algebra basis on V, each as (imaginary, rows):
    an integer matrix, times i when imaginary, whose row r lists its nonzero
    (column, value) entries in rows[r].

    V's basis is the row-major product of the monomial bases x^(m-k) y^k.
    An SU(2) copy of spin m/2 and stride s (the product of the dimensions
    after it) acts on the digit k = (r // s) % (m + 1) of row r: 2 Y_1 and
    2 Y_3 are i times the images X_1, X_3 of -sigma_1, -sigma_3, and 2 Y_2,
    the image of -i sigma_2, is real.  So row r holds -(k+1) a stride up
    (k < m) in X_1 and 2 Y_2, -(m-k+1) in X_1 and m-k+1 in 2 Y_2 a stride
    down (k > 0), and 2k - m on the diagonal of X_3.  A torus character z
    acts as 2z i.
    """
    d = rep.dim
    stride = d
    out = []
    for m in rep.spins:
        stride //= m + 1
        x1, y2, x3 = [], [], []
        for r in range(d):
            k = r // stride % (m + 1)
            up = [(r + stride, -(k + 1))] if k < m else []
            down = [(r - stride, m - k + 1)] if k else []
            x1.append([(c, -v) for c, v in down] + up)
            y2.append(down + up)
            x3.append([(r, 2 * k - m)] if 2 * k != m else [])
        out += [(True, x1), (False, y2), (True, x3)]
    for z in rep.torus_char:
        out.append((True, [[(r, 2 * z)] if z else [] for r in range(d)]))
    return out


class _QuadPieces:
    """Metric-independent data of one irreducible, in integers.

    The generators M_i have entries in (1/2) Z[i], and each G_i = 2 M_i is
    an integer matrix A_i or i A_i.  The piece for i <= j is G_i G_j + G_j G_i
    (G_i^2 on the diagonal), that is 4 (M_i M_j + M_j M_i) (4 M_i^2), and it
    has one part: the integer matrix A_i A_j + A_j A_i (A_i^2), imaginary when
    exactly one of G_i, G_j is, and negated when both are.  A piece is
    multiplied out the first time a metric with kappa_ij != 0 asks for it
    and kept for the life of the object; _quad_pieces keeps one object per
    irreducible, so operators of one rep at every metric share their
    products.  scale conjugates D to a Hermitian matrix.
    """

    def __init__(self, rep: IrrepSpec):
        self._dim = rep.dim
        self._gens = _doubled_generators(rep)
        self._pieces = {}
        # sqrt(w) for the diagonal w = 1/b of the invariant inner product on
        # the monomial basis, b the product of the binomials of each digit
        b = [1]
        for m in rep.spins:
            b = [x * math.comb(m, k) for x in b for k in range(m + 1)]
        self.scale = np.sqrt([1 / x for x in b])
        self.scale.flags.writeable = False

    def piece(self, i: int, j: int):
        """(imaginary, flat) for i <= j: the piece 4 (M_i M_j + M_j M_i)
        (4 M_i^2 when i == j) is the row-major integer list flat, times i
        when imaginary; flat is None when the piece is zero.  It is shared,
        so callers only read it."""
        key = (i, j)
        if key not in self._pieces:
            d = self._dim
            (ia, a), (ib, b) = self._gens[i], self._gens[j]
            sign = -1 if ia and ib else 1
            flat = [0] * (d * d)
            for left, right in [(a, a)] if i == j else [(a, b), (b, a)]:
                for r, row in enumerate(left):
                    base = r * d
                    for k, x in row:
                        x *= sign
                        for c, y in right[k]:
                            flat[base + c] += x * y
            self._pieces[key] = (ia != ib, flat if any(flat) else None)
        return self._pieces[key]


@lru_cache(maxsize=IRREP_CACHE_SIZE)
def _quad_pieces(rep: IrrepSpec) -> _QuadPieces:
    """The one _QuadPieces of rep in this process (module docstring)."""
    return _QuadPieces(rep)


@dataclass(frozen=True)
class ExactOperator:
    """D = (re + i im) / den with integer row tuples re, im and den > 0;
    im is None for a real operator."""

    re: tuple
    im: Optional[tuple]
    den: int
    rep: IrrepSpec
    kappa_ref: MetricParam

    @property
    def dim(self) -> int:
        return len(self.re)

    @property
    def real(self) -> bool:
        return self.im is None


def build_operator(g: GroupSpec, rep: IrrepSpec, k: MetricParam) -> ExactOperator:
    """D = -sum_ij kappa_ij M_i M_j, exactly, as an integer matrix over a common denominator.

    Grouping the symmetric terms, 4 D = -sum_(i<=j) kappa_ij P_ij over the
    quadratic pieces P_ij.  With L = 4 lcm(denominators of the nonzero
    kappa_ij), A = L D is the integer combination -sum (L/4) kappa_ij P_ij.
    The integer weights -(L/4) kappa_ij and the lcm are the metric's own,
    computed once per MetricParam instance, so every rep built at one
    metric reads the same list.  The pieces are the rep's interned ones
    (_quad_pieces), shared by every metric.  Each piece is real or
    imaginary and is added, weighted, into that one part of A; a part no
    piece has stays zero, so an operator of real pieces alone (as at every
    diagonal metric) is real, with im None.
    """
    g.check_kappa_size(k.n)
    if len(rep.spins) != g.su2_copies or len(rep.torus_char) != g.torus_rank:
        raise DimensionMismatch(
            f"rep shape ({len(rep.spins)} spins, {len(rep.torus_char)} torus) does not "
            f"match group ({g.su2_copies}, {g.torus_rank})"
        )
    pieces = _quad_pieces(rep)
    terms, lcm = k._weights
    d = rep.dim
    parts = [None, None]
    for i, j, w in terms:
        imaginary, piece = pieces.piece(i, j)
        if piece is not None:
            scaled = map(w.__mul__, piece)
            parts[imaginary] = list(scaled) if parts[imaginary] is None else list(map(add, parts[imaginary], scaled))
    re, im = (None if flat is None else tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d)) for flat in parts)
    return ExactOperator(re or ((0,) * d,) * d, im, 4 * lcm, rep, k)


def char_poly(op: ExactOperator) -> tuple[list[int], int]:
    """(P, den): the monic integer polynomial P(s) = det(sI - A) of A = den * D.

    Berkowitz's division-free algorithm (Berkowitz, Inform. Process. Lett.
    18, 1984; Abdeljaoued, MapleTech 4, 1997) runs on the integer rows of A:
    on re alone when the operator is real, else on (re, im) pairs over Z[i],
    where an imaginary part left in a coefficient signals a bug in the
    construction.  P is degree-indexed, with c_k at s^(d-k).  The
    independent exact identity det(I + A) = (-1)^d P(-1) is checked with a
    Bareiss determinant, over Z for a real A and over Z[i] otherwise, where
    the determinant must come out as the real integer (-1)^d P(-1).  A
    mismatch signals a bug.  The characteristic polynomial of D is
    p(t) = den^(-d) P(den t), with coefficient c_k / den^k at t^(d-k);
    scaling t by den keeps every root multiplicity.
    """
    shifted = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(op.re)]
    if op.real:
        coeffs = _berkowitz(op.re)
    else:
        coeffs, imag = _gaussian_berkowitz(op.re, op.im)
        for k, cim in enumerate(imag):
            if cim:
                raise InternalConsistencyError(
                    f"characteristic coefficient has imaginary part {Q(cim, op.den ** k)}")
    value = sum(coeffs[::2]) - sum(coeffs[1::2])  # (-1)^d P(-1)
    if op.real:
        det, want = integer_det(shifted), value
    else:
        det, want = _gaussian_det(shifted, [list(row) for row in op.im]), (value, 0)
    if det != want:
        raise InternalConsistencyError(
            f"Bareiss determinant {det} of I + A disagrees with the characteristic polynomial")
    coeffs.reverse()
    return coeffs, op.den


def _gaussian_det(are, aim):
    """(re, im) of det(are + i aim) for square integer rows are, aim, by
    Bareiss's one-step fraction-free elimination over Z[i], in place.

    Every step divides x p - f t by the previous pivot q, which Bareiss's
    identity makes exact in any integral domain: multiplied by conj(q),
    both parts must be multiples of |q|^2, and a remainder is an internal
    error.
    """
    n = len(are)
    sign = 1
    qr, qi, qn = 1, 0, 1
    for k in range(n - 1):
        if not (are[k][k] or aim[k][k]):
            piv = next((i for i in range(k + 1, n) if are[i][k] or aim[i][k]), None)
            if piv is None:
                return 0, 0
            are[k], are[piv], aim[k], aim[piv] = are[piv], are[k], aim[piv], aim[k]
            sign = -sign
        pr, pi, top_r, top_i = are[k][k], aim[k][k], are[k][k + 1:], aim[k][k + 1:]
        for rr, ri in zip(are[k + 1:], aim[k + 1:]):
            fr, fi = rr[k], ri[k]
            new_r, new_i = [], []
            for xr, xi, tr, ti in zip(rr[k + 1:], ri[k + 1:], top_r, top_i):
                yr = xr * pr - xi * pi - fr * tr + fi * ti
                yi = xr * pi + xi * pr - fr * ti - fi * tr
                zr, er = divmod(yr * qr + yi * qi, qn)
                zi, ei = divmod(yi * qr - yr * qi, qn)
                if er or ei:
                    raise InternalConsistencyError(
                        f"Bareiss determinant of I + A: {yr} + {yi}i is not a multiple of {qr} + {qi}i")
                new_r.append(zr)
                new_i.append(zi)
            rr[k + 1:], ri[k + 1:] = new_r, new_i
        qr, qi, qn = pr, pi, pr * pr + pi * pi
    return (sign * are[-1][-1], sign * aim[-1][-1]) if n else (1, 0)


def _berkowitz(a):
    """[1, c_1, ..., c_d] with det(sI - A) = sum_k c_k s^(d-k) for the integer rows a of A.

    With A_k the leading k x k block and A_(k+1) = [[A_k, u], [r, x]], the
    coefficients of A_(k+1) are the lower-triangular Toeplitz matrix with
    first column (1, -x, -r u, -r A_k u, ..., -r A_k^(k-1) u) times those
    of A_k.
    """
    p = [1]
    for k, row in enumerate(a):
        block = a[:k]
        u = [x[k] for x in block]
        t = [1, -row[k]]
        for j in range(k):
            if j:
                u = [sum(map(mul, x, u)) for x in block]
            t.append(-sum(map(mul, row, u)))
        p = [sum(map(mul, t[i::-1], p)) for i in range(k + 2)]
    return p


def _gaussian_berkowitz(are, aim):
    """_berkowitz over Z[i] for A = are + i aim: the real and the imaginary
    parts of [1, c_1, ..., c_d]."""
    pr, pi = [1], [0]
    for k, (rr, ri) in enumerate(zip(are, aim)):
        block = list(zip(are[:k], aim[:k]))
        ur, ui = [x[k] for x in are[:k]], [y[k] for y in aim[:k]]
        tr, ti = [1, -rr[k]], [0, -ri[k]]
        for j in range(k):
            if j:
                ur, ui = (
                    [sum(map(mul, x, ur)) - sum(map(mul, y, ui)) for x, y in block],
                    [sum(map(mul, x, ui)) + sum(map(mul, y, ur)) for x, y in block],
                )
            tr.append(sum(map(mul, ri, ui)) - sum(map(mul, rr, ur)))
            ti.append(-sum(map(mul, rr, ui)) - sum(map(mul, ri, ur)))
        pr, pi = (
            [sum(map(mul, tr[i::-1], pr)) - sum(map(mul, ti[i::-1], pi)) for i in range(k + 2)],
            [sum(map(mul, tr[i::-1], pi)) + sum(map(mul, ti[i::-1], pr)) for i in range(k + 2)],
        )
    return pr, pi


# Admission caps of enumerate_reps, and so of certify and spectrum: the
# number of irreducibles and the sum of their dimensions.  Operators,
# characteristic polynomials and resultants grow with both.
REP_COUNT_CAP = 64
TOTAL_DIM_CAP = 160
# Admission cap of certify on the number of candidate metrics it may try.
BUDGET_CAP = 100_000
# certify's candidate budget and seed, and numeric_spectrum's relative
# tolerance, when the caller gives none.
DEFAULT_BUDGET = 12
DEFAULT_SEED = 2026
DEFAULT_TOL = 1e-9
# Admission cap of spectrum on b d, for b the bit length of the largest
# number in the metric's integer form (MetricParam._weights: the weights and
# their common denominator) and d the largest rep dimension.  The written
# coefficient at t^(d-k) is c_k / den^k with den = 4 lcm and |c_k| at most
# C(d, k) times the k-th power of the largest absolute row sum of A = den D,
# so both its numerator and its denominator have at most d (b + 23) bits
# within the rep caps above (at most 300 weights, rows of each piece summing
# to at most 8,192).  Python refuses to write an int of more than 4,300
# decimal digits (14,284 bits), and with b d <= 12,288 every coefficient
# stays below it.
METRIC_BITS_CAP = 12_288


def _admit(what: str, factors, cap: int) -> None:
    """Refuse (CapExceeded) a product of value**copies over (value, copies)
    factors that passes cap.  The product is formed one copy at a time and
    the refusal reports the first partial product past the cap, so a count
    of astronomically many reps is refused without being computed."""
    if any(value == 0 and copies for value, copies in factors):
        return
    product = 1
    for value, copies in factors:
        for _ in range(copies if value > 1 else 0):
            if product > cap:
                break
            product *= value
    if product > cap:
        raise CapExceeded(what, product, cap)


def enumerate_reps(g: GroupSpec, rep_cap: int):
    """(reps, duals): all irreducible labels with every m_i <= rep_cap and
    |z_t| <= rep_cap, sorted by (spins, torus_char), and the position in
    reps of each label's dual, both tuples kept per process (_rep_list).

    The count and the total dimension are products over the factors: each
    SU(2) copy offers rep_cap + 1 spins of total dimension
    (rep_cap + 1)(rep_cap + 2)/2, each torus factor 2 rep_cap + 1
    characters of dimension 1.  A list past REP_COUNT_CAP or TOTAL_DIM_CAP
    is refused (CapExceeded) from these products on every call, before any
    label is made or a kept list is read.
    """
    spins, chars = max(0, rep_cap + 1), max(0, 2 * rep_cap + 1)
    _admit("rep count", [(spins, g.su2_copies), (chars, g.torus_rank)], REP_COUNT_CAP)
    _admit("total rep dimension", [(spins * (rep_cap + 2) // 2, g.su2_copies), (chars, g.torus_rank)], TOTAL_DIM_CAP)
    return _rep_list(g, rep_cap)


@lru_cache(maxsize=REP_LIST_CACHE_SIZE)
def _rep_list(g: GroupSpec, rep_cap: int):
    """enumerate_reps's (reps, duals), unchecked (every character is listed
    with its negative)."""
    c = g.su2_copies
    ranges = [range(rep_cap + 1)] * c + [range(-rep_cap, rep_cap + 1)] * g.torus_rank
    # product walks its ranges lexicographically, so the list is sorted by
    # (spins, torus_char)
    reps = tuple(IrrepSpec(t[:c], t[c:]) for t in itertools.product(*ranges))
    position = {v: i for i, v in enumerate(reps)}
    return reps, tuple(position[v.dual()] for v in reps)


def witness_sequence(n: int, budget: int, seed: int):
    """Deterministic candidate metrics: graded diagonals over increasing primes,
    then seeded symmetric off-diagonal perturbations of those diagonals.  A
    generator: each candidate is made only when the caller asks for it.

    Off-diagonal entries are essential for torus ranks >= 2: a diagonal metric
    evaluates characters (z1, z2) and (z1, -z2) to the same quadratic form, so
    only a mixed term can separate that non-dual pair.

    They are equally essential for an SU(2) factor next to any other factor
    at rep cap >= 1.  A block-diagonal metric acts on spin 1/2 as the scalar
    (k_11 + k_22 + k_33) / 4, so the irreducibles (1, 1, ...) and (1, z)
    with z != 0 carry one repeated eigenvalue and their b value vanishes:
    no diagonal candidate can certify these groups.  The sequence is kept
    as it is anyway, because certificates and their tables depend on it.
    """
    def primes():
        cand, found = 7, 0
        while True:
            if all(cand % p for p in range(2, int(cand ** 0.5) + 1)):
                yield cand
                found += 1
            cand += 1

    zero = Q(0)

    def diagonal(p):
        return [[Q(p + i, p) if i == j else zero for j in range(n)] for i in range(n)]

    budget = max(budget, 0)
    half = (budget + 1) // 2
    for p in itertools.islice(primes(), half):
        yield MetricParam(diagonal(p))
    rng = random.Random(seed)
    for p in itertools.islice(primes(), budget - half):
        base = diagonal(p)
        for i in range(n):
            for j in range(i + 1, n):
                eps = Q(rng.randint(1, 9), p * rng.choice([11, 13, 17, 19]))
                base[i][j] = base[j][i] = eps
        yield MetricParam(base)


@dataclass(frozen=True)
class Certificate:
    status: str
    group: GroupSpec
    rep_cap: int
    witness_kappa: Optional[MetricParam]
    table: tuple
    violations: tuple
    candidates_tried: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify(g: GroupSpec, rep_cap: int, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED) -> Certificate:
    """Search the deterministic metric sequence for a single witness at which
    every required separation/simplicity/pairing resultant is exactly nonzero.

    Required values over the cap-bounded rep list: a(V, V') for every pair
    with V' neither V nor its dual; b(V) for real/complex type; c(V) for
    quaternionic type.  Success certifies none of those finitely many
    polynomials vanishes identically; exhausting the budget is reported as
    inconclusive, never as a failure certificate.  A budget past BUDGET_CAP
    is refused (CapExceeded) before any candidate is built.

    A candidate is rejected when some row of its table is exactly zero.
    Only the last candidate's zero rows are ever reported, so the last one
    computes its whole table and lists every zero row, and every earlier
    one stops at its first zero row.  An earlier candidate first computes,
    exactly, the row that rejected the candidate before it (consecutive
    candidates tend to fail on the same row, as every diagonal one does on
    a group with more than one factor): a zero there rejects it with only
    that row's operators built, and a nonzero value is reused when the
    table is then computed in order.  The rejecting row and the
    polynomials live one call; the rep list and the operators' pieces are
    the process's interned ones (module docstring).
    """
    if budget > BUDGET_CAP:
        raise CapExceeded("budget", budget, BUDGET_CAP)
    reps, duals = enumerate_reps(g, rep_cap)
    violations = []
    # (key, row) of the previous rejected candidate's first zero row
    screen = None
    tried = 0
    for cand in witness_sequence(g.algebra_dim, budget, seed):
        tried += 1
        exhaustive = tried == budget
        # build_operator's denominator for every rep at this metric; the
        # table values rely on it being shared.
        den = 4 * cand._weights[1]
        polys = [None] * len(reps)

        def poly(i):
            # V and V* share (P, den): the first listed member computes it,
            # so the later member never builds an operator
            i = min(i, duals[i])
            if polys[i] is None:
                p = char_poly(build_operator(g, reps[i], cand))
                if p[1] != den:
                    raise InternalConsistencyError(
                        f"operator of {reps[i]} has denominator {p[1]}, its metric {den}")
                polys[i] = p
            return polys[i]

        values = {}
        if screen is not None and not exhaustive:
            key, row = screen
            values[key] = _row_value(key, poly)
            if values[key] == 0:
                violations = [row]
                continue
        table = []
        violations = []
        for key, row in _required_values(reps, duals, poly, values):
            table.append(row)
            if row[3] == 0:
                if not violations:
                    screen = key, row
                violations.append(row)
                if not exhaustive:
                    break
        if not violations:
            return Certificate("certified", g, rep_cap, cand, tuple(table), (), tried)
    return Certificate("inconclusive", g, rep_cap, None, (), tuple(violations), tried)


def _row_value(key, poly):
    """The value of the table row key = (kind, i, j) (j None for b and c):
    over poly(i) = (P, den), with the degree-d polynomial P of reps[i]
    (and Q of degree d2 from poly(j)), a = res(P, Q) / den^(d d2),
    b = res(P, P') / den^(d (d - 1)) and c = res(P, P'') / den^(d (d - 2)),
    as one Fraction (see _required_values)."""
    kind, i, j = key
    p, den = poly(i)
    d = len(p) - 1
    if kind == "a":
        q, _ = poly(j)
        return Q(resultant(p, q), den ** (d * (len(q) - 1)))
    if kind == "c":
        return Q(resultant(p, derivative(derivative(p))), den ** (d * (d - 2)))
    return Q(resultant(p, derivative(p)), den ** (d * (d - 1)))


def _required_values(reps, duals, poly, values):
    """(key, row) per table row (kind, V, W, value) in certificate order,
    computed one at a time: b or c per rep, then a for every pair that is
    not a dual pair.

    reps are addressed by position: duals[i] is the position of the dual of
    reps[i], and poly(i) is char_poly's (P, den) for the operator D of
    reps[i], with one den for every rep.  The characteristic polynomial of
    D is p(t) = den^(-d) P(den t), so over the roots of P each value is a
    resultant of P over a power of den (_row_value).

    key = (kind, i, j) names the row whose value is computed (j None for b
    and c), and values maps keys to values: a key already there is read,
    not recomputed, and each value computed here is added.  A row that is
    the dual of an earlier row has that row's key and value (module
    docstring): b(V*) = b(V), and a(V*, W*) = a(V, W) times (-1)^(d d2)
    when the pair's order flips.  Rows are consumed in order, so the
    earlier row's value is always there.
    """

    def value(key):
        if key not in values:
            values[key] = _row_value(key, poly)
        return values[key]

    for i, v in enumerate(reps):
        key = ("c" if v.rep_type() == "quaternionic" else "b", min(i, duals[i]), None)
        yield key, (key[0], v, None, value(key))
    for i, v in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if j == duals[i]:
                continue
            di, dj = duals[i], duals[j]
            key = ("a", *min((i, j), (di, dj) if di < dj else (dj, di)))
            x = value(key)
            if di > dj and key[1:] != (i, j) and v.dim * reps[j].dim % 2:
                x = -x
            yield key, ("a", v, reps[j], x)


@dataclass(frozen=True)
class SpectrumCluster:
    center: float
    per_rep: tuple  # ((IrrepSpec, multiplicity), ...)

    def assembled_dims(self, ustar_dim: int = 1) -> dict:
        """L^2-eigenspace dimension per rep: dim U* x multiplicity x dim V*."""
        return {v: ustar_dim * mult * v.dim for v, mult in self.per_rep}


def _float_hermitians(ops) -> np.ndarray:
    """The Hermitian W^(1/2) D W^(-1/2) of operators of one dimension, stacked.

    Integer true division rounds correctly, so each entry is the float of
    the exact rational entry; an entry past the float range is refused
    (ValueError), as input the float eigensolver cannot take.  The scaling
    by the rep's scale s repeats, one float operation at a time, CPython's
    complex(x / den, y / den) * s_i / s_j, which promotes each float to a
    complex, so every entry is that one, signed zeros included."""
    d = ops[0].dim
    re, im = np.zeros((2, len(ops), d, d))
    for n, op in enumerate(ops):
        for part, rows in zip((re, im), (op.re,) if op.real else (op.re, op.im)):
            try:
                part[n] = [[x / op.den for x in row] for row in rows]
            except OverflowError:
                raise ValueError(f"an operator entry of {op.rep} is past the float range of the numeric spectrum") from None
    s = np.array([_quad_pieces(op.rep).scale for op in ops])
    si, sj = s[:, :, None], s[:, None, :]
    # (re + i im) (s_i + 0i), then / (s_j + 0i) as CPython divides by a
    # complex of zero imaginary part: its ratio 0 / s_j is 0, its denominator s_j
    tr, ti = re * si - im * 0.0, re * 0.0 + im * si
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = (tr + ti * 0.0) / sj, (ti - tr * 0.0) / sj
    return out


def numeric_spectrum(reps, duals, ops, k: MetricParam, tol: float = DEFAULT_TOL):
    """Float eigenvalues per rep at the metric k, clustered with relative
    tolerance tol: clusters sorted by center, each with its per-rep
    multiplicities (SpectrumCluster.assembled_dims scales them by dim U*).

    duals[i] is the position of the dual of reps[i], as enumerate_reps
    gives it, and ops holds one operator per dual pair, in rep order: the
    one built at k for the pair's first member, whose dual has the same
    eigenvalues (module docstring).  kappa is checked positive definite,
    exactly, and every operator is checked, before any is solved.  The
    operators of one dimension are solved in one stacked eigvalsh call (the
    same LAPACK routine on each matrix as a call per operator); each rep
    takes its pair's eigenvalues, in rep order, and they are stably sorted.
    """
    if not k.positive_definite:
        raise NotPositiveDefinite("kappa is not positive definite")
    by_dim = {}
    for i, op in zip([i for i, j in enumerate(duals) if i <= j], ops, strict=True):
        if op.kappa_ref != k:
            raise ValueError("operator was built at another metric")
        if op.rep != reps[i]:
            raise ValueError(f"operator of {op.rep} is not that of {reps[i]}, its dual pair's first member")
        by_dim.setdefault(op.dim, []).append((i, op))
    eigs = {}
    for same_dim in by_dim.values():
        stack = np.linalg.eigvalsh(_float_hermitians([op for _, op in same_dim]))
        eigs.update(zip([i for i, _ in same_dim], stack.tolist()))
    pairs = sorted(
        ((lam, v) for i, (v, j) in enumerate(zip(reps, duals, strict=True)) for lam in eigs[min(i, j)]),
        key=lambda t: t[0],
    )
    clusters = []
    for lam, v in pairs:
        if clusters and lam - clusters[-1][-1][0] <= tol * max(1.0, abs(lam)):
            clusters[-1].append((lam, v))
        else:
            clusters.append([(lam, v)])
    out = []
    for group in clusters:
        counts = Counter(v for _, v in group)
        per_rep = tuple(sorted(counts.items(), key=lambda t: (t[0].spins, t[0].torus_char)))
        out.append(SpectrumCluster(sum(x for x, _ in group) / len(group), per_rep))
    return out


def spectrum(g: GroupSpec, rep_cap: int, k: MetricParam, tol: Optional[float] = None):
    """(entries, clusters) at the metric k for enumerate_reps(g, rep_cap):
    per rep, a dict of its label, dim, D's characteristic polynomial (at
    t^i, P[i] / den^(d - i) for char_poly's (P, den)) and the count of its
    roots of each multiplicity, which scaling by den keeps; and the float
    clusters at tolerance tol (numeric_spectrum), None when tol is None.

    Refused before any operator is built, in this order: the rep caps;
    METRIC_BITS_CAP; a kappa that is not positive definite, when tol is
    given.  Each dual pair's operator, polynomial and profile are computed
    once, for the member listed first, and the later member's entry is the
    first's under its own label (module docstring).
    """
    reps, duals = enumerate_reps(g, rep_cap)
    terms, lcm = k._weights
    size = max(x.bit_length() for x in [lcm, *(abs(w) for _, _, w in terms)]) * max(v.dim for v in reps)
    if size > METRIC_BITS_CAP:
        raise CapExceeded("metric bits x rep dimension", size, METRIC_BITS_CAP)
    if tol is not None and not k.positive_definite:
        raise NotPositiveDefinite("kappa is not positive definite")
    ops, entries = [], []
    for i, (v, j) in enumerate(zip(reps, duals)):
        if j < i:
            entries.append({**entries[j], "rep": v})
            continue
        ops.append(build_operator(g, v, k))
        p, den = char_poly(ops[-1])
        d, profile = len(p) - 1, sorted(root_multiplicity_profile(p).items())
        entries.append({"rep": v, "dim": v.dim, "char_poly": [Q(c, den ** (d - i)) for i, c in enumerate(p)],
                        "multiplicity_profile": {str(m): c for m, c in profile}})
    return entries, None if tol is None else numeric_spectrum(reps, duals, ops, k, tol)


def multiplicity_at_float(p: RationalPoly, x: float, tol: float = 1e-6) -> int:
    """Exact multiplicity of the root of p nearest the float estimate x.

    p's primitive integer squarefree layers by Yun's algorithm (Yun 1976;
    layer i collects the multiplicity-i roots) are p._layers, computed on
    the first call for this instance and reused by every later one, so the
    memberships of one polynomial share one decomposition.  Within a layer
    roots are simple, so the Newton residual |q(x)/q'(x)| is a sound
    distance proxy.  It is decided exactly at the dyadic value x = n / 2^e
    of the float: for every layer q, homogeneous integer Horner gives
    2^(e deg q) q(x) and 2^(e (deg q - 1)) q'(x), and the test
    |q(x)| <= b |q'(x)| for the float b = tol * max(1, |x|), taken exactly,
    is one integer comparison (float Horner on large coefficients loses
    more than the tolerance to cancellation near a root).  Exactly one layer
    must match; zero or several matches mean the estimate cannot be trusted
    at this tolerance and is an error, not a guess.
    """
    if not math.isfinite(x):
        raise InternalConsistencyError(f"cluster center {x!r} is not finite")
    n, den = x.as_integer_ratio()
    bound = tol * max(1.0, abs(x))
    # b = bn / bd; b = +inf admits every layer, -inf and nan none, as the
    # comparison with the float does.
    bn, bd = bound.as_integer_ratio() if math.isfinite(bound) else ((1, 0) if bound > 0 else (-1, 1))
    hits = []
    for i, (q, dq) in enumerate(p._layers):
        if len(q) <= 1:
            continue
        dval = homogeneous_horner(dq, n, den)
        if dval == 0:
            continue
        if abs(homogeneous_horner(q, n, den)) * bd <= bn * den * abs(dval):
            hits.append(i + 1)
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"cluster center {x!r} matches {len(hits)} squarefree layers at tol {tol}")
    return hits[0]
