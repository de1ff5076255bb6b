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

Normalization: each su(2) copy uses the basis Y_1, Y_2, Y_3 given by the
symmetric-power images of -(i/2)*sigma_k, which is orthonormal for the
bi-invariant form <X, Y> = -2 trace(XY) on the defining representation.  With
this choice every matrix entry is a Gaussian rational, and the operator at
kappa = identity acts on the spin-(m/2) factor by m(m+2)/4 — exactly half of
the weight-lattice Casimir value m(m+2)/2 computed by the weights module at
the |alpha|^2 = 2 normalization.  The factor 2 is fixed and documented here.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Optional

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InternalConsistencyError, NotPositiveDefinite
from .polyq import RationalPoly, derivative, integer_parts, resultant, squarefree_decomposition
from .ratlinalg import frac, integer_det, is_positive_definite

Q = Fraction

# Admission cap on the Lie algebra dimension 3c + n: metrics are n x n and
# every operator sums up to n(n+1)/2 quadratic pieces.  Any rep cap >= 1
# refuses every group past dimension 12 by its rep count anyway.
ALGEBRA_DIM_CAP = 24


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
        rows = tuple(tuple(frac(x) for x in row) for row in self.kappa)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("kappa must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("kappa must be exactly symmetric")
        object.__setattr__(self, "kappa", rows)

    @property
    def n(self) -> int:
        return len(self.kappa)

    def is_positive_definite(self) -> bool:
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


def _doubled_generators(g: GroupSpec, rep: IrrepSpec):
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
    if len(rep.spins) != g.su2_copies or len(rep.torus_char) != g.torus_rank:
        raise DimensionMismatch(
            f"rep shape ({len(rep.spins)} spins, {len(rep.torus_char)} torus) does not "
            f"match group ({g.su2_copies}, {g.torus_rank})"
        )
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
    """Metric-independent quadratic pieces of one irreducible, in integers.

    The generators M_i have entries in (1/2) Z[i], and each G_i = 2 M_i is
    an integer matrix A_i or i A_i.  The piece for i <= j is G_i G_j + G_j G_i
    (G_i^2 on the diagonal), that is 4 (M_i M_j + M_j M_i) (4 M_i^2), and it
    has one part: the integer matrix A_i A_j + A_j A_i (A_i^2), imaginary when
    exactly one of G_i, G_j is, and negated when both are.  A piece is
    multiplied out the first time a metric with kappa_ij != 0 asks for it
    and kept for the life of the object, so operators of one rep at many
    metrics share their products.
    """

    def __init__(self, g: GroupSpec, rep: IrrepSpec):
        self.group = g
        self.rep = rep
        self._dim = rep.dim
        self._gens = _doubled_generators(g, rep)
        self._pieces = {}

    def piece(self, i: int, j: int):
        """(imaginary, flat) for i <= j: the piece 4 (M_i M_j + M_j M_i)
        (4 M_i^2 when i == j) is the row-major integer list flat, times i
        when imaginary; flat is None when the piece is zero."""
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


@dataclass(frozen=True)
class ExactOperator:
    """D = (re + i im) / den with integer row tuples re, im and den > 0;
    real promises that im is all zero."""

    re: tuple
    im: tuple
    den: int
    rep: IrrepSpec
    kappa_ref: MetricParam
    real: bool = False

    @property
    def dim(self) -> int:
        return len(self.re)


def build_operator(
    g: GroupSpec, rep: IrrepSpec, k: MetricParam, *, pieces: Optional[_QuadPieces] = None
) -> ExactOperator:
    """D = -sum_ij kappa_ij M_i M_j, exactly, as an integer matrix over a common denominator.

    Grouping the symmetric terms, 4 D = -sum_(i<=j) kappa_ij P_ij over the
    quadratic pieces P_ij.  With L = 4 lcm(denominators of the nonzero
    kappa_ij), A = L D is the integer combination -sum (L/4) kappa_ij P_ij.
    The integer weights -(L/4) kappa_ij and the lcm are the metric's own,
    computed once per MetricParam instance, so every rep built at one
    metric reads the same list.  Passing the rep's pieces shares their
    products across metrics (certify does); without them the pieces are
    built for this call.  Each piece is real or imaginary and is added,
    weighted, into that one part of A; a part no piece has stays zero, so
    an operator of real pieces alone (as at every diagonal metric) is real.
    """
    g.check_kappa_size(k.n)
    if pieces is None:
        pieces = _QuadPieces(g, rep)
    elif pieces.group != g or pieces.rep != rep:
        raise ValueError("quadratic pieces belong to another group or rep")
    terms, lcm = k._weights
    d = rep.dim
    parts = [None, None]
    for i, j, w in terms:
        imaginary, piece = pieces.piece(i, j)
        if piece is not None:
            scaled = map(w.__mul__, piece)
            parts[imaginary] = list(scaled) if parts[imaginary] is None else list(map(add, parts[imaginary], scaled))
    re, im = (
        ((0,) * d,) * d if flat is None else tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))
        for flat in parts
    )
    return ExactOperator(re, im, 4 * lcm, rep, k, real=parts[1] is None)


def _monomial_weights(rep: IrrepSpec):
    """Diagonal of the invariant inner product on the monomial basis (1/binomial)."""
    weights = [Q(1)]
    for m in rep.spins:
        weights = [w / math.comb(m, k) for w in weights for k in range(m + 1)]
    return weights


def char_poly(op: ExactOperator) -> tuple[list[int], int]:
    """(P, den): the monic integer polynomial P(s) = det(sI - A) of A = den * D.

    Berkowitz's division-free algorithm (Berkowitz, Inform. Process. Lett.
    18, 1984; Abdeljaoued, MapleTech 4, 1997) runs on the integer rows of A:
    on re alone when the operator is real, else on (re, im) pairs over Z[i],
    where an imaginary part left in a coefficient signals a bug in the
    construction.  P is degree-indexed, with c_k at s^(d-k).  The
    independent exact identity det(I + A) = (-1)^d P(-1) is checked with a
    Bareiss determinant; for a complex A, on the real 2d x 2d form of I + A,
    whose determinant is |det(I + A)|^2 = P(-1)^2.  A mismatch signals a
    bug.  The characteristic polynomial of D is p(t) = den^(-d) P(den t),
    with coefficient c_k / den^k at t^(d-k); scaling t by den keeps every
    root multiplicity.
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
        shifted = [x + [-y for y in ys] for x, ys in zip(shifted, op.im)] + [
            [*ys, *x] for x, ys in zip(shifted, op.im)]
    value = sum(coeffs[::2]) - sum(coeffs[1::2])  # (-1)^d P(-1)
    det = integer_det(shifted)
    if det != (value if op.real else value ** 2):
        raise InternalConsistencyError(
            f"Bareiss determinant {det} of I + A disagrees with the characteristic polynomial")
    coeffs.reverse()
    return coeffs, op.den


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


# Admission caps of enumerate_reps, and so of certify and cli spectrum: the
# number of irreducibles and the sum of their dimensions.  Operators,
# characteristic polynomials and resultants grow with both.
REP_COUNT_CAP = 64
TOTAL_DIM_CAP = 160
# Admission cap of certify on the number of candidate metrics it may try.
BUDGET_CAP = 100_000


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
    """All irreducible labels with every m_i <= rep_cap and |z_t| <= rep_cap.

    The count and the total dimension are products over the factors: each
    SU(2) copy offers rep_cap + 1 spins of total dimension
    (rep_cap + 1)(rep_cap + 2)/2, each torus factor 2 rep_cap + 1
    characters of dimension 1.  A list past REP_COUNT_CAP or TOTAL_DIM_CAP
    is refused (CapExceeded) from these products, before any label is made.
    """
    spins, chars = max(0, rep_cap + 1), max(0, 2 * rep_cap + 1)
    _admit("rep count", [(spins, g.su2_copies), (chars, g.torus_rank)], REP_COUNT_CAP)
    _admit("total rep dimension", [(spins * (rep_cap + 2) // 2, g.su2_copies), (chars, g.torus_rank)], TOTAL_DIM_CAP)
    c = g.su2_copies
    ranges = [range(rep_cap + 1)] * c + [range(-rep_cap, rep_cap + 1)] * g.torus_rank
    # product walks its ranges lexicographically, so the list is sorted by
    # (spins, torus_char)
    return [IrrepSpec(t[:c], t[c:]) for t in itertools.product(*ranges)]


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

    budget = max(budget, 0)
    half = (budget + 1) // 2
    for p in itertools.islice(primes(), half):
        yield diag_metric([Q(p + i, p) for i in range(n)])
    rng = random.Random(seed)
    for p in itertools.islice(primes(), budget - half):
        base = [[Q(p + i, p) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                eps = Q(rng.randint(1, 9), p * rng.choice([11, 13, 17, 19]))
                base[i][j] = base[j][i] = eps
        yield MetricParam(tuple(tuple(row) for row in base))


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


def certify(g: GroupSpec, rep_cap: int, budget: int = 12, seed: int = 2026) -> Certificate:
    """Search the deterministic metric sequence for a single witness at which
    every required separation/simplicity/pairing resultant is exactly nonzero.

    Required values over the cap-bounded rep list: a(V, V') for every pair
    with V' neither V nor its dual; b(V) for real/complex type; c(V) for
    quaternionic type.  Success certifies none of those finitely many
    polynomials vanishes identically; exhausting the budget is reported as
    inconclusive, never as a failure certificate.  A budget past BUDGET_CAP
    is refused (CapExceeded) before any candidate is built.
    """
    if budget > BUDGET_CAP:
        raise CapExceeded("budget", budget, BUDGET_CAP)
    reps = enumerate_reps(g, rep_cap)
    pieces = [_QuadPieces(g, v) for v in reps]
    # enumerate_reps lists every character with its negative, so every dual is listed
    position = {v: i for i, v in enumerate(reps)}
    duals = [position[v.dual()] for v in reps]
    last_violations = ()
    tried = 0
    for cand in witness_sequence(g.algebra_dim, budget, seed):
        tried += 1
        # Only the last candidate's violations are ever reported, so every
        # earlier one stops at its first zero value.
        exhaustive = tried == budget
        # build_operator's denominator for every rep at this metric; the
        # table values rely on it being shared.
        den = 4 * cand._weights[1]
        polys = [None] * len(reps)

        def poly(i):
            if polys[i] is None:
                p = char_poly(build_operator(g, reps[i], cand, pieces=pieces[i]))
                if p[1] != den:
                    raise InternalConsistencyError(
                        f"operator of {reps[i]} has denominator {p[1]}, its metric {den}")
                polys[i] = p
            return polys[i]

        table = []
        violations = []
        for row in _required_values(reps, duals, poly):
            table.append(row)
            if row[3] == 0:
                violations.append(row)
                if not exhaustive:
                    break
        if not violations:
            return Certificate("certified", g, rep_cap, cand, tuple(table), (), tried)
        last_violations = tuple(violations)
    return Certificate("inconclusive", g, rep_cap, None, (), last_violations, tried)


def _required_values(reps, duals, poly):
    """Table rows (kind, V, W, value) in certificate order, computed one at a time:
    b or c per rep, then a for every pair that is not a dual pair.

    reps are addressed by position: duals[i] is the position of the dual of
    reps[i], and poly(i) is char_poly's (P, den) for the operator D of
    reps[i], with one den for every rep.  The characteristic polynomial of
    D is p(t) = den^(-d) P(den t), so over the roots of P, for degrees
    d, d2: a = res(P, P2) / den^(d d2), b = res(P, P') / den^(d (d - 1))
    and c = res(P, P'') / den^(d (d - 2)); each value is one Fraction.
    """
    for i, v in enumerate(reps):
        p, den = poly(i)
        d = len(p) - 1
        if v.rep_type() == "quaternionic":
            yield ("c", v, None, Q(resultant(p, derivative(derivative(p))), den ** (d * (d - 2))))
        else:
            yield ("b", v, None, Q(resultant(p, derivative(p)), den ** (d * (d - 1))))
    for i, v in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if j != duals[i]:
                (p, den), (q, _) = poly(i), poly(j)
                yield ("a", v, reps[j], Q(resultant(p, q), den ** ((len(p) - 1) * (len(q) - 1))))


@dataclass(frozen=True)
class SpectrumCluster:
    center: float
    per_rep: tuple  # ((IrrepSpec, multiplicity), ...)

    def assembled_dims(self, ustar_dim: int = 1) -> dict:
        """L^2-eigenspace dimension per rep: dim U* x multiplicity x dim V*."""
        return {v: ustar_dim * mult * v.dim for v, mult in self.per_rep}


def _float_hermitian(op: ExactOperator):
    """Conjugate by W^(1/2) to land in an honestly Hermitian float matrix.

    Integer true division rounds correctly, so each entry is the float of
    the exact rational entry."""
    w = _monomial_weights(op.rep)
    d = op.dim
    s = [math.sqrt(float(x)) for x in w]
    return [[complex(op.re[i][j] / op.den, op.im[i][j] / op.den) * s[i] / s[j] for j in range(d)] for i in range(d)]


def numeric_spectrum(g: GroupSpec, rep_list, k: MetricParam, tol: float = 1e-9):
    """Float eigenvalues per rep, clustered with relative tolerance tol.

    Requires kappa positive definite (checked exactly); returns clusters
    sorted by center, each carrying its per-rep multiplicities
    (SpectrumCluster.assembled_dims scales them by a given dim U*).
    """
    return cluster_spectrum((build_operator(g, v, k) for v in rep_list), k, tol)


def cluster_spectrum(ops, k: MetricParam, tol: float = 1e-9):
    """numeric_spectrum for operators already built at the metric k.

    kappa is checked positive definite, exactly, before the first operator
    is taken from ops, so ops may be a lazy iterable.
    """
    if not k.is_positive_definite():
        raise NotPositiveDefinite("kappa is not positive definite")
    pairs = []
    for op in ops:
        if op.kappa_ref != k:
            raise ValueError("operator was built at another metric")
        h = _float_hermitian(op)
        for lam in np.linalg.eigvalsh(np.array(h, dtype=complex)):
            pairs.append((float(lam), op.rep))
    pairs.sort(key=lambda t: t[0])
    clusters = []
    for lam, v in pairs:
        if clusters and lam - clusters[-1][-1][0] <= tol * max(1.0, abs(lam)):
            clusters[-1].append((lam, v))
        else:
            clusters.append([(lam, v)])
    out = []
    for group in clusters:
        center = sum(x for x, _ in group) / len(group)
        counts = {}
        for _, v in group:
            counts[v] = counts.get(v, 0) + 1
        per_rep = tuple(sorted(counts.items(), key=lambda t: (t[0].spins, t[0].torus_char)))
        out.append(SpectrumCluster(center, per_rep))
    return out


def multiplicity_at_float(p: RationalPoly, x: float, tol: float = 1e-6) -> int:
    """Exact multiplicity of the root of p nearest the float estimate x.

    p is cleared to integer coefficients once and split into primitive
    integer squarefree layers by Yun's algorithm (Yun 1976; layer i collects
    the multiplicity-i roots); within a layer roots are simple, so the
    Newton residual |q(x)/q'(x)| is a sound distance proxy.  It is decided
    exactly at the dyadic value x = n / 2^e of the float: for a layer q,
    homogeneous integer Horner gives
    2^(e deg q) q(x) and 2^(e (deg q - 1)) q'(x), and the test
    |q(x)| <= b |q'(x)| for the float b = tol * max(1, |x|), taken exactly,
    is one integer comparison (float Horner on large coefficients loses
    more than the tolerance to cancellation near a root).  Exactly one layer
    must match; zero or several matches mean the estimate cannot be trusted
    at this tolerance and is an error, not a guess.
    """
    if not math.isfinite(x):
        raise InternalConsistencyError(f"cluster center {x!r} is not finite")
    _, parts = squarefree_decomposition(integer_parts(p)[1])
    n, den = x.as_integer_ratio()
    bound = tol * max(1.0, abs(x))
    # b = bn / bd; b = +inf admits every layer, -inf and nan none, as the
    # comparison with the float does.
    bn, bd = bound.as_integer_ratio() if math.isfinite(bound) else ((1, 0) if bound > 0 else (-1, 1))
    hits = []
    for i, q in enumerate(parts):
        if len(q) <= 1:
            continue
        dval = _homogeneous_horner(derivative(q), n, den)
        if dval == 0:
            continue
        if abs(_homogeneous_horner(q, n, den)) * bd <= bn * den * abs(dval):
            hits.append(i + 1)
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"cluster center {x!r} matches {len(hits)} squarefree layers at tol {tol}")
    return hits[0]


def _homogeneous_horner(cs: list[int], n: int, den: int) -> int:
    """den^deg * q(n / den) for the integer coefficients cs of q (degree-indexed)."""
    acc = cs[-1]
    power = 1
    for c in reversed(cs[:-1]):
        power *= den
        acc = acc * n + c * power
    return acc
