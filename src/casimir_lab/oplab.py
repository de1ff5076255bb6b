"""Exact metric-parameterized operators on irreducibles of SU(2)^c x T^n.

Builds the operator -sum_ij kappa_ij M_i M_j from explicit representation
matrices, extracts characteristic polynomials and resultants, and searches
for rational witness metrics certifying generic spectral simplicity of a
cap-bounded representation list.  Operators and the characteristic-polynomial
recursion run on Gaussian integers over a common denominator.

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
from typing import Optional

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InternalConsistencyError, NotPositiveDefinite
from .polyq import RationalPoly, derivative, integer_parts, resultant, squarefree_decomposition
from .ratlinalg import frac, is_positive_definite

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


def diag_metric(entries) -> MetricParam:
    vals = [frac(x) for x in entries]
    n = len(vals)
    return MetricParam(tuple(tuple(vals[i] if i == j else Q(0) for j in range(n)) for i in range(n)))


def _derivation(m: int, a: int, b: int, c: int, d: int):
    """Integer matrix of [[a, b], [c, d]] acting as a derivation on spin m/2.

    In the monomial basis x^(m-k) y^k the basis vector e_k goes to
    (m-k)a+kd on the diagonal, k*b one step up and (m-k)*c one step down.
    """
    rows = [[0] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        rows[k][k] = a * (m - k) + d * k
        if k > 0:
            rows[k - 1][k] = b * k
        if k < m:
            rows[k + 1][k] = c * (m - k)
    return rows


def _su2_doubled(m: int):
    """2 Y_1, 2 Y_2, 2 Y_3 on spin m/2 as (re, im) integer rows.

    Y_k is the image of -(i/2)*sigma_k, so 2 Y_k is the image of the
    Gaussian-integer matrix -i*sigma_k; real and imaginary parts act
    separately because the derivation is linear.
    """
    zero = _derivation(m, 0, 0, 0, 0)
    return [
        (zero, _derivation(m, 0, -1, -1, 0)),
        (_derivation(m, 0, -1, 1, 0), zero),
        (zero, _derivation(m, -1, 0, 0, 1)),
    ]


def _kron_identity(left: int, x, right: int):
    """I_left (x) X (x) I_right for an integer matrix X, row-major."""
    n = len(x)
    size = left * n * right
    out = [[0] * size for _ in range(size)]
    for a in range(left):
        for i in range(n):
            for j in range(n):
                if x[i][j]:
                    for b in range(right):
                        out[(a * n + i) * right + b][(a * n + j) * right + b] = x[i][j]
    return out


def _doubled_generators(g: GroupSpec, rep: IrrepSpec):
    """2 M_i for the orthonormal algebra basis on V, as Gaussian-integer (re, im) rows."""
    if len(rep.spins) != g.su2_copies or len(rep.torus_char) != g.torus_rank:
        raise DimensionMismatch(
            f"rep shape ({len(rep.spins)} spins, {len(rep.torus_char)} torus) does not "
            f"match group ({g.su2_copies}, {g.torus_rank})"
        )
    dims = [m + 1 for m in rep.spins]
    out = []
    for copy, m in enumerate(rep.spins):
        left, right = math.prod(dims[:copy]), math.prod(dims[copy + 1:])
        for re, im in _su2_doubled(m):
            out.append((_kron_identity(left, re, right), _kron_identity(left, im, right)))
    total = rep.dim
    for z in rep.torus_char:
        out.append((_kron_identity(total, [[0]], 1), _kron_identity(total, [[2 * z]], 1)))
    return out


class _QuadPieces:
    """Metric-independent quadratic pieces of one irreducible, in integers.

    The generators M_i have entries in (1/2) Z[i], so G_i = 2 M_i is a
    Gaussian-integer matrix and the piece for i <= j is G_i G_j + G_j G_i
    (G_i^2 on the diagonal), that is 4 (M_i M_j + M_j M_i) (4 M_i^2).  A
    piece is multiplied out the first time a metric with kappa_ij != 0 asks
    for it and kept for the life of the object, so operators of one rep at
    many metrics share their products.
    """

    def __init__(self, g: GroupSpec, rep: IrrepSpec):
        self.group = g
        self.rep = rep
        self._dim = rep.dim
        # per generator, per row: the nonzero entries (column, re, im)
        self._gens = [
            [[(c, x, y) for c, (x, y) in enumerate(zip(rr, ri)) if x or y] for rr, ri in zip(re, im)]
            for re, im in _doubled_generators(g, rep)
        ]
        self._pieces = {}

    def piece(self, i: int, j: int):
        """Flat row-major (re, im) integer lists of 4 (M_i M_j + M_j M_i), or of 4 M_i^2 when i == j."""
        key = (i, j) if i <= j else (j, i)
        if key not in self._pieces:
            d = self._dim
            re, im = [0] * (d * d), [0] * (d * d)
            for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
                rows_b = self._gens[b]
                for r, row in enumerate(self._gens[a]):
                    for k, x, y in row:
                        for c, u, v in rows_b[k]:
                            re[r * d + c] += x * u - y * v
                            im[r * d + c] += x * v + y * u
            self._pieces[key] = (re, im)
        return self._pieces[key]


def _matmul(a, b):
    """Integer matrix product of row lists."""
    cols = list(zip(*b))
    return [[sum(map(int.__mul__, r, c)) for c in cols] for r in a]


def _zmatmul(are, aim, bre, bim):
    """(are + i aim)(bre + i bim) over Z[i], as (re, im) row lists."""
    rr, ii, ri, ir = _matmul(are, bre), _matmul(aim, bim), _matmul(are, bim), _matmul(aim, bre)
    re = [list(map(int.__sub__, x, y)) for x, y in zip(rr, ii)]
    im = [list(map(int.__add__, x, y)) for x, y in zip(ri, ir)]
    return re, im


@dataclass(frozen=True)
class ExactOperator:
    """D = (re + i im) / den with integer row tuples re, im and den > 0."""

    re: tuple
    im: tuple
    den: int
    rep: IrrepSpec
    kappa_ref: MetricParam

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
    Passing the rep's pieces shares their products across metrics (certify
    does); without them the pieces are built for this call.
    """
    g.check_kappa_size(k.n)
    if pieces is None:
        pieces = _QuadPieces(g, rep)
    elif pieces.group != g or pieces.rep != rep:
        raise ValueError("quadratic pieces belong to another group or rep")
    terms = [(i, j, k.kappa[i][j]) for i in range(k.n) for j in range(i, k.n) if k.kappa[i][j] != 0]
    lcm = math.lcm(*(x.denominator for _, _, x in terms))
    d = rep.dim
    re = [0] * (d * d)
    im = [0] * (d * d)
    for i, j, x in terms:
        w = -x.numerator * (lcm // x.denominator)
        pre, pim = pieces.piece(i, j)
        re = list(map(int.__add__, re, map(w.__mul__, pre)))
        im = list(map(int.__add__, im, map(w.__mul__, pim)))
    rows_re = tuple(tuple(re[r * d:(r + 1) * d]) for r in range(d))
    rows_im = tuple(tuple(im[r * d:(r + 1) * d]) for r in range(d))
    return ExactOperator(rows_re, rows_im, 4 * lcm, rep, k)


def _monomial_weights(rep: IrrepSpec):
    """Diagonal of the invariant inner product on the monomial basis (1/binomial)."""
    weights = [Q(1)]
    for m in rep.spins:
        weights = [w / math.comb(m, k) for w in weights for k in range(m + 1)]
    return weights


def char_poly(op: ExactOperator) -> tuple[list[int], int]:
    """(P, den): the monic integer polynomial P(s) = det(sI - A) of A = den * D.

    Faddeev-LeVerrier runs on the Gaussian-integer matrix A: M_1 = A,
    c_k = -tr(M_k) / k, M_(k+1) = A (M_k + c_k I), where every division is
    exact in Z[i] (a remainder signals a bug).  P is degree-indexed, with
    c_k at s^(d-k); its coefficients are asserted to be real, anything else
    signals a bug in the construction.  The characteristic polynomial of D
    is p(t) = den^(-d) P(den t), with coefficient c_k / den^k at t^(d-k);
    scaling t by den keeps every root multiplicity.
    """
    coeffs = []
    for k, (cre, cim) in enumerate(_trace_recursion(op.re, op.im)):
        if cim:
            raise InternalConsistencyError(f"characteristic coefficient has imaginary part {Q(cim, op.den ** k)}")
        coeffs.append(cre)
    coeffs.reverse()
    return coeffs, op.den


def _trace_recursion(are, aim):
    """[(1, 0), c_1, ..., c_d] with det(tI - A) = sum_k c_k t^(d-k), over Z[i]."""
    d = len(are)
    mre, mim = are, aim
    out = [(1, 0)]
    for k in range(1, d + 1):
        cre, rre = divmod(-sum(mre[i][i] for i in range(d)), k)
        cim, rim = divmod(-sum(mim[i][i] for i in range(d)), k)
        if rre or rim:
            raise InternalConsistencyError(f"trace of M_{k} is not divisible by {k}")
        out.append((cre, cim))
        if k < d:
            bre = [list(r) for r in mre]
            bim = [list(r) for r in mim]
            for i in range(d):
                bre[i][i] += cre
                bim[i][i] += cim
            mre, mim = _zmatmul(are, aim, bre, bim)
    return out


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
    pieces = {v: _QuadPieces(g, v) for v in reps}
    last_violations = ()
    tried = 0
    for cand in witness_sequence(g.algebra_dim, budget, seed):
        tried += 1
        # Only the last candidate's violations are ever reported, so every
        # earlier one stops at its first zero value.
        exhaustive = tried == budget
        # build_operator's denominator for every rep at this metric; the
        # table values rely on it being shared.
        den = 4 * math.lcm(*(x.denominator for row in cand.kappa for x in row))
        polys = {}

        def poly(v):
            if v not in polys:
                polys[v] = char_poly(build_operator(g, v, cand, pieces=pieces[v]))
                if polys[v][1] != den:
                    raise InternalConsistencyError(
                        f"operator of {v} has denominator {polys[v][1]}, its metric {den}")
            return polys[v]

        table = []
        violations = []
        for row in _required_values(reps, poly):
            table.append(row)
            if row[3] == 0:
                violations.append(row)
                if not exhaustive:
                    break
        if not violations:
            return Certificate("certified", g, rep_cap, cand, tuple(table), (), tried)
        last_violations = tuple(violations)
    return Certificate("inconclusive", g, rep_cap, None, (), last_violations, tried)


def _required_values(reps, poly):
    """Table rows (kind, V, W, value) in certificate order, computed one at a time:
    b or c per rep, then a for every pair that is not a dual pair.

    poly(v) is char_poly's (P, den) for the operator D of v, with one den
    for every rep.  The characteristic polynomial of D is
    p(t) = den^(-d) P(den t), so over the roots of P, for degrees d, d2:
    a = res(P, P2) / den^(d d2), b = res(P, P') / den^(d (d - 1)) and
    c = res(P, P'') / den^(d (d - 2)); each value is one Fraction.
    """
    for v in reps:
        p, den = poly(v)
        d = len(p) - 1
        if v.rep_type() == "quaternionic":
            yield ("c", v, None, Q(resultant(p, derivative(derivative(p))), den ** (d * (d - 2))))
        else:
            yield ("b", v, None, Q(resultant(p, derivative(p)), den ** (d * (d - 1))))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            v, w = reps[i], reps[j]
            if w != v.dual():
                (p, den), (q, _) = poly(v), poly(w)
                yield ("a", v, w, Q(resultant(p, q), den ** ((len(p) - 1) * (len(q) - 1))))


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
