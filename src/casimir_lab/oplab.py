"""Exact metric-parameterized operators on irreducibles of SU(2)^c x T^n.

Builds the operator -sum_ij kappa_ij M_i M_j from explicit representation
matrices, extracts characteristic polynomials and resultants, and searches
for rational witness metrics certifying generic spectral simplicity of a
cap-bounded representation list.  Operators and the characteristic-polynomial
recursion run on Gaussian integers over a common denominator; the
Gaussian-rational matrices are derived views of the same data.

Normalization: each su(2) copy uses the basis Y_1, Y_2, Y_3 given by the
symmetric-power images of -(i/2)*sigma_k, which is orthonormal for the
bi-invariant form <X, Y> = -2 trace(XY) on the defining representation.  With
this choice every matrix entry is a Gaussian rational, and the operator at
kappa = identity acts on the spin-(m/2) factor by m(m+2)/4 — exactly half of
the weight-lattice Casimir value m(m+2)/2 computed by the weights module at
the |alpha|^2 = 2 normalization.  The factor 2 is fixed and documented here;
casimir_cross_check() asserts it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, NotPositiveDefinite
from .gaussian import GZERO, QQi, gconj_transpose
from .polyq import RationalPoly, poly_from_real_coeff_check, resultant, squarefree_decomposition
from .ratlinalg import frac, is_positive_definite

Q = Fraction


@dataclass(frozen=True)
class GroupSpec:
    """The group SU(2)^c x T^n with its 3c + n dimensional Lie algebra."""

    su2_copies: int
    torus_rank: int = 0

    def __post_init__(self):
        if self.su2_copies < 0 or self.torus_rank < 0:
            raise ValueError("factor counts must be nonnegative")
        if self.su2_copies + self.torus_rank < 1:
            raise ValueError("need at least one group factor")

    @property
    def algebra_dim(self) -> int:
        return 3 * self.su2_copies + self.torus_rank


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


def _gaussian_view(re, im, den: int):
    """(re + i im) / den as a Gaussian-rational matrix."""
    return tuple(
        tuple(QQi(Q(x, den), Q(y, den)) for x, y in zip(rr, ri))
        for rr, ri in zip(re, im)
    )


def _su2_generators(m: int):
    """The three spin-(m/2) matrices Y_1, Y_2, Y_3 in the monomial basis."""
    return [_gaussian_view(re, im, 2) for re, im in _su2_doubled(m)]


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


def irrep_matrices(g: GroupSpec, rep: IrrepSpec):
    """Gaussian-rational matrices for the orthonormal algebra basis on V."""
    return [_gaussian_view(re, im, 2) for re, im in _doubled_generators(g, rep)]


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

    @property
    def matrix(self) -> tuple:
        """The same operator as a Gaussian-rational matrix."""
        return _gaussian_view(self.re, self.im, self.den)


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
    if k.n != g.algebra_dim:
        raise DimensionMismatch(f"kappa is {k.n}x{k.n}, algebra dimension is {g.algebra_dim}")
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


def is_w_hermitian(op: ExactOperator) -> bool:
    """Exact self-adjointness for the invariant inner product.

    The monomial basis is not unitary, so the matrix need not equal its own
    conjugate transpose; self-adjointness reads W D = D^dagger W with W the
    diagonal Gram matrix of the basis.  This is what forces a real spectrum.
    """
    w = _monomial_weights(op.rep)
    d = op.dim
    m = op.matrix
    dag = gconj_transpose(m)
    for i in range(d):
        for j in range(d):
            if m[i][j] * QQi(w[i]) != dag[i][j] * QQi(w[j]):
                return False
    return True


def char_poly(op: ExactOperator) -> RationalPoly:
    """Exact monic characteristic polynomial via the trace recursion.

    Faddeev-LeVerrier runs on the Gaussian-integer matrix A = den * D:
    M_1 = A, c_k = -tr(M_k) / k, M_(k+1) = A (M_k + c_k I), where every
    division is exact in Z[i] (a remainder signals a bug).  The polynomial
    of D = A / den has coefficient c_k / den^k at t^(d-k); coefficients are
    asserted to be real, anything else signals a bug in the construction.
    """
    coeffs = [QQi(Q(cre, op.den ** k), Q(cim, op.den ** k))
              for k, (cre, cim) in enumerate(_trace_recursion(op.re, op.im))]
    p = poly_from_real_coeff_check(coeffs[::-1])
    if p.leading() != 1:
        raise InternalConsistencyError("characteristic polynomial is not monic")
    return p


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


@dataclass(frozen=True)
class ABCValues:
    """Separation (a), simplicity (b) and pairing (c) resultants at one metric."""

    a: Q
    b1: Optional[Q]
    b2: Optional[Q]
    c1: Optional[Q]
    c2: Optional[Q]


def abc_values(g: GroupSpec, reps, k: MetricParam) -> ABCValues:
    """a = res(p1, p2); per rep, b = res(p, p') for real/complex type and
    c = res(p, p'') for quaternionic type; the unused slot is absent."""
    v1, v2 = reps
    p1 = char_poly(build_operator(g, v1, k))
    p2 = char_poly(build_operator(g, v2, k))
    a = resultant(p1, p2)
    out = {}
    for tag, v, p in (("1", v1, p1), ("2", v2, p2)):
        if v.rep_type() == "quaternionic":
            out["b" + tag] = None
            out["c" + tag] = resultant(p, p.derivative().derivative())
        else:
            out["b" + tag] = resultant(p, p.derivative())
            out["c" + tag] = None
    return ABCValues(a, out["b1"], out["b2"], out["c1"], out["c2"])


def enumerate_reps(g: GroupSpec, rep_cap: int):
    """All irreducible labels with every m_i <= rep_cap and |z_t| <= rep_cap."""
    def spins_iter(c):
        if c == 0:
            yield ()
            return
        for rest in spins_iter(c - 1):
            for m in range(rep_cap + 1):
                yield rest + (m,)

    def torus_iter(n):
        if n == 0:
            yield ()
            return
        for rest in torus_iter(n - 1):
            for z in range(-rep_cap, rep_cap + 1):
                yield rest + (z,)

    reps = [IrrepSpec(s, z) for s in spins_iter(g.su2_copies) for z in torus_iter(g.torus_rank)]
    reps.sort(key=lambda r: (r.spins, r.torus_char))
    return reps


def witness_sequence(n: int, budget: int, seed: int):
    """Deterministic candidate metrics: graded diagonals over increasing primes,
    then seeded symmetric off-diagonal perturbations of those diagonals.

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

    out = []
    prime_list = []
    gen = primes()
    while len(prime_list) < max(budget, 1):
        prime_list.append(next(gen))
    half = (budget + 1) // 2
    for p in prime_list[:half]:
        out.append(diag_metric([Q(p + i, p) for i in range(n)]))
    rng = random.Random(seed)
    idx = 0
    while len(out) < budget:
        p = prime_list[idx % len(prime_list)]
        idx += 1
        base = [[Q(p + i, p) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                eps = Q(rng.randint(1, 9), p * rng.choice([11, 13, 17, 19]))
                base[i][j] = base[j][i] = eps
        out.append(MetricParam(tuple(tuple(row) for row in base)))
    return out


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
    inconclusive, never as a failure certificate.
    """
    reps = enumerate_reps(g, rep_cap)
    pieces = {v: _QuadPieces(g, v) for v in reps}
    candidates = witness_sequence(g.algebra_dim, budget, seed)
    last_violations = ()
    tried = 0
    for cand in candidates:
        tried += 1
        # Only the last candidate's violations are ever reported, so every
        # earlier one stops at its first zero value.
        exhaustive = tried == len(candidates)
        polys = {}

        def poly(v):
            if v not in polys:
                polys[v] = char_poly(build_operator(g, v, cand, pieces=pieces[v]))
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
    b or c per rep, then a for every pair that is not a dual pair."""
    for v in reps:
        p = poly(v)
        if v.rep_type() == "quaternionic":
            yield ("c", v, None, resultant(p, p.derivative().derivative()))
        else:
            yield ("b", v, None, resultant(p, p.derivative()))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            v, w = reps[i], reps[j]
            if w != v.dual():
                yield ("a", v, w, resultant(poly(v), poly(w)))


@dataclass(frozen=True)
class SpectrumCluster:
    center: float
    per_rep: tuple  # ((IrrepSpec, multiplicity), ...)

    def multiplicity_map(self) -> dict:
        return dict(self.per_rep)

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


def numeric_spectrum(g: GroupSpec, rep_list, k: MetricParam, tol: float = 1e-9, ustar_dim: int = 1):
    """Float eigenvalues per rep, clustered with relative tolerance tol.

    Requires kappa positive definite (checked exactly); returns clusters
    sorted by center, each carrying its per-rep multiplicity map and the
    assembled eigenspace dimensions at the given dim U*.
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

    p splits into squarefree layers (layer i collects the multiplicity-i
    roots); within a layer roots are simple, so the Newton residual
    |q(x)/q'(x)| is a sound distance proxy.  It is evaluated exactly at the
    rational value of x: float Horner on large coefficients loses more than
    the tolerance to cancellation near a root.  Exactly one layer must land
    within tol * max(1, |x|); zero or several matches mean the estimate
    cannot be trusted at this tolerance and is an error, not a guess.
    """
    if not math.isfinite(x):
        raise InternalConsistencyError(f"cluster center {x!r} is not finite")
    _, parts = squarefree_decomposition(p)
    scale = max(1.0, abs(x))
    exact_x = Q(x)
    hits = []
    for i, part in enumerate(parts):
        if part.degree <= 0:
            continue
        dval = part.derivative().eval(exact_x)
        if dval == 0:
            continue
        if abs(part.eval(exact_x) / dval) <= tol * scale:
            hits.append(i + 1)
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"cluster center {x!r} matches {len(hits)} squarefree layers at tol {tol}")
    return hits[0]


def casimir_cross_check(m: int) -> tuple:
    """Return (abstract weight-lattice value, 2 x operator value) for spin m/2.

    The identity-metric operator must be the scalar m(m+2)/4; doubling it
    reproduces the weight-lattice value m(m+2)/2 at |alpha|^2 = 2.  Any
    mismatch is a construction bug, not a data condition.
    """
    g = GroupSpec(1)
    op = build_operator(g, IrrepSpec((m,)), diag_metric([1, 1, 1]))
    expected = QQi(Q(m * (m + 2), 4))
    mat = op.matrix
    for i in range(op.dim):
        for j in range(op.dim):
            if mat[i][j] != (expected if i == j else GZERO):
                raise InternalConsistencyError("identity-metric operator is not the Casimir scalar")
    return (Q(m * (m + 2), 2), 2 * expected.re)
