"""Hidden symmetries of shifted eigenvalue spheres.

A Casimir class at squared radius a_sq, translated by the half-sum delta,
becomes a finite point set X on a sphere.  This module finds the full
group of ambient-space isometries that permute X (acting as the identity
on the orthogonal complement of span X), as a base and strong generating
set of the permutations of X they induce, checks that the Weyl group sits
inside it under the shift-conjugated action, and reports orbits.

Everything is exact, and the search runs in integers: a shifted point
mu + delta is kept as its fundamental-weight coordinates y = mu + 1, all
of them as one n x r integer array Y, and inner products as
y^T (den G) y, with G the fundamental-weight Gram matrix and den its
least common denominator: the images FY = Y (den G) give the sphere
check as one row sum of FY * Y, and the Gram row of a point x as
FY[x] Y^T.  The array is int64 when r^2 max|y|^2 max|den G| < 2^63 bounds
every partial sum of those products, and holds Python ints (dtype object)
otherwise, so no entry can overflow.  No n x n structure is built: a
search reads only the Gram rows of the base points and of the images it
tries, each on first read, and certifies each generator on the rows of
the base and of its images, which proves it induced by exactly one
isometry of span X (_check_gram; Plesken & Souvignier, Computing
isometries of lattices, J. Symbolic Comput. 24, 1997).  Isometries
compose, so certifying the generators certifies the group, and the group
itself is never listed: it is kept as a base and strong generating set
(Sims, Computational methods in the study of permutation groups, 1970),
whose order is the product of its basic orbit lengths and which a
deterministic Schreier-Sims sift checks (Seress, Permutation Group
Algorithms, 2003, ch. 4).  For the same reason W preserves X exactly when
its simple reflections do, so the Weyl check reflects the integer
coordinate array by each simple reflection in one array expression and
returns a verdict, listing no Weyl element.  chamber_orbit_count counts
the orbits of W and -1 on X from its closed-chamber points alone.  Caps
keep the search at desk scale and are refused loudly, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from itertools import chain
from math import prod

import numpy as np

from . import rootsys as rsys
from .errors import CapExceeded, InternalConsistencyError
from .rootsys import RootSystem
from .weights import CasimirClass

DEFAULT_POINT_CAP = 60
DEFAULT_RANK_CAP = 4

Perm = tuple[int, ...]


@dataclass(frozen=True)
class ShiftedConfig:
    """The shifted point set of a Casimir class as one exact integer array.

    coords[i] are the fundamental-weight coordinates mu + 1 of the shifted
    point mu + delta, in sorted order.  y is coords as an n x r array, fy =
    y (den G) their images, and fy[x] y^T is den = rs.gram_fw_int[0] times
    the Gram row of point x.  The dtype is int64 when r^2 max|y|^2 max|den G|
    < 2^63 bounds every partial sum, and object (Python ints) otherwise.
    """

    rs: RootSystem
    a_sq: Q
    coords: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.coords)

    @cached_property
    def _form(self) -> np.ndarray:
        # Every partial sum of FY and of FY Y^T is at most r^2 max|y|^2 max|den G|.
        g = self.rs.gram_fw_int[1]
        top = max(map(abs, chain.from_iterable(self.coords)), default=0)
        bound = self.rs.rank**2 * top**2 * max(map(abs, chain.from_iterable(g)))
        return np.array(g, dtype=np.int64 if bound < 2**63 else object)

    @cached_property
    def y(self) -> np.ndarray:
        return np.array(self.coords, dtype=self._form.dtype).reshape(self.size, self.rs.rank)

    @cached_property
    def fy(self) -> np.ndarray:
        return self.y @ self._form

    @cached_property
    def mu_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c - 1 for c in y) for y in self.coords)


def shifted_config(rs: RootSystem, cls: CasimirClass) -> ShiftedConfig:
    """Translate every member of a walked sphere (weights.sphere_set) by
    delta; canonical order, exact norms."""
    coords = tuple(sorted(tuple(c + 1 for c in m) for m in cls.sphere_members))
    cfg = ShiftedConfig(rs=rs, a_sq=cls.a_sq, coords=coords)
    norm, rem = divmod(cls.a_sq.numerator * rs.gram_fw_int[0], cls.a_sq.denominator)
    # The row sums of FY * Y, as n products of 1 x r by r x 1: the matmul kernel
    # that built FY, where a product and a sum would add two kernels to every
    # small class.
    norms = (cfg.fy[:, None, :] @ cfg.y[:, :, None]).ravel().tolist()
    if cfg.size and (rem or norms != [norm] * cfg.size):
        raise InternalConsistencyError("shifted point off its sphere")
    return cfg


def _select_basis(cfg: ShiftedConfig) -> list[int]:
    """The first spanning subset of X in point order: each point is reduced
    fraction-free against the echelon rows kept so far and kept when a
    nonzero row remains.  Any spanning subset is a base (see
    stabilizer_group); the scan stops at rank-many points.
    """
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for i, y in enumerate(cfg.coords):
        v = list(y)
        for c, row in echelon:
            if v[c]:
                a, b = row[c], v[c]
                v = [a * x - b * z for x, z in zip(v, row)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            chosen.append(i)
            echelon.append((c, v))
            if len(chosen) == cfg.rs.rank:
                break
    return chosen


@dataclass(frozen=True)
class PermGroup:
    """A permutation group of X as a base and strong generating set.

    gens are permutation tuples: p[i] is the index of the image of point i.
    The generators that fix base[0..k-1] generate the pointwise stabilizer
    G_k of those points, and orbit_lengths[k] is the length of the orbit of
    base[k] under G_k, so the order is their product.  len() is the order.
    """

    base: tuple[int, ...]
    gens: tuple[Perm, ...]
    orbit_lengths: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(self.orbit_lengths)

    def __len__(self) -> int:
        return self.order


def _orbit(point: int, gens) -> list[int]:
    """The orbit of point under the group generated by gens."""
    orbit, seen = [point], {point}
    for x in orbit:
        for s in gens:
            y = s[x]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _row_reader(cfg: ShiftedConfig):
    """row(x)[i] = y_x^T (den G) y_i in Python ints, built as fy[x] y^T on
    the first read of x and kept by this reader, which serves one search."""
    fy, yt, rows = cfg.fy, cfg.y.T, {}

    def row(x: int) -> list[int]:
        if x not in rows:
            rows[x] = (fy[x] @ yt).tolist()
        return rows[x]

    return row


def _check_gram(row, base: list[int], perm: Perm) -> None:
    """Certify that perm preserves every inner product: for each point b of
    the base, a basis of span X, the row of perm[b] read at perm must be b's.

    This equals the n^2 comparison.  Equal rows give Gram(images) =
    Gram(base), so b_j -> perm(b_j) extends to an isometry L of span X.
    Then <L x_i - x_perm(i), perm(b_j)> = <x_i, b_j> - <x_perm(i),
    perm(b_j)> = 0 for every j, and the images span X, so L x_i = x_perm(i).
    """
    for b in base:
        image = row(perm[b])
        if list(map(image.__getitem__, perm)) != row(b):
            raise InternalConsistencyError("stabilizer permutation mismatch")


def _search(cfg: ShiftedConfig, basis: list[int]) -> PermGroup:
    """Certified strong generators relative to the base basis (see stabilizer_group).

    The Gram matrix is symmetric, so the inner products of every point with
    a point y are y's Gram row (_row_reader): the candidates for an image are
    filtered by one row per image fixed so far, and the inner-product
    profiles of all points against the basis, or against its images at a
    leaf, are the columns of those rows, taken in one zip.
    """
    row = _row_reader(cfg)
    n, r = cfg.size, len(basis)
    images = list(basis)
    basis_profiles = list(zip(*map(row, basis)))

    def candidates(depth: int) -> list[int]:
        # The points with basis[depth]'s inner products against images[0..depth-1].
        cands = range(n)
        for want, y in zip(basis_profiles[basis[depth]], images[:depth]):
            g = row(y)
            cands = [c for c in cands if g[c] == want]
        return list(cands)

    def extend(depth: int) -> Perm | None:
        # The first permutation of X sending basis[j] to images[j] for j < depth.
        if depth < r:
            for c in candidates(depth):
                images[depth] = c
                perm = extend(depth + 1)
                if perm is not None:
                    return perm
            return None
        # Profile of x against the basis must be reproduced against the images.
        lookup = dict(zip(zip(*map(row, images)), range(n)))
        perm = tuple(map(lookup.get, basis_profiles))
        return None if None in perm or len(set(perm)) != n else perm

    gens: list[Perm] = []
    lengths = [0] * r
    for k in reversed(range(r)):
        # Every generator so far fixes basis[0..k-1], and so do images[0..k-1].
        orbit = set(_orbit(basis[k], gens))
        refused: set[int] = set()
        for c in candidates(k):
            if c in orbit or c in refused:
                continue
            images[k] = c
            perm = extend(k + 1)
            if perm is None:
                refused.update(_orbit(c, gens))
                continue
            _check_gram(row, basis, perm)
            gens.append(perm)
            orbit = set(_orbit(basis[k], gens))
        lengths[k] = len(orbit)
    return PermGroup(tuple(basis), tuple(gens), tuple(lengths))


def _inverse(perm: Perm) -> Perm:
    """The inverse permutation, in one assignment pass."""
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return tuple(inv)


def _check_strong_generators(group: PermGroup, n: int) -> None:
    """Deterministic Schreier-Sims test of a base and strong generating set.

    Level k's transversal {u_x : base[k] -> x} is grown breadth-first from
    the generators that fix base[0..k-1]; each u_x is kept as its images of
    the base points and the edge (parent, s) that reached it, u_x =
    u_parent s.  The transversal sizes must be the search's orbit lengths,
    and every Schreier generator u_x s u_(x^s)^-1, which fixes base[0..k],
    must sift through the transversals of levels k+1.. to the identity.  A
    Schreier generator whose u_x s has the base images of u_(x^s) is the
    identity and needs no inverse, so an inverse u_x^-1 = s^-1 u_parent^-1
    is built only for a Schreier generator that has to be sifted: along the
    edge path, in a loop rather than by recursion (the path can be as long
    as the orbit), and kept for the rest of this one check, as are the
    inverses of the generators.
    """
    base, r = group.base, len(group.base)
    identity = tuple(range(n))
    gen_inverses: dict[int, Perm] = {}
    levels = []
    for k, b in enumerate(base):
        gens = [(i, s) for i, s in enumerate(group.gens) if all(s[c] == c for c in base[:k])]
        transversal = {b: (base, None, None)}
        queue = [b]
        for x in queue:
            img = transversal[x][0]
            for i, s in gens:
                if s[x] not in transversal:
                    transversal[s[x]] = (tuple(map(s.__getitem__, img)), x, i)
                    queue.append(s[x])
        levels.append((gens, transversal, {b: identity}))
    if tuple(len(t) for _, t, _ in levels) != group.orbit_lengths:
        raise InternalConsistencyError("stabilizer transversals do not match the orbits searched")

    def inverse(m: int, x: int) -> Perm:
        # u_x^-1 at level m, from the nearest inverse already built on x's edge path.
        transversal, built = levels[m][1], levels[m][2]
        path = []
        while x not in built:
            path.append(x)
            x = transversal[x][1]
        inv = built[x]
        for x in reversed(path):
            i = transversal[x][2]
            if i not in gen_inverses:
                gen_inverses[i] = _inverse(group.gens[i])
            inv = built[x] = tuple(map(inv.__getitem__, gen_inverses[i]))
        return inv

    for k, (gens, transversal, _) in enumerate(levels):
        for img, _, _ in transversal.values():
            for _, s in gens:
                image = tuple(map(s.__getitem__, img))
                if image == transversal[image[k]][0]:
                    continue  # u_x s = u_(x^s)
                h = tuple(map(inverse(k, image[k]).__getitem__, image))
                for m in range(k + 1, r):
                    if h[m] not in levels[m][1]:
                        break
                    h = tuple(map(inverse(m, h[m]).__getitem__, h))
                if h != base:
                    raise InternalConsistencyError("a Schreier generator does not sift to the identity")


def stabilizer_group(
    cfg: ShiftedConfig,
    point_cap: int = DEFAULT_POINT_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> PermGroup:
    """The permutations of X induced by orthogonal maps of span X, as a base
    and strong generating set.

    Any spanning subset b_0..b_{r-1} of X is a base: an isometry of span X
    is fixed by the images of a spanning set, so only the identity fixes
    every b_k.  Only the cost of the search depends on the choice, and the
    first spanning subset in point order is used (_select_basis).  For
    k = r-1 down to 0 the search grows the orbit of b_k under the
    generators found so far, which all fix b_0..b_{k-1}.  For each point c
    outside it with b_k's inner products against b_0..b_{k-1}, it
    backtracks over Gram-compatible images of b_{k+1}..b_{r-1} for one
    permutation of X that fixes b_0..b_{k-1} and sends b_k to c (the
    inner-product profiles against the images must give a bijection of X);
    each one found is certified on the base rows (_check_gram) and becomes
    a generator.  One per coset is complete: if the generators of the
    levels above generate the stabilizer G_(k+1) of b_0..b_k, then G_k is
    the union of the cosets G_(k+1) u_c over the points c of the G_k-orbit
    of b_k, so a point with no such permutation, and its orbit under the
    generators so far, lies outside that orbit.
    The grown orbit is therefore the whole basic orbit, the generators
    generate every G_k, and |G| is the product of the orbit lengths (Sims
    1970).  Independently of the search, a deterministic Schreier-Sims sift
    (Seress, Permutation Group Algorithms, 2003, ch. 4) must find the same
    orbit lengths and sift every Schreier generator to the identity, or
    InternalConsistencyError is raised.  Refuses (CapExceeded) more than
    point_cap points, then a span rank past rank_cap.
    """
    if cfg.size > point_cap:
        raise CapExceeded("configuration size", cfg.size, point_cap)
    basis = _select_basis(cfg)
    if len(basis) > rank_cap:
        raise CapExceeded("configuration span rank", len(basis), rank_cap)
    group = _search(cfg, basis) if basis else PermGroup((), (), ())
    _check_strong_generators(group, cfg.size)
    return group


def orbits(cfg: ShiftedConfig, group: PermGroup) -> list[tuple[int, ...]]:
    """Orbits of the point indices under the group, sorted by smallest member."""
    seen: set[int] = set()
    out = []
    for i in range(cfg.size):
        if i not in seen:
            orbit = _orbit(i, group.gens)
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


def chamber_orbit_count(rs: RootSystem, chamber) -> int:
    """The number of <W, -1>-orbits on the shifted points of a class, from
    its closed-chamber members m (cls.chamber_members), with no
    configuration and no walk of X: the closed chamber meets each W-orbit
    once (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.12), and
    -1 pairs the orbits of m + 1 and -w0 (m + 1) (RootSystem.minus_w0).  So
    c chamber points, f of them fixed by -w0, are (c + f) / 2 orbits; the
    parity of c + f, and Solomon's identity on the parabolic orders that
    count the class's |X| (RootSystem.solomon_identity), are checked
    (InternalConsistencyError).
    """
    rs.solomon_identity  # checked once per root system
    flip = rs.minus_w0
    fixed = sum(all(m[j] == c for j, c in zip(flip, m)) for m in chamber)
    if (len(chamber) + fixed) % 2:
        raise InternalConsistencyError("the closed-chamber points fail the -w0 pairing")
    return (len(chamber) + fixed) // 2


def check_weyl_inclusion(rs: RootSystem, cfg: ShiftedConfig, weyl_cap: int = rsys.DEFAULT_WEYL_CAP) -> bool:
    """Does every Weyl element permute the shifted configuration?

    On shifted points the dislocated action mu -> w(mu+delta)-delta is the
    plain linear action, so this checks w(X) = X for all w, which holds
    exactly when every simple reflection maps X into X (a reflection is
    injective and X finite).  s_i sends the coordinates y to y - y_i C[i],
    C the Cartan matrix (rootsys.reflect_fw_coords), so it reflects all n
    points at once as the array Y - Y[:, i] C[i], in Y's dtype; the
    reflections are made one at a time, as they are read.  Refuses
    (CapExceeded) when |W| exceeds weyl_cap.
    The Weyl orbit of delta is free, so its size must be |W|;
    InternalConsistencyError is raised otherwise.  After the verdict, that
    identity is read from RootSystem.delta_orbit_size, which enumerates the
    orbit once per root system.
    """
    order = rs.weyl_order
    if order > weyl_cap:
        raise CapExceeded(f"Weyl group order of {rs.typ.label}", order, weyl_cap)
    points = set(cfg.coords)
    y = cfg.y
    cartan = np.array(rs.cartan_matrix, dtype=y.dtype)
    # Each entry is at most |y_j| + 3 |y_i| <= 4 max|y| in absolute value, far
    # inside int64 wherever ShiftedConfig.y is int64 (there r^2 max|y|^2 < 2^63);
    # object arrays hold Python ints.
    reflected = (map(tuple, (y - y[:, i : i + 1] * cartan[i]).tolist()) for i in range(rs.rank))
    if not all(map(points.issuperset, reflected)):
        return False
    rs.delta_orbit_size  # the identity |W delta| = |W|, checked once per root system
    return True
