"""Hidden symmetries of shifted eigenvalue spheres.

A Casimir class at squared radius a_sq, translated by the half-sum delta,
becomes a finite point set X on a sphere.  This module finds the full
group of ambient-space isometries that permute X (acting as the identity
on the orthogonal complement of span X), as a base and strong generating
set of the permutations of X they induce, checks that the Weyl group sits
inside it under the shift-conjugated action, and reports orbits.

Everything is exact, and the search runs in integers: a shifted point
mu + delta is kept as its fundamental-weight coordinates y = mu + 1, and
inner products as y^T (den G) y, with G the fundamental-weight Gram
matrix and den its least common denominator.  The integer Gram matrix
certifies each generator, because a permutation p of X preserving every
inner product is induced by exactly one such isometry.  Proof: a relation
sum c_i x_i = 0 gives |sum c_i x_p(i)|^2 = sum c_i c_j <x_i, x_j> = 0, so
x_i -> x_p(i) extends to a well-defined linear map of span X that
preserves the Gram matrix, hence is orthogonal; it is the only linear map
of span X inducing p, and the identity on the orthogonal complement
completes it (Plesken & Souvignier, Computing isometries of lattices,
J. Symbolic Comput. 24, 1997).  A product of Gram-preserving permutations
preserves the Gram matrix, so certifying the generators certifies the
group, and the group itself is never listed: it is kept as a base and
strong generating set (Sims, Computational methods in the study of
permutation groups, 1970), whose order is the product of its basic orbit
lengths and which a deterministic Schreier-Sims sift checks (Seress,
Permutation Group Algorithms, 2003, ch. 4).  For the same reason W
preserves X exactly when its simple reflections do, so the Weyl check
reflects integer coordinates and composes the witnesses from the
reflections' permutations.  Caps keep the search at desk scale and are
refused loudly, never truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from itertools import repeat
from math import prod
from operator import add, itemgetter, mul

from . import rootsys as rsys
from .errors import CapExceeded, InternalConsistencyError
from .rootsys import RootSystem
from .weights import CasimirClass

DEFAULT_POINT_CAP = 60
DEFAULT_RANK_CAP = 4

Perm = tuple[int, ...]


@dataclass(frozen=True)
class ShiftedConfig:
    """The shifted point set of a Casimir class in integer coordinates.

    coords[i] are the fundamental-weight coordinates mu + 1 of the shifted
    point mu + delta, in sorted order; gram_int[i][j] is den times the inner
    product of points i and j, with den = rs.gram_fw_int[0].  The Gram
    matrix has size^2 entries, so it is built on first use, after the
    point cap has been checked.
    """

    rs: RootSystem
    a_sq: Q
    coords: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.coords)

    @cached_property
    def gram_int(self) -> tuple[tuple[int, ...], ...]:
        # Row i is sum_k y_i[k] * (column k of the images G y_j), so every
        # entry is summed by map in C rather than by one call per entry.
        cols = list(zip(*_fw_images(self.rs, self.coords)))
        rows = []
        for y in self.coords:
            row = map(mul, repeat(y[0]), cols[0])
            for c, col in zip(y[1:], cols[1:]):
                row = map(add, row, map(mul, repeat(c), col))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def mu_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c - 1 for c in y) for y in self.coords)


def _fw_images(rs: RootSystem, coords) -> list[tuple[int, ...]]:
    """G y for each y in coords, G the integer fundamental-weight Gram matrix."""
    g = rs.gram_fw_int[1]
    return [tuple(sum(map(mul, row, y)) for row in g) for y in coords]


def shifted_config(rs: RootSystem, cls: CasimirClass) -> ShiftedConfig:
    """Translate every sphere member by delta; canonical order, exact norms."""
    coords = sorted(tuple(c + 1 for c in w.fw_coords) for w in cls.sphere_members)
    on_sphere = cls.a_sq.numerator * rs.gram_fw_int[0]
    for y, gy in zip(coords, _fw_images(rs, coords)):
        if sum(map(mul, y, gy)) * cls.a_sq.denominator != on_sphere:
            raise InternalConsistencyError("shifted point off its sphere")
    return ShiftedConfig(rs=rs, a_sq=cls.a_sq, coords=tuple(coords))


def _select_basis(cfg: ShiftedConfig) -> list[int]:
    """Greedy spanning subset, preferring points whose inner-product profile
    against the already-chosen basis is shared by as few other points as
    possible (cheapest search fan-out), the first such point on ties.  Each
    pass extends the profiles by the newest point's column and reduces the
    points outside the span so far against the newest echelon row only.
    """
    g = cfg.gram_int
    chosen: list[int] = []
    profiles: list[tuple[int, ...]] = [()] * cfg.size
    live = {i: list(y) for i, y in enumerate(cfg.coords) if any(y)}
    while live:
        shared = Counter(profiles)
        best = min(live, key=lambda i: shared[profiles[i]])
        chosen.append(best)
        row = live.pop(best)
        c = next(c for c, x in enumerate(row) if x)
        for i, v in list(live.items()):
            if v[c]:
                a, b = row[c], v[c]
                v = [a * x - b * z for x, z in zip(v, row)]
                if any(v):
                    live[i] = v
                else:
                    del live[i]
        profiles = [p + (r[best],) for p, r in zip(profiles, g)]
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


def _check_gram(cfg: ShiftedConfig, perm: Perm) -> None:
    """Certify that perm preserves every inner product: n^2 integer comparisons."""
    g = cfg.gram_int
    for row, image in zip(g, perm):
        if tuple(map(g[image].__getitem__, perm)) != row:
            raise InternalConsistencyError("stabilizer permutation mismatch")


def _search(cfg: ShiftedConfig, basis: list[int]) -> PermGroup:
    """Certified strong generators relative to the base basis (see stabilizer_group)."""
    g = cfg.gram_int
    n, r = cfg.size, len(basis)
    images = list(basis)
    basis_profiles = list(map(itemgetter(*basis), g))

    def candidates(depth: int) -> list[int]:
        # The points with basis[depth]'s inner products against images[0..depth-1].
        want = [g[basis[depth]][b] for b in basis[:depth]]
        return [c for c in range(n) if [g[c][y] for y in images[:depth]] == want]

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
        image_profile = itemgetter(*images)
        lookup = {image_profile(row): y for y, row in enumerate(g)}
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
            _check_gram(cfg, perm)
            gens.append(perm)
            orbit = set(_orbit(basis[k], gens))
        lengths[k] = len(orbit)
    return PermGroup(tuple(basis), tuple(gens), tuple(lengths))


def _check_strong_generators(group: PermGroup, n: int) -> None:
    """Deterministic Schreier-Sims test of a base and strong generating set.

    Level k's transversal {u_x : base[k] -> x} is grown from the generators
    that fix base[0..k-1]; each u_x is kept as its images of the base points
    and its inverse permutation, so every step below costs O(r).  The
    transversal sizes must be the search's orbit lengths, and every
    Schreier generator u_x s u_(x^s)^-1, which fixes base[0..k], must sift
    through the transversals of levels k+1.. to the identity.
    """
    base, r = group.base, len(group.base)
    inverses = {s: tuple(sorted(range(n), key=s.__getitem__)) for s in group.gens}
    levels = []
    for k, b in enumerate(base):
        gens = [s for s in group.gens if all(s[c] == c for c in base[:k])]
        transversal = {b: (base, tuple(range(n)))}
        queue = [b]
        for x in queue:
            img, inv = transversal[x]
            for s in gens:
                if s[x] not in transversal:
                    transversal[s[x]] = (tuple(map(s.__getitem__, img)), tuple(map(inv.__getitem__, inverses[s])))
                    queue.append(s[x])
        levels.append((gens, transversal))
    if tuple(len(t) for _, t in levels) != group.orbit_lengths:
        raise InternalConsistencyError("stabilizer transversals do not match the orbits searched")
    for k, (gens, transversal) in enumerate(levels):
        for img, _ in transversal.values():
            for s in gens:
                image = tuple(map(s.__getitem__, img))
                y_img, y_inv = transversal[image[k]]
                if image == y_img:
                    continue  # u_x s = u_(x^s)
                h = tuple(map(y_inv.__getitem__, image))
                for m in range(k + 1, r):
                    if h[m] not in levels[m][1]:
                        break
                    h = tuple(map(levels[m][1][h[m]][1].__getitem__, h))
                if h != base:
                    raise InternalConsistencyError("a Schreier generator does not sift to the identity")


def stabilizer_group(
    cfg: ShiftedConfig,
    point_cap: int = DEFAULT_POINT_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> PermGroup:
    """The permutations of X induced by orthogonal maps of span X, as a base
    and strong generating set.

    The base is the spanning subset b_0..b_{r-1} of _select_basis: an
    isometry of span X is fixed by the images of a spanning set, so only the
    identity fixes every b_k.  For k = r-1 down to 0 the search grows the
    orbit of b_k under the generators found so far, which all fix
    b_0..b_{k-1}.  For each point c outside it with b_k's inner products
    against b_0..b_{k-1}, it backtracks over Gram-compatible images of
    b_{k+1}..b_{r-1} for one permutation of X that fixes b_0..b_{k-1} and
    sends b_k to c (the inner-product profiles against the images must give
    a bijection of X); each one found is certified on the integer Gram
    matrix and becomes a generator.  One per coset is complete: if the
    generators of the levels above generate the stabilizer G_(k+1) of
    b_0..b_k, then G_k is the union of the cosets G_(k+1) u_c over the
    points c of the G_k-orbit of b_k, so a point with no such permutation,
    and its orbit under the generators so far, lies outside that orbit.
    The grown orbit is therefore the whole basic orbit, the generators
    generate every G_k, and |G| is the product of the orbit lengths (Sims
    1970).  Independently of the search, a deterministic Schreier-Sims sift
    (Seress, Permutation Group Algorithms, 2003, ch. 4) must find the same
    orbit lengths and sift every Schreier generator to the identity, or
    InternalConsistencyError is raised.
    """
    if cfg.size > point_cap:
        raise CapExceeded("configuration size", cfg.size, point_cap)
    basis = _select_basis(cfg)
    r = len(basis)
    if r > rank_cap:
        raise CapExceeded("configuration span rank", r, rank_cap)
    group = _search(cfg, basis) if r else PermGroup((), (), ())
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


def check_weyl_inclusion(
    rs: RootSystem, cfg: ShiftedConfig, weyl_cap: int = rsys.DEFAULT_WEYL_CAP
) -> tuple[bool, list[tuple[tuple[int, ...], Perm]]]:
    """Does every Weyl element permute the shifted configuration?

    On shifted points the dislocated action mu -> w(mu+delta)-delta is the
    plain linear action, so this checks w(X) = X for all w, which holds
    exactly when it holds for the simple reflections.  Returns
    (True, [(word, permutation), ...]) with one witness per element, in
    the order and with the reduced words of rootsys.weyl_group, or
    (False, []).  Refuses (CapExceeded) when |W| exceeds weyl_cap.
    """
    order = rs.typ.weyl_order()
    if order > weyl_cap:
        raise CapExceeded(f"Weyl group order of {rs.typ.label}", order, weyl_cap)
    index = {y: i for i, y in enumerate(cfg.coords)}
    gens = []
    for i in range(rs.rank):
        perm = tuple(index.get(rsys.reflect_fw_coords(rs, y, i)) for y in cfg.coords)
        if None in perm:
            return False, []
        gens.append(perm)

    # Breadth-first over words w s_i, as weyl_group does.  An element w is
    # keyed by w^-1(delta) = s_ik ... s_i1(delta): the Weyl orbit of delta
    # is free, so equal keys mean equal elements.
    delta = (1,) * rs.rank
    seen = {delta}
    frontier = [((), delta, tuple(range(cfg.size)))]
    witnesses = [((), frontier[0][2])]
    while frontier:
        nxt = []
        for word, key, perm in frontier:
            for i, s in enumerate(gens):
                k = rsys.reflect_fw_coords(rs, key, i)
                if k not in seen:
                    seen.add(k)
                    elem = (word + (i,), k, tuple(map(perm.__getitem__, s)))
                    nxt.append(elem)
                    witnesses.append((elem[0], elem[2]))
        frontier = nxt
    if len(witnesses) != order:
        raise InternalConsistencyError(f"enumerated {len(witnesses)} Weyl elements, expected {order}")
    return True, witnesses
