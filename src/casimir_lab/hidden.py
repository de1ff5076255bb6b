"""Hidden symmetries of shifted eigenvalue spheres.

A Casimir class at squared radius a_sq, translated by the half-sum delta,
becomes a finite point set X on a sphere.  This module finds the full
group of ambient-space isometries that permute X (acting as the identity
on the orthogonal complement of span X), as the permutations of X they
induce, checks that the Weyl group sits inside it under the
shift-conjugated action, and reports orbits.

Everything is exact, and the search runs in integers: a shifted point
mu + delta is kept as its fundamental-weight coordinates y = mu + 1, and
inner products as y^T (den G) y, with G the fundamental-weight Gram
matrix and den its least common denominator.  Backtracking over
Gram-preserving images finds every permutation of X that an isometry can
induce, and the integer Gram matrix certifies each one, because a
permutation p of X preserving every inner product is induced by exactly
one such isometry.  Proof: a relation sum c_i x_i = 0 gives
|sum c_i x_p(i)|^2 = sum c_i c_j <x_i, x_j> = 0, so x_i -> x_p(i) extends
to a well-defined linear map of span X that preserves the Gram matrix,
hence is orthogonal; it is the only linear map of span X inducing p, and
the identity on the orthogonal complement completes it (Plesken &
Souvignier, Computing isometries of lattices, J. Symbolic Comput. 24,
1997).  Only a generating set is certified, and the generators must close
to exactly the permutations found: a product of Gram-preserving
permutations preserves the Gram matrix.  For the same reason W preserves
X exactly when its simple reflections do (Seress, Permutation Group
Algorithms, 2003), so the Weyl check reflects integer coordinates and
composes the witnesses from the reflections' permutations.  Caps keep the
backtracking at desk scale and are refused loudly, never truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import itemgetter, mul

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
        g_coords = _fw_images(self.rs, self.coords)
        return tuple(tuple(sum(map(mul, y, gz)) for gz in g_coords) for y in self.coords)

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


def _reduce(echelon: list[tuple[int, list[int]]], v) -> list[int]:
    """Fraction-free elimination of v against echelon rows (pivot, row)."""
    v = list(v)
    for c, row in echelon:
        if v[c]:
            a, b = row[c], v[c]
            v = [a * x - b * z for x, z in zip(v, row)]
    return v


def _select_basis(cfg: ShiftedConfig) -> list[int]:
    """Greedy spanning subset, preferring points whose inner-product profile
    against the already-chosen basis is shared by as few other points as
    possible (cheapest backtracking fan-out)."""
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    while True:
        profiles = [tuple(row[j] for j in chosen) for row in cfg.gram_int]
        shared = Counter(profiles)
        best = best_rest = None
        for i, y in enumerate(cfg.coords):
            rest = _reduce(echelon, y)
            if not any(rest):
                continue
            if best is None or shared[profiles[i]] < shared[profiles[best]]:
                best, best_rest = i, rest
        if best is None:
            return chosen
        chosen.append(best)
        echelon.append((next(c for c, x in enumerate(best_rest) if x), best_rest))


def _close(group: set[Perm], gens: list[Perm]) -> set[Perm]:
    """The permutation group generated by a group and further generators."""
    group = set(group)
    frontier = list(group)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = tuple(map(x.__getitem__, s))
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    return group


def _check_gram(cfg: ShiftedConfig, perm: Perm) -> None:
    """Certify that perm preserves every inner product: n^2 integer comparisons."""
    g = cfg.gram_int
    for row, image in zip(g, perm):
        if tuple(map(g[image].__getitem__, perm)) != row:
            raise InternalConsistencyError("stabilizer permutation mismatch")


def stabilizer_group(
    cfg: ShiftedConfig,
    point_cap: int = DEFAULT_POINT_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> list[Perm]:
    """The permutations of X induced by orthogonal maps of span X.

    Gram-preserving backtracking: images of a spanning subset are chosen
    among points with exactly matching pairwise inner products; an
    assignment is kept when the inner-product profiles against the images
    match those against the subset point for point, a bijection of X.
    Walking the sorted permutations, each one outside the closure of the
    generators taken so far becomes a generator and is certified on the
    integer Gram matrix; the closure must equal the set found.  The
    certificate is complete: if p preserves every inner product, a relation
    sum c_i x_i = 0 gives |sum c_i x_p(i)|^2 = 0, so x_i -> x_p(i) is a
    well-defined linear map of span X preserving the Gram matrix, hence
    orthogonal.  It is the only one inducing p, and extended by the identity
    on the orthogonal complement it is the ambient isometry (Plesken &
    Souvignier, J. Symbolic Comput. 24, 1997).  The result is the full
    finite group, not a sample, as sorted permutation tuples: p[i] is the
    index of the image of point i.
    """
    if cfg.size > point_cap:
        raise CapExceeded("configuration size", cfg.size, point_cap)
    basis = _select_basis(cfg)
    r = len(basis)
    if r > rank_cap:
        raise CapExceeded("configuration span rank", r, rank_cap)
    n = cfg.size
    if r == 0:
        return [tuple(range(n))]

    g = cfg.gram_int
    perms: set[Perm] = set()
    images = [0] * r
    basis_profiles = list(map(itemgetter(*basis), g))
    # with_value[a][v]: the points whose inner product with point a is v
    with_value = []
    for row in g:
        by_value: dict[int, list[int]] = {}
        for c, v in enumerate(row):
            by_value.setdefault(v, []).append(c)
        with_value.append(by_value)

    def extend() -> Perm | None:
        # Profile of x against the basis must be reproduced against the images.
        image_profile = itemgetter(*images)
        lookup = {image_profile(row): y for y, row in enumerate(g)}
        perm = tuple(map(lookup.get, basis_profiles))
        if None in perm or len(set(perm)) != n:
            return None
        return perm

    def backtrack(depth: int):
        if depth == r:
            p = extend()
            if p is not None:
                perms.add(p)
            return
        want = g[basis[depth]]
        cands = range(n) if depth == 0 else with_value[images[0]].get(want[basis[0]], ())
        for cand in cands:
            row = g[cand]
            if all(row[images[j]] == want[basis[j]] for j in range(1, depth)):
                images[depth] = cand
                backtrack(depth + 1)

    backtrack(0)

    group = sorted(perms)
    closure = {tuple(range(n))}
    gens: list[Perm] = []
    for perm in group:
        if perm in closure:
            continue
        _check_gram(cfg, perm)
        gens.append(perm)
        closure = _close(closure, gens)
    if closure != perms:
        raise InternalConsistencyError("stabilizer generators do not close to the permutations found")
    return group


def orbits(cfg: ShiftedConfig, group: list[Perm]) -> list[tuple[int, ...]]:
    """Orbits of the point indices under the group, sorted by smallest member."""
    parent = list(range(cfg.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in group:
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    buckets: dict[int, list[int]] = {}
    for i in range(cfg.size):
        buckets.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in buckets.values())


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
