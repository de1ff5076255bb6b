"""Reference permutation-group code for the hidden-symmetry tests.

`hidden.stabilizer_group` keeps the stabilizer of a shifted configuration as
a base and strong generating set.  The references here list the group
element by element instead: `full_stabilizer` is the exhaustive
Gram-preserving backtracking over every image of a spanning subset,
checked by closing its generators back to every permutation found.  Its
spanning subset is `select_basis`, a greedy choice of points with rarely
shared inner-product profiles, so it backtracks over a different base from
the package's first spanning points in point order, which
`first_spanning_points` finds from ranks alone.  Both read the n x n Gram
matrix `gram`, built one entry at a time in Python ints, and
`gram_preserved` is the n^2 certificate of a permutation on it.  `elements`
enumerates a `PermGroup` from the transversals of its strong generators,
and `reference_sift` is the Schreier-Sims test that builds every
transversal element's inverse as it grows the transversal.
`weyl_sign_orbit_count` counts the orbits of X under the simple reflections
and -1 as index permutations of X, the count that
`hidden.chamber_orbit_count` reads off the closed-chamber points instead.
"""

from collections import Counter
from operator import itemgetter, mul

from casimir_lab.errors import InternalConsistencyError
from casimir_lab.ratlinalg import mat, rank
from casimir_lab.rootsys import reflect_fw_coords


def _reduce(echelon, v):
    """Fraction-free elimination of v against echelon rows (pivot, row)."""
    v = list(v)
    for c, row in echelon:
        if v[c]:
            a, b = row[c], v[c]
            v = [a * x - b * z for x, z in zip(v, row)]
    return v


def gram(cfg):
    """den times the Gram matrix of X, y_i . ((den G) y_j), in Python ints,
    one entry at a time."""
    g = cfg.rs.gram_fw_int[1]
    images = [tuple(sum(map(mul, row, y)) for row in g) for y in cfg.coords]
    return [[sum(map(mul, y, gz)) for gz in images] for y in cfg.coords]


def gram_preserved(cfg, perm):
    """Does perm preserve every inner product of X?  All n^2 entries of the
    permuted Gram matrix compared with the Gram matrix."""
    g = gram(cfg)
    return all(g[perm[i]][perm[j]] == v for i, row in enumerate(g) for j, v in enumerate(row))


def select_basis(cfg, g):
    """Greedy spanning subset, preferring points whose inner-product profile
    (rows of the Gram matrix g) against the already-chosen basis is shared
    by as few other points as possible; the first such point on ties."""
    chosen = []
    echelon = []
    while True:
        profiles = [tuple(row[j] for j in chosen) for row in g]
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


def first_spanning_points(cfg):
    """The indices i where the rank of coords[:i+1] over the rationals grows,
    up to the first prefix whose rank is the rank of all of coords: past it
    the rank cannot grow."""
    full, chosen = rank(mat(cfg.coords)), []
    for i in range(cfg.size):
        if len(chosen) == full:
            break
        if rank(mat(cfg.coords[: i + 1])) > len(chosen):
            chosen.append(i)
    return chosen


def weyl_sign_orbit_count(cfg):
    """The number of orbits of the points of X under the group generated by
    -1 and the simple reflections, or None when one of them does not map X
    into X.  Each maps every point by exact lookup (reflect_fw_coords) to an
    index permutation of X, and the orbits are grown breadth-first."""
    index = {p: i for i, p in enumerate(cfg.coords)}
    perms = [[index.get(tuple(-c for c in p)) for p in cfg.coords]]
    perms += [[index.get(reflect_fw_coords(cfg.rs, p, i)) for p in cfg.coords] for i in range(cfg.rs.rank)]
    if any(None in p for p in perms):
        return None
    seen, count = set(), 0
    for start in range(cfg.size):
        if start not in seen:
            count += 1
            seen.add(start)
            orbit = [start]
            for x in orbit:
                for s in perms:
                    if s[x] not in seen:
                        seen.add(s[x])
                        orbit.append(s[x])
    return count


def close(group, gens):
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


def full_stabilizer(cfg):
    """Every permutation of X induced by an isometry of span X, sorted.

    Backtracks over all Gram-compatible images of a spanning subset and
    keeps each assignment whose inner-product profiles give a bijection of
    X; the permutations outside the closure of those taken so far are the
    generators, and their closure must be exactly the set found.
    """
    g = gram(cfg)
    basis = select_basis(cfg, g)
    n, r = cfg.size, len(basis)
    if r == 0:
        return [tuple(range(n))]
    perms = set()
    images = [0] * r
    basis_profiles = list(map(itemgetter(*basis), g))
    # with_value[a][v]: the points whose inner product with point a is v
    with_value = []
    for row in g:
        by_value = {}
        for c, v in enumerate(row):
            by_value.setdefault(v, []).append(c)
        with_value.append(by_value)

    def backtrack(depth):
        if depth == r:
            image_profile = itemgetter(*images)
            lookup = {image_profile(row): y for y, row in enumerate(g)}
            perm = tuple(map(lookup.get, basis_profiles))
            if None not in perm and len(set(perm)) == n:
                perms.add(perm)
            return
        want = g[basis[depth]]
        cands = range(n) if depth == 0 else with_value[images[0]].get(want[basis[0]], ())
        for cand in cands:
            if all(g[cand][images[j]] == want[basis[j]] for j in range(1, depth)):
                images[depth] = cand
                backtrack(depth + 1)

    backtrack(0)
    group = sorted(perms)
    closure = {tuple(range(n))}
    gens = []
    for perm in group:
        if perm not in closure:
            gens.append(perm)
            closure = close(closure, gens)
    assert closure == perms, "generators do not close to the permutations found"
    return group


def elements(group, n):
    """Every element of a PermGroup on n points, from its transversals.

    G_k is the union of the cosets G_(k+1) u_x, u_x running over a
    transversal of the orbit of base[k] under the generators fixing
    base[0..k-1]; the count must be the group's order.
    """
    base = group.base
    elems = [tuple(range(n))]
    for k in reversed(range(len(base))):
        gens = [s for s in group.gens if all(s[c] == c for c in base[:k])]
        transversal = {base[k]: tuple(range(n))}
        queue = [base[k]]
        for x in queue:
            for s in gens:
                if s[x] not in transversal:
                    transversal[s[x]] = tuple(map(s.__getitem__, transversal[x]))
                    queue.append(s[x])
        elems = [tuple(map(u.__getitem__, e)) for u in transversal.values() for e in elems]
    assert len(set(elems)) == len(elems) == group.order
    return elems


def _inverse(perm):
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return tuple(inv)


def reference_sift(group, n):
    """Deterministic Schreier-Sims test of a PermGroup on n points, raising
    InternalConsistencyError with the messages of
    `hidden._check_strong_generators`.

    Level k's transversal {u_x : base[k] -> x} is grown from the generators
    that fix base[0..k-1]; each u_x is kept as its images of the base points
    and its inverse permutation, both built when x is reached.  The
    transversal sizes must be the orbit lengths, and every Schreier
    generator u_x s u_(x^s)^-1 must sift through the transversals of levels
    k+1.. to the identity.
    """
    base, r = group.base, len(group.base)
    inverses = {s: _inverse(s) for s in group.gens}
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
                    continue
                h = tuple(map(y_inv.__getitem__, image))
                for m in range(k + 1, r):
                    if h[m] not in levels[m][1]:
                        break
                    h = tuple(map(levels[m][1][h[m]][1].__getitem__, h))
                if h != base:
                    raise InternalConsistencyError("a Schreier generator does not sift to the identity")
