"""Reference whole-ball walk for the Casimir-class tests.

`weights.classes_up_to` walks only the closed chamber y = m + 1 >= 0, which
meets each Weyl orbit once, and counts |X| from the parabolic orders.
`ball_classes` is the walk it replaced: integer Fincke-Pohst over the
whole ball |m + 1|^2 <= a^2 on the root system's fraction-free levels
(`RootSystem.gram_fw_ldl`), every point bucketed by its exact shifted
norm, and root-lattice points kept by `weights.in_root_lattice` after the
walk.  `ball_points` also returns the number of coordinate values it
tried, which the package's node cap counts in its own walks.
"""

from fractions import Fraction as Q
from math import isqrt
from operator import mul

from casimir_lab.weights import LatticeChoice, in_root_lattice


def ball_points(rs, bound):
    """([(m, Q(m + 1))] for every weight m with Q(m + 1) <= bound, nodes
    tried), Q(y) = y^T G y for (den, G) = rs.gram_fw_int.  Level k (last
    coordinate first) is p Q_k = s^2 + prev Q_{k+1} with s = p y_k + (outer
    terms), so Q_k <= bound is s^2 <= prev (p bound - Q_{k+1})."""
    rows = rs.gram_fw_ldl
    prevs = (1,) + tuple(row[0] for row in rows)
    m, y = [0] * rs.rank, [0] * rs.rank
    out, nodes = [], 0

    def level(k, q_outer):
        nonlocal nodes
        row, prev = rows[k], prevs[k]
        p = row[0]
        lin = sum(map(mul, row[1:], y[k + 1 :])) + p
        t = isqrt(prev * (p * bound - q_outer))
        lo, hi = -((t + lin) // p), (t - lin) // p
        nodes += max(0, hi - lo + 1)
        for mk in range(lo, hi + 1):
            s = p * mk + lin
            qk = (s * s + prev * q_outer) // p
            m[k], y[k] = mk, mk + 1
            if k:
                level(k - 1, qk)
            else:
                out.append((tuple(m), qk))

    if bound >= 0:
        level(rs.rank - 1, 0)
    return out, nodes


def ball_classes(rs, lat, a_sq_cap):
    """({a^2: sorted members} of every class of the lattice lat with a
    dominant member and a^2 <= a_sq_cap, nodes tried)."""
    den = rs.gram_fw_int[0]
    cap = Q(a_sq_cap)
    points, nodes = ball_points(rs, cap.numerator * den // cap.denominator)
    buckets = {}
    for m, norm in points:
        if lat is LatticeChoice.WEIGHT or in_root_lattice(rs, m):
            buckets.setdefault(Q(norm, den), []).append(m)
    return {a_sq: sorted(ms) for a_sq, ms in buckets.items() if any(min(m) >= 0 for m in ms)}, nodes
