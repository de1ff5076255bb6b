"""Self-tests of the reference computations on tiny inputs.

    python3 casbench/selfcheck.py

Exits 0 when every check holds.  Needs only numpy; the package under test
is not imported.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q

import numpy as np

import oracles as O


def check_weyl_groups():
    for name, order in O.WEYL_ORDER.items():
        assert len(O.ROOT_DATA(name).weyl_words()) == order, name


def check_positive_roots():
    counts = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "C3": 9}
    for name, n in counts.items():
        assert len(O.ROOT_DATA(name).positive_roots) == n, name


def check_weyl_dims():
    known = {
        ("A1", (4,)): 5,
        ("A2", (1, 0)): 3,
        ("A2", (1, 1)): 8,
        ("A2", (2, 0)): 6,
        ("B2", (1, 0)): 5,
        ("B2", (0, 1)): 4,
        ("B2", (0, 2)): 10,
        ("G2", (1, 0)): 7,
        ("G2", (0, 1)): 14,
        ("A3", (0, 1, 0)): 6,
        ("B3", (0, 0, 1)): 8,
        ("C3", (1, 0, 0)): 6,
    }
    for (name, mu), dim in known.items():
        assert O.ROOT_DATA(name).weyl_dim(mu) == dim, (name, mu)


def check_kostant():
    zero = {("A1", (2,)): 1, ("A1", (3,)): 0, ("A2", (1, 1)): 2, ("A2", (3, 0)): 1,
            ("B2", (0, 2)): 2, ("G2", (1, 0)): 1, ("G2", (0, 1)): 2}
    for (name, mu), m in zero.items():
        assert O.ROOT_DATA(name).zero_weight_mult(mu) == m, (name, mu)
    # the weights of V^(1,1) of A2 (the adjoint) add up to its dimension
    rd = O.ROOT_DATA("A2")
    total = sum(rd.weight_mult((1, 1), (a, b)) for a in range(-3, 4) for b in range(-3, 4))
    assert total == 8, total


def check_duals():
    assert O.ROOT_DATA("A2").dual((2, 1)) == (1, 2)
    assert O.ROOT_DATA("A3").dual((1, 0, 0)) == (0, 0, 1)
    assert O.ROOT_DATA("G2").dual((2, 3)) == (2, 3)


def check_box_scan():
    # A2, a^2 <= 40: the diagonal-mode report total is the sum of dim mu
    table = O.class_table("A2", 40)
    assert sum(O.ROOT_DATA("A2").weyl_dim(mu) for c in table for mu in c.dominant) == 714
    hexagon = O.sphere("A2", 8)
    assert (hexagon.points, hexagon.dominant, hexagon.chamber_points) == (6, [(1, 1)], 1)
    # rank 1: |m omega + delta|^2 = (m+1)^2 / 2
    assert [c.a_sq for c in O.class_table("A1", 8)] == [Q(0), Q(1, 2), Q(2), Q(9, 2), Q(8)]


def check_reports():
    rows = O.expected_report("A2", 40, "diagonal")
    assert sum(iso * dim for _, members in rows for _, _, dim, iso in members) == 714
    torus = O.expected_report("A1", 20, "torus")
    assert [mu for _, members in torus for mu, _, _, _ in members] == [(0,), (2,), (4,)]


def check_spin_operators():
    for m in range(6):
        jx, jy, jz = O.spin_matrices(m)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz)
        assert np.allclose(jx @ jx + jy @ jy + jz @ jz, m * (m + 2) / 4 * np.eye(m + 1))
    kappa = [[1, Q(1, 5), 0, 0], [Q(1, 5), 2, 0, 0], [0, 0, 3, Q(1, 3)], [0, 0, Q(1, 3), 5]]
    for rep in (((3,), (2,)), ((4,), (-1,))):
        trace = np.trace(O.operator(*rep, kappa)).real
        assert abs(trace - float(O.exact_trace(*rep, kappa))) < 1e-9
    # identity metric on SU(2): the Casimir scalar m(m+2)/4
    assert np.allclose(O.eigenvalues((3,), (), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 15 / 4)
    assert len(O.irreps(1, 2, 1)) == 2 * 9


CHECKS = [v for k, v in sorted(globals().items()) if k.startswith("check_")]


def main():
    failed = 0
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
