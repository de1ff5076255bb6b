"""The full character of a virtual representation, for the tests' convolution
oracles of `reps.tensor_decompose`: tensor products are products of
characters, and `reps.decompose_character` peels them back into irreducibles.
"""

from casimir_lab.reps import rep, weight_multiplicities


def character_of_decomposition(rs, vd):
    """{fw-coords: multiplicity} of sum_mu m_mu V^mu, zero entries dropped."""
    out = {}
    for coords, mult in vd.terms:
        for w, m in weight_multiplicities(rep(rs, coords)).items():
            out[w] = out.get(w, 0) + mult * m
    return {w: m for w, m in out.items() if m != 0}
