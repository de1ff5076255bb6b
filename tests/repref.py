"""Character references for the tests' oracles of `reps`: the full character
of a virtual representation, and the peel that decomposes a genuine
character by removing highest constituents one at a time.  Tensor products
are products of characters, and exterior powers are Newton's identities on
them; the peel is independent of the signed-reflection rule that `reps`
uses for both.
"""

from casimir_lab.errors import InternalConsistencyError
from casimir_lab.reps import VirtualDecomposition, rep, weight_multiplicities
from casimir_lab.weights import shifted_norm_int


def character_of_decomposition(rs, vd):
    """{fw-coords: multiplicity} of sum_mu m_mu V^mu, zero entries dropped."""
    out = {}
    for coords, mult in vd.terms:
        for w, m in weight_multiplicities(rep(rs, coords)).items():
            out[w] = out.get(w, 0) + mult * m
    return {w: m for w, m in out.items() if m != 0}


def decompose_character(rs, char):
    """Peel off highest constituents; valid for genuine (nonnegative) characters."""
    work = dict(char)
    found = {}
    while work:
        dominants = [w for w in work if all(x >= 0 for x in w)]
        if not dominants:
            raise InternalConsistencyError("character with no dominant support is not genuine")
        nu = max(dominants, key=lambda w: (shifted_norm_int(rs, w), w))
        mult = work[nu]
        if mult < 0:
            raise InternalConsistencyError("negative leading multiplicity in character")
        found[nu] = found.get(nu, 0) + mult
        for w, m in weight_multiplicities(rep(rs, nu)).items():
            nm = work.get(w, 0) - mult * m
            if nm:
                work[w] = nm
            else:
                work.pop(w, None)
    return VirtualDecomposition.from_dict(found)
