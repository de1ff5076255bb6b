"""References for the tests' oracles of `reps`: the Weyl dimension on the
invariant form, the full character of a sum of irreducibles, and the peel
that decomposes a genuine character by removing highest constituents one
at a time.  Tensor products are products of characters, and exterior
powers are Newton's identities on them; the peel is independent of the
signed-reflection rule that `reps` uses for both.
"""

from fractions import Fraction as Q

from casimir_lab.errors import InternalConsistencyError
from casimir_lab.reps import rep, weight_multiplicities
from casimir_lab.weights import shifted_norm_int


def weyl_dim_by_form(rs, highest):
    """prod (mu + delta, alpha) / (delta, alpha) over the positive roots, on
    the integer form den * gram_fw, as a Fraction."""
    mu_d = tuple(m + 1 for m in highest)
    delta = (1,) * rs.rank
    num = den = 1
    for a in rs.positive_roots_fw:
        num *= rs.form_fw_int(mu_d, a)
        den *= rs.form_fw_int(delta, a)
    return Q(num, den)


def character_of_decomposition(rs, decomposition):
    """{fw-coords: multiplicity} of sum_mu m_mu V^mu, zero entries dropped."""
    out = {}
    for coords, mult in decomposition.items():
        for w, m in weight_multiplicities(rep(rs, coords)).items():
            out[w] = out.get(w, 0) + mult * m
    return {w: m for w, m in out.items() if m != 0}


def decompose_character(rs, char):
    """Peel off highest constituents as {highest weight: multiplicity}, no
    zero entries; valid for genuine (nonnegative) characters."""
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
    return {c: m for c, m in found.items() if m}
