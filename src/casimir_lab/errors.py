"""Exception types shared across the library, and the digit count of an int too long to write."""


def decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, found without writing n out:
    2^(b-1) <= |n| < 2^b estimates it, and powers of ten correct the
    estimate."""
    n = abs(n)
    digits = int((n.bit_length() - 1) * 0.3010299956639812) + 1
    while n >= 10**digits:
        digits += 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


class CasimirLabError(Exception):
    """Base class for all library errors."""


class InvalidDynkinType(CasimirLabError, ValueError):
    """Family/rank combination is not a valid Dynkin type."""


class DimensionMismatch(CasimirLabError, ValueError):
    """Vectors or matrices with incompatible shapes."""


class NotInLattice(CasimirLabError, ValueError):
    """Coordinates do not lie in the selected lattice."""


class NonDominantWeight(CasimirLabError, ValueError):
    """A dominant weight was required."""


class CapExceeded(CasimirLabError, RuntimeError):
    """A configured size cap would be exceeded; the computation is refused.

    Carries enough structure for a machine-readable refusal: what was
    measured, the measured value and the configured limit.  A measured int
    past the interpreter's int-to-str digit limit is kept as the text
    "<n> digits", so that the refusal can still be written.
    """

    def __init__(self, what: str, actual, limit):
        try:
            str(actual)
        except ValueError:
            actual = f"{decimal_digits(actual)} digits"
        self.what = what
        self.actual = actual
        self.limit = limit
        super().__init__(f"{what} = {actual} exceeds cap {limit}")


class NotPositiveDefinite(CasimirLabError, ValueError):
    """A positive-definite matrix was required."""


class InternalConsistencyError(CasimirLabError, RuntimeError):
    """An internal exact identity failed; results would be meaningless."""
