"""Exception types shared across the package, and the input checks that raise them.

``_fraction`` is the one ``Fraction`` constructor for outside values: it refuses a decimal
exponent above 4300 in size (CPython's default integer digit limit), written in a ``str`` or
stored in a ``Decimal``, before ``10**exp`` is built.
"""

from decimal import Decimal
from fractions import Fraction


class FlagcyError(Exception):
    """Base class for every error raised by this library."""


class InvalidRank(FlagcyError):
    """Rank outside the admissible range for the requested family."""


class DimensionMismatch(FlagcyError):
    """Vectors from incompatible spaces were combined."""


class IndexOutOfRange(FlagcyError):
    """A simple-root index is not valid for the given flag."""


class NotKahler(FlagcyError):
    """A class required to be Kahler has a nonpositive coefficient."""


class PicardRankOne(FlagcyError):
    """The degree-zero Picard lattice is trivial for Picard rank one."""


class NotPrimitive(FlagcyError):
    """A line bundle has nonzero degree where a primitive one is required."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"bundle {index} is not primitive (nonzero degree)")


class TrivialBundle(FlagcyError):
    """A nontrivial line bundle was required."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"bundle {index} is trivial")


class InvalidParameter(FlagcyError):
    """A construction parameter is outside its admissible range."""


class OddCount(FlagcyError):
    """A torus fiber needs an even number of curvature classes."""


class NotProportional(FlagcyError):
    """Two classes expected to be proportional are not."""


class UnsupportedType(FlagcyError):
    """The numeric lab handles type A only, and Hessian stencils only up to its size cap."""


class IllConditioned(FlagcyError):
    """A numeric linear system is too close to singular, or leaves the float range."""


def _integer(value, error: type[FlagcyError], what: str) -> int:
    """``value`` as an exact int; ``error`` instead of truncating ``1.5``, nan or ``"2"``."""
    try:
        n = int(value)
        if n == value:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be an integer, got {value!r}")


def _fraction(value) -> Fraction:
    """``Fraction(value)``, refusing a ``str`` (``_`` separators too) or ``Decimal`` exponent above 4300."""
    if isinstance(value, str):
        exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if exponent.isdigit() and int(exponent) > 4300:
            raise ValueError("decimal exponent above 4300 in size")
    elif isinstance(value, Decimal) and value.is_finite() and abs(value.as_tuple().exponent) > 4300:
        raise ValueError("decimal exponent above 4300 in size")
    return Fraction(value)


def _items(value, error: type[FlagcyError], what: str) -> tuple:
    """``value`` as a tuple; ``error`` instead of a raw TypeError for ``None``, ``5`` or ``"12"``."""
    try:
        if isinstance(value, (str, bytes, bytearray, memoryview)):
            raise TypeError("text is not a sequence")
        return tuple(value)
    except TypeError as exc:
        raise error(f"{what} must be a sequence, got {value!r}") from exc
