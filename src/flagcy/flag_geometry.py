"""Invariant (1,1)-cohomology calculus on generalized flag varieties.

A flag variety is encoded by a root datum together with a parabolic subset
``I`` of simple-root indices (1-based).  The simple roots outside ``I`` index
the Picard generators; every invariant real (1,1)-class is an exact rational
vector over that basis, with an explicit integer power of 2*pi carried
separately so that no transcendental factor is ever multiplied out.

All invariants are linear in the class through the integer pairings
``P[beta][a] = <varpi_a, beta_coroot>`` of the Picard generators with the
positive roots ``beta`` not supported on ``I``.  ``make_flag`` computes that
table once per flag, with the Weyl row ``<rho, beta_coroot>`` (the coroot
heights) and the anticanonical coefficients.  ``_cleared`` is the one place
a class is checked and cleared, and the integer vector is what is paired.

A Kahler reference ``omega`` is reduced to its volume, integer contraction
weights ``W[b] = lcm(p) / p[b]`` of its pairings ``p`` with one rational scale,
and column sums ``S[i] = sum_b P[b][i] * W[b]``.  ``W`` and ``S`` depend only on
the ray of ``omega``, and the volume and scale on its multiplier along the ray,
so the table is paired once per primitive integer ray, in a bounded cache keyed
by the integer table and the ray.  A class ``x / d`` (integer ``x``) contracts to
``scale * (x . S) / d``, so a bundle ``c`` is primitive iff ``c . S = 0``;
``(n-1)! * vol * scale * S`` is the degree vector.

Each class memoizes, in its own ``__dict__``, its integer form ``(x, d)`` and its last
reference with the flag, reused only for that same flag object (``is``; nothing is hashed).
Every call still checks the class's type and length, and a class that is not Kahler
stores nothing, so it raises on every call.  Classes built from the library's own values
skip the outside-input intake through ``_trusted``; ``InvariantClass(...)`` keeps it.
Likewise ``make_flag`` builds the flags of the library's own root data unchecked, while
``ParabolicFlag(...)`` and ``dataclasses.replace`` check every field, and ``make_flag``
checks the fields it reads of any other datum first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress
from math import factorial, gcd, lcm, prod
from operator import attrgetter, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NotKahler,
    _fraction,
    _integer,
    _items,
)
from .root_system import LieType, PositiveRoot, RootDatum, _root_datum

_ZERO = Fraction(0)  # what _contraction returns for every degree-zero class


@dataclass(frozen=True)
class ParabolicFlag:
    """A flag variety: root datum plus parabolic subset of simple roots.

    ``complement`` lists the simple-root indices outside the parabolic set in
    ascending order; invariant classes are coefficient vectors over it.
    ``phi_complement`` holds the positive roots with support meeting the
    complement, in the root datum's deterministic order.  Its length is the
    complex dimension.

    ``pairing_table[b][i]`` is the integer ``<varpi_a, beta_coroot>`` for the
    b-th root of ``phi_complement`` and the i-th Picard direction ``a``;
    ``weyl_row[b]`` is ``<rho, beta_coroot>``, the height of the coroot; and
    ``anticanonical`` holds the (positive) coefficients of the anticanonical
    class over the Picard generators.

    A flag built here, or by ``dataclasses.replace``, must hold a ``RootDatum``, a
    tuple of positive roots, and int tuples of matching lengths: positive indices,
    Weyl row and anticanonical coefficients, and nonnegative table rows with a
    positive entry each; anything else is InvalidParameter.  Only ``make_flag`` skips
    that check, for a flag of the library's own cached datum, whose fields it has just
    computed from roots that ``root_system`` built.  The numeric lab keeps its per-step
    Hessians in the flag's ``__dict__``; pickle and copy carry the fields alone.
    """

    datum: RootDatum
    parabolic_set: frozenset[int]
    complement: tuple[int, ...]
    phi_complement: tuple[PositiveRoot, ...]
    pairing_table: tuple[tuple[int, ...], ...]
    weyl_row: tuple[int, ...]
    anticanonical: tuple[int, ...]

    def __post_init__(self):
        phi, complement, table = self.phi_complement, self.complement, self.pairing_table
        rho = len(complement) if type(complement) is tuple else -1
        if not (isinstance(self.datum, RootDatum) and _ints(complement, rho, 1)
                and type(phi) is tuple and all(isinstance(b, PositiveRoot) for b in phi)
                and _ints(self.weyl_row, len(phi), 1) and _ints(self.anticanonical, rho, 1)
                and type(table) is tuple and len(table) == len(phi)
                and {*map(type, table)} <= {tuple} and {*map(len, table)} <= {rho}
                and _ints(tuple(chain.from_iterable(table)), len(phi) * rho, 0)
                and all(map(any, table))):
            raise InvalidParameter(
                "a flag needs a RootDatum, a tuple of positive roots and int tuples of matching lengths")

    def __getstate__(self):
        # pickle and copy carry the fields alone, never the lab's memo
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def dim_c(self) -> int:
        return len(self.phi_complement)

    @property
    def picard_rank(self) -> int:
        return len(self.complement)


def _ints(row, size: int, low: int | None = None) -> bool:
    """Whether ``row`` is a tuple of ``size`` ints, each at least ``low`` if one is given."""
    return (type(row) is tuple and len(row) == size and {*map(type, row)} <= {int}
            and (low is None or min(row, default=low) >= low))


def make_flag(datum: RootDatum, parabolic: Iterable[int] = ()) -> ParabolicFlag:
    """Build the flag for a parabolic subset of 1-based simple-root indices.

    Each index may appear once; the pairing table, Weyl row and
    anticanonical coefficients are computed here, once per flag.  On the datum
    ``build_root_datum`` caches for its Lie type, every field comes from roots with
    nonnegative int coordinates, each coroot with its root's support, so the flag
    passes ``ParabolicFlag``'s intake check and is built without it.  Any other datum, such as a
    hand-built one, a ``dataclasses.replace`` of one, or one left over after the
    cache was cleared, has its fields checked before they are read (``_check_datum``),
    and its flag goes through that intake check.
    """
    if not isinstance(datum, RootDatum):
        raise InvalidParameter(f"expected a RootDatum, got {datum!r}")
    own = type(datum.lie_type) is LieType and datum is _root_datum(datum.lie_type)
    if not own:
        _check_datum(datum)
    parabolic = _items(parabolic, IndexOutOfRange, "parabolic set")
    indices = [_integer(i, IndexOutOfRange, "simple-root index") for i in parabolic]
    pset = frozenset(indices)
    for i in indices:
        if not 1 <= i <= datum.rank:
            raise IndexOutOfRange(f"simple-root index {i} outside 1..{datum.rank}")
    if len(pset) != len(indices):
        raise IndexOutOfRange(f"parabolic set {indices} repeats a simple-root index")
    complement = tuple(i for i in range(1, datum.rank + 1) if i not in pset)
    if not complement:
        raise IndexOutOfRange("parabolic set must be a proper subset of the simple roots")
    cols = [a - 1 for a in complement]
    # the Picard columns of a coordinate tuple, as a 1-tuple at Picard rank 1 too
    pick = itemgetter(*cols) if len(cols) > 1 else itemgetter(slice(cols[0], cols[0] + 1))
    roots = datum.positive_roots
    phi = tuple(compress(roots, map(any, map(pick, map(attrgetter("root_coords"), roots)))))
    coroots = tuple(map(attrgetter("coroot_coords"), phi))
    # the anticanonical weight is the sum of the roots in phi, paired with
    # the simple coroots of the Picard directions (columns of the Cartan matrix)
    root_sum = list(map(sum, zip(*map(attrgetter("root_coords"), phi))))
    anticanonical = tuple(sum(map(mul, root_sum, col)) for col in pick(tuple(zip(*datum.cartan))))
    table, weyl_row = tuple(map(pick, coroots)), tuple(map(sum, coroots))
    if not own:  # a nonpositive anticanonical coefficient is InvalidParameter here
        return ParabolicFlag(datum, pset, complement, phi, table, weyl_row, anticanonical)
    for a, c in zip(complement, anticanonical):
        if c <= 0:
            raise AssertionError(f"anticanonical coefficient at alpha_{a} is {c}")
    # the library's own datum: every field was computed above from its checked roots
    flag = object.__new__(ParabolicFlag)
    object.__setattr__(flag, "datum", datum)
    object.__setattr__(flag, "parabolic_set", pset)
    object.__setattr__(flag, "complement", complement)
    object.__setattr__(flag, "phi_complement", phi)
    object.__setattr__(flag, "pairing_table", table)
    object.__setattr__(flag, "weyl_row", weyl_row)
    object.__setattr__(flag, "anticanonical", anticanonical)
    return flag


def _check_datum(datum: RootDatum) -> None:
    """InvalidParameter unless ``datum`` has a positive int rank, a tuple of that many int rows
    of that length for its Cartan matrix, and a tuple of positive roots whose root and coroot
    coordinates are int tuples of that length: what ``make_flag`` reads before its flag's check."""
    n = getattr(datum.lie_type, "rank", None)
    cartan, roots = datum.cartan, datum.positive_roots
    if not (type(n) is int and n > 0 and type(cartan) is tuple and len(cartan) == n
            and all(_ints(row, n) for row in cartan) and type(roots) is tuple
            and all(isinstance(b, PositiveRoot) and _ints(b.root_coords, n) and _ints(b.coroot_coords, n)
                    for b in roots)):
        raise InvalidParameter(
            "a root datum needs a positive int rank, an int Cartan matrix of that size and a tuple "
            "of positive roots with int coordinates of that length")


@dataclass(frozen=True)
class InvariantClass:
    """(2*pi)^two_pi_power times a rational vector over the Picard basis.

    The zero vector is normalized to power 0, so structural equality of the
    dataclass is exactly equality of classes.  Coefficients that are no sequence (a
    ``str`` among them) or no rationals (a decimal exponent that ``errors._fraction``
    refuses among them) and a non-integral power raise InvalidParameter.
    """

    two_pi_power: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            coeffs = tuple(c if type(c) is Fraction else _fraction(c)
                           for c in _items(self.coeffs, InvalidParameter, "coefficients"))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"coefficients must be rationals, got {self.coeffs!r}") from exc
        power = self.two_pi_power
        if type(power) is not int:
            power = _integer(power, InvalidParameter, "power of 2*pi")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "two_pi_power", power if any(coeffs) else 0)

    def __getstate__(self):
        # pickle and copy carry the fields alone, never the memos below
        return {"two_pi_power": self.two_pi_power, "coeffs": self.coeffs}

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integer ``x`` over the common denominator ``d``, formed on first use."""
        dens = [v.denominator for v in self.coeffs]
        x, d = tuple(v.numerator for v in self.coeffs), lcm(*dens)
        return (x if d == 1 else tuple(v * (d // e) for v, e in zip(x, dens))), d

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "InvariantClass") -> "InvariantClass":
        if not isinstance(other, InvariantClass):
            raise InvalidParameter(f"expected an InvariantClass, got {other!r}")
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionMismatch("classes live on different flags")
        if not self.is_zero and not other.is_zero and self.two_pi_power != other.two_pi_power:
            raise DimensionMismatch("classes carry different powers of 2*pi")
        power = other.two_pi_power if self.is_zero else self.two_pi_power
        return _trusted(power, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, s) -> "InvariantClass":
        try:
            s = _fraction(s)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"scale factor must be a rational, got {s!r}") from exc
        return _trusted(self.two_pi_power, tuple(s * c for c in self.coeffs))

    def times_two_pi(self) -> "InvariantClass":
        return _trusted(self.two_pi_power + 1, self.coeffs)


def _trusted(power: int, coeffs: Iterable) -> InvariantClass:
    """``InvariantClass(power, coeffs)`` without the intake: for values the library made."""
    c = object.__new__(InvariantClass)
    # Fraction(v, 1) takes rationals only, so no text or Decimal is ever parsed unbounded here
    coeffs = tuple(v if type(v) is Fraction else Fraction(v, 1) for v in coeffs)
    object.__setattr__(c, "coeffs", coeffs)
    object.__setattr__(c, "two_pi_power", power if any(coeffs) else 0)
    return c


def class_from_coeffs(flag: ParabolicFlag, coeffs: Sequence) -> InvariantClass:
    coeffs = _items(coeffs, InvalidParameter, "coefficients")
    if len(coeffs) != flag.picard_rank:
        raise DimensionMismatch(
            f"expected {flag.picard_rank} coefficients, got {len(coeffs)}"
        )
    return InvariantClass(0, coeffs)


def _check_class(flag: ParabolicFlag, c: InvariantClass) -> None:
    if not isinstance(c, InvariantClass):
        raise InvalidParameter(f"expected an InvariantClass, got {c!r}")
    if len(c.coeffs) != flag.picard_rank:
        raise DimensionMismatch(
            f"class has {len(c.coeffs)} coefficients, flag has Picard rank {flag.picard_rank}"
        )


def anticanonical_class(flag: ParabolicFlag) -> InvariantClass:
    """The integral anticanonical Kahler class (2*pi power 0)."""
    return _trusted(0, flag.anticanonical)


def ricci_class(flag: ParabolicFlag) -> InvariantClass:
    """The Ricci form of any invariant Kahler metric: 2*pi times the anticanonical class."""
    return _trusted(1, flag.anticanonical)


def fano_index(flag: ParabolicFlag) -> int:
    """GCD of the anticanonical coefficients."""
    return gcd(*flag.anticanonical)


def is_kahler(flag: ParabolicFlag, c: InvariantClass) -> bool:
    """True exactly when every coefficient is strictly positive."""
    _check_class(flag, c)
    # a Fraction's denominator is positive, so its sign is its numerator's
    return all(v.numerator > 0 for v in c.coeffs)


def _cleared(flag: ParabolicFlag, c: InvariantClass) -> tuple[tuple[int, ...], int]:
    """Check ``c`` against the flag on every call; return its memoized integer ``x`` over ``d``."""
    _check_class(flag, c)
    return c._integer_form


# a Kahler reference: see _reference_weights
class _Reference(NamedTuple):
    vol: Fraction
    weights: tuple[int, ...]
    scale: Fraction
    sums: tuple[int, ...]


@lru_cache(maxsize=1024)
def _ray(table: tuple[tuple[int, ...], ...], ray: tuple[int, ...]) -> tuple:
    """Pair a primitive integer ray with the table: ``(lcm(p), W, S, prod(p))``.

    Keyed by ints alone, so a lookup hashes in C; tuples, so no caller can
    change a shared entry.
    """
    p = [sum(map(mul, row, ray)) for row in table]
    common = lcm(*p)
    weights = tuple(common // w for w in p)
    sums = tuple(sum(map(mul, column, weights)) for column in zip(*table))
    return common, weights, sums, prod(p)


def _reference_weights(flag: ParabolicFlag, omega: InvariantClass) -> _Reference:
    """Check a Kahler reference and read its pairing from its memo or its ray's cache.

    Returns the volume's rational part, the integer contraction weights
    ``W[b] = lcm(p) / p[b]`` of the pairings ``p`` of ``omega``'s cleared
    class with their scale, and the column sums ``S[i] = sum_b P[b][i] * W[b]``:
    a class ``x / d`` contracts to ``scale * (x . S) / d``, and
    ``(n-1)! * vol * scale * S`` is the degree vector.  With ``omega = m * r / d``
    for the primitive integer ray ``r``, the pairings are ``m`` times those of
    ``r``, so only ``vol`` and ``scale`` depend on ``m`` and ``d``.

    ``omega`` keeps ``(flag, reference)`` in its ``__dict__`` and reuses it only for
    the same flag object, so a build, its verifier and the Lee form pair ``omega``
    once.  Its type and length are checked on every call; a class that is not Kahler
    raises before anything is stored, so it raises on every call.
    """
    x, d = _cleared(flag, omega)
    memo = omega.__dict__.get("_reference")
    if memo is None or memo[0] is not flag:
        memo = omega.__dict__["_reference"] = flag, _cleared_reference(flag, x, d)
    return memo[1]


def _cleared_reference(flag: ParabolicFlag, x: tuple[int, ...], d: int) -> _Reference:
    """``_reference_weights`` of the checked class ``x / d``, given its integer numerators."""
    if min(x) <= 0:
        raise NotKahler("reference class must have strictly positive coefficients")
    m = gcd(*x)
    ray = x if m == 1 else tuple(v // m for v in x)
    common, weights, sums, prod_p = _ray(flag.pairing_table, ray)
    n = flag.dim_c
    vol = Fraction(m**n * prod_p, d**n * prod(flag.weyl_row))
    return _Reference(vol, weights, Fraction(d, m * common), sums)


def _contraction(flag: ParabolicFlag, reference: _Reference, psi: InvariantClass) -> Fraction:
    """Rational part of the contraction of ``psi``: ``scale * (x . S) / d``, no table pass."""
    x, d = _cleared(flag, psi)
    total = sum(map(mul, x, reference.sums))
    if not total:
        return _ZERO
    return Fraction(total * reference.scale.numerator, d * reference.scale.denominator)


def lefschetz_contraction(
    flag: ParabolicFlag, omega0: InvariantClass, psi: InvariantClass
) -> tuple[Fraction, int]:
    """Trace of the endomorphism comparing ``psi`` with the Kahler class.

    Returns the exact rational together with the 2*pi power
    ``psi.two_pi_power - omega0.two_pi_power``.  Linear in ``psi``, and equal
    to the complex dimension when ``psi == omega0``.
    """
    reference = _reference_weights(flag, omega0)
    return _contraction(flag, reference, psi), psi.two_pi_power - omega0.two_pi_power


def endomorphism_eigenvalues(
    flag: ParabolicFlag, omega0: InvariantClass, psi: InvariantClass
) -> tuple[Fraction, ...]:
    """Pairing ratios indexed by the positive roots off the parabolic set.

    ``omega0`` must be Kahler; ``psi`` is cleared to ``x / d`` once and each table
    row is paired with ``x`` in integers, as a ray is.  The entries sum to the Lefschetz
    contraction; their common 2*pi power is ``psi.two_pi_power - omega0.two_pi_power``.
    """
    _, weights, scale, _ = _reference_weights(flag, omega0)
    x, d = _cleared(flag, psi)
    num, den = scale.numerator, scale.denominator * d
    pairs = zip(flag.pairing_table, weights)
    return tuple(Fraction(num * sum(map(mul, row, x)) * w, den) for row, w in pairs)


def volume(flag: ParabolicFlag, omega: InvariantClass) -> tuple[Fraction, int]:
    """Exact volume of the flag with respect to a Kahler class.

    The rational part is the product over the relevant positive roots of the
    class pairing divided by the Weyl-vector pairing; the 2*pi power is
    ``omega.two_pi_power * dim_c``.
    """
    return _reference_weights(flag, omega)[0], omega.two_pi_power * flag.dim_c


def degree(
    flag: ParabolicFlag, bundle_class: InvariantClass, omega: InvariantClass
) -> tuple[Fraction, int]:
    """Degree of a bundle class against a Kahler class: (n-1)! * contraction * volume."""
    reference = _reference_weights(flag, omega)
    value = factorial(flag.dim_c - 1) * reference.vol * _contraction(flag, reference, bundle_class)
    return value, bundle_class.two_pi_power + (flag.dim_c - 1) * omega.two_pi_power
