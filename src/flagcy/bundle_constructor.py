"""Hermitian metric data on principal torus bundles over a flag variety.

Two constructions are modeled, both at the level of pullback classes and
contraction scalars (connection one-forms on the total space are determined
by these data and add nothing checkable at this layer):

* a Ricci-flat datum for the canonical one-parameter family of Hermitian
  connections at parameter ``t < 1``: the base Kahler class is the Ricci
  class scaled by the unique positive factor making the Ricci form of the
  bundle metric vanish, the first curvature class is the fractional power
  ``k`` of the anticanonical root, and the remaining curvature classes are
  degree-zero line bundles;

* a balanced datum over an arbitrary invariant Kahler class whose curvature
  classes are all degree zero, making the bundle metric coclosed.

Verifiers return residuals exactly (the base class and every class of nonzero
contraction in the Ricci residual must carry 2*pi power 1); builders validate
every hypothesis and fail loudly, while diagnostic data can be assembled directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotPrimitive,
    NotProportional,
    OddCount,
    PicardRankOne,
    TrivialBundle,
    _fraction,
    _integer,
    _items,
)
from .flag_geometry import (
    InvariantClass,
    ParabolicFlag,
    _Reference,
    _check_class,
    _cleared,
    _contraction,
    _reference_weights,
    _trusted,
    fano_index,
)
from .picard_lattice import LineBundleClass


@dataclass(frozen=True)
class GauduchonDatum:
    """Torus-bundle data whose connection-parameter-t Ricci form vanishes.

    ``omega0`` is the base Kahler class (2*pi power 1), ``psi`` the 2r
    curvature classes: the anticanonical direction (``k / index`` times the
    anticanonical class) first, degree-zero classes after it.
    """

    flag: ParabolicFlag
    t: Fraction
    scale: Fraction
    omega0: InvariantClass
    psi: tuple[InvariantClass, ...]


@dataclass(frozen=True)
class BalancedDatum:
    """Torus-bundle data over an arbitrary Kahler base with degree-zero curvatures."""

    flag: ParabolicFlag
    omega0: InvariantClass
    psi: tuple[InvariantClass, ...]


def _exact_k_t(k, t) -> tuple[int, Fraction]:
    """``k`` and ``t`` as exact numbers, validated once per call; ``k`` must be nonzero."""
    k = _integer(k, InvalidParameter, "twist k")
    try:
        t = _fraction(t)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"connection parameter t must be a rational, got {t!r}") from exc
    if k == 0:
        raise InvalidParameter("twist k must be a nonzero integer")
    return k, t


def _scale(flag: ParabolicFlag, k: int, t: Fraction, index: int) -> Fraction:
    return Fraction((t.denominator - t.numerator) * k * k * flag.dim_c, 2 * t.denominator * index**2)


def _datum(datum, kinds=(GauduchonDatum, BalancedDatum)) -> tuple[ParabolicFlag, tuple]:
    """The flag and curvature classes of a datum of one of ``kinds``, else InvalidParameter."""
    if not isinstance(datum, kinds):
        raise InvalidParameter(f"expected a {' or '.join(k.__name__ for k in kinds)}, got {datum!r}")
    if not isinstance(datum.flag, ParabolicFlag):
        raise InvalidParameter(f"datum flag must be a ParabolicFlag, got {datum.flag!r}")
    return datum.flag, _items(datum.psi, InvalidParameter, "curvature classes")


def _curvature_classes(
    flag: ParabolicFlag,
    reference: _Reference,
    bundles: Sequence[LineBundleClass],
    nontrivial: bool,
) -> tuple[InvariantClass, ...]:
    """The bundles' curvature classes at 2*pi power 1, each checked primitive.

    Bundle ``j`` is checked (trivial if ``nontrivial``, then its length, then
    ``c . S = 0`` in ints for the reference's column sums ``S``) before bundle ``j+1``.
    """
    classes = []
    for j, bundle in enumerate(bundles, start=1):
        if not isinstance(bundle, LineBundleClass):
            raise InvalidParameter(f"bundle {j} must be a LineBundleClass, got {bundle!r}")
        c = _trusted(1, bundle.coeffs)
        if nontrivial and c.is_zero:
            raise TrivialBundle(j)
        _check_class(flag, c)
        if sum(map(mul, bundle.coeffs, reference.sums)) != 0:
            raise NotPrimitive(j)
        classes.append(c)
    return tuple(classes)


def ricci_flat_scale(flag: ParabolicFlag, k: int, t) -> Fraction:
    """The positive factor (1-t)/2 * k^2 * dim / index^2 scaling the base metric."""
    k, t = _exact_k_t(k, t)
    if t >= 1:
        raise InvalidParameter("connection parameter t must be < 1")
    return _scale(flag, k, t, fano_index(flag))


def build_t_gauduchon(
    flag: ParabolicFlag,
    k: int,
    t,
    bundles: Sequence[LineBundleClass],
    *,
    diagnostic: bool = False,
) -> GauduchonDatum:
    """Assemble and validate the Ricci-flat datum.

    ``bundles`` supplies the 2r-1 degree-zero summands; each must be
    nontrivial and primitive for the anticanonical class (equivalently for
    the scaled base class).  ``diagnostic`` admits t >= 1 so the residual
    computation itself can be exercised.
    """
    if flag.picard_rank < 2:
        raise PicardRankOne("the construction needs Picard rank at least 2")
    k, t = _exact_k_t(k, t)
    if t >= 1 and not diagnostic:
        raise InvalidParameter("connection parameter t must be < 1 (use diagnostic mode to bypass)")
    bundles = _items(bundles, InvalidParameter, "bundles")
    if len(bundles) % 2 != 1:
        raise InvalidParameter(
            f"need an odd number 2r-1 of degree-zero bundles, got {len(bundles)}"
        )

    index = fano_index(flag)
    # at t >= 1 (diagnostic only) the closed-form scale degenerates; any
    # positive base scale exposes the same nonzero residual
    scale = _scale(flag, k, t, index) if t < 1 else Fraction(1)

    ell = flag.anticanonical
    omega0 = _trusted(1, [scale * l for l in ell])
    curvatures = _curvature_classes(flag, _reference_weights(flag, omega0), bundles, nontrivial=True)
    psi = (_trusted(1, [k * l // index for l in ell]),) + curvatures
    return GauduchonDatum(flag, t, scale, omega0, psi)


def verify_ricci_flat(datum: GauduchonDatum) -> InvariantClass:
    """Residual of the Ricci-form equation: zero class exactly for built data.

    Computes the Ricci class plus (t-1)/2, with t an exact rational, times the
    contraction-weighted sum of the curvature classes; a nonzero result is the
    diagnosis.  A base class or class of nonzero contraction at a 2*pi power other
    than 1 raises DimensionMismatch; a class of zero contraction adds nothing.
    """
    flag, psi = _datum(datum, (GauduchonDatum,))
    _, t = _exact_k_t(1, datum.t)  # a datum has no twist; its t is checked as the builder's
    reference = _reference_weights(flag, datum.omega0)
    if datum.omega0.two_pi_power != 1:
        raise DimensionMismatch("the base class is not at 2*pi power 1")
    factor = (t - 1) / 2
    residual = flag.anticanonical
    for psi_j in psi:
        # _contraction checks psi_j's length before anything is added
        value = _contraction(flag, reference, psi_j)
        if value:
            if psi_j.two_pi_power != 1:
                raise DimensionMismatch("a class of nonzero contraction is not at 2*pi power 1")
            s = factor * value
            residual = [r + s * c for r, c in zip(residual, psi_j.coeffs)]
    return _trusted(1, residual)


def verify_c1_trivial(datum: GauduchonDatum) -> Fraction:
    """Exact ratio of the Ricci class to the first curvature class.

    The ratio exists (index / k) for every built datum and certifies that the
    Chern Ricci form pulls back to an exact form upstairs, so the total space
    has vanishing first Chern class.  With the first class cleared to ``x / d``
    and no zero in ``l``, that is ``x_0 != 0`` and ``l_i * x_0 == l_0 * x_i``.
    """
    flag, psi = _datum(datum)
    if not psi:
        raise NotProportional("no first curvature class")
    x, d = _cleared(flag, psi[0])
    ell = flag.anticanonical
    if not x[0] or any(l * x[0] != ell[0] * v for l, v in zip(ell, x)):
        raise NotProportional("Ricci class is not proportional to the first curvature")
    if psi[0].two_pi_power != 1:
        raise NotProportional("first curvature class is zero or carries the wrong 2*pi power")
    return Fraction(ell[0] * d, x[0])


def build_balanced(
    flag: ParabolicFlag,
    omega0: InvariantClass,
    bundles: Sequence[LineBundleClass],
) -> BalancedDatum:
    """Assemble and validate the balanced datum over an arbitrary Kahler class."""
    if flag.picard_rank < 2:
        raise PicardRankOne("the construction needs Picard rank at least 2")
    reference = _reference_weights(flag, omega0)
    bundles = _items(bundles, InvalidParameter, "bundles")
    if len(bundles) % 2 != 0 or not bundles:
        raise OddCount(
            f"need a positive even number 2r of degree-zero bundles, got {len(bundles)}"
        )
    return BalancedDatum(flag, omega0, _curvature_classes(flag, reference, bundles, nontrivial=False))


def verify_coclosed(datum: BalancedDatum) -> tuple[Fraction, ...]:
    """Contractions of the curvature classes; the zero vector certifies coclosedness."""
    flag, psi = _datum(datum)
    reference = _reference_weights(flag, datum.omega0)
    return tuple(_contraction(flag, reference, psi_j) for psi_j in psi)


def lee_form_coefficients(
    flag: ParabolicFlag,
    psi: Sequence[InvariantClass],
    omega0: InvariantClass,
) -> tuple[Fraction, ...]:
    """Coefficients of the Lee form over the torus directions.

    The curvature classes pair up under the fiber complex structure; slot
    2j-1 receives the contraction of the even partner and slot 2j minus the
    contraction of the odd one.
    """
    reference = _reference_weights(flag, omega0)
    psi = _items(psi, InvalidParameter, "curvature classes")
    if len(psi) % 2 != 0:
        raise OddCount(f"need an even number of curvature classes, got {len(psi)}")
    values = [_contraction(flag, reference, p) for p in psi]
    return tuple(v for odd, even in zip(values[::2], values[1::2]) for v in (even, -odd))
