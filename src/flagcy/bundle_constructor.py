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

Verification functions return the residuals exactly; builders validate
every hypothesis and fail loudly, while data for diagnostics can be
assembled directly from the dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InvalidParameter,
    NotPrimitive,
    NotProportional,
    OddCount,
    PicardRankOne,
    TrivialBundle,
    _integer,
    _items,
)
from .flag_geometry import (
    InvariantClass,
    ParabolicFlag,
    _Reference,
    _contraction,
    _reference_weights,
    anticanonical_class,
    fano_index,
    ricci_class,
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
        t = Fraction(t)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"connection parameter t must be a rational, got {t!r}") from exc
    if k == 0:
        raise InvalidParameter("twist k must be a nonzero integer")
    return k, t


def _scale(flag: ParabolicFlag, k: int, t: Fraction, index: int) -> Fraction:
    return (1 - t) / 2 * Fraction(k * k * flag.dim_c, index * index)


def _curvature_classes(
    flag: ParabolicFlag,
    reference: _Reference,
    bundles: Sequence[LineBundleClass],
    nontrivial: bool,
) -> tuple[InvariantClass, ...]:
    """The bundles' curvature classes at 2*pi power 1, each checked primitive.

    Bundle ``j`` is checked (trivial if ``nontrivial``, then primitive) before bundle ``j+1``.
    """
    classes = []
    for j, bundle in enumerate(bundles, start=1):
        if not isinstance(bundle, LineBundleClass):
            raise InvalidParameter(f"bundle {j} must be a LineBundleClass, got {bundle!r}")
        c = bundle.to_class()
        if nontrivial and c.is_zero:
            raise TrivialBundle(j)
        if _contraction(flag, reference, c) != 0:
            raise NotPrimitive(j)
        classes.append(c.times_two_pi())
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

    reference = _reference_weights(flag, anticanonical_class(flag))
    curvatures = _curvature_classes(flag, reference, bundles, nontrivial=True)
    index = fano_index(flag)
    # at t >= 1 (diagnostic only) the closed-form scale degenerates; any
    # positive base scale exposes the same nonzero residual
    scale = _scale(flag, k, t, index) if t < 1 else Fraction(1)

    ell = flag.anticanonical
    omega0 = InvariantClass(1, tuple(scale * l for l in ell))
    psi_first = InvariantClass(1, tuple(Fraction(k * l, index) for l in ell))
    if any(c.denominator != 1 for c in psi_first.coeffs):
        raise AssertionError("anticanonical coefficients are not divisible by the index")
    psi = (psi_first,) + curvatures
    return GauduchonDatum(flag, t, scale, omega0, psi)


def verify_ricci_flat(datum: GauduchonDatum) -> InvariantClass:
    """Residual of the Ricci-form equation: zero class exactly for built data.

    Computes the Ricci class plus (t-1)/2 times the contraction-weighted sum
    of the curvature classes; a nonzero result is reported verbatim as the
    diagnosis.
    """
    residual = ricci_class(datum.flag)
    factor = (datum.t - 1) / 2
    reference = _reference_weights(datum.flag, datum.omega0)
    for psi_j in datum.psi:
        value = _contraction(datum.flag, reference, psi_j)
        # adding psi_j scaled by 0 (the zero class, power 0) changes nothing,
        # and _contraction has already checked psi_j's length
        if value:
            residual = residual + psi_j.scaled(factor * value)
    return residual


def verify_c1_trivial(datum: GauduchonDatum) -> Fraction:
    """Exact ratio of the Ricci class to the first curvature class.

    The ratio exists (index / k) for every built datum and certifies that the
    Chern Ricci form pulls back to an exact form upstairs, so the total space
    has vanishing first Chern class.
    """
    rho = ricci_class(datum.flag)
    first = datum.psi[0]
    pairs = tuple(zip(rho.coeffs, first.coeffs))
    ratio = next((r_c / f_c for r_c, f_c in pairs if f_c), None)
    # with no nonzero first coefficient, proportionality needs a zero Ricci class
    if any(r_c != (ratio or 0) * f_c for r_c, f_c in pairs):
        raise NotProportional("Ricci class is not proportional to the first curvature")
    if ratio is None or rho.two_pi_power != first.two_pi_power:
        raise NotProportional("first curvature class is zero or carries the wrong 2*pi power")
    return ratio


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
    reference = _reference_weights(datum.flag, datum.omega0)
    return tuple(_contraction(datum.flag, reference, psi_j) for psi_j in datum.psi)


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
    out: list[Fraction] = []
    for j in range(0, len(psi), 2):
        out.append(values[j + 1])
        out.append(-values[j])
    return tuple(out)
