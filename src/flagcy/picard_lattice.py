"""Degree-zero Picard lattice of a flag variety.

Fixing an integral Kahler class, the degree of each Picard generator against
it is an integer: one exact scalar, ``(n-1)!`` times the volume times the
contraction scale, times the column sum of the flag's pairing table against
the class's contraction weights.  Dividing the column sums by their GCD gives
the primitive pairing vector ``q``, and the scalar times that GCD is ``tau``,
the GCD of the degrees.  Picking a pivot generator produces the
classical two-term degree-zero bundles

    xi_alpha = O_gamma(-q_alpha) (x) O_alpha(q_gamma),  alpha != gamma,

which all have exact degree zero and span the degree-zero sublattice over the
rationals.  Over the integers they span exactly the classes ``c`` with
``q . c = 0`` and ``q_gamma | c_alpha`` for every ``alpha != gamma``: a
sublattice of index ``|q_gamma|^(rho-2)`` in the degree-zero lattice, where
``rho`` is the Picard rank.  So the xi are a Z-basis of the degree-zero
lattice exactly when ``rho = 2`` or ``|q_gamma| = 1``.
``integer_combination`` decides membership in their span by that closed
form: the coordinate on ``xi_alpha`` is ``c_alpha / q_gamma``, and the
coordinates are certified by recombining them to the target exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    PicardRankOne,
    _integer,
    _items,
)
from .flag_geometry import InvariantClass, ParabolicFlag, _check_class, _cleared, _cleared_reference


@dataclass(frozen=True)
class LineBundleClass:
    """Integer exponent vector of a tensor product of Picard generators.

    A non-integral exponent raises ``InvalidParameter`` instead of truncating.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        exponents = _items(self.coeffs, InvalidParameter, "bundle exponents")
        coeffs = tuple(_integer(c, InvalidParameter, "bundle exponent") for c in exponents)
        object.__setattr__(self, "coeffs", coeffs)

    def to_class(self) -> InvariantClass:
        return InvariantClass(0, self.coeffs)

    def scaled(self, m: int) -> "LineBundleClass":
        return LineBundleClass(tuple(m * c for c in self.coeffs))


@dataclass(frozen=True)
class PrimitiveBasis:
    """Pivot data and the two-term degree-zero generators for one flag.

    ``q`` is indexed by the flag's Picard directions and has GCD one; ``tau``
    is the GCD of the generators' degrees against the minimal integral
    multiple of the class, so ``tau * q[a]`` is the degree of generator ``a``.
    """

    pivot_gamma: int
    q: tuple[int, ...]
    tau: int
    basis: tuple[LineBundleClass, ...]


def primitive_basis(
    flag: ParabolicFlag, omega0: InvariantClass, gamma: int | None = None
) -> PrimitiveBasis:
    """Two-term degree-zero generators for a rational Kahler class.

    Rational classes are cleared to their minimal integral representative
    first; the resulting ``q`` vector and basis depend only on the ray of
    ``omega0``.  The pivot defaults to the smallest Picard direction.
    """
    if flag.picard_rank < 2:
        raise PicardRankOne("degree-zero lattice is trivial for Picard rank one")
    _check_class(flag, omega0)
    vol, _, scale, sums = _cleared_reference(flag, _cleared(omega0)[0], 1)
    if gamma is None:
        gamma = flag.complement[0]
    gamma = _integer(gamma, IndexOutOfRange, "pivot index")
    if gamma not in flag.complement:
        raise IndexOutOfRange(f"pivot alpha_{gamma} is not a Picard direction of this flag")

    # the degree of generator a is (n-1)! * vol * scale * sums[a]: one exact
    # scalar times an integer column sum of the table against the weights
    g = gcd(*sums)
    q = tuple(v // g for v in sums)
    tau = factorial(flag.dim_c - 1) * vol * scale * g
    if tau.denominator != 1:
        raise AssertionError(f"degree gcd of the Picard generators is {tau}, not an integer")

    idx = {a: i for i, a in enumerate(flag.complement)}
    q_gamma = q[idx[gamma]]
    basis = []
    for a in flag.complement:
        if a == gamma:
            continue
        coeffs = [0] * flag.picard_rank
        coeffs[idx[gamma]] = -q[idx[a]]
        coeffs[idx[a]] = q_gamma
        basis.append(LineBundleClass(tuple(coeffs)))
    return PrimitiveBasis(gamma, q, tau.numerator, tuple(basis))


def integer_combination(
    basis: PrimitiveBasis, target: LineBundleClass | Sequence[int]
) -> tuple[int, ...] | None:
    """Integer coordinates of ``target`` over the basis, or None if there are none.

    Every ``q`` entry is positive for a Kahler class, so each generator's own
    slot is its single positive entry, holding ``q_gamma``: the coordinate on
    ``xi_alpha`` is ``c_alpha / q_gamma``, and there is none unless
    ``q_gamma`` divides ``c_alpha``.  The coordinates are returned only when
    they recombine to the target exactly, which also enforces ``q . c = 0``.
    The result is exact membership in the integer span of the two-term
    generators, which is a proper sublattice of the degree-zero lattice when
    ``|q_gamma| > 1`` and the Picard rank is at least three.  A sequence
    target goes through ``LineBundleClass`` and its integrality check.
    """
    coeffs = (target if isinstance(target, LineBundleClass) else LineBundleClass(target)).coeffs
    if len(coeffs) != len(basis.q):
        raise DimensionMismatch("target has the wrong number of coefficients")
    x = []
    for xi in basis.basis:
        own, q_gamma = next((i, v) for i, v in enumerate(xi.coeffs) if v > 0)
        if coeffs[own] % q_gamma:
            return None
        x.append(coeffs[own] // q_gamma)
    combination = tuple(
        sum(m * xi.coeffs[i] for m, xi in zip(x, basis.basis)) for i in range(len(coeffs))
    )
    return tuple(x) if combination == coeffs else None
