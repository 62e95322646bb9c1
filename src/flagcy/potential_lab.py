"""Numeric cross-checks of the exact eigenvalue formulas, for type A only.

On a type-A flag the invariant potentials have a completely explicit chart:
the opposite big cell is the set of block-lower unipotent matrices with one
complex coordinate per off-parabolic positive root, and the squared norm of
the highest-weight vector of the k-th fundamental representation pulls back
to the sum of squared absolute values of the k x k minors of the first k
columns.  Potentials are (1/2*pi) log of those norms, weighted by the class
coefficients, so their complex Hessians at the origin can be compared by
finite differences against the exact pairing-ratio eigenvalues.

Other families raise UnsupportedType: their fundamental representations have
no minor realization here, and the exact engine already covers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, pi
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    IndexOutOfRange,
    InvalidParameter,
    NotKahler,
    UnsupportedType,
)
from .flag_geometry import ParabolicFlag, class_from_coeffs, endomorphism_eigenvalues

#: coordinates of a big-cell point, one complex number per off-parabolic
#: positive root, in the root datum's deterministic order
BigCellPoint = Sequence[complex]

_COND_LIMIT = 1e12


def _require_type_a(flag: ParabolicFlag) -> None:
    if flag.datum.lie_type.family != "A":
        raise UnsupportedType(
            f"big-cell potentials are implemented for type A only, got {flag.datum.lie_type}"
        )


def _finite_positive(name: str, value) -> float:
    value = float(value)
    if not (isfinite(value) and value > 0):
        raise InvalidParameter(f"{name} must be finite and positive, got {value}")
    return value


def _matrix_positions(flag: ParabolicFlag) -> list[tuple[int, int]]:
    # root alpha_i + ... + alpha_{j-1} sits at matrix entry (row j, col i), 0-based
    positions = []
    for beta in flag.phi_complement:
        support = [i for i, m in enumerate(beta.root_coords) if m]
        positions.append((support[-1] + 1, support[0]))
    return positions


def unipotent_matrix(flag: ParabolicFlag, point: BigCellPoint) -> np.ndarray:
    """Big-cell chart: identity plus one coordinate per off-parabolic root."""
    _require_type_a(flag)
    if len(point) != flag.dim_c:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, the cell has dimension {flag.dim_c}"
        )
    m = flag.rank + 1
    out = np.eye(m, dtype=complex)
    for (row, col), z in zip(_matrix_positions(flag), point):
        out[row, col] = complex(z)
    return out


def norm_sq_fundamental(flag: ParabolicFlag, point: BigCellPoint, alpha: int) -> float:
    """Squared norm of the alpha-th fundamental highest-weight vector at a cell point.

    Equals the sum of squared absolute values of the alpha x alpha minors of
    the first alpha columns of the chart matrix; it is 1 at the origin and
    >= 1 everywhere.
    """
    _require_type_a(flag)
    if alpha not in flag.complement:
        raise IndexOutOfRange(f"alpha_{alpha} is not a Picard direction of this flag")
    mat = unipotent_matrix(flag, point)
    cols = mat[:, :alpha]
    total = 0.0
    for rows in combinations(range(mat.shape[0]), alpha):
        minor = np.linalg.det(cols[list(rows), :])
        total += abs(minor) ** 2
    return float(total)


def kahler_potential(flag: ParabolicFlag, coefficients: Sequence, point: BigCellPoint) -> float:
    """Invariant potential: coefficient-weighted (1/2*pi) log of the fundamental norms.

    Positive coefficients give Kahler potentials; arbitrary rational vectors
    are admitted so that differences of potentials can represent any class.
    """
    _require_type_a(flag)
    if len(coefficients) != flag.picard_rank:
        raise DimensionMismatch(
            f"expected {flag.picard_rank} coefficients, got {len(coefficients)}"
        )
    total = 0.0
    for alpha, c in zip(flag.complement, coefficients):
        c = float(c)
        if c != 0.0:
            total += c / (2.0 * pi) * np.log(norm_sq_fundamental(flag, point, alpha))
    return total


def numeric_form_at_origin(
    flag: ParabolicFlag,
    coefficients: Sequence,
    step: float = 1e-4,
    symmetrize: bool = True,
) -> np.ndarray:
    """Complex Hessian of the potential at the origin by central differences.

    Wirtinger assembly: a quarter of the real Laplacian per coordinate on the
    diagonal, the standard four-point cross stencils off the diagonal.  Every
    entry is computed independently; ``symmetrize`` averages with the
    conjugate transpose afterwards.  ``step`` must be finite and positive.
    """
    _require_type_a(flag)
    h = _finite_positive("step", step)
    n = flag.dim_c

    def phi(displacements: dict[int, complex]) -> float:
        point = [0j] * n
        for idx, dz in displacements.items():
            point[idx] = dz
        return kahler_potential(flag, coefficients, point)

    def second(j: int, dj: complex, k: int, dk: complex) -> float:
        # mixed second derivative along two real directions, 4-point cross
        pp = phi({j: dj, k: dk})
        pm = phi({j: dj, k: -dk})
        mp = phi({j: -dj, k: dk})
        mm = phi({j: -dj, k: -dk})
        return (pp - pm - mp + mm) / (4.0 * h * h)

    H = np.zeros((n, n), dtype=complex)
    for j in range(n):
        # quarter Laplacian; the potential vanishes at the origin
        dxx = (phi({j: h}) + phi({j: -h})) / (h * h)
        dyy = (phi({j: 1j * h}) + phi({j: -1j * h})) / (h * h)
        H[j, j] = 0.25 * (dxx + dyy)
        for k in range(n):
            if k == j:
                continue
            re = 0.25 * (second(j, h, k, h) + second(j, 1j * h, k, 1j * h))
            im = 0.25 * (second(j, h, k, 1j * h) - second(j, 1j * h, k, h))
            H[j, k] = re + 1j * im
    if symmetrize:
        H = 0.5 * (H + H.conj().T)
    return H


@dataclass(frozen=True)
class EigenvalueReport:
    """Sorted exact and numeric spectra of the metric-comparison endomorphism."""

    exact: tuple[Fraction, ...]
    numeric: tuple[float, ...]
    max_deviation: float
    step: float
    tol: float
    passed: bool


def check_eigenvalue_formula(
    flag: ParabolicFlag,
    omega_coefficients: Sequence,
    psi_coefficients: Sequence,
    step: float = 1e-4,
    tol: float = 1e-5,
) -> EigenvalueReport:
    """Compare finite-difference generalized eigenvalues against the exact ratios.

    Builds both Hessians at the origin, solves the generalized eigenproblem of
    the psi Hessian against the metric Hessian, and reports the maximal
    absolute deviation from the exact pairing-ratio spectrum.  The step and
    the tolerance must be finite and positive.
    """
    _require_type_a(flag)
    step = _finite_positive("step", step)
    tol = _finite_positive("tol", tol)
    omega = class_from_coeffs(flag, [Fraction(c) for c in omega_coefficients])
    psi = class_from_coeffs(flag, [Fraction(c) for c in psi_coefficients])
    if any(c <= 0 for c in omega.coeffs):
        raise NotKahler("metric coefficients must be strictly positive")
    exact = tuple(sorted(endomorphism_eigenvalues(flag, omega, psi)))

    H_omega = numeric_form_at_origin(flag, omega_coefficients, step)
    H_psi = numeric_form_at_origin(flag, psi_coefficients, step)
    if np.linalg.cond(H_omega) > _COND_LIMIT:
        raise IllConditioned("metric Hessian is numerically singular")
    values = np.linalg.eigvals(np.linalg.solve(H_omega, H_psi))
    numeric = tuple(sorted(float(v) for v in values.real))

    max_dev = max(
        (abs(num - float(ex)) for num, ex in zip(numeric, exact)),
        default=0.0,
    )
    return EigenvalueReport(
        exact=exact,
        numeric=numeric,
        max_deviation=max_dev,
        step=step,
        tol=tol,
        passed=max_dev < tol,
    )
