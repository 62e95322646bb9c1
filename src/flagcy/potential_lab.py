"""Numeric cross-checks of the exact eigenvalue formulas, for type A only.

On a type-A flag the invariant potentials have a completely explicit chart:
the opposite big cell is the set of block-lower unipotent matrices with one
complex coordinate per off-parabolic positive root, and the squared norm of
the highest-weight vector of the k-th fundamental representation pulls back
to the sum of squared absolute values of the k x k minors of the first k
columns, computed by Cauchy-Binet from the singular values of the plane
those columns span.  Potentials are (1/2*pi) log of those norms, weighted
by the class coefficients, so their complex Hessians at the origin can be
compared by finite differences against the exact pairing-ratio eigenvalues.
A point lists its coordinates in the order of ``phi_complement``.  The
chart and the potentials take one point or a stack of shape (..., dim_c);
a Hessian evaluates the potential once, on the stack of all its distinct
stencil points, and is Hermitian by construction.

Other families raise UnsupportedType: their fundamental representations have
no minor realization here, and the exact engine already covers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, nan, pi
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidParameter,
    NotKahler,
    UnsupportedType,
)
from .flag_geometry import ParabolicFlag, class_from_coeffs, endomorphism_eigenvalues

_COND_LIMIT = 1e12


def _require_type_a(flag: ParabolicFlag) -> None:
    if flag.datum.lie_type.family != "A":
        raise UnsupportedType(
            f"big-cell potentials are implemented for type A only, got {flag.datum.lie_type}"
        )


def _finite_positive(name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"{name} must be finite and positive, got {value!r}") from exc
    if not (isfinite(number) and number > 0):
        raise InvalidParameter(f"{name} must be finite and positive, got {number}")
    return number


def unipotent_matrix(flag: ParabolicFlag, point: ArrayLike) -> np.ndarray:
    """Big-cell chart: identity plus one coordinate per off-parabolic root, per point."""
    _require_type_a(flag)
    try:
        points = np.asarray(point, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"chart points must be complex numbers, got {point!r}") from exc
    if points.ndim == 0 or points.shape[-1] != flag.dim_c:
        raise DimensionMismatch(
            f"points have shape {points.shape}, the cell has dimension {flag.dim_c}"
        )
    # root alpha_i + ... + alpha_{j-1} sits at matrix entry (row j, col i), 0-based
    cols = [beta.root_coords.index(1) for beta in flag.phi_complement]
    rows = [i + beta.height for i, beta in zip(cols, flag.phi_complement)]
    out = np.tile(np.eye(flag.rank + 1, dtype=complex), points.shape[:-1] + (1, 1))
    out[..., rows, cols] = points
    return out


def _minor_norm_sq(mat: np.ndarray, alpha: int) -> np.ndarray:
    """Squared norm of the alpha-th fundamental highest-weight vector at chart matrices.

    The sum of squared absolute values of the alpha x alpha minors of the
    first alpha columns ``[L; B]`` of ``mat``.  ``L`` is unit lower
    triangular, so the columns span the same plane as ``[I; C]`` with
    ``C = B L^-1``, and by Cauchy-Binet the sum is ``det(I + C^H C)``, the
    product of ``1 + s^2`` over the singular values ``s`` of ``C``.  No Gram
    matrix is formed, so the norm keeps its accuracy at large and nearly
    degenerate points; it is 1 at the origin and >= 1 everywhere.
    """
    top, coords = mat[..., :alpha, :alpha], mat[..., alpha:, :alpha].copy()
    # C L = B column by column, from the last: L has ones on its diagonal
    for j in range(alpha - 2, -1, -1):
        coords[..., j] -= (coords[..., j + 1 :] @ top[..., j + 1 :, j, None])[..., 0]
    if min(coords.shape[-2:]) == 1:  # one singular value: the Frobenius norm
        return 1.0 + (coords.real**2 + coords.imag**2).sum(axis=(-2, -1))
    return np.prod(1.0 + np.linalg.svd(coords, compute_uv=False) ** 2, axis=-1)


def kahler_potential(flag: ParabolicFlag, coefficients: Sequence, point: ArrayLike):
    """Invariant potential: coefficient-weighted (1/2*pi) log of the fundamental norms.

    Positive coefficients give Kahler potentials; arbitrary rational vectors
    are admitted so that differences of potentials can represent any class.
    Coefficients must be rationals, finite as floats.  A float for one point,
    an array for a stack of points.
    """
    _require_type_a(flag)
    exact = class_from_coeffs(flag, coefficients).coeffs
    try:
        values = [float(c) for c in exact]
    except OverflowError:
        values = [inf]
    if not all(map(isfinite, values)):
        raise InvalidParameter("potential coefficients must be finite as floats")
    mat = unipotent_matrix(flag, point)  # one chart stack for every Picard direction
    total = np.zeros(mat.shape[:-2])
    for alpha, c in zip(flag.complement, values):
        if c != 0.0:
            total = total + c / (2.0 * pi) * np.log(_minor_norm_sq(mat, alpha))
    return float(total) if total.ndim == 0 else total


def numeric_form_at_origin(
    flag: ParabolicFlag, coefficients: Sequence, step: float = 1e-4
) -> np.ndarray:
    """Complex Hessian of the potential at the origin by central differences.

    Wirtinger assembly: a quarter of the real Laplacian per coordinate on the
    diagonal, the standard four-point cross stencils above it.  The 4n
    diagonal and 8n(n-1) cross stencil points are stacked and the potential
    is evaluated on all of them in one call.  Each entry below the diagonal
    is the conjugate of the one above, so the result is Hermitian by
    construction.  ``step`` must be finite and positive.
    """
    _require_type_a(flag)
    h = _finite_positive("step", step)
    n = flag.dim_c
    steps = h * np.array([1, -1, 1j, -1j])
    # coordinate j displaced by each step; coordinates j < k by each pair of steps
    diag = np.zeros((n, 4, n), dtype=complex)
    diag[range(n), :, range(n)] = steps
    j, k = np.triu_indices(n, 1)
    points = np.concatenate([diag, (diag[j, :, None] + diag[k, None, :]).reshape(-1, 4, n)])
    phi = kahler_potential(flag, coefficients, points.reshape(-1, n))
    phi_diag, phi_cross = phi[: 4 * n].reshape(n, 4), phi[4 * n :].reshape(-1, 4, 4)

    # quarter Laplacian from the xx and yy differences; the potential vanishes at the origin
    d2 = (phi_diag[:, 0::2] + phi_diag[:, 1::2]) / (h * h)
    H = np.diag(0.25 * (d2[:, 0] + d2[:, 1])).astype(complex)
    # mixed second derivatives along real (0) or imaginary (1) directions of
    # j and k; steps 2a and 2a + 1 are opposite
    pp, pm = phi_cross[:, 0::2, 0::2], phi_cross[:, 0::2, 1::2]
    mp, mm = phi_cross[:, 1::2, 0::2], phi_cross[:, 1::2, 1::2]
    second = (pp - pm - mp + mm) / (4.0 * h * h)
    re = 0.25 * (second[:, 0, 0] + second[:, 1, 1])
    im = 0.25 * (second[:, 0, 1] - second[:, 1, 0])
    H[j, k] = re + 1j * im
    H[k, j] = H[j, k].conj()
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
    the tolerance must be finite and positive; a Hessian or a spectrum that
    leaves the float range is IllConditioned.
    """
    _require_type_a(flag)
    step = _finite_positive("step", step)
    tol = _finite_positive("tol", tol)
    omega = class_from_coeffs(flag, omega_coefficients)
    psi = class_from_coeffs(flag, psi_coefficients)
    if any(c <= 0 for c in omega.coeffs):
        raise NotKahler("metric coefficients must be strictly positive")
    exact = tuple(sorted(endomorphism_eigenvalues(flag, omega, psi)))

    # non-finite intermediates are reported as IllConditioned, not as warnings
    with np.errstate(all="ignore"):
        H_omega = numeric_form_at_origin(flag, omega_coefficients, step)
        H_psi = numeric_form_at_origin(flag, psi_coefficients, step)
        if not (np.isfinite(H_omega).all() and np.isfinite(H_psi).all()):
            raise IllConditioned(f"a Hessian at step {step} has a non-finite entry")
        try:
            if np.linalg.cond(H_omega) > _COND_LIMIT:
                raise IllConditioned("metric Hessian is numerically singular")
            numeric = sorted(np.linalg.eigvals(np.linalg.solve(H_omega, H_psi)).real.tolist())
            max_dev = float(np.max(np.abs(np.subtract(numeric, [float(ex) for ex in exact]))))
        except (np.linalg.LinAlgError, OverflowError):
            max_dev = nan
    if not isfinite(max_dev):
        raise IllConditioned("the numeric or the exact spectrum leaves the float range")
    return EigenvalueReport(
        exact=exact,
        numeric=tuple(numeric),
        max_deviation=max_dev,
        step=step,
        tol=tol,
        passed=max_dev < tol,
    )
