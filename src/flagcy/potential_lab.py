"""Numeric cross-checks of the exact eigenvalue formulas, for type A only.

On a type-A flag the invariant potentials have a completely explicit chart:
the opposite big cell is the set of block-lower unipotent matrices with one
complex coordinate per off-parabolic positive root, and the squared norm of
the highest-weight vector of the k-th fundamental representation pulls back
to the sum of squared absolute values of the k x k minors of the first k
columns.  By Cauchy-Binet that is a sum over the minors of the plane those
columns span: in closed form for a plane of one or two columns (after a
wide one is transposed), from its singular values otherwise.  Potentials
are (1/2*pi) log of those norms, weighted by the class coefficients, so
their complex Hessians at the origin can be compared by finite differences
against the exact pairing-ratio eigenvalues.  Chart points must be finite,
and a potential or a Hessian that leaves the float range is IllConditioned,
with no numpy warning on the way.  A point lists its coordinates in the
order of ``phi_complement``.  The chart and the potentials take one point or
a stack of shape (..., dim_c).  A potential is linear in its class, so the
Hessian at the origin of a class is ``sum_a c_a D_a`` over the Hessians
``D_a`` of the (1/2*pi) log norm of each Picard direction.  Those come from
one stack of distinct stencil points, one chart stack on it and one norm per
direction; they depend on the flag and the step alone, so the flag object
keeps them, read-only, for its last step (``flag.__dict__['_lab']``; no
module-level cache, which a benchmark's cold pass would not clear).  Every
Hessian is Hermitian by construction.  So a check evaluates at most one
stencil for both of its classes, and none on a flag and step already seen.

Other families raise UnsupportedType: their fundamental representations have
no minor realization here, and the exact engine already covers them.  So does
a Hessian stencil of more than ``_STENCIL_CAP`` chart entries.
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
    UnsupportedType,
)
from .flag_geometry import (
    InvariantClass,
    ParabolicFlag,
    class_from_coeffs,
    endomorphism_eigenvalues,
)

_COND_LIMIT = 1e12
# most chart entries (4n + 8n(n-1)) * (rank+1)^2 of a Hessian stencil; A12 full has 8,172,840
_STENCIL_CAP = 2**23


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
    if not np.isfinite(points).all():
        raise InvalidParameter("chart points must be finite complex numbers")
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
    ``C = B L^-1``, and by Cauchy-Binet the sum is ``det(I + C^H C)``: the
    sum of the squared absolute values of the square minors of ``C`` of
    every size, 1 for the empty one.  ``det(I + C C^H)`` is the same sum, so
    a wide ``C`` is transposed to a tall one.  With one column that is
    ``1 + |C|_F^2``, with two columns ``1 + |C|_F^2`` plus the squared 2 x 2
    minors, and with more it is the product of ``1 + s^2`` over the singular
    values ``s`` of ``C``.  Every term is >= 0 and no Gram matrix is formed; a 2 x 2
    minor of a large, nearly rank-one plane still cancels (relative error up to
    9.2e-6 at entries near 1e12).  The norm is 1 at the origin and >= 1 everywhere.
    """
    top, coords = mat[..., :alpha, :alpha], mat[..., alpha:, :alpha].copy()
    # C L = B column by column, from the last: L has ones on its diagonal
    for j in range(alpha - 2, -1, -1):
        coords[..., j] -= (coords[..., j + 1 :] @ top[..., j + 1 :, j, None])[..., 0]
    if coords.shape[-1] > coords.shape[-2]:
        coords = coords.swapaxes(-2, -1)
    if coords.shape[-1] > 2:
        return np.prod(1.0 + np.linalg.svd(coords, compute_uv=False) ** 2, axis=-1)
    norm = 1.0 + (coords.real**2 + coords.imag**2).sum(axis=(-2, -1))
    if coords.shape[-1] == 2:
        i, k = np.triu_indices(coords.shape[-2], 1)
        left, right = coords[..., 0], coords[..., 1]
        minors = left[..., i] * right[..., k] - left[..., k] * right[..., i]
        norm += (minors.real**2 + minors.imag**2).sum(axis=-1)
    return norm


def _float_coeffs(c: InvariantClass) -> list[float]:
    """The coefficients of a class as floats; InvalidParameter unless all are finite."""
    try:
        values = [float(v) for v in c.coeffs]
    except OverflowError:
        values = [inf]
    if not all(map(isfinite, values)):
        raise InvalidParameter("potential coefficients must be finite as floats")
    return values


def _potentials(flag: ParabolicFlag, rows: Sequence, point: ArrayLike) -> np.ndarray:
    """Potentials of float coefficient rows on one chart stack, shape ``(len(rows), ...)``.

    Each row sums its nonzero terms in Picard order; the log of each
    fundamental norm is taken once, for every row that uses it.
    """
    mat = unipotent_matrix(flag, point)
    logs = {}
    out = np.zeros((len(rows),) + mat.shape[:-2])
    for i, values in enumerate(rows):
        for alpha, c in zip(flag.complement, values):
            if c != 0.0:
                if alpha not in logs:
                    logs[alpha] = np.log(_minor_norm_sq(mat, alpha))
                out[i] += c / (2.0 * pi) * logs[alpha]
    return out


def kahler_potential(flag: ParabolicFlag, coefficients: Sequence, point: ArrayLike):
    """Invariant potential: coefficient-weighted (1/2*pi) log of the fundamental norms.

    Positive coefficients give Kahler potentials; arbitrary rational vectors
    are admitted so that differences of potentials can represent any class.
    Coefficients must be rationals, finite as floats, and chart points
    finite; a potential that leaves the float range is IllConditioned.  A
    float for one point, an array for a stack of points.
    """
    _require_type_a(flag)
    values = _float_coeffs(class_from_coeffs(flag, coefficients))
    with np.errstate(all="ignore"):
        total = _potentials(flag, [values], point)[0]
    if not np.isfinite(total).all():
        raise IllConditioned("the potential leaves the float range at a chart point")
    return float(total) if total.ndim == 0 else total


def _direction_hessians(flag: ParabolicFlag, h: float) -> np.ndarray:
    """Hessians at the origin of ``(1/2*pi) log N_a``, one per Picard direction: ``(rho, n, n)``.

    For phase steps ``s, t`` in ``{1, -1, i, -i}`` and ``phi(0) = 0``, each entry is one
    weighted sum of stencil values: ``H[j, j] = sum_s phi(h s e_j) / (4 h^2)`` and
    ``H[j, k] = sum_{s,t} conj(s) t phi(h s e_j + h t e_k) / (16 h^2)`` for ``j < k``.
    The 4n diagonal and 8n(n-1) cross stencil points are stacked, and the rho unit rows
    are evaluated on them in one ``_potentials`` call: one chart stack and one norm per
    direction.  Each entry below the diagonal is the conjugate of the one above.  The
    result depends on the flag and the step alone, so it is kept read-only in the flag's
    ``__dict__`` for the last step, and a further check on that flag object at that step
    evaluates no stencil.
    """
    memo = flag.__dict__.get("_lab")
    if memo is not None and memo[0] == h:
        return memo[1]
    rho, n = flag.picard_rank, flag.dim_c
    units = np.array([1, -1, 1j, -1j])  # the phase steps s
    # coordinate j displaced by each step; coordinates j < k by each pair of steps
    diag = np.zeros((n, 4, n), dtype=complex)
    diag[range(n), :, range(n)] = h * units
    j, k = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # pairs j < k, row by row
    points = np.concatenate([diag, (diag[j, :, None] + diag[k, None, :]).reshape(-1, 4, n)])
    phi = _potentials(flag, np.eye(rho).tolist(), points.reshape(-1, n))
    phi_diag, phi_cross = phi[:, : 4 * n].reshape(rho, n, 4), phi[:, 4 * n :].reshape(rho, -1, 4, 4)
    D = np.zeros((rho, n, n), dtype=complex)
    D[:, range(n), range(n)] = phi_diag.sum(axis=-1) / (4.0 * h * h)
    D[:, j, k] = np.einsum("st,mpst->mp", np.outer(units.conj(), units), phi_cross) / (16.0 * h * h)
    D[:, k, j] = D[:, j, k].conj()
    D.flags.writeable = False
    flag.__dict__["_lab"] = h, D
    return D


@np.errstate(all="ignore")
def _hessians_at_origin(flag: ParabolicFlag, classes: Sequence, h: float) -> np.ndarray:
    """Complex Hessians at the origin of the classes' potentials, shape ``(len(classes), n, n)``.

    A potential is linear in its class, so each Hessian is ``sum_a c_a D_a`` over the
    per-direction Hessians ``D_a`` of ``_direction_hessians``, in Picard order.  Each
    ``D_a`` is Hermitian by construction and each ``c_a`` is a real float, so a finite
    sum is exactly Hermitian too.  A zero coefficient adds nothing, so a direction a
    class does not use cannot spoil it.  Every class of one flag and step shares one
    stencil, which that flag object keeps.
    ``h`` is a validated step; a Hessian with a non-finite entry is IllConditioned,
    with no warning on the way.  A stencil of more than ``_STENCIL_CAP`` chart entries
    is UnsupportedType, raised before the stencil or its memo is looked at.
    """
    rows = [_float_coeffs(c) for c in classes]
    n = flag.dim_c
    entries = (4 * n + 8 * n * (n - 1)) * (flag.rank + 1) ** 2
    if entries > _STENCIL_CAP:
        raise UnsupportedType(
            f"the Hessian stencil of {flag.datum.lie_type} at dim_c {n} needs {entries} "
            f"chart entries, more than the lab's cap of {_STENCIL_CAP}"
        )
    D = _direction_hessians(flag, h)
    H = np.zeros((len(rows), n, n), dtype=complex)
    for i, values in enumerate(rows):
        for a, c in enumerate(values):
            if c != 0.0:
                H[i] += c * D[a]
    if not np.isfinite(H).all():
        raise IllConditioned(f"a Hessian at step {h} has a non-finite entry")
    return H


def numeric_form_at_origin(
    flag: ParabolicFlag, coefficients: Sequence, step: float = 1e-4
) -> np.ndarray:
    """Complex Hessian of the potential at the origin by central differences.

    The weighted sum of the flag's per-direction Hessians at this step, which
    are computed on the first call for that flag object and step and reused
    after; the result is the caller's own array, Hermitian by construction.
    ``step`` must be finite and positive; a Hessian with a non-finite entry
    is IllConditioned.
    """
    _require_type_a(flag)
    h = _finite_positive("step", step)
    return _hessians_at_origin(flag, [class_from_coeffs(flag, coefficients)], h)[0]


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

    Builds both Hessians at the origin from the flag's one stencil at this step,
    solves the generalized eigenproblem of the psi Hessian against the metric
    Hessian, and reports the maximal absolute deviation from the exact
    pairing-ratio spectrum.
    The step and the tolerance must be finite and positive, and the metric class
    Kahler: the exact spectrum comes first and raises NotKahler before any numerics.
    A stencil above the lab's cap is UnsupportedType; a Hessian or a spectrum
    that leaves the float range is IllConditioned, and so is a metric Hessian
    whose largest |eigenvalue| exceeds ``_COND_LIMIT`` times its smallest.
    """
    _require_type_a(flag)
    step = _finite_positive("step", step)
    tol = _finite_positive("tol", tol)
    omega = class_from_coeffs(flag, omega_coefficients)
    psi = class_from_coeffs(flag, psi_coefficients)
    exact = tuple(sorted(endomorphism_eigenvalues(flag, omega, psi)))

    H_omega, H_psi = _hessians_at_origin(flag, [omega, psi], step)
    # a spectrum that leaves the float range is IllConditioned, not a warning
    with np.errstate(all="ignore"):
        try:
            # H_omega is Hermitian, so its singular values are the |w| of its spectrum, and its
            # condition number is max |w| / min |w|; written so that a nan refuses too
            w = np.abs(np.linalg.eigvalsh(H_omega))
            if not w.max() <= _COND_LIMIT * w.min():
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
