import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from math import log, pi

import numpy as np
import pytest

import flagcy.cli as cli
import flagcy.potential_lab as potential_lab
from flagcy import (
    DimensionMismatch,
    IllConditioned,
    InvalidParameter,
    NotKahler,
    UnsupportedType,
    check_eigenvalue_formula,
    class_from_coeffs,
    kahler_potential,
    lefschetz_contraction,
    numeric_form_at_origin,
    unipotent_matrix,
)
from conftest import flag_of

F = Fraction


def norm_sq(flag, point, alpha):
    return potential_lab._minor_norm_sq(unipotent_matrix(flag, point), alpha)


def test_norm_sq_closed_forms_at_random_points():
    # rank-2 full flag: first-column norm and wedge-square norm have closed
    # forms in the cell coordinates; compare against the minor expansion
    flag = flag_of("A", 2)
    rng = random.Random(7)
    for _ in range(100):
        z1, z3, z2 = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        point = [z1, z3, z2]  # coordinate order: alpha_1, alpha_2, alpha_1+alpha_2
        expected_1 = 1 + abs(z1) ** 2 + abs(z2) ** 2
        expected_2 = 1 + abs(z3) ** 2 + abs(z1 * z3 - z2) ** 2
        assert abs(norm_sq(flag, point, 1) - expected_1) <= 1e-12 * expected_1
        assert abs(norm_sq(flag, point, 2) - expected_2) <= 1e-12 * expected_2


def minor_sum(mats, alpha):
    """Oracle: squared alpha x alpha minors of the first alpha columns, over every row choice."""
    rows = combinations(range(mats.shape[-1]), alpha)
    return sum(np.abs(np.linalg.det(mats[:, list(r), :alpha])) ** 2 for r in rows)


def exact_minor_sum(mat, alpha):
    """Oracle: the minor sum of one chart matrix's float entries, in exact rationals.

    ``|det M|^2`` is the determinant of the real form ``[[Re M, -Im M], [Im M, Re M]]``.
    """
    total = Fraction(0)
    for rows in combinations(range(mat.shape[-1]), alpha):
        block = mat[list(rows), :alpha]
        real = np.block([[block.real, -block.imag], [block.imag, block.real]])
        m = [[Fraction(float(v)) for v in row] for row in real]
        det = Fraction(1)
        for c in range(len(m)):
            pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != c:
                m[c], m[pivot], det = m[pivot], m[c], -det
            det *= m[c][c]
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        total += det
    return float(total)


X, Y = 30000 + 10000j, 20000 - 5000j

#: points where the terms of a Gram determinant reach up to 1e24 times the norm
LARGE_AND_DEGENERATE = {
    # A2 coordinates (x, y, z) sit at (1,0), (2,1), (2,0); the minor xy - z cancels
    2: [
        [1e4, 1e4, 1e8],
        [1e4, 1e4, 1e8 + 1],
        [1e6, 1e6, 1e12],
        [1, 1e8, 2e8],  # plane coordinates (1e8, 1e8), of rank one
        [X, Y, X * Y + 1],
    ],
    3: [[1e5] * 6, [1, 2e4, 3, 4e4, 5, 6e4]],  # every 2x2 minor of a constant block vanishes
    # A4 and A5: the 2 x 3 and 2 x 4 planes of rows 3, 4 (rows 4, 5) are nearly
    # parallel rows of 1e8, and the two-column planes are of rank one or, at
    # the points in X and Y, nearly so after L^-1 removes a large multiple
    4: [
        [1e4 + 7j * k for k in range(10)],
        [0, 0, 3e8, 0, 0, 2e8, 3e8 + 1, 1e8, 2e8, 1e8],
        [X, Y, 0, 0, (X + 1) * Y + 1, 2 * Y, 0, 2 * (X + 1) * Y, 3 * Y, 3 * (X + 1) * Y],
    ],
    5: [
        [1e5] * 15,
        [0, 0, 0, 4e8, 0, 0, 0, 3e8, 4e8 + 1, 0, 2e8, 3e8, 1e8, 2e8, 1e8],
        [X, Y, 0, 0, 0, (X + 1) * Y + 1, 2 * Y, 0, 0, 2 * (X + 1) * Y, 3 * Y, 0]
        + [3 * (X + 1) * Y, 4 * Y, 4 * (X + 1) * Y],
    ],
}


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_norm_sq_is_the_minor_sum(rank):
    # Cauchy-Binet, for every fundamental direction, at seeded Gaussian
    # points against float determinants, and at large and nearly degenerate
    # ones against exact ones: there float determinants are off by up to 2.5e-8
    flag = flag_of("A", rank)
    rng = np.random.default_rng(rank)
    points = rng.normal(size=(30, flag.dim_c)) + 1j * rng.normal(size=(30, flag.dim_c))
    extra = np.array(LARGE_AND_DEGENERATE.get(rank, []), dtype=complex).reshape(-1, flag.dim_c)
    mats, hard = unipotent_matrix(flag, points), unipotent_matrix(flag, extra)
    for alpha in range(1, rank + 1):
        got = potential_lab._minor_norm_sq(mats, alpha)
        np.testing.assert_allclose(got, minor_sum(mats, alpha), rtol=1e-10)
        got = potential_lab._minor_norm_sq(hard, alpha)
        np.testing.assert_allclose(got, [exact_minor_sum(m, alpha) for m in hard], rtol=1e-10)


def test_norm_sq_takes_the_svd_only_beyond_two_columns(monkeypatch):
    # a plane with one or two columns, after a wide one is transposed, has a
    # closed form; only a 3 x 3 or larger plane (A5 alpha_3, A6 alpha_3 and
    # alpha_4) reaches the SVD
    class SVDCalled(Exception):
        pass

    def no_svd(*args, **kwargs):
        raise SVDCalled

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for rank in range(2, 7):
        flag = flag_of("A", rank)
        mats = unipotent_matrix(flag, _random_points(flag, (8,), seed=rank))
        for alpha in range(1, rank + 1):
            if min(alpha, rank + 1 - alpha) <= 2:
                got = potential_lab._minor_norm_sq(mats, alpha)
                np.testing.assert_allclose(got, minor_sum(mats, alpha), rtol=1e-10)
            else:
                with pytest.raises(SVDCalled):
                    potential_lab._minor_norm_sq(mats, alpha)


def test_norm_sq_is_one_at_origin():
    for flag, alpha in [(flag_of("A", 2), 1), (flag_of("A", 3), 2), (flag_of("A", 3, [2]), 3)]:
        assert norm_sq(flag, [0] * flag.dim_c, alpha) == 1.0


def test_unipotent_matrix_positions():
    flag = flag_of("A", 2)
    mat = unipotent_matrix(flag, [1j, 2.0, 3.0])
    # coordinates sit below the diagonal: alpha_1 -> (1,0), alpha_2 -> (2,1),
    # alpha_1+alpha_2 -> (2,0)
    assert mat[1, 0] == 1j
    assert mat[2, 1] == 2.0
    assert mat[2, 0] == 3.0
    assert np.allclose(np.triu(mat), np.eye(3))


def test_parabolic_cell_skips_parabolic_positions():
    flag = flag_of("A", 2, [2])
    mat = unipotent_matrix(flag, [5.0, 6.0])
    assert mat[1, 0] == 5.0 and mat[2, 0] == 6.0
    assert mat[2, 1] == 0.0


def test_non_type_a_rejected():
    flag = flag_of("B", 2)
    with pytest.raises(UnsupportedType):
        norm_sq(flag, [0] * flag.dim_c, 1)
    with pytest.raises(UnsupportedType):
        kahler_potential(flag, [1, 1], [0] * flag.dim_c)
    with pytest.raises(UnsupportedType):
        numeric_form_at_origin(flag, [1, 1])
    with pytest.raises(UnsupportedType):
        check_eigenvalue_formula(flag, [1, 1], [1, 0])


def test_potential_values():
    flag = flag_of("A", 2)
    assert kahler_potential(flag, [2, 2], [0, 0, 0]) == 0.0
    value = kahler_potential(flag, [2, 2], [1, 0, 0])
    assert abs(value - log(2) / pi) < 1e-14
    assert abs(kahler_potential(flag, [6, 6], [1, 0, 0]) - 3 * value) < 1e-14


def test_potential_input_validation():
    flag = flag_of("A", 2)
    with pytest.raises(DimensionMismatch):
        kahler_potential(flag, [1], [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        norm_sq(flag, [0, 0], 1)
    # a chart point that is not numeric at all
    with pytest.raises(InvalidParameter):
        unipotent_matrix(flag, "x")
    with pytest.raises(InvalidParameter):
        kahler_potential(flag, [1, 1], ["a", "b", "c"])


@pytest.mark.parametrize("rank, parabolic", [(2, []), (3, []), (5, [2, 4])])
def test_non_finite_chart_points_rejected(rank, parabolic):
    # None becomes nan + nan*j in a complex array
    flag = flag_of("A", rank, parabolic)
    coeffs = [1] * flag.picard_rank
    for bad in (float("nan"), float("inf"), -float("inf"), complex(0, float("nan")), None):
        stack = _random_points(flag, (3,), seed=rank)
        stack[1, -1] = np.nan if bad is None else bad
        for point in ([bad] * flag.dim_c, [0] * (flag.dim_c - 1) + [bad], stack):
            with pytest.raises(InvalidParameter, match="finite"):
                unipotent_matrix(flag, point)
            with pytest.raises(InvalidParameter, match="finite"):
                kahler_potential(flag, coeffs, point)


def test_numeric_form_projective_line():
    flag = flag_of("A", 1)
    H = numeric_form_at_origin(flag, [1])
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - 1 / (2 * pi)) < 1e-8


def test_numeric_form_full_flag_diagonal():
    flag = flag_of("A", 2)
    H = numeric_form_at_origin(flag, [2, 2])
    expected = np.diag([2, 2, 4]) / (2 * pi)
    assert np.max(np.abs(H - expected)) < 1e-8
    off = H - np.diag(np.diag(H))
    assert np.max(np.abs(off)) < 1e-10


def test_numeric_form_hermitian_before_symmetrization():
    # a class's Hessian is a real-weighted sum of Hermitian D_a, with no mirror of its own
    for flag, coeffs in [(flag_of("A", 2), [2, 2]), (flag_of("A", 3), [1, 2, 3]),
                         (flag_of("A", 3), ["1/3", "-7/11", "5"]),
                         (flag_of("A", 4), ["1e-300", "3.7", "-2.5e10", "1/7"]),
                         (flag_of("A", 4, (2,)), ["-1e200", "0", "1e-8"])]:
        H = numeric_form_at_origin(flag, coeffs)
        assert np.array_equal(H, H.conj().T)


def _reference_hessian(flag, coeffs, h):
    """Every entry on its own, from single-point potentials and 4-point stencils."""
    n = flag.dim_c

    def phi(displacements):
        point = [0j] * n
        for idx, dz in displacements.items():
            point[idx] = dz
        return kahler_potential(flag, coeffs, point)

    def second(j, dj, k, dk):
        pp, pm = phi({j: dj, k: dk}), phi({j: dj, k: -dk})
        mp, mm = phi({j: -dj, k: dk}), phi({j: -dj, k: -dk})
        return (pp - pm - mp + mm) / (4.0 * h * h)

    H = np.zeros((n, n), dtype=complex)
    for j in range(n):
        dxx = (phi({j: h}) + phi({j: -h})) / (h * h)
        dyy = (phi({j: 1j * h}) + phi({j: -1j * h})) / (h * h)
        H[j, j] = 0.25 * (dxx + dyy)
        for k in range(n):
            if k != j:  # both H[j, k] and H[k, j], each from its own stencils
                re = 0.25 * (second(j, h, k, h) + second(j, 1j * h, k, 1j * h))
                im = 0.25 * (second(j, h, k, 1j * h) - second(j, 1j * h, k, h))
                H[j, k] = re + 1j * im
    return H


@pytest.mark.parametrize(
    "rank, parabolic, coeffs",
    [(1, [], [3]), (2, [], [2, -1]), (3, [], [1, 2, 3]), (3, [2], [3, -2]), (4, [2, 3], [1, 5])],
)
def test_numeric_form_matches_per_entry_reference(rank, parabolic, coeffs):
    flag = flag_of("A", rank, parabolic)
    for h in (1e-4, 1e-2):
        H = numeric_form_at_origin(flag, coeffs, step=h)
        assert np.max(np.abs(H - _reference_hessian(flag, coeffs, h))) < 1e-12


def test_numeric_form_recovers_a_hermitian_quadratic(monkeypatch):
    # at the origin the invariant Hessians are diagonal, so the cross stencils
    # and the conjugate mirror are checked on phi(z) = sum A_jk z_j conj(z_k),
    # whose complex Hessian d^2 phi / dz_j dconj(z_k) is A itself
    flag = flag_of("A", 3, [2])
    rng = np.random.default_rng(11)
    B = rng.normal(size=(flag.dim_c,) * 2) + 1j * rng.normal(size=(flag.dim_c,) * 2)
    A = B + B.conj().T

    def quadratic(flag, rows, points):
        # linear in the row, as the real potentials are: the class (1, 1) gets phi itself
        values = np.einsum("...j,jk,...k->...", points, A, np.conj(points)).real
        return np.stack([row[0] * values for row in rows])

    monkeypatch.setattr(potential_lab, "_potentials", quadratic)
    H = numeric_form_at_origin(flag, [1, 1])
    assert np.max(np.abs(H - A)) < 1e-8
    assert np.array_equal(H, H.conj().T)


def test_numeric_form_cross_stencil_beyond_second_order(monkeypatch):
    # the quadratic test passes for any stencil exact to second order; on
    # phi(z) = log(1 + z^H A z + Re z^T S z), with A Hermitian positive, the
    # off-diagonal entries must equal the per-entry four-point reference at
    # steps where the higher-order terms are large.  The pluriharmonic
    # Re z^T S z leaves the Hessian at the origin alone but breaks the
    # symmetry z -> i z, on which the 8 stencil points with a real step along
    # coordinate j would give the same sums as all 16
    flag = flag_of("A", 3, [2])
    rng = np.random.default_rng(23)
    B = rng.normal(size=(flag.dim_c,) * 2) + 1j * rng.normal(size=(flag.dim_c,) * 2)
    A = B @ B.conj().T + np.eye(flag.dim_c)
    S = (B + B.T) / (2 * np.linalg.norm(B + B.T, 2))  # |Re z^T S z| <= |z|^2 / 2

    def log_quadratic(flag, rows, points):
        # linear in the row, so the class (1, 1) gets phi itself at every stencil point
        z = np.asarray(points)
        hermitian = np.einsum("...j,jk,...k->...", z.conj(), A, z)
        pluriharmonic = np.einsum("...j,jk,...k->...", z, S, z)
        return np.stack([row[0] * np.log1p((hermitian + pluriharmonic).real) for row in rows])

    monkeypatch.setattr(potential_lab, "_potentials", log_quadratic)
    for h in (1e-2, 0.3):
        H, R = numeric_form_at_origin(flag, [1, 1], step=h), _reference_hessian(flag, [1, 1], h)
        assert np.max(np.abs(H - R)) <= 1e-12 * np.max(np.abs(R))
    off = ~np.eye(flag.dim_c, dtype=bool)
    assert np.max(np.abs(H - A.T)[off]) > 0.1  # step 0.3 is far from the second-order limit


def test_a_zero_coefficient_adds_nothing(monkeypatch):
    # a direction whose stencil leaves the float range spoils only the classes that use it
    flag = flag_of("A", 2)

    def second_direction_overflows(flag, rows, points):
        values = np.abs(np.asarray(points)).sum(axis=-1) ** 2
        return np.stack([row[0] * values + (np.inf if row[1] else 0.0) for row in rows])

    monkeypatch.setattr(potential_lab, "_potentials", second_direction_overflows)
    assert np.isfinite(numeric_form_at_origin(flag, [1, 0])).all()
    with pytest.raises(IllConditioned, match="non-finite entry"):
        numeric_form_at_origin(flag, [1, 1])


def test_numeric_form_evaluates_the_potential_once(monkeypatch):
    # once per flag object and step: a check on a flag and step already seen evaluates nothing
    flag = flag_of("A", 3, [2])
    calls, charts = [], []
    potentials, chart = potential_lab._potentials, potential_lab.unipotent_matrix

    def counted(flag, rows, points):
        calls.append((len(rows), np.shape(points)))
        return potentials(flag, rows, points)

    def counted_chart(*args):
        charts.append(np.shape(args[1]))
        return chart(*args)

    monkeypatch.setattr(potential_lab, "_potentials", counted)
    monkeypatch.setattr(potential_lab, "unipotent_matrix", counted_chart)
    n, rho = flag.dim_c, flag.picard_rank
    stencil = (4 * n + 8 * n * (n - 1), n)

    once, none = ([(rho, stencil)], [stencil]), ([], [])

    def evaluations(run):
        calls.clear()
        charts.clear()
        run()
        return calls.copy(), charts.copy()

    def request():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify-numeric", "A", "3", "--parabolic=2", "--psi=-1,1"]) == 0

    # a first check evaluates one row per Picard direction on one chart stack
    assert evaluations(lambda: numeric_form_at_origin(flag, [1, 2])) == once
    # a second check on the same flag object and step evaluates none, for both of its classes
    assert evaluations(lambda: check_eigenvalue_formula(flag, [1, 2], [-1, 1])) == none
    assert evaluations(lambda: numeric_form_at_origin(flag, [3, -1])) == none
    # a new step evaluates the rows again, and the memo keeps the last step only
    assert evaluations(lambda: numeric_form_at_origin(flag, [1, 2], step=1e-3)) == once
    assert evaluations(lambda: numeric_form_at_origin(flag, [1, 2])) == once
    # a fresh flag equal to this one has no memo
    assert evaluations(lambda: numeric_form_at_origin(flag_of("A", 3, [2]), [1, 2])) == once
    # the CLI reuses its flag, and with it the memo, until its flag cache is cleared
    cli._flag.cache_clear()
    assert evaluations(request) == once
    assert evaluations(request) == none
    cli._flag.cache_clear()
    assert evaluations(request) == once


def test_direction_hessians_are_kept_read_only_on_the_flag():
    # the memo holds (step, Hessians) for the last step only, and no caller can change it
    flag = flag_of("A", 3)
    D = potential_lab._direction_hessians(flag, 1e-4)
    assert D.shape == (flag.picard_rank, flag.dim_c, flag.dim_c) and not D.flags.writeable
    assert vars(flag)["_lab"][0] == 1e-4 and vars(flag)["_lab"][1] is D
    assert potential_lab._direction_hessians(flag, 1e-4) is D
    with pytest.raises(ValueError):
        D[0, 0, 0] = 1.0
    H = numeric_form_at_origin(flag, [1, 0, 0])
    H[0, 0] = 5.0  # a returned Hessian is the caller's own
    assert np.array_equal(numeric_form_at_origin(flag, [1, 0, 0]), D[0])
    # each direction's Hessian is the Hessian of its unit class, on a fresh flag too
    for a in range(flag.picard_rank):
        unit = [int(b == a) for b in range(flag.picard_rank)]
        assert np.array_equal(numeric_form_at_origin(flag_of("A", 3), unit), D[a])
    potential_lab._direction_hessians(flag, 1e-3)
    assert vars(flag)["_lab"][0] == 1e-3


STENCIL_FLAGS = [(2, []), (3, []), (3, [2]), (4, [2, 3]), (5, [2, 4])]


@pytest.mark.parametrize("rank, parabolic", STENCIL_FLAGS)
def test_check_builds_one_chart_and_one_norm_per_picard_direction(monkeypatch, rank, parabolic):
    flag = flag_of("A", rank, parabolic)
    counts = {"chart": 0, "norm": 0}
    chart, norm = potential_lab.unipotent_matrix, potential_lab._minor_norm_sq

    def counted_chart(*args):
        counts["chart"] += 1
        return chart(*args)

    def counted_norm(*args):
        counts["norm"] += 1
        return norm(*args)

    monkeypatch.setattr(potential_lab, "unipotent_matrix", counted_chart)
    monkeypatch.setattr(potential_lab, "_minor_norm_sq", counted_norm)
    rho = flag.picard_rank
    check_eigenvalue_formula(flag, list(range(1, rho + 1)), [(-1) ** i for i in range(rho)])
    assert counts == {"chart": 1, "norm": rho}


@pytest.mark.parametrize("rank, parabolic", STENCIL_FLAGS)
def test_check_spectrum_equals_separate_hessians_bit_for_bit(rank, parabolic):
    # the batched two-class path and the one-class path give the same bits
    flag = flag_of("A", rank, parabolic)
    rho = flag.picard_rank
    omega, psi = [F(k + 2, 3) for k in range(rho)], [(-2) ** k for k in range(rho)]
    for step in (1e-4, 1e-3):
        H_omega = numeric_form_at_origin(flag, omega, step)
        H_psi = numeric_form_at_origin(flag, psi, step)
        expected = sorted(np.linalg.eigvals(np.linalg.solve(H_omega, H_psi)).real.tolist())
        assert check_eigenvalue_formula(flag, omega, psi, step=step).numeric == tuple(expected)


def _random_points(flag, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape + (flag.dim_c,)) + 1j * rng.normal(size=shape + (flag.dim_c,))


def test_stacked_points_equal_per_point_values():
    for flag, coeffs in [(flag_of("A", 3), [1, -2, 3]), (flag_of("A", 4, [2, 3]), [2, 1])]:
        points = _random_points(flag, (3, 4), seed=flag.dim_c)
        mats = unipotent_matrix(flag, points)
        potentials = kahler_potential(flag, coeffs, points)
        norms = {a: norm_sq(flag, points, a) for a in flag.complement}
        assert mats.shape == (3, 4, flag.rank + 1, flag.rank + 1)
        assert potentials.shape == (3, 4)
        for index in np.ndindex(3, 4):
            point = list(points[index])
            assert np.array_equal(mats[index], unipotent_matrix(flag, point))
            assert potentials[index] == kahler_potential(flag, coeffs, point)
            for a in flag.complement:
                assert norms[a][index] == norm_sq(flag, point, a)


def test_stacked_points_reject_wrong_trailing_dimension():
    flag = flag_of("A", 3)
    bad = _random_points(flag, (5,), seed=1)[:, :-1]
    with pytest.raises(DimensionMismatch):
        unipotent_matrix(flag, bad)
    with pytest.raises(DimensionMismatch):
        norm_sq(flag, bad, 1)
    with pytest.raises(DimensionMismatch):
        kahler_potential(flag, [1, 1, 1], bad)


def test_numeric_form_scale_equivariance():
    flag = flag_of("A", 2)
    H = numeric_form_at_origin(flag, [2, 2])
    for a in (F(2), F(1, 3)):
        Ha = numeric_form_at_origin(flag, [2 * a, 2 * a])
        assert np.max(np.abs(Ha - float(a) * H)) < 1e-8


def test_trace_matches_exact_contraction():
    cases = [
        (flag_of("A", 2), [2, 2], [1, 0]),
        (flag_of("A", 3), [2, 2, 2], [0, 1, 0]),
        (flag_of("A", 3), [1, 3, 2], [-1, 1, 0]),
        (flag_of("A", 2, [2]), [3], [1]),
        (flag_of("A", 3, [2]), [3, 3], [1, 0]),
    ]
    for flag, omega, psi in cases:
        H_omega = numeric_form_at_origin(flag, omega)
        H_psi = numeric_form_at_origin(flag, psi)
        trace = float(np.trace(np.linalg.solve(H_omega, H_psi)).real)
        exact = lefschetz_contraction(
            flag,
            class_from_coeffs(flag, [F(c) for c in omega]),
            class_from_coeffs(flag, [F(c) for c in psi]),
        )[0]
        assert abs(trace - float(exact)) < 1e-5


def test_eigenvalue_formula_frozen_cases():
    flag = flag_of("A", 2)
    report = check_eigenvalue_formula(flag, [2, 2], [1, 0])
    assert report.exact == (F(0), F(1, 4), F(1, 2))
    assert report.passed and report.max_deviation < 1e-5

    report = check_eigenvalue_formula(flag, [2, 2], [2, 2])
    assert report.exact == (F(1), F(1), F(1))
    assert max(abs(v - 1.0) for v in report.numeric) < 1e-5

    report = check_eigenvalue_formula(flag, [2, 2], [-1, 1])
    assert report.exact == (F(-1, 2), F(0), F(1, 2))
    assert report.passed


@pytest.mark.parametrize(
    "rank, omega, psi",
    [
        (3, [1, 1, 1], [-10506, -12888, 16449]),
        (3, [F(1, 1000)] * 3, [-95, 21, -20]),
        (3, [100, F(1, 100), 100], [99, -78, 66]),
        (4, [F(1, 3), F(3, 22), F(1, 13), F(1, 44)], [80, -17, -16, 81]),
    ],
)
def test_deviation_does_not_grow_with_the_class_ratio(rank, omega, psi):
    # a stencil point that moves one coordinate gets the same rounded norm in
    # every Picard direction it enters, so the rounding cancels in the ratio
    # and a large |psi| / omega stays far inside the default tolerance
    report = check_eigenvalue_formula(flag_of("A", rank), omega, psi)
    assert report.passed and report.max_deviation < 1e-9


def test_eigenvalue_formula_requires_positive_metric():
    flag = flag_of("A", 2)
    with pytest.raises(NotKahler):
        check_eigenvalue_formula(flag, [0, 2], [1, 0])


def test_singular_metric_hessian_detected(monkeypatch):
    flag = flag_of("A", 2)
    singular = np.zeros((3, 3), dtype=complex)
    singular[0, 0] = 1.0

    monkeypatch.setattr(potential_lab, "_hessians_at_origin", lambda *a, **k: np.stack([singular] * 2))
    with pytest.raises(IllConditioned):
        potential_lab.check_eigenvalue_formula(flag, [2, 2], [1, 0])


@pytest.mark.parametrize("spectrum, rotated, refused", [
    ((1e12 * (1 + 2**-40), 1.0, 1.0), False, True),  # a ratio just above the limit
    ((-1e12 * (1 + 2**-40), 1.0, 1.0), False, True),  # the ratio is of |w|
    ((1e12 * (1 - 2**-40), 1.0, 1.0), False, False),  # just below it
    ((1.0, 0.0, 1.0), False, True),
    ((1e6, -1.0, 1.0), True, False),  # an indefinite metric Hessian is not singular
    ((-1e13, 1.0, 1.0), True, True),
])
def test_metric_hessian_refusal_reads_its_condition_number_off_the_spectrum(
        monkeypatch, spectrum, rotated, refused):
    flag = flag_of("A", 2)
    H_omega = np.diag(np.array(spectrum, dtype=complex))
    if rotated:  # the same spectrum off the diagonal, in exactly Hermitian form
        unitary = np.linalg.qr(np.array([[1, 2j, 0], [0, 1, 3], [1j, 0, 1]]))[0]
        H_omega = unitary @ H_omega @ unitary.conj().T
        H_omega = (H_omega + H_omega.conj().T) / 2
    monkeypatch.setattr(potential_lab, "_hessians_at_origin", lambda *a, **k: np.stack([H_omega] * 2))
    if refused:
        with pytest.raises(IllConditioned, match="numerically singular"):
            check_eigenvalue_formula(flag, [2, 2], [1, 0])
    else:
        report = check_eigenvalue_formula(flag, [2, 2], [1, 0])
        assert report.numeric == pytest.approx((1.0, 1.0, 1.0))


def test_a_zero_or_non_finite_metric_hessian_is_ill_conditioned(monkeypatch):
    flag = flag_of("A", 2)
    for entry in (0.0, float("nan"), float("inf")):
        H_omega = np.full((3, 3), entry, dtype=complex)
        monkeypatch.setattr(potential_lab, "_hessians_at_origin", lambda *a, **k: np.stack([H_omega] * 2))
        with pytest.raises(IllConditioned):
            check_eigenvalue_formula(flag, [2, 2], [1, 0])


def test_step_validation():
    flag = flag_of("A", 2)
    for bad in (0.0, -1.0, float("nan"), float("inf"), "x", None):
        with pytest.raises(InvalidParameter):
            numeric_form_at_origin(flag, [2, 2], step=bad)
        with pytest.raises(InvalidParameter):
            check_eigenvalue_formula(flag, [2, 2], [1, 0], step=bad)
        with pytest.raises(InvalidParameter):
            check_eigenvalue_formula(flag, [2, 2], [1, 0], tol=bad)


def test_non_finite_coefficients_rejected():
    flag = flag_of("A", 2)
    for bad in ([F(10**400), 1], [1, float("inf")], [float("nan"), 1], ["x", 1], [None, 1]):
        with pytest.raises(InvalidParameter):
            kahler_potential(flag, bad, [0, 0, 0])
        with pytest.raises(InvalidParameter):
            numeric_form_at_origin(flag, bad)
    with pytest.raises(InvalidParameter):
        check_eigenvalue_formula(flag, [F(10**400), 1], [1, 0])
    with pytest.raises(InvalidParameter):
        check_eigenvalue_formula(flag, [2, 2], [F(-(10**400)), 1])
    for bad in (float("nan"), float("inf"), "x", None):  # not rationals: the exact side rejects them
        with pytest.raises(InvalidParameter):
            check_eigenvalue_formula(flag, [bad, 1], [1, 0])
        with pytest.raises(InvalidParameter):
            check_eigenvalue_formula(flag, [2, 2], [1, bad])


def test_non_finite_hessian_is_ill_conditioned():
    flag = flag_of("A", 2)
    for step in (1e-300, 1e-200, 1e300):
        with pytest.raises(IllConditioned, match="non-finite entry"):
            check_eigenvalue_formula(flag, [2, 2], [1, 0], step=step)
    for step in (1e-300, 1e300, 1.7e308):
        with pytest.raises(IllConditioned, match="non-finite entry"):
            numeric_form_at_origin(flag_of("A", 3), [1, 1, 1], step=step)
    # finite chart points whose norms overflow a float
    with pytest.raises(IllConditioned, match="float range"):
        kahler_potential(flag, [1, 1], [1e200] * 3)
    with pytest.raises(IllConditioned, match="float range"):
        kahler_potential(flag_of("A", 3), [1, 1, 1], [[0] * 6, [1e200] * 6])
    # finite Hessians whose spectrum overflows a float
    with pytest.raises(IllConditioned, match="float range"):
        check_eigenvalue_formula(flag, [F(1, 10**10), F(1, 10**10)], [10**300, 10**300])


def test_exact_spectrum_beyond_float_range_is_ill_conditioned(monkeypatch):
    # identity Hessians keep the numeric side finite; the exact ratio 10^400 is not
    flag = flag_of("A", 2)
    monkeypatch.setattr(potential_lab, "_hessians_at_origin", lambda *a, **k: np.stack([np.eye(3)] * 2))
    with pytest.raises(IllConditioned, match="float range"):
        potential_lab.check_eigenvalue_formula(flag, [1, 1], [10**400, 0])


def test_check_order_type_step_tol_dimension_kahler():
    a2, b2 = flag_of("A", 2), flag_of("B", 2)
    with pytest.raises(UnsupportedType):
        check_eigenvalue_formula(b2, [0], [1], step=-1, tol=-1)
    with pytest.raises(InvalidParameter, match="step"):
        check_eigenvalue_formula(a2, [0], [1], step=-1, tol=-1)
    with pytest.raises(InvalidParameter, match="tol"):
        check_eigenvalue_formula(a2, [0], [1], tol=-1)
    with pytest.raises(DimensionMismatch):
        check_eigenvalue_formula(a2, [0], [F(10**400)])
    with pytest.raises(NotKahler):
        check_eigenvalue_formula(a2, [0, F(10**400)], [F(10**400), 1])


def test_stencil_cap_bounds_the_chart_entries(monkeypatch):
    # the A2 full stencil stacks 4n + 8n(n-1) = 60 points of one 3 x 3 chart each
    flag = flag_of("A", 2)
    monkeypatch.setattr(potential_lab, "_STENCIL_CAP", 540)
    numeric_form_at_origin(flag, [1, 1])
    monkeypatch.setattr(potential_lab, "_STENCIL_CAP", 539)
    with pytest.raises(UnsupportedType, match="540 chart entries"):
        numeric_form_at_origin(flag, [1, 1])
    with pytest.raises(UnsupportedType, match="cap of 539"):
        check_eigenvalue_formula(flag, [1, 1], [1, 0])


def test_stencil_cap_admits_every_flag_up_to_a12():
    # every type-A flag of rank at most 12 fits; the full flag of rank 13 does not
    for rank, fits in ((5, True), (12, True), (13, False)):
        n = flag_of("A", rank).dim_c
        assert ((4 * n + 8 * n * (n - 1)) * (rank + 1) ** 2 <= potential_lab._STENCIL_CAP) is fits
