"""Acceptance suite: one test per top-level criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the PASS/FAIL
lines.  Exact criteria admit zero tolerance; the numeric criterion carries
its stated finite-difference tolerance.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

from flagcy import (
    LineBundleClass,
    anticanonical_class,
    build_balanced,
    build_t_gauduchon,
    check_eigenvalue_formula,
    class_from_coeffs,
    degree,
    fano_index,
    integer_combination,
    lee_form_coefficients,
    lefschetz_contraction,
    primitive_basis,
    ricci_flat_scale,
    verify_c1_trivial,
    verify_coclosed,
    verify_ricci_flat,
    volume,
)
from conftest import flag_of, grid_flags

F = Fraction

K_VALUES = (-2, -1, 1, 2)
T_VALUES = (F(-1), F(0), F(1, 2))


def report(number, label, failures, elapsed, budget=None):
    status = "PASS" if not failures and (budget is None or elapsed < budget) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"criterion {number} [{status}] {label} in {timing}")
    for failure in failures[:5]:
        print(f"    counterexample: {failure}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget


def bundles_for(flag):
    basis = list(primitive_basis(flag, anticanonical_class(flag)).basis)
    odd = basis if len(basis) % 2 == 1 else basis + [basis[0].scaled(2)]
    even = basis if len(basis) % 2 == 0 else basis + [basis[0].scaled(2)]
    return odd, even


def test_criterion_1_rank_two_full_flag_fixture():
    start = time.monotonic()
    failures = []
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    if fano_index(flag) != 2:
        failures.append(("fano_index", fano_index(flag)))
    if flag.anticanonical != (2, 2):
        failures.append(("anticanonical", flag.anticanonical))
    for unit in ([1, 0], [0, 1]):
        value = lefschetz_contraction(flag, theta, class_from_coeffs(flag, unit))
        if value != (F(3, 4), 0):
            failures.append(("contraction", unit, value))
    pb = primitive_basis(flag, theta)
    if [b.coeffs for b in pb.basis] != [(-1, 1)]:
        failures.append(("primitive_basis", pb.basis))
    for k in (1, -1, 2, -2):
        for t in T_VALUES:
            expected = F(3, 8) * (1 - t) * k * k
            got = ricci_flat_scale(flag, k, t)
            if got != expected:
                failures.append(("scale", k, t, got))
    report(1, "rank-two full-flag fixture, exact", failures, time.monotonic() - start, budget=1.0)


def test_criterion_2_ricci_flat_vanishing_grid():
    start = time.monotonic()
    failures = []
    for flag in grid_flags():
        odd, _ = bundles_for(flag)
        for k in K_VALUES:
            for t in T_VALUES:
                datum = build_t_gauduchon(flag, k, t, odd)
                residual = verify_ricci_flat(datum)
                if not residual.is_zero:
                    failures.append((str(flag.datum.lie_type), sorted(flag.parabolic_set), k, t))
    report(2, "Ricci-flat residual vanishes over the A-D grid", failures,
           time.monotonic() - start, budget=30.0)


def test_criterion_3_balanced_coclosedness_grid():
    start = time.monotonic()
    failures = []
    for flag in grid_flags():
        _, even = bundles_for(flag)
        theta = anticanonical_class(flag)
        datum = build_balanced(flag, theta, even)
        coclosed = verify_coclosed(datum)
        lee = lee_form_coefficients(flag, datum.psi, datum.omega0)
        if any(v != 0 for v in coclosed) or any(v != 0 for v in lee):
            failures.append((str(flag.datum.lie_type), sorted(flag.parabolic_set)))
    report(3, "balanced data are coclosed with zero Lee form", failures,
           time.monotonic() - start)


def test_criterion_4_c1_triviality_grid():
    start = time.monotonic()
    failures = []
    for flag in grid_flags():
        odd, _ = bundles_for(flag)
        index = fano_index(flag)
        for k in K_VALUES:
            for t in T_VALUES:
                datum = build_t_gauduchon(flag, k, t, odd)
                ratio = verify_c1_trivial(datum)
                if ratio != F(index, k):
                    failures.append((str(flag.datum.lie_type), k, t, ratio))
    report(4, "Ricci class is index/k times the first curvature class", failures,
           time.monotonic() - start)


def test_criterion_5_numeric_versus_exact_eigenvalues():
    start = time.monotonic()
    failures = []
    cases = [
        ("A", 2, [2, 2], [1, 0]),
        ("A", 2, [2, 2], [0, 1]),
        ("A", 2, [2, 2], [-1, 1]),
        ("A", 3, [2, 2, 2], [1, 0, 0]),
        ("A", 3, [2, 2, 2], [-1, 1, 0]),
    ]
    for family, rank, omega, psi in cases:
        flag = flag_of(family, rank)
        rep = check_eigenvalue_formula(flag, omega, psi, step=1e-4, tol=1e-5)
        if not rep.passed:
            failures.append((family, rank, psi, rep.max_deviation))
    report(5, "finite-difference eigenvalues within 1e-5 of exact", failures,
           time.monotonic() - start, budget=10.0)


def _det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _maximal_minor_gcd(columns):
    """GCD of the maximal minors of the integer matrix with these columns.

    For linearly independent columns this is the index of their span in the
    integer points of their rational span.
    """
    rho = len(columns[0])
    out = 0
    for skip in range(rho):
        out = gcd(out, _det([[col[i] for col in columns] for i in range(rho) if i != skip]))
    return out


def test_criterion_6_degree_zero_lattice_property():
    # With pivot gamma and gcd(q) = 1, the generators
    # xi_alpha = O_gamma(-q_alpha) (x) O_alpha(q_gamma) span exactly the c with
    # q.c = 0 and q_gamma | c_alpha for alpha != gamma: index |q_gamma|^(rho-2)
    # in the degree-zero lattice.  So "degree zero iff integer combination"
    # holds exactly where that index is 1 (rho = 2, or |q_gamma| = 1).  Rank-3
    # full flag: q = (11, 14, 11), index 11, witness (1, 0, -1).
    start = time.monotonic()
    rng = random.Random(20240815)
    failures = []
    saturated = unsaturated = 0
    for flag in grid_flags():
        name = (str(flag.datum.lie_type), sorted(flag.parabolic_set))
        theta = anticanonical_class(flag)
        pb = primitive_basis(flag, theta)
        rho = flag.picard_rank
        # q from the degrees of the Picard generators, independently of pb.q
        units = [[int(a == b) for b in flag.complement] for a in flag.complement]
        pairings = [degree(flag, class_from_coeffs(flag, u), theta)[0] for u in units]
        ints = [int(p * lcm(*(p.denominator for p in pairings))) for p in pairings]
        g = flag.complement.index(pb.pivot_gamma)
        q_gamma = ints[g] // gcd(*ints)
        generators = [b.coeffs for b in pb.basis]

        index = _maximal_minor_gcd(generators)
        saturated += index == 1
        unsaturated += index > 1
        if index != abs(q_gamma) ** (rho - 2):
            failures.append((*name, "index", index, abs(q_gamma) ** (rho - 2)))
            continue

        for _ in range(200):
            coeffs = tuple(rng.randint(-5, 5) for _ in range(rho))
            deg_zero = degree(flag, LineBundleClass(coeffs).to_class(), theta)[0] == 0
            divisible = all(c % q_gamma == 0 for i, c in enumerate(coeffs) if i != g)
            x = integer_combination(pb, coeffs)
            scaled = integer_combination(pb, [q_gamma * c for c in coeffs])
            if (x is not None) != (deg_zero and divisible):
                clause = f"membership: degree_zero={deg_zero} divisible={divisible} x={x}"
            elif x is not None and coeffs != tuple(
                sum(xi * col[i] for xi, col in zip(x, generators)) for i in range(rho)
            ):
                clause = f"membership: x={x} does not combine to the vector"
            elif deg_zero != (scaled is not None):
                clause = f"rational span: degree_zero={deg_zero} x(q_gamma*c)={scaled}"
            elif index == 1 and deg_zero != (x is not None):
                clause = f"index 1: degree_zero={deg_zero} x={x}"
            else:
                continue
            failures.append((*name, coeffs, clause))
            break
    report(6, f"two-term span has index |q_gamma|^(rho-2) ({unsaturated} flags > 1), "
              f"exact membership, degree zero iff integer combination on the "
              f"{saturated} index-1 flags", failures, time.monotonic() - start)


def test_criterion_7_volume_sanity():
    start = time.monotonic()
    failures = []
    line = flag_of("A", 1)
    if volume(line, anticanonical_class(line)) != (F(2), 0):
        failures.append(("line", volume(line, anticanonical_class(line))))
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    if volume(flag, theta) != (F(8), 0):
        failures.append(("full flag", volume(flag, theta)))
    for target, s in ((flag, F(2)), (flag, F(1, 3)), (line, F(2)), (line, F(1, 3))):
        omega = anticanonical_class(target)
        scaled = volume(target, omega.scaled(s))[0]
        if scaled != volume(target, omega)[0] * s ** target.dim_c:
            failures.append(("homogeneity", str(target.datum.lie_type), s))
    report(7, "volume fixtures and homogeneity, exact", failures, time.monotonic() - start)
