import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagcy.flag_geometry as flag_geometry
import flagcy.picard_lattice as picard_lattice
from flagcy import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    LineBundleClass,
    NotKahler,
    PicardRankOne,
    anticanonical_class,
    class_from_coeffs,
    degree,
    integer_combination,
    lefschetz_contraction,
    primitive_basis,
    ricci_class,
)
from conftest import flag_of, grid_flags

F = Fraction


def test_hodge_riemann_pairing_frozen_values():
    # degrees of the Picard generators against an integral class are tau * q
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    pb = primitive_basis(flag, theta)
    assert [pb.tau * q for q in pb.q] == [12, 12]
    # the 2*pi power of the reference class does not enter the integral degrees
    assert primitive_basis(flag, ricci_class(flag)) == pb
    with pytest.raises(NotKahler):
        primitive_basis(flag, class_from_coeffs(flag, [0, 1]))
    line = flag_of("A", 1)
    assert degree(line, class_from_coeffs(line, [1]), anticanonical_class(line)) == (F(1), 0)


def test_primitive_basis_a2():
    flag = flag_of("A", 2)
    pb = primitive_basis(flag, anticanonical_class(flag))
    assert pb.tau == 12
    assert pb.q == (1, 1)
    assert pb.pivot_gamma == 1
    assert [b.coeffs for b in pb.basis] == [(-1, 1)]


def test_primitive_basis_rank_one_rejected():
    plane = flag_of("A", 2, [2])
    with pytest.raises(PicardRankOne):
        primitive_basis(plane, anticanonical_class(plane))


def test_primitive_basis_a3_frozen():
    flag = flag_of("A", 3)
    theta = anticanonical_class(flag)
    pb = primitive_basis(flag, theta)
    assert pb.tau == 640
    assert pb.q == (11, 14, 11)
    assert [b.coeffs for b in pb.basis] == [(-14, 11, 0), (-11, 0, 11)]
    for xi in pb.basis:
        assert degree(flag, xi.to_class(), theta) == (F(0), 0)


def test_primitive_basis_b2_c2_frozen():
    b2 = flag_of("B", 2)
    c2 = flag_of("C", 2)
    assert primitive_basis(b2, anticanonical_class(b2)).q == (13, 11)
    assert primitive_basis(c2, anticanonical_class(c2)).q == (11, 13)


def test_primitive_basis_q_has_gcd_one_and_degree_zero_generators():
    for flag in grid_flags():
        theta = anticanonical_class(flag)
        pb = primitive_basis(flag, theta)
        g = 0
        for q in pb.q:
            g = gcd(g, q)
        assert g == 1
        assert len(pb.basis) == flag.picard_rank - 1
        for xi in pb.basis:
            assert degree(flag, xi.to_class(), theta)[0] == 0


def test_primitive_basis_rational_scaling_stability():
    flag = flag_of("A", 3)
    theta = anticanonical_class(flag)
    pb = primitive_basis(flag, theta)
    for s in (F(2), F(3, 2), F(1, 7)):
        scaled = primitive_basis(flag, theta.scaled(s))
        assert scaled.q == pb.q
        assert scaled.basis == pb.basis


def test_primitive_basis_respects_pivot_choice():
    flag = flag_of("A", 2)
    pb = primitive_basis(flag, anticanonical_class(flag), gamma=2)
    assert pb.pivot_gamma == 2
    assert [b.coeffs for b in pb.basis] == [(1, -1)]
    pb = primitive_basis(flag, anticanonical_class(flag), gamma=1.0)
    assert pb.pivot_gamma == 1 and type(pb.pivot_gamma) is int
    with pytest.raises(IndexOutOfRange):
        primitive_basis(flag, anticanonical_class(flag), gamma=1.5)


def test_is_primitive():
    # a class is primitive when its contraction against the Kahler class vanishes
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    xi = class_from_coeffs(flag, [-1, 1])
    assert lefschetz_contraction(flag, theta, xi)[0] == 0
    assert lefschetz_contraction(flag, theta, theta)[0] != 0
    # primitivity is invariant under rescaling the reference class
    assert lefschetz_contraction(flag, theta.scaled(F(7, 3)), xi)[0] == 0


def test_orthogonal_decompose_frozen():
    # c = m * theta + p with m = contraction(c) / dim, and p is primitive
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    for coeffs, m_expected, p_expected in (
        ([2, 2], F(1), (0, 0)),
        ([-1, 1], F(0), (-1, 1)),
        ([1, 0], F(1, 4), (F(1, 2), F(-1, 2))),
    ):
        c = class_from_coeffs(flag, coeffs)
        m = lefschetz_contraction(flag, theta, c)[0] / flag.dim_c
        p = c + theta.scaled(-m)
        assert (m, p.coeffs) == (m_expected, p_expected)
        assert lefschetz_contraction(flag, theta, p)[0] == 0


def test_orthogonal_decompose_round_trip():
    rng = random.Random(23)
    for flag in (flag_of("A", 3), flag_of("B", 3, [2]), flag_of("D", 4)):
        rho = flag.picard_rank
        omega = class_from_coeffs(flag, [rng.randint(1, 4) for _ in range(rho)])
        for _ in range(30):
            c = class_from_coeffs(flag, [rng.randint(-8, 8) for _ in range(rho)])
            m = lefschetz_contraction(flag, omega, c)[0] / flag.dim_c
            p = c + omega.scaled(-m)
            assert omega.scaled(m) + p == c
            assert lefschetz_contraction(flag, omega, p)[0] == 0


def test_integer_combinations_have_degree_zero():
    # one direction of the lattice property holds unconditionally
    rng = random.Random(41)
    for flag in grid_flags():
        theta = anticanonical_class(flag)
        pb = primitive_basis(flag, theta)
        for _ in range(10):
            coeffs = [0] * flag.picard_rank
            for xi in pb.basis:
                m = rng.randint(-3, 3)
                coeffs = [c + m * x for c, x in zip(coeffs, xi.coeffs)]
            assert degree(flag, LineBundleClass(coeffs).to_class(), theta)[0] == 0
            assert integer_combination(pb, coeffs) is not None


def test_degree_zero_iff_combination_for_picard_rank_two():
    # with two Picard directions the two-term generator is saturated: the
    # pairing vector is coprime, so its kernel is spanned by (-q2, q1)
    rng = random.Random(59)
    for flag in grid_flags():
        if flag.picard_rank != 2:
            continue
        theta = anticanonical_class(flag)
        pb = primitive_basis(flag, theta)
        for _ in range(100):
            c = [rng.randint(-5, 5), rng.randint(-5, 5)]
            deg_zero = degree(flag, LineBundleClass(c).to_class(), theta)[0] == 0
            assert (integer_combination(pb, c) is not None) == deg_zero


def test_saturation_fails_for_a3_full_flag():
    # Known counterexample recorded deliberately: on the rank-3 full flag the
    # pairing vector is (11, 14, 11), so the class (1, 0, -1) has exact degree
    # zero, yet it is not an integer combination of the two-term generators:
    # they span an index-11 sublattice of the degree-zero lattice.
    flag = flag_of("A", 3)
    theta = anticanonical_class(flag)
    pb = primitive_basis(flag, theta)
    witness = LineBundleClass((1, 0, -1))
    assert degree(flag, witness.to_class(), theta)[0] == 0
    assert integer_combination(pb, witness) is None
    # rational solvability is not the obstruction: scaling by q_gamma works
    assert integer_combination(pb, witness.scaled(11)) is not None


def test_pivot_bases_mutually_expressible_for_picard_rank_two():
    for flag in grid_flags():
        if flag.picard_rank != 2:
            continue
        theta = anticanonical_class(flag)
        pivots = flag.complement
        basis_a = primitive_basis(flag, theta, gamma=pivots[0])
        basis_b = primitive_basis(flag, theta, gamma=pivots[1])
        for xi in basis_a.basis:
            assert integer_combination(basis_b, xi) is not None
        for xi in basis_b.basis:
            assert integer_combination(basis_a, xi) is not None


def test_pivot_bases_differ_for_a3_full_flag():
    # same deliberate record as above: for three Picard directions the
    # sublattices attached to different pivots need not coincide
    flag = flag_of("A", 3)
    theta = anticanonical_class(flag)
    basis_1 = primitive_basis(flag, theta, gamma=1)
    basis_2 = primitive_basis(flag, theta, gamma=2)
    cross = [integer_combination(basis_2, xi) for xi in basis_1.basis]
    assert any(c is None for c in cross)


COEFFICIENT = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=3), st.floats())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(coeffs=st.lists(COEFFICIENT, min_size=2, max_size=2))
@example(coeffs=[-1.5, 1.5])
@example(coeffs=[0.5, -0.5])
@example(coeffs=[F(-3), 3.0])
@example(coeffs=[float("nan"), 1])
def test_bundle_coefficients_are_integral_or_rejected(coeffs):
    # A2 has the single generator (-1, 1): a float or Fraction vector is either
    # rejected or taken exactly, never truncated onto a lattice point
    flag = flag_of("A", 2)
    pb = primitive_basis(flag, anticanonical_class(flag))
    try:
        bundle = LineBundleClass(coeffs)
    except InvalidParameter:
        with pytest.raises(InvalidParameter):
            integer_combination(pb, coeffs)
        return
    assert bundle.coeffs == tuple(coeffs)
    assert all(type(c) is int for c in bundle.coeffs)
    x = integer_combination(pb, coeffs)
    if x is not None:
        assert tuple(x[0] * c for c in pb.basis[0].coeffs) == tuple(coeffs)
    assert (x is not None) == (sum(bundle.coeffs) == 0)


def test_primitive_basis_checks_and_clears_the_class_once(monkeypatch):
    flag = flag_of("A", 4)
    omega = class_from_coeffs(flag, [F(1, 2), 1, 2, 3])
    expected = primitive_basis(flag, omega)
    calls = {"_check_class": 0, "_cleared": 0}
    for name in calls:
        original = getattr(flag_geometry, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        # picard_lattice holds its own names for the helpers, so patch both
        monkeypatch.setattr(flag_geometry, name, counted)
        monkeypatch.setattr(picard_lattice, name, counted)
    assert primitive_basis(flag, omega) == expected
    assert calls == {"_check_class": 1, "_cleared": 1}
    # q and tau are those of the minimal integral multiple (1, 2, 4, 6)
    assert expected == primitive_basis(flag, class_from_coeffs(flag, [1, 2, 4, 6]))
    # the class is checked before the pivot, its length before its positivity
    with pytest.raises(InvalidParameter):
        primitive_basis(flag, (1, 2, 4, 6), gamma=9)
    with pytest.raises(DimensionMismatch):
        primitive_basis(flag, class_from_coeffs(flag_of("A", 3), [0, 1, 2]), gamma=9)
    with pytest.raises(NotKahler):
        primitive_basis(flag, class_from_coeffs(flag, [0, 1, 2, 3]), gamma=9)
