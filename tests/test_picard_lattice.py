import random
from fractions import Fraction
from math import gcd

import pytest

from flagcy import (
    LineBundleClass,
    NotKahler,
    PicardRankOne,
    anticanonical_class,
    basis_class,
    class_from_coeffs,
    degree,
    integer_combination,
    is_primitive,
    lefschetz_contraction,
    orthogonal_decompose,
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
    assert degree(line, basis_class(line, 1), anticanonical_class(line)) == (F(1), 0)


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


def test_is_primitive():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    assert is_primitive(flag, class_from_coeffs(flag, [-1, 1]), theta)
    assert not is_primitive(flag, theta, theta)
    # primitivity is invariant under rescaling the reference class
    assert is_primitive(flag, class_from_coeffs(flag, [-1, 1]), theta.scaled(F(7, 3)))


def test_orthogonal_decompose_frozen():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    m, p = orthogonal_decompose(flag, theta, theta)
    assert (m, p.coeffs) == (F(1), (F(0), F(0)))
    primitive = class_from_coeffs(flag, [-1, 1])
    m, p = orthogonal_decompose(flag, primitive, theta)
    assert m == 0 and p == primitive
    m, p = orthogonal_decompose(flag, basis_class(flag, 1), theta)
    assert m == F(1, 4)
    assert p.coeffs == (F(1, 2), F(-1, 2))
    assert lefschetz_contraction(flag, theta, p)[0] == 0


def test_orthogonal_decompose_round_trip():
    rng = random.Random(23)
    for flag in (flag_of("A", 3), flag_of("B", 3, [2]), flag_of("D", 4)):
        rho = flag.picard_rank
        omega = class_from_coeffs(flag, [rng.randint(1, 4) for _ in range(rho)])
        for _ in range(30):
            c = class_from_coeffs(flag, [rng.randint(-8, 8) for _ in range(rho)])
            m, p = orthogonal_decompose(flag, c, omega)
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
