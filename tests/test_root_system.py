from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from flagcy import (
    InvalidRank,
    LieType,
    build_root_datum,
    cartan_matrix,
    make_flag,
    positive_root_count,
    symmetrizer,
)
from flagcy.root_system import _closure, _root_datum

ALL_TYPES = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
LARGE_TYPES = [("A", 24), ("B", 12), ("D", 10)]


def reflection_closure(datum):
    """Independent oracle: close the simple roots under all simple reflections.

    Reflection in alpha_i changes only the i-th coordinate, by the coroot
    pairing; the positive roots are the orbit elements with all coordinates
    nonnegative.
    """
    C = datum.cartan
    n = datum.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for m in frontier:
            for i in range(n):
                pair = sum(mj * C[j][i] for j, mj in enumerate(m))
                refl = tuple(mj - pair if j == i else mj for j, mj in enumerate(m))
                if refl not in roots:
                    new.add(refl)
        roots |= new
        frontier = new
    return sorted(m for m in roots if all(c >= 0 for c in m))


def test_a2_positive_roots():
    datum = build_root_datum(LieType("A", 2))
    assert [r.root_coords for r in datum.positive_roots] == [(1, 0), (0, 1), (1, 1)]


def test_a1_single_root():
    datum = build_root_datum(LieType("A", 1))
    assert [r.root_coords for r in datum.positive_roots] == [(1,)]


def test_g2_against_reflection_oracle():
    datum = build_root_datum(LieType("G", 2))
    assert len(datum.positive_roots) == 6
    assert sorted(r.root_coords for r in datum.positive_roots) == reflection_closure(datum)
    # long roots have coroot coordinates different from root coordinates
    differing = [
        r for r in datum.positive_roots
        if tuple(r.coroot_coords) != tuple(map(Fraction, r.root_coords))
    ]
    assert differing
    g2 = {r.root_coords: r.coroot_coords for r in datum.positive_roots}
    assert g2[(1, 1)] == (1, 3)
    assert g2[(3, 2)] == (1, 2)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_count_matches_closed_form(family, rank):
    datum = build_root_datum(LieType(family, rank))
    assert len(datum.positive_roots) == positive_root_count(datum.lie_type)


@pytest.mark.parametrize("family,rank", ALL_TYPES + LARGE_TYPES)
def test_enumeration_matches_reflection_oracle(family, rank):
    # by height, and within a height level the larger coordinate tuple (the
    # root supported on earlier simple roots) first
    datum = build_root_datum(LieType(family, rank))
    expected = sorted(reflection_closure(datum), key=lambda m: (sum(m), tuple(-c for c in m)))
    assert [r.root_coords for r in datum.positive_roots] == expected


@pytest.mark.parametrize("family,rank", ALL_TYPES + LARGE_TYPES)
def test_coroots_are_scaled_roots(family, rank):
    # beta^vee = 2 beta / (beta, beta): coordinate j is beta_j d_j / L(beta),
    # with L(beta) = (beta, beta)/2 computed here from the symmetrized Cartan matrix
    lie_type = LieType(family, rank)
    C, d = cartan_matrix(lie_type), symmetrizer(lie_type)
    for beta in build_root_datum(lie_type).positive_roots:
        b = beta.root_coords
        half_len = Fraction(
            sum(b[i] * b[j] * C[i][j] * d[j] for i in range(rank) for j in range(rank)), 2
        )
        assert half_len > 0
        assert beta.coroot_coords == tuple(b[j] * d[j] / half_len for j in range(rank))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_every_root_pairs_to_two_with_its_coroot(family, rank):
    datum = build_root_datum(LieType(family, rank))
    for beta in datum.positive_roots:
        assert all(type(c) is int for c in beta.coroot_coords)
        # beta in the fundamental-weight basis, from the Cartan integers
        weight = [
            sum(m * datum.cartan[j][i] for j, m in enumerate(beta.root_coords))
            for i in range(rank)
        ]
        assert sum(w * c for w, c in zip(weight, beta.coroot_coords)) == 2


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 4), ("E", 6)])
def test_simply_laced_coroots_equal_roots(family, rank):
    datum = build_root_datum(LieType(family, rank))
    for beta in datum.positive_roots:
        assert tuple(int(c) for c in beta.coroot_coords) == beta.root_coords


def test_cartan_matrices_are_finite_type():
    for family, rank in ALL_TYPES:
        C = cartan_matrix(LieType(family, rank))
        for i in range(rank):
            assert C[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert C[i][j] <= 0
                    assert (C[i][j] == 0) == (C[j][i] == 0)


def test_pairing_a2_highest_root():
    datum = build_root_datum(LieType("A", 2))
    highest = datum.positive_roots[-1]
    assert highest.root_coords == (1, 1)
    # the class (2, 2) pairs with the highest coroot through the last table row
    row = make_flag(datum).pairing_table[-1]
    assert sum(c * p for c, p in zip((2, 2), row)) == 4


def test_fundamental_weights_dual_to_simple_coroots():
    for family, rank in [("A", 3), ("B", 3), ("G", 2), ("F", 4)]:
        datum = build_root_datum(LieType(family, rank))
        flag = make_flag(datum)
        # row of the simple root alpha_i: <varpi_j, alpha_i_coroot> for every j
        simple = {
            beta.root_coords: row
            for beta, row in zip(flag.phi_complement, flag.pairing_table)
            if beta.height == 1
        }
        for i in range(rank):
            e_i = tuple(1 if j == i else 0 for j in range(rank))
            assert simple[e_i] == e_i


def test_weyl_vector_pairings_are_coroot_heights():
    flag = make_flag(build_root_datum(LieType("A", 3)))
    assert flag.weyl_row == (1, 1, 1, 2, 2, 3)
    # oracle: the pairing against the all-ones weight is the coroot coordinate sum
    for beta, value in zip(flag.phi_complement, flag.weyl_row):
        assert value == sum(beta.coroot_coords)


def test_weyl_vector_b2():
    flag = make_flag(build_root_datum(LieType("B", 2)))
    # rho has every fundamental-weight coefficient 1, so its row pairs (1, 1) with the table
    assert flag.weyl_row == tuple(sum(row) for row in flag.pairing_table)
    assert sorted(flag.weyl_row) == [1, 1, 2, 3]


def test_ordering_is_graded_then_by_leading_support():
    datum = build_root_datum(LieType("A", 3))
    coords = [r.root_coords for r in datum.positive_roots]
    assert coords == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    heights = [r.height for r in datum.positive_roots]
    assert heights == sorted(heights)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("H", 2),
     ("A", 2.5), ("A", 65), ("B", 65), ("C", 65), ("D", 65), ("A", 10**20)],
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(InvalidRank):
        LieType(family, rank)


# A-D up to rank 12, E6-E8, F4 and G2, and A-D at the rank bound, which LieType admits
COORDINATE_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    + [(family, 64) for family in "ABCD"]
)


def test_every_root_and_coroot_coordinate_is_a_digit_at_most_six():
    # the describe table renders each coordinate as one decimal digit
    largest = {}
    for family, rank in COORDINATE_TYPES:
        # uncached: the rank-64 data would otherwise stay alive for the whole session
        datum = _root_datum.__wrapped__(LieType(family, rank))
        coords = [c for b in datum.positive_roots for c in b.root_coords + b.coroot_coords]
        assert min(coords) >= 0
        largest[family, rank] = max(coords)
    assert max(largest.values()) == largest["E", 8] == 6


# every A-D rank from the family's minimum up to 16, and every eighth rank from 24 to the bound
CLOSED_FORM_TYPES = [
    (family, rank)
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in [*range(lo, 17), *range(24, 65, 8)]
]


def test_closed_form_matches_the_closure():
    # A-D come from closed forms; the closure under the raising reflections, which builds
    # E, F and G, must give the same roots and coroots in the same order
    for family, rank in CLOSED_FORM_TYPES:
        lie_type = LieType(family, rank)
        # uncached, so that the rank-64 data does not stay alive for the whole session
        closed = _root_datum.__wrapped__(lie_type).positive_roots
        assert list(closed) == _closure(cartan_matrix(lie_type), symmetrizer(lie_type)), lie_type


def test_root_sets_and_cartan_matrices_match_sympy():
    # an oracle from outside the package: sympy's positive roots, in orthonormal
    # coordinates, solved against its simple roots.  sympy has no C2, and its E6-E8 and G2
    # roots do not lie in the lattice of its own simple roots, so those are not compared
    from sympy import Matrix
    from sympy.liealgebras.root_system import RootSystem

    for family, ranks in (("A", range(2, 9)), ("B", range(2, 9)), ("C", range(3, 9)), ("D", range(4, 9))):
        for rank in ranks:
            lie_type = LieType(family, rank)
            system = RootSystem(str(lie_type))
            simple = system.simple_roots()
            basis = Matrix([simple[k] for k in sorted(simple)]).T
            expected = set()
            for root in system.cartan_type.positive_roots().values():
                coords, free = basis.gauss_jordan_solve(Matrix(root))
                assert not free
                expected.add(tuple(int(c) for c in coords))
            assert {r.root_coords for r in build_root_datum(lie_type).positive_roots} == expected
            assert system.cartan_matrix().tolist() == list(map(list, cartan_matrix(lie_type)))
    for lie_type in (LieType("F", 4), LieType("G", 2)):
        assert RootSystem(str(lie_type)).cartan_matrix().tolist() == list(map(list, cartan_matrix(lie_type)))


# the exponents of the exceptional types (Bourbaki, Plates V-IX)
EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def exponents(family, rank):
    """The exponents of a simple type (Bourbaki, Plates I-IX)."""
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in "BC":
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return (*range(1, 2 * rank - 2, 2), rank - 1)
    return EXCEPTIONAL_EXPONENTS[family, rank]


HEIGHT_TYPES = ALL_TYPES + LARGE_TYPES + [(family, rank) for family in "ABCD" for rank in range(24, 65, 8)]


def test_height_partition_is_dual_to_the_exponents():
    # Kostant: the number of positive roots of height k is the number of exponents >= k
    for family, rank in HEIGHT_TYPES:
        # uncached, so that the rank-64 data does not stay alive for the whole session
        heights = Counter(b.height for b in _root_datum.__wrapped__(LieType(family, rank)).positive_roots)
        m = exponents(family, rank)
        assert heights == Counter({k: sum(e >= k for e in m) for k in range(1, max(m) + 1)}), (family, rank)


# the dimensions of the fundamental representations V(varpi_1), ..., V(varpi_n), Bourbaki numbering
FUNDAMENTAL_DIMENSIONS = {
    ("E", 6): (27, 78, 351, 2925, 351, 27),
    ("E", 7): (133, 912, 8645, 365750, 27664, 1539, 56),
    ("E", 8): (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248),
    ("F", 4): (52, 1274, 273, 26),
    ("G", 2): (7, 14),
}


def test_weyl_dimension_formula_gives_the_fundamental_representations():
    # dim V(varpi_a) = prod over the positive roots of <varpi_a + rho, beta_coroot> / <rho, beta_coroot>,
    # read off the full flag's pairing table P[beta][a] and Weyl row w[beta]
    for (family, rank), dims in FUNDAMENTAL_DIMENSIONS.items():
        flag = make_flag(build_root_datum(LieType(family, rank)))
        for a, dim in enumerate(dims):
            weyl = prod(Fraction(p[a] + w, w) for p, w in zip(flag.pairing_table, flag.weyl_row))
            assert weyl == dim, (family, rank, a + 1)
