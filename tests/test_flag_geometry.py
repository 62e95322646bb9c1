import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import random
from collections import Counter, namedtuple
from dataclasses import asdict, fields, replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

import numpy as np
import pytest

import flagcy
import flagcy.cli as cli
import flagcy.flag_geometry as flag_geometry
from flagcy import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidRank,
    InvariantClass,
    LieType,
    LineBundleClass,
    NotKahler,
    ParabolicFlag,
    PositiveRoot,
    anticanonical_class,
    build_balanced,
    build_root_datum,
    build_t_gauduchon,
    cartan_matrix,
    class_from_coeffs,
    degree,
    endomorphism_eigenvalues,
    fano_index,
    integer_combination,
    is_kahler,
    lee_form_coefficients,
    lefschetz_contraction,
    make_flag,
    numeric_form_at_origin,
    positive_root_count,
    primitive_basis,
    ricci_class,
    ricci_flat_scale,
    symmetrizer,
    verify_c1_trivial,
    verify_coclosed,
    verify_ricci_flat,
    volume,
)
from conftest import flag_of, grid_flags

F = Fraction


def _gauduchon(flag):
    return build_t_gauduchon(flag, 1, -1, [LineBundleClass((-1, 1))])


def small_flags(max_rank=5):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3), ("F", 4), ("G", 2)):
        hi = 4 if family == "F" else (2 if family == "G" else max_rank)
        for rank in range(lo, hi + 1):
            datum = build_root_datum(LieType(family, rank))
            for size in range(rank):
                for parabolic in combinations(range(1, rank + 1), size):
                    yield make_flag(datum, parabolic)


def reference_pairings(flag, c):
    """<c, beta_coroot> for each root of phi_complement, as Fractions.

    The class becomes a full-rank weight with zero coefficients on the
    parabolic slots and is paired with every coroot coordinate directly,
    without the flag's pairing table.
    """
    weight = [F(0)] * flag.rank
    for a, v in zip(flag.complement, c.coeffs):
        weight[a - 1] = v
    return [
        sum((w * q for w, q in zip(weight, beta.coroot_coords)), F(0))
        for beta in flag.phi_complement
    ]


def table_pairings(flag, coeffs):
    return [sum(p * c for p, c in zip(row, coeffs)) for row in flag.pairing_table]


def test_make_flag_full_a2():
    flag = flag_of("A", 2)
    assert flag.dim_c == 3
    assert flag.picard_rank == 2
    assert flag.complement == (1, 2)


def test_make_flag_projective_plane():
    flag = flag_of("A", 2, [2])
    assert flag.dim_c == 2
    assert flag.picard_rank == 1
    assert [b.root_coords for b in flag.phi_complement] == [(1, 0), (1, 1)]


def test_make_flag_fields_match_their_definitions():
    # every parabolic subset of every type of rank <= 4, plus F4 and G2,
    # down to Picard rank 1
    seen_rank_one = 0
    for flag in small_flags(max_rank=4):
        datum, complement = flag.datum, flag.complement
        assert complement == tuple(sorted(set(range(1, flag.rank + 1)) - flag.parabolic_set))
        seen_rank_one += len(complement) == 1
        support = lambda beta: {j + 1 for j, m in enumerate(beta.root_coords) if m}
        phi = tuple(beta for beta in datum.positive_roots if support(beta) & set(complement))
        assert flag.phi_complement == phi
        # <varpi_a, beta_coroot> is the a-th coroot coordinate
        assert flag.pairing_table == tuple(
            tuple(beta.coroot_coords[a - 1] for a in complement) for beta in phi
        )
        # rho is the sum of the fundamental weights
        assert flag.weyl_row == tuple(
            sum(beta.coroot_coords[j] for j in range(flag.rank)) for beta in phi
        )
        # the sum of the roots of phi, paired with each simple coroot alpha_a
        assert flag.anticanonical == tuple(
            sum(m * datum.cartan[j][a - 1] for beta in phi for j, m in enumerate(beta.root_coords))
            for a in complement
        )
    assert seen_rank_one > 20


def test_make_flag_projective_line():
    assert flag_of("A", 1).dim_c == 1


def test_make_flag_rejects_bad_indices():
    datum = build_root_datum(LieType("A", 2))
    with pytest.raises(IndexOutOfRange):
        make_flag(datum, [3])
    with pytest.raises(IndexOutOfRange):
        make_flag(datum, [0])
    with pytest.raises(IndexOutOfRange):
        make_flag(datum, [1, 2])  # parabolic set must stay proper
    with pytest.raises(IndexOutOfRange):
        make_flag(datum, [1, 1])  # each index at most once
    with pytest.raises(IndexOutOfRange):
        make_flag(datum, [1.9])  # not truncated to index 1


def test_class_weight_basis_and_zero():
    flag = flag_of("A", 2)
    # the basis class is the fundamental weight (1, 0): it pairs with each
    # root through the first coroot coordinate
    e1 = class_from_coeffs(flag, [1, 0])
    assert table_pairings(flag, e1.coeffs) == [b.coroot_coords[0] for b in flag.phi_complement]
    assert table_pairings(flag, e1.coeffs) == [1, 0, 1]
    assert e1.two_pi_power == 0
    assert table_pairings(flag, class_from_coeffs(flag, [0, 0]).coeffs) == [0, 0, 0]


def test_class_weight_anticanonical():
    flag = flag_of("A", 2)
    # the anticanonical class is the weight (2, 2): twice the Weyl row
    theta = anticanonical_class(flag)
    assert table_pairings(flag, theta.coeffs) == [2 * h for h in flag.weyl_row] == [2, 2, 4]
    rho = ricci_class(flag)
    assert (rho.coeffs, rho.two_pi_power) == (theta.coeffs, 1)


def test_class_weight_fills_parabolic_slots_with_zero():
    flag = flag_of("A", 3, [2])
    c = class_from_coeffs(flag, [5, 7])
    weight = (5, 0, 7)
    expected = [sum(w * q for w, q in zip(weight, b.coroot_coords)) for b in flag.phi_complement]
    assert table_pairings(flag, c.coeffs) == expected == reference_pairings(flag, c)


def test_anticanonical_weight_full_flags_is_twice_weyl():
    for family, rank in [("A", 2), ("A", 3), ("B", 3), ("G", 2)]:
        flag = flag_of(family, rank)
        assert flag.anticanonical == (2,) * rank
        assert table_pairings(flag, flag.anticanonical) == [2 * h for h in flag.weyl_row]


def test_anticanonical_weight_oracle_sum_of_off_parabolic_roots():
    flag = flag_of("A", 3, [2])
    cartan = flag.datum.cartan
    # the five roots meeting {alpha_1, alpha_3}, summed by hand and written
    # in the fundamental-weight basis through the Cartan integers
    expected = [0, 0, 0]
    for coords in [(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]:
        for i in range(3):
            expected[i] += sum(m * cartan[j][i] for j, m in enumerate(coords))
    assert expected == [3, 0, 3]  # zero on the parabolic slot
    assert flag.anticanonical == (expected[0], expected[2]) == (3, 3)


def test_fano_index_values():
    assert fano_index(flag_of("A", 2)) == 2
    assert fano_index(flag_of("A", 1)) == 2
    assert fano_index(flag_of("A", 2, [2])) == 3  # projective plane
    assert fano_index(flag_of("A", 3, [2])) == 3


def test_lefschetz_contraction_frozen_values():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    # 1/2 + 0 + 1/4 over the three roots
    assert lefschetz_contraction(flag, theta, class_from_coeffs(flag, [1, 0])) == (F(3, 4), 0)
    assert lefschetz_contraction(flag, theta, class_from_coeffs(flag, [0, 1])) == (F(3, 4), 0)
    assert lefschetz_contraction(flag, theta, theta) == (F(3), 0)
    primitive = class_from_coeffs(flag, [-1, 1])
    assert lefschetz_contraction(flag, theta, primitive) == (F(0), 0)


def test_lefschetz_contraction_tracks_two_pi_powers():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    rho = ricci_class(flag)
    assert lefschetz_contraction(flag, theta, rho) == (F(3), 1)
    assert lefschetz_contraction(flag, rho, theta) == (F(3), -1)


def test_lefschetz_contraction_is_linear():
    rng = random.Random(5)
    flag = flag_of("B", 3)
    omega = class_from_coeffs(flag, [2, 1, 3])
    for _ in range(25):
        a = F(rng.randint(-6, 6), rng.randint(1, 5))
        b = F(rng.randint(-6, 6), rng.randint(1, 5))
        p1 = class_from_coeffs(flag, [rng.randint(-4, 4) for _ in range(3)])
        p2 = class_from_coeffs(flag, [rng.randint(-4, 4) for _ in range(3)])
        combo = p1.scaled(a) + p2.scaled(b)
        assert (
            lefschetz_contraction(flag, omega, combo)[0]
            == a * lefschetz_contraction(flag, omega, p1)[0]
            + b * lefschetz_contraction(flag, omega, p2)[0]
        )


def test_lefschetz_contraction_scale_covariance():
    flag = flag_of("C", 3)
    omega = anticanonical_class(flag)
    psi = class_from_coeffs(flag, [1, -2, 5])
    base = lefschetz_contraction(flag, omega, psi)[0]
    for s in (F(2), F(1, 3), F(7, 5)):
        assert lefschetz_contraction(flag, omega.scaled(s), psi)[0] == base / s


def test_lefschetz_contraction_requires_kahler():
    flag = flag_of("A", 2)
    e1 = class_from_coeffs(flag, [1, 0])
    with pytest.raises(NotKahler):
        lefschetz_contraction(flag, class_from_coeffs(flag, [-1, 1]), e1)
    with pytest.raises(NotKahler):
        lefschetz_contraction(flag, class_from_coeffs(flag, [0, 0]), e1)


def test_eigenvalues_frozen_values():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    e1 = class_from_coeffs(flag, [1, 0])
    assert endomorphism_eigenvalues(flag, theta, e1) == (F(1, 2), F(0), F(1, 4))
    assert endomorphism_eigenvalues(flag, theta, theta) == (F(1), F(1), F(1))
    primitive = class_from_coeffs(flag, [-1, 1])
    assert endomorphism_eigenvalues(flag, theta, primitive) == (F(-1, 2), F(1, 2), F(0))


def test_eigenvalues_sum_to_contraction():
    rng = random.Random(17)
    for flag in (flag_of("A", 3), flag_of("B", 3), flag_of("D", 4, [2])):
        rho = flag.picard_rank
        omega = class_from_coeffs(flag, [rng.randint(1, 6) for _ in range(rho)])
        for _ in range(20):
            psi = class_from_coeffs(flag, [rng.randint(-5, 5) for _ in range(rho)])
            eig = endomorphism_eigenvalues(flag, omega, psi)
            assert sum(eig) == lefschetz_contraction(flag, omega, psi)[0]
            assert len(eig) == flag.dim_c


def test_volume_frozen_values():
    line = flag_of("A", 1)
    assert volume(line, anticanonical_class(line)) == (F(2), 0)
    flag = flag_of("A", 2)
    assert volume(flag, anticanonical_class(flag)) == (F(8), 0)
    plane = flag_of("A", 2, [2])
    assert volume(plane, anticanonical_class(plane)) == (F(9, 2), 0)


def test_volume_homogeneity():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    base = volume(flag, theta)[0]
    n = flag.dim_c
    for s in (F(2), F(1, 3)):
        assert volume(flag, theta.scaled(s))[0] == base * s**n


def test_volume_two_pi_power_bookkeeping():
    flag = flag_of("A", 2)
    assert volume(flag, ricci_class(flag)) == (F(8), 3)


def test_degree_frozen_values():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    assert degree(flag, class_from_coeffs(flag, [1, 0]), theta) == (F(12), 0)
    assert degree(flag, class_from_coeffs(flag, [-1, 1]), theta) == (F(0), 0)


def test_degree_of_anticanonical_is_positive():
    rng = random.Random(3)
    for flag in (flag_of("A", 2), flag_of("B", 2), flag_of("D", 4), flag_of("C", 3, [1])):
        omega = class_from_coeffs(flag, [rng.randint(1, 5) for _ in range(flag.picard_rank)])
        value, _ = degree(flag, anticanonical_class(flag), omega)
        assert value > 0


def test_is_kahler():
    flag = flag_of("A", 2)
    assert is_kahler(flag, anticanonical_class(flag))
    assert not is_kahler(flag, class_from_coeffs(flag, [0, 0]))
    assert not is_kahler(flag, class_from_coeffs(flag, [-1, 1]))


def test_ricci_self_consistency_all_small_flags():
    # the contraction of the anticanonical class against itself is the dimension
    for flag in small_flags():
        theta = anticanonical_class(flag)
        assert lefschetz_contraction(flag, theta, theta) == (F(flag.dim_c), 0)


def test_fano_index_divides_anticanonical_coefficients():
    for flag in small_flags():
        index = fano_index(flag)
        assert all(l % index == 0 for l in flag.anticanonical)


def test_invariant_class_zero_normalizes_power():
    assert InvariantClass(3, (F(0), F(0))) == InvariantClass(0, (F(0), F(0)))
    assert InvariantClass(1, (F(1), F(0))) != InvariantClass(0, (F(1), F(0)))


def test_invariant_class_arithmetic_guards():
    flag = flag_of("A", 2)
    with pytest.raises(DimensionMismatch):
        anticanonical_class(flag) + InvariantClass(0, (F(1),))
    with pytest.raises(DimensionMismatch):
        anticanonical_class(flag) + ricci_class(flag)
    with pytest.raises(InvalidParameter, match="expected an InvariantClass, got None"):
        anticanonical_class(flag) + None
    with pytest.raises(DimensionMismatch):
        lefschetz_contraction(flag, anticanonical_class(flag), InvariantClass(0, (F(1),)))


def test_non_rational_class_input_is_invalid_parameter():
    flag = flag_of("A", 2)
    for bad in (float("nan"), float("inf"), "x", None):
        with pytest.raises(InvalidParameter):
            class_from_coeffs(flag, [bad, 1])
        with pytest.raises(InvalidParameter):
            InvariantClass(0, (bad, F(1)))
        with pytest.raises(InvalidParameter):
            anticanonical_class(flag).scaled(bad)
    for bad in (1.5, F(1, 2), float("nan"), "1", None):
        with pytest.raises(InvalidParameter, match="power of 2\\*pi"):
            InvariantClass(bad, (F(1), F(1)))
    # an integral power of another numeric type is stored as an int
    assert InvariantClass(F(2), (F(1), F(0))) == InvariantClass(2, (F(1), F(0)))
    assert type(InvariantClass(2.0, (F(1), F(0))).two_pi_power) is int
    assert type(InvariantClass(True, (F(1), F(2))).two_pi_power) is int


def test_invariant_class_coefficients_are_exact_fractions():
    # a Fraction is kept as it is; every other rational input is converted
    coeffs = InvariantClass(0, (F(1, 2), 1, "3/4", True)).coeffs
    assert coeffs == (F(1, 2), F(1), F(3, 4), F(1))
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda flag: make_flag(flag.datum, 5), IndexOutOfRange, id="make_flag-int"),
        pytest.param(lambda flag: make_flag(flag.datum, None), IndexOutOfRange, id="make_flag-None"),
        pytest.param(
            lambda flag: class_from_coeffs(flag, None), InvalidParameter, id="class_from_coeffs-None"
        ),
        pytest.param(lambda flag: LineBundleClass(None), InvalidParameter, id="LineBundleClass-None"),
        pytest.param(lambda flag: LineBundleClass(5), InvalidParameter, id="LineBundleClass-int"),
        pytest.param(
            lambda flag: integer_combination(primitive_basis(flag, anticanonical_class(flag)), None),
            InvalidParameter,
            id="integer_combination-None",
        ),
        pytest.param(
            lambda flag: lee_form_coefficients(flag, None, anticanonical_class(flag)),
            InvalidParameter,
            id="lee_form_coefficients-None",
        ),
        pytest.param(
            lambda flag: build_t_gauduchon(flag, 1, -1, None),
            InvalidParameter,
            id="build_t_gauduchon-None",
        ),
        pytest.param(
            lambda flag: build_balanced(flag, anticanonical_class(flag), None),
            InvalidParameter,
            id="build_balanced-None",
        ),
    ],
)
def test_non_iterable_vector_input_is_a_typed_error(call, error):
    with pytest.raises(error):
        call(flag_of("A", 2))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda f, w: lefschetz_contraction(f, w, 5), InvalidParameter, id="lefschetz-int"),
        pytest.param(
            lambda f, w: lefschetz_contraction(f, (1, 1), w), InvalidParameter, id="lefschetz-tuple"
        ),
        pytest.param(lambda f, w: degree(f, 5, w), InvalidParameter, id="degree-int"),
        pytest.param(lambda f, w: volume(f, None), InvalidParameter, id="volume-None"),
        pytest.param(lambda f, w: is_kahler(f, 5), InvalidParameter, id="is_kahler-int"),
        pytest.param(
            lambda f, w: endomorphism_eigenvalues(f, w, "x"), InvalidParameter, id="eigenvalues-str"
        ),
        pytest.param(lambda f, w: lee_form_coefficients(f, [5, 6], w), InvalidParameter, id="lee-ints"),
        pytest.param(lambda f, w: primitive_basis(f, None), InvalidParameter, id="basis-None"),
        pytest.param(lambda f, w: build_balanced(f, w, [5, 6]), InvalidParameter, id="balanced-ints"),
        pytest.param(
            lambda f, w: build_balanced(f, w, [(1, -1), (-1, 1)]), InvalidParameter, id="balanced-tuples"
        ),
        pytest.param(
            lambda f, w: build_t_gauduchon(f, 1, -1, [(-1, 1)]), InvalidParameter, id="gauduchon-tuple"
        ),
        pytest.param(
            lambda f, w: flagcy.unipotent_matrix(f, [10**400, 0, 0]), InvalidParameter, id="chart-huge"
        ),
        pytest.param(
            lambda f, w: flagcy.kahler_potential(f, [1, 1], [10**400, 0, 0]),
            InvalidParameter,
            id="potential-huge",
        ),
        pytest.param(lambda f, w: LieType(["A"], 2), InvalidRank, id="LieType-list"),
        # a root-layer function or make_flag given something that is no LieType or RootDatum
        pytest.param(lambda f, w: build_root_datum("A2"), InvalidRank, id="build_root_datum-str"),
        # an unhashable one too, before the cache hashes it
        pytest.param(lambda f, w: build_root_datum([1]), InvalidRank, id="build_root_datum-list"),
        pytest.param(lambda f, w: build_root_datum({}), InvalidRank, id="build_root_datum-dict"),
        *[
            pytest.param(lambda f, w, call=call: call(None), InvalidRank, id=f"{call.__name__}-None")
            for call in (build_root_datum, cartan_matrix, symmetrizer, positive_root_count)
        ],
        pytest.param(lambda f, w: make_flag(None, ()), InvalidParameter, id="make_flag-None"),
        pytest.param(lambda f, w: make_flag("A2", ()), InvalidParameter, id="make_flag-str"),
        *[
            pytest.param(
                lambda f, w, verify=verify, psi=psi: verify(replace(_gauduchon(f), psi=psi)),
                InvalidParameter,
                id=f"{verify.__name__}-psi-{psi!r}",
            )
            for verify in (verify_ricci_flat, verify_c1_trivial, verify_coclosed)
            for psi in (None, 5)
        ],
        *[
            pytest.param(
                lambda f, w, verify=verify, datum=datum: verify(datum),
                InvalidParameter,
                id=f"{verify.__name__}-{datum!r}",
            )
            for verify in (verify_ricci_flat, verify_c1_trivial, verify_coclosed)
            for datum in (None, 5, ())
        ],
        pytest.param(
            lambda f, w: verify_ricci_flat(build_balanced(f, w, [LineBundleClass((-1, 1))] * 2)),
            InvalidParameter,
            id="verify_ricci_flat-BalancedDatum",
        ),
        *[
            pytest.param(
                lambda f, w, t=t: verify_ricci_flat(replace(_gauduchon(f), t=t)),
                InvalidParameter,
                id=f"verify_ricci_flat-t-{t!r}",
            )
            for t in (None, "x", float("nan"))
        ],
        *[
            pytest.param(
                lambda f, w, verify=verify: verify(replace(_gauduchon(f), flag=None)),
                InvalidParameter,
                id=f"{verify.__name__}-flag-None",
            )
            for verify in (verify_ricci_flat, verify_c1_trivial, verify_coclosed)
        ],
        pytest.param(
            lambda f, w: verify_coclosed(
                replace(build_balanced(f, w, [LineBundleClass((-1, 1))] * 2), flag=5)
            ),
            InvalidParameter,
            id="verify_coclosed-BalancedDatum-flag-5",
        ),
        # text is not a sequence of coefficients or exponents, whatever its characters
        pytest.param(lambda f, w: class_from_coeffs(f, "12"), InvalidParameter, id="class_from_coeffs-str"),
        pytest.param(lambda f, w: InvariantClass(0, "34"), InvalidParameter, id="InvariantClass-str"),
        pytest.param(lambda f, w: LineBundleClass(b"\x01\x02"), InvalidParameter, id="LineBundleClass-bytes"),
        pytest.param(
            lambda f, w: LineBundleClass(bytearray(b"\x01\x02")), InvalidParameter, id="LineBundleClass-bytearray"
        ),
        pytest.param(
            lambda f, w: LineBundleClass(memoryview(b"\x01\x02")), InvalidParameter, id="LineBundleClass-memoryview"
        ),
        # a decimal exponent above 4300 in size, refused before Fraction expands it; a negative
        # t is admissible, so only the bound refuses it
        pytest.param(
            lambda f, w: class_from_coeffs(f, ["1e4301", 1]), InvalidParameter, id="class_from_coeffs-1e4301"
        ),
        pytest.param(lambda f, w: InvariantClass(0, ("1e4301", 1)), InvalidParameter, id="InvariantClass-1e4301"),
        pytest.param(lambda f, w: w.scaled("1e4301"), InvalidParameter, id="scaled-1e4301"),
        pytest.param(
            lambda f, w: class_from_coeffs(f, [Decimal("1e4301"), 1]), InvalidParameter, id="class_from_coeffs-Decimal"
        ),
        pytest.param(
            lambda f, w: InvariantClass(0, (Decimal("-1e-4301"), 1)), InvalidParameter, id="InvariantClass-Decimal"
        ),
        pytest.param(lambda f, w: w.scaled(Decimal("1e4301")), InvalidParameter, id="scaled-Decimal"),
        pytest.param(
            lambda f, w: ricci_flat_scale(f, 1, Decimal("-1e4301")), InvalidParameter, id="ricci_flat_scale-Decimal"
        ),
        pytest.param(lambda f, w: ricci_flat_scale(f, 1, "-1e4301"), InvalidParameter, id="ricci_flat_scale-1e4301"),
        pytest.param(
            lambda f, w: build_t_gauduchon(f, 1, "-1e4301", [LineBundleClass((-1, 1))]),
            InvalidParameter,
            id="build_t_gauduchon-1e4301",
        ),
        pytest.param(
            lambda f, w: verify_ricci_flat(replace(_gauduchon(f), t="-1e4301")),
            InvalidParameter,
            id="verify_ricci_flat-t-1e4301",
        ),
        # a flag built or replaced by hand: its fields are checked once, at construction,
        # so no routine meets text, a list or a row of the wrong length
        *[
            pytest.param(
                lambda f, w, use=use, field=field, value=value: use(replace(f, **{field: value})),
                InvalidParameter,
                id=f"{use.__name__}-{field}-{value!r}",
            )
            for use, field, value in [
                (anticanonical_class, "anticanonical", ("1e999999999", 1)),
                (fano_index, "anticanonical", ("1e999999999", 1)),
                (fano_index, "anticanonical", (2,)),
                (fano_index, "anticanonical", (2, 0)),
                (fano_index, "anticanonical", [2, 2]),
                (fano_index, "anticanonical", (2.0, 2)),
                (fano_index, "anticanonical", (True, 2)),
                (anticanonical_class, "complement", (1,)),
                (anticanonical_class, "complement", (0, 2)),
                (anticanonical_class, "complement", None),
                (anticanonical_class, "datum", None),
                (anticanonical_class, "phi_complement", (None, None, None)),
                (anticanonical_class, "phi_complement", None),
                (anticanonical_class, "weyl_row", ("1", "1", "2")),
                (anticanonical_class, "weyl_row", (1, 1)),
                (anticanonical_class, "weyl_row", (1, 0, 2)),
                (anticanonical_class, "pairing_table", ("10", "01", "11")),
                (anticanonical_class, "pairing_table", ((1, 0), (0, 1))),
                (anticanonical_class, "pairing_table", ((1, 0), (0, 1), (1,))),
                (anticanonical_class, "pairing_table", ((1, 0), (0, 1, 1), (1,))),
                (anticanonical_class, "pairing_table", ([1, 0], (0, 1), (1, 1))),
                (anticanonical_class, "pairing_table", ((1, 0), (0, 1), (0, 0))),
                (anticanonical_class, "pairing_table", ((1, 0), (0, 1), (2, -1))),
                (anticanonical_class, "pairing_table", None),
            ]
        ],
        pytest.param(lambda f, w: ParabolicFlag(*range(7)), InvalidParameter, id="ParabolicFlag-ints"),
    ],
)
def test_wrong_object_input_is_a_typed_error(call, error):
    # a non-class, a plain tuple for a bundle, an out-of-range point, an
    # unhashable family, or a datum that is not one, whose curvature classes
    # are not a sequence, whose t is not a rational or whose flag is not a
    # flag ends in a FlagcyError, never in a raw Python error
    flag = flag_of("A", 2)
    with pytest.raises(error):
        call(flag, anticanonical_class(flag))


def test_table_invariants_match_fraction_reference():
    rng = random.Random(73)
    big = [flag_of("B", 12), flag_of("E", 8), flag_of("F", 4), flag_of("G", 2)]
    for flag in [*small_flags(), *big]:
        rho, n = flag.picard_rank, flag.dim_c
        # a different denominator on every coefficient
        omega = InvariantClass(
            rng.randint(-1, 1), tuple(F(rng.randint(1, 9), i + 2) for i in range(rho))
        )
        psi = InvariantClass(
            rng.randint(-1, 1), tuple(F(rng.randint(-9, 9), 2 * i + 3) for i in range(rho))
        )
        w, p = reference_pairings(flag, omega), reference_pairings(flag, psi)
        heights = tuple(sum(b.coroot_coords) for b in flag.phi_complement)
        eig = tuple(x / y for x, y in zip(p, w))
        lam = sum(eig, F(0))
        vol = prod(y / h for y, h in zip(w, heights))
        power = psi.two_pi_power - omega.two_pi_power
        assert flag.weyl_row == heights
        assert endomorphism_eigenvalues(flag, omega, psi) == eig
        assert lefschetz_contraction(flag, omega, psi) == (lam, power)
        assert volume(flag, omega) == (vol, omega.two_pi_power * n)
        assert degree(flag, psi, omega) == (
            factorial(n - 1) * lam * vol, power + omega.two_pi_power * n
        )
        if rho >= 2:
            # tau * q_a is the degree of the a-th unit class against the
            # minimal integral multiple of omega
            pb = primitive_basis(flag, omega)
            w_int = [lcm(*(c.denominator for c in omega.coeffs)) * y for y in w]
            vol_int = prod(y / h for y, h in zip(w_int, heights))
            for i in range(rho):
                unit = InvariantClass(0, tuple(F(int(j == i)) for j in range(rho)))
                lam_unit = sum((x / y for x, y in zip(reference_pairings(flag, unit), w_int)), F(0))
                assert pb.tau * pb.q[i] == factorial(n - 1) * lam_unit * vol_int


def test_reference_along_a_ray_matches_fraction_oracle():
    # the table pairing is cached per primitive integer ray, so m * omega
    # reads omega's entry; its volume, weights, scale and column sums must
    # still be those of m * omega, derived here in Fractions from the table
    rng = random.Random(1515)
    big = [flag_of("A", 16), flag_of("E", 8), flag_of("F", 4), flag_of("G", 2)]
    for flag in [*grid_flags(), *big]:
        rho, n = flag.picard_rank, flag.dim_c
        omega = InvariantClass(
            rng.randint(-1, 1), tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(rho))
        )
        psi = InvariantClass(0, tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rho)))
        eig = endomorphism_eigenvalues(flag, omega, psi)
        vol = volume(flag, omega)[0]
        for m in (F(1), F(rng.randint(2, 30)), F(rng.randint(1, 30), rng.randint(2, 30))):
            scaled = omega.scaled(m)
            p = [sum((a * c for a, c in zip(row, scaled.coeffs)), F(0)) for row in flag.pairing_table]
            inverse = [1 / y for y in p]
            # the largest rational dividing every 1 / p[b] to an integer
            scale = F(gcd(*(v.numerator for v in inverse)), lcm(*(v.denominator for v in inverse)))
            weights = tuple(v / scale for v in inverse)
            assert all(w.denominator == 1 for w in weights)
            sums = tuple(sum(a * w for a, w in zip(col, weights)) for col in zip(*flag.pairing_table))
            reference = flag_geometry._reference_weights(flag, scaled)
            assert reference == (prod(p) / prod(flag.weyl_row), weights, scale, sums)
            assert type(reference.weights) is type(reference.sums) is tuple
            assert volume(flag, scaled) == (m**n * vol, omega.two_pi_power * n)
            assert endomorphism_eigenvalues(flag, scaled, psi) == tuple(e / m for e in eig)


def _unmemoized_reference(flag, c):
    """The reference of ``c`` straight from the table, past the class's reference memo."""
    return flag_geometry._cleared_reference(flag, *flag_geometry._cleared(flag, c))


def test_pairing_memo_leaves_the_class_as_it_was():
    # pairing stores the integer form and the reference on the class itself;
    # the paired class compares, hashes, prints, converts and pickles as before
    flag = flag_of("A", 3)
    omega = class_from_coeffs(flag, [F(1, 2), 3, F(5, 3)])
    unpaired = (hash(omega), repr(omega), asdict(omega), pickle.dumps(omega))
    assert volume(flag, omega) == volume(flag, class_from_coeffs(flag, [F(1, 2), 3, F(5, 3)]))
    assert "_reference" in vars(omega)
    assert (hash(omega), repr(omega), asdict(omega), pickle.dumps(omega)) == unpaired
    assert omega == class_from_coeffs(flag, [F(1, 2), 3, F(5, 3)])
    for twin in (pickle.loads(pickle.dumps(omega)), copy.copy(omega), copy.deepcopy(omega)):
        assert twin == omega and hash(twin) == hash(omega)
        assert set(vars(twin)) == {f.name for f in fields(InvariantClass)}
        assert flag_geometry._reference_weights(flag, twin) == _unmemoized_reference(flag, omega)


def test_public_flag_constructor_admits_every_flag_make_flag_builds():
    # make_flag builds the flags of the library's own root data without the check, so
    # each must be the flag the checked constructor gives, and the check must admit it
    for flag in [*grid_flags(), *(flag_of(f, r) for f, r in [("A", 24), ("E", 8), ("F", 4), ("G", 2)])]:
        rebuilt = ParabolicFlag(*(getattr(flag, f.name) for f in fields(ParabolicFlag)))
        assert rebuilt == flag and hash(rebuilt) == hash(flag)
        assert set(vars(flag)) == set(vars(rebuilt)) == {f.name for f in fields(ParabolicFlag)}


def test_only_flags_of_the_library_own_root_data_skip_the_check(monkeypatch):
    checked = []
    post_init = ParabolicFlag.__post_init__

    def counted(flag):
        checked.append(flag)
        post_init(flag)

    monkeypatch.setattr(ParabolicFlag, "__post_init__", counted)
    lie_type = LieType("A", 3)
    datum = build_root_datum(lie_type)
    own = make_flag(datum, [2])
    assert checked == []
    # an equal datum that is not the cached one, as after a cache clear, a replaced one,
    # and one whose Lie type is no LieType: each flag is checked, and equal to the trusted one
    leftover = flag_geometry._root_datum.__wrapped__(lie_type)
    assert leftover == datum and leftover is not datum
    FakeType = namedtuple("FakeType", "family rank")
    for other in (leftover, replace(datum), replace(datum, lie_type=FakeType("A", 3))):
        assert make_flag(other, [2]).pairing_table == own.pairing_table
    assert len(checked) == 3
    # so a bad root in a datum the library did not cache is still the check's typed error
    beta = datum.positive_roots[-1]
    bent = PositiveRoot(beta.root_coords, tuple(-c for c in beta.coroot_coords))
    for lie in (lie_type, FakeType("A", 3)):
        bad = replace(datum, lie_type=lie, positive_roots=(*datum.positive_roots[:-1], bent))
        with pytest.raises(InvalidParameter, match="a flag needs a RootDatum"):
            make_flag(bad, [2])


def test_lab_memo_leaves_the_flag_as_it_was():
    # the lab keeps its stencil on the flag; the flag compares, hashes, prints,
    # converts and pickles as before, and pickle and copy carry the fields alone
    flag = flag_of("A", 3, [2])
    plain = (hash(flag), repr(flag), asdict(flag), pickle.dumps(flag))
    H = numeric_form_at_origin(flag, [1, 2])
    assert "_lab" in vars(flag)
    assert (hash(flag), repr(flag), asdict(flag), pickle.dumps(flag)) == plain
    assert flag == flag_of("A", 3, [2])
    assert set(flag.__getstate__()) == {f.name for f in fields(ParabolicFlag)}
    for twin in (pickle.loads(pickle.dumps(flag)), copy.copy(flag), copy.deepcopy(flag)):
        assert twin == flag and hash(twin) == hash(flag)
        assert set(vars(twin)) == {f.name for f in fields(ParabolicFlag)}
        assert np.array_equal(numeric_form_at_origin(twin, [1, 2]), H)


def test_reference_memo_is_kept_for_the_same_flag_object_only():
    omega = InvariantClass(0, (F(2), F(3)))
    # two flags of equal Picard rank: each call gets its own flag's reference
    a3, b3 = flag_of("A", 3, [2]), flag_of("B", 3, [2])
    assert a3.picard_rank == b3.picard_rank
    for flag in (a3, b3, a3, b3, a3):
        assert flag_geometry._reference_weights(flag, omega) == _unmemoized_reference(flag, omega)
    # the same table under another Weyl row is another flag: a fresh volume
    bent = replace(a3, weyl_row=tuple(2 * h for h in a3.weyl_row))
    assert bent.pairing_table == a3.pairing_table
    reference = flag_geometry._reference_weights(bent, omega)
    assert reference == _unmemoized_reference(bent, omega)
    assert reference.vol == _unmemoized_reference(a3, omega).vol / 2**a3.dim_c
    # a paired class still has its type and length checked against each flag
    with pytest.raises(DimensionMismatch):
        volume(flag_of("A", 3), omega)


def test_a_class_that_is_not_kahler_raises_on_every_call():
    flag = flag_of("A", 3)
    omega = InvariantClass(0, (F(1), F(0), F(2)))
    bundles = [LineBundleClass((1, -1, 0)), LineBundleClass((-1, 1, 0))]
    for _ in range(2):
        for call in (volume, lambda f, w: build_balanced(f, w, bundles)):
            with pytest.raises(NotKahler):
                call(flag, omega)
    assert "_reference" not in vars(omega)


def test_trusted_classes_equal_the_public_constructor_on_the_grid():
    # the private constructor skips the intake, and must still give the class
    # the public one gives: Fraction coefficients, an int power, zero at power 0
    rng = random.Random(2828)
    for flag in grid_flags():
        rho = flag.picard_rank
        rows = [flag.anticanonical, [0] * rho]
        rows += [[rng.choice((rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 7))))
                  for _ in range(rho)] for _ in range(3)]
        for coeffs in rows:
            for power in (-1, 0, 1, 2):
                trusted = flag_geometry._trusted(power, coeffs)
                public = InvariantClass(power, tuple(coeffs))
                assert trusted == public and hash(trusted) == hash(public)
                assert type(trusted.two_pi_power) is int
                assert all(type(c) is Fraction for c in trusted.coeffs)
        # and the library's own classes are those the public constructor gives
        theta = InvariantClass(0, flag.anticanonical)
        assert anticanonical_class(flag) == theta
        assert ricci_class(flag) == InvariantClass(1, flag.anticanonical)
        assert theta + theta == theta.scaled(2) == InvariantClass(0, [2 * c for c in theta.coeffs])
        assert theta.times_two_pi() == ricci_class(flag)
        bundle = LineBundleClass([rng.randint(-3, 3) for _ in range(rho)])
        assert bundle.to_class() == InvariantClass(0, bundle.coeffs)
        for c in (anticanonical_class(flag), theta + theta, theta.scaled(F(1, 3)), bundle.to_class()):
            assert all(type(v) is Fraction for v in c.coeffs)
    # it parses nothing: text or a Decimal, say from a hand-built flag, is refused unexpanded
    for bad in ("1e5000", Decimal("1e5000"), 1.5):
        with pytest.raises(TypeError):
            flag_geometry._trusted(0, [bad, 1])


def test_trusted_is_called_only_where_the_library_made_the_values():
    # _trusted skips every input check, so it may only see values the library
    # made: no outside value reaches it from cli or from a public constructor
    allowed = Counter({
        "flag_geometry.InvariantClass.__add__": 1,
        "flag_geometry.InvariantClass.scaled": 1,
        "flag_geometry.InvariantClass.times_two_pi": 1,
        "flag_geometry.anticanonical_class": 1,
        "flag_geometry.ricci_class": 1,
        "bundle_constructor._curvature_classes": 1,
        "bundle_constructor.build_t_gauduchon": 2,
        "bundle_constructor.verify_ricci_flat": 1,
        "picard_lattice.LineBundleClass.to_class": 1,
    })
    calls, names = Counter(), Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_trusted":
                calls[inner] += 1
            if isinstance(child, ast.Name) and child.id == "_trusted":
                names[module] += 1
            visit(child, module, inner)

    for info in pkgutil.iter_modules(flagcy.__path__):
        visit(ast.parse(inspect.getsource(importlib.import_module(f"flagcy.{info.name}"))), info.name, info.name)
    assert calls == allowed
    # every other mention of the name is an import: no module passes it on
    assert sum(names.values()) == sum(allowed.values())
    assert not hasattr(flagcy, "_trusted")
    assert "_trusted" not in vars(importlib.import_module("flagcy.cli"))


def test_object_new_builds_only_the_library_own_objects():
    # object.__new__ skips a class's checks: _trusted builds the library's own classes,
    # and make_flag the flags of the library's own root data, and nothing else does
    built = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__new__":
                built[inner, ast.unparse(child.args[0])] += 1
            visit(child, inner)

    for info in pkgutil.iter_modules(flagcy.__path__):
        visit(ast.parse(inspect.getsource(importlib.import_module(f"flagcy.{info.name}"))), info.name)
    assert built == {("flag_geometry._trusted", "InvariantClass"): 1,
                     ("flag_geometry.make_flag", "ParabolicFlag"): 1}


def _object_memos(tree, module, cached_property):
    """Each memo a module keeps on an object, by name; an unnamed one fails."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    dataclass_fields = {
        stmt.target.id
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }

    def key(node):
        # the constant that node (an object's __dict__ or vars()) is keyed by
        up = parents[node]
        if isinstance(up, ast.Subscript) and up.value is node:
            assert isinstance(up.slice, ast.Constant), ast.unparse(up)
            return up.slice.value
        assert isinstance(up, ast.Attribute) and up.attr in ("get", "setdefault"), ast.unparse(up)
        call = parents[up]
        assert isinstance(call.args[0], ast.Constant), ast.unparse(call)
        return call.args[0].value

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == cached_property or (
            isinstance(node, ast.Attribute) and node.attr == "cached_property"
        ):
            method, owner = parents[node], parents[parents[node]]
            assert isinstance(method, ast.FunctionDef) and node in method.decorator_list
            assert isinstance(owner, ast.ClassDef), method.name
            found.add(f"{module}.{owner.name}.{method.name}")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.add(f"{module}.__dict__[{key(node)!r}]")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
            up = parents[node]  # reading the whole of vars() keeps nothing
            if isinstance(up, ast.Subscript) or isinstance(up, ast.Attribute) and up.attr not in (
                "items", "keys", "values"
            ):
                found.add(f"{module}.__dict__[{key(node)!r}]")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            name = node.args[1]
            assert isinstance(name, ast.Constant) and name.value in dataclass_fields, ast.unparse(node)
    return found


def test_every_cache_is_a_module_level_function_with_cache_clear():
    # a cold benchmark pass clears each attribute with cache_clear of the flagcy
    # modules imported when the benchmark starts; a cache on a method or in a
    # closure would stay warm, and so would one in potential_lab, which loads
    # only with the numeric lab, so it declares none.  The only other memos are
    # the two that InvariantClass keeps on itself and the lab's stencil on a
    # flag, which dies with the flag (cli._flag is cleared), found by name: a
    # cached_property, or a constant key into an object's __dict__ or vars();
    # object.__setattr__ may set dataclass fields only
    declared, memos = {}, set()
    for info in pkgutil.iter_modules(flagcy.__path__):
        module = importlib.import_module(f"flagcy.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        functools_names = {
            a.name: a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for a in node.names
        }
        aliases = {functools_names[n] for n in ("cache", "lru_cache") if n in functools_names}
        memos |= _object_memos(tree, info.name, functools_names.get("cached_property"))

        def uses(node):
            return sum(
                isinstance(x, ast.Name) and x.id in aliases
                or isinstance(x, ast.Attribute) and x.attr in ("cache", "lru_cache")
                and isinstance(x.value, ast.Name) and x.value.id == "functools"
                for x in ast.walk(node)
            )

        for stmt in tree.body:
            if not uses(stmt):
                continue
            if isinstance(stmt, ast.FunctionDef):
                assert uses(stmt) == sum(map(uses, stmt.decorator_list)), stmt.name
                name = stmt.name
            else:
                assert isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
                name = stmt.targets[0].id
            declared[f"{info.name}.{name}"] = getattr(module, name)
    assert {"flag_geometry._ray", "root_system._root_datum", "cli._parser", "cli._commands",
            "cli._flag", "cli._root_rows"} <= declared.keys()
    assert not [name for name in declared if name.startswith("potential_lab.")]
    assert memos == {
        "flag_geometry.InvariantClass._integer_form",
        "flag_geometry.__dict__['_reference']",
        "potential_lab.__dict__['_lab']",
    }
    # and both live on an InvariantClass once it is paired
    flag = flag_of("A", 2)
    omega = InvariantClass(0, (F(1), F(2)))
    volume(flag, omega)
    assert set(vars(omega)) - {f.name for f in fields(InvariantClass)} == {"_integer_form", "_reference"}
    # the lab's memo lives on the flag it was computed for
    numeric_form_at_origin(flag, [1, 2])
    assert set(vars(flag)) - {f.name for f in fields(ParabolicFlag)} == {"_lab"}
    # the per-ray cache, the CLI's flag cache, its one-pass tables and its rows have fixed bounds
    assert flag_geometry._ray.cache_info().maxsize is not None
    assert cli._flag.cache_info().maxsize == 64
    assert cli._commands.cache_info().maxsize == 1  # one parser's tables
    assert cli._root_rows.cache_info().maxsize == 16  # the rows of 16 Lie types
    for cached in declared.values():
        cached.cache_clear()
        assert cached.cache_info().currsize == 0


def test_no_module_imports_a_name_it_never_uses():
    # __init__ re-exports what it imports, and pkgutil does not list it
    unused = []
    for info in pkgutil.iter_modules(flagcy.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"flagcy.{info.name}")))
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{info.name}.{name}" for name in sorted(imported - used)]
    assert unused == []
