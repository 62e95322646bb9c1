import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

import pytest

import flagcy
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
    anticanonical_class,
    build_balanced,
    build_root_datum,
    build_t_gauduchon,
    class_from_coeffs,
    degree,
    endomorphism_eigenvalues,
    fano_index,
    integer_combination,
    is_kahler,
    lee_form_coefficients,
    lefschetz_contraction,
    make_flag,
    primitive_basis,
    ricci_class,
    volume,
)
from conftest import flag_of, grid_flags

F = Fraction


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
    ],
)
def test_wrong_object_input_is_a_typed_error(call, error):
    # a non-class, a plain tuple for a bundle, an out-of-range point or an
    # unhashable family ends in a FlagcyError, never in a raw Python error
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


def test_every_cache_is_a_module_level_function_with_cache_clear():
    # a cold benchmark pass clears every module attribute of flagcy that has
    # cache_clear; a cache on a method or in a closure would stay warm
    declared = {}
    for info in pkgutil.iter_modules(flagcy.__path__):
        module = importlib.import_module(f"flagcy.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for a in node.names
            if a.name in ("cache", "lru_cache")
        }

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
    assert {"flag_geometry._ray", "root_system.build_root_datum", "cli._parser"} <= declared.keys()
    # the per-ray cache has a fixed bound
    assert flag_geometry._ray.cache_info().maxsize is not None
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
