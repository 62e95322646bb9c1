import random
from dataclasses import replace
from fractions import Fraction

import pytest

import flagcy.flag_geometry as flag_geometry
from flagcy import (
    BalancedDatum,
    DimensionMismatch,
    InvalidParameter,
    InvariantClass,
    LineBundleClass,
    NotKahler,
    NotPrimitive,
    NotProportional,
    OddCount,
    PicardRankOne,
    TrivialBundle,
    anticanonical_class,
    build_balanced,
    build_t_gauduchon,
    class_from_coeffs,
    degree,
    fano_index,
    lee_form_coefficients,
    lefschetz_contraction,
    primitive_basis,
    ricci_class,
    ricci_flat_scale,
    verify_c1_trivial,
    verify_coclosed,
    verify_ricci_flat,
)
from conftest import flag_of, grid_flags

F = Fraction

K_VALUES = (-2, -1, 1, 2)
T_VALUES = (F(-1), F(0), F(1, 2))


def degree_zero_bundles(flag, odd):
    """2r-1 or 2r summands drawn from the two-term degree-zero generators."""
    basis = list(primitive_basis(flag, anticanonical_class(flag)).basis)
    if (len(basis) % 2 == 1) != odd:
        basis.append(basis[0].scaled(2))
    return basis


def test_ricci_flat_scale_frozen_values():
    flag = flag_of("A", 2)
    for k in (1, -1, 2, -2):
        for t in T_VALUES:
            assert ricci_flat_scale(flag, k, t) == F(3, 8) * (1 - t) * k * k
    # the scale is linear in (1 - t)
    assert ricci_flat_scale(flag, 1, F(0)) == 2 * ricci_flat_scale(flag, 1, F(1, 2))
    assert ricci_flat_scale(flag_of("A", 3), 2, F(-1)) == 6


def test_ricci_flat_scale_rejects_bad_parameters():
    flag = flag_of("A", 2)
    with pytest.raises(InvalidParameter):
        ricci_flat_scale(flag, 0, F(0))
    with pytest.raises(InvalidParameter):
        ricci_flat_scale(flag, 1, F(1))
    with pytest.raises(InvalidParameter):
        ricci_flat_scale(flag, 1, F(3, 2))
    with pytest.raises(InvalidParameter):
        ricci_flat_scale(flag, 1.5, 0)  # not truncated to k = 1
    for t in (float("nan"), float("inf"), "x"):
        with pytest.raises(InvalidParameter):
            ricci_flat_scale(flag, 1, t)


def test_build_t_gauduchon_a2():
    flag = flag_of("A", 2)
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))
    assert datum.scale == F(3, 4)
    assert len(datum.psi) == 2
    assert datum.omega0.two_pi_power == 1
    assert datum.omega0.coeffs == (F(3, 2), F(3, 2))
    assert datum.psi[0].two_pi_power == 1
    assert datum.psi[0].coeffs == (F(1), F(1))
    assert datum.psi[1].coeffs == (F(-1), F(1))


def test_build_t_gauduchon_rejections():
    flag = flag_of("A", 2)
    xi = degree_zero_bundles(flag, odd=True)[0]
    with pytest.raises(TrivialBundle) as err:
        build_t_gauduchon(flag, 1, F(0), [LineBundleClass((0, 0))])
    assert err.value.index == 1
    with pytest.raises(NotPrimitive) as err:
        build_t_gauduchon(flag, 1, F(0), [LineBundleClass((1, 0))])
    assert err.value.index == 1
    with pytest.raises(InvalidParameter):
        build_t_gauduchon(flag, 0, F(0), [xi])
    with pytest.raises(InvalidParameter):
        build_t_gauduchon(flag, 1.7, F(0), [xi])  # not truncated to k = 1
    with pytest.raises(InvalidParameter):
        build_t_gauduchon(flag, 1, F(1), [xi])
    for t in (float("nan"), float("inf"), "x"):
        with pytest.raises(InvalidParameter):
            build_t_gauduchon(flag, 1, t, [xi], diagnostic=True)
    with pytest.raises(InvalidParameter):
        build_t_gauduchon(flag, 1, F(0), [xi, xi])  # even count
    with pytest.raises(PicardRankOne):
        build_t_gauduchon(flag_of("A", 2, [2]), 1, F(0), [])


def test_verify_ricci_flat_zero_for_built_data():
    flag = flag_of("A", 2)
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))
    assert verify_ricci_flat(datum).is_zero


def test_verify_ricci_flat_reports_scale_mismatch():
    flag = flag_of("A", 2)
    bundles = degree_zero_bundles(flag, odd=True)
    good = build_t_gauduchon(flag, 1, F(-1), bundles)
    doubled = replace(good, scale=2 * good.scale, omega0=good.omega0.scaled(2))
    assert verify_ricci_flat(doubled) == ricci_class(flag).scaled(F(1, 2))


def test_verify_ricci_flat_skips_only_zero_contractions():
    flag = flag_of("A", 3)
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))
    off = replace(datum, t=F(0))
    residual = verify_ricci_flat(off)
    assert not residual.is_zero
    # a degree-zero term at another power of 2*pi adds the zero class
    other_power = InvariantClass(2, datum.psi[1].coeffs)
    for d, expected in ((datum, verify_ricci_flat(datum)), (off, residual)):
        shifted = replace(d, psi=(d.psi[0], other_power, *d.psi[2:]))
        assert verify_ricci_flat(shifted) == expected
    # a term with nonzero contraction at another power is still a mismatch
    first = InvariantClass(2, datum.psi[0].coeffs)
    with pytest.raises(DimensionMismatch):
        verify_ricci_flat(replace(datum, psi=(first, *datum.psi[1:])))


def test_verify_ricci_flat_chern_parameter_residual():
    flag = flag_of("A", 2)
    datum = build_t_gauduchon(flag, 1, F(1), degree_zero_bundles(flag, odd=True), diagnostic=True)
    assert verify_ricci_flat(datum) == ricci_class(flag)


def test_verify_c1_trivial_values():
    flag = flag_of("A", 2)
    bundles = degree_zero_bundles(flag, odd=True)
    assert verify_c1_trivial(build_t_gauduchon(flag, 1, F(-1), bundles)) == 2
    assert verify_c1_trivial(build_t_gauduchon(flag, -2, F(0), bundles)) == -1
    index = fano_index(flag)
    assert verify_c1_trivial(build_t_gauduchon(flag, index, F(0), bundles)) == 1


def test_verify_c1_trivial_rejections():
    flag = flag_of("A", 2)
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))

    def first(power, coeffs):
        return replace(datum, psi=(InvariantClass(power, coeffs),) + datum.psi[1:])

    for power, coeffs in [(1, (1, 0)), (1, (1, 2)), (1, (0, 0)), (0, (1, 2))]:
        with pytest.raises(NotProportional, match="not proportional"):
            verify_c1_trivial(first(power, coeffs))
    with pytest.raises(NotProportional, match="wrong 2\\*pi power"):
        verify_c1_trivial(first(0, (1, 1)))
    # diagnostic data assembled directly may carry no curvature class at all
    with pytest.raises(NotProportional, match="no first curvature class"):
        verify_c1_trivial(replace(datum, psi=()))
    assert verify_c1_trivial(first(1, (-3, -3))) == F(-2, 3)


def test_contraction_scale_relation():
    # the first curvature class contracts to k * dim / (scale * index)
    for flag in (flag_of("A", 2), flag_of("B", 3), flag_of("D", 4, [1])):
        bundles = degree_zero_bundles(flag, odd=True)
        n, index = flag.dim_c, fano_index(flag)
        for k in K_VALUES:
            for t in T_VALUES:
                datum = build_t_gauduchon(flag, k, t, bundles)
                lam1 = lefschetz_contraction(flag, datum.omega0, datum.psi[0])[0]
                assert lam1 * datum.scale == F(k * n, index)


def test_ricci_flat_grid_spot_check():
    for flag in (flag_of("A", 3, [2]), flag_of("C", 4, [1, 3]), flag_of("D", 4)):
        bundles = degree_zero_bundles(flag, odd=True)
        for k in K_VALUES:
            for t in T_VALUES:
                datum = build_t_gauduchon(flag, k, t, bundles)
                assert verify_ricci_flat(datum).is_zero
                assert verify_c1_trivial(datum) == F(fano_index(flag), k)


def test_hym_condition_for_degree_zero_summands():
    # every curvature class past the first contracts to zero exactly
    for flag in grid_flags():
        bundles = degree_zero_bundles(flag, odd=True)
        datum = build_t_gauduchon(flag, 1, F(0), bundles)
        assert all(
            lefschetz_contraction(flag, datum.omega0, p)[0] == 0 for p in datum.psi[1:]
        )


def test_build_balanced_a2():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    bundles = [LineBundleClass((-1, 1)), LineBundleClass((-2, 2))]
    datum = build_balanced(flag, theta, bundles)
    assert verify_coclosed(datum) == (F(0), F(0))
    assert lee_form_coefficients(flag, datum.psi, datum.omega0) == (F(0), F(0))


def test_build_balanced_rejections():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    with pytest.raises(NotPrimitive) as err:
        build_balanced(flag, theta, [LineBundleClass((1, 1)), LineBundleClass((-1, 1))])
    assert err.value.index == 1
    with pytest.raises(OddCount):
        build_balanced(flag, theta, [LineBundleClass((-1, 1))])
    with pytest.raises(OddCount):
        build_balanced(flag, theta, [])
    with pytest.raises(PicardRankOne):
        build_balanced(flag_of("A", 2, [2]), anticanonical_class(flag_of("A", 2, [2])), [])
    with pytest.raises(NotKahler):
        build_balanced(flag, class_from_coeffs(flag, [-1, 1]), [])


def test_balanced_accepts_arbitrary_kahler_base():
    # base class (1, 2): contractions of the generators are 4/3 and 5/6, so
    # the degree-zero condition is 8a + 5b = 0 with primitive solution (5, -8)
    flag = flag_of("A", 2)
    omega = class_from_coeffs(flag, [1, 2])
    found = LineBundleClass((5, -8))
    assert lefschetz_contraction(flag, omega, found.to_class())[0] == 0
    datum = build_balanced(flag, omega, [found, found.scaled(2)])
    assert verify_coclosed(datum) == (F(0), F(0))
    # the same class is not degree zero for the anticanonical base
    assert lefschetz_contraction(flag, anticanonical_class(flag), found.to_class())[0] != 0


def test_verify_coclosed_diagnostic_entries():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    primitive = class_from_coeffs(flag, [-1, 1])
    datum = BalancedDatum(flag, theta, (theta, primitive))
    assert verify_coclosed(datum) == (F(3), F(0))
    mixed = BalancedDatum(flag, theta, (class_from_coeffs(flag, [1, 0]), primitive))
    assert verify_coclosed(mixed) == (F(3, 4), F(0))


def test_lee_form_coefficients():
    flag = flag_of("A", 2)
    theta = anticanonical_class(flag)
    n = flag.dim_c
    assert lee_form_coefficients(flag, [theta, theta], theta) == (F(n), F(-n))
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))
    lam1 = lefschetz_contraction(flag, datum.omega0, datum.psi[0])[0]
    assert lee_form_coefficients(flag, datum.psi, datum.omega0) == (F(0), -lam1)
    with pytest.raises(OddCount):
        lee_form_coefficients(flag, [theta], theta)
    with pytest.raises(NotKahler):
        lee_form_coefficients(flag, [theta, theta], class_from_coeffs(flag, [0, 1]))


def test_each_bundle_is_checked_trivial_then_length_then_primitive():
    flag = flag_of("A", 4)
    theta = anticanonical_class(flag)
    s = flag_geometry._reference_weights(flag, theta).sums
    odd, even = degree_zero_bundles(flag, odd=True), degree_zero_bundles(flag, odd=False)

    def gauduchon(first, *rest):
        return build_t_gauduchon(flag, 1, F(-1), [first, *rest, *odd[1 + len(rest):]])

    def balanced(first):
        return build_balanced(flag, theta, [first, *even[1:]])

    # a zero bundle of the wrong length is trivial before it is too long
    zero_long = LineBundleClass((0,) * 5)
    with pytest.raises(TrivialBundle) as err:
        gauduchon(zero_long)
    assert err.value.index == 1
    with pytest.raises(DimensionMismatch):
        balanced(zero_long)
    # bundle 1 is checked in full before bundle 2
    with pytest.raises(NotPrimitive) as err:
        gauduchon(LineBundleClass((1, 0, 0, 0)), LineBundleClass((0, 0, 0, 0)))
    assert err.value.index == 1
    # a short bundle is too short whatever its truncated product with S:
    # zero, so skipping the length check would accept it, or nonzero, so
    # testing primitivity first would call it not primitive
    for short in (LineBundleClass((s[1], -s[0], 0)), LineBundleClass((1, 0, 0))):
        for build in (gauduchon, balanced):
            with pytest.raises(DimensionMismatch):
                build(short)


def test_builders_accept_exactly_the_bundles_of_contraction_zero():
    # the builders decide c . S = 0 in ints; the oracle contracts the
    # bundle's Fraction class, and the curvature class is that class times 2*pi
    rng = random.Random(1616)
    verdicts = set()
    for flag in [*grid_flags(), flag_of("E", 6), flag_of("F", 4), flag_of("G", 2)]:
        rho, theta = flag.picard_rank, anticanonical_class(flag)
        seeded = class_from_coeffs(flag, [F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(rho)])
        for omega in (theta, seeded):
            basis = primitive_basis(flag, omega).basis
            vectors = [[rng.randint(-4, 4) for _ in range(rho)] for _ in range(3)]
            for _ in range(3):
                ms = [rng.randint(-3, 3) for _ in basis]
                vectors.append([sum(m * xi.coeffs[i] for m, xi in zip(ms, basis)) for i in range(rho)])
            for bundle in map(LineBundleClass, filter(any, vectors)):
                primitive = lefschetz_contraction(flag, omega, bundle.to_class())[0] == 0
                psi = bundle.to_class().times_two_pi()
                runs = [(lambda: build_balanced(flag, omega, [bundle, bundle]).psi, (psi, psi))]
                if omega is theta:
                    runs.append((lambda: build_t_gauduchon(flag, 1, F(-1), [bundle]).psi[1:], (psi,)))
                for run, expected in runs:
                    if primitive:
                        assert run() == expected
                    else:
                        with pytest.raises(NotPrimitive):
                            run()
                verdicts.add(primitive)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "call",
    [
        lambda flag, long: lefschetz_contraction(flag, anticanonical_class(flag), long.to_class()),
        lambda flag, long: degree(flag, long.to_class(), anticanonical_class(flag)),
        lambda flag, long: build_balanced(flag, anticanonical_class(flag), [long, long]),
        lambda flag, long: build_t_gauduchon(flag, 1, F(-1), [long]),
    ],
    ids=["lefschetz_contraction", "degree", "build_balanced", "build_t_gauduchon"],
)
def test_class_one_coefficient_too_long_is_a_dimension_mismatch(call):
    # the first rho coefficients form a degree-zero bundle, so a contraction
    # that truncated the class to the flag's Picard rank would find nothing wrong
    flag = flag_of("A", 3)
    xi = degree_zero_bundles(flag, odd=True)[0]
    with pytest.raises(DimensionMismatch):
        call(flag, LineBundleClass(xi.coeffs + (1,)))


def test_each_reference_ray_is_paired_once(monkeypatch):
    # a builder, its verifier and the Lee form share one reference ray, so the
    # chain pairs it with the table once (one _ray miss) however many bundles
    # there are; the curvature classes contract through its column sums and
    # never reach the table
    rays, paired = [], []
    ray_cache, pairings = flag_geometry._ray, flag_geometry._pairings

    def counted_ray(table, ray):
        rays.append(ray)
        return ray_cache(table, ray)

    def counted_pairings(flag, c):
        paired.append(c)
        return pairings(flag, c)

    monkeypatch.setattr(flag_geometry, "_ray", counted_ray)
    monkeypatch.setattr(flag_geometry, "_pairings", counted_pairings)
    flag = flag_of("A", 4)
    # a non-primitive reference: the ray is omega / 2
    omega = class_from_coeffs(flag, [2, 4, 6, 8])
    bundles = list(primitive_basis(flag, omega).basis)
    bundles.append(bundles[0].scaled(2))
    odd = degree_zero_bundles(flag, odd=True)

    def balanced_chain():
        balanced = build_balanced(flag, omega, bundles)
        assert not any(verify_coclosed(balanced))
        lee_form_coefficients(flag, balanced.psi, omega)

    def gauduchon_chain():
        # the builder pairs c_1, the verifier and the Lee form scale * c_1
        gauduchon = build_t_gauduchon(flag, 1, F(-1), odd)
        assert verify_ricci_flat(gauduchon).is_zero
        lee_form_coefficients(flag, gauduchon.psi, gauduchon.omega0)

    anticanonical_ray = tuple(c // fano_index(flag) for c in flag.anticanonical)
    for chain, ray in ((balanced_chain, (1, 2, 3, 4)), (gauduchon_chain, anticanonical_ray)):
        ray_cache.cache_clear()
        rays.clear()
        chain()
        assert rays == [ray] * 3
        assert ray_cache.cache_info().misses == 1
    assert paired == []
