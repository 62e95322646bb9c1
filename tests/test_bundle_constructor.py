import random
from dataclasses import replace
from fractions import Fraction

import pytest

import flagcy.bundle_constructor as bundle_constructor
import flagcy.flag_geometry as flag_geometry
from flagcy import (
    BalancedDatum,
    DimensionMismatch,
    FlagcyError,
    GauduchonDatum,
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


@pytest.mark.parametrize("t", [F(-1), F(0), F(1)])
def test_verify_ricci_flat_power_rule_ignores_the_order_of_psi(t):
    # at t = -1 the Ricci class and the first term cancel, so a partial sum
    # that is zero must not adopt the power of the class that follows it
    flag = flag_of("A", 3)
    datum = build_t_gauduchon(flag, 1, t, degree_zero_bundles(flag, odd=True), diagnostic=True)
    x = InvariantClass(2, (1, 0, 0))
    assert lefschetz_contraction(flag, datum.omega0, x)[0] != 0
    for psi in ((datum.psi[0], x), (x, datum.psi[0]), (*datum.psi, x), (x, *datum.psi)):
        with pytest.raises(DimensionMismatch):
            verify_ricci_flat(replace(datum, psi=psi))


@pytest.mark.parametrize("power", [0, 2])
def test_verify_ricci_flat_rejects_a_base_class_off_power_one(power):
    # each term value_j * psi_j sits at 2*pi power 2 p(psi_j) - p(omega0), so
    # only a base class at power 1 puts it at the Ricci class's power
    flag = flag_of("A", 3)
    datum = build_t_gauduchon(flag, 1, F(-1), degree_zero_bundles(flag, odd=True))
    assert verify_ricci_flat(datum).is_zero
    with pytest.raises(DimensionMismatch, match="base class"):
        verify_ricci_flat(replace(datum, omega0=InvariantClass(power, datum.omega0.coeffs)))


def test_verify_ricci_flat_reads_a_float_t_exactly():
    # as the builder does: t = 0.1 is the exact rational Fraction(0.1), not 1/10
    flag = flag_of("A", 3)
    datum = build_t_gauduchon(flag, 1, 0.1, degree_zero_bundles(flag, odd=True))
    assert datum.t == F(0.1) != F(1, 10)
    assert verify_ricci_flat(datum).is_zero
    residual = verify_ricci_flat(replace(datum, t=0.1, scale=F(1), omega0=ricci_class(flag)))
    assert residual == verify_ricci_flat(replace(datum, t=F(0.1), scale=F(1), omega0=ricci_class(flag)))
    assert not residual.is_zero
    assert all(type(c) is F for c in residual.coeffs)


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
    # on full A3 (anticanonical (2, 2, 2)) a first class of the wrong length
    # is not cut to its proportional part, and a non-class is a typed error,
    # as in verify_ricci_flat
    a3 = flag_of("A", 3)
    a3_datum = build_t_gauduchon(a3, 1, F(-1), degree_zero_bundles(a3, odd=True))
    for bad, error in [
        (InvariantClass(1, (2,)), DimensionMismatch),
        (InvariantClass(1, (1, 1, 1, 5)), DimensionMismatch),
        (InvariantClass(1, (0, 0)), DimensionMismatch),
        ("x", InvalidParameter),
        (None, InvalidParameter),
        (a3_datum.psi[0].coeffs, InvalidParameter),
    ]:
        for verify in (verify_c1_trivial, verify_ricci_flat):
            with pytest.raises(error):
                verify(replace(a3_datum, psi=(bad, *a3_datum.psi[1:])))


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
    # a builder, its verifier and the Lee form share one reference class, whose
    # memo holds its pairing, so the chain looks its ray up once (one _ray miss)
    # however many bundles there are; the curvature classes contract through its
    # column sums and never reach the table
    rays = []
    ray_cache = flag_geometry._ray

    def counted_ray(table, ray):
        rays.append(ray)
        return ray_cache(table, ray)

    monkeypatch.setattr(flag_geometry, "_ray", counted_ray)
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
        assert rays == [ray]
        assert ray_cache.cache_info().misses == 1
    # nor does the module import the one routine that pairs a class with the
    # table row by row
    assert not hasattr(bundle_constructor, "endomorphism_eigenvalues")


# The verifiers recomputed the earlier way, in Fractions: each contraction
# through lefschetz_contraction, each term as a scaled class added to the
# Ricci class, and the c_1 ratio as a Fraction quotient.


def oracle_ricci_residual(datum):
    residual = ricci_class(datum.flag)
    factor = (datum.t - 1) / 2
    for psi_j in datum.psi:
        value = lefschetz_contraction(datum.flag, datum.omega0, psi_j)[0]
        if value:
            if psi_j.two_pi_power != ricci_class(datum.flag).two_pi_power:
                raise DimensionMismatch("power rule")
            residual = residual + psi_j.scaled(factor * value)
    return residual


def oracle_c1_ratio(datum):
    rho = ricci_class(datum.flag)
    if not datum.psi:
        raise NotProportional("no first class")
    first = datum.psi[0]
    if not isinstance(first, InvariantClass):
        raise InvalidParameter("not a class")
    if len(first.coeffs) != len(rho.coeffs):
        raise DimensionMismatch("length")
    ratio = next((r / f for r, f in zip(rho.coeffs, first.coeffs) if f), None)
    if ratio is None or any(r != ratio * f for r, f in zip(rho.coeffs, first.coeffs)):
        raise NotProportional("not proportional")
    if first.two_pi_power != rho.two_pi_power:
        raise NotProportional("power")
    return ratio


def oracle_coclosed(datum):
    return tuple(lefschetz_contraction(datum.flag, datum.omega0, p)[0] for p in datum.psi)


def oracle_lee(flag, psi, omega0):
    if len(psi) % 2:
        raise OddCount("odd")
    values = [lefschetz_contraction(flag, omega0, p)[0] for p in psi]
    out = []
    for j in range(0, len(values), 2):
        out += [values[j + 1], -values[j]]
    return tuple(out)


def outcome(call, *args):
    """The value of a call, or the type of the FlagcyError it raised."""
    try:
        value = call(*args)
    except FlagcyError as exc:
        return type(exc)
    if isinstance(value, tuple):
        assert all(type(v) is F for v in value)
    return value


def test_verifiers_match_fraction_oracle():
    rng = random.Random(1818)

    def rational(low=-6, high=6):
        return F(rng.randint(low, high), rng.randint(1, 5))

    reached = set()
    for flag in [*grid_flags(), flag_of("E", 6), flag_of("F", 4), flag_of("G", 2)]:
        rho = flag.picard_rank
        odd = degree_zero_bundles(flag, odd=True)
        data = []
        for k in rng.sample((-3, -2, -1, 1, 2, 3), 2):
            for t in (F(rng.randint(-4, 0), rng.randint(1, 3)), F(1)):
                datum = build_t_gauduchon(flag, k, t, odd, diagnostic=True)
                first = datum.psi[0]
                degree_zero = InvariantClass(2, datum.psi[1].coeffs)
                nonzero = InvariantClass(2, first.coeffs)
                pos = rng.randint(0, len(datum.psi))
                data += [
                    datum,
                    replace(datum, t=rational()),
                    replace(datum, t=F(1)),
                    replace(datum, psi=tuple(p.scaled(rational()) for p in datum.psi)),
                    replace(datum, psi=(*datum.psi[:pos], degree_zero, *datum.psi[pos:])),
                    replace(datum, psi=(*datum.psi, nonzero)),
                    replace(datum, psi=(first.scaled(rational(1, 6)), *datum.psi[1:])),
                    replace(datum, psi=(InvariantClass(1, first.coeffs[:-1]), *datum.psi[1:])),
                    replace(datum, psi=(InvariantClass(1, first.coeffs + (1,)), *datum.psi[1:])),
                    replace(datum, psi=(InvariantClass(1, [rational() for _ in range(rho)]), *datum.psi)),
                    replace(datum, psi=("x", *datum.psi[1:])),
                ]
        omega = class_from_coeffs(flag, [rational(1, 12) for _ in range(rho)])
        bundles = list(primitive_basis(flag, omega).basis)
        balanced = build_balanced(flag, omega, bundles + bundles[:1] if len(bundles) % 2 else bundles)
        mixed = tuple(InvariantClass(rng.randint(0, 2), [rational() for _ in range(rho)]) for _ in range(3))
        data += [balanced, replace(balanced, psi=balanced.psi + mixed)]
        for datum in data:
            calls = [
                (verify_coclosed, oracle_coclosed, (datum,)),
                (lee_form_coefficients, oracle_lee, (flag, datum.psi, datum.omega0)),
            ]
            if isinstance(datum, GauduchonDatum):
                calls.append((verify_ricci_flat, oracle_ricci_residual, (datum,)))
                calls.append((verify_c1_trivial, oracle_c1_ratio, (datum,)))
            for verify, oracle, args in calls:
                result = outcome(verify, *args)
                assert result == outcome(oracle, *args), (verify.__name__, args)
                if isinstance(result, (type, F)):
                    reached.add((verify.__name__, result if isinstance(result, type) else F))
                else:
                    zero = result.is_zero if isinstance(result, InvariantClass) else not any(result)
                    reached.add((verify.__name__, zero))
    # every verifier reached zero and nonzero results (c_1: a ratio) and its typed errors
    names = ("verify_coclosed", "lee_form_coefficients", "verify_ricci_flat", "verify_c1_trivial")
    errors = (DimensionMismatch, InvalidParameter)
    assert reached == {
        *((name, zero) for name in names[:3] for zero in (True, False)),
        *((name, error) for name in names for error in errors),
        ("lee_form_coefficients", OddCount),
        ("verify_c1_trivial", NotProportional),
        ("verify_c1_trivial", F),
    }
