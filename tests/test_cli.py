import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagcy
import flagcy.cli as cli
import flagcy.flag_geometry as flag_geometry
import flagcy.picard_lattice as picard_lattice
from flagcy.cli import main
from flagcy.errors import _fraction

from argv_corpus import outcome, replay, replay_main
from conftest import flag_of

GOLDEN_DIR = Path(__file__).parent / "golden"

EXACT_FIELD = re.compile(r"^-?\d+(/\d+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_describe_a2(capsys):
    code, report = run_json(capsys, "describe", "A", "2", "--parabolic", "")
    assert code == 0
    assert report["status"] == "ok"
    results = report["results"]
    assert results["fano_index"] == 2
    assert results["dim_c"] == 3
    assert results["picard_rank"] == 2
    assert results["anticanonical"] == {"alpha_1": 2, "alpha_2": 2}
    assert len(results["positive_roots"]) == 3


def test_describe_a1(capsys):
    code, report = run_json(capsys, "describe", "A", "1")
    assert code == 0
    assert report["results"]["dim_c"] == 1
    assert report["results"]["anticanonical"] == {"alpha_1": 2}


def test_describe_partial_a3(capsys):
    code, report = run_json(capsys, "describe", "A", "3", "--parabolic", "2")
    assert code == 0
    assert report["results"]["dim_c"] == 5
    assert report["results"]["picard_rank"] == 2


def test_describe_text_format(capsys):
    code, out = run(capsys, "describe", "A", "2")
    assert code == 0
    assert "results.fano_index = 2" in out
    assert "status = ok" in out


def test_primitive_basis_default(capsys):
    code, report = run_json(capsys, "primitive-basis", "A", "2")
    assert code == 0
    results = report["results"]
    assert results["tau"] == 12
    assert results["q"] == {"alpha_1": 1, "alpha_2": 1}
    assert results["basis"] == [{"alpha_1": -1, "alpha_2": 1}]
    assert results["degrees"][0]["value"] == "0"


def test_primitive_basis_rank_one_exits_2(capsys):
    code, report = run_json(capsys, "primitive-basis", "A", "2", "--parabolic", "2")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "PicardRankOne"


def test_primitive_basis_a3(capsys):
    code, report = run_json(capsys, "primitive-basis", "A", "3")
    assert code == 0
    assert len(report["results"]["basis"]) == 2
    assert all(d["value"] == "0" for d in report["results"]["degrees"])


def test_primitive_basis_pairs_every_generator_with_one_weight_vector(capsys, monkeypatch):
    built = []
    original = flag_geometry._cleared_reference

    def counted(flag, x, d):
        built.append((x, d))
        return original(flag, x, d)

    # every reference is built here, from _reference_weights or from
    # primitive_basis; picard_lattice holds its own name for it, so count both
    monkeypatch.setattr(flag_geometry, "_cleared_reference", counted)
    monkeypatch.setattr(picard_lattice, "_cleared_reference", counted)
    code, report = run_json(capsys, "primitive-basis", "A", "6", "--omega0=1,2,3,4,5,6")
    assert code == 0
    assert len(report["results"]["degrees"]) == 5
    assert all(d == {"value": "0", "two_pi_power": 0} for d in report["results"]["degrees"])
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gauduchon", "A", "3", "--k", "1", "--t", "-1", "--bundle=-1,0,1"],
        ["balanced", "A", "3", "--omega0=1,2,3", "--bundle=-12,15,0", "--bundle=7,0,-15"],
    ],
)
def test_identical_requests_each_pair_the_table(capsys, monkeypatch, argv):
    # a class keeps its reference only on itself, and each request builds its
    # classes afresh (its flag comes from cli._flag), so a repeated request pairs
    # the table again; in one request the builder, the verifier and the Lee form
    # share one pairing
    built = []
    original = flag_geometry._cleared_reference

    def counted(flag, x, d):
        built.append(x)
        return original(flag, x, d)

    monkeypatch.setattr(flag_geometry, "_cleared_reference", counted)
    misses = []
    for _ in range(2):
        flag_geometry._ray.cache_clear()
        code, _ = run(capsys, *argv)
        assert code == 0
        misses.append(flag_geometry._ray.cache_info().misses)
    assert misses == [1, 1]
    assert len(built) == 2 and built[0] == built[1]


def test_gauduchon_a2(capsys):
    code, report = run_json(
        capsys, "gauduchon", "A", "2", "--k", "1", "--t=-1", "--bundle=-1,1"
    )
    assert code == 0
    results = report["results"]
    assert results["ricci_flat_scale"] == "3/4"
    assert results["ricci_flat"] is True
    assert results["c1_ratio"] == "2"
    assert all(v == "0" for v in results["ricci_residual"]["coeffs"].values())


def test_gauduchon_k_minus_two(capsys):
    code, report = run_json(
        capsys, "gauduchon", "A", "2", "--k=-2", "--t", "0", "--bundle=-1,1"
    )
    assert code == 0
    assert report["results"]["ricci_flat_scale"] == "3/2"
    assert report["results"]["c1_ratio"] == "-1"
    assert report["results"]["ricci_flat"] is True


def test_gauduchon_chern_parameter_needs_diagnostic(capsys):
    code, report = run_json(
        capsys, "gauduchon", "A", "2", "--k", "1", "--t", "1", "--bundle=-1,1"
    )
    assert code == 2
    assert report["error"]["type"] == "InvalidParameter"

    code, report = run_json(
        capsys, "gauduchon", "A", "2", "--k", "1", "--t", "1", "--bundle=-1,1", "--diagnostic"
    )
    assert code == 0
    residual = report["results"]["ricci_residual"]
    assert residual["two_pi_power"] == 1
    assert residual["coeffs"] == {"alpha_1": "2", "alpha_2": "2"}
    assert report["results"]["ricci_flat"] is False


def test_balanced_a2(capsys):
    code, report = run_json(
        capsys, "balanced", "A", "2", "--bundle=-1,1", "--bundle=-2,2"
    )
    assert code == 0
    assert report["results"]["coclosed"] == ["0", "0"]
    assert report["results"]["lee_form"] == ["0", "0"]
    assert report["results"]["balanced"] is True


def test_balanced_rejects_non_primitive(capsys):
    code, report = run_json(
        capsys, "balanced", "A", "2", "--bundle=1,1", "--bundle=-1,1"
    )
    assert code == 2
    assert report["error"]["type"] == "NotPrimitive"
    assert "1" in report["error"]["message"]


def test_balanced_rejects_single_bundle(capsys):
    code, report = run_json(capsys, "balanced", "A", "2", "--bundle=-1,1")
    assert code == 2
    assert report["error"]["type"] == "OddCount"


def test_verify_numeric_passes(capsys):
    code, report = run_json(
        capsys, "verify-numeric", "A", "2", "--omega0", "2,2", "--psi", "1,0", "--tol", "1e-5"
    )
    assert code == 0
    results = report["results"]
    assert results["passed"] is True
    assert results["exact"] == ["0", "1/4", "1/2"]
    assert results["max_deviation"] < 1e-5


def test_verify_numeric_identity(capsys):
    code, report = run_json(capsys, "verify-numeric", "A", "2", "--psi", "2,2")
    assert code == 0
    assert report["results"]["exact"] == ["1", "1", "1"]


def test_verify_numeric_type_b_exits_3(capsys):
    code, report = run_json(capsys, "verify-numeric", "B", "2", "--psi", "1,0")
    assert code == 3
    assert report["error"]["type"] == "UnsupportedType"


def test_verify_numeric_failed_tolerance_exits_2_with_an_ok_report(capsys, monkeypatch):
    # the lab's ratios are exact up to rounding (a max_deviation of 0.0 on A2), so
    # the psi Hessian is scaled by 1.001 to put the deviation above the tolerance
    import flagcy.potential_lab as potential_lab

    hessians = potential_lab._hessians_at_origin
    skew = [[[1.0]], [[1.001]]]
    monkeypatch.setattr(potential_lab, "_hessians_at_origin", lambda *args: hessians(*args) * skew)
    code, report = run_json(capsys, "verify-numeric", "A", "2", "--psi=1,0")
    assert code == 2
    assert report["status"] == "ok"
    assert report["results"]["passed"] is False
    assert report["results"]["max_deviation"] >= report["results"]["tol"]


def no_bare_constants(token):
    raise AssertionError(f"report is not strict JSON: bare {token}")


def test_verify_numeric_rejects_bad_step_and_tol(capsys):
    cases = [
        ("A", "3", "--psi=-1,1,0", "--step=-1", "InvalidParameter"),
        ("A", "3", "--psi=-1,1,0", "--step=nan", "InvalidParameter"),
        ("A", "3", "--psi=-1,1,0", "--step=inf", "InvalidParameter"),
        ("A", "3", "--psi=-1,1,0", "--tol=nan", "InvalidParameter"),
        # steps whose Hessians leave the float range
        ("A", "3", "--psi=-1,1,0", "--step=1e-300", "IllConditioned"),
        ("A", "3", "--psi=-1,1,0", "--step=1e-200", "IllConditioned"),
        ("A", "3", "--psi=-1,1,0", "--step=1e300", "IllConditioned"),
        # exact rationals beyond the float range
        ("A", "2", "--psi=-1,1", "--omega0=1e400,1", "InvalidParameter"),
        ("A", "2", "--psi=1e400,-1", "--tol=1e-5", "InvalidParameter"),
    ]
    for family, rank, psi, option, error in cases:
        code, out = run(capsys, "verify-numeric", family, rank, psi, option, "--format", "json")
        report = json.loads(out, parse_constant=no_bare_constants)
        assert code == 2, option
        assert report["status"] == "error"
        assert report["error"]["type"] == error, (psi, option)


FLOAT_TEXT = st.one_of(st.floats().map(repr), st.integers().map(str))
RATIONAL_TEXT = st.one_of(FLOAT_TEXT, st.fractions().map(str))
CLASS_TEXT = st.lists(RATIONAL_TEXT, min_size=1, max_size=3).map(",".join)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(step=FLOAT_TEXT, tol=FLOAT_TEXT, omega0=CLASS_TEXT, psi=CLASS_TEXT)
@example(step="1e-300", tol="1e-5", omega0="1,1", psi="1,-1")
@example(step="1e-200", tol="1e-5", omega0="1,1", psi="1,-1")
@example(step="1e300", tol="1e-5", omega0="1,1", psi="1,-1")
@example(step="1e-4", tol="1e-5", omega0="1e400,1", psi="1,-1")
@example(step="1e-4", tol="1e-5", omega0="1,1", psi="1e400,-1")
@example(step="-1", tol="1e-5", omega0="1,1", psi="1,-1")
@example(step="nan", tol="nan", omega0="1,1", psi="1,-1")
@example(step="1e-4", tol="1e-5", omega0="1e-10,1e-10", psi="1e300,1e300")
def test_verify_numeric_never_tracebacks(step, tol, omega0, psi):
    argv = ["verify-numeric", "A", "2", f"--step={step}", f"--tol={tol}",
            f"--omega0={omega0}", f"--psi={psi}", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=no_bare_constants)


def test_repeated_parabolic_index_exits_2(capsys):
    code, report = run_json(capsys, "describe", "A", "3", "--parabolic", "1,1")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "IndexOutOfRange"


@pytest.mark.parametrize("argv", [
    ["describe", "A", "3", "--format", "json"],
    ["verify-numeric", "A", "3", "--parabolic= 2", "--psi=1,-1", "--format", "json"],
])
def test_identical_requests_share_one_flag(capsys, monkeypatch, argv):
    # the second request finds its flag in cli._flag: the same object, nothing rebuilt
    built = []

    def counted(*args):
        built.append(args)
        return flag_geometry.make_flag(*args)

    monkeypatch.setattr(cli, "make_flag", counted)
    cli._flag.cache_clear()
    outputs = [run(capsys, *argv) for _ in range(2)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert len(built) == 1
    info = cli._flag.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("parabolic, message", [
    ("0", "simple-root index 0 outside 1..3"),
    ("1,1", "parabolic set [1, 1] repeats a simple-root index"),
    ("1,2,3", "parabolic set must be a proper subset of the simple roots"),
])
def test_flag_errors_exit_2_on_every_repeat(capsys, parabolic, message):
    # an error is never cached, so every repeat raises it afresh
    cli._flag.cache_clear()
    for _ in range(3):
        code, report = run_json(capsys, "describe", "A", "3", f"--parabolic={parabolic}")
        assert code == 2
        assert report["error"] == {"type": "IndexOutOfRange", "message": message}
    assert cli._flag.cache_info().currsize == 0


def test_a_bad_rank_is_reported_before_a_bad_parabolic_set(capsys):
    # the rank is checked first, as when every request built its own flag
    for _ in range(2):
        code, report = run_json(capsys, "describe", "A", "0", "--parabolic=x")
        assert code == 2
        assert report["error"]["type"] == "InvalidRank"
    assert main(["describe", "A", "3", "--parabolic=x"]) == 1


def test_parse_errors_exit_1(capsys):
    assert main(["describe", "A", "x"]) == 1
    assert main(["describe", "Z", "2"]) == 1
    assert main(["gauduchon", "A", "2", "--k", "1", "--t", "nope", "--bundle=-1,1"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


INPUT_PARSE_ERRORS = [
    (["describe", "A", "2", "--parabolic=1,x"],
     "cannot parse parabolic set '1,x': invalid literal for int() with base 10: 'x'"),
    (["primitive-basis", "A", "2", "--omega0=x"],
     "cannot parse rational vector 'x': Invalid literal for Fraction: 'x'"),
    (["balanced", "A", "2", "--omega0=1/0,1", "--bundle=-1,1"],
     "cannot parse rational vector '1/0,1': Fraction(1, 0)"),
    (["verify-numeric", "A", "2", "--psi=1/2,x"],
     "cannot parse rational vector '1/2,x': Invalid literal for Fraction: 'x'"),
    (["balanced", "A", "2", "--bundle=a,1"],
     "cannot parse bundle exponents 'a,1': invalid literal for int() with base 10: 'a'"),
    (["gauduchon", "A", "2", "--k", "1", "--t", "x", "--bundle=-1,1"],
     "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    # the argparse types read their numerals through the same parser and wording
    (["describe", "A", "x"], "cannot parse rank 'x': invalid literal for int() with base 10: 'x'"),
    (["primitive-basis", "A", "2", "--gamma=x"],
     "cannot parse pivot index 'x': invalid literal for int() with base 10: 'x'"),
    (["gauduchon", "A", "2", "--k=1.5", "--t=-1", "--bundle=-1,1"],
     "cannot parse twist '1.5': invalid literal for int() with base 10: '1.5'"),
    (["verify-numeric", "A", "2", "--psi=1,-1", "--step=x"],
     "cannot parse step 'x': could not convert string to float: 'x'"),
    (["verify-numeric", "A", "2", "--psi=1,-1", "--tol=1/2"],
     "cannot parse tolerance '1/2': could not convert string to float: '1/2'"),
]


@pytest.mark.parametrize("argv, message", INPUT_PARSE_ERRORS)
def test_input_parse_errors_name_the_input(capsys, argv, message):
    for fmt in ("text", "json"):
        assert main([*argv, "--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"flagcy: {message}\n")


def test_decimal_exponents_up_to_4300_still_parse(capsys):
    # the bound is the default integer digit limit; the float options keep their own parsing
    assert _fraction("-1E+04300") == -(10**4300)
    assert _fraction(" 1e-4300 ") == Fraction(1, 10**4300)
    for text in ("1e-4301", "1e999_999_999"):
        with pytest.raises(ValueError, match="decimal exponent above 4300 in size"):
            _fraction(text)
    code, report = run_json(capsys, "verify-numeric", "A", "2", "--psi=1,-1", "--step=1e-999999999")
    assert code == 2 and report["error"]["type"] == "InvalidParameter"


UNRENDERABLE_RESULTS = [
    ["primitive-basis", "A", "3", "--omega0=1e2000,1,1"],
    ["gauduchon", "A", "2", "--k", "1", "--t=-1e4300", "--bundle=-1,1"],
]


@pytest.mark.parametrize("argv", UNRENDERABLE_RESULTS, ids=lambda argv: argv[0])
def test_results_beyond_the_digit_limit_are_unsupported(capsys, argv):
    # an exact result of more than 4300 digits has no str; the request ends in an
    # error report with exit 3, in both formats, instead of a traceback
    message = f"an exact result has more than {sys.get_int_max_str_digits()} digits to render"
    assert main([*argv, "--format", "json"]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["status"] == "error" and report["results"] == {}
    assert report["error"] == {"type": "UnsupportedType", "message": message}
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-3:] == ["status = error", "error.type = UnsupportedType",
                                     f"error.message = {message}"]


def test_invalid_rank_is_a_math_error(capsys):
    code, report = run_json(capsys, "describe", "E", "5")
    assert code == 2
    assert report["error"]["type"] == "InvalidRank"


def test_huge_rank_is_refused_before_anything_is_built(capsys):
    code, report = run_json(capsys, "describe", "A", "100000000000000000000")
    assert code == 2
    assert report["error"] == {
        "type": "InvalidRank", "message": "family A needs rank in [1, 64], got 100000000000000000000"}


def test_exact_fields_have_no_decimal_points(capsys):
    _, report = run_json(capsys, "gauduchon", "A", "2", "--k", "1", "--t", "1/2", "--bundle=-1,1")
    results = report["results"]
    for value in results["ricci_residual"]["coeffs"].values():
        assert EXACT_FIELD.match(value)
    assert EXACT_FIELD.match(results["ricci_flat_scale"])
    assert EXACT_FIELD.match(results["c1_ratio"])
    for value in results["lee_form"]:
        assert EXACT_FIELD.match(value)

    _, report = run_json(capsys, "verify-numeric", "A", "2", "--psi", "1,0")
    assert all(EXACT_FIELD.match(v) for v in report["results"]["exact"])
    assert isinstance(report["results"]["max_deviation"], float)


GOLDEN_COMMANDS = {
    "describe_a2.json": ["describe", "A", "2", "--format", "json"],
    "primitive_basis_a2.json": ["primitive-basis", "A", "2", "--format", "json"],
    "gauduchon_a2.json": [
        "gauduchon", "A", "2", "--k", "1", "--t=-1", "--bundle=-1,1", "--format", "json",
    ],
    "balanced_a2.json": [
        "balanced", "A", "2", "--bundle=-1,1", "--bundle=-2,2", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_reports_match_golden_files(capsys, name):
    code = main(GOLDEN_COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_reports_round_trip_byte_identical(capsys, name):
    main(GOLDEN_COMMANDS[name])
    out = capsys.readouterr().out
    rendered = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert rendered == out


# SHA-256 of the JSON `describe` report of large full and partial flags: the
# root order, coroots, pairing table and Weyl row all reach the report
DESCRIBE_DIGESTS = {
    ("A", "24", ""): "d17a91e712faee9b00f94ee662ecebcae1fb42fe28c87bf374b9baeeab54c89f",
    ("B", "12", ""): "11150fd630fec11b287eb4c3becef0488d8031dd1cdc679e512f7db9c916ab57",
    ("D", "10", ""): "06c708bd7bf06493e8e317729ef0a0efc2c7229851a1bb85505227902afe542b",
    ("E", "8", ""): "cb7a1dc5db4ab1d46424475b7b07b11f13d5dbf7ad4c433bada7c40e7507feeb",
    ("F", "4", ""): "4099ec05b9e5d8108fd3b856cb4a3c8e2da7b0d78700d3955e4365139c98a294",
    ("G", "2", ""): "1f9ebb08958d8cd8f82d637f24d854c704506ce9a2ed96c3d6e168adece1453e",
    ("A", "24", "1,3,7,12,20"): "80cf6f6e570170bbb187ff3d1037b69b23c032ccb388fed610c1dae6d9de1c4c",
    ("B", "12", "2,5"): "3ccc69772c99266e7131cd03ce9437b7b87714f195e6d457b10a82aab728c055",
    ("D", "10", "1,4,9"): "ce5e8b0fcd84d9df2fb25e03aaeba325a57af15be5cde62156e5feff91923f4a",
    ("E", "8", "1,8"): "55a4d061ffad40426764baf395c35d24647e8500aa429d28843ba3e8293ebf43",
    ("F", "4", "2"): "df3d96b443c9b13ad2daac2f4c712d1f8804e5884c0c8ffa2b705d558f0f3c8d",
    ("G", "2", "1"): "e313de48ab2bf658ea90ea13abcb9c85bc0c8d9b9b7a9bb1bf5f3e6ca953d731",
    # the largest report of the benchmark ladder: 820 roots of 40 coordinates each
    ("A", "40", ""): "deac47c4bd136333c760632e51e00305271b2b32f504ef422118feae4776c93a",
}


@pytest.mark.parametrize("family, rank, parabolic", sorted(DESCRIBE_DIGESTS))
def test_large_describe_reports_match_their_digests(capsys, family, rank, parabolic):
    code, out = run(capsys, "describe", family, rank, "--parabolic", parabolic, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DESCRIBE_DIGESTS[family, rank, parabolic]


# SHA-256 of the text `describe` report of four of the flags above: the text
# report keeps its row dicts and must not follow the JSON table's rendering
DESCRIBE_TEXT_DIGESTS = {
    ("A", "24", ""): "69528925ded95fd4a7991a38e5a42fa50a8f638d78f292a78bd2ac5059cb6b92",
    ("B", "12", "2,5"): "bf23554e6ce9054c33001316ab021da3be346c6936ae719ea991a2aeaa1072e3",
    ("E", "8", "1,8"): "8de4bf9ad87ad8cc92ecdd9a9b3cc312e458fb0e1a1de04369557e618b24c360",
    ("G", "2", "1"): "c99d4e2d4824c6b663e741fc855df33662f2fbd41d01fab483607dafa6c3ac51",
}


@pytest.mark.parametrize("family, rank, parabolic", sorted(DESCRIBE_TEXT_DIGESTS))
def test_describe_text_reports_match_their_digests(capsys, family, rank, parabolic):
    code, out = run(capsys, "describe", family, rank, "--parabolic", parabolic, "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DESCRIBE_TEXT_DIGESTS[family, rank, parabolic]


# flags beyond A2: a rational Kahler class, and the basis of the flag's own
# primitive-basis report, whose members are the degree-zero bundles below
BEYOND_A2 = {
    ("B", "3", ""): ("1/2,2/3,3/4", ("-234,149,0", "-157,0,149")),
    ("C", "3", "2"): ("2/3,5/2", ("-29,19",)),
    ("D", "4", "2"): ("1/2,1,3/2", ("-1,1,0", "-1,0,1")),
    ("F", "4", "1,4"): ("3/4,1/5", ("-1993,2627",)),
    ("G", "2", ""): ("1,7/3", ("-211,149",)),
}


def _beyond_a2_argv(family, rank, parabolic, case):
    omega0, basis = BEYOND_A2[family, rank, parabolic]
    # 2r bundles at Picard rank r = len(basis) + 1, the basis repeated
    bundles = [f"--bundle={basis[i % len(basis)]}" for i in range(2 * len(basis) + 2)]
    flag = [family, rank, "--parabolic", parabolic]
    return {
        "primitive-basis": ["primitive-basis", *flag],
        "primitive-basis omega0": ["primitive-basis", *flag, f"--omega0={omega0}"],
        "gauduchon": ["gauduchon", *flag, "--k", "2", "--t", "1/3", *bundles[1:]],
        "gauduchon diagnostic": ["gauduchon", *flag, "--k", "2", "--t", "2", "--diagnostic", *bundles[1:]],
        "balanced": ["balanced", *flag, *bundles],
    }[case]


# SHA-256 of the JSON stdout followed by the text stdout of each request
BEYOND_A2_DIGESTS = {
    ("B", "3", "", "primitive-basis"): "4e1a9e168dd9954daf5a500fef0c1dbb54d84f3605c23ff6ba7d966487aee2f9",
    ("B", "3", "", "primitive-basis omega0"): "c41f12892a209b42e4814454f628856031fb439b84c619684631a6b79a6b60b1",
    ("B", "3", "", "gauduchon"): "e0ae1d281d849e2f816984b9b6f4bca2342912c25d74c7930fdad59dd26ffda1",
    ("B", "3", "", "gauduchon diagnostic"): "d9d3b38f83de1eac1862d5d6f12f71c92b9a3038e913019513fa3bae2b262360",
    ("B", "3", "", "balanced"): "b20a4dcbf603154343b2e34452b73db1b9ff48338bfcf4eeb96bae23309370c5",
    ("C", "3", "2", "primitive-basis"): "baface0704384adedb75741a61c0eef4ced36a5b64c8ca3eedff18bb27c1eb30",
    ("C", "3", "2", "primitive-basis omega0"): "d8828caa05263a5ad9d5d705e3829461128cd493bb41ce4bb905d9f56a39c5a2",
    ("C", "3", "2", "gauduchon"): "082f342ecb57f4ce5f6eb0d24ae768b5df61398cb9190a0bfcfee0290f3105f2",
    ("C", "3", "2", "gauduchon diagnostic"): "7d379421092fabc39e2ebc0436cdf109528621cdddc77a2a9a6680bf85cb66a6",
    ("C", "3", "2", "balanced"): "b857c077759c793a0cd8b36f6f9912ed5eeb8ddb7a639517752aff9902a17e0e",
    ("D", "4", "2", "primitive-basis"): "201d49bb179bd80115ec9a3851ed7e1ffd5169ec173bb586ac949c23af97d647",
    ("D", "4", "2", "primitive-basis omega0"): "d846de02338db3813a7230cac8927994ad8df3696b2e8c8c158742e66fe5494f",
    ("D", "4", "2", "gauduchon"): "ffb66c20dc60416a9a00373dc51da5f2e0627b2d485763ec91e3cdff7f3bbbfb",
    ("D", "4", "2", "gauduchon diagnostic"): "66700fd7f92483dde78d59b747a09e6a10d2e23014cf0d3385ad82f0b7727ad2",
    ("D", "4", "2", "balanced"): "5e8c0522733cb6dee20e1eae71a148e4f74c0a947d7dc4b8e18621d1ac610a17",
    ("F", "4", "1,4", "primitive-basis"): "df433767ed4a7806612e31f7e33d780bf38c14703c609a4f28a1b7f8ecb37c7b",
    ("F", "4", "1,4", "primitive-basis omega0"): "42222b6104428f2becbe470c0b96e0d8456df8e56d95c171059736bb0e4c6b74",
    ("F", "4", "1,4", "gauduchon"): "c66f492e98cb46c7a40fe343c8615963385b467545a987e2c7e48f4c518e79b9",
    ("F", "4", "1,4", "gauduchon diagnostic"): "e3b590252927bfb08354b40261999577b99d604261349579df9b2177b8ede75a",
    ("F", "4", "1,4", "balanced"): "a48a33eae8b7192e30a8e86d05b0356a74f3dca8625f8b46dccbaf03ba640ba5",
    ("G", "2", "", "primitive-basis"): "d9c38c9fffa3f7a496807d4b93077e93c6e4efbf9f15faee8bf4a59d670e8b6e",
    ("G", "2", "", "primitive-basis omega0"): "2327545ce445accdcf0e468e710a0d499f550f3d41dfd80f313e39d9a01af8c7",
    ("G", "2", "", "gauduchon"): "314c730515b98f5507bd3ab8d5f8fefe378baeb89c59e9b10f707e4fd170ff39",
    ("G", "2", "", "gauduchon diagnostic"): "c3aa152f0e58e529152f7ab79844c796ab06dcb366d459b204022bf06c862ead",
    ("G", "2", "", "balanced"): "b5ee01b6d1732dd923a4e037e21cb0be02cbaaf80db0bf08d0b89338a4e0ba3e",
}


@pytest.mark.parametrize("family, rank, parabolic, case", sorted(BEYOND_A2_DIGESTS))
def test_reports_beyond_a2_match_their_digests(capsys, family, rank, parabolic, case):
    argv = _beyond_a2_argv(family, rank, parabolic, case)
    (code, out), (text_code, text) = run(capsys, *argv, "--format", "json"), run(capsys, *argv)
    assert code == text_code == 0
    assert hashlib.sha256((out + text).encode()).hexdigest() == BEYOND_A2_DIGESTS[family, rank, parabolic, case]


# SHA-256 of the A2 text report of each command beyond describe, each request with every option
# of its command; the inputs.* lines pin the order in which each command echoes its options
A2_TEXT_DIGESTS = {
    ("primitive-basis", "--omega0=1,2/3", "--gamma", "2"):
        "38af78cc43f14f6dc90f583f68147de3adfad3da62c8fe3dc12364477b3b5b49",
    ("gauduchon", "--k", "2", "--t", "1/3", "--bundle=-1,1", "--diagnostic"):
        "2bb0d963d0e5070c8b65ccce432717243db723472a45d4db0e94c471553f3acc",
    ("balanced", "--bundle=-1,1", "--bundle=-2,2"):
        "47f24cb9f3c436eebf8122903326a9c9702b78f8d1115b3799bb74e87c8cf661",
    ("verify-numeric", "--omega0=1,2", "--psi=1,-1", "--step=1e-3", "--tol=1e-4"):
        "990e4c3b2e844e5bf57dd53756cd8f3f16c243f7df1fb45bc675108467135d2c",
}


@pytest.mark.parametrize("request_", sorted(A2_TEXT_DIGESTS), ids=lambda request_: request_[0])
def test_a2_text_reports_match_their_digests(capsys, request_):
    command, *options = request_
    code, out = run(capsys, command, "A", "2", *options)
    assert code == 0
    # the lab's float results depend on the LAPACK build, so only their keys are pinned
    out = re.sub(r"^(results\.(numeric\[\d+\]|max_deviation)) = .*$", r"\1", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == A2_TEXT_DIGESTS[request_]


def test_verify_numeric_report_keeps_its_key_order_and_exact_strings(capsys):
    # the floats depend on the LAPACK build, so only the keys and the exact strings are pinned
    argv = ["verify-numeric", "A", "4", "--parabolic", "2,3", "--omega0=1,2/3", "--psi=-1,3/2"]
    exact = ["-1", "-1", "-1", "3/10", "9/4", "9/4", "9/4"]
    code, out = run(capsys, *argv)
    assert code == 0
    results = [line.partition(" = ") for line in out.splitlines() if line.startswith("results.")]
    assert [key for key, _, _ in results] == [
        *(f"results.exact[{i}]" for i in range(7)), *(f"results.numeric[{i}]" for i in range(7)),
        "results.max_deviation", "results.step", "results.tol", "results.passed"]
    assert [value for _, _, value in results[:7]] == exact
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["results"]["exact"] == exact


ORACLE_TYPES = [*(("A", rank) for rank in range(1, 6)), ("B", 2), ("B", 3), ("B", 4),
                ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]


def _describe_oracle(family, rank, parabolic):
    """The JSON `describe` report of one flag, its root table built here as row dicts."""
    flag = flag_of(family, rank, parabolic)
    # a root leaves the parabolic when a simple root outside it occurs in the root
    table = [
        {"root": list(beta.root_coords), "coroot": [str(c) for c in beta.coroot_coords],
         "height": sum(beta.root_coords),
         "off_parabolic": any(beta.root_coords[a - 1] for a in flag.complement)}
        for beta in flag.datum.positive_roots
    ]
    results = {
        "dim_c": flag.dim_c,
        "picard_rank": flag.picard_rank,
        "fano_index": flagcy.fano_index(flag),
        "anticanonical": {f"alpha_{a}": int(v) for a, v in zip(flag.complement, flag.anticanonical)},
        "kahler_cone_generators": [f"alpha_{a}" for a in flag.complement],
        "positive_roots": table,
    }
    inputs = {"family": family, "rank": rank, "parabolic": ",".join(map(str, parabolic)), "format": "json"}
    report = {"command": "describe", "inputs": inputs, "results": results, "status": "ok"}
    return json.dumps(report, indent=2, sort_keys=True) + "\n", table


def test_digits_renders_each_coordinate_as_one_digit():
    assert cli._digits((6, 0, 2)) == "602"
    assert cli._digits(tuple(range(10))) == "0123456789"
    assert cli._digits(()) == ""
    # a coordinate that is not one digit raises rather than render as another character
    for coords in ((10,), (0, 255), (-1,), (256,)):
        with pytest.raises(ValueError):
            cli._digits(coords)


def test_describe_json_matches_a_dict_table_oracle(capsys):
    # the JSON root table is rendered from rows cached per Lie type without their
    # off_parabolic value; on every parabolic of these types, in a seeded shuffled
    # order, and again after the row cache is cleared, it must read as json.dumps of
    # the row dicts.  A3 {1} then {2} and back share their rows, not their values
    requests = [(family, rank, parabolic) for family, rank in ORACLE_TYPES
                for size in range(rank)  # a parabolic is a proper subset of the simple roots
                for parabolic in combinations(range(1, rank + 1), size)]
    oracle = {request: _describe_oracle(*request) for request in requests}
    offs = set()
    for seed in (31, 32):
        cli._root_rows.cache_clear()
        random.Random(seed).shuffle(requests)
        for family, rank, parabolic in [*requests, ("A", 3, (1,)), ("A", 3, (2,)), ("A", 3, (1,))]:
            expected, table = oracle[family, rank, parabolic]
            code, out = run(capsys, "describe", family, str(rank),
                            "--parabolic", ",".join(map(str, parabolic)), "--format", "json")
            assert code == 0
            assert out == expected, (family, rank, parabolic)
            offs.update(row["off_parabolic"] for row in table)
        assert cli._root_rows.cache_info().currsize == len(ORACLE_TYPES)
    assert offs == {True, False}


# (argv, exit code): every command, floats, error reports and a non-ASCII echo
ROUND_TRIP_REQUESTS = [
    (["describe", "B", "3"], 0),
    (["describe", "G", "2"], 0),
    (["describe", "A", "8", "--parabolic", "2,5"], 0),
    (["describe", "A", "2", "--parabolic", "\u00a0"], 0),  # strip() empties it: the full flag
    (["primitive-basis", "A", "4", "--omega0=1,2,3,4"], 0),
    (["gauduchon", "A", "2", "--k", "1", "--t", "1", "--bundle=-1,1", "--diagnostic"], 0),
    (["balanced", "A", "3", "--bundle=-14,11,0", "--bundle=-11,0,11"], 0),
    (["verify-numeric", "A", "3", "--psi=-1,1,0"], 0),
    (["describe", "E", "9"], 2),
    (["balanced", "A", "2", "--bundle=-1,1"], 2),
    (["primitive-basis", "A", "3", "--parabolic", "2", "--gamma=2"], 2),  # pivot inside the parabolic set
    (["verify-numeric", "B", "3", "--psi=1,0,-1"], 3),
]


@pytest.mark.parametrize("argv, expected", ROUND_TRIP_REQUESTS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_command_round_trips_byte_identical(capsys, argv, expected):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == expected
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


#: numerals that int, float or Fraction would read as another value than the echo shows
LOOSE_NUMERALS = [
    ["describe", "A", "12", "--parabolic", "1_0"],
    ["describe", "A", "2", "--parabolic", "\u0661"],
    ["describe", "A", "\uff12"],
    ["verify-numeric", "A", "2", "--psi=1,0", "--step=1_0e-4"],
    ["verify-numeric", "A", "2", "--psi=1,0", "--tol=1\u00a0"],
    ["verify-numeric", "A", "2", "--psi=1_0,0"],
    ["verify-numeric", "A", "2", "--omega0=\u0662,1", "--psi=1,0"],
    ["primitive-basis", "A", "3", "--gamma=\u0662"],
    ["gauduchon", "A", "2", "--k=1_0", "--t=1/2", "--bundle=-1,1"],
    ["gauduchon", "A", "2", "--k=1", "--t=1/2_0", "--bundle=-1,1"],
    ["balanced", "A", "2", "--bundle=-1,1", "--bundle=-\u0662,2"],
]


@pytest.mark.parametrize("argv", LOOSE_NUMERALS, ids=" ".join)
def test_loose_numerals_are_parse_errors(capsys, argv):
    assert main([*argv, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("flagcy: cannot parse ")
    assert err.endswith(": numerals must be ASCII, without '_'\n")


#: inputs holding a character that would split or hide a line of the text report
UNPRINTABLE_INPUTS = [
    (["describe", "A", "3\t"], "rank '3\\t'"),
    (["describe", "A", "2", "--parabolic= 1 \n"], "--parabolic ' 1 \\n'"),
    (["describe", "A", "3", "--parabolic=2\x1b"], "--parabolic '2\\x1b'"),
    (["primitive-basis", "A", "2", "--omega0=1,\n2"], "--omega0 '1,\\n2'"),
    (["primitive-basis", "A", "2", "--omega0=anticanonical\r"], "--omega0 'anticanonical\\r'"),
    (["primitive-basis", "A", "3", "--gamma=2\n"], "pivot index '2\\n'"),
    (["gauduchon", "A", "2", "--k=1\v", "--t=1/2", "--bundle=-1,1"], "twist '1\\x0b'"),
    (["gauduchon", "A", "2", "--k=1", "--t=1/2\n", "--bundle=-1,1"], "--t '1/2\\n'"),
    (["balanced", "A", "2", "--bundle=-1,1", "--bundle=-1,\u20281"], "--bundle '-1,\\u20281'"),
    (["verify-numeric", "A", "2", "--psi=1,\x00-1"], "--psi '1,\\x00-1'"),
    (["verify-numeric", "A", "2", "--psi=1,-1", "--omega0=1,\u200b1"], "--omega0 '1,\\u200b1'"),
    (["verify-numeric", "A", "2", "--psi=1,-1", "--step=1e-4\f"], "step '1e-4\\x0c'"),
    (["verify-numeric", "A", "2", "--psi=1,-1", "--tol=\t1e-4"], "tolerance '\\t1e-4'"),
]


@pytest.mark.parametrize("argv, shown", UNPRINTABLE_INPUTS,
                         ids=[ascii(" ".join(argv))[1:-1] for argv, _ in UNPRINTABLE_INPUTS])
def test_control_and_line_break_characters_are_parse_errors(capsys, argv, shown):
    for fmt in ("text", "json"):
        assert main([*argv, "--format", fmt]) == 1
        assert capsys.readouterr() == (
            "", f"flagcy: cannot parse {shown}: control and line-break characters are not allowed\n")


def test_ascii_whitespace_around_numerals_still_parses(capsys):
    padded = ["verify-numeric", "A", " 3 ", "--parabolic= 2 ", "--omega0= 1 , 2/3 ",
              "--psi=-1, 1 ", "--step= 1e-3 ", "--tol= 1e-4"]
    plain = ["verify-numeric", "A", "3", "--parabolic=2", "--omega0=1,2/3",
             "--psi=-1,1", "--step=1e-3", "--tol=1e-4"]
    (code, report), (plain_code, plain_report) = run_json(capsys, *padded), run_json(capsys, *plain)
    assert code == plain_code == 0
    assert report["inputs"]["omega0"] == " 1 , 2/3 "
    assert report["results"] == plain_report["results"]


REPORT_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(), st.fractions())
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda children: st.one_of(
        st.lists(st.integers()),
        st.lists(st.text()),
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(value=REPORT_VALUES)
@example(value=[1, True, 2])
@example(value=[float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324])
@example(value=10**400)
@example(value="\u0661")
@example(value="\x00\n\"\\")
@example(value="\u00e9")
@example(value={})
@example(value=[])
@example(value={"a": []})
@example(value=(1, "x", (2.5, None), ()))
@example(value={"b": 1, "a": {"d": [], "c": False}, "B": ["y", "x"], "": None})
@example(value=Fraction(-3, 4))
@example(value=Fraction(2))
def test_emitter_matches_json_dumps(value):
    # default=str is only ever called on a Fraction: the emitter's fraction string
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True, default=str)


def _subprocess_env():
    src = str(Path(flagcy.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("rank, fmt, read", [("24", "json", 100), ("24", "text", 100), ("2", "json", 0)])
def test_closed_pipe_keeps_the_exit_code_without_a_traceback(rank, fmt, read):
    # A24 reports outgrow the pipe, so the write itself meets the closed pipe; the
    # A2 report fits in the stream buffer, so only the flush after it does
    argv = [sys.executable, "-m", "flagcy.cli", "describe", "A", rank, "--format", fmt]
    proc = subprocess.Popen(argv, env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 0


CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from flagcy.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("rank", [13, 24])
def test_verify_numeric_refuses_a_stencil_above_the_cap(rank):
    # A13 full is the smallest full flag above the cap, A24 full would need more
    # than 10 GB; the child's 3 GiB address-space limit turns a missing refusal
    # into a failure instead of exhausting the machine
    psi = ",".join(["1"] + ["0"] * (rank - 2) + ["-1"])
    argv = ["verify-numeric", "A", str(rank), f"--psi={psi}", "--format", "json"]
    done = subprocess.run([sys.executable, "-c", CAPPED_CHILD, *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stderr == ""
    error = json.loads(done.stdout)["error"]
    assert error["type"] == "UnsupportedType"
    assert "cap" in error["message"]


HUGE_EXPONENTS = [
    ["gauduchon", "A", "2", "--k", "1", "--t=1e999999999", "--bundle=-1,1"],
    ["primitive-basis", "A", "2", "--omega0=1,1e-999999999"],
    ["verify-numeric", "A", "2", "--psi=1E+999999999,-1"],
]


@pytest.mark.parametrize("argv", HUGE_EXPONENTS, ids=lambda argv: argv[0])
def test_huge_decimal_exponents_are_refused_before_they_are_expanded(argv):
    # Fraction builds 10**exp before anything else, which would not end in time here;
    # the child's 3 GiB address-space limit and the timeout turn a missing refusal into
    # a failure instead of a stalled run
    done = subprocess.run([sys.executable, "-c", CAPPED_CHILD, *argv, "--format", "json"],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert "decimal exponent above 4300 in size" in done.stderr


CAPPED_LIBRARY_CHILD = """
import resource, sys
from decimal import Decimal
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
import flagcy
flag = flagcy.make_flag(flagcy.build_root_datum(flagcy.LieType("A", 2)), ())
kind, text = sys.argv[1:]
try:
    flagcy.class_from_coeffs(flag, [Decimal(text) if kind == "Decimal" else text, 1])
except flagcy.InvalidParameter as exc:
    assert "decimal exponent above 4300 in size" in str(exc.__cause__), exc.__cause__
else:
    raise SystemExit("no InvalidParameter")
"""


@pytest.mark.parametrize("kind, text", [
    pytest.param("str", "1e999999999", id="1e999999999"),
    pytest.param("str", "-1E-999_999_999", id="-1E-999_999_999"),
    pytest.param("Decimal", "1e999999999", id="Decimal-1e999999999"),
    pytest.param("Decimal", "-1e-999999999", id="Decimal--1e-999999999"),
])
def test_library_refuses_huge_decimal_exponents_before_they_are_expanded(kind, text):
    # the library reads a rational string or Decimal through the same bound as the CLI
    done = subprocess.run([sys.executable, "-c", CAPPED_LIBRARY_CHILD, kind, text],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr + done.stdout


def _outcomes(requests):
    outcomes = []
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


GAUDUCHON_A2 = ["gauduchon", "A", "2", "--k", "1", "--t=-1", "--format", "json"]
REUSE_REQUESTS = [
    ["describe", "A", "x"],
    [*GAUDUCHON_A2, "--bundle=-1,1", "--bundle=-2,2", "--bundle=-3,3"],
    [*GAUDUCHON_A2, "--bundle=-1,1"],
    ["balanced", "A", "2", "--bundle=-1,1", "--format", "json"],
    *GOLDEN_COMMANDS.values(),
]


def test_reused_parser_answers_like_a_fresh_one(monkeypatch):
    cli._parser.cache_clear()
    reused = _outcomes(REUSE_REQUESTS * 2)
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == _outcomes(REUSE_REQUESTS * 2)

    assert [code for code, _, _ in reused[:4]] == [1, 0, 0, 2]
    assert len(json.loads(reused[1][1])["inputs"]["bundle"]) == 3
    assert json.loads(reused[2][1])["inputs"]["bundle"] == ["-1,1"]
    assert json.loads(reused[3][1])["error"]["type"] == "OddCount"
    for (code, out, _), name in zip(reused[4:], GOLDEN_COMMANDS):
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text()


def test_reused_parser_prints_the_same_help(monkeypatch):
    def help_texts():
        texts = []
        subs = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ([], *([name] for name in subs.choices)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
                main([*command, "--help"])
            assert exit_info.value.code == 0
            texts.append(out.getvalue())
        return texts

    reused = help_texts()
    assert reused == help_texts()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == help_texts()


def test_the_reader_and_argparse_agree_on_a_seeded_corpus():
    # each argv gives the same namespace items in order, the same exception or the
    # same SystemExit both ways, and no parse changes a default; CI replays a larger
    # corpus on every supported Python, since argparse's rules differ between versions
    count = 4000
    read = replay(count, seed=30)
    assert count // 4 < read < count * 3 // 4  # both paths are exercised


def test_the_reader_answers_every_pinned_request_without_argparse(monkeypatch):
    requests = [*GOLDEN_COMMANDS.values(),
                *([command, "A", "2", *options] for command, *options in A2_TEXT_DIGESTS)]
    expected = [outcome(cli._parser().parse_args, argv) for argv in requests]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a request in exact form")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [outcome(cli._parse_args, argv) for argv in requests] == expected
    assert all(result[0] == "ok" for result in expected)


def test_the_seeded_corpus_runs_through_main_without_a_traceback():
    # every argv ends in an exit code 0..3; CI replays a larger corpus, which holds the
    # explicit "=--" values that argparse stores as [] on some Python versions
    codes = replay_main(4000, seed=1)
    assert set(codes) == {0, 1, 2, 3}


@pytest.mark.parametrize("argv", [
    ["gauduchon", "A", "2", "--k", "1", "--t=--", "--bundle=-1,1"],
    ["gauduchon", "A", "2", "--k", "1", "--t=1", "--bundle=--"],
    ["gauduchon", "A", "2", "--k=--", "--t=1", "--bundle=-1,1"],
    ["describe", "A", "2", "--parabolic=--"],
    ["describe", "A", "2", "--format=--"],
    ["balanced", "A", "2", "--omega0=--", "--bundle=-1,1", "--bundle=1,-1"],
    ["primitive-basis", "A", "3", "--gamma=--"],
    ["verify-numeric", "A", "2", "--psi=--"],
    ["verify-numeric", "A", "2", "--psi=1,-1", "--step=--"],
    ["verify-numeric", "A", "2", "--psi=1,-1", "--tol=--"],
])
def test_an_explicit_dash_dash_value_is_a_parse_error(capsys, argv):
    # argparse (3.11, for one) drops the "--" of "--t=--" and stores [] for the option, or
    # appends it; no handler reads that, so it is refused before any of them runs
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("flagcy: cannot parse ")
    name = next(token.partition("=")[0] for token in argv if token.endswith("=--"))
    try:
        stored = vars(cli._parser().parse_args(argv))[name.lstrip("-")]
    except cli._CliParseError:  # this Python's argparse refuses the value itself
        return
    if stored in ([], [[]]):
        assert err == f"flagcy: cannot parse {name}: expected one value, got []\n"


@pytest.mark.parametrize("argv, message", [
    (["describe", "A", 2], "cannot parse argument 3: expected str, got int"),
    (["describe", b"A", "2"], "cannot parse argument 2: expected str, got bytes"),
    ([None], "cannot parse argument 1: expected str, got NoneType"),
    (["gauduchon", "A", "2", "--k", 1, "--t=-1", "--bundle=-1,1"],
     "cannot parse argument 5: expected str, got int"),
    (["describe", "A", "2", ["--format", "json"]], "cannot parse argument 4: expected str, got list"),
    (["-h", 1.5], "cannot parse argument 2: expected str, got float"),  # before help, too
])
def test_arguments_that_are_not_text_are_parse_errors(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"flagcy: {message}\n")


def test_version_prints_one_line_and_exits_zero():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert out.getvalue() == f"flagcy {flagcy.__version__}\n"


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so the version line is read with a regex
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert flagcy.__version__ == re.search(r'^version = "([^"]+)"$', text, re.M).group(1)


def test_public_names_are_pinned():
    public = sorted(
        name for name in dir(flagcy)
        if not name.startswith("_") and not inspect.ismodule(getattr(flagcy, name))
    )
    assert public == [
        "BalancedDatum", "DimensionMismatch", "EigenvalueReport", "FlagcyError",
        "GauduchonDatum", "IllConditioned", "IndexOutOfRange", "InvalidParameter",
        "InvalidRank", "InvariantClass", "LieType", "LineBundleClass", "NotKahler",
        "NotPrimitive", "NotProportional", "OddCount", "ParabolicFlag", "PicardRankOne",
        "PositiveRoot", "PrimitiveBasis", "RootDatum", "TrivialBundle", "UnsupportedType",
        "anticanonical_class", "build_balanced", "build_root_datum", "build_t_gauduchon",
        "cartan_matrix", "check_eigenvalue_formula", "class_from_coeffs", "degree",
        "endomorphism_eigenvalues", "fano_index", "integer_combination", "is_kahler",
        "kahler_potential", "lee_form_coefficients", "lefschetz_contraction", "make_flag",
        "numeric_form_at_origin", "positive_root_count",
        "primitive_basis", "ricci_class", "ricci_flat_scale", "symmetrizer",
        "unipotent_matrix", "verify_c1_trivial", "verify_coclosed", "verify_ricci_flat",
        "volume",
    ]


LAZY_LAB_SCRIPT = """
import sys
import flagcy, flagcy.cli

# the CLI's start-up cost is this import: numpy waits for the numeric lab, and the
# parser and its one-pass tables for the first request
assert "numpy" not in sys.modules, "numpy loaded by the import of flagcy.cli"
assert flagcy.cli._parser.cache_info().currsize == flagcy.cli._commands.cache_info().currsize == 0
lab = {lab!r}
requests = [
    ["describe", "A", "2"],
    ["primitive-basis", "A", "2"],
    ["gauduchon", "A", "2", "--k", "1", "--t=-1", "--bundle=-1,1"],
    ["balanced", "A", "2", "--bundle=-1,1", "--bundle=-2,2"],
]
assert all(flagcy.cli.main(argv) == 0 for argv in requests)
assert set(lab) <= set(dir(flagcy))
assert "numpy" not in sys.modules, "numpy loaded without the numeric lab"
assert flagcy.cli.main(["verify-numeric", "A", "2", "--psi=1,0"]) == 0
assert "numpy" in sys.modules
assert flagcy.kahler_potential is flagcy.potential_lab.kahler_potential
try:
    flagcy.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("flagcy.no_such_name resolved")
"""


def test_numpy_loads_only_for_the_numeric_lab():
    lab = ("EigenvalueReport", "check_eigenvalue_formula", "kahler_potential",
           "numeric_form_at_origin", "unipotent_matrix")
    script = LAZY_LAB_SCRIPT.format(lab=lab)
    done = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
