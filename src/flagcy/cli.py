"""Command-line front end: exact text or JSON reports for every operation.

Exit codes: 0 success, 1 parse error, 2 mathematical precondition violated (including a failed
numeric tolerance check), 3 unsupported feature (including an exact result beyond the
interpreter's digit limit).  The parser is the one registry of commands and options: each
subcommand carries its handler, ``main`` hands it the request's flag, which ``_flag`` builds
once per process for each family, rank and parabolic set, and a report echoes the parsed
inputs in the parser's order.  Every argument must be text.  A request in exact form (exact
option strings, no separate value that starts with ``-``) is read in one pass against the
subcommand's own argparse actions, into the namespace argparse would build; argparse answers
everything else, so help, usage and error text are its own.  ``_parse`` reads every numeral,
the argparse types' too, so a bad one reads ``flagcy: cannot parse <what> '<text>': <reason>``;
a rational goes through ``errors._fraction``, which bounds its decimal exponent.
Handlers return library values and only the emitters render them: an exact ``Fraction`` as
its fraction string, never with a decimal point, and numeric-lab floats as plain floats.
JSON output passes pre-rendered fragments through verbatim: ``describe`` renders its root
table to text, one template per root, each coordinate vector turned into one string of
digits in C (every root and coroot coordinate is 0..6) whose characters are joined.  An
input that the report echoes may hold no control or line-break character (exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache, lru_cache, partial
from json.encoder import encode_basestring_ascii as _s
from math import inf, isfinite
from typing import Sequence

from . import __version__
from .bundle_constructor import (
    build_balanced,
    build_t_gauduchon,
    lee_form_coefficients,
    verify_c1_trivial,
    verify_coclosed,
    verify_ricci_flat,
)
from .errors import FlagcyError, UnsupportedType, _fraction
from .flag_geometry import (
    InvariantClass,
    ParabolicFlag,
    class_from_coeffs,
    fano_index,
    make_flag,
)
from .picard_lattice import LineBundleClass, primitive_basis
from .root_system import FAMILIES, LieType, build_root_datum


class _CliParseError(Exception):
    """Raised for anything the argument layer cannot make sense of."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map parse errors to 1
        raise _CliParseError(message)


def _printable(text: str, what: str) -> str:
    """``text`` itself, once it holds no control, format or line-break character.

    The text report prints an echoed input raw, so such a character would split or hide it.
    Spaces of any kind are printable here, and an ASCII numeral may hold only spaces.
    """
    if not text.isprintable():
        from unicodedata import category  # loads only for a non-printable input
        if any(not c.isprintable() and category(c) != "Zs" for c in text):
            raise _CliParseError(
                f"cannot parse {what} {text!r}: control and line-break characters are not allowed")
    return text


def _parse(text: str, convert, what: str):
    """``convert`` of ``text`` as it stands, once its numerals are known to be ASCII without ``_``.

    ``int``, ``float`` and ``Fraction`` also read other Unicode digits and ``_`` separators,
    and the echoed input would then hide the value used.  The argparse types call it too.
    """
    if not text.isascii() or "_" in text:
        raise _CliParseError(f"cannot parse {what} {text!r}: numerals must be ASCII, without '_'")
    try:
        return convert(_printable(text, what))
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliParseError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_csv(text: str, convert, what: str) -> tuple:
    """``_parse`` with ``convert`` applied to each comma-separated part of ``text``."""
    return _parse(text, lambda t: tuple(map(convert, t.split(","))), what)


def _omega0_coeffs(flag: ParabolicFlag, text: str) -> tuple:
    """Coefficients of ``--omega0``: the anticanonical ones, or parsed rationals."""
    if text.strip() == "anticanonical":
        return flag.anticanonical
    return _parse_csv(text, _fraction, "rational vector")


def _bundles(args) -> list[LineBundleClass]:
    return [LineBundleClass(_parse_csv(text, int, "bundle exponents")) for text in args.bundle]


def _alpha_key(alpha: int) -> str:
    return f"alpha_{alpha}"


def _coeff_map(flag: ParabolicFlag, values) -> dict:
    return {_alpha_key(a): v for a, v in zip(flag.complement, values)}


def _class_json(flag: ParabolicFlag, c: InvariantClass) -> dict:
    return {"two_pi_power": c.two_pi_power, "coeffs": _coeff_map(flag, c.coeffs)}


def _echo(value):
    # JSON has no literal for nan or inf, so a non-finite float is echoed as text
    return str(value) if isinstance(value, float) and not isfinite(value) else value


def _inputs_echo(args) -> dict:
    """Every input of the request, in the parser's order, which puts ``--format`` last."""
    echo = {k: _echo(v) for k, v in vars(args).items() if k not in ("command", "handler")}
    for key, value in echo.items():
        for text in value if isinstance(value, list) else [value]:
            if isinstance(text, str):
                _printable(text, f"--{key}")
    return echo


class _Rendered(str):
    """JSON text that ``_json`` writes out verbatim."""


# byte i < 10 becomes its decimal digit; any larger byte becomes 0xff, which no ASCII decode admits
_DIGITS = b"0123456789" + b"\xff" * 246


def _digits(coords: tuple[int, ...]) -> str:
    """The coordinates 0..9 as one string of digits, made in C: ``(6, 0, 2)`` is ``"602"``.

    Joining its characters renders the coordinates without a ``str`` per coordinate, since
    CPython shares one-character strings; a coordinate outside 0..9 raises instead.
    """
    return bytes(coords).translate(_DIGITS).decode("ascii")


def _cmd_describe(flag: ParabolicFlag, args) -> dict:
    off = set(map(id, flag.phi_complement))  # make_flag picks phi from the datum's own roots
    roots = flag.datum.positive_roots
    if args.format == "text":
        table = [{"root": b.root_coords, "coroot": b.coroot_coords,
                  "height": b.height, "off_parabolic": id(b) in off} for b in roots]
    else:  # results.positive_roots as JSON text at its indent depth, one template per root
        ints, strs = ",\n          ", '",\n          "'
        table = _Rendered("[\n      " + ",\n      ".join(
            f'{{\n        "coroot": [\n          "{strs.join(_digits(b.coroot_coords))}"\n        ],\n'
            f'        "height": {b.height},\n        "off_parabolic": {"true" if id(b) in off else "false"},\n'
            f'        "root": [\n          {ints.join(_digits(b.root_coords))}\n        ]\n      }}'
            for b in roots) + "\n    ]")
    return {
        "dim_c": flag.dim_c,
        "picard_rank": flag.picard_rank,
        "fano_index": fano_index(flag),
        "anticanonical": _coeff_map(flag, flag.anticanonical),
        "kahler_cone_generators": [_alpha_key(a) for a in flag.complement],
        "positive_roots": table,
    }


def _cmd_primitive_basis(flag: ParabolicFlag, args) -> dict:
    omega0 = class_from_coeffs(flag, _omega0_coeffs(flag, args.omega0))
    pb = primitive_basis(flag, omega0, args.gamma)
    # degree of xi against the minimal integral multiple of omega0: tau * (q . xi)
    degrees = [
        {"value": str(pb.tau * sum(a * b for a, b in zip(pb.q, xi.coeffs))), "two_pi_power": 0}
        for xi in pb.basis
    ]
    return {
        "pivot": _alpha_key(pb.pivot_gamma),
        "tau": pb.tau,
        "q": _coeff_map(flag, pb.q),
        "basis": [_coeff_map(flag, xi.coeffs) for xi in pb.basis],
        "degrees": degrees,
    }


def _cmd_gauduchon(flag: ParabolicFlag, args) -> dict:
    bundles = _bundles(args)
    datum = build_t_gauduchon(
        flag, args.k, _parse(args.t, _fraction, "rational"), bundles, diagnostic=args.diagnostic
    )
    residual = verify_ricci_flat(datum)
    ratio = verify_c1_trivial(datum)
    lee = lee_form_coefficients(flag, datum.psi, datum.omega0)
    return {
        "ricci_flat_scale": datum.scale,
        "omega0": _class_json(flag, datum.omega0),
        "psi": [_class_json(flag, p) for p in datum.psi],
        "ricci_residual": _class_json(flag, residual),
        "ricci_flat": residual.is_zero,
        "c1_ratio": ratio,
        "lee_form": lee,
    }


def _cmd_balanced(flag: ParabolicFlag, args) -> dict:
    omega0 = class_from_coeffs(flag, _omega0_coeffs(flag, args.omega0))
    datum = build_balanced(flag, omega0, _bundles(args))
    coclosed = verify_coclosed(datum)
    lee = lee_form_coefficients(flag, datum.psi, datum.omega0)
    return {
        "omega0": _class_json(flag, datum.omega0),
        "psi": [_class_json(flag, p) for p in datum.psi],
        "coclosed": coclosed,
        "lee_form": lee,
        "balanced": all(v == 0 for v in coclosed),
    }


def _cmd_verify_numeric(flag: ParabolicFlag, args) -> dict:
    from .potential_lab import check_eigenvalue_formula  # numpy loads only here
    omega_coeffs = _omega0_coeffs(flag, args.omega0)
    psi_coeffs = _parse_csv(args.psi, _fraction, "rational vector")
    report = check_eigenvalue_formula(
        flag, omega_coeffs, psi_coeffs, step=args.step, tol=args.tol
    )
    return dict(vars(report))  # the report's fields, in field order


def _text_lines(value, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        children = [(f"{prefix}.{key}" if prefix else str(key), item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        children = [(f"{prefix}[{i}]", item) for i, item in enumerate(value)]
    else:
        return [f"{prefix} = {value}"]
    return [line for path, item in children for line in _text_lines(item, path)]


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=str)`` byte for byte, for str-keyed reports.

    So a ``Fraction`` is its quoted fraction string, and plain data is ``json.dumps`` without
    ``default``.  A ``_Rendered`` fragment is JSON text already and passes through verbatim.
    """
    if isinstance(value, str):
        return value if type(value) is _Rendered else _s(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return f'"{value}"'
    if isinstance(value, float):
        return ("NaN" if value != value else "Infinity" if value == inf
                else "-Infinity" if value == -inf else float.__repr__(value))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        parts = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(parts)}{indent}]" if value else "[]"
    if isinstance(value, dict):
        parts = [f"{_s(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(parts)}{indent}}}" if value else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(report: dict, fmt: str) -> str:
    try:
        return _json(report) if fmt == "json" else "\n".join(_text_lines(report))
    except ValueError as exc:  # an exact integer beyond the interpreter's str conversion limit
        limit = sys.get_int_max_str_digits()
        raise UnsupportedType(f"an exact result has more than {limit} digits to render") from exc


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; stdout now points at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _command(subs, name: str, handler, help: str) -> argparse.ArgumentParser:
    """The subcommand ``name`` with the inputs of its flag; ``main`` builds it for ``handler``."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    p.add_argument("family", choices=FAMILIES, help="simple Lie family")
    p.add_argument("rank", type=partial(_parse, convert=int, what="rank"), help="rank of the family")
    p.add_argument(
        "--parabolic",
        default="",
        help="comma-separated 1-based simple-root indices spanning the parabolic; empty for the full flag",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flagcy", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"flagcy {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "describe", _cmd_describe, "invariant geometry of one flag variety")

    p = _command(subs, "primitive-basis", _cmd_primitive_basis, "degree-zero Picard generators")
    p.add_argument(
        "--omega0",
        default="anticanonical",
        help="Kahler class: comma-separated rationals over the Picard directions, or 'anticanonical'",
    )
    p.add_argument(
        "--gamma", type=partial(_parse, convert=int, what="pivot index"), default=None,
        help="pivot simple-root index (1-based)",
    )

    p = _command(subs, "gauduchon", _cmd_gauduchon, "build and verify a Ricci-flat torus-bundle datum")
    p.add_argument(
        "--k", type=partial(_parse, convert=int, what="twist"), required=True,
        help="nonzero twist of the anticanonical root",
    )
    p.add_argument("--t", required=True, help="connection parameter, a rational < 1")
    p.add_argument(
        "--bundle",
        action="append",
        default=[],
        help="degree-zero bundle exponents, e.g. --bundle=-1,1 (repeatable; need 2r-1 of them)",
    )
    p.add_argument(
        "--diagnostic",
        action="store_true",
        help="admit t >= 1 so the nonzero residual can be inspected",
    )

    p = _command(subs, "balanced", _cmd_balanced, "build and verify a balanced torus-bundle datum")
    p.add_argument("--omega0", default="anticanonical")
    p.add_argument(
        "--bundle",
        action="append",
        default=[],
        help="degree-zero bundle exponents (repeatable; need an even number)",
    )

    p = _command(
        subs, "verify-numeric", _cmd_verify_numeric,
        "finite-difference eigenvalue check on a type-A big cell",
    )
    p.add_argument("--omega0", default="anticanonical")
    p.add_argument("--psi", required=True, help="class coefficients, e.g. --psi=-1,1")
    p.add_argument("--step", type=partial(_parse, convert=float, what="step"), default=1e-4)
    p.add_argument("--tol", type=partial(_parse, convert=float, what="tolerance"), default=1e-5)

    for p in subs.choices.values():  # added last, so every report echoes it last
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_parser = cache(build_parser)  # parse_args keeps no state, so one parser serves all calls


def _readable(action: argparse.Action) -> bool:
    """Whether ``_read`` takes ``action`` as argparse does: a constant flag, or one value
    stored or appended to a list, with a default that argparse leaves as it is."""
    if getattr(action, "deprecated", False) or action.default is argparse.SUPPRESS:
        return False
    if isinstance(action, argparse._StoreConstAction):  # store_const, store_true, store_false
        return True
    if type(action) is argparse._AppendAction:
        return action.nargs is None and type(action.default) is list
    return (type(action) is argparse._StoreAction and action.nargs is None
            and not (isinstance(action.default, str) and action.type is not None))


@lru_cache(maxsize=1)
def _commands(parser: argparse.ArgumentParser) -> dict:
    """For each subcommand whose actions are all ``_readable``: its options by exact option
    string, its positionals in order, every destination with its default in argparse's
    namespace order (the actions, then the subcommand's own defaults such as ``handler``),
    and the required destinations.  Built on the first request, once per parser."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, sub in subs.choices.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        dests = [a.dest for a in actions]
        if len(set(dests)) < len(dests) or "command" in dests or not all(map(_readable, actions)):
            continue  # argparse answers every request of this command
        options = {s: a for a in actions for s in a.option_strings}
        positionals = tuple(a for a in actions if not a.option_strings)
        defaults = {a.dest: a.default for a in actions}
        for dest, value in sub._defaults.items():
            defaults.setdefault(dest, value)
        tables[name] = (options, positionals, defaults, {a.dest for a in actions if a.required})
    return tables


def _read(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``parser.parse_args(argv)`` returns, read in one pass, or None.

    None means argparse must answer: a first token that is no command, a token that starts
    with ``-`` and is not an exact option string, ``=`` on a flag, a separate value that
    starts with ``-`` or is missing, an explicit ``--`` value, a failed conversion or choice,
    an extra positional, or a missing required input.  It never raises and never prints.
    """
    command = _commands(parser).get(argv[0]) if argv else None
    if command is None:
        return None
    options, positionals, values, required = command
    values, seen, positionals, tokens = dict(values), set(), iter(positionals), iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            action, value = next(positionals, None), token
            if action is None:
                return None
        else:
            name, eq, value = token.partition("=")
            action = options.get(name)
            # "=" on a flag is an argparse error, and argparse versions differ on "=--"
            if action is None or eq and (action.nargs == 0 or value == "--"):
                return None
            if action.nargs == 0:
                value = action.const
            elif not eq:
                value = next(tokens, "-")  # a missing value defers like a dash one
                if value[:1] == "-":
                    return None
        try:
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                return None
        except Exception:  # argparse converts again and raises this, or an earlier error
            return None
        dest = action.dest
        values[dest] = [*values[dest], value] if type(action) is argparse._AppendAction else value
        seen.add(dest)
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, read in one pass where ``_read`` can, once every
    argument is known to be text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, arg in enumerate(argv, 1):
        if not isinstance(arg, str):
            raise _CliParseError(f"cannot parse argument {i}: expected str, got {type(arg).__name__}")
    parser = _parser()
    return _read(parser, argv) or parser.parse_args(argv)


@lru_cache(maxsize=64)
def _flag(lie_type: LieType, parabolic: tuple[int, ...]) -> ParabolicFlag:
    """The flag of a request, built once per process for each key; an error is never cached.

    Only repeated ``main`` calls in one process hit it; a console-script run serves one
    request.  The flag carries the numeric lab's stencil memo, so clearing this cache
    drops that memo too.
    """
    return make_flag(build_root_datum(lie_type), parabolic)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        report = {"command": args.command, "inputs": _inputs_echo(args)}
        lie_type = LieType(args.family, args.rank)
        parabolic = args.parabolic.strip()
        indices = _parse_csv(parabolic, int, "parabolic set") if parabolic else ()
        results = args.handler(_flag(lie_type, indices), args)
        text = _render({**report, "results": results, "status": "ok"}, args.format)
    except _CliParseError as exc:
        print(f"flagcy: {exc}", file=sys.stderr)
        return 1
    except FlagcyError as exc:
        report["results"] = {}
        report["status"] = "error"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(_render(report, args.format))
        return 3 if isinstance(exc, UnsupportedType) else 2

    _emit(text)
    if args.command == "verify-numeric" and not results["passed"]:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
