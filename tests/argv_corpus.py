"""A seeded argv corpus that replays each request through ``flagcy.cli._parse_args`` and argparse,
and through ``flagcy.cli.main``.

The corpus mixes requests in exact form, which ``cli._read`` answers in one pass, with
abbreviated options, ``--``, help flags, dash values, repeated options, bad choices and
numerals, empty tokens and missing required inputs, which argparse answers.  Each request
must give the same namespace items in order, the same exception or the same ``SystemExit``
(with the same output) both ways.  Run through ``main``, each must end in an exit code
0..3 and raise nothing else.  ``test_cli.py`` replays small corpora; to replay a larger
one both ways, as CI does on every supported Python:

    PYTHONPATH=src python tests/argv_corpus.py 100000 30
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from collections import Counter

import flagcy.cli as cli

# per option: the values a request draws from, the first ones valid most of the time
VALUES = {
    "family": ["A", "A", "B", "G", "E", "Z", "a", "AB", ""],
    "rank": ["2", "3", " 2", "1", "x", "٣", "1_0", "0", "2.0", "99999999999999999999"],
    "--parabolic": ["", "1", "1,2", "2", "x", "1,1", "-1"],
    "--omega0": ["anticanonical", "1,2", "1/2,1", "1,2/3", "x", "-1,1", "1e400,1"],
    "--gamma": ["1", "2", "x", "٢", "-1"],
    "--k": ["1", "2", "-2", "0", "x", "1.5", "٣"],
    "--t": ["-1", "1/3", "1", "x", "", "-1/2"],
    "--bundle": ["-1,1", "-2,2", "1,-1", "-3,3", "a,1", "-1,0,1"],
    "--psi": ["1,-1", "1,0", "-1,1,0", "x", "1/2,x"],
    "--step": ["1e-3", "1e-4", "nan", "x", "-1", "1_0", "inf"],
    "--tol": ["1e-5", "1e-12", "x", "inf", "0"],
    "--format": ["text", "json", "xml", "JSON", ""],
    "--diagnostic": [None],  # a flag takes no value
}
OPTIONS = {
    "describe": (),
    "primitive-basis": ("--omega0", "--gamma"),
    "gauduchon": ("--k", "--t", "--bundle", "--diagnostic"),
    "balanced": ("--omega0", "--bundle"),
    "verify-numeric": ("--omega0", "--psi", "--step", "--tol"),
}
REQUIRED = {"--k", "--t", "--psi"}
# tokens no well-formed request holds
NOISE = ["--", "-h", "--help", "-", "--version", "--nope", "", "extra", "-1", "--format=",
         "--=x", "-x", "--bundle", "--t", "--diagnostic=1", "--diagnostic=", "--t=--", "--om=1"]
FIRST = ["nonsense", "", "-h", "--help", "--version", "describ", "--format", "Describe"]


def _value(rng: random.Random, name: str):
    values = VALUES[name]
    return values[0] if rng.random() < 0.85 else rng.choice(values)


def _option(rng: random.Random, name: str) -> list[str]:
    """``name`` with a value, in exact, ``=``, abbreviated or dash-separated form."""
    value = _value(rng, name)
    form = rng.random()
    if form < 0.06:  # an abbreviation argparse resolves, or finds ambiguous
        name = name[: rng.randint(3, len(name))]
    if value is None:
        return [name + "=1"] if form > 0.96 else [name]
    if form > 0.96:
        return [name, "-" + value]
    if value.startswith("-"):  # given separately only now and then
        return [name, value] if form < 0.1 else [f"{name}={value}"]
    return [name, value] if form < 0.5 else [f"{name}={value}"]


def request(rng: random.Random) -> list[str]:
    """One argv: a request of a random command, then up to three random edits."""
    command = rng.choice(list(OPTIONS)) if rng.random() > 0.04 else rng.choice(FIRST)
    groups = []
    for name in ("--parabolic", *OPTIONS.get(command, ()), "--format"):
        repeats = rng.choice((0, 1, 1, 2, 3)) if name == "--bundle" else 1
        chance = 0.97 if name in REQUIRED else 0.5
        groups += [_option(rng, name) for _ in range(repeats) if rng.random() < chance]
    if rng.random() < 0.1:  # a repeated store: the last one counts
        groups.append(_option(rng, rng.choice(("--parabolic", "--format", *OPTIONS.get(command, ())))))
    rng.shuffle(groups)
    # the positionals in order, between the options half of the time
    at = sorted(rng.choices(range(len(groups) + 1), k=2)) if rng.random() < 0.5 else [0, 0]
    groups.insert(at[1], [_value(rng, "rank")])
    groups.insert(at[0], [_value(rng, "family")])
    argv = [command, *(token for group in groups for token in group)]
    for _ in range(rng.choice((0, 0, 0, 0, 0, 0, 1, 1, 2, 3))):
        edit, at = rng.random(), rng.randrange(1, len(argv) + 1)
        if edit < 0.4:
            argv.insert(at, rng.choice(NOISE))
        elif edit < 0.6 and at < len(argv):
            del argv[at]
        elif at < len(argv):
            argv[at] = rng.choice([*NOISE, *rng.choice(list(VALUES.values()))[:3], "٣"]) or ""
    return argv


def outcome(parse, argv: list[str]) -> tuple:
    """What ``parse(argv)`` gives: its namespace items in order, or what it raises, with its output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    except Exception as exc:  # the exception itself is the outcome
        result = ("raise", type(exc).__name__, str(exc))
    else:  # repr tells 1 from 1.0 and "1", and a nan from itself
        result = ("ok", [(key, repr(value)) for key, value in vars(namespace).items()])
    return (*result, out.getvalue(), err.getvalue())


def _defaults(parser) -> list:
    subs = next(a for a in parser._actions if a.dest == "command")
    return [(name, a.dest, repr(a.default)) for name, sub in subs.choices.items() for a in sub._actions]


def replay(count: int, seed: int) -> int:
    """Replay ``count`` seeded argv through both paths; the number ``cli._read`` answered.

    Raises AssertionError on the first argv whose outcomes differ, or if a default changed.
    """
    rng, parser, read = random.Random(seed), cli._parser(), 0
    for _ in range(count):
        argv = request(rng)
        read += cli._read(parser, argv) is not None
        ours, theirs = outcome(cli._parse_args, argv), outcome(parser.parse_args, argv)
        if ours != theirs:
            raise AssertionError(f"{argv!r}:\n  one pass: {ours!r}\n  argparse: {theirs!r}")
    if _defaults(parser) != _defaults(cli.build_parser()):
        raise AssertionError("a parse changed an action's default")
    return read


def replay_main(count: int, seed: int) -> Counter:
    """Run ``count`` seeded argv through ``cli.main``; how many ended in each exit code.

    Help and ``--version`` end in ``SystemExit(0)``.  Raises AssertionError on the first argv
    that raises anything else, or ends in an exit code outside 0..3.
    """
    rng, codes = random.Random(seed), Counter()
    for _ in range(count):
        argv = request(rng)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{argv!r} raised {type(exc).__name__}: {exc}") from exc
        if code not in (0, 1, 2, 3):
            raise AssertionError(f"{argv!r} exited {code!r}")
        codes[code] += 1
    return codes


if __name__ == "__main__":
    count, seed = map(int, sys.argv[1:3])
    read = replay(count, seed)
    print(f"{count} argv agree on Python {sys.version.split()[0]}; {read} read in one pass")
    codes = replay_main(count, seed)
    print(f"through main, exit codes: {dict(sorted(codes.items()))}")
