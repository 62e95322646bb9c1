"""The three workloads: seeded decks of operations, each with its own output check.

A deck is the fixed list of operations one pass runs.  Its composition is the
same for every seed; the seed picks the classes, bundles and parameters, the
partial flags of ``cli_ladder`` and the order of the deck.  Every check
compares against values from ``reference`` (never against the program's
answer to the same request); an expected rejection passes only when its exit
code and error type match.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import flagcy as fl
import flagcy.cli as cli_module

from reference import (
    FlagModel,
    closed_form_root_count,
    degree_zero_vectors,
    frac_str,
    in_two_term_span,
    partial_flag,
)


#: latencies are order statistics over the ops a run completes; a deck holds
#: at least this many ops, so that even one pass leaves ten beyond the 90th
#: percentile
MIN_DECK = 100


@dataclass
class Op:
    """One benchmark operation: the timed call and the check of its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    basis: bool = False  # computes a primitive basis (for degree calls per basis)


@dataclass
class Deck:
    """Ops of one pass, whether flagcy's caches are cleared before each pass,
    and known-defect inputs run once per run outside the timed loop."""

    ops: list[Op]
    cold_each_pass: bool
    probes: list[Op]


class CliResult(NamedTuple):
    """Exit code and captured output of one in-process ``flagcy`` invocation."""

    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """One ``flagcy`` invocation in-process; ``main`` is looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_module.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def output_bytes(result) -> int:
    """Bytes a CLI op wrote to standard output; 0 for a library op."""
    return len(result.out.encode()) if isinstance(result, CliResult) else 0


def _ok_report(result, command: str) -> tuple[dict | None, str | None]:
    code, out, err = result
    if code != 0:
        return None, f"exit code {code}: {out[-200:]}{err[-200:]}"
    report = json.loads(out)
    if report.get("status") != "ok" or report.get("command") != command:
        return None, f"status {report.get('status')!r} for {report.get('command')!r}"
    return report["results"], None


def _alpha_map(model: FlagModel, values) -> dict:
    return {f"alpha_{a}": v for a, v in zip(model.complement, values)}


def _class_arg(values) -> str:
    return ",".join(str(v) for v in values)


def _kahler_class(rng: random.Random, rho: int) -> list[Fraction]:
    """A seeded Kahler class: positive rationals with small denominators."""
    return [Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3))) for _ in range(rho)]


def _parabolic_args(model: FlagModel) -> list[str]:
    return [f"--parabolic={model.parabolic_arg()}"] if model.parabolic else []


# --- cli_ladder -------------------------------------------------------------

LADDER = (("A", 8), ("A", 16), ("A", 24), ("B", 12), ("D", 10), ("E", 8), ("F", 4))
#: rounds of seeded partial-flag requests per ladder type.  About ten
#: full-flag requests per pass cost 150 ms or more, and the partial-flag ones
#: fill the band below them; two rounds put the 90th percentile inside that
#: band instead of on its sparse top edge, where it would jump between runs.
PARTIAL_ROUNDS = 2
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
#: documented failures: (exit code, error type or None for a parse error, argv)
ERROR_REQUESTS = (
    (1, None, ["describe", "A", "x"]),
    (1, None, ["describe", "Z", "2"]),
    (1, None, ["primitive-basis", "B", "4", "--parabolic", "1,x", "--format", "json"]),
    (1, None, ["gauduchon", "A", "3", "--k", "1", "--t", "nope", "--bundle=-1,1", "--format", "json"]),
    (1, None, ["balanced", "D", "5", "--omega0", "1,a", "--bundle=1,-1", "--bundle=2,-2", "--format", "json"]),
    (2, "InvalidRank", ["describe", "E", "9", "--format", "json"]),
    (2, "PicardRankOne", ["primitive-basis", "G", "2", "--parabolic", "1", "--format", "json"]),
    (2, "IndexOutOfRange", ["describe", "A", "8", "--parabolic", "9", "--format", "json"]),
    (2, "InvalidParameter", ["gauduchon", "A", "8", "--k", "0", "--t", "0", "--bundle=-1,1,0,0,0,0,0,0",
                             "--format", "json"]),
    (2, "OddCount", ["balanced", "F", "4", "--bundle=1,-1,0,0", "--format", "json"]),
    (3, "UnsupportedType", ["verify-numeric", "B", "3", "--psi=1,0,-1", "--format", "json"]),
    (3, "UnsupportedType", ["verify-numeric", "G", "2", "--psi=1,-1", "--format", "json"]),
    (3, "UnsupportedType", ["verify-numeric", "E", "6", "--psi=1,0,0,0,0,-1", "--format", "json"]),
)


def _error_op(code: int, expected: str | None, argv: list[str]) -> Op:
    def check(result):
        got, out, err = result
        if got != code:
            return f"exit code {got}, expected {code}"
        if expected is None:
            return None if not out and err.startswith("flagcy:") else "parse error not reported on stderr"
        report = json.loads(out)
        if report.get("status") != "error" or report["error"]["type"] != expected:
            return f"error {report.get('error')}, expected {expected}"
        return None

    return Op(f"error:{argv[0]}:{code}", lambda: run_cli(argv), check)


def _golden_op(golden_dir: Path, name: str) -> Op:
    expected = (golden_dir / name).read_text()
    argv = GOLDEN_COMMANDS[name]

    def check(result):
        code, out, _ = result
        return None if code == 0 and out == expected else f"differs from golden {name}"

    return Op(f"golden:{name}", lambda: run_cli(argv), check, basis=name.startswith("primitive"))


def _describe_op(model: FlagModel) -> Op:
    argv = ["describe", model.family, str(model.n), *_parabolic_args(model), "--format", "json"]
    count = closed_form_root_count(model.family, model.n)
    complement = set(model.complement)

    def check(result):
        res, bad = _ok_report(result, "describe")
        if bad:
            return bad
        table = res["positive_roots"]
        if len(table) != count:
            return f"{len(table)} roots, closed form says {count}"
        off = [row for row in table if row["off_parabolic"]]
        if any(row["off_parabolic"] != any(row["root"][a - 1] for a in complement) for row in table):
            return "off_parabolic flags disagree with the root supports"
        if not res["dim_c"] == len(off) == model.dim:
            return f"dim_c {res['dim_c']}, {len(off)} off-parabolic roots, expected {model.dim}"
        if res["picard_rank"] != model.picard_rank or res["fano_index"] != model.index:
            return "picard rank or Fano index differs"
        if res["anticanonical"] != _alpha_map(model, model.anticanonical):
            return "anticanonical coefficients differ"
        return None

    return Op(f"describe:{model.family}{model.n}", lambda: run_cli(argv), check)


def _expected_basis(model: FlagModel, omega):
    """``q``, ``tau`` and the two-term generators for the default pivot."""
    q, tau = model.pairing_vector(omega)
    basis = []
    for i in range(1, model.picard_rank):
        v = [0] * model.picard_rank
        v[0], v[i] = -q[i], q[0]
        basis.append(v)
    return q, tau, basis


def _primitive_basis_op(model: FlagModel, omega=None) -> Op:
    argv = ["primitive-basis", model.family, str(model.n), *_parabolic_args(model), "--format", "json"]
    if omega is not None:
        argv.append(f"--omega0={_class_arg(omega)}")
    q, tau, basis = _expected_basis(model, omega if omega is not None else model.anticanonical)

    def check(result):
        res, bad = _ok_report(result, "primitive-basis")
        if bad:
            return bad
        got_q = [res["q"][f"alpha_{a}"] for a in model.complement]
        got_basis = [[xi[f"alpha_{a}"] for a in model.complement] for xi in res["basis"]]
        if len(got_basis) != model.picard_rank - 1:
            return f"{len(got_basis)} generators for Picard rank {model.picard_rank}"
        if any(sum(a * b for a, b in zip(got_q, xi)) != 0 for xi in got_basis):
            return "a generator has q . xi != 0"
        if any(d["value"] != "0" for d in res["degrees"]) or len(res["degrees"]) != len(basis):
            return "a generator degree is not 0"
        if tuple(got_q) != q or res["tau"] != tau or got_basis != basis:
            return f"q/tau/basis differ: got {got_q}, {res['tau']}, expected {q}, {tau}"
        if res["pivot"] != f"alpha_{model.complement[0]}":
            return "pivot differs"
        return None

    return Op(f"primitive-basis:{model.family}{model.n}", lambda: run_cli(argv), check, basis=True)


def _gauduchon_op(model: FlagModel, rng: random.Random) -> Op:
    q, _ = model.pairing_vector(model.anticanonical)
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    t = rng.choice((Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(3, 4)))
    bundles = degree_zero_vectors(q, rng, 3)
    argv = ["gauduchon", model.family, str(model.n), *_parabolic_args(model),
            f"--k={k}", f"--t={t}", *(f"--bundle={_class_arg(b)}" for b in bundles), "--format", "json"]
    scale = (1 - t) / 2 * Fraction(k * k * model.dim, model.index ** 2)
    lee = [frac_str(0)] * (len(bundles) + 1)
    lee[1] = frac_str(-Fraction(k * model.dim, model.index) / scale)

    def check(result):
        res, bad = _ok_report(result, "gauduchon")
        if bad:
            return bad
        if not res["ricci_flat"] or any(v != "0" for v in res["ricci_residual"]["coeffs"].values()):
            return "nonzero Ricci residual"
        if res["c1_ratio"] != frac_str(Fraction(model.index, k)):
            return f"c1_ratio {res['c1_ratio']}, expected index/k"
        if res["ricci_flat_scale"] != frac_str(scale):
            return f"scale {res['ricci_flat_scale']}, expected {scale}"
        if res["lee_form"] != lee:
            return "Lee form differs"
        return None

    return Op(f"gauduchon:{model.family}{model.n}", lambda: run_cli(argv), check)


def _balanced_op(model: FlagModel, rng: random.Random) -> Op:
    omega = _kahler_class(rng, model.picard_rank)
    q, _ = model.pairing_vector(omega)
    bundles = degree_zero_vectors(q, rng, 2)
    argv = ["balanced", model.family, str(model.n), *_parabolic_args(model),
            f"--omega0={_class_arg(omega)}", *(f"--bundle={_class_arg(b)}" for b in bundles),
            "--format", "json"]

    def check(result):
        res, bad = _ok_report(result, "balanced")
        if bad:
            return bad
        if not res["balanced"] or any(v != "0" for v in res["coclosed"] + res["lee_form"]):
            return "nonzero coclosed or Lee entry"
        if len(res["coclosed"]) != len(bundles):
            return "wrong number of coclosed entries"
        return None

    return Op(f"balanced:{model.family}{model.n}", lambda: run_cli(argv), check)


def cli_ladder(rng: random.Random, golden_dir: Path) -> Deck:
    # the pass opens with the full-flag describe of each ladder type, so the
    # cold root-datum builds fall on the same ops for every seed; the rest of
    # the deck follows in seeded order
    g2 = FlagModel("G", 2)
    first = [_describe_op(g2), _describe_op(FlagModel("A", 40))]
    ops = [_golden_op(golden_dir, name) for name in sorted(GOLDEN_COMMANDS) for _ in range(3)]
    ops += [_primitive_basis_op(g2)]
    ops += [_gauduchon_op(g2, rng) for _ in range(3)] + [_balanced_op(g2, rng) for _ in range(3)]
    for family, n in LADDER:
        full = FlagModel(family, n)
        first.append(_describe_op(full))
        # primitive-basis and the builders on the full A24 flag take 5 s each,
        # a whole pass on their own; A24 gets them on its seeded partial flags
        if n <= 16:
            ops += [_primitive_basis_op(full), _gauduchon_op(full, rng), _balanced_op(full, rng)]
        for _ in range(PARTIAL_ROUNDS):
            ops.append(_describe_op(partial_flag(family, n, 2, rng)))
            ops.append(_describe_op(partial_flag(family, n, 3, rng)))
            ops.append(_primitive_basis_op(partial_flag(family, n, 2, rng)))
            seeded = partial_flag(family, n, 3, rng)
            ops.append(_primitive_basis_op(seeded, _kahler_class(rng, 3)))
            ops.append(_gauduchon_op(partial_flag(family, n, 2, rng), rng))
            ops.append(_balanced_op(partial_flag(family, n, 2, rng), rng))
            ops.append(_balanced_op(partial_flag(family, n, 3, rng), rng))
    for code, count in ((1, 3), (2, 3), (3, 2)):
        pool = [request for request in ERROR_REQUESTS if request[0] == code]
        ops += [_error_op(*request) for request in rng.sample(pool, count)]
    rng.shuffle(ops)
    return Deck(first + ops, cold_each_pass=True, probes=[])


# --- numeric_lab ------------------------------------------------------------

#: (rank, parabolic set, how many per pass); the flags are fixed so that a
#: pass costs the same for every seed, which draws only the classes and order
NUMERIC_MIX = (
    (2, (), 50), (2, (1,), 10), (2, (2,), 10),
    (3, (), 3), (3, (1,), 4), (3, (2,), 3), (3, (3,), 3), (3, (1, 3), 4), (3, (1, 2), 3), (3, (2, 3), 3),
    (4, (), 1), (4, (2,), 1), (4, (1, 4), 1), (4, (2, 3), 1),
    (5, (2, 4), 1),
)
NUMERIC_ERRORS = (
    (1, None, ["verify-numeric", "A", "3", "--psi=1,x,0", "--format", "json"]),
    (2, "NotKahler", ["verify-numeric", "A", "3", "--omega0=1,-1,2", "--psi=1,0,-1", "--format", "json"]),
    (2, "DimensionMismatch", ["verify-numeric", "A", "4", "--psi=1,-1", "--format", "json"]),
    (3, "UnsupportedType", ["verify-numeric", "D", "4", "--psi=1,0,0,-1", "--format", "json"]),
)
#: malformed steps that end in a traceback at the time this benchmark was written
KNOWN_DEFECTS = (
    ["verify-numeric", "A", "3", "--step=-1", "--psi=-1,1,0", "--format", "json"],
    ["verify-numeric", "A", "3", "--step=nan", "--psi=-1,1,0", "--format", "json"],
)


def _numeric_op(model: FlagModel, rng: random.Random) -> Op:
    omega = [rng.randint(1, 5) for _ in model.complement]
    psi = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in model.complement]
    argv = ["verify-numeric", "A", str(model.n), *_parabolic_args(model),
            f"--omega0={_class_arg(omega)}", f"--psi={_class_arg(psi)}", "--format", "json"]
    exact = model.eigenvalues(omega, psi)

    def check(result):
        res, bad = _ok_report(result, "verify-numeric")
        if bad:
            return bad
        if res["exact"] != [frac_str(v) for v in exact]:
            return "exact spectrum differs from the sorted pairing ratios"
        if not res["passed"] or len(res["numeric"]) != len(exact):
            return "numeric check did not pass"
        worst = max(abs(x - float(e)) for x, e in zip(res["numeric"], exact))
        return None if worst < res["tol"] else f"numeric deviation {worst}"

    return Op(f"verify-numeric:A{model.n}", lambda: run_cli(argv), check)


def _defect_probe(argv: list[str]) -> Op:
    def check(result):
        code, out, err = result
        if code == 1 and not out:
            return None
        if code == 2 and json.loads(out).get("status") == "error":
            return None
        return f"exit code {code}"

    return Op("known-defect:" + argv[3], lambda: run_cli(argv), check)


def numeric_lab(rng: random.Random) -> Deck:
    ops = []
    for n, parabolic, count in NUMERIC_MIX:
        model = FlagModel("A", n, parabolic)
        ops += [_numeric_op(model, rng) for _ in range(count)]
    ops += [_error_op(*request) for request in NUMERIC_ERRORS]
    rng.shuffle(ops)
    return Deck(ops, cold_each_pass=True, probes=[_defect_probe(argv) for argv in KNOWN_DEFECTS])


# --- grid_sweep -------------------------------------------------------------

#: ops run on every grid flag in each pass, with the bundle count of the
#: builders; every flag gets the same mix so that a pass costs the same for
#: every seed
GRID_ROUND = (("basis", 0), ("ricci", 1), ("ricci", 3), ("balanced", 2), ("balanced", 4), ("probe", 0))
#: invalid builder inputs per pass, one per variant in turn on seeded flags
GRID_INVALID = 42


def grid_models() -> list[FlagModel]:
    """The 63 A-D flags of rank <= 4 and Picard rank >= 2."""
    out = []
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(low, 5):
            for size in range(0, n - 1):
                out.extend(FlagModel(family, n, p) for p in combinations(range(1, n + 1), size))
    return out


def _expect_error(name: str, call: Callable[[], object]) -> tuple[Callable, Callable]:
    def run():
        try:
            call()
        except fl.FlagcyError as exc:
            return exc
        return None

    def check(exc):
        return None if type(exc).__name__ == name else f"got {exc!r}, expected {name}"

    return run, check


class _GridFlag:
    """Library objects and expected values for one grid flag."""

    def __init__(self, model: FlagModel, rng: random.Random):
        self.model = model
        self.flag = fl.make_flag(fl.build_root_datum(fl.LieType(model.family, model.n)), model.parabolic)
        self.theta = fl.anticanonical_class(self.flag)
        self.q_theta, _ = model.pairing_vector(model.anticanonical)
        self.omegas = [list(model.anticanonical)] + [
            _kahler_class(rng, model.picard_rank) for _ in range(2)
        ]

    def bundles(self, q, rng, count):
        return [fl.LineBundleClass(c) for c in degree_zero_vectors(q, rng, count)]


def _grid_op(kind: str, g: _GridFlag, rng: random.Random, count: int) -> Op:
    """One library op on a grid flag.

    ``count`` is the number of bundles for the builders and, for an invalid
    input, the ordinal that picks which of the seven kinds it is.
    """
    model, flag = g.model, g.flag
    name = f"{kind}:{model.family}{model.n}"
    if kind == "basis":
        omega = rng.choice(g.omegas)
        omega_class = fl.class_from_coeffs(flag, omega)
        q, tau, basis = _expected_basis(model, omega)

        def check(pb):
            if pb.q != q or pb.tau != tau or [list(b.coeffs) for b in pb.basis] != basis:
                return f"basis differs: q {pb.q} tau {pb.tau}, expected {q} {tau}"
            return None if pb.pivot_gamma == model.complement[0] else "pivot differs"

        return Op(name, lambda: fl.primitive_basis(flag, omega_class), check, basis=True)

    if kind == "ricci":
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        t = rng.choice((Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2, 3)))
        bundles = g.bundles(g.q_theta, rng, count)
        scale = (1 - t) / 2 * Fraction(k * k * model.dim, model.index ** 2)

        def run():
            datum = fl.build_t_gauduchon(flag, k, t, bundles)
            return datum, fl.verify_ricci_flat(datum), fl.verify_c1_trivial(datum)

        def check(result):
            datum, residual, ratio = result
            if any(c != 0 for c in residual.coeffs):
                return "nonzero Ricci residual"
            if datum.scale != scale or ratio != Fraction(model.index, k):
                return f"scale {datum.scale} or c1 ratio {ratio} differs"
            return None

        return Op(name, run, check)

    if kind == "balanced":
        omega = rng.choice(g.omegas)
        omega_class = fl.class_from_coeffs(flag, omega)
        q, _ = model.pairing_vector(omega)
        bundles = g.bundles(q, rng, count)

        def run():
            datum = fl.build_balanced(flag, omega_class, bundles)
            return fl.verify_coclosed(datum), fl.lee_form_coefficients(flag, datum.psi, datum.omega0)

        def check(result):
            coclosed, lee = result
            ok = len(coclosed) == len(bundles) and all(v == 0 for v in coclosed + lee)
            return None if ok else "nonzero coclosed or Lee entry"

        return Op(name, run, check)

    if kind == "probe":
        omega = rng.choice(g.omegas)
        omega_class = fl.class_from_coeffs(flag, omega)
        q, _ = model.pairing_vector(omega)
        pb = fl.primitive_basis(flag, omega_class)  # an input here; basis ops check it
        c = degree_zero_vectors(q, rng, 1, spread=4)[0]
        member = in_two_term_span(q, 0, c)
        expected = tuple(c[i] // q[0] for i in range(1, len(c))) if member else None
        bundle = fl.LineBundleClass(c)

        def run():
            return fl.degree(flag, bundle.to_class(), omega_class), fl.integer_combination(pb, bundle)

        def check(result):
            (value, _), combo = result
            if value != 0:
                return f"degree {value} of a degree-zero vector"
            return None if combo == expected else f"combination {combo}, expected {expected}"

        return Op(name, run, check)

    # invalid builder inputs, each with the typed error it must raise
    rho = model.picard_rank
    bundles = g.bundles(g.q_theta, rng, 3)
    variant = count % 7
    if variant == 0:
        label, call = "TrivialBundle", lambda: fl.build_t_gauduchon(flag, 1, 0, [fl.LineBundleClass([0] * rho)])
    elif variant == 1:
        unit = fl.LineBundleClass([1] + [0] * (rho - 1))
        label, call = "NotPrimitive", lambda: fl.build_balanced(flag, g.theta, [bundles[0], unit])
    elif variant == 2:
        label, call = "InvalidParameter", lambda: fl.build_t_gauduchon(flag, 0, -1, bundles[:1])
    elif variant == 3:
        t = rng.choice((Fraction(1), Fraction(3, 2), Fraction(5)))
        label, call = "InvalidParameter", lambda: fl.build_t_gauduchon(flag, 2, t, bundles[:1])
    elif variant == 4:
        label, call = "InvalidParameter", lambda: fl.build_t_gauduchon(flag, 1, 0, bundles[:2])
    elif variant == 5:
        label, call = "OddCount", lambda: fl.build_balanced(flag, g.theta, bundles)
    else:
        bad = [Fraction(0)] + [Fraction(1)] * (rho - 1)
        rng.shuffle(bad)
        omega_class = fl.InvariantClass(0, tuple(bad))
        label, call = "NotKahler", lambda: fl.build_balanced(flag, omega_class, bundles[:2])
    run, check = _expect_error(label, call)
    return Op(f"invalid:{label}", run, check)


def grid_sweep(rng: random.Random) -> Deck:
    flags = [_GridFlag(model, rng) for model in grid_models()]
    ops = [_grid_op(kind, g, rng, count) for g in flags for kind, count in GRID_ROUND]
    ops += [_grid_op("invalid", rng.choice(flags), rng, i) for i in range(GRID_INVALID)]
    rng.shuffle(ops)
    return Deck(ops, cold_each_pass=False, probes=[])


def build(workload: str, seed: int, golden_dir: Path) -> Deck:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_ladder":
        deck = cli_ladder(rng, golden_dir)
    elif workload == "numeric_lab":
        deck = numeric_lab(rng)
    else:
        deck = grid_sweep(rng)
    if len(deck.ops) < MIN_DECK:
        raise AssertionError(f"{workload} deck has {len(deck.ops)} ops, fewer than {MIN_DECK}")
    return deck

