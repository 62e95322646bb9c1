"""flagcy benchmark: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --workload cli_ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` with nothing to build.  ``--trace 0`` measures the end-to-end
metrics: it runs whole passes over the workload's deck (at least two) for
``--seconds``, and a pass starts only if it should end in time.  Every
timing is given in reference-speed time (see ``Clock``): the wall time
scaled by how fast a fixed calibration loop, run right before and right
after it, ran against its time on an unloaded vCPU.  That takes out the
minutes-long swings in speed of a shared host.  The latency percentiles are
taken over every op completed in the run.
``--trace 1`` runs a fixed amount of work instead (a traced pass, an
untraced pass and a second traced pass over the same deck), so every count
it reports repeats exactly for a given seed.  The last line of standard
output is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: pin native thread pools so the load comes from one thread of this process
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 2
#: set-up is measured this many times in a run, spread over it
SETUP_REPEATS = 15
#: reference speed: the speed at which the calibration loop takes this many
#: seconds, about its time on an unloaded vCPU of the 2-vCPU VM the benchmark
#: was written on
REFERENCE_S = 0.5e-3


def calibration() -> Fraction:
    """A fixed piece of exact arithmetic, like flagcy's own and independent of
    it: its time tracks how fast the host runs this process just now."""
    total = Fraction(0)
    for i in range(1, 101):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    return total


class Clock:
    """Turns wall times into reference-speed times.

    On a shared host, other tenants slow this process by up to 2x for
    seconds to minutes at a time, and they slow the calibration loop by the
    same factor.  So a wall time is scaled by ``REFERENCE_S`` over the mean
    of the calibration times taken right before and right after it.  A
    change that makes flagcy faster or slower moves the scaled time just as
    it moves the wall time.
    """

    def __init__(self):
        self.start()

    def start(self) -> None:
        """Calibrates before a wall time is taken."""
        self.last = self.calibrate()

    @staticmethod
    def calibrate() -> float:
        start = time.perf_counter()
        calibration()
        return time.perf_counter() - start

    def scale(self, elapsed: float) -> float:
        """Scales a wall time that began right after the last calibration; the
        calibration this runs also serves as the next time's ``before``."""
        before, self.last = self.last, self.calibrate()
        return elapsed * REFERENCE_S / ((before + self.last) / 2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_ladder", "grid_sweep", "numeric_lab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(clock: Clock):
    """A function timing a fresh interpreter that imports flagcy and flagcy.cli,
    in reference-speed seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, "-c", "import flagcy, flagcy.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # byte-compiles once, untimed

    def probe() -> float:
        clock.start()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        return clock.scale(time.perf_counter() - start)

    return probe


def library_caches():
    """Every functools-cached function in the flagcy modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "flagcy" or name.startswith("flagcy."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


class Runner:
    """Runs passes over a deck, timing each operation and checking its output."""

    def __init__(self, deck, caches, output_bytes, clock: Clock):
        self.deck = deck
        self.caches = caches
        self.output_bytes = output_bytes
        self.clock = clock
        self.basis_ops = {i for i, op in enumerate(deck.ops) if op.basis}
        #: reference-speed seconds of each op, one per pass
        self.samples: list[list[float]] = [[] for _ in deck.ops]
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, float, int]:
        """One pass over the deck; returns the wall and the reference-speed
        time spent inside operations and the CLI bytes written."""
        if self.deck.cold_each_pass:
            for f in self.caches:
                f.cache_clear()
        wall, busy, cli_bytes = 0.0, 0.0, 0
        self.clock.start()
        for i, op in enumerate(self.deck.ops):
            if tracer is not None:
                tracer.current_op = i
            elapsed, scaled, result, failure = timed_call(op, self.clock)
            self.samples[i].append(scaled)
            self.attempted += 1
            if failure:
                self.failures.append(f"{op.label}: {failure}")
            wall += elapsed
            busy += scaled
            cli_bytes += self.output_bytes(result)
        return wall, busy, cli_bytes

    def probe_failures(self) -> list[str]:
        """Runs the deck's known-defect inputs once, untimed; returns those that still fail."""
        out = []
        for op in self.deck.probes:
            _, _, _, failure = timed_call(op, self.clock)
            print(f"known-defect input {op.label}: {'still fails: ' + failure if failure else 'handled'}")
            if failure:
                out.append(op.label)
        return out


def timed_call(op, clock: Clock):
    """Runs one op right after the clock's last calibration; returns its wall
    time, its reference-speed time, its result and what failed, if anything."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a traceback from the program is a failed op
        elapsed = time.perf_counter() - start
        return elapsed, clock.scale(elapsed), None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    scaled = clock.scale(elapsed)
    try:
        failure = op.check(result)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        failure = f"output did not parse: {exc!r}"
    return elapsed, scaled, result, failure


def nearest_rank(sorted_values, share):
    return sorted_values[max(0, ceil(share * len(sorted_values)) - 1)]


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    """Metrics over a run, in reference-speed time; the percentiles are taken
    over every op completed, all passes pooled."""
    ordered = sorted(itertools.chain.from_iterable(runner.samples))
    n = len(ordered)
    print(f"ops timed: {n} ({len(runner.deck.ops)} per pass); beyond p90: {n - ceil(0.9 * n)}")
    by_label: dict[str, list[float]] = {}
    for op, values in zip(runner.deck.ops, runner.samples):
        by_label.setdefault(op.label.split(":")[0], []).extend(values)
    for label, values in sorted(by_label.items()):
        print(f"  {label:<16} n={len(values):<5} median_ms={1e3 * statistics.median(values):.3f}")
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_p90_ms": 1e3 * nearest_rank(ordered, 0.9),
        "ops_per_s": n / sum(ordered),
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, tracer) -> dict[str, float]:
    """Traced pass, untraced pass, traced pass; figures from the second traced
    pass, with its span times scaled to reference speed as the pass's are."""

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            wall, busy, cli_bytes = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        report = tracer.report(runner.basis_ops, cli_bytes)
        for key in report:
            if key.endswith("_ms"):
                report[key] *= busy / wall
        return busy, report, tracer.counts()

    _, first, first_counts = traced_pass()
    untraced = runner.run_pass()[1]
    traced, report, counts = traced_pass()
    mismatched = sorted(
        key for key in set(first) | set(report)
        if not key.endswith("_ms") and first.get(key) != report.get(key)
    ) + sorted(key for key in set(first_counts) | set(counts) if first_counts.get(key) != counts.get(key))
    if mismatched:
        print(f"counts differ between the two traced passes: {mismatched[:10]}")
    print(f"time inside ops, at reference speed: traced pass {1e3 * traced:.1f} ms, "
          f"untraced pass {1e3 * untraced:.1f} ms; {len(tracer.fn)} spans")
    report["trace.overhead_ms"] = 1e3 * (traced - untraced)
    report["trace.count_mismatches"] = len(mismatched)
    report["cli.known_defect_failures"] = len(runner.probe_failures())
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flagcy" / "__init__.py").is_file():
        print(f"no flagcy sources under {SRC}; run from the root of a flagcy checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]

    clock = Clock()
    probe = setup_probe(clock) if args.trace == 0 else None
    import workloads
    from tracer import Tracer

    caches = library_caches()
    deck = workloads.build(args.workload, args.seed, ROOT / "tests" / "golden")
    runner = Runner(deck, caches, workloads.output_bytes, clock)
    print(f"workload {args.workload} seed {args.seed}: {len(deck.ops)} ops per pass, "
          f"cold caches each pass: {deck.cold_each_pass}")
    print("threads: " + ", ".join(f"{k}={os.environ[k]}" for k in sorted(THREAD_ENV))
          + f"; python threads alive: {threading.active_count()}")

    if args.trace:
        values = per_layer(runner, Tracer())
        wanted = spec["per_layer"]
    else:
        # a pass starts only if one as long as the last would end in time
        start, walls, setup = time.perf_counter(), [], []
        while True:
            ahead = time.perf_counter() - start + (walls[-1] if walls else 0.0)
            if len(walls) >= MIN_PASSES and ahead >= args.seconds:
                break
            # the set-up probes are spread over the run, so that their median
            # sees the same mix of host states as the op latencies
            while len(setup) < min(ceil(SETUP_REPEATS * ahead / args.seconds), SETUP_REPEATS):
                setup.append(probe())
            pass_start = time.perf_counter()
            runner.run_pass()
            walls.append(time.perf_counter() - pass_start)
        setup += [probe() for _ in range(SETUP_REPEATS - len(setup))]
        print(f"passes: {len(walls)}; wall {time.perf_counter() - start:.2f} s; wall time per pass: "
              f"{', '.join(f'{w:.2f} s' for w in walls)}")
        values = end_to_end(runner, statistics.median(setup))
        defects = runner.probe_failures()
        if defects:
            print(f"{len(defects)} known-defect inputs still fail (not counted as ops)")
        wanted = spec["end_to_end"]

    for failure in runner.failures[:10]:
        print(f"FAILED {failure}")
    attempted, failed = runner.attempted, len(runner.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
