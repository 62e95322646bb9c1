"""Outside-in tracing of flagcy's layers.

Every public function that ``flagcy/__init__`` exports, plus the public
functions of ``flagcy.cli``, is replaced by a timing wrapper in each
``flagcy.*`` namespace that holds it, so calls between modules (and within
one module) nest into spans.  Spans are kept in memory as parallel arrays
and reduced to per-layer figures after the traced pass; the program's
source is not touched.

A layer is the module that defines a function (``root_system``,
``flag_geometry``, ``picard_lattice``, ``bundle_constructor``,
``potential_lab``, ``cli``).  Self time of a span is its duration minus the
durations of its direct child spans.  An error is counted at the span where
an exception first left a wrapped function.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = (
    "root_system",
    "flag_geometry",
    "picard_lattice",
    "bundle_constructor",
    "potential_lab",
    "cli",
)

#: functions whose calls are counted one by one in the per-layer report
COUNTED = (
    "root_system.pairing",
    "flag_geometry.degree",
    "flag_geometry.volume",
    "flag_geometry.lefschetz_contraction",
    "flag_geometry.anticanonical_weight",
    "picard_lattice.integer_combination",
    "potential_lab.kahler_potential",
    "potential_lab.norm_sq_fundamental",
)

BUILDERS = ("bundle_constructor.build_t_gauduchon", "bundle_constructor.build_balanced")


def _flagcy_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "flagcy" or name.startswith("flagcy.")]


def traced_functions():
    """(qualified name, function) for every function the tracer wraps."""
    import flagcy
    import flagcy.cli

    out = {}
    sources = [(name, getattr(flagcy, name)) for name in dir(flagcy) if not name.startswith("_")]
    sources += [(name, getattr(flagcy.cli, name)) for name in dir(flagcy.cli) if not name.startswith("_")]
    for name, obj in sources:
        if inspect.isclass(obj) or not callable(obj):
            continue
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if not module.startswith("flagcy.") or layer not in LAYERS:
            continue
        out[f"{layer}.{obj.__name__}"] = obj
    return sorted(out.items())


def _volume_key(args, kwargs):
    flag = args[0] if args else kwargs.get("flag")
    omega = args[1] if len(args) > 1 else kwargs.get("omega")
    datum = getattr(flag, "datum", None)
    flag_key = (
        str(getattr(datum, "lie_type", id(flag))),
        tuple(sorted(getattr(flag, "parabolic_set", ()))),
    )
    return flag_key, getattr(omega, "two_pi_power", None), tuple(getattr(omega, "coeffs", (id(omega),)))


class Tracer:
    """Span recorder that installs and removes the wrappers."""

    def __init__(self):
        self.functions = traced_functions()
        self.names = [name for name, _ in self.functions]
        self.layer_of = [name.partition(".")[0] for name in self.names]
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.origin_error = array("b")
        self.raised = array("b")
        self.notes: dict[int, object] = {}
        self.current_op = -1
        self._stack = [-1]
        self._last_exc = None

    def _wrap(self, fid: int, func, note):
        fn, parent, op = self.fn, self.parent, self.op
        start, end, raised, origin = self.start, self.end, self.raised, self.origin_error
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(self.current_op)
            start.append(0)
            end.append(0)
            raised.append(0)
            origin.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                raised[i] = 1
                if exc is not self._last_exc:
                    origin[i] = 1
                    self._last_exc = exc
                raise
            finally:
                end[i] = perf_counter_ns()
                start[i] = t0
                stack.pop()
            if note is not None:
                self.notes[i] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Rebind every traced function; the wrappers record into the arrays of the last reset."""
        notes = {
            "flag_geometry.volume": lambda a, k, r: _volume_key(a, k),
            "root_system.build_root_datum": lambda a, k, r: (
                str(a[0] if a else k.get("lie_type")),
                len(getattr(r, "positive_roots", ())),
            ),
        }
        wrappers = {id(func): self._wrap(fid, func, notes.get(name))
                    for fid, (name, func) in enumerate(self.functions)}
        for module in _flagcy_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def counts(self) -> dict[str, int]:
        """Every count the report derives, for the exact-repeat check."""
        out = {}
        for fid in self.fn:
            out[self.names[fid]] = out.get(self.names[fid], 0) + 1
        for i, flag in enumerate(self.origin_error):
            if flag:
                key = "errors:" + self.names[self.fn[i]]
                out[key] = out.get(key, 0) + 1
        return out

    def report(self, basis_ops: set[int], cli_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.fn)
        names, layer_of = self.names, self.layer_of
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        duration = [end[i] - start[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += duration[i]

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.errors"] = 0
        calls_by_name: dict[str, int] = {}
        under_builder = [False] * n
        for i in range(n):
            name = names[fn[i]]
            layer = layer_of[fn[i]]
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_ms"] += (duration[i] - child_ns[i]) / 1e6
            out[f"{layer}.errors"] += self.origin_error[i]
            p = parent[i]
            under_builder[i] = p >= 0 and (
                under_builder[p] or layer_of[fn[p]] == "bundle_constructor"
            )
        for name in COUNTED:
            out[f"{name}.calls"] = calls_by_name.get(name, 0)

        cold_ms, roots = 0.0, 0
        seen_types = set()
        volume_keys = []
        degree_in_basis_ops = 0
        contractions_in_builders = 0
        built = rejected = 0
        for i in range(n):
            name = names[fn[i]]
            if name == "root_system.build_root_datum" and i in self.notes:
                key, size = self.notes[i]
                if key not in seen_types:
                    seen_types.add(key)
                    cold_ms += duration[i] / 1e6
                    roots += size
            elif name == "flag_geometry.volume" and i in self.notes:
                volume_keys.append(self.notes[i])
            elif name == "flag_geometry.degree" and self.op[i] in basis_ops:
                degree_in_basis_ops += 1
            elif name == "flag_geometry.lefschetz_contraction" and under_builder[i]:
                contractions_in_builders += 1
            if name in BUILDERS:
                if self.raised[i]:
                    rejected += 1
                else:
                    built += 1
        out["root_system.build_root_datum.cold_ms"] = cold_ms
        out["root_system.roots_enumerated"] = roots
        out["flag_geometry.volume.distinct_ratio"] = (
            len(set(volume_keys)) / len(volume_keys) if volume_keys else 0.0
        )
        out["picard_lattice.degree_calls_per_basis"] = (
            degree_in_basis_ops / len(basis_ops) if basis_ops else 0.0
        )
        out["bundle_constructor.contractions_per_datum"] = (
            contractions_in_builders / built if built else 0.0
        )
        out["bundle_constructor.rejections"] = rejected
        out["cli.requests"] = calls_by_name.get("cli.main", 0)
        out["cli.bytes_out"] = cli_bytes
        return out
