"""Per-layer tracing for one benchmark pass.

Wrappers are installed from the benchmark's side around public names of the
package's modules (the layers): every module-level binding of a hooked
function is replaced, and a hooked class has its ``__init__`` wrapped, so
calls made inside the package are seen too.  Each wrapped call appends a span
(hook, parent span, start, end) to in-memory arrays; self time is computed at
the end as a span's duration minus the durations of its direct child spans.
Counters the program already returns (``result.stats``, result entries) are
read from return values by small observers.

A hook whose module or name no longer exists is reported as missing by name;
the pass still runs.
"""

import importlib
import json
import os
import sys
import time
from array import array

HOOKS = (
    "enumeration.candidate_matrices",
    "enumeration.enumerate_periodic_perfect",
    "enumeration.enumerate_perfect_finite",
    "enumeration.canonical_form",
    "perfection.check_perfect",
    "core.ParameterMatrix",
    "core.PeriodicColoring",
    "verification.induce",
    "verification.build_induced_set",
    "constructors.path_colorings",
    "cli.main",
)

# The per-layer metrics the traced pass reports: unit, and the hooks each needs.
_ENUM = tuple(h for h in HOOKS if h.startswith("enumeration."))
LAYER_METRICS = {
    "enumeration.candidate_matrices.s": ("s", ("enumeration.candidate_matrices",)),
    "enumeration.candidate_matrices.count": ("count", ("enumeration.candidate_matrices",)),
    "enumeration.matrix_yield": ("ratio", ("enumeration.enumerate_periodic_perfect",)),
    "enumeration.enumerate_periodic_perfect.self_s": ("s", ("enumeration.enumerate_periodic_perfect",)),
    "enumeration.states_followed": ("count", ("enumeration.enumerate_periodic_perfect",)),
    "enumeration.states_per_s": ("1/s", ("enumeration.enumerate_periodic_perfect",)),
    "enumeration.onto_cycle_ratio": ("ratio", ("enumeration.enumerate_periodic_perfect",)),
    "enumeration.enumerate_perfect_finite.self_s": ("s", ("enumeration.enumerate_perfect_finite",)),
    "enumeration.classes_examined": ("count", ("enumeration.enumerate_perfect_finite",)),
    "enumeration.classes_per_s": ("1/s", ("enumeration.enumerate_perfect_finite",)),
    "enumeration.perfect_class_ratio": ("ratio", ("enumeration.enumerate_perfect_finite",)),
    "enumeration.colorings_per_class": ("ratio", ("enumeration.enumerate_perfect_finite",)),
    "enumeration.canonical_form.calls": ("count", ("enumeration.canonical_form",)),
    "enumeration.canonical_form.s": ("s", ("enumeration.canonical_form",)),
    "enumeration.self_s": ("s", _ENUM),
    "perfection.check_perfect.calls": ("count", ("perfection.check_perfect",)),
    "perfection.check_perfect.s": ("s", ("perfection.check_perfect",)),
    "perfection.check_perfect.ns_per_vertex": ("ns", ("perfection.check_perfect",)),
    "perfection.check_perfect.perfect_ratio": ("ratio", ("perfection.check_perfect",)),
    "perfection.check_perfect.repeat_ratio": ("ratio", ("perfection.check_perfect",)),
    "core.ParameterMatrix.calls": ("count", ("core.ParameterMatrix",)),
    "core.ParameterMatrix.s": ("s", ("core.ParameterMatrix",)),
    "core.PeriodicColoring.calls": ("count", ("core.PeriodicColoring",)),
    "core.PeriodicColoring.s": ("s", ("core.PeriodicColoring",)),
    "verification.induce.calls": ("count", ("verification.induce",)),
    "verification.induce.s": ("s", ("verification.induce",)),
    "verification.build_induced_set.self_s": ("s", ("verification.build_induced_set",)),
    "constructors.path_colorings.s": ("s", ("constructors.path_colorings",)),
    "cli.main.self_s": ("s", ("cli.main",)),
    "cli.output_bytes": ("bytes", ("cli.main",)),
}

# Metrics read from return values; if an observer can no longer read them
# (a renamed stats key, say), they are reported as missing.
_FROM_RETURNS = {
    "enumeration.candidate_matrices.count",
    "enumeration.matrix_yield",
    "enumeration.states_followed",
    "enumeration.states_per_s",
    "enumeration.onto_cycle_ratio",
    "enumeration.classes_examined",
    "enumeration.classes_per_s",
    "enumeration.perfect_class_ratio",
    "enumeration.colorings_per_class",
    "perfection.check_perfect.ns_per_vertex",
    "perfection.check_perfect.perfect_ratio",
    "perfection.check_perfect.repeat_ratio",
    "cli.output_bytes",
}

# Counts that are zero when their layer is not on a workload's path; the
# other metrics are reported as missing in that case.
_ZERO_OK = {
    "enumeration.candidate_matrices.count",
    "enumeration.states_followed",
    "enumeration.classes_examined",
    "enumeration.canonical_form.calls",
    "perfection.check_perfect.calls",
    "core.ParameterMatrix.calls",
    "core.PeriodicColoring.calls",
    "verification.induce.calls",
    "cli.output_bytes",
}


class Tracer:
    """Installs the hooks on a package and turns the recorded spans into metrics."""

    def __init__(self, package):
        self.hook_ids: dict[str, int] = {}
        self.missing_hooks: dict[str, str] = {}
        self.names = array("B")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._open = [-1]
        self.counters: dict[str, int] = {}
        self._checked: set[int] = set()
        self.observer_errors: dict[str, str] = {}
        self._observers = {
            "enumeration.candidate_matrices": self._observe_candidates,
            "enumeration.enumerate_periodic_perfect": self._observe_periodic,
            "enumeration.enumerate_perfect_finite": self._observe_finite,
            "perfection.check_perfect": self._observe_check,
            "cli.main": self._observe_cli,
        }
        for hook in HOOKS:
            mod_name, attr = hook.split(".")
            try:
                module = importlib.import_module(f"{package.__name__}.{mod_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                self.missing_hooks[hook] = f"hook not installed: {exc}"
                continue
            self.hook_ids[hook] = len(self.hook_ids)
            self._install(package, original, self._wrap(hook, original))

    def _install(self, package, original, wrapper) -> None:
        if isinstance(original, type):
            original.__init__ = wrapper
            return
        prefix = package.__name__
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != prefix and not name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, hook: str, original):
        fn = original.__init__ if isinstance(original, type) else original
        hook_id = self.hook_ids[hook]
        observe = self._observers.get(hook)
        names, parents, starts, ends, open_spans = (
            self.names, self.parents, self.starts, self.ends, self._open,
        )
        clock = time.perf_counter_ns
        errors = self.observer_errors

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(hook_id)
            parents.append(open_spans[-1])
            ends.append(0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    errors.setdefault(hook, f"cannot read the return value of {hook}: {exc!r}")
            return result

        return wrapper

    def _count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observe_candidates(self, args, result) -> None:
        self._count("candidate_matrices", len(result))

    def _observe_periodic(self, args, result) -> None:
        for key in ("matrices_tried", "states_followed", "cycles_found", "colorings"):
            self._count(key, result.stats[key])
        self._count("distinct_matrices", len({m for _, m in result.entries}))

    def _observe_finite(self, args, result) -> None:
        for key in ("classes_examined", "perfect_classes", "colorings"):
            self._count("finite_" + key, result.stats[key])

    def _observe_check(self, args, verdict) -> None:
        coloring, dset = args[0], args[1]
        self._count("check_vertices", len(coloring.word))
        self._count("check_perfect", 1 if verdict.is_perfect else 0)
        # Repeats are detected by the key's 64-bit hash, which keeps the set
        # small on scans of ~10^6 distinct colorings.
        key = hash((type(coloring).__name__, coloring.word, coloring.k, dset))
        if key in self._checked:
            self._count("check_repeats", 1)
        else:
            self._checked.add(key)

    def _observe_cli(self, args, result) -> None:
        argv = list(args[0]) if args else []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self._count("cli_output_bytes", os.path.getsize(path))

    def _hook_totals(self):
        """Per hook: calls, inclusive ns, self ns."""
        n = len(self.names)
        child_ns = [0] * n
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        totals = {hook: [0, 0, 0] for hook in self.hook_ids}
        by_id = {i: totals[hook] for hook, i in self.hook_ids.items()}
        names = self.names
        for i in range(n):
            dur = ends[i] - starts[i]
            t = by_id[names[i]]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child_ns[i]
        return totals

    def metrics(self) -> tuple[dict, dict]:
        """(metrics, missing): every LAYER_METRICS name lands in exactly one."""
        totals = self._hook_totals()
        c = self.counters.get

        def calls(h):
            return totals[h][0]

        def incl_s(h):
            return totals[h][1] / 1e9

        def self_s(h):
            return totals[h][2] / 1e9

        def ratio(num, den):
            return None if not den else num / den

        periodic = "enumeration.enumerate_periodic_perfect"
        finite = "enumeration.enumerate_perfect_finite"
        check = "perfection.check_perfect"
        formulas = {
            "enumeration.candidate_matrices.s": lambda: incl_s("enumeration.candidate_matrices"),
            "enumeration.candidate_matrices.count": lambda: c("candidate_matrices", 0),
            "enumeration.matrix_yield": lambda: ratio(c("distinct_matrices", 0), c("matrices_tried", 0)),
            "enumeration.enumerate_periodic_perfect.self_s": lambda: self_s(periodic),
            "enumeration.states_followed": lambda: c("states_followed", 0),
            "enumeration.states_per_s": lambda: ratio(c("states_followed", 0), self_s(periodic)),
            "enumeration.onto_cycle_ratio": lambda: ratio(c("colorings", 0), c("cycles_found", 0)),
            "enumeration.enumerate_perfect_finite.self_s": lambda: self_s(finite),
            "enumeration.classes_examined": lambda: c("finite_classes_examined", 0),
            "enumeration.classes_per_s": lambda: ratio(c("finite_classes_examined", 0), incl_s(finite)),
            "enumeration.perfect_class_ratio": lambda: ratio(
                c("finite_perfect_classes", 0), c("finite_classes_examined", 0)
            ),
            "enumeration.colorings_per_class": lambda: ratio(
                c("finite_colorings", 0), c("finite_perfect_classes", 0)
            ),
            "enumeration.canonical_form.calls": lambda: calls("enumeration.canonical_form"),
            "enumeration.canonical_form.s": lambda: incl_s("enumeration.canonical_form"),
            "enumeration.self_s": lambda: sum(self_s(h) for h in _ENUM if h in totals),
            "perfection.check_perfect.calls": lambda: calls(check),
            "perfection.check_perfect.s": lambda: incl_s(check),
            "perfection.check_perfect.ns_per_vertex": lambda: ratio(
                totals[check][1], c("check_vertices", 0)
            ),
            "perfection.check_perfect.perfect_ratio": lambda: ratio(c("check_perfect", 0), calls(check)),
            "perfection.check_perfect.repeat_ratio": lambda: ratio(c("check_repeats", 0), calls(check)),
            "core.ParameterMatrix.calls": lambda: calls("core.ParameterMatrix"),
            "core.ParameterMatrix.s": lambda: incl_s("core.ParameterMatrix"),
            "core.PeriodicColoring.calls": lambda: calls("core.PeriodicColoring"),
            "core.PeriodicColoring.s": lambda: incl_s("core.PeriodicColoring"),
            "verification.induce.calls": lambda: calls("verification.induce"),
            "verification.induce.s": lambda: incl_s("verification.induce"),
            "verification.build_induced_set.self_s": lambda: self_s("verification.build_induced_set"),
            "constructors.path_colorings.s": lambda: incl_s("constructors.path_colorings"),
            "cli.main.self_s": lambda: self_s("cli.main"),
            "cli.output_bytes": lambda: c("cli_output_bytes", 0),
        }
        metrics, missing = {}, {}
        for name, (_, hooks) in LAYER_METRICS.items():
            absent = [h for h in hooks if h not in totals]
            if len(absent) == len(hooks):
                missing[name] = "; ".join(self.missing_hooks[h] for h in absent)
                continue
            broken = [self.observer_errors[h] for h in hooks if h in self.observer_errors]
            if name in _FROM_RETURNS and broken:
                missing[name] = broken[0]
                continue
            if name not in _ZERO_OK and not any(calls(h) for h in hooks if h in totals):
                missing[name] = f"not on this workload's path: {', '.join(hooks)} never called"
                continue
            value = formulas[name]()
            if value is None:
                missing[name] = "undefined: its base count is 0"
            else:
                metrics[name] = value
        return metrics, missing

    def write_spans(self, path: str) -> None:
        """Spans as raw arrays (names, parents, starts, ends) plus a JSON header."""
        arrays = (self.names, self.parents, self.starts, self.ends)
        with open(path, "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.names),
            "hooks": sorted(self.hook_ids, key=self.hook_ids.get),
            "arrays": [
                {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                for f, a in zip(("hook", "parent", "start_ns", "end_ns"), arrays)
            ],
            "byteorder": sys.byteorder,
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
