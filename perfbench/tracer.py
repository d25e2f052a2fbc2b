"""In-process tracer: spans around calls into pilotreuse's public functions.

The tracer patches each traced name in every `pilotreuse` module that holds
it (so `finitem.derive_rng` and `cli.build_lattice`, imported by name, are
traced too) and `HexLattice` methods on the class.  A generator function is
timed on each `next()`, not on the call that creates it.

A span covers one call.  Its self time is its duration minus the union of its
children's intervals.  Span stacks are thread-local; a span opened on a worker
thread with an empty stack is a child of the innermost span open on the
thread that installed the tracer, so the `--threads 2` estimator nests under
`estimate_rate_profile`.  Spans are aggregated per name as they close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# Per-call counters: (stat, arg, result) -> None, where arg(name) is the value
# the call passed for that parameter.
def _rows(stat, arg, result):
    deltas = arg("deltas")
    n = len(deltas) if getattr(deltas, "ndim", 1) == 2 else 1
    stat.add("rows", n)
    stat.counts["max_rows"] = max(stat.counts.get("max_rows", 0), n)


def _points(stat, arg, result):
    stat.add("points", int(arg("n")))


def _exhaustive(stat, arg, result):
    stat.add("exhaustive", int(bool(getattr(result, "exhaustive", True))))


def _trials(stat, arg, result):
    stat.add("trials", int(arg("trials")))


def _verification(stat, arg, result):
    stat.add("checks", len(result.checks))
    stat.add("instances", sum(c.checked for c in result.checks))


# Traced names: (module, qualified name) -> counter or None.
TRACED = {
    ("hexgrid", "HexLattice.min_image_norms"): _rows,
    ("hexgrid", "HexLattice.sample_cell_offsets"): _points,
    ("hexgrid", "build_lattice"): None,
    ("channel", "estimate_rate_profile"): None,
    ("channel", "derive_rng"): None,
    ("finitem", "estimate_mu_stats"): None,
    ("finitem", "optimal_assignment_finite"): _exhaustive,
    ("finitem", "per_user_rate_cdf"): None,
    ("assignment", "realize"): None,
    ("assignment", "count_assignments"): None,
    ("assignment", "enumerate_assignments"): None,
    ("optimizer", "brute_force_optimal"): None,
    ("optimizer", "optimal_assignment"): None,
    ("optimizer", "breakpoints"): None,
    ("optimizer", "random_mean_sum_rate"): _trials,
    ("optimizer", "random_assignment"): None,
    ("verify", "run_verification"): _verification,
    ("cli", "main"): None,
}


PACKAGE = "pilotreuse"


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack: list = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: list) -> list:
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._owner_stack:
            try:
                parent = self._owner_stack[-1]
            except IndexError:
                parent = None
        frame = [perf_counter(), parent, []]  # start, parent, child intervals
        stack.append(frame)
        return frame

    def _close(self, stack: list, frame: list, stat: Stat) -> None:
        end = perf_counter()
        stack.pop()
        start, parent, children = frame
        if parent is not None:
            parent[2].append((start, end))
        own = end - start
        with self._lock:
            stat.total_s += own
            stat.self_s += own - _covered(children)

    # -- patching --------------------------------------------------------------

    def _wrap(self, fn, stat: Stat, counter):
        params = inspect.signature(fn).parameters
        index = {name: i for i, name in enumerate(params)}
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                with tracer._lock:
                    stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    stack = tracer._stack()
                    frame = tracer._open(stack)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(stack, frame, stat)
                    with tracer._lock:
                        stat.add("vectors", 1)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = tracer._open(stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame, stat)
            with tracer._lock:
                stat.calls += 1
                if counter is not None:
                    def arg(name):
                        if index[name] < len(args):
                            return args[index[name]]
                        return kwargs.get(name, params[name].default)
                    counter(stat, arg, result)
            return result
        return wrapper

    def install(self) -> None:
        self._owner_stack = self._stack()
        for mod_name, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for (mod_name, qualname), counter in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            stat = self.stats[f"{mod_name}.{qualname.split('.')[-1]}"] = Stat()
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self._wrap(original, stat, counter))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, stat, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# The (rows, 9, 2) float64 array of Babai candidates the distance kernel
# materialises: computed from input shapes, not measured.
CANDIDATE_BYTES_PER_ROW = 9 * 2 * 8

# Per-layer metrics: (name, unit, better).  The name is <span>.<stat>; stats
# other than calls, s and self_s are counters or derived below.
PER_LAYER = [
    ("hexgrid.min_image_norms.calls", "count", "lower"),
    ("hexgrid.min_image_norms.rows", "count", "lower"),
    ("hexgrid.min_image_norms.self_s", "s", "lower"),
    ("hexgrid.min_image_norms.ns_per_row", "ns", "lower"),
    ("hexgrid.min_image_norms.rows_per_call", "count", "higher"),
    ("hexgrid.min_image_norms.computed_bytes", "B", "lower"),
    ("hexgrid.sample_cell_offsets.calls", "count", "lower"),
    ("hexgrid.sample_cell_offsets.points", "count", "lower"),
    ("hexgrid.sample_cell_offsets.self_s", "s", "lower"),
    ("hexgrid.build_lattice.calls", "count", "lower"),
    ("hexgrid.build_lattice.s", "s", "lower"),
    ("channel.estimate_rate_profile.s", "s", "lower"),
    ("channel.estimate_rate_profile.self_s", "s", "lower"),
    ("channel.derive_rng.calls", "count", "lower"),
    ("channel.derive_rng.self_s", "s", "lower"),
    ("finitem.estimate_mu_stats.s", "s", "lower"),
    ("finitem.estimate_mu_stats.self_s", "s", "lower"),
    ("finitem.optimal_assignment_finite.calls", "count", "lower"),
    ("finitem.optimal_assignment_finite.self_s", "s", "lower"),
    ("finitem.optimal_assignment_finite.exhaustive_frac", "frac", "higher"),
    ("finitem.per_user_rate_cdf.s", "s", "lower"),
    ("finitem.per_user_rate_cdf.self_s", "s", "lower"),
    ("assignment.realize.calls", "count", "lower"),
    ("assignment.realize.self_s", "s", "lower"),
    ("assignment.count_assignments.calls", "count", "lower"),
    ("assignment.count_assignments.self_s", "s", "lower"),
    ("assignment.enumerate_assignments.vectors", "count", "lower"),
    ("assignment.enumerate_assignments.self_s", "s", "lower"),
    ("optimizer.brute_force_optimal.calls", "count", "lower"),
    ("optimizer.brute_force_optimal.self_s", "s", "lower"),
    ("optimizer.optimal_assignment.calls", "count", "lower"),
    ("optimizer.optimal_assignment.self_s", "s", "lower"),
    ("optimizer.breakpoints.calls", "count", "lower"),
    ("optimizer.breakpoints.self_s", "s", "lower"),
    ("optimizer.random_mean_sum_rate.calls", "count", "lower"),
    ("optimizer.random_mean_sum_rate.trials", "count", "lower"),
    ("optimizer.random_mean_sum_rate.self_s", "s", "lower"),
    ("optimizer.random_assignment.calls", "count", "lower"),
    ("optimizer.random_assignment.self_s", "s", "lower"),
    ("verify.run_verification.s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.instances", "count", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# Counts that must repeat exactly between two runs at one seed.
EXACT_COUNTS = ("calls", "rows", "points", "vectors", "trials", "checks", "instances")


def layer_metrics(stats: dict[str, Stat], overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from the aggregated spans; 0 for unused layers."""
    out = {}
    for name, _, _ in PER_LAYER:
        span, key = name.rsplit(".", 1)
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif span == "verify":
            value = stats["verify.run_verification"].counts.get(key, 0)
        else:
            st = stats[span]
            rows = st.counts.get("rows", 0)
            value = {
                "calls": st.calls,
                "s": st.total_s,
                "self_s": st.self_s,
                "ns_per_row": st.self_s * 1e9 / rows if rows else 0.0,
                "rows_per_call": rows / st.calls if st.calls else 0.0,
                "computed_bytes": rows * CANDIDATE_BYTES_PER_ROW,
                "exhaustive_frac": (st.counts.get("exhaustive", 0) / st.calls
                                    if st.calls else 0.0),
            }.get(key)
            if value is None:
                value = st.counts.get(key, 0)
        out[name] = value
    return out


def exact_counts(stats: dict[str, Stat]) -> dict[str, int]:
    """The counters of every span, for the determinism check."""
    out = {}
    for name, st in sorted(stats.items()):
        out[f"{name}.calls"] = st.calls
        for key, n in sorted(st.counts.items()):
            if key in EXACT_COUNTS:
                out[f"{name}.{key}"] = n
    return out
