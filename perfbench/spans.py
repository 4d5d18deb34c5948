"""Span recording around qhodge's public functions, and the per-layer metrics.

Tracer.install() wraps every public function, and every public method of a
class, defined in each qhodge module, and rebinds every module-level name
(and module-level dict value) that refers to it.  suites, transgression and
cli import names directly, so patching only the defining module would miss
their calls.  A span is [name, start, end, parent, op, excluded, outermost]:
`excluded` is wrapper bookkeeping spent inside the span on behalf of its
children, `outermost` is False when a span of the same group is already open
(recursion or nesting), so inclusive times never count an interval twice.
Spans stay in memory; the child writes them out after its pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("exterior", "quaternionic", "spin", "fields", "operators",
          "transgression", "zeta", "suites", "cli")

NAME, START, END, PARENT, OP, EXCLUDED, OUTERMOST = range(7)

# field operators whose self time, calls and computed bytes form operators.apply
APPLY = tuple(f"operators.{n}" for n in (
    "exterior_d", "d_star", "twisted_d", "twisted_d_star", "quaternionic_d",
    "quaternionic_d_star", "apply_fiber", "laplacian", "green", "harmonic_project"))
HEAT = ("zeta.heat_trace_direct", "zeta.heat_trace_dual")
SUITE_NAMES = ("exterior", "quaternionic", "operators", "kodaira", "transgression",
               "zeta", "clifford")

# metric -> span names whose outermost durations it sums
INCLUSIVE = {
    "fields.grid.s": ("fields.grid",),
    "fields.random_field.s": ("fields.random_field",),
    "fields.from_dict.s": ("fields.FormField.from_dict",),
    "fields.to_dict.s": ("fields.FormField.to_dict",),
    "operators.kodaira_suite.s": ("operators.kodaira_suite",),
    "operators.conjugation_defect.s": ("operators.conjugation_defect",),
    "transgression.transgress1.s": ("transgression.transgress1",),
    "transgression.transgress2.s": ("transgression.transgress2",),
    "transgression.transgress4.s": ("transgression.transgress4",),
    "transgression.quartic_differential.s": ("transgression.quartic_differential",),
    "transgression.measure_lapl_constant.s": ("transgression.measure_lapl_constant",),
    "zeta.heat_trace.s": ("zeta.scalar_heat_trace",) + HEAT,
    "zeta.regularized_integral.s": ("zeta.regularized_integral",),
    "zeta.log_det_prime.s": ("zeta.log_det_prime",),
    "zeta.beta0.s": ("zeta.beta0",),
    "zeta.torsion_report.s": ("zeta.torsion_report",),
    "exterior.wedge.s": ("exterior.wedge",),
    "quaternionic.rotor_matrix.s": ("quaternionic.rotor_matrix",),
    "spin.spin_report.s": ("spin.spin_report",),
}
INCLUSIVE.update({f"suites.{s}.s": (f"suites.suite_{s}",) for s in SUITE_NAMES})

CALLS = {
    "cli.main.calls": ("cli.main",),
    "operators.apply.calls": APPLY,
    "operators.kodaira_suite.calls": ("operators.kodaira_suite",),
    "transgression.transgress1.calls": ("transgression.transgress1",),
    "transgression.transgress2.calls": ("transgression.transgress2",),
    "transgression.transgress4.calls": ("transgression.transgress4",),
    "zeta.heat_trace.evals": HEAT,
    "zeta.regularized_integral.calls": ("zeta.regularized_integral",),
    "exterior.wedge.calls": ("exterior.wedge",),
    "quaternionic.rotor_matrix.calls": ("quaternionic.rotor_matrix",),
}


def heat_box_points(t: float, dual: bool, radius: float | None = None) -> int:
    """Lattice points in the 4D box one heat-trace evaluation spans at t.

    The radius is the one that makes the dropped terms ~1e-20 in each
    regime (direct: e^{-4 pi^2 t R^2}, dual: e^{-R^2/(4t)}).
    """
    if radius is None:
        radius = math.sqrt(4 * t * 46.1) + 2.0 if dual else \
            math.sqrt(46.1 / (4 * math.pi**2 * t)) + 2.0
    return (2 * int(math.ceil(radius + 1)) + 1) ** 4


def _apply_work(counts, args, kwargs, result):
    f = args[0]
    counts["operators.apply.bytes"] += f.coeffs.nbytes + result.coeffs.nbytes
    counts["apply.nonzero"] += int(np.count_nonzero(f.coeffs))
    counts["apply.processed"] += f.coeffs.size


def _heat_work(dual):
    def work(counts, args, kwargs, result):
        t = kwargs.get("t", args[1] if len(args) > 1 else None)
        radius = kwargs.get("radius", args[2] if len(args) > 2 else None)
        counts["zeta.heat_trace.lattice_points"] += heat_box_points(t, dual, radius)
    return work


WORK = {name: _apply_work for name in APPLY}
WORK["zeta.heat_trace_direct"] = _heat_work(False)
WORK["zeta.heat_trace_dual"] = _heat_work(True)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.open: Counter = Counter()  # open spans per group key
        self.counts: defaultdict = defaultdict(int)
        self.op = "setup"
        self.group = {}  # span name -> key shared by names summed together
        for names in INCLUSIVE.values():
            for n in names:
                self.group.setdefault(n, names[0])

    def wrap(self, name: str, fn):
        spans, stack, opened, counts = self.spans, self.stack, self.open, self.counts
        key = self.group.get(name, name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, opened[key] == 0]
            stack.append(len(spans))
            spans.append(rec)
            opened[key] += 1
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                opened[key] -= 1
            if work is not None:
                work(counts, args, kwargs, result)
            if parent >= 0:
                spans[parent][EXCLUDED] += (rec[START] - t_in) + (perf_counter() - rec[END])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap qhodge's public functions and rebind every reference to them."""
        modules = {layer: importlib.import_module(f"qhodge.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(f"{layer}.{attr}", obj)
                elif callable(obj) and inspect.isfunction(inspect.unwrap(obj)):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in list(modules.values()) + [importlib.import_module("qhodge")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", obj))


# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Duration of each span minus its children's durations and its wrapper bookkeeping."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] - s[EXCLUDED] for i, s in enumerate(spans)]


def _under(spans, i, name) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (spans of its setup included)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    out = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(spans[i][END] - spans[i][START]
                          for x in names for i in by_name[x] if spans[i][OUTERMOST])
    for metric, names in CALLS.items():
        out[metric] = sum(len(by_name[x]) for x in names)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[NAME].split(".", 1)[0] == layer)
    pass_spans = [i for i, s in enumerate(spans) if s[PARENT] < 0 and s[OP] != "setup"]
    out["layer.harness.self_s"] = wall_s - sum(spans[i][END] - spans[i][START] for i in pass_spans)
    out["cli.main.self_s"] = out["layer.cli.self_s"]
    out["operators.apply.s"] = sum(selfs[i] for x in APPLY for i in by_name[x])
    out["operators.apply.bytes"] = counts.get("operators.apply.bytes", 0)
    processed = counts.get("apply.processed", 0)
    out["operators.apply.nonzero_share"] = counts.get("apply.nonzero", 0) / processed if processed else 0.0
    evals = out["zeta.heat_trace.evals"]
    out["zeta.heat_trace.dual_share"] = len(by_name[HEAT[1]]) / evals if evals else 0.0
    out["zeta.heat_trace.lattice_points"] = counts.get("zeta.heat_trace.lattice_points", 0)
    calls = out["zeta.regularized_integral.calls"]
    inner = sum(1 for x in HEAT for i in by_name[x] if _under(spans, i, "zeta.regularized_integral"))
    out["zeta.regularized_integral.evals_per_call"] = inner / calls if calls else 0.0
    out["trace.spans"] = len(spans)
    return out
