"""Spans around the calls into wealthgas, recorded from outside the package.

A ``Tracer`` wraps every public function of the layer modules and, while
installed, rebinds each name in every ``wealthgas`` module that refers to it,
so calls between modules (``evolution`` calling ``grid.quad_mean``) are seen
as well as calls from the benchmark.  Spans stay in memory; ``layer_metrics``
turns the spans of the traced jobs into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("grid", "evolution", "specialfn", "families", "agents", "cli")

# Called once per grid node by exp_integral_e1_array; a wrapper there would
# time mostly itself.
UNWRAPPED = {"specialfn.exp_integral_e1"}

QUADRATURE = ("grid.quad_norm", "grid.quad_mean", "grid.l1_distance")


def _points(args, kwargs, result):
    return getattr(args[0], "size", 1)


def _count(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["count"]


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# Work done by one call, recorded after the span closes.
SIZE_OF = {
    "specialfn.exp_integral_e1_array": _points,
    "agents.run_transactions": _count,
    "grid.write_density_csv": _bytes_written,
    "agents.write_ensemble_csv": _bytes_written,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "size")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.size = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps the public functions of the wealthgas layer modules."""

    def __init__(self, package: str = "wealthgas"):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(obj, name)
        self._bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in wrappers:
                    self._bindings.append((module, attr, obj, wrappers[id(obj)]))

    def _wrap(self, fn, name):
        spans, stack, size_of = self.spans, self._stack, SIZE_OF.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                span.start = time.perf_counter()
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if size_of is not None:
                    span.size = size_of(args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded since the last take."""
        out = self.spans[:]
        self.spans.clear()
        return out


def summarize_job(spans: list[Span]) -> dict:
    """Per-name call counts, durations and sizes, plus per-layer self time, for one job."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    calls = defaultdict(int)
    durations = defaultdict(list)
    sizes = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        durations[s.name].append(s.duration)
        if s.size is not None:
            sizes[s.name] += s.size
        self_s[s.name.split(".")[0]] += s.duration - child_time[i]
        self_s[s.name] += s.duration - child_time[i]
    rate_iters = sum(1 for s in spans if s.name == "grid.quad_mean" and s.parent is not None
                     and spans[s.parent].name == "evolution.matched_exponential")
    return {"calls": calls, "durations": durations, "sizes": sizes, "self_s": self_s,
            "rate_iters": rate_iters}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(jobs: list[dict], traced_wall: list[float]) -> dict:
    """Per-layer metrics, name -> (value, unit), over the summaries of the traced jobs.

    Counts and per-job totals are medians over jobs; per-call times are
    medians over every call.  A layer a workload never calls reports 0.
    """

    def per_job(fn):
        return _median([fn(j) for j in jobs])

    def calls(*names):
        return per_job(lambda j: sum(j["calls"][n] for n in names))

    def per_call_ms(*names):
        return 1e3 * _median([d for j in jobs for n in names for d in j["durations"][n]])

    def total_s(name):
        return per_job(lambda j: sum(j["durations"][name]))

    def share(name):
        wall = _median(traced_wall)
        return total_s(name) / wall if wall > 0 else 0.0

    def per_unit(name, scale):
        work = sum(j["sizes"][name] for j in jobs)
        return scale * sum(sum(j["durations"][name]) for j in jobs) / work if work else 0.0

    def mb_per_s(name):
        secs = sum(sum(j["durations"][name]) for j in jobs)
        return sum(j["sizes"][name] for j in jobs) / 1e6 / secs if secs else 0.0

    m = {
        "evolution.apply_operator.calls": (calls("evolution.apply_operator"), "count"),
        "evolution.apply_operator.ms": (per_call_ms("evolution.apply_operator"), "ms"),
        "evolution.apply_operator.share": (share("evolution.apply_operator"), "frac"),
        "evolution.iterate_operator.s": (total_s("evolution.iterate_operator"), "s"),
        "evolution.matched_exponential.ms": (per_call_ms("evolution.matched_exponential"), "ms"),
        "evolution.matched_exponential.iters": (per_job(lambda j: j["rate_iters"]), "count"),
        "grid.quadrature.calls": (calls(*QUADRATURE), "count"),
        "grid.quadrature.ms": (per_call_ms(*QUADRATURE), "ms"),
        "grid.write_density_csv.ms": (per_call_ms("grid.write_density_csv"), "ms"),
        "grid.write_density_csv.mb_per_s": (mb_per_s("grid.write_density_csv"), "MB/s"),
        "grid.write_density_csv.share": (share("grid.write_density_csv"), "frac"),
        "grid.read_density_csv.ms": (per_call_ms("grid.read_density_csv"), "ms"),
        "specialfn.exp_integral_e1_array.calls": (calls("specialfn.exp_integral_e1_array"), "count"),
        "specialfn.exp_integral_e1_array.ns_per_point": (per_unit("specialfn.exp_integral_e1_array", 1e9), "ns"),
        "specialfn.exp_integral_e1_array.share": (share("specialfn.exp_integral_e1_array"), "frac"),
        "specialfn.regularized_upper_gamma.ms": (per_call_ms("specialfn.regularized_upper_gamma"), "ms"),
        "families.closed_form_step.calls": (calls("families.closed_form_step"), "count"),
        "families.closed_form_step.ms": (per_call_ms("families.closed_form_step"), "ms"),
        "families.sample_family.calls": (calls("families.sample_family"), "count"),
        "agents.run_transactions.ns_per_tx": (per_unit("agents.run_transactions", 1e9), "ns"),
        "agents.run_transactions.share": (share("agents.run_transactions"), "frac"),
        "agents.write_ensemble_csv.ms": (per_call_ms("agents.write_ensemble_csv"), "ms"),
        "agents.write_ensemble_csv.mb_per_s": (mb_per_s("agents.write_ensemble_csv"), "MB/s"),
        "agents.init_ensemble.ms": (per_call_ms("agents.init_ensemble"), "ms"),
        "agents.fit_exponential.ms": (per_call_ms("agents.fit_exponential"), "ms"),
        "agents.histogram.ms": (per_call_ms("agents.histogram"), "ms"),
        "cli.main.self_s": (per_job(lambda j: j["self_s"]["cli.main"]), "s"),
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = (per_job(lambda j, layer=layer: j["self_s"][layer]), "s")
    return m
