"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the vclab layers in the module that
looks each one up at call time (``vclab.montecarlo.max_margin`` is the name
``_cells_scan`` resolves, not ``vclab.separability.max_margin``), so the
program itself is unchanged.  Every wrapped call records one span
``[name, start, end, parent, attr]``; spans stay in a list and are reduced
to per-layer metrics after the run.  The traced run uses one process, so
every call is seen.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ATTR = range(5)

PROBES = (
    "montecarlo.admissible_exists",
    "montecarlo.count_admissible_dichotomies",
)


def _probe_attr(args, kwargs, out):
    margin = kwargs.get("margin", args[1] if len(args) > 1 else 0.0)
    return (float(margin), out.method, out.sat, out.count)


def _value_attr(args, kwargs, out):
    return out


# (module where the name is looked up, attribute, span name, attr function)
TRACED = (
    ("vclab.cli", "sat_fraction_scan", "montecarlo.sat_fraction_scan", None),
    ("vclab.cli", "estimate_mean_count", "montecarlo.estimate_mean_count", None),
    ("vclab.cli", "build_count_table", "recursion.build_count_table", None),
    ("vclab.recursion", "build_count_table", "recursion.build_count_table", None),
    ("vclab.cli", "crossing_load", "recursion.crossing_load", None),
    ("vclab.cli", "transition_load", "asymptotics.transition_load", None),
    ("vclab.cli", "annealed_threshold_pairs", "asymptotics.annealed_threshold_pairs", None),
    ("vclab.montecarlo", "sample_dataset", "montecarlo.sample_dataset", None),
    ("vclab.montecarlo", "admissible_exists", PROBES[0], _probe_attr),
    ("vclab.montecarlo", "count_admissible_dichotomies", PROBES[1], _probe_attr),
    ("vclab.montecarlo", "max_margin", "separability.max_margin", _value_attr),
    ("vclab.montecarlo", "dedupe_directions", "separability.dedupe_directions", None),
    ("vclab.montecarlo", "sample_multiplet", "structure.sample_multiplet", None),
    ("vclab.structure", "sample_orthonormal_frame", "numerics.sample_orthonormal_frame", None),
)
BLOCKS = ("vclab.montecarlo", "sign_pattern_blocks", "separability.sign_pattern_blocks")


class Tracer:
    """Records nested spans of wrapped calls from a single thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attr=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attr is not None:
                span[ATTR] = attr(args, kwargs, out)
            return out

        return traced

    def wrap_blocks(self, name: str, gen_fn):
        """Wrap a generator function: one span per ``next()``, attr = rows."""

        def traced(*args, **kwargs):
            inner = gen_fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    span[ATTR] = 0
                    return
                finally:
                    self._close(span)
                span[ATTR] = int(item[0].shape[0])
                yield item

        return traced


class PoolCounter:
    """Counts process pools created through ``vclab.montecarlo``."""

    def __init__(self, cls):
        self.created = 0
        self._cls = cls

    def __call__(self, *args, **kwargs):
        self.created += 1
        return self._cls(*args, **kwargs)


@contextmanager
def _patched(replacements):
    saved = []
    try:
        for module, attr, new in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every traced name for the duration."""
    repl = []
    for mod_name, attr, span_name, attr_fn in TRACED:
        module = importlib.import_module(mod_name)
        repl.append((module, attr, tracer.wrap(span_name, getattr(module, attr), attr_fn)))
    module = importlib.import_module(BLOCKS[0])
    repl.append((module, BLOCKS[1], tracer.wrap_blocks(BLOCKS[2], getattr(module, BLOCKS[1]))))
    with _patched(repl):
        yield


@contextmanager
def counting_pools():
    """Replace ``vclab.montecarlo.ProcessPoolExecutor`` by a counting factory."""
    module = importlib.import_module("vclab.montecarlo")
    counter = PoolCounter(module.ProcessPoolExecutor)
    with _patched([(module, "ProcessPoolExecutor", counter)]):
        yield counter


@contextmanager
def recording_counts():
    """Record the count of every ``count_admissible_dichotomies`` call made
    in this process, in call order.  Nothing is timed; the output checks
    need the exact per-trial counts, which the CSV only shows as means."""
    module = importlib.import_module("vclab.montecarlo")
    inner = module.count_admissible_dichotomies
    counts: list[int] = []

    def recorded(*args, **kwargs):
        probe = inner(*args, **kwargs)
        counts.append(probe.count)
        return probe

    with _patched([(module, "count_admissible_dichotomies", recorded)]):
        yield counts


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(spans: list[list], tau: float) -> tuple[dict, dict]:
    """Reduce spans to (timings, exact values).

    Timings are seconds unless the key ends in ``_ms``; self time is a
    span's duration minus the time its child spans cover.  Exact values
    (call counts, candidates, backends, ratios of counts) repeat exactly for
    a fixed seed.  ``tau`` is the strict-separability threshold used to
    classify max_margin values.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def self_time(name):
        return sum(dur(i) - child[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    timings: dict[str, float] = {}
    exact: dict[str, float] = {}
    for name in PROBES:
        ms = [dur(i) * 1e3 for i in by_name.get(name, ())]
        exact[f"{name}.calls"] = len(ms)
        timings[f"{name}.p50_ms"] = _quantile(ms, 0.5)
        timings[f"{name}.p90_ms"] = _quantile(ms, 0.9)
        timings[f"{name}.self_s"] = self_time(name)

    blocks = BLOCKS[2]
    timings[f"{blocks}.time_s"] = total(blocks)
    exact[f"{blocks}.candidates"] = sum(spans[i][ATTR] for i in by_name.get(blocks, ()))

    mm = "separability.max_margin"
    accepted = 0
    for i in by_name.get(mm, ()):
        parent = spans[i][PARENT]
        probe = spans[parent] if parent >= 0 and spans[parent][NAME] in PROBES else None
        if spans[i][ATTR] is None or (probe is not None and probe[ATTR] is None):
            continue  # the call or its probe raised
        margin = probe[ATTR][0] if probe is not None else 0.0
        accepted += spans[i][ATTR] > margin + tau
    exact[f"{mm}.calls"] = calls(mm)
    timings[f"{mm}.time_s"] = total(mm)
    exact[f"{mm}.accept_ratio"] = accepted / calls(mm) if calls(mm) else 0.0

    for name in (
        "montecarlo.sample_dataset",
        "structure.sample_multiplet",
        "numerics.sample_orthonormal_frame",
    ):
        exact[f"{name}.calls"] = calls(name)
        timings[f"{name}.time_s"] = total(name)
    for name in (
        "separability.dedupe_directions",
        "recursion.build_count_table",
        "recursion.crossing_load",
        "asymptotics.transition_load",
        "asymptotics.annealed_threshold_pairs",
    ):
        timings[f"{name}.time_s"] = total(name)
    for name in ("montecarlo.sat_fraction_scan", "montecarlo.estimate_mean_count", "cli.main"):
        timings[f"{name}.self_s"] = self_time(name)

    outcomes = [spans[i][ATTR] for name in PROBES for i in by_name.get(name, ())
                if spans[i][ATTR] is not None]
    for method in ("full-rank", "cells", "sigma"):
        key = "montecarlo.backend." + method.replace("-", "_")
        exact[key] = sum(1 for o in outcomes if o[1] == method)
    sat = sum(1 for o in outcomes if o[2])
    exact["montecarlo.sat_ratio"] = sat / len(outcomes) if outcomes else 0.0
    exact["trace.spans"] = len(spans)
    return timings, exact
