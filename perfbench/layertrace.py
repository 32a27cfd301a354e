"""Outside-in layer tracing for the pdmicro benchmark.

Nothing in pdmicro changes: `Instrumentation` replaces each layer entry
point with a timing wrapper at every pdmicro module attribute that holds
it, and puts the originals back on exit. Every attribute matters because
modules keep their own references; `detector` calls `_closed_eval` through
its own name for it, not through `green`.

A span records its name, start, end, parent and a work count (points,
pixels or bytes). Spans stay in memory until the run ends. A span's self
time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, COUNT = range(5)


def _size_arg0(args, kwargs):
    return int(np.size(args[0]))


def _broadcast_points(args, kwargs):
    return int(np.prod(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))))


def _row_pixels(args, kwargs):
    return len(args[0]) * args[1].n


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# (module, attribute, span name, work count) for every traced entry point.
# `units` is left out (a few scalar conversions per job), and so is `_quad`,
# which only the oracles use.
ENTRY_POINTS = (
    ("specfun", "airy_scaled", "specfun.airy_scaled", _size_arg0),
    ("specfun", "ci_factored", "specfun.ci_factored", _size_arg0),
    ("green", "_closed_eval", "green.closed_eval", _broadcast_points),
    ("green", "green_energy", "green.green_energy", None),
    ("detector", "_flux_array", "detector.flux_array", _size_arg0),
    ("detector", "map_rows", "detector.map_rows", _row_pixels),
    ("detector", "radial_profile", "detector.radial_profile", None),
    ("detector", "count_fringes", "detector.count_fringes", None),
    ("spectro", "extract_energy", "spectro.extract_energy", None),
    ("spectro", "_lm_fit", "spectro.lm_fit", None),
    ("spectro", "golden_rule_current", "spectro.golden_rule_current", None),
    ("classical", "find_trajectories", "classical.find_trajectories", None),
    ("classical", "semiclassical_wave", "classical.semiclassical_wave", None),
    ("cli", "_write_csv", "cli.write", _file_bytes),
    ("cli", "_write_pgm", "cli.write", _file_bytes),
)

JOB_SPAN = "cli.job"

# (metric, span, field, unit). Fields: calls, count (points, pixels or
# bytes), s (inclusive seconds) and self_s. Values are per job.
_SPAN_METRICS = (
    ("specfun.airy_scaled.calls", "specfun.airy_scaled", "calls", "count/job"),
    ("specfun.airy_scaled.points", "specfun.airy_scaled", "count", "count/job"),
    ("specfun.airy_scaled.s", "specfun.airy_scaled", "s", "s/job"),
    ("specfun.ci_factored.calls", "specfun.ci_factored", "calls", "count/job"),
    ("specfun.ci_factored.points", "specfun.ci_factored", "count", "count/job"),
    ("specfun.ci_factored.s", "specfun.ci_factored", "s", "s/job"),
    ("green.closed_eval.calls", "green.closed_eval", "calls", "count/job"),
    ("green.closed_eval.points", "green.closed_eval", "count", "count/job"),
    ("green.closed_eval.self_s", "green.closed_eval", "self_s", "s/job"),
    ("green.green_energy.calls", "green.green_energy", "calls", "count/job"),
    ("green.green_energy.s", "green.green_energy", "s", "s/job"),
    ("detector.flux_array.calls", "detector.flux_array", "calls", "count/job"),
    ("detector.flux_array.points", "detector.flux_array", "count", "count/job"),
    ("detector.flux_array.self_s", "detector.flux_array", "self_s", "s/job"),
    ("detector.map_rows.pixels", "detector.map_rows", "count", "count/job"),
    ("detector.map_rows.s", "detector.map_rows", "s", "s/job"),
    ("detector.radial_profile.calls", "detector.radial_profile", "calls", "count/job"),
    ("detector.radial_profile.s", "detector.radial_profile", "s", "s/job"),
    ("detector.count_fringes.calls", "detector.count_fringes", "calls", "count/job"),
    ("detector.count_fringes.s", "detector.count_fringes", "s", "s/job"),
    ("spectro.extract_energy.calls", "spectro.extract_energy", "calls", "count/job"),
    ("spectro.extract_energy.s", "spectro.extract_energy", "s", "s/job"),
    ("spectro.extract_energy.self_s", "spectro.extract_energy", "self_s", "s/job"),
    ("spectro.lm_fit.s", "spectro.lm_fit", "s", "s/job"),
    ("spectro.golden_rule_current.calls", "spectro.golden_rule_current", "calls", "count/job"),
    ("spectro.golden_rule_current.s", "spectro.golden_rule_current", "s", "s/job"),
    ("classical.find_trajectories.calls", "classical.find_trajectories", "calls", "count/job"),
    ("classical.find_trajectories.s", "classical.find_trajectories", "s", "s/job"),
    ("classical.semiclassical_wave.calls", "classical.semiclassical_wave", "calls", "count/job"),
    ("classical.semiclassical_wave.self_s", "classical.semiclassical_wave", "self_s", "s/job"),
    ("cli.job.self_s", JOB_SPAN, "self_s", "s/job"),
    ("cli.write.s", "cli.write", "s", "s/job"),
    ("cli.write.bytes", "cli.write", "count", "B/job"),
)

_RATIO_METRICS = (
    ("specfun.points_per_call", "points/call"),
    ("detector.flux_points_per_pixel", "points/pixel"),
    ("spectro.model_evals_per_fit", "evals/fit"),
)

OVERHEAD_METRICS = (
    ("trace.untraced_job_s", "s"),
    ("trace.traced_job_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

# Every per-layer metric a traced run reports, in order, with its unit.
METRICS = tuple((m, unit) for m, _, _, unit in _SPAN_METRICS) + _RATIO_METRICS + OVERHEAD_METRICS


class Tracer:
    """Collects spans as [name, start, end, parent index, count] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if count is not None:
                    rec[COUNT] = count(args, kwargs)

        return traced


class Instrumentation:
    """Context manager that installs a tracer's wrappers on pdmicro.

    `missing` names entry points the imported pdmicro does not have; their
    metrics read 0. Reusable: each `with` installs, and its exit restores.
    """

    def __init__(self, tracer: Tracer):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pdmicro" or name.startswith("pdmicro.")]
        self.missing = []
        self._patches = []      # (module, attribute, original, wrapper)
        for mod_name, attr, span, count in ENTRY_POINTS:
            original = getattr(sys.modules.get("pdmicro." + mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = tracer.wrap(span, original, count)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def __enter__(self):
        for m, key, _, wrapper in self._patches:
            setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for m, key, original, _ in reversed(self._patches):
            setattr(m, key, original)
        return False


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[k][START], s[START]), min(spans[k][END], s[END]))
                           for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s[END] - s[START] - covered)
    return out


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, n_jobs: int, pixels_published: int) -> dict:
    """Per-layer metrics (value, unit) per job, from one traced pass.

    `pixels_published` is the number of map pixels the jobs wrote; it is
    the base of the useful-work ratio detector.flux_points_per_pixel.
    The overhead metrics are the caller's to add.
    """
    agg = {}
    for s, self_s in zip(spans, self_times(spans)):
        a = agg.setdefault(s[NAME], {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["count"] += s[COUNT]
        a["s"] += s[END] - s[START]
        a["self_s"] += self_s
    zero = {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for metric, span, field, unit in _SPAN_METRICS:
        out[metric] = (agg.get(span, zero)[field] / n_jobs, unit)

    airy = agg.get("specfun.airy_scaled", zero)
    ci = agg.get("specfun.ci_factored", zero)
    calls = airy["calls"] + ci["calls"]
    out["specfun.points_per_call"] = ((airy["count"] + ci["count"]) / calls if calls else 0.0,
                                      "points/call")
    flux_points = agg.get("detector.flux_array", zero)["count"]
    out["detector.flux_points_per_pixel"] = (
        flux_points / pixels_published if pixels_published else 0.0, "points/pixel")
    fits = agg.get("spectro.extract_energy", zero)["calls"]
    evals = sum(1 for i, s in enumerate(spans)
                if s[NAME] == "detector.flux_array" and _has_ancestor(spans, i, "spectro.extract_energy"))
    out["spectro.model_evals_per_fit"] = (evals / fits if fits else 0.0, "evals/fit")
    return out
