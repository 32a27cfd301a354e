"""Tests of the benchmark itself: inputs, tracing arithmetic, output checks.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layertrace
import run
import workloads
from pdmicro import cli, units


def _drawn(configs):
    return [c.replace("workers = 1\n", "").replace("workers = 2\n", "") for c in configs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_repeats_for_a_seed_and_differs_across_seeds(workload):
    a = workloads.generate(workload, 3, 20, 2)
    assert a == workloads.generate(workload, 3, 20, 2)
    assert workloads.digest(a) == workloads.digest(workloads.generate(workload, 3, 20, 2))
    b = workloads.generate(workload, 4, 20, 2)
    assert all(x != y for x, y in zip(a, b))
    assert workloads.digest(a) != workloads.digest(b)
    # the worker count is appended, never drawn
    assert _drawn(a) == _drawn(workloads.generate(workload, 3, 20, 1))
    # every config parses
    for text in a:
        cli.parse_config(text)


def test_field_scale_matches_pdmicro():
    eps = units.make_scales(workloads.FIELD_V_PER_M).energy_epsF / units.EV
    assert workloads.eps_f_ev() == pytest.approx(eps, rel=1e-12)


def test_self_time_subtracts_children():
    def span(name, start, end, parent):
        return [name, start, end, parent, 0]

    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("a.child", 1.5, 2.5, 1),
        span("b", 2.0, 5.0, 0),      # overlaps a: the union is subtracted once
        span("c", 9.0, 12.0, 0),     # runs past its parent: clipped
        span("other", 20.0, 21.0, -1),
    ]
    assert layertrace.self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_metrics_aggregate_per_job():
    spans = [
        ["cli.job", 0.0, 4.0, -1, 0],
        ["spectro.extract_energy", 0.5, 3.5, 0, 0],
        ["detector.flux_array", 1.0, 2.0, 1, 600],
        ["detector.flux_array", 2.0, 3.0, 1, 600],
        ["detector.flux_array", 3.6, 3.8, 0, 100],    # outside the fit
        ["specfun.airy_scaled", 1.2, 1.8, 2, 600],
    ]
    m = layertrace.layer_metrics(spans, n_jobs=2, pixels_published=0)
    assert m["detector.flux_array.calls"] == (1.5, "count/job")
    assert m["detector.flux_array.points"] == (650.0, "count/job")
    assert m["spectro.model_evals_per_fit"] == (2.0, "evals/fit")
    assert m["cli.job.self_s"][0] == pytest.approx((4.0 - 3.0 - 0.2) / 2)
    assert m["specfun.points_per_call"] == (600.0, "points/call")
    assert m["detector.flux_points_per_pixel"] == (0.0, "points/pixel")


def test_windowed_p90_is_the_median_of_window_p90s():
    # second-slowest of each window of ten: 8, 18, 108; the partial last window is ignored
    times = list(range(10)) + list(range(10, 20)) + list(range(100, 110)) + [1000.0] * 9
    assert run.windowed_p90(times) == 18
    # a slow spell over one window of three leaves the value where it was
    spell = times[:20] + [t * 3 for t in times[20:30]]
    assert run.windowed_p90(spell) == 18


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# Output checks: each accepts a real artifact and rejects corrupted ones.


def _job(workload, tmp_path):
    text = workloads.generate(workload, 0, 1, 1)[0]
    prefix = workloads.output_prefix(str(tmp_path))
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text + f"output_prefix = {prefix}\n")
    assert cli.main([workloads.SUBCOMMANDS[workload], str(cfg)]) == 0
    workloads.CHECKS[workload](prefix)
    return prefix


def _rewrite_lines(path, fn):
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(fn(lines)) + "\n")


def _rewrite_column(path, col, fn):
    def edit(lines):
        n_meta = sum(1 for line in lines if line.startswith("#")) + 1
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[n_meta:]])
        rows[:, col] = fn(rows)
        return lines[:n_meta] + [",".join(repr(float(v)) for v in r) for r in rows]
    _rewrite_lines(path, edit)


def _snapshot(prefix):
    return {p: p.read_bytes() for p in prefix.parent.iterdir()}


def _restore(files):
    for p, blob in files.items():
        p.write_bytes(blob)


def _rejects(check, prefix, corrupt):
    files = _snapshot(prefix)
    corrupt()
    with pytest.raises(workloads.CheckFailed):
        check(str(prefix))
    _restore(files)


def test_map_check_rejects_corrupted_artifacts(tmp_path):
    prefix = tmp_path / "out"
    _job("map", tmp_path)
    pgm = tmp_path / "out_map.pgm"
    profile = tmp_path / "out_profile.csv"
    check = workloads.check_map
    _rejects(check, prefix, lambda: pgm.write_bytes(pgm.read_bytes()[:-2]))
    _rejects(check, prefix, lambda: pgm.write_bytes(pgm.read_bytes().replace(b"512 512", b"512 511", 1)))
    _rejects(check, prefix, lambda: pgm.write_bytes(b"P2" + pgm.read_bytes()[2:]))
    _rejects(check, prefix, lambda: _rewrite_column(profile, 1, lambda r: r[:, 1] * 1.01))


def test_einstein_check_rejects_corrupted_artifacts(tmp_path):
    prefix = tmp_path / "out"
    _job("einstein", tmp_path)
    csv = tmp_path / "out_einstein.csv"
    check = workloads.check_einstein

    def set_meta(key, value):
        return lambda: _rewrite_lines(csv, lambda lines: [
            f"# {key} = {value}" if line.startswith(f"# {key} =") else line for line in lines])

    _rejects(check, prefix, set_meta("slope", "1.006"))
    _rejects(check, prefix, set_meta("E0_recovered_eV", "1.4644"))
    _rejects(check, prefix, lambda: _rewrite_lines(csv, lambda lines: lines[:-1]))


def test_semiclassical_check_rejects_corrupted_artifacts(tmp_path):
    prefix = tmp_path / "out"
    _job("semiclassical", tmp_path)
    csv = tmp_path / "out_compare.csv"
    check = workloads.check_semiclassical

    def poke_nan(r):
        col = r[:, 2].copy()
        col[400] = math.nan
        return col

    def stretch(r):
        # the semiclassical pattern drawn 3% too wide
        return np.interp(r[:, 0] / 1.03, r[:, 0], r[:, 1])

    _rejects(check, prefix, lambda: _rewrite_column(csv, 2, poke_nan))
    _rejects(check, prefix, lambda: _rewrite_column(csv, 2, stretch))
    _rejects(check, prefix, lambda: _rewrite_lines(csv, lambda lines: lines[:-1]))


# ---------------------------------------------------------------------------
# Traced runs and the run entry point.

_COUNT_UNITS = {"count/job", "B/job", "points/call", "points/pixel", "evals/fit"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_between_traced_runs(workload, tmp_path):
    first = run.traced_run(workload, 5, 4, tmp_path / "a")
    second = run.traced_run(workload, 5, 4, tmp_path / "b")
    assert first["failed"] == second["failed"] == 0
    assert first["missing_entry_points"] == []
    counts = {k: v for k, v in first["metrics"].items() if v[1] in _COUNT_UNITS}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert counts["green.closed_eval.calls"][0] > 0
    assert {k for k, _ in layertrace.METRICS} == set(first["metrics"])


def test_run_fails_without_pdmicro_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "map", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
