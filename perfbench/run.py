"""Run one pdmicro benchmark workload and print its metrics.

    python3 perfbench/run.py --workload map --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client: the next `pdmicro` job
starts only after the previous one returned. A job calls
`pdmicro.cli.main` in-process on a config drawn from the seed, writes
into a fresh directory, and its artifacts are checked before the
directory is removed. See perfbench/README.md for the workloads, metrics
and predictions.

--trace 0 prints the end-to-end metrics of a timed loop at `workers` =
the cores the benchmark may use. --trace 1 runs a fixed set of jobs twice
at workers = 1, untraced and then traced, and prints the per-layer
metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (environment,
input digest, per-job check values, failures) goes to
.perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

# The benchmark uses at most two cores, so runs on larger hosts compare.
CORES = min(2, len(os.sched_getaffinity(0)))
WINDOW = 10          # jobs per p90 window: one stratified block of energies
MIN_JOBS = 10 * WINDOW  # at least ten p90 windows
MIN_ABOVE_P90 = 10   # passed jobs that must lie above the reported p90
MAX_JOBS = 2000      # length of the generated stream
MAX_LOOP_S = 140.0   # the loop stops here even if the minimums are not met
SETUP_REPEATS = 15

END_TO_END = (
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class JobRunner:
    """Runs one workload's jobs in fresh directories and checks their output."""

    def __init__(self, workload: str, run_dir: Path):
        from pdmicro import cli
        self.cli = cli
        self.subcommand = workloads.SUBCOMMANDS[workload]
        self.check = workloads.CHECKS[workload]
        self.run_dir = run_dir
        self.check_values = []
        self.failures = []
        self.attempted = 0

    def run(self, text: str, main=None):
        """Run one job; returns (ok, seconds in main, seconds including set-up).

        Each job gets a directory of its own, removed after the check: on
        an ext4 disk, overwriting an existing `<prefix>_*.csv` cost 50-80
        ms per file against about 1 ms for a new file, so reusing one
        directory would measure the disk, not pdmicro.
        """
        main = main or self.cli.main
        index = self.attempted
        self.attempted += 1
        t_setup = perf_counter()
        job_dir = self.run_dir / f"job{index:05d}"
        job_dir.mkdir(parents=True)
        prefix = workloads.output_prefix(str(job_dir))
        cfg = job_dir / "job.cfg"
        cfg.write_text(text + f"output_prefix = {prefix}\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([self.subcommand, str(cfg)])
        except Exception:   # the loop must go on; the job counts as failed
            rc = traceback.format_exc()
        t1 = perf_counter()
        ok = rc == 0
        if ok:
            try:
                self.check_values.append(self.check(prefix))
            except (workloads.CheckFailed, OSError, ValueError) as exc:
                ok = False
                rc = f"check failed: {exc}"
        if not ok:
            self.failures.append({"job": index, "error": str(rc)[-2000:],
                                  "stderr": err.getvalue()[-2000:]})
        shutil.rmtree(job_dir)
        return ok, t1 - t0, t1 - t_setup


def _nearest_rank(sorted_values, q):
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def windowed_p90(times) -> float:
    """Median, over consecutive windows of WINDOW passed jobs, of each window's p90.

    `times` are the passed jobs' seconds in run order. On `map` and
    `semiclassical` a window holds one job from each tenth of the energy
    range, so its p90 is the tail of job-to-job differences in work. On a
    shared host, a slow spell of a few seconds sets a pooled p90 by how much
    of the run it happens to cover, which differs from run to run; here it
    moves only the windows it covers.
    """
    windows = [sorted(times[i:i + WINDOW]) for i in range(0, len(times) - WINDOW + 1, WINDOW)]
    return statistics.median(_nearest_rank(w, 90) for w in windows)


def _above(times, value) -> int:
    return sum(t > value for t in times)


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time for a fresh interpreter to import pdmicro.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import pdmicro.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    configs = workloads.generate(workload, seed, MAX_JOBS, CORES)
    runner = JobRunner(workload, run_dir)
    runner.run(configs[0])                      # warm-up, not timed

    job_times, times, loop_s = [], [], 0.0     # run order; None marks a failed job

    def enough():
        return (len(times) >= MIN_JOBS
                and _above(times, windowed_p90(times)) >= MIN_ABOVE_P90)

    t_start = perf_counter()
    while ((loop_s < seconds or not enough()) and len(job_times) < len(configs)
           and perf_counter() - t_start < MAX_LOOP_S):
        ok, job_s, iter_s = runner.run(configs[len(job_times)])
        loop_s += iter_s                        # output checks excluded
        job_times.append(job_s if ok else None)
        if ok:
            times.append(job_s)
    done = len(times)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # RUSAGE_CHILDREN holds the largest pool child; a pool runs CORES of them.
    peak_rss_mb = (self_kb + CORES * child_kb) / 1024.0

    if done < WINDOW:
        raise RuntimeError(f"{done} jobs passed, fewer than one p90 window; "
                           f"first failure: {runner.failures[:1]}")
    p90 = windowed_p90(times)
    metrics = {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (done / loop_s, "1/s"),
        "setup_s": (setup_seconds(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # Printed and recorded, but not a BENCHMARK.json metric: it is 0
        # whenever the program is right, and a spread relative to a zero
        # median is undefined.
        "failed_frac": (len(runner.failures) / runner.attempted, "fraction"),
    }
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "workers": CORES,
        "samples": {"jobs": done, "p90_windows": done // WINDOW,
                    "above_p90": _above(times, p90),
                    "pooled_p90": _nearest_rank(sorted(times), 90), "loop_s": loop_s},
        "job_times": job_times,
        "inputs_digest": workloads.digest(configs),
        "check_values": runner.check_values,
        "failures": runner.failures,
    }


def traced_run(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    # A fixed job count per --seconds, so two traced runs of one seed
    # repeat every count exactly.
    n_jobs = max(2, int(seconds) // 2)
    configs = workloads.generate(workload, seed, n_jobs, 1)
    runner = JobRunner(workload, run_dir)
    runner.run(configs[0])                      # warm-up, not timed

    untraced = [runner.run(text)[1] for text in configs]
    tracer = layertrace.Tracer()
    instrumentation = layertrace.Instrumentation(tracer)
    traced_main = tracer.wrap(layertrace.JOB_SPAN, runner.cli.main)
    with instrumentation:       # the output checks reach no traced entry point
        traced = [runner.run(text, traced_main)[1] for text in configs]

    pixels = n_jobs * workloads.MAP_GRID_N**2 if workload == "map" else 0
    metrics = layertrace.layer_metrics(tracer.spans, n_jobs, pixels)
    metrics["trace.untraced_job_s"] = (statistics.fmean(untraced), "s")
    metrics["trace.traced_job_s"] = (statistics.fmean(traced), "s")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0, "fraction")
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "workers": 1,
        "samples": {"jobs": n_jobs, "spans": len(tracer.spans)},
        "missing_entry_points": instrumentation.missing,
        "inputs_digest": workloads.digest(configs),
        "check_values": runner.check_values,
        "failures": runner.failures,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:                             # no git on this host
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pdmicro" / "cli.py").is_file():
        print(f"error: no pdmicro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        record = run(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "source_digest": _source_digest(),
    })
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, m in record["metrics"].items():
        print(f"{args.workload:14s} {name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:14s} jobs {record['samples']['jobs']}, workers {record['workers']}, "
          f"record {out_path.relative_to(ROOT)}")
    wanted = layertrace.METRICS if args.trace else END_TO_END
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name, _ in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
