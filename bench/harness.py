"""Measurement loop of the benchmark (entry point: ``bench/run.py``).

Untraced run (``--trace 0``): one checked, untimed command first, then the
workload's command runs back to back in this process, one at a time, until
``--seconds`` have passed, each after one set-up probe in a fresh
interpreter.  Commands cycle through ``INPUTS`` seeds made from ``--seed``;
every command's outputs are checked, and a rerun of a seed must write the
same data lines.  ``wall_s`` and ``trials_per_s`` are means over the
commands (total command time over the count), ``setup_s`` a median.

Traced run (``--trace 1``): each round runs the first command seed
untraced at threads=1, then traced at threads=1 (and, for a workload that
uses more threads, untraced at its own thread count first, for the pool
diagnostic).  All of them must write identical data lines.  Per-layer
metrics are medians over rounds; exact counts must repeat in every round.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import vclab.cli
from vclab.separability import TAU

import spans
from workloads import WORKLOADS, Workload, read_outputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Seeds named for performance claims: develop a change on DEV_SEED and
# confirm it on HOLDOUT_SEED, which stays unused while the change is written.
DEV_SEED = 1
HOLDOUT_SEED = 2

SETUP_REPS = 7
INPUTS = 8

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "separability.sign_pattern_blocks.time_s": "s",
    "separability.sign_pattern_blocks.candidates": "count",
    "montecarlo.admissible_exists.calls": "count",
    "montecarlo.admissible_exists.p50_ms": "ms",
    "montecarlo.admissible_exists.p90_ms": "ms",
    "montecarlo.admissible_exists.self_s": "s",
    "montecarlo.count_admissible_dichotomies.calls": "count",
    "montecarlo.count_admissible_dichotomies.p50_ms": "ms",
    "montecarlo.count_admissible_dichotomies.p90_ms": "ms",
    "montecarlo.count_admissible_dichotomies.self_s": "s",
    "separability.max_margin.calls": "count",
    "separability.max_margin.time_s": "s",
    "separability.max_margin.accept_ratio": "ratio",
    "separability.dedupe_directions.time_s": "s",
    "montecarlo.sample_dataset.calls": "count",
    "montecarlo.sample_dataset.time_s": "s",
    "structure.sample_multiplet.calls": "count",
    "structure.sample_multiplet.time_s": "s",
    "numerics.sample_orthonormal_frame.calls": "count",
    "numerics.sample_orthonormal_frame.time_s": "s",
    "montecarlo.backend.full_rank": "count",
    "montecarlo.backend.cells": "count",
    "montecarlo.backend.sigma": "count",
    "montecarlo.sat_ratio": "ratio",
    "montecarlo.sat_fraction_scan.self_s": "s",
    "montecarlo.estimate_mean_count.self_s": "s",
    "montecarlo.pool.created": "count",
    "montecarlo.pool.speedup": "ratio",
    "recursion.build_count_table.time_s": "s",
    "recursion.crossing_load.time_s": "s",
    "asymptotics.transition_load.time_s": "s",
    "asymptotics.annealed_threshold_pairs.time_s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """
import sys
root, name, seed = sys.argv[1:4]
sys.path[:0] = [root + "/src", root + "/bench"]
import vclab.cli
from workloads import WORKLOADS
WORKLOADS[name].argv(int(seed), root + "/.bench_out/setup")
print("ready", flush=True)
"""


@dataclass
class Outcome:
    wall: float
    data: dict
    problems: list[str]


def run_command(workload: Workload, seed: int, out_dir: Path, threads: int | None = None,
                trials: int | None = None, tracer: spans.Tracer | None = None) -> Outcome:
    """One in-process ``vclab`` command, timed from the call to checked outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = workload.argv(seed, str(out_dir), threads, trials)
    main = vclab.cli.main if tracer is None else tracer.wrap("cli.main", vclab.cli.main)
    stdout, stderr = io.StringIO(), io.StringIO()
    with spans.recording_counts() as counts:
        start = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
        except Exception:  # a traceback is a failed command, reported and counted
            traceback.print_exc()
            code = "traceback"
    data = read_outputs(workload, str(out_dir))
    if code == 0:
        problems = workload.check(data, stdout.getvalue(), trials or workload.trials, counts)
    else:
        problems = [f"exit code {code}: {stdout.getvalue().strip()}"]
    wall = perf_counter() - start
    for problem in problems:
        print(f"bench: {workload.name}: {problem}", file=sys.stderr)
    return Outcome(wall, data, problems)


def setup_time(workload: Workload, seed: int) -> float:
    """Fresh interpreter start to first call: import vclab, build the inputs."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(ROOT), workload.name, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        code = proc.wait(timeout=60)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up interpreter did not reach the first call (exit {code})")
    return elapsed


def peak_rss_mb() -> float:
    """Larger peak resident set of this process and its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _openblas(symbol: str, restype):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_{symbol}{suffix}", None)
                if fn is not None:
                    fn.restype = restype
                    fn.argtypes = []
                    return fn()
    return None


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    config = _openblas("get_config", ctypes.c_char_p)
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vclab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config.decode() if config else blas.get("openblas configuration"),
        "blas_threads": _openblas("get_num_threads", ctypes.c_int),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def input_seed(seed: int, i: int) -> int:
    """Master seed of the i-th command of a run: INPUTS inputs, cycled."""
    return seed * 100 + i % INPUTS


def measure(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced run: end-to-end metrics over back-to-back commands."""
    # The first command is checked but not timed: it pays for lazy imports.
    warm = run_command(workload, input_seed(seed, 0), out_dir)
    first = {input_seed(seed, 0): warm.data}
    failed = int(bool(warm.problems))
    # Set-up probes alternate with the commands, so both sample the same
    # stretch of time on a machine whose speed drifts.
    setup: list[float] = []
    runs: list[Outcome] = []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        setup.append(setup_time(workload, seed))
        s = input_seed(seed, len(runs))
        outcome = run_command(workload, s, out_dir)
        runs.append(outcome)
        if outcome.data != first.setdefault(s, outcome.data):
            print(f"bench: {workload.name}: seed {s} wrote different data on a rerun",
                  file=sys.stderr)
            failed += 1
        elif outcome.problems:
            failed += 1
    while len(setup) < SETUP_REPS:
        setup.append(setup_time(workload, seed))
    # Means, not medians: this host's speed drifts in bursts, and a run's
    # mean over all its commands moved less between runs than its median.
    walls = [r.wall for r in runs]
    metrics = {
        "wall_s": sum(walls) / len(walls),
        "trials_per_s": workload.decisions() * len(walls) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "commands": len(runs),
        "failed_frac": failed / (len(runs) + 1),
        "decisions_per_command": workload.decisions(),
        "wall_s_median": statistics.median(walls),
        "wall_s_samples": [round(w, 4) for w in walls],
    }
    return {"attempted": len(runs) + 1, "failed": failed, "metrics": metrics, "notes": notes}


def spans_path(workload: Workload, seed: int) -> Path:
    return OUT / f"spans-{workload.name}-{seed}.json"


def measure_traced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Traced run: per-layer metrics, pool diagnostic and tracing overhead.

    Every round runs the first input of the untraced run.  The spans of the
    last traced command are written to ``spans_path(workload, seed)``.
    """
    first = input_seed(seed, 0)
    warm = run_command(workload, first, out_dir, threads=1)  # checked, not timed
    rounds = []
    attempted, failed = 1, int(bool(warm.problems))
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        pooled = created = None
        if workload.threads > 1:
            with spans.counting_pools() as counter:
                pooled = run_command(workload, first, out_dir)
            created = counter.created
        serial = run_command(workload, first, out_dir, threads=1)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = run_command(workload, first, out_dir, threads=1, tracer=tracer)
        times, exact = spans.layer_metrics(tracer.spans, TAU)
        exact["montecarlo.pool.created"] = created or 0
        problems = list(traced.problems)
        if traced.data != serial.data:
            problems.append("traced and untraced runs wrote different data lines")
        if pooled is not None and pooled.data != serial.data:
            problems.append(f"threads={workload.threads} and threads=1 wrote different data lines")
        if rounds and exact != rounds[0]["exact"]:
            problems.append("exact per-layer counts changed between rounds")
        for problem in problems[len(traced.problems):]:
            print(f"bench: {workload.name}: {problem}", file=sys.stderr)
        outcomes = [o for o in (pooled, serial) if o is not None]
        attempted += 1 + len(outcomes)
        failed += bool(problems) + sum(1 for o in outcomes if o.problems)
        rounds.append({"times": times, "exact": exact, "serial": serial.wall,
                       "traced": traced.wall, "pooled": pooled.wall if pooled else None})
    with open(spans_path(workload, seed), "w") as fh:
        json.dump([span[:4] for span in tracer.spans], fh)

    def med(key):
        return statistics.median(r[key] for r in rounds)

    metrics = dict(rounds[0]["exact"])
    for key in rounds[0]["times"]:
        metrics[key] = statistics.median(r["times"][key] for r in rounds)
    metrics["montecarlo.pool.speedup"] = med("serial") / med("pooled") if workload.threads > 1 else 1.0
    metrics["trace.overhead_s"] = med("traced") - med("serial")
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / med("serial")
    notes = {
        "rounds": len(rounds),
        "failed_frac": failed / attempted,
        "serial_wall_s": med("serial"),
        "traced_wall_s": med("traced"),
    }
    if workload.threads > 1:
        notes[f"threads{workload.threads}_wall_s"] = med("pooled")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still cleans up: SystemExit unwinds through the
    # finally blocks that stop the set-up interpreter and remove outputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    print("# env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            result = measure_traced(workload, args.seed, args.seconds, out_dir)
            units = PER_LAYER
        else:
            result = measure(workload, args.seed, args.seconds, out_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    for key, value in result["notes"].items():
        print(f"# {key} = {value}")
    for key, unit in units.items():
        print(f"# {key} = {result['metrics'][key]} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0
