"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run each workload at two trials per grid point: exact per-layer counts
repeat for a fixed seed, tracing and the worker count leave the data lines
unchanged, the output checks pass, and the benchmark refuses to run in a
directory without the vclab source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
from vclab.separability import TAU  # noqa: E402
from workloads import WORKLOADS, count_loads, count_problems  # noqa: E402

TRIALS = 2
SEED = harness.input_seed(harness.DEV_SEED, 0)


def _traced(workload, out_dir):
    tracer = spans.Tracer()
    with spans.traced(tracer):
        outcome = harness.run_command(
            workload, SEED, out_dir, threads=1, trials=TRIALS, tracer=tracer
        )
    return outcome, spans.layer_metrics(tracer.spans, TAU)[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_and_tracing_is_transparent(name, tmp_path):
    workload = WORKLOADS[name]
    plain = harness.run_command(workload, SEED, tmp_path / "plain", threads=1, trials=TRIALS)
    first, exact = _traced(workload, tmp_path / "first")
    second, again = _traced(workload, tmp_path / "second")
    assert plain.problems == first.problems == second.problems == []
    assert first.data == plain.data == second.data
    assert exact == again
    assert exact["montecarlo.admissible_exists.calls"] + exact[
        "montecarlo.count_admissible_dichotomies.calls"
    ] == workload.decisions(TRIALS)
    assert (exact["separability.max_margin.calls"] == 0) == (name == "sat_pairs_n3")


def test_worker_count_leaves_data_unchanged(tmp_path):
    workload = WORKLOADS["sat_pairs_n3"]
    with spans.counting_pools() as counter:
        pooled = harness.run_command(workload, SEED, tmp_path / "pooled", trials=TRIALS)
    serial = harness.run_command(workload, SEED, tmp_path / "serial", threads=1, trials=TRIALS)
    assert pooled.problems == serial.problems == []
    assert pooled.data == serial.data
    assert counter.created == workload.points  # one pool per grid point today


def test_count_check_flags_odd_and_oversized_counts():
    good = [2] * len(count_loads())
    assert count_problems(good, 1) == []
    assert count_problems([3] + good[1:], 1)
    assert count_problems([10**9] + good[1:], 1)
    assert count_problems(good[1:], 1)


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace, units", [(0, harness.END_TO_END), (1, harness.PER_LAYER)])
def test_result_line(trace, units):
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat_margin_n3",
         "--seed", str(harness.HOLDOUT_SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        path = harness.spans_path(WORKLOADS["sat_margin_n3"], harness.HOLDOUT_SEED)
        names = {span[0] for span in json.loads(path.read_text())}
        path.unlink()
        assert {"cli.main", "separability.max_margin"} <= names


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat_pairs_n3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert "correct" not in res.stdout
