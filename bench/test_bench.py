"""Self-test of the benchmark at the smallest sizes.

    python3 -m pytest bench

Every workload runs briefly, traced and untraced.  The tests check that
each metric BENCHMARK.json names, and each workload metric of the report,
is emitted with its unit, and that a doctored answer counts as failed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from layers import SMALL  # noqa: E402

SIZES = dict(SMALL, verify_max_n=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMON = {"setup_s": "s", "scaled_latency_p50_ms": "ms",
          "scaled_throughput_per_s": "1/s", "setup_wall_s": "s",
          "latency_p50_ms": "ms", "throughput_per_s": "1/s",
          "host_ref_ms": "ms", "peak_rss_mb": "MB", "failed_frac": "1"}
REPORTED = {
    "cold-solve": dict(COMMON, cold_switch_s="s", cold_domino_s="s",
                       cold_snakes_s="s", cold_ballot_s="s",
                       cold_staircase_s="s", cold_full_s="s"),
    "warm-library": dict(COMMON, solve_p50_ms="ms", solve_p99_ms="ms",
                         solves_per_s="1/s"),
    "verify-sweep": dict(COMMON, verify_s="s"),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report, _, problems = workloads.run_workload(
        workload, 1, 0.3, trace, SIZES)
    assert result["correct"] and result["failed"] == 0, problems
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert {name: unit for (name, _, unit, _, _) in report} == REPORTED[workload]
    if workload == "warm-library":
        assert result["attempted"] > workloads.MIN_SOLVES


def _swap_two_flips(flips):
    """Swap the first two adjacent flips that differ; None if there are none."""
    for i in range(len(flips) - 1):
        if flips[i] != flips[i + 1]:
            out = list(flips)
            out[i], out[i + 1] = out[i + 1], out[i]
            return out
    return None


def test_doctored_library_answer_counts_as_failed(monkeypatch):
    real, doctored = workloads.solve, []

    def solve(inst, sizes, s, t, via):
        sol = real(inst, sizes, s, t, via)
        swapped = _swap_two_flips(sol.flips) if inst == "switch" else None
        if swapped is not None:
            sol.flips = tuple(swapped)
            doctored.append(sol)
        return sol

    monkeypatch.setattr(workloads, "solve", solve)
    result, *_ = workloads.run_workload("warm-library", 1, 0.1, False, SIZES)
    assert doctored and result["failed"] == len(doctored)
    assert not result["correct"]


def test_doctored_cli_answer_counts_as_failed(monkeypatch):
    real, doctored = workloads.spawn, []

    def spawn(run, args):
        wall, proc = real(run, args)
        if "mixedmiddleswitch" in args and "--via" in args:
            payload = json.loads(proc.stdout)
            swapped = _swap_two_flips([m["flip"] for m in payload["moves"]])
            if swapped is not None:
                payload["moves"] = [{"flip": i, "color": i} for i in swapped]
                proc.stdout = json.dumps(payload)
                doctored.append(args)
        return wall, proc

    monkeypatch.setattr(workloads, "spawn", spawn)
    result = None
    while not doctored:   # a round may draw a pair too short to doctor
        result, *_ = workloads.run_workload("cold-solve", len(doctored), 0.1,
                                            False, SIZES)
        if not doctored:
            assert result["failed"] == 0
    assert result["failed"] == len(doctored)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
