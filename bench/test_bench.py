"""Tests of the benchmark itself: the smoke run, the traced run, and that each
output check rejects a deliberately perturbed field or solution.

    python3 -m pytest -q bench
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import fracfund  # noqa: E402
from manufactured import (CheckFailed, Manufactured, check_diagonal,  # noqa: E402
                          check_exit_codes, check_report, check_row_count,
                          error_bound, solution_error)
from speed import REFERENCE_S, Block, Speedometer, scaled  # noqa: E402
from tracing import metric_specs  # noqa: E402

N = 64


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=600)
    return proc, [json.loads(line) for line in proc.stdout.splitlines()
                  if line.startswith("{")]


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc, results = _run("--smoke", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert [r["workload"] for r in results] == ["field", "reuse", "verify",
                                                "cli"]
    for r in results:
        assert r["correct"] is True and r["failed"] == 0
        assert set(r["metrics"]) == {"setup_s", "op_p50_s", "peak_rss_mb",
                                     "max_err"}
        assert all(m["value"] > 0 for m in r["metrics"].values())


def test_traced_cli_reports_every_per_layer_metric():
    proc, results = _run("--workload", "cli", "--small", "--seconds", "0",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = results[-1]["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == metric_specs()
    assert metrics["cli.main.calls"]["value"] == 4
    assert metrics["fundamental.write_csv.calls"]["value"] == 1
    assert metrics["gridfn.read_csv.calls"]["value"] > 0
    assert metrics["gridfn.bytes_read"]["value"] > 0
    assert metrics["cli.startup_s"]["value"] > 0


def test_benchmark_json_names_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        metric_specs()


def test_scaled_time_divides_out_the_kernel_time():
    assert scaled(3.0, [REFERENCE_S] * 3) == pytest.approx(3.0)
    assert scaled(3.0, [REFERENCE_S / 2, 2 * REFERENCE_S, 2 * REFERENCE_S,
                        2 * REFERENCE_S]) == pytest.approx(1.5)


def test_block_samples_inside_and_leaves_the_samples_out():
    speed = Speedometer(period=0.05)
    with Block(speed) as block:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    inside = len(speed.samples) - 2
    assert inside >= 3
    assert speed.paused == pytest.approx(sum(speed.samples))
    # the busy loop ran 0.4 s of wall time, the samples inside it included
    assert block.wall == pytest.approx(
        0.4 - sum(speed.samples[1:-1]), abs=0.02)
    assert block.scaled == pytest.approx(
        scaled(block.wall, speed.samples))


@pytest.fixture(scope="module")
def solved():
    exact = Manufactured.draw(np.random.default_rng(0), 0.6)
    problem = exact.problem()
    field = fracfund.solve_F(problem, fracfund.TriangleGrid(0.0, 1.0, N))
    return exact, field


def test_diagonal_check_rejects_a_perturbed_field(solved):
    exact, field = solved
    check_diagonal(field.values, exact.alpha)
    bad = field.values.copy()
    bad[N // 2, N // 2, 0, 0] += 1e-9
    with pytest.raises(CheckFailed):
        check_diagonal(bad, exact.alpha)
    with pytest.raises(CheckFailed):
        check_diagonal(field.values, exact.alpha + 1e-6)


def test_error_check_rejects_a_perturbed_solution(solved):
    exact, field = solved
    sol = fracfund.represent_pc(exact.problem(), field).x.values
    assert solution_error(exact, sol, N) < error_bound(N, exact.alpha)
    bad = sol.copy()
    bad[N - 3, 1] += 2 * error_bound(N, exact.alpha)
    with pytest.raises(CheckFailed):
        solution_error(exact, bad, N)


def test_history_check_rejects_a_prefix_one_ulp_off(solved):
    exact, field = solved
    k0 = N // 4
    sol = fracfund.represent_gc(exact.problem(N, k0), field).x.values
    solution_error(exact, sol, N, k0)
    bad = sol.copy()
    bad[k0 // 2, 0] = np.nextafter(bad[k0 // 2, 0], math.inf)
    with pytest.raises(CheckFailed):
        solution_error(exact, bad, N, k0)
    with pytest.raises(CheckFailed):
        solution_error(exact, sol, N, k0, history=bad[:k0 + 1])


def test_row_count_check_rejects_a_missing_row(tmp_path):
    path = tmp_path / "F.csv"
    rows = (N + 1) * (N + 2) // 2
    path.write_text("t,s,F_11\n" + "0,0,1\n" * rows)
    check_row_count(path, N)
    path.write_text("t,s,F_11\n" + "0,0,1\n" * (rows - 1))
    with pytest.raises(CheckFailed):
        check_row_count(path, N)


def test_report_and_exit_checks_reject_a_failure(tmp_path):
    path = tmp_path / "report.json"
    check = {"name": "duality", "residual": 1.0, "threshold": 0.1}
    path.write_text(json.dumps({"all_pass": True,
                                "checks": [dict(check, residual=0.0,
                                                **{"pass": True})]}))
    check_report(path)
    path.write_text(json.dumps({"all_pass": False,
                                "checks": [dict(check, **{"pass": False})]}))
    with pytest.raises(CheckFailed):
        check_report(path)
    check_exit_codes([0, 0])
    with pytest.raises(CheckFailed):
        check_exit_codes([0, 1])


def test_without_sources_the_benchmark_exits_non_zero(tmp_path):
    for name in ("run.py", "manufactured.py", "tracing.py", "launch.py",
                 "speed.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / name).write_text(
            open(os.path.join(BENCH, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
