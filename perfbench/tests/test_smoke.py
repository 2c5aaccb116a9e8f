"""Smoke test of the benchmark harness at tiny budgets.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

The repository's own test suite does not collect this file (pytest.ini
limits it to tests/).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_BUDGET = {"bestofk_t0": ("--n-outer", "2"), "softmax_k_exact": ("--n-outer", "2"),
               "judge_trap": ()}


@pytest.fixture(scope="module")
def itslab():
    return bench.import_itslab()


def tiny_run(itslab, name, tmp_path):
    return bench.Run(*itslab, WORKLOADS[name], 7, tmp_path, budget=TINY_BUDGET[name], n_questions=6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_run_checks_pass(itslab, name, tmp_path):
    run = tiny_run(itslab, name, tmp_path)
    metrics = bench.run_timed(run, seconds=0)
    assert run.attempted == 2 and run.failed == 0, run.problems
    assert metrics["wall_s"][0] > 0 and math.isfinite(metrics["mc_cost"][0])


@pytest.mark.parametrize("name, exact", [
    ("bestofk_t0", {"mc.draws_per_batch": 10000.0, "mc.calls": 1, "posterior.fit_calls": 0}),
    ("softmax_k_exact", {"mc.draws_per_batch": 96.0, "posterior.fits_per_dataset": 3.0,
                         "mc.calls": 3}),
    ("judge_trap", {"mc.calls": 0, "judge.records": 6 * 64, "trace.missing_boundaries": 0}),
])
def test_traced_run_counts(itslab, name, exact, tmp_path):
    run = tiny_run(itslab, name, tmp_path)
    metrics = bench.run_traced(run, seconds=0)
    assert run.failed == 0, run.problems  # includes traced CSV == untraced CSV
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    for key, value in exact.items():
        assert metrics[key][0] == value, key


def test_missing_boundary_is_reported(itslab, tmp_path, monkeypatch):
    monkeypatch.setitem(tracer.BOUNDARIES["cli"], "no_such_function", "mc")
    run = tiny_run(itslab, "judge_trap", tmp_path)
    metrics = bench.run_traced(run, seconds=0)
    assert run.failed == 0
    assert metrics["trace.missing_boundaries"][0] == 1


def test_check_rejects_a_biased_cell(itslab, tmp_path):
    run = bench.Run(*itslab, WORKLOADS["bestofk_t0"], 7, tmp_path)  # the benchmark's budget
    wall, data, _ = bench.invoke(itslab[0], run.argv(0), run.out)
    rows = bench.parse_csv(data)
    assert bench.check_output("bestofk_t0", rows, run.reference) == []
    for row in rows:
        if row["mode"] == "det_equiv":
            row["delta"] = repr(1.5 * float(row["delta"]))
    assert bench.check_output("bestofk_t0", rows, run.reference)


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's files, the command exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "judge_trap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
