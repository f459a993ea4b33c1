"""Smoke test of the benchmark harness against the current program.

``bench/run.py`` wraps the program's public functions and divides by their
call counts, so a change to the program can break it without any test
under ``bench/`` failing.  This runs the ``market`` workload for about a
second, untraced and traced, the other workloads traced, ``cli``
untraced on three seeds and ``market-scaled`` untraced on one, as the
benchmark itself runs them, each on a copy of the checkout (the harness
writes its output next to ``bench/``), and checks the JSON line it ends
with.  The harness exits 1 when a command has no successful operation or
a child records no start of round 0; the hook that records it is also
run in-process, on ``solve`` itself.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_workload(tmp_path, workload: str, trace: int, seed: int = 1) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_market_workload_runs_correct_with_no_failures(tmp_path, trace):
    run_workload(tmp_path, "market", trace)


@pytest.mark.parametrize("workload", ["market-scaled", "cli"])
def test_traced_workload_runs_correct_with_no_failures(tmp_path, workload):
    run_workload(tmp_path, workload, trace=1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_untraced_cli_workload_runs_correct_with_no_failures(tmp_path, seed):
    run_workload(tmp_path, "cli", trace=0, seed=seed)


def test_untraced_market_scaled_workload_runs_correct_with_no_failures(tmp_path):
    run_workload(tmp_path, "market-scaled", trace=0)


def load_bench_module(name: str):
    """A module of ``bench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_first_round_hook_fires_on_round_0_before_any_round(monkeypatch):
    """``FirstRound`` marks the start of round 0 by the first call of
    ``solver.residuals``, and the benchmark exits 1 without the mark:
    ``solve`` must make that call through the module, on the ``t = 0``
    state, before its first call of ``iterate``."""
    import dualprox.solver as solver
    from dualprox.problems import build_market

    events = []
    original_residuals, original_iterate = solver.residuals, solver.iterate

    def residuals(instance, state, *args, **kwargs):
        events.append(("residuals", state.t))
        return original_residuals(instance, state, *args, **kwargs)

    def iterate(instance, state, *args, **kwargs):
        events.append(("iterate", state.t))
        return original_iterate(instance, state, *args, **kwargs)

    def clock():
        events.append(("clock",))
        return float(len(events))

    monkeypatch.setattr(solver, "residuals", residuals)
    monkeypatch.setattr(solver, "iterate", iterate)
    with load_bench_module("first_round").FirstRound(clock) as first:
        result = solver.solve(build_market(), solver.SolverConfig(max_iter=3))
    assert first.time == 1.0
    assert events[:3] == [("clock",), ("residuals", 0), ("iterate", 0)]
    assert result.iterations == 3
