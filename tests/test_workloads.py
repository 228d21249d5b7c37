"""The benchmark workloads resolve against the library and pass their checks.

``perfbench/workloads.py`` calls the library by name; a renamed or deleted
function, or a changed signature, would only show up when the benchmark
runs. This loads the file, without changing it, and runs its whole flow
(set-up, solve, solve checks, verification, verification checks) on the
oracle workload and on 2-iteration slices of ``paper_run`` and of
``reduced_tail``, which resumes at k=9000 through
``replace(initial_state(...), k=start_k)``. The microgrid workloads' seed-1
solve digests are pinned, for the shipped game and for its undeclared copy,
whose players draw every row as the shipped game's did before they drew
batch means. Each workload's traced benchmark run (``--trace 1``), in a
process of its own, exits 0 and reports ``"correct": true``: its per-layer
ratios divide by counts that a change to the solve could leave at zero.
"""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import undeclared_copy

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, iterations", [("oracle_solve", None), ("paper_run", 2),
                                              ("reduced_tail", 2)])
def test_workload_flow_passes_its_checks(workloads, name, iterations):
    W = workloads
    workload = W.WORKLOADS[name]
    if iterations is not None:
        workload = replace(workload, iterations=iterations)
    problem = W.setup(ROOT, workload, seed=1)
    assert problem.validation_passed
    scfg, initial = W.solve_arguments(problem, workload)
    trace = W.solve(problem, scfg, initial)
    assert W.check_solve(problem, workload, trace, W.reference_solution(problem)) == []
    satisfaction, gap = W.verify(problem, trace.final_state.u)
    assert W.check_verify(workload, satisfaction, gap) == []


# seed-1 solve digests of the two microgrid workloads: their players drawing
# batch means (the shipped, declared state cost) and every row (undeclared)
MICROGRID_DIGESTS = {"reduced_tail": ("5a34360b1dd28858", "3d9ff8c15ebfaa18"),
                     "paper_run": ("37966069ebfe133e", "90e96a96dcd0329c")}


@pytest.mark.parametrize("name", MICROGRID_DIGESTS)
def test_undeclared_state_cost_keeps_the_row_draw_digest(workloads, name):
    W = workloads
    workload = W.WORKLOADS[name]
    for wrap, want in zip((None, undeclared_copy), MICROGRID_DIGESTS[name]):
        problem = W.setup(ROOT, workload, seed=1, wrap_game=wrap)
        trace = W.solve(problem, *W.solve_arguments(problem, workload))
        assert W.digest(trace.final_state.u, trace.final_state.lam) == want


@pytest.mark.parametrize("name", ["reduced_tail", "paper_run", "oracle_solve"])
def test_traced_benchmark_run_exits_zero_and_correct(name):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave perfbench/ as it is
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
                           "--seconds", "0.01", "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
