"""The benchmark workloads resolve against the library and pass their checks.

``perfbench/workloads.py`` calls the library by name; a renamed or deleted
function, or a changed signature, would only show up when the benchmark
runs. This loads the file, without changing it, and runs its whole flow
(set-up, solve, solve checks, verification, verification checks) on the
oracle workload and on 2-iteration slices of ``paper_run`` and of
``reduced_tail``, which resumes at k=9000 through
``replace(initial_state(...), k=start_k)``.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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
