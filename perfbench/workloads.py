"""The three benchmark workloads and the checks on their outputs.

Every workload follows the user flow of ``ccgames run``: parse the config,
build the game, estimate the operator's Lipschitz bound and validate the
schedules (set-up), then call ``solver.run`` (solve) and verify the final
iterate with the config's own verification settings (verify). The workload
seed replaces the configured solver seed, as ``ccgames run --seed`` does.
See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import ccgames.com as com_mod
import ccgames.config as config_mod
import ccgames.game as game_mod
import ccgames.solver as solver_mod
from ccgames.lqgame import solve_vgne_kkt
from ccgames.rng import PURPOSE_PROBE, substream

# largest accepted ||(u, lam) - (u*, lam*)|| for a solve to the oracle's tolerance
KKT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    """One solver configuration and how much of a run to time.

    config       : file name under ``configs/``.
    start_k      : iteration index of the starting point; the projected origin
                   is used, with its counter moved to ``start_k``.
    iterations   : iterations per solve; ``None`` runs to the config's
                   residual tolerance.
    require_all_met : verification must report every chance constraint met.
    """

    name: str
    config: str
    start_k: int
    iterations: int | None
    require_all_met: bool


WORKLOADS = {w.name: w for w in (
    Workload("reduced_tail", "microgrid_reduced.json", start_k=9000, iterations=20,
             require_all_met=True),
    Workload("paper_run", "microgrid_paper.json", start_k=0, iterations=200,
             require_all_met=True),
    # The oracle's only coupled constraint is deterministic and active at the
    # equilibrium, so its sampled satisfaction sits on the rounding boundary.
    Workload("oracle_solve", "quadratic_oracle.json", start_k=0, iterations=None,
             require_all_met=False),
)}


@dataclass(frozen=True)
class Problem:
    """A set-up workload: parsed config with the workload seed, game, offsets."""

    cfg: object
    game: object
    offsets: object
    validation_passed: bool


def setup(root: Path, workload: Workload, seed: int, wrap_game=None) -> Problem:
    """What ``ccgames run --seed`` does before iterating.

    ``wrap_game`` may replace the built game (the tracer wraps its sampler).
    """
    cfg = config_mod.parse_config(root / "configs" / workload.config)
    cfg = replace(cfg, solver=replace(cfg.solver, seed=seed))
    game, offsets = config_mod.build_game(cfg)
    if wrap_game is not None:
        game = wrap_game(game)
    lip = solver_mod.estimate_lipschitz(game, offsets, seed=cfg.solver.seed)
    report = solver_mod.validate_config(cfg.solver, lip)
    return Problem(cfg, game, offsets, report.passed)


def solve_arguments(problem: Problem, workload: Workload):
    """Solver config and initial state for one solve (built outside the timing)."""
    scfg = problem.cfg.solver
    if workload.iterations is not None:
        scfg = replace(scfg, max_iterations=workload.start_k + workload.iterations)
    initial = replace(solver_mod.initial_state(problem.game, scfg), k=workload.start_k)
    return scfg, initial


def solve(problem: Problem, scfg, initial):
    return solver_mod.run(problem.game, problem.offsets, scfg, initial=initial)


def verify(problem: Problem, u: np.ndarray):
    """Satisfaction and epsilon-gap estimates with the streams ``ccgames`` uses."""
    game, seed, v = problem.game, problem.cfg.solver.seed, problem.cfg.verification
    satisfaction = com_mod.estimate_constraint_satisfaction(
        game, u, v.satisfaction_samples, substream(seed, PURPOSE_PROBE, 3))
    cand_rng = substream(seed, PURPOSE_PROBE, 1)
    candidates = [game_mod.random_feasible_profile(game, cand_rng)
                  for _ in range(v.epsilon_gap_candidates)]
    gap = com_mod.estimate_epsilon_gap(
        game, u, candidates, v.epsilon_gap_samples, substream(seed, PURPOSE_PROBE, 2),
        offsets=problem.offsets)
    return satisfaction, gap


def digest(*arrays) -> str:
    """Hash of the exact float64 bits of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def reference_solution(problem: Problem):
    """Closed-form (u*, lam*) for linear-quadratic games, else None."""
    if problem.cfg.lq is None:
        return None
    u_star, lam_star = solve_vgne_kkt(problem.cfg.lq)
    return u_star, np.array([lam_star])


def kkt_error(state, reference) -> float:
    u_star, lam_star = reference
    return float(np.hypot(np.linalg.norm(state.u - u_star),
                          np.linalg.norm(state.lam - lam_star)))


def check_solve(problem: Problem, workload: Workload, trace, reference) -> list:
    """Faults of a finished solve; an empty list means it passed."""
    state, game = trace.final_state, problem.game
    faults = []
    arrays = (state.u, state.lam, state.u_avg_prev, state.lam_avg_prev)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        faults.append("final state is not finite")
    if np.any(state.lam < 0):
        faults.append("negative multiplier")
    if not np.array_equal(game_mod.project_local(game, state.u), state.u):
        faults.append("strategy leaves its local boxes")
    if workload.iterations is None:
        if trace.termination_reason != solver_mod.TERMINATION_TOLERANCE:
            faults.append(f"terminated by {trace.termination_reason}, not tolerance")
    else:
        if trace.termination_reason != solver_mod.TERMINATION_BUDGET \
                or state.k != workload.start_k + workload.iterations:
            faults.append(f"slice ended at k={state.k} by {trace.termination_reason}")
    if reference is not None:
        err = kkt_error(state, reference)
        if not err <= KKT_TOLERANCE:
            faults.append(f"kkt_error {err:.3e} above {KKT_TOLERANCE:g}")
    return faults


def check_verify(workload: Workload, satisfaction, gap) -> list:
    faults = []
    if not (np.all(np.isfinite(satisfaction.p_hat)) and np.all(np.isfinite(gap.m_hat))):
        faults.append("verification estimates are not finite")
    if workload.require_all_met and not satisfaction.all_met:
        faults.append("verification does not report all constraints met")
    return faults
