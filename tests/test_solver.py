import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import fields, replace

import ccgames.config as config_mod
import ccgames.game as game_mod
import ccgames.solver as solver
from ccgames.com import ComModel, UnderApproxOffsets
from ccgames.config import build_game, parse_config, parse_config_dict
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, ReducedLift, base_trajectory, constraint_values, lift_base,
                          lift_noise,
                          operator_estimate, player_constraint_gradient_mean,
                          random_feasible_profile,
                          reduce_noise, reduced_lift, state_batch)
from ccgames.lqgame import build_lq_game, solve_vgne_kkt
from ccgames.rng import iteration_stream, residual_stream
from ccgames.solver import (BatchError, SolverConfig, ValidationCheck, batch_size,
                            coordinator_noise, coordinator_step, draw_noise,
                            estimate_lipschitz, estimator_diagnostics, extended_operator,
                            initial_state, iterate, player_step, residual_estimate,
                            residual_noise, run, step_size, validate_config)

from conftest import (CONFIG_DIR, as_reference, assert_run_equals_reference,
                      checkpoint_writer, hook_player_streams, quadratic_oracle_params,
                      random_lq_params, reference_jacobian_block,
                      reference_pseudo_gradient_block)

PAPER_STEP = dict(step_a0=1.4e-4, step_offset=2.0)
PAPER_BATCH = dict(batch_scale=1.0, batch_offset=2.0, batch_exponent=1.1)


def simple_game(n_players=2, horizon=2, constraint_offset=-1.0, noise_std=0.0,
                box=(-4.0, 4.0), couple=0.0):
    """Quadratic input costs, one affine constraint, optional state noise feed."""
    T = horizon
    dyn = TimeVaryingLinearDynamics(
        a_mats=np.ones((T, 1, 1)), b_mats=tuple(np.zeros((T, 1, 1)) for _ in range(n_players)),
        s0=np.zeros(1))
    players = [PlayerSpec(input_dim=1, box_lower=np.full(T, box[0]),
                          box_upper=np.full(T, box[1])) for _ in range(n_players)]

    def grad(u):
        blocks = u.reshape(n_players, T)
        return (blocks - 1.0 + couple * (blocks.sum(axis=0) - blocks)).reshape(-1)

    cons = []
    if constraint_offset is not None:
        # with noise the value picks up s_1 = w_0, zero mean: stochastic but unbiased
        state_coeffs = np.concatenate([[0.0, noise_std], np.zeros(T - 1)]) \
            if noise_std > 0 else None
        cons.append(CouplingConstraintSpec(
            gamma=0.5, com_scale=0.0, state_coeffs=state_coeffs,
            input_coeffs=np.ones(n_players * T), offset=constraint_offset))
    dist = DisturbanceModel(
        dim=T, sample=lambda rng, n: rng.standard_normal((n, T)),
        com_model=ComModel())
    game = GameSpec(dyn, players, tuple(cons), dist, cost_input_grad=grad)
    return game, UnderApproxOffsets.from_game(game)


def residual_at(state, game, offsets, cfg):
    """``residual_estimate`` on the run's residual batch and the iterate's lift base."""
    return residual_estimate(state, game, offsets, step_size(cfg, state.k),
                             residual_noise(game, cfg, cfg.seed), lift_base(game, state.u))


def step(state, game, offsets, cfg):
    """One iteration with its step, batch size, residual, lift base, draw
    buffer, lane and iteration table made afresh."""
    m = batch_size(cfg, state.k)
    buffer = np.empty(game.n_players * m * len(game.support))
    with ThreadPoolExecutor(1) as lane:
        return iterate(state, game, offsets, cfg, step_size(cfg, state.k), m,
                       residual_at(state, game, offsets, cfg), lift_base(game, state.u),
                       buffer, lane, solver.iteration_table(game, cfg.seed, state.k, state.k + 1))


def player_noise(game, cfg):
    """Support noise rows of the players' batches of iteration 0."""
    m = batch_size(cfg, 0)
    with ThreadPoolExecutor(1) as lane:
        return draw_noise(game, solver.iteration_table(game, cfg.seed, 0, 1), 0, m,
                          np.empty(game.n_players * m * len(game.support)), lane)[1]


def coordinator_batch(game, cfg, k=0):
    """Reduced noise of the coordinator's batch of iteration k."""
    return coordinator_noise(game, iteration_stream(cfg.seed, k, 0), batch_size(cfg, k))


def quick_config(**kw):
    base = dict(delta=0.7, step_a0=0.2, step_offset=2.0,
                batch_scale=1.0, batch_offset=2.0, batch_exponent=1.1,
                max_iterations=50, residual_tolerance=0.0, residual_batch=64, seed=5)
    base.update(kw)
    return SolverConfig(**base)


class TestSchedules:
    def test_paper_batch_values(self):
        cfg = quick_config(**PAPER_BATCH)
        assert batch_size(cfg, 0) == 3      # ceil(2^1.1)
        assert batch_size(cfg, 8) == 13     # ceil(10^1.1)

    def test_batch_past_any_array_refused(self):
        # 2^62 rows is an array index; 2^63 is not, and 2^2000 is past the doubles
        assert batch_size(quick_config(batch_exponent=62.0), 0) == 2**62
        for exponent in (63.0, 2000.0):
            with pytest.raises(BatchError, match=r"^iteration 3: no array holds its batch of "
                               rf"ceil\(1\.0 \* \(3 \+ 2\.0\) \*\* {exponent}\) rows$"):
                batch_size(quick_config(batch_exponent=exponent), 3)

    def test_paper_step_value(self):
        cfg = quick_config(**PAPER_STEP)
        assert step_size(cfg, 0) == pytest.approx(7e-5)

    @given(k=st.integers(0, 10**4))
    @settings(max_examples=60)
    def test_batch_nondecreasing(self, k):
        cfg = quick_config(**PAPER_BATCH)
        assert batch_size(cfg, k + 1) >= batch_size(cfg, k) >= 1

    @given(k=st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_step_monotone_with_bounded_ratio(self, k):
        cfg = quick_config(**PAPER_STEP)
        a_k, a_next = step_size(cfg, k), step_size(cfg, k + 1)
        assert 0 < a_next <= a_k
        assert a_next / a_k >= (k + 2) / (k + 3) - 1e-12


class TestValidateConfig:
    def test_paper_delta_passes(self):
        report = validate_config(quick_config(delta=0.9, **PAPER_STEP), 1.0)
        assert report.passed

    def test_delta_half_fails_golden_ratio(self):
        report = validate_config(quick_config(delta=0.5, **PAPER_STEP), 1.0)
        assert not report.passed
        assert any(c.name == "averaging-lower" for c in report.failures)

    def test_delta_one_fails_strict_bound(self):
        report = validate_config(quick_config(delta=1.0, **PAPER_STEP), 1.0)
        assert any(c.name == "averaging-upper" for c in report.failures)

    def test_step_bound_against_lipschitz(self):
        cfg = quick_config(delta=0.9, step_a0=1.0, step_offset=2.0)
        report = validate_config(cfg, 10.0)
        assert any(c.name == "step-bound" for c in report.failures)
        bound = 1.0 / (4 * 0.9 * 21.0)
        ok = quick_config(delta=0.9, step_a0=bound, step_offset=1.0)
        assert validate_config(ok, 10.0).passed

    def test_sublinear_batch_growth_fails(self):
        cfg = quick_config(batch_scale=1.0, batch_offset=2.0, batch_exponent=0.9)
        assert any(c.name == "batch-growth" for c in validate_config(cfg, 1.0).failures)

    def test_first_batch_no_array_holds_fails(self):
        assert validate_config(quick_config(), 1.0).checks[-1] == ValidationCheck(
            "batch-size", True, "iteration 0: batch size 3")
        failed = {c.name: c.detail for c in
                  validate_config(quick_config(batch_exponent=70.0), 1.0).failures}
        assert failed == {"batch-size": "iteration 0: no array holds its batch of "
                                        "ceil(1.0 * (0 + 2.0) ** 70.0) rows"}

    def test_negative_batch_offset_reported_not_raised(self):
        # a negative base to a fractional power is complex: no batch size at all
        report = validate_config(quick_config(batch_offset=-1.0), 1.0)
        assert {c.name for c in report.failures} == {"batch-scale", "batch-size"}

    @pytest.mark.parametrize("offset", [0.0, -1.0])
    def test_nonpositive_step_offset_reported_not_raised(self, offset):
        # alpha(k) divides by k + offset, which is 0 at k = 0 or k = 1 here
        report = validate_config(quick_config(step_a0=1e-4, step_offset=offset), 1.0)
        failed = {c.name: c.detail for c in report.failures}
        assert set(failed) == {"step-positive", "step-bound", "step-decreasing"}
        assert "step-positive" in failed["step-bound"]
        assert "step-positive" in failed["step-decreasing"]


class TestCoordinatorStep:
    def test_orthant_projection(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        # two synthetic constraints so the projection is visible
        cons = (
            CouplingConstraintSpec(gamma=0.5, com_scale=0.0,
                                   offset=-1.0 / step_size(quick_config(), 0)),
            CouplingConstraintSpec(gamma=0.5, com_scale=0.0,
                                   offset=2.0 / step_size(quick_config(), 0)),
        )
        game = replace(game, constraints=cons)
        offsets = UnderApproxOffsets(np.zeros(2))
        cfg = quick_config()
        state = initial_state(game, cfg)
        lam_avg, lam_next, g_hat = coordinator_step(
            state, game, offsets, cfg, step_size(cfg, state.k), coordinator_batch(game, cfg),
            lift_base(game, state.u))
        # lam_avg + alpha * g = (-1, 2) -> projected to (0, 2)
        assert np.allclose(lam_next, [0.0, 2.0])

    def test_averaging_fixed_point(self):
        game, offsets = simple_game()
        cfg = quick_config()
        state = initial_state(game, cfg)
        state.lam = np.array([1.3])
        state.lam_avg_prev = np.array([1.3])
        lam_avg, _, _ = coordinator_step(state, game, offsets, cfg, step_size(cfg, state.k),
                                         coordinator_batch(game, cfg),
                                         lift_base(game, state.u))
        assert lam_avg[0] == pytest.approx(1.3)

    def test_deterministic_constraint_mean_exact(self):
        game, offsets = simple_game(constraint_offset=-2.5)
        cfg = quick_config()
        state = initial_state(game, cfg)
        for k in (0, 3, 7):
            state.k = k
            _, _, g_hat = coordinator_step(state, game, offsets, cfg, step_size(cfg, k),
                                           coordinator_batch(game, cfg, k),
                                           lift_base(game, state.u))
            assert g_hat[0] == pytest.approx(float(state.u.sum()) - 2.5)


class TestPlayerStep:
    def test_no_movement_at_zero_gradient(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        cfg = quick_config()
        state = initial_state(game, cfg)
        state.u = np.ones(game.input_dim)          # gradient u - 1 vanishes
        state.u_avg_prev = state.u.copy()
        _, u_next = player_step(state, game, cfg, step_size(cfg, state.k),
                                player_noise(game, cfg), lift_base(game, state.u))
        assert np.allclose(u_next, state.u)

    def test_zero_multiplier_reduces_to_gradient_step(self):
        game, offsets = simple_game(n_players=1)
        cfg = quick_config()
        state = initial_state(game, cfg)
        assert np.array_equal(state.lam, np.zeros(1))
        _, with_zero_lam = player_step(state, game, cfg, step_size(cfg, state.k),
                                       player_noise(game, cfg), lift_base(game, state.u))
        alpha = step_size(cfg, 0)
        expected = np.clip(state.u - alpha * (state.u - 1.0), -4.0, 4.0)
        assert np.allclose(with_zero_lam, expected)

    def test_clamp_at_upper_bound(self):
        game, offsets = simple_game(n_players=1, box=(0.0, 0.5))
        cfg = quick_config(step_a0=10.0, step_offset=2.0)
        state = initial_state(game, cfg)
        _, u_next = player_step(state, game, cfg, step_size(cfg, state.k),
                                player_noise(game, cfg), lift_base(game, state.u))
        # gradient at u=0 is -1, big step overshoots: clamp to the box
        assert np.allclose(u_next, 0.5)

    def test_negative_multiplier_rejected(self):
        # the multiplier enters from outside only through run(initial=...)
        game, offsets = simple_game()
        cfg = quick_config()
        state = replace(initial_state(game, cfg), lam=np.array([-0.1]))
        with pytest.raises(ValueError, match="nonnegative"):
            run(game, offsets, cfg, initial=state)


def observed_run(game, offsets, cfg, initial=None):
    """``run`` with an observer that keeps each (state, record) it is handed;
    returns (the trace, that list)."""
    seen = []
    trace = run(game, offsets, cfg, initial=initial,
                observe=lambda state, record: seen.append((state, record)))
    return trace, seen


class TestIterate:
    def test_no_constraints_runs(self):
        game, offsets = simple_game(constraint_offset=None)
        state = run(game, offsets, quick_config(max_iterations=10)).final_state
        assert state.lam.shape == (0,)
        # pure averaged projected gradient play drifts toward the minimizer at 1
        assert np.all(state.u > 0.1)

    def test_averaging_identity_exact(self):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=8)
        states = [initial_state(game, cfg)] + [state for state, _ in
                                               observed_run(game, offsets, cfg)[1]]
        assert len(states) == 9
        for prev, state in zip(states, states[1:]):
            expect_u = (1.0 - cfg.delta) * prev.u + cfg.delta * prev.u_avg_prev
            expect_lam = (1.0 - cfg.delta) * prev.lam + cfg.delta * prev.lam_avg_prev
            assert np.array_equal(state.u_avg_prev, expect_u)
            assert np.array_equal(state.lam_avg_prev, expect_lam)

    def test_feasibility_invariants(self):
        game, offsets = simple_game(noise_std=0.4, box=(0.0, 0.6))
        _, seen = observed_run(game, offsets,
                               quick_config(step_a0=1.0, step_offset=2.0, max_iterations=20))
        assert len(seen) == 20
        for state, _ in seen:
            assert np.all(state.lam >= 0)
            assert np.all(state.u >= 0.0) and np.all(state.u <= 0.6)


class TestResidual:
    def test_zero_at_deterministic_fixed_point(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        cfg = quick_config()
        state = initial_state(game, cfg)
        state.u = np.ones(game.input_dim)  # unconstrained minimizer
        assert residual_at(state, game, offsets, cfg) < 1e-12

    def test_invariant_under_same_stream(self):
        game, offsets = simple_game(noise_std=0.7)
        cfg = quick_config()
        state = initial_state(game, cfg)
        alpha = step_size(cfg, state.k)
        r1 = residual_estimate(state, game, offsets, alpha, residual_noise(game, cfg, 9),
                               lift_base(game, state.u))
        r2 = residual_estimate(state, game, offsets, alpha, residual_noise(game, cfg, 9),
                               lift_base(game, state.u))
        assert r1 == r2

    def test_noise_level_at_fixed_point(self):
        # stochastic constraint with zero mean: residual at the deterministic
        # fixed point is pure estimator noise, bounded by 3 x its standard error
        noise = 0.8
        game, offsets = simple_game(n_players=1, constraint_offset=-10.0,
                                    noise_std=noise)
        cfg = quick_config(residual_batch=500)
        state = initial_state(game, cfg)
        state.u = np.ones(game.input_dim)
        state.lam = np.zeros(1)  # slack constraint, zero multiplier
        res = residual_at(state, game, offsets, cfg)
        # the only nonzero term: multiplier block sees alpha * max(G_hat, 0),
        # and u block sees alpha * Jac @ lam = 0; G_hat ~ N(-10, noise^2/M)
        # => residual is 0 except astronomically unlikely draws; also check a
        # genuinely active stochastic term via the u block with lam > 0
        assert res <= 3.0 * step_size(cfg, 0) * noise / math.sqrt(500)

        state.lam = np.array([1.0])
        res_active = residual_at(state, game, offsets, cfg)
        # u block now carries alpha * (Jac noise) * lam; bound by 3 SE of the
        # stacked estimator plus the deterministic multiplier drift
        drift = step_size(cfg, 0) * abs(float(state.u.sum()) - 10.0 + offsets.offsets[0])
        se = step_size(cfg, 0) * noise * (1.0 + 1.0) / math.sqrt(500)
        assert res_active <= drift + 3.0 * se


def extragradient(game, offsets, alpha, noise, tol=1e-12, max_iterations=1000):
    """Projected extragradient (Korpelevich) with step ``alpha`` through
    ``extended_operator`` on the batch ``noise``, from the projected origin
    with a zero multiplier, until one step moves (u, lam) by at most ``tol``;
    returns (u, lam)."""
    def forward(u, lam, at_u, at_lam):
        field_u, field_lam = extended_operator(game, offsets, lift_base(game, at_u), noise,
                                               at_lam)
        return (game_mod.project_local(game, u - alpha * field_u),
                np.maximum(lam + alpha * field_lam, 0.0))

    u, lam = game_mod.project_local(game, np.zeros(game.input_dim)), \
        np.zeros(game.constraint_count)
    for _ in range(max_iterations):
        u_next, lam_next = forward(u, lam, *forward(u, lam, u, lam))
        moved = math.hypot(np.linalg.norm(u_next - u), np.linalg.norm(lam_next - lam))
        u, lam = u_next, lam_next
        if moved <= tol:
            return u, lam
    raise AssertionError(f"no step of at most {tol} in {max_iterations} iterations")


class TestExtendedOperator:
    @pytest.mark.parametrize("beta, lam_star", [(0.0, 0.25), (0.5, 0.375)])
    def test_zero_is_the_closed_form_equilibrium(self, beta, lam_star):
        # the margin beta raises the offset o of the oracle's one constraint
        # (its concentration offset is 0: the oracle is deterministic), so the
        # zero must be the KKT point of the game whose offset is raised by beta
        doc = json.loads((CONFIG_DIR / "quadratic_oracle.json").read_text())
        doc["com"]["beta"] = beta
        cfg = parse_config_dict(doc)
        game, offsets = build_game(cfg)
        assert np.array_equal(offsets.offsets, [beta])
        params = quadratic_oracle_params()
        [con] = params.constraints
        u_star, lam_kkt = solve_vgne_kkt(replace(params, constraints=(
            replace(con, offset=con.offset + beta),)))
        assert lam_kkt == pytest.approx(lam_star)
        alpha = 1.0 / (2.0 * estimate_lipschitz(game, offsets, seed=cfg.solver.seed))
        noise = residual_noise(game, cfg.solver, cfg.solver.seed)
        u, lam_hat = extragradient(game, offsets, alpha, noise)
        assert np.max(np.abs(u - u_star)) <= 1e-8
        assert np.max(np.abs(lam_hat - lam_kkt)) <= 1e-8

    def test_norm_is_numpy_dot_formula(self):
        # vdot is the dot of numpy's norm formula, bit for bit, on any length
        rng = np.random.default_rng(4)
        for n in [0, 1, 2, 3, 7, 16, 49, 1000, 4097, *rng.integers(1, 4098, size=40)]:
            x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
            assert solver._norm(x) == math.sqrt(x.dot(x))


class TestRun:
    def test_zero_budget_single_record(self):
        game, offsets = simple_game()
        cfg = quick_config(max_iterations=0)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_BUDGET
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    def test_final_record_matches_iteration_record(self):
        # the final record reads the coordinator's batch of its iterate, so a
        # run stopped at k=5 records what iteration 5 of a longer run records
        game, offsets = simple_game(noise_std=0.4)
        short = run(game, offsets, quick_config(max_iterations=5, snapshot_every=2)).records[-1]
        full = run(game, offsets, quick_config(max_iterations=6, snapshot_every=2)).records[5]
        fields = ("k", "residual", "g_hat_max", "g_hat_norm", "alpha", "batch")
        assert [getattr(short, f) for f in fields] == [getattr(full, f) for f in fields]
        assert np.array_equal(short.lam, full.lam)
        assert full.strategies is None and short.strategies is not None

    def test_final_record_time_excludes_residual(self, monkeypatch):
        # like an iteration record, the final record does not time the residual
        real = solver.residual_estimate

        def slow_residual(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "residual_estimate", slow_residual)
        game, offsets = simple_game()
        trace = run(game, offsets, quick_config(max_iterations=1))
        assert trace.records[-1].wall_ms < 50.0

    def test_tolerance_termination(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        cfg = quick_config(max_iterations=4000, residual_tolerance=1e-6,
                           step_a0=20.0, step_offset=50.0)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_TOLERANCE
        assert trace.records[-1].residual <= 1e-6
        assert np.allclose(trace.final_state.u, 1.0, atol=1e-3)

    def test_divergence_guard(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None,
                                    box=(-1e12, 1e12))
        # absurd step on an expansive problem: blow past the guard
        cfg = quick_config(step_a0=1e9, step_offset=1.0,
                           divergence_factor=10.0, max_iterations=2000)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_DIVERGENCE

    def test_nan_gradient_stops_non_finite(self):
        game, offsets = simple_game(n_players=1)
        game = replace(game, cost_input_grad=lambda u: np.full(u.shape[0], np.nan))
        cfg = quick_config(max_iterations=50)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == 1
        assert not trace.final_state.is_finite()
        assert solver.non_finite_updates(game, trace.final_state) == \
            ["player 0 strategy update"]

    def test_nan_closure_gradient_unread_at_zero_multiplier(self):
        # no multiplier of the reduced microgrid turns positive, so a NaN
        # terminal state_grad is never read and the run keeps every bit; the
        # Lipschitz probe reads it, so the gate refuses the game (test_cli)
        cfg = parse_config(CONFIG_DIR / "microgrid_reduced.json")
        game, offsets = build_game(cfg)
        cons = list(game.constraints)
        [j] = game.nonlinear_columns
        cons[j] = replace(cons[j], state_grad=lambda S: np.full(S.shape, np.nan))
        scfg = replace(cfg.solver, max_iterations=20)
        trace = run(replace(game, constraints=tuple(cons)), offsets, scfg)
        assert trace.termination_reason == solver.TERMINATION_BUDGET
        assert not any(record.lam.any() for record in trace.records)
        assert_run_equals_reference(trace, as_reference(run(game, offsets, scfg)))

    def test_nan_constraint_names_the_coordinator(self):
        game, offsets = simple_game(n_players=2, constraint_offset=float("nan"))
        trace = run(game, offsets, quick_config(max_iterations=50))
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == 1
        assert solver.non_finite_updates(game, trace.final_state) == \
            ["coordinator multiplier update"]

    def test_finite_iterate_with_overflowing_norm_diverges(self):
        # one unit step lands on 1e200 in every entry: finite, but the squares
        # in z_norm overflow to inf, so only the entries themselves can tell
        # it from a non-finite iterate; the overflow warns nothing (the suite
        # turns a RuntimeWarning into an error)
        game, offsets = simple_game(n_players=1, constraint_offset=None,
                                    box=(-1e300, 1e300))
        game = replace(game, cost_input_grad=lambda u: u - 1e200)
        cfg = quick_config(step_a0=2.0, step_offset=2.0, max_iterations=50)
        seen = []
        trace = run(game, offsets, cfg, observe=lambda state, record: seen.append(state))
        final = trace.final_state
        assert final.is_finite() and final.z_norm() == math.inf
        assert trace.termination_reason == solver.TERMINATION_DIVERGENCE
        assert final.k == 1 and np.array_equal(final.u, np.full(game.input_dim, 1e200))
        assert seen == [final] and seen[0] is final

    def test_records_contiguous(self):
        game, offsets = simple_game(noise_std=0.2)
        cfg = quick_config(max_iterations=12)
        trace = run(game, offsets, cfg)
        assert [r.k for r in trace.records] == list(range(13))

    def test_rerun_bit_identical(self):
        game, offsets = simple_game(noise_std=0.4)
        cfg = quick_config(max_iterations=15)
        t1 = run(game, offsets, cfg)
        t2 = run(game, offsets, cfg)
        assert_run_equals_reference(t2, as_reference(t1))


def per_player_pseudo_gradient(game, u, rows):
    # each player evaluates its own state-cost gradient on the shared rows
    return np.concatenate([reference_pseudo_gradient_block(game, i, u, rows)
                           for i in range(game.n_players)])


def assert_operator_exact(game, offsets, u, w):
    base, noise = lift_base(game, u), reduce_noise(game, w)
    # the support rows on the noise-free trajectory, which the base holds
    # only when an estimate reads it
    rows = noise.support + base_trajectory(game, u)[game.support_index]
    f_hat, jac, g_raw = operator_estimate(game, base, noise)
    g_hat = g_raw + offsets.offsets
    states = state_batch(game, u, w)
    f_ref = per_player_pseudo_gradient(game, u, rows)
    jac_ref = np.vstack([reference_jacobian_block(game, i, states[:, list(game.support)])
                         for i in range(game.n_players)])
    g_ref = constraint_values(game, u, states).mean(axis=0) + offsets.offsets
    assert np.array_equal(f_hat, f_ref)
    assert np.array_equal(jac, jac_ref)
    # the mean trajectory averages before the affine map, per-row values after
    np.testing.assert_allclose(g_hat, g_ref, rtol=1e-12, atol=1e-12)


class TestSharedEvaluation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lq_operator_matches_per_constraint_reference(self, seed):
        rng = np.random.default_rng(seed)
        game, offsets = build_lq_game(random_lq_params(rng))
        u = rng.normal(size=game.input_dim)
        assert_operator_exact(game, offsets, u, game.disturbance.sample(rng, 9))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_microgrid_operator_matches_per_constraint_reference(self, reduced_microgrid,
                                                                 seed):
        _, game, offsets = reduced_microgrid
        rng = np.random.default_rng(seed)
        u = random_feasible_profile(game, rng)
        assert_operator_exact(game, offsets, u, game.disturbance.sample(rng, 40))

    def test_shared_cost_gradient_evaluated_once_per_batch(self, reduced_microgrid):
        _, game, offsets = reduced_microgrid
        shared = game.players[0].cost_state_grad
        assert all(p.cost_state_grad is shared for p in game.players)
        calls = []

        def counted(states):
            calls.append(states.shape[0])
            return shared(states)

        counted_game = replace(game, players=tuple(
            replace(p, cost_state_grad=counted) for p in game.players))
        rng = np.random.default_rng(8)
        u = random_feasible_profile(game, rng)
        noise = reduce_noise(game, game.disturbance.sample(rng, 70))
        base = lift_base(counted_game, u)
        lift = reduced_lift(game, noise, base)
        f_hat, _, _ = operator_estimate(counted_game, base, noise)
        assert calls == [70]
        f_ref = per_player_pseudo_gradient(game, u, lift.support)
        assert np.array_equal(f_hat, f_ref)
        # a run: once per residual on its batch, once per iteration on the
        # N x M rows of every player's batch
        calls.clear()
        cfg = quick_config(max_iterations=4, residual_batch=90)
        run(counted_game, offsets, cfg)
        n = game.n_players
        per_iteration = [[cfg.residual_batch, n * batch_size(cfg, k)] for k in range(4)]
        assert calls == sum(per_iteration, []) + [cfg.residual_batch]

    def test_input_cost_gradient_evaluated_once_per_iterate(self):
        # the residual and the player step read the iterate's one lift_base
        cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
        game, offsets = build_game(cfg)
        calls = []

        def spy(u):
            calls.append(u.copy())
            return game.cost_input_grad(u)

        trace = run(replace(game, cost_input_grad=spy), offsets, cfg.solver)
        k = trace.final_state.k
        assert trace.termination_reason == solver.TERMINATION_TOLERANCE and k > 100
        assert len(calls) == k + 1
        assert np.array_equal(calls[-1], trace.final_state.u)

    def test_oracle_run_lifts_nothing(self, monkeypatch):
        # quadratic_oracle declares no state map and no state oracle, so no
        # estimate reads the trajectory: no iterate computes one or lifts a batch
        cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
        game, offsets = build_game(cfg)
        assert not game.reads_trajectory and lift_base(game, game.box_lower).trajectory is None
        calls = []
        for name in ("base_trajectory", "reduced_lift"):
            def spy(*args, name=name, real=getattr(game_mod, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(game_mod, name, spy)
        scfg = replace(cfg.solver, seed=1)
        assert math.isfinite(estimate_lipschitz(game, offsets, scfg.seed))
        trace = run(game, offsets, scfg)
        assert calls == []
        assert trace.termination_reason == solver.TERMINATION_TOLERANCE
        # the seed-1 solve digest of the benchmark's oracle_solve workload
        bits = hashlib.sha256()
        for a in (trace.final_state.u, trace.final_state.lam):
            bits.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert bits.hexdigest()[:16] == "1d55dc283d274d5d"

    def test_state_map_without_support_still_lifts(self):
        # a coefficient constraint on the trajectory and no callable state
        # oracle: the support is empty, but the constraint values read the
        # trajectory, so the iterate's base holds it and the batches are lifted
        game, offsets = simple_game(noise_std=0.5)
        assert game.support == () and game.state_map is not None and game.reads_trajectory
        rng = np.random.default_rng(2)
        u = random_feasible_profile(game, rng)
        assert np.array_equal(lift_base(game, u).trajectory, base_trajectory(game, u))
        assert_operator_exact(game, offsets, u, game.disturbance.sample(rng, 9))
        # the coordinator's tightened constraint mean, on the batch it draws
        cfg = quick_config()
        state = replace(initial_state(game, cfg), k=3, u=u)
        m = batch_size(cfg, state.k)
        g_hat = coordinator_step(state, game, offsets, cfg, step_size(cfg, state.k),
                                 coordinator_batch(game, cfg, k=3), lift_base(game, u))[2]
        w = game.disturbance.sample(iteration_stream(cfg.seed, 3, 0), m)
        g_ref = constraint_values(game, u, state_batch(game, u, w)).mean(axis=0)
        np.testing.assert_allclose(g_hat, g_ref + offsets.offsets, rtol=1e-12, atol=1e-12)
        assert abs(g_hat - game.constant - u @ game.input_map[:, 0] - offsets.offsets).max() \
            > 1e-3  # the batch moves the value: the state part is read

    def test_closure_free_jacobian_not_copied(self, quadratic_game):
        game, _ = quadratic_game
        assert not game.nonlinear_columns and not game.constant_jacobian.flags.writeable
        assert player_constraint_gradient_mean(game, None) is game.constant_jacobian
        noise = reduce_noise(game, game.disturbance.sample(np.random.default_rng(3), 5))
        assert operator_estimate(game, lift_base(game, np.ones(game.input_dim)), noise)[1] \
            is game.constant_jacobian

    def test_cached_residual_equals_uncached(self, reduced_microgrid):
        # run() passes the reduced batch residual_noise; the same draws lifted
        # whole, then reduced, must give the same bits
        _, game, offsets = reduced_microgrid
        cfg = quick_config(residual_batch=300)
        rng = np.random.default_rng(3)
        reduced = residual_noise(game, cfg, cfg.seed)
        states = lift_noise(game, game.disturbance.sample(residual_stream(cfg.seed),
                                                          cfg.residual_batch))
        lifted = ReducedLift(states.mean(axis=0), states[:, game.support_index])
        state = initial_state(game, cfg)
        for k in (0, 4):
            state = replace(state, k=k, u=random_feasible_profile(game, rng),
                            lam=rng.uniform(0.0, 2.0, size=game.constraint_count))
            base = lift_base(game, state.u)
            alpha = step_size(cfg, state.k)
            uncached = residual_estimate(state, game, offsets, alpha, noise=lifted, base=base)
            cached = residual_estimate(state, game, offsets, alpha, noise=reduced, base=base)
            assert cached == uncached > 0.0

    def test_run_matches_uncached_iteration(self, reduced_microgrid):
        # run() lifts the residual noise once and each iterate's base once;
        # stepping with freshly computed inputs must give the same bits
        _, game, offsets = reduced_microgrid
        cfg = quick_config(step_a0=5e-3, step_offset=2.0, max_iterations=6,
                           residual_batch=100)
        trace = run(game, offsets, cfg)
        state = initial_state(game, cfg)
        for rec in trace.records[:-1]:
            assert residual_at(state, game, offsets, cfg) == rec.residual
            state, _ = step(state, game, offsets, cfg)
        assert np.array_equal(state.u, trace.final_state.u)
        assert np.array_equal(state.lam, trace.final_state.lam)
        assert np.any(state.u != 0.0)


class TestObserver:
    def test_observed_run_equals_unobserved(self, reduced_tail):
        games, *tail = reduced_tail  # resumed microgrid_reduced: two-lane batches
        cases = [(*simple_game(noise_std=0.4), quick_config(max_iterations=12, snapshot_every=3),
                  None), (games[0], *tail)]
        for game, offsets, cfg, initial in cases:
            trace, seen = observed_run(game, offsets, cfg, initial)
            plain = run(game, offsets, cfg, initial=initial)
            assert len(seen) == len(plain.records) - 1
            assert trace.termination_reason == plain.termination_reason
            assert_run_equals_reference(trace, as_reference(plain))

    def test_called_once_per_finite_iterate_in_order(self, reduced_microgrid, monkeypatch):
        _, game, offsets = reduced_microgrid
        cfg = replace(parse_config(CONFIG_DIR / "microgrid_reduced.json").solver,
                      max_iterations=8)
        start = replace(initial_state(game, cfg), k=3)
        trace, seen = observed_run(game, offsets, cfg, start)
        assert [state.k for state, _ in seen] == [4, 5, 6, 7, 8]
        assert all(record.k == state.k - 1 for state, record in seen)
        assert all(rec is kept for (_, rec), kept in zip(seen, trace.records))
        assert seen[-1][0] is trace.final_state
        # the players' draws once iterate 5 is observed are NaN: iterate 6 is not finite
        ks = []
        hook_player_streams(monkeypatch, lambda rows: rows.fill(np.nan) if ks[-1:] == [5] else None)
        trace = run(game, offsets, cfg, initial=start,
                    observe=lambda state, record: ks.append(state.k))
        assert (trace.termination_reason, trace.final_state.k) == \
            (solver.TERMINATION_NON_FINITE, 6)
        assert ks == [4, 5]

    def test_exception_propagates(self):
        game, offsets = simple_game(noise_std=0.4)
        with pytest.raises(ZeroDivisionError):
            run(game, offsets, quick_config(max_iterations=10), observe=lambda *seen: 1 / 0)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=7)
        state = run(game, offsets, cfg).final_state
        path = solver.write_checkpoint(state, cfg, tmp_path)
        assert Path(path).name == "checkpoint_00000007.json"
        restored = solver.load_checkpoint(path, cfg)
        assert restored.k == state.k
        for name in solver.STATE_ARRAYS:
            assert np.array_equal(getattr(restored, name), getattr(state, name)), name

    def test_resume_matches_uninterrupted(self, tmp_path):
        # a run cut at its budget of 10 and resumed with a budget of 20 is the
        # 20-iteration run, in its final state and in every record but wall_ms
        game, offsets = simple_game(noise_std=0.6)
        cfg = quick_config(max_iterations=20, checkpoint_every=5, snapshot_every=3)
        full = run(game, offsets, cfg)
        short = replace(cfg, max_iterations=10)
        run(game, offsets, short, observe=checkpoint_writer(short, tmp_path))
        ckpt = solver.load_checkpoint(tmp_path / "checkpoint_00000010.json", cfg)
        resumed = run(game, offsets, cfg, initial=ckpt)
        assert resumed.termination_reason == full.termination_reason
        final, records = as_reference(full)
        assert_run_equals_reference(resumed, (final, records[10:]))

    def test_resumed_divergence_guard_stops_where_the_run_did(self, tmp_path):
        # the guard is relative to the projected origin, not to the resumed iterate
        game, offsets = simple_game(n_players=1, constraint_offset=None,
                                    box=(-1e12, 1e12))
        cfg = quick_config(step_a0=5.0, step_offset=1.0, divergence_factor=10.0,
                           checkpoint_every=1, max_iterations=300)
        full = run(game, offsets, cfg, observe=checkpoint_writer(cfg, tmp_path))
        assert (full.termination_reason, full.final_state.k) == \
            (solver.TERMINATION_DIVERGENCE, 2)
        ckpt = solver.load_checkpoint(tmp_path / "checkpoint_00000001.json", cfg)
        resumed = run(game, offsets, cfg, initial=ckpt)
        assert (resumed.termination_reason, resumed.final_state.k) == \
            (solver.TERMINATION_DIVERGENCE, 2)
        assert np.array_equal(resumed.final_state.u, full.final_state.u)

    @pytest.mark.parametrize("name, changed", [
        ("seed", lambda cfg: replace(cfg, seed=6)),
        ("delta", lambda cfg: replace(cfg, delta=0.8)),
        ("step_a0", lambda cfg: replace(cfg, step_a0=0.1)),
        ("batch_exponent", lambda cfg: replace(cfg, batch_exponent=1.2)),
        ("divergence_factor", lambda cfg: replace(cfg, divergence_factor=7.0)),
    ], ids=["seed", "delta", "step_a0", "batch_exponent", "divergence_factor"])
    def test_other_settings_refused(self, tmp_path, name, changed):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=3)
        path = solver.write_checkpoint(run(game, offsets, cfg).final_state, cfg, tmp_path)
        with pytest.raises(ValueError) as err:
            solver.load_checkpoint(path, changed(cfg))
        assert str(err.value) == f"{path}: written with other solver settings: {name}"

    def test_budget_tolerance_and_cadences_may_change(self, tmp_path):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=3)
        state = run(game, offsets, cfg).final_state
        path = solver.write_checkpoint(state, cfg, tmp_path)
        resumed = replace(cfg, max_iterations=30, residual_tolerance=1e-3,
                          checkpoint_every=4, snapshot_every=2)
        assert np.array_equal(solver.load_checkpoint(path, resumed).u, state.u)

    def test_settings_are_the_config_solver_keys(self):
        assert {f.name for f in fields(SolverConfig)} == set(config_mod._SOLVER)

    def test_checkpoint_settings_read_as_a_config_section(self, tmp_path):
        game, offsets = simple_game()
        cfg = quick_config(max_iterations=2)
        path = solver.write_checkpoint(run(game, offsets, cfg).final_state, cfg, tmp_path)
        doc = json.loads((CONFIG_DIR / "quadratic_oracle.json").read_text())
        doc["solver"] = json.loads(Path(path).read_text())["solver"]
        assert parse_config_dict(doc).solver == cfg

    def test_bad_tag_rejected(self, tmp_path):
        # a v1 text checkpoint is refused, and so is a JSON document of another
        # format; a complete v2 document too, since its run drew its batches
        # by another law, and a v3 one, whose settings carry nested names
        v1 = tmp_path / "checkpoint_00000003.txt"
        v1.write_text("ccgames-state v1\nseed 5\nk 3\nu 0.5 0.5\nu_avg_prev 0.5 0.5\n"
                      "multiplier 0.0\nmultiplier_avg_prev 0.0\n")
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"format": "ccgames-state v1", "k": 3}))
        game, offsets = simple_game()
        cfg = quick_config(max_iterations=2)
        v2 = Path(solver.write_checkpoint(run(game, offsets, cfg).final_state, cfg, tmp_path))
        doc = json.loads(v2.read_text())
        v2.write_text(json.dumps({**doc, "format": "ccgames-state v2"}))
        v3 = tmp_path / "v3.json"
        v3.write_text(json.dumps({**doc, "format": "ccgames-state v3", "solver": {
            **{k: v for k, v in doc["solver"].items() if not k.startswith(("step_", "batch_"))},
            "step": {"a0": cfg.step_a0, "offset": cfg.step_offset},
            "batch": {"scale": cfg.batch_scale, "offset": cfg.batch_offset,
                      "exponent": cfg.batch_exponent}}}))
        for path in (v1, other, v2, v3):
            with pytest.raises(ValueError) as err:
                solver.load_checkpoint(path, quick_config())
            assert str(err.value) == f"{path}: not a ccgames-state v4 checkpoint"

    @pytest.mark.parametrize("text", ["", "{", "[1, 2]", "\u00ff\u00fe"],
                             ids=["empty", "truncated", "list", "not-utf-8"])
    def test_non_json_rejected(self, tmp_path, text):
        path = tmp_path / "checkpoint_00000001.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(ValueError) as err:
            solver.load_checkpoint(path, quick_config())
        assert str(err.value) == f"{path}: not a ccgames-state v4 checkpoint"

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("lam_avg_prev"),
        lambda doc: doc.update(k=2.5),
        lambda doc: doc.update(u=["x", 1.0]),
        lambda doc: doc.update(solver=[]),
        lambda doc: doc["u"].__setitem__(0, math.nan),
        lambda doc: doc["lam_avg_prev"].__setitem__(0, -math.inf),
        lambda doc: doc.update(k=-3),
        lambda doc: doc.update(k=True),
    ], ids=["missing-array", "fractional-k", "text-entry", "solver-not-object", "nan-entry",
            "inf-entry", "negative-k", "boolean-k"])
    def test_malformed_checkpoint_rejected(self, tmp_path, edit):
        game, offsets = simple_game()
        cfg = quick_config(max_iterations=2)
        path = Path(solver.write_checkpoint(run(game, offsets, cfg).final_state, cfg, tmp_path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{path}: malformed ccgames-state v4 checkpoint"):
            solver.load_checkpoint(path, cfg)

    @pytest.mark.parametrize("name, wrong", [
        ("lam", lambda lam: np.zeros(2)),  # the game has one constraint
        ("u_avg_prev", lambda u: u[:1]),  # would broadcast against u
    ], ids=["lam", "u_avg_prev"])
    def test_wrong_dimensions_refused(self, name, wrong):
        game, offsets = simple_game(n_players=2)
        state = initial_state(game, quick_config())
        state = replace(state, **{name: wrong(getattr(state, name))})
        with pytest.raises(ValueError, match=f"initial {name}: not the game's dimensions"):
            run(game, offsets, quick_config(), initial=state)

    def test_checkpoint_of_another_game_refused(self, tmp_path):
        game, offsets = simple_game(n_players=2)
        cfg = quick_config(max_iterations=2)
        path = solver.write_checkpoint(run(game, offsets, cfg).final_state, cfg, tmp_path)
        bigger, bigger_offsets = simple_game(n_players=3)
        with pytest.raises(ValueError, match="initial u, u_avg_prev: not the game's"):
            run(bigger, bigger_offsets, cfg, initial=solver.load_checkpoint(path, cfg))

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=7)
        state = run(game, offsets, cfg).final_state
        path = Path(solver.write_checkpoint(state, cfg, tmp_path))
        before = path.read_text(encoding="utf-8")

        def interrupted(self, text, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", interrupted)
        for nxt in (replace(state, u=state.u + 1.0), replace(state, k=state.k + 1)):
            with pytest.raises(OSError, match="disk full"):
                solver.write_checkpoint(nxt, cfg, tmp_path)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestDiagnostics:
    def test_lipschitz_positive_and_stable(self):
        game, offsets = simple_game(couple=0.3)
        l1 = estimate_lipschitz(game, offsets, seed=1)
        l2 = estimate_lipschitz(game, offsets, seed=1)
        assert l1 == l2 > 0.5

    def test_non_finite_operator_fails_validation(self, quadratic_game):
        # each part of the operator non-finite on its own: F_hat (a NaN cost
        # term), G_hat (a NaN constraint offset), Jac (a NaN closure gradient)
        params = quadratic_oracle_params()
        linear = params.players[0].linear.copy()
        linear[0] = np.nan
        players = (replace(params.players[0], linear=linear),) + params.players[1:]
        [con] = params.constraints
        game, _ = quadratic_game
        closure = CouplingConstraintSpec(
            gamma=0.5, com_scale=0.0, input_coeffs=np.ones(game.input_dim), offset=-3.0,
            state_value=lambda S: np.zeros(len(S)),
            state_grad=lambda S: np.full(S.shape, np.nan))
        closure_game = replace(game, constraints=(closure,))
        for game, offsets in (build_lq_game(replace(params, players=players)),
                              build_lq_game(replace(params, constraints=(
                                  replace(con, offset=float("nan")),))),
                              (closure_game, UnderApproxOffsets.from_game(closure_game))):
            assert np.all(np.isfinite(offsets.offsets))
            lip = estimate_lipschitz(game, offsets, seed=1)
            assert math.isnan(lip)
            report = validate_config(quick_config(**PAPER_STEP), lip)
            [failure] = report.failures
            assert failure.name == "operator-finite"
            assert "not finite" in failure.detail

    def test_deterministic_game_zero_variance(self):
        game, offsets = simple_game()
        rep = estimator_diagnostics(game, np.zeros(game.input_dim), np.ones(1),
                                    [4, 16], 5, np.random.default_rng(0),
                                    offsets=offsets)
        assert np.all(rep.total_mse == 0.0)
        assert rep.slope is None

    @pytest.mark.parametrize("batch_sizes, repetitions", [
        ([], 5), ([4, 16], 0), ([0, 16], 5), ([4, -2], 5),
    ], ids=["no-batch-sizes", "no-repetitions", "zero-batch", "negative-batch"])
    def test_empty_estimates_refused(self, batch_sizes, repetitions):
        game, offsets = simple_game(noise_std=1.0)
        with pytest.raises(ValueError, match="at least 1"):
            estimator_diagnostics(game, np.zeros(game.input_dim), np.ones(1), batch_sizes,
                                  repetitions, np.random.default_rng(0), offsets=offsets)

    def test_linear_gaussian_variance_scaling(self):
        game, offsets = simple_game(noise_std=1.0)
        rng = np.random.default_rng(1)
        rep = estimator_diagnostics(game, np.zeros(game.input_dim), np.ones(1),
                                    [8, 32, 128, 512], 64, rng, offsets=offsets)
        assert -1.3 < rep.slope < -0.7
        # constraint-mean estimator of a N(mu, 1) value: MSE ~ 1/M
        assert rep.constraint_mse[0] == pytest.approx(1.0 / 8.0, rel=0.5)
