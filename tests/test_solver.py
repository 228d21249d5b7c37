import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

import ccgames.solver as solver
from ccgames.com import ComModel, UnderApproxOffsets
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, constraint_values, cost_state_grad_means,
                          lift_base, lift_noise, operator_estimate,
                          player_pseudo_gradient_mean, random_feasible_profile,
                          reduce_noise, reduced_lift, state_batch)
from ccgames.lqgame import build_lq_game
from ccgames.rng import iteration_stream
from ccgames.solver import (BatchSchedule, SolverConfig, SolverState,
                            StepSchedule, batch_size, coordinator_step,
                            estimate_lipschitz, estimator_diagnostics,
                            initial_state, iterate, player_step,
                            residual_estimate, residual_noise, run, step_size,
                            validate_config)

from conftest import (quadratic_oracle_params, random_lq_params, reference_jacobian_block,
                      with_callable_gradients)

PAPER_STEP = StepSchedule(a0=1.4e-4, offset=2.0)
PAPER_BATCH = BatchSchedule(scale=1.0, offset=2.0, exponent=1.1)


def simple_game(n_players=2, horizon=2, constraint_offset=-1.0, noise_std=0.0,
                box=(-4.0, 4.0), couple=0.0):
    """Quadratic input costs, one affine constraint, optional state noise feed."""
    T = horizon
    dyn = TimeVaryingLinearDynamics(
        a_mats=np.ones((T, 1, 1)), b_mats=tuple(np.zeros((T, 1, 1)) for _ in range(n_players)),
        s0=np.zeros(1))
    players = []
    for i in range(n_players):
        sl = slice(i * T, (i + 1) * T)

        def grad(u, sl=sl, i=i):
            blocks = u.reshape(n_players, T)
            return u[sl] - 1.0 + couple * (blocks.sum(axis=0) - blocks[i])

        players.append(PlayerSpec(
            input_dim=1, box_lower=np.full(T, box[0]), box_upper=np.full(T, box[1]),
            cost_input_grad=grad))
    cons = []
    if constraint_offset is not None:
        state_value = None
        state_grad = None
        if noise_std > 0:
            # value picks up s_1 = w_0, zero mean: stochastic but unbiased
            state_value = lambda S: noise_std * S[:, 1]
            state_grad = lambda S: np.concatenate([[0.0, noise_std], np.zeros(T - 1)])
        cons.append(CouplingConstraintSpec(
            gamma=0.5, com_scale=0.0,
            state_value=state_value, state_grad=state_grad,
            input_value=lambda u: float(u.sum() + constraint_offset),
            input_grad=lambda u: np.ones(u.shape[0])))
    dist = DisturbanceModel(
        dim=T, sample=lambda rng, n: rng.standard_normal((n, T)),
        com_model=ComModel())
    game = GameSpec.build(dyn, players, tuple(cons), dist)
    return game, UnderApproxOffsets.from_game(game)


def residual_at(state, game, offsets, cfg):
    """``residual_estimate`` on the run's residual batch and the iterate's lift base."""
    return residual_estimate(state, game, offsets, cfg, residual_noise(game, cfg, state.seed),
                             lift_base(game, state.u))


def step(state, game, offsets, cfg):
    """One iteration with its residual and lift base computed afresh."""
    return iterate(state, game, offsets, cfg, residual_at(state, game, offsets, cfg),
                   lift_base(game, state.u))


def quick_config(**kw):
    base = dict(delta=0.7, step=StepSchedule(a0=0.2, offset=2.0),
                batch=BatchSchedule(scale=1.0, offset=2.0, exponent=1.1),
                max_iterations=50, residual_tolerance=0.0, residual_batch=64, seed=5)
    base.update(kw)
    return SolverConfig(**base)


class TestSchedules:
    def test_paper_batch_values(self):
        cfg = quick_config(batch=PAPER_BATCH)
        assert batch_size(cfg, 0) == 3      # ceil(2^1.1)
        assert batch_size(cfg, 8) == 13     # ceil(10^1.1)

    def test_paper_step_value(self):
        cfg = quick_config(step=PAPER_STEP)
        assert step_size(cfg, 0) == pytest.approx(7e-5)

    @given(k=st.integers(0, 10**4))
    @settings(max_examples=60)
    def test_batch_nondecreasing(self, k):
        cfg = quick_config(batch=PAPER_BATCH)
        assert batch_size(cfg, k + 1) >= batch_size(cfg, k) >= 1

    @given(k=st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_step_monotone_with_bounded_ratio(self, k):
        cfg = quick_config(step=PAPER_STEP)
        a_k, a_next = step_size(cfg, k), step_size(cfg, k + 1)
        assert 0 < a_next <= a_k
        assert a_next / a_k >= (k + 2) / (k + 3) - 1e-12


class TestValidateConfig:
    def test_paper_delta_passes(self):
        report = validate_config(quick_config(delta=0.9, step=PAPER_STEP), 1.0)
        assert report.passed

    def test_delta_half_fails_golden_ratio(self):
        report = validate_config(quick_config(delta=0.5, step=PAPER_STEP), 1.0)
        assert not report.passed
        assert any(c.name == "averaging-lower" for c in report.failures)

    def test_delta_one_fails_strict_bound(self):
        report = validate_config(quick_config(delta=1.0, step=PAPER_STEP), 1.0)
        assert any(c.name == "averaging-upper" for c in report.failures)

    def test_step_bound_against_lipschitz(self):
        cfg = quick_config(delta=0.9, step=StepSchedule(a0=1.0, offset=2.0))
        report = validate_config(cfg, 10.0)
        assert any(c.name == "step-bound" for c in report.failures)
        bound = 1.0 / (4 * 0.9 * 21.0)
        ok = quick_config(delta=0.9, step=StepSchedule(a0=bound, offset=1.0))
        assert validate_config(ok, 10.0).passed

    def test_sublinear_batch_growth_fails(self):
        cfg = quick_config(batch=BatchSchedule(scale=1.0, offset=2.0, exponent=0.9))
        assert any(c.name == "batch-growth" for c in validate_config(cfg, 1.0).failures)


class TestCoordinatorStep:
    def test_orthant_projection(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        # two synthetic constraints so the projection is visible
        cons = (
            CouplingConstraintSpec(gamma=0.5, com_scale=0.0,
                                   input_value=lambda u: -1.0 / step_size(quick_config(), 0) - 0.0,
                                   input_grad=lambda u: np.zeros(u.shape[0])),
            CouplingConstraintSpec(gamma=0.5, com_scale=0.0,
                                   input_value=lambda u: 2.0 / step_size(quick_config(), 0),
                                   input_grad=lambda u: np.zeros(u.shape[0])),
        )
        from dataclasses import replace
        game = replace(game, constraints=cons)
        offsets = UnderApproxOffsets(np.zeros(2))
        cfg = quick_config()
        state = initial_state(game, cfg)
        lam_avg, lam_next, g_hat = coordinator_step(
            state, game, offsets, cfg, iteration_stream(cfg.seed, 0, 0), lift_base(game, state.u))
        # lam_avg + alpha * g = (-1, 2) -> projected to (0, 2)
        assert np.allclose(lam_next, [0.0, 2.0])

    def test_averaging_fixed_point(self):
        game, offsets = simple_game()
        cfg = quick_config()
        state = initial_state(game, cfg)
        state.lam = np.array([1.3])
        state.lam_avg_prev = np.array([1.3])
        lam_avg, _, _ = coordinator_step(state, game, offsets, cfg,
                                         iteration_stream(cfg.seed, 0, 0),
                                         lift_base(game, state.u))
        assert lam_avg[0] == pytest.approx(1.3)

    def test_deterministic_constraint_mean_exact(self):
        game, offsets = simple_game(constraint_offset=-2.5)
        cfg = quick_config()
        state = initial_state(game, cfg)
        for k in (0, 3, 7):
            state.k = k
            _, _, g_hat = coordinator_step(state, game, offsets, cfg,
                                           iteration_stream(cfg.seed, k, 0),
                                           lift_base(game, state.u))
            assert g_hat[0] == pytest.approx(float(state.u.sum()) - 2.5)


class TestPlayerStep:
    def test_no_movement_at_zero_gradient(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None)
        cfg = quick_config()
        state = initial_state(game, cfg)
        state.u = np.ones(game.input_dim)          # gradient u - 1 vanishes
        state.u_avg_prev = state.u.copy()
        _, u_next = player_step(0, state, game, cfg, iteration_stream(cfg.seed, 0, 1),
                                lift_base(game, state.u))
        assert np.allclose(u_next, state.u)

    def test_zero_multiplier_reduces_to_gradient_step(self):
        game, offsets = simple_game(n_players=1)
        cfg = quick_config()
        state = initial_state(game, cfg)
        rng_key = iteration_stream(cfg.seed, 0, 1)
        assert np.array_equal(state.lam, np.zeros(1))
        _, with_zero_lam = player_step(0, state, game, cfg, rng_key, lift_base(game, state.u))
        alpha = step_size(cfg, 0)
        expected = np.clip(state.u - alpha * (state.u - 1.0), -4.0, 4.0)
        assert np.allclose(with_zero_lam, expected)

    def test_clamp_at_upper_bound(self):
        game, offsets = simple_game(n_players=1, box=(0.0, 0.5))
        cfg = quick_config(step=StepSchedule(a0=10.0, offset=2.0))
        state = initial_state(game, cfg)
        _, u_next = player_step(0, state, game, cfg, iteration_stream(cfg.seed, 0, 1),
                                lift_base(game, state.u))
        # gradient at u=0 is -1, big step overshoots: clamp to the box
        assert np.allclose(u_next, 0.5)

    def test_negative_multiplier_rejected(self):
        # the multiplier enters from outside only through run(initial=...)
        game, offsets = simple_game()
        cfg = quick_config()
        state = replace(initial_state(game, cfg), lam=np.array([-0.1]))
        with pytest.raises(ValueError, match="nonnegative"):
            run(game, offsets, cfg, initial=state)


class TestIterate:
    def test_same_seed_bit_identical(self):
        game, offsets = simple_game(noise_std=0.5)
        cfg = quick_config(seed=123)
        s1 = initial_state(game, cfg)
        s2 = initial_state(game, cfg)
        for _ in range(5):
            s1, _ = step(s1, game, offsets, cfg)
            s2, _ = step(s2, game, offsets, cfg)
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.lam, s2.lam)
        assert np.array_equal(s1.u_avg_prev, s2.u_avg_prev)

    def test_no_constraints_runs(self):
        game, offsets = simple_game(constraint_offset=None)
        cfg = quick_config()
        state = initial_state(game, cfg)
        for _ in range(10):
            state, rec = step(state, game, offsets, cfg)
        assert state.lam.shape == (0,)
        # pure averaged projected gradient play drifts toward the minimizer at 1
        assert np.all(state.u > 0.1)

    def test_averaging_identity_exact(self):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config()
        state = initial_state(game, cfg)
        for _ in range(8):
            prev = state
            state, _ = step(state, game, offsets, cfg)
            expect_u = (1.0 - cfg.delta) * prev.u + cfg.delta * prev.u_avg_prev
            expect_lam = (1.0 - cfg.delta) * prev.lam + cfg.delta * prev.lam_avg_prev
            assert np.array_equal(state.u_avg_prev, expect_u)
            assert np.array_equal(state.lam_avg_prev, expect_lam)

    def test_feasibility_invariants(self):
        game, offsets = simple_game(noise_std=0.4, box=(0.0, 0.6))
        cfg = quick_config(step=StepSchedule(a0=1.0, offset=2.0))
        state = initial_state(game, cfg)
        for _ in range(20):
            state, _ = step(state, game, offsets, cfg)
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
        r1 = residual_estimate(state, game, offsets, cfg, residual_noise(game, cfg, 9),
                               lift_base(game, state.u))
        r2 = residual_estimate(state, game, offsets, cfg, residual_noise(game, cfg, 9),
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
                           step=StepSchedule(a0=20.0, offset=50.0))
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_TOLERANCE
        assert trace.records[-1].residual <= 1e-6
        assert np.allclose(trace.final_state.u, 1.0, atol=1e-3)

    def test_divergence_guard(self):
        game, offsets = simple_game(n_players=1, constraint_offset=None,
                                    box=(-1e12, 1e12))
        # absurd step on an expansive problem: blow past the guard
        cfg = quick_config(step=StepSchedule(a0=1e9, offset=1.0),
                           divergence_factor=10.0, max_iterations=2000)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_DIVERGENCE

    def test_nan_gradient_stops_non_finite(self):
        game, offsets = simple_game(n_players=1)
        nan_player = replace(game.players[0],
                             cost_input_grad=lambda u: np.full(u.shape[0], np.nan))
        game = replace(game, players=(nan_player,))
        cfg = quick_config(max_iterations=50)
        trace = run(game, offsets, cfg)
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == 1
        assert not trace.final_state.is_finite()

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
        assert np.array_equal(t1.final_state.u, t2.final_state.u)
        for a, b in zip(t1.records, t2.records):
            assert a.residual == b.residual
            assert np.array_equal(a.lam, b.lam)


def per_player_pseudo_gradient(game, u, rows):
    # each player evaluates its own state-cost gradient, as player_step does
    return np.concatenate([
        player_pseudo_gradient_mean(game, i, u, *cost_state_grad_means(game, rows, (i,)))
        for i in range(game.n_players)])


def assert_operator_exact(game, offsets, u, w):
    lift = reduced_lift(game, reduce_noise(game, w), lift_base(game, u))
    f_hat, jac, g_raw = operator_estimate(game, u, lift)
    g_hat = g_raw + offsets.offsets
    states = state_batch(game, u, w)
    f_ref = per_player_pseudo_gradient(game, u, lift.support)
    jac_ref = np.vstack([reference_jacobian_block(game, i, u, states)
                         for i in range(game.n_players)])
    g_ref = constraint_values(game, u, states).mean(axis=0) + offsets.offsets
    assert np.array_equal(f_hat, f_ref)
    assert np.array_equal(jac, jac_ref)
    # the mean trajectory averages before the affine map, per-row values after
    np.testing.assert_allclose(g_hat, g_ref, rtol=1e-12, atol=1e-12)


class TestSharedEvaluation:
    @given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lq_operator_matches_per_constraint_reference(self, seed, mixed):
        rng = np.random.default_rng(seed)
        game, offsets = build_lq_game(random_lq_params(rng))
        if mixed:
            game = with_callable_gradients(game, rng)
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
        lift = reduced_lift(game, reduce_noise(game, game.disturbance.sample(rng, 70)),
                            lift_base(game, u))
        f_hat, _, _ = operator_estimate(counted_game, u, lift)
        assert calls == [70]
        f_ref = per_player_pseudo_gradient(game, u, lift.support)
        assert np.array_equal(f_hat, f_ref)

    def test_cached_residual_equals_uncached(self, reduced_microgrid):
        _, game, offsets = reduced_microgrid
        cfg = quick_config(residual_batch=300)
        rng = np.random.default_rng(3)
        w_res = game.disturbance.sample(rng, cfg.residual_batch)
        noise = lift_noise(game, w_res)
        state = initial_state(game, cfg)
        for k in (0, 4):
            state = replace(state, k=k, u=random_feasible_profile(game, rng),
                            lam=rng.uniform(0.0, 2.0, size=game.constraint_count))
            uncached = residual_estimate(state, game, offsets, cfg,
                                         noise=lift_noise(game, w_res),
                                         base=lift_base(game, state.u))
            cached = residual_estimate(state, game, offsets, cfg, noise=noise,
                                       base=lift_base(game, state.u))
            assert cached == uncached > 0.0

    def test_run_matches_uncached_iteration(self, reduced_microgrid):
        # run() lifts the residual noise once and each iterate's base once;
        # stepping with freshly computed inputs must give the same bits
        _, game, offsets = reduced_microgrid
        cfg = quick_config(step=StepSchedule(a0=5e-3, offset=2.0), max_iterations=6,
                           residual_batch=100)
        trace = run(game, offsets, cfg)
        state = initial_state(game, cfg)
        for rec in trace.records[:-1]:
            assert residual_at(state, game, offsets, cfg) == rec.residual
            state, _ = step(state, game, offsets, cfg)
        assert np.array_equal(state.u, trace.final_state.u)
        assert np.array_equal(state.lam, trace.final_state.lam)
        assert np.any(state.u != 0.0)


class TestCheckpoint:
    def test_round_trip_exact(self):
        game, offsets = simple_game(noise_std=0.3)
        cfg = quick_config(max_iterations=7)
        trace = run(game, offsets, cfg)
        state = trace.final_state
        restored = SolverState.from_text(state.to_text())
        assert restored.k == state.k and restored.seed == state.seed
        assert np.array_equal(restored.u, state.u)
        assert np.array_equal(restored.lam, state.lam)
        assert np.array_equal(restored.u_avg_prev, state.u_avg_prev)
        assert np.array_equal(restored.lam_avg_prev, state.lam_avg_prev)

    def test_resume_matches_uninterrupted(self, tmp_path):
        game, offsets = simple_game(noise_std=0.6)
        cfg = quick_config(max_iterations=20, checkpoint_every=10)
        full = run(game, offsets, cfg, checkpoint_dir=tmp_path)
        ckpt = solver.load_checkpoint(tmp_path / "checkpoint_00000010.txt")
        resumed = run(game, offsets, cfg, initial=ckpt)
        assert np.array_equal(full.final_state.u, resumed.final_state.u)
        assert np.array_equal(full.final_state.lam, resumed.final_state.lam)

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        game, offsets = simple_game(noise_std=0.3)
        state = run(game, offsets, quick_config(max_iterations=7)).final_state
        path = Path(solver.write_checkpoint(state, tmp_path))
        before = path.read_text(encoding="utf-8")

        def interrupted(self, text, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", interrupted)
        for nxt in (replace(state, u=state.u + 1.0), replace(state, k=state.k + 1)):
            with pytest.raises(OSError, match="disk full"):
                solver.write_checkpoint(nxt, tmp_path)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            SolverState.from_text("something else\nseed 0\n")


class TestDiagnostics:
    def test_lipschitz_positive_and_stable(self):
        game, offsets = simple_game(couple=0.3)
        l1 = estimate_lipschitz(game, offsets, seed=1)
        l2 = estimate_lipschitz(game, offsets, seed=1)
        assert l1 == l2 > 0.5

    def test_non_finite_operator_fails_validation(self):
        params = quadratic_oracle_params()
        linear = params.players[0].linear.copy()
        linear[0] = np.nan
        players = (replace(params.players[0], linear=linear),) + params.players[1:]
        game, offsets = build_lq_game(replace(params, players=players))
        lip = estimate_lipschitz(game, offsets, seed=1)
        assert math.isnan(lip)
        report = validate_config(quick_config(step=PAPER_STEP), lip)
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

    def test_linear_gaussian_variance_scaling(self):
        game, offsets = simple_game(noise_std=1.0)
        rng = np.random.default_rng(1)
        rep = estimator_diagnostics(game, np.zeros(game.input_dim), np.ones(1),
                                    [8, 32, 128, 512], 64, rng, offsets=offsets)
        assert -1.3 < rep.slope < -0.7
        # constraint-mean estimator of a N(mu, 1) value: MSE ~ 1/M
        assert rep.constraint_mse[0] == pytest.approx(1.0 / 8.0, rel=0.5)
