from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccgames.dynamics as dynamics_mod
import ccgames.game as game_mod
from ccgames.config import build_game, parse_config
from ccgames.dynamics import TimeVaryingLinearDynamics, build_compact_lift, simulate_state
from ccgames.lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game

from conftest import CONFIG_DIR, apply_lift, random_dynamics, reference_compact_lift


def scalar_dynamics(a_value, horizon, n_players=1, b_value=0.0, s0=0.0):
    return TimeVaryingLinearDynamics(
        a_mats=np.full((horizon, 1, 1), a_value),
        b_mats=tuple(np.full((horizon, 1, 1), b_value) for _ in range(n_players)),
        s0=np.array([s0]))


class TestCompactLift:
    def test_first_block_rows(self):
        dyn = random_dynamics(np.random.default_rng(2))
        lift = build_compact_lift(dyn)
        n_s = dyn.state_dim
        assert np.array_equal(lift.init_map[:n_s], np.eye(n_s))
        assert not lift.noise_map[:n_s].any()
        for gm in lift.input_maps:
            assert not gm[:n_s].any()

    def test_block_lower_triangular(self):
        dyn = random_dynamics(np.random.default_rng(3), n_s=2, n_players=2, horizon=6)
        lift = build_compact_lift(dyn)
        n_s, T = dyn.state_dim, dyn.horizon
        for t in range(T + 1):
            rows = slice(t * n_s, (t + 1) * n_s)
            assert not lift.noise_map[rows, t * n_s:].any()
            for gm, nj in zip(lift.input_maps, dyn.input_dims):
                assert not gm[rows, t * nj:].any()

    def test_microgrid_scalar_blocks(self):
        # battery-style system: A = 1, B = -eta*dt; unrolled input map rows
        eta_dt = 5e-5 * 1.0
        dyn = scalar_dynamics(1.0, horizon=2, b_value=-eta_dt)
        lift = build_compact_lift(dyn)
        expected = np.array([[0.0, 0.0], [-eta_dt, 0.0], [-eta_dt, -eta_dt]])
        assert np.allclose(lift.input_maps[0], expected)

    def test_matches_simulation_to_1e12(self):
        rng = np.random.default_rng(4)
        dyn = random_dynamics(rng, n_s=2, n_players=2, horizon=3)
        lift = build_compact_lift(dyn)
        u = rng.normal(size=dyn.input_dim_total)
        w = rng.normal(size=dyn.horizon * dyn.state_dim)
        direct = simulate_state(dyn, u, w)
        lifted = apply_lift(lift, dyn.s0, u, w)
        assert np.allclose(lifted, direct, atol=1e-12)


def assert_same_lift(lift, reference):
    """Every map of ``lift`` has the shape and the bytes (so -0.0 counts) of
    the reference's, and is its own C-contiguous array."""
    pairs = [(lift.init_map, reference.init_map), (lift.noise_map, reference.noise_map)]
    assert len(lift.input_maps) == len(reference.input_maps)
    for got, want in pairs + list(zip(lift.input_maps, reference.input_maps)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


class TestLiftBits:
    """One product per step over every map's columns gives each map the
    bytes of its own recursion (``reference_compact_lift``)."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_dynamics_unequal_widths(self, seed):
        rng = np.random.default_rng(seed)
        n_s, T, n = int(rng.integers(2, 7)), int(rng.integers(1, 10)), int(rng.integers(2, 5))
        a = rng.normal(scale=0.8, size=(T, n_s, n_s))
        a[rng.uniform(size=a.shape) < 0.2] = 0.0  # zero entries: products of signed zeros
        dyn = TimeVaryingLinearDynamics(
            a_mats=a, s0=rng.normal(size=n_s),
            b_mats=tuple(rng.normal(size=(T, n_s, 1 + i % 3)) for i in range(n)))
        assert len(set(dyn.input_dims)) > 1
        assert_same_lift(build_compact_lift(dyn), reference_compact_lift(dyn))

    @pytest.mark.parametrize("config", ["microgrid_reduced.json", "microgrid_paper.json"])
    def test_shipped_microgrids(self, config):
        game, _ = build_game(parse_config(CONFIG_DIR / config))
        assert_same_lift(game.lift, reference_compact_lift(game.dynamics))


class TestSimulateAndLift:
    def test_identity_dynamics_hold_state(self):
        dyn = random_dynamics(np.random.default_rng(5), n_s=2, n_players=1, horizon=4)
        dyn = TimeVaryingLinearDynamics(
            a_mats=np.tile(np.eye(2), (4, 1, 1)), b_mats=dyn.b_mats, s0=dyn.s0)
        s = simulate_state(dyn, np.zeros(dyn.input_dim_total), np.zeros(8))
        assert np.allclose(s.reshape(5, 2), dyn.s0)

    def test_battery_first_step(self):
        # SoC_1 = SoC_0 + eta*dt*(r_0 - sum_i u_i0) with the renewable term in w
        eta_dt, r0, soc0 = 5e-5, 3.0, 0.5
        dyn = scalar_dynamics(1.0, horizon=2, n_players=2, b_value=-eta_dt, s0=soc0)
        u = np.array([0.4, 0.0, 0.7, 0.0])
        w = np.array([eta_dt * r0, 0.0])
        s = simulate_state(dyn, u, w)
        assert s[1] == pytest.approx(soc0 + eta_dt * (r0 - 1.1))

    def test_zero_inputs_gives_init_map_column(self):
        dyn = random_dynamics(np.random.default_rng(6))
        lift = build_compact_lift(dyn)
        s = apply_lift(lift, dyn.s0, np.zeros(dyn.input_dim_total),
                       np.zeros(dyn.horizon * dyn.state_dim))
        assert np.allclose(s, lift.init_map @ dyn.s0)

    def test_affine_in_inputs(self):
        rng = np.random.default_rng(7)
        dyn = random_dynamics(rng)
        lift = build_compact_lift(dyn)
        w0 = np.zeros(dyn.horizon * dyn.state_dim)
        u1 = rng.normal(size=dyn.input_dim_total)
        u2 = rng.normal(size=dyn.input_dim_total)
        combined = apply_lift(lift, dyn.s0, u1 + u2, w0)
        parts = (apply_lift(lift, dyn.s0, u1, w0) + apply_lift(lift, dyn.s0, u2, w0)
                 - lift.init_map @ dyn.s0)
        assert np.allclose(combined, parts, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_lift_linear_in_inputs_and_noise(self, seed, a, b):
        # s(a x1 + b x2) - s0_part = a (s(x1) - s0_part) + b (s(x2) - s0_part)
        # for x = (u, w): the property that lets batch means lift mean(w)
        rng = np.random.default_rng(seed)
        dyn = random_dynamics(rng)
        lift = build_compact_lift(dyn)
        free = lift.init_map @ dyn.s0
        u1, u2 = rng.normal(size=(2, dyn.input_dim_total))
        w1, w2 = rng.normal(size=(2, dyn.horizon * dyn.state_dim))
        combined = apply_lift(lift, dyn.s0, a * u1 + b * u2, a * w1 + b * w2) - free
        parts = (a * (apply_lift(lift, dyn.s0, u1, w1) - free)
                 + b * (apply_lift(lift, dyn.s0, u2, w2) - free))
        scale = max(1.0, float(np.linalg.norm(parts)))
        assert np.linalg.norm(combined - parts) / scale < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lift_equals_simulation(self, seed):
        rng = np.random.default_rng(seed)
        dyn = random_dynamics(rng)
        lift = build_compact_lift(dyn)
        u = rng.normal(size=dyn.input_dim_total)
        w = rng.normal(size=dyn.horizon * dyn.state_dim)
        direct = simulate_state(dyn, u, w)
        lifted = apply_lift(lift, dyn.s0, u, w)
        denom = max(1.0, float(np.linalg.norm(direct)))
        assert np.linalg.norm(lifted - direct) / denom < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_causality(self, seed):
        # perturbing inputs at step t only moves states after t
        rng = np.random.default_rng(seed)
        dyn = random_dynamics(rng)
        T, n_s = dyn.horizon, dyn.state_dim
        u = rng.normal(size=dyn.input_dim_total)
        w = rng.normal(size=T * n_s)
        t_hit = int(rng.integers(0, T))
        u_pert = u.copy()
        off = 0
        for nj in dyn.input_dims:
            u_pert[off + t_hit * nj:off + (t_hit + 1) * nj] += 1.0
            off += T * nj
        delta = simulate_state(dyn, u_pert, w) - simulate_state(dyn, u, w)
        assert not delta[:(t_hit + 1) * n_s].any()

    def test_length_mismatch_raises(self):
        dyn = scalar_dynamics(1.0, horizon=3)
        with pytest.raises(ValueError):
            simulate_state(dyn, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            simulate_state(dyn, np.zeros(3), np.zeros(2))


class TestConstruction:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            TimeVaryingLinearDynamics(
                a_mats=np.zeros((3, 2, 2)), b_mats=(np.zeros((2, 2, 1)),),
                s0=np.zeros(2))
        with pytest.raises(ValueError):
            TimeVaryingLinearDynamics(
                a_mats=np.zeros((3, 2, 2)), b_mats=(np.zeros((3, 1, 1)),),
                s0=np.zeros(2))
        with pytest.raises(ValueError):
            TimeVaryingLinearDynamics(
                a_mats=np.zeros((3, 2, 2)), b_mats=(np.zeros((3, 2, 1)),),
                s0=np.zeros(3))


OVERFLOW = "^the dynamics overflow a double within the horizon$"
HUGE_STATE_COEFFS = (LqConstraint(input_coeffs=np.ones(40), state_coeffs=np.full(41, 1e300)),)


class TestOverflowingLift:
    """The lift is built once and trusted; dynamics whose lift overflows a
    double are refused where it is built, with no RuntimeWarning (an error in
    this suite) on the way."""

    @pytest.mark.parametrize("a_value, horizon", [(1e10, 40), (-1e10, 40), (1e200, 2)])
    def test_refused_where_built(self, a_value, horizon):
        # 1e10^40 = 1e400 and 1e200^2 are past the doubles
        with pytest.raises(ValueError, match=OVERFLOW):
            build_compact_lift(scalar_dynamics(a_value, horizon, b_value=1.0))

    def test_largest_finite_lift_kept(self):
        # 1e7^40 = 1e280 is finite: the lift is built and holds it
        lift = build_compact_lift(scalar_dynamics(1e7, 40, b_value=1.0))
        assert lift.init_map[-1, 0] == pytest.approx(1e280, rel=1e-12)

    def test_game_builders_refuse(self):
        T = 40
        params = LqGameParams(horizon=T, a_mats=np.full((T, 1, 1), 1e10),
                              players=(LqPlayer(box_lower=-np.ones(T), box_upper=np.ones(T)),))
        with pytest.raises(ValueError, match=OVERFLOW):
            build_lq_game(params)
        game, _ = build_lq_game(replace(params, a_mats=None))
        with pytest.raises(ValueError, match=OVERFLOW):
            replace(game, dynamics=scalar_dynamics(1e10, T))

    @pytest.mark.parametrize("edit, message", [
        # a finite lift (10^40) of a state of 1e300
        (dict(a_mats=np.full((40, 1, 1), 10.0), initial_state=[1e300]),
         "^the noise-free trajectory init_map @ s0 overflows a double$"),
        # coefficients of 1e300 through an input map of 1e10, with no noise
        (dict(b_mats=(np.full((40, 1, 1), 1e10),), constraints=HUGE_STATE_COEFFS),
         "^the constant constraint Jacobian overflows a double$"),
        # their sums over up to 40 noise columns (4e301) scaled by 1e10
        (dict(noise_std=np.full(40, 1e10), constraints=HUGE_STATE_COEFFS),
         "^com_scale must be finite and nonnegative, got inf$"),
    ], ids=["trajectory", "jacobian", "com-scale"])
    def test_non_finite_derived_data_refused(self, edit, message):
        T = 40
        params = LqGameParams(horizon=T, players=(
            LqPlayer(box_lower=-np.ones(T), box_upper=np.ones(T)),), **edit)
        with pytest.raises(ValueError, match=message):
            build_lq_game(params)

    def test_construction_steps_no_trajectory(self, monkeypatch):
        def stepped(*args):
            raise AssertionError("a construction path stepped the dynamics")
        monkeypatch.setattr(game_mod, "state_batch", stepped)
        monkeypatch.setattr(dynamics_mod, "simulate_state", stepped)
        for config in ("quadratic_oracle.json", "microgrid_reduced.json", "microgrid_paper.json"):
            game, _ = build_game(parse_config(CONFIG_DIR / config))
            replace(game, state_support=game.state_support)
