import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgames.dynamics import (TimeVaryingLinearDynamics, build_compact_lift,
                              lift_state, simulate_state)

from conftest import random_dynamics


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
        lifted = lift_state(lift, dyn.s0, u, w)
        assert np.allclose(lifted, direct, atol=1e-12)


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
        s = lift_state(lift, dyn.s0, np.zeros(dyn.input_dim_total),
                       np.zeros(dyn.horizon * dyn.state_dim))
        assert np.allclose(s, lift.init_map @ dyn.s0)

    def test_affine_in_inputs(self):
        rng = np.random.default_rng(7)
        dyn = random_dynamics(rng)
        lift = build_compact_lift(dyn)
        w0 = np.zeros(dyn.horizon * dyn.state_dim)
        u1 = rng.normal(size=dyn.input_dim_total)
        u2 = rng.normal(size=dyn.input_dim_total)
        combined = lift_state(lift, dyn.s0, u1 + u2, w0)
        parts = (lift_state(lift, dyn.s0, u1, w0) + lift_state(lift, dyn.s0, u2, w0)
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
        combined = lift_state(lift, dyn.s0, a * u1 + b * u2, a * w1 + b * w2) - free
        parts = (a * (lift_state(lift, dyn.s0, u1, w1) - free)
                 + b * (lift_state(lift, dyn.s0, u2, w2) - free))
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
        lifted = lift_state(lift, dyn.s0, u, w)
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
