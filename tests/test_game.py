import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgames.com import ComModel
from ccgames.dynamics import TimeVaryingLinearDynamics
from dataclasses import replace

from ccgames.config import build_game, parse_config
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, constraint_gradient_sample,
                          constraint_sample, constraint_state_grad_means,
                          constraint_values, player_constraint_gradient_mean,
                          project_local,
                          pseudo_gradient_sample, random_feasible_profile,
                          state_batch)
from ccgames.lqgame import build_lq_game

from conftest import (CONFIG_DIR, central_difference, random_dynamics,
                      random_lq_params, reference_constraint_values,
                      reference_jacobian_block, reference_project_local,
                      reference_random_profile, relative_error)


def assert_stacked_box_matches_reference(game, rng):
    """project_local and random_feasible_profile equal the per-player reference
    bit for bit, and the draw leaves the stream where the reference leaves it."""
    width = np.max(np.abs(np.concatenate([game.box_lower, game.box_upper]))) + 1.0
    u = rng.uniform(-2.0 * width, 2.0 * width, size=game.input_dim)
    assert np.array_equal(project_local(game, u), reference_project_local(game, u))
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = rng.bit_generator.state
    drawn = random_feasible_profile(game, rng)
    assert np.array_equal(drawn, reference_random_profile(game, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def build_quadratic_state_game(rng, state_cost=False):
    """Players with cost |u_i|^2 / 2 and optionally |s|^2 / 2."""
    dyn = random_dynamics(rng, n_s=2, n_players=3, horizon=3)
    T = dyn.horizon
    players = [PlayerSpec(
        input_dim=nj,
        box_lower=-10 * np.ones(T * nj), box_upper=10 * np.ones(T * nj),
        cost_state_grad=(lambda S: S) if state_cost else None)
        for nj in dyn.input_dims]
    con = CouplingConstraintSpec(gamma=0.2, input_coeffs=np.ones(dyn.input_dim_total),
                                 offset=-1.0)
    dist = DisturbanceModel(
        dim=T * dyn.state_dim,
        sample=lambda rng_, n: rng_.normal(size=(n, T * dyn.state_dim)),
        com_model=ComModel())
    # block i of the profile is player i's own gradient u_i
    return GameSpec.build(dyn, players, (con,), dist, cost_input_grad=lambda u: u.copy())


class TestPseudoGradient:
    def test_pure_quadratic_blocks(self):
        game = build_quadratic_state_game(np.random.default_rng(0), state_cost=False)
        rng = np.random.default_rng(1)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        assert np.allclose(pseudo_gradient_sample(game, u, w), u)

    def test_state_cost_chain_rule_at_origin(self):
        # cost |s|^2/2 at zero inputs and zero noise: block i = input_map_i^T init_map s0
        game = build_quadratic_state_game(np.random.default_rng(2), state_cost=True)
        u0 = np.zeros(game.input_dim)
        w0 = np.zeros(game.disturbance.dim)
        grad = pseudo_gradient_sample(game, u0, w0)
        base = game.lift.init_map @ game.dynamics.s0
        expected = np.concatenate([
            gm.T @ base + u0[sl]
            for gm, sl in zip(game.lift.input_maps, game.player_slices)])
        assert np.allclose(grad, expected, atol=1e-12)

    def test_matches_finite_differences(self):
        game = build_quadratic_state_game(np.random.default_rng(3), state_cost=True)
        rng = np.random.default_rng(4)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        grad = pseudo_gradient_sample(game, u, w)
        from ccgames.game import state_batch

        for i, sl in enumerate(game.player_slices):
            def cost_i(block, i=i, sl=sl):
                probe = u.copy()
                probe[sl] = block
                s = state_batch(game, probe, w[None, :])[0]
                return 0.5 * float(s @ s) + 0.5 * float(probe[sl] @ probe[sl])

            fd = central_difference(cost_i, u[sl])
            assert relative_error(grad[sl], fd) < 1e-6

    def test_deterministic_bit_for_bit(self):
        game = build_quadratic_state_game(np.random.default_rng(5), state_cost=True)
        rng = np.random.default_rng(6)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        a = pseudo_gradient_sample(game, u, w)
        b = pseudo_gradient_sample(game, u, w)
        assert np.array_equal(a, b)


class TestConstraints:
    def test_zero_input_function(self):
        game = build_quadratic_state_game(np.random.default_rng(7))
        val = constraint_sample(game, np.zeros(game.input_dim),
                                np.zeros(game.disturbance.dim))
        assert val[0] == pytest.approx(-1.0)

    def test_affine_gradient_is_constant(self):
        game = build_quadratic_state_game(np.random.default_rng(8))
        rng = np.random.default_rng(9)
        for _ in range(3):
            u = rng.normal(size=game.input_dim)
            w = rng.normal(size=game.disturbance.dim)
            jac = constraint_gradient_sample(game, u, w)
            assert np.allclose(jac[:, 0], np.ones(game.input_dim))

    def test_gradient_matches_finite_differences(self):
        game = build_quadratic_state_game(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        jac = constraint_gradient_sample(game, u, w)
        fd = central_difference(lambda v: float(constraint_sample(game, v, w)[0]), u)
        assert relative_error(jac[:, 0], fd) < 1e-6

    def test_linear_state_constraint_value(self):
        # value = <ones, s> - affine in (u, w); compare against the lift directly
        rng = np.random.default_rng(12)
        dyn = random_dynamics(rng, n_s=2, n_players=2, horizon=3)
        sdim = (dyn.horizon + 1) * dyn.state_dim
        con = CouplingConstraintSpec(gamma=0.3, state_coeffs=np.ones(sdim))
        players = [PlayerSpec(input_dim=nj,
                              box_lower=-np.ones(dyn.horizon * nj),
                              box_upper=np.ones(dyn.horizon * nj))
                   for nj in dyn.input_dims]
        dist = DisturbanceModel(
            dim=dyn.horizon * dyn.state_dim,
            sample=lambda r, n: r.normal(size=(n, dyn.horizon * dyn.state_dim)),
            com_model=ComModel())
        game = GameSpec.build(dyn, players, (con,), dist)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        from ccgames.dynamics import lift_state

        expected = lift_state(game.lift, dyn.s0, u, w).sum()
        assert constraint_sample(game, u, w)[0] == pytest.approx(expected, rel=1e-12)


class TestProjection:
    def test_clamps_to_box(self):
        game = build_quadratic_state_game(np.random.default_rng(13))
        u = 20 * np.ones(game.input_dim)
        assert np.allclose(project_local(game, u), 10 * np.ones(game.input_dim))

    def test_interior_point_fixed(self):
        game = build_quadratic_state_game(np.random.default_rng(14))
        u = np.full(game.input_dim, 0.37)
        assert np.array_equal(project_local(game, u), u)

    def test_idempotent(self):
        game = build_quadratic_state_game(np.random.default_rng(15))
        u = np.random.default_rng(16).normal(scale=30, size=game.input_dim)
        once = project_local(game, u)
        assert np.array_equal(project_local(game, once), once)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonexpansive(self, seed):
        game = build_quadratic_state_game(np.random.default_rng(17))
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=25, size=game.input_dim)
        y = rng.normal(scale=25, size=game.input_dim)
        dist_proj = np.linalg.norm(project_local(game, x) - project_local(game, y))
        assert dist_proj <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("name", ["microgrid_reduced.json", "microgrid_paper.json"])
    def test_stacked_box_matches_per_player_reference_microgrid(self, name):
        game, _ = build_game(parse_config(CONFIG_DIR / name))
        rng = np.random.default_rng(21)
        for _ in range(3):
            assert_stacked_box_matches_reference(game, rng)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stacked_box_matches_per_player_reference_lq(self, seed):
        rng = np.random.default_rng(seed)
        game, _ = build_lq_game(random_lq_params(rng))
        # distinct boxes per player, some coordinates pinned (lower == upper)
        players = []
        for p in game.players:
            lo = rng.uniform(-3.0, 1.0, size=p.box_lower.shape[0])
            hi = np.where(rng.uniform(size=lo.shape[0]) < 0.2, lo,
                          lo + rng.uniform(0.0, 4.0, size=lo.shape[0]))
            players.append(replace(p, box_lower=lo, box_upper=hi))
        assert_stacked_box_matches_reference(replace(game, players=tuple(players)), rng)

    def test_replace_players_rebuilds_stacked_box(self, reduced_microgrid):
        _, game, _ = reduced_microgrid
        halved = replace(game, players=tuple(
            replace(p, box_lower=p.box_upper / 4, box_upper=p.box_upper / 2)
            for p in game.players))
        assert np.array_equal(halved.box_lower, game.box_upper / 4)
        assert np.array_equal(halved.box_upper, game.box_upper / 2)
        assert not halved.box_lower.flags.writeable and not halved.box_upper.flags.writeable
        u = np.full(game.input_dim, 1e3)
        assert np.array_equal(project_local(halved, u), game.box_upper / 2)

    def test_random_profiles_feasible(self):
        game = build_quadratic_state_game(np.random.default_rng(18))
        rng = np.random.default_rng(19)
        for _ in range(5):
            u = random_feasible_profile(game, rng)
            assert np.array_equal(project_local(game, u), u)


class TestValidation:
    def test_player_count_mismatch(self):
        rng = np.random.default_rng(20)
        dyn = random_dynamics(rng, n_s=1, n_players=2, horizon=2)
        player = PlayerSpec(input_dim=dyn.input_dims[0],
                            box_lower=np.zeros(2 * dyn.input_dims[0]),
                            box_upper=np.ones(2 * dyn.input_dims[0]))
        dist = DisturbanceModel(dim=2, sample=lambda r, n: r.normal(size=(n, 2)),
                                com_model=ComModel())
        with pytest.raises(ValueError):
            GameSpec.build(dyn, (player,), (), dist)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            CouplingConstraintSpec(gamma=1.0)
        with pytest.raises(ValueError):
            CouplingConstraintSpec(gamma=0.0)

    def test_state_value_and_grad_come_together(self):
        with pytest.raises(ValueError, match="state_value and state_grad"):
            CouplingConstraintSpec(gamma=0.5, state_value=lambda S: S[:, 0])
        with pytest.raises(ValueError, match="state_value and state_grad"):
            CouplingConstraintSpec(gamma=0.5, state_grad=lambda S: S)


def assert_blocks_exact(game, u, states):
    jac = player_constraint_gradient_mean(
        game, constraint_state_grad_means(game, states[:, game.support_index]))
    for i, sl in enumerate(game.player_slices):
        assert np.array_equal(jac[sl], reference_jacobian_block(
            game, i, states[:, list(game.support)]))


class TestConstantJacobianBlocks:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lq_blocks_match_per_constraint_reference(self, seed):
        rng = np.random.default_rng(seed)
        game, _ = build_lq_game(random_lq_params(rng))
        u = rng.normal(size=game.input_dim)
        states = state_batch(game, u, game.disturbance.sample(rng, 7))
        assert_blocks_exact(game, u, states)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_microgrid_blocks_match_per_constraint_reference(self, reduced_microgrid, seed):
        _, game, _ = reduced_microgrid
        rng = np.random.default_rng(seed)
        u = random_feasible_profile(game, rng)
        states = state_batch(game, u, game.disturbance.sample(rng, 50))
        assert_blocks_exact(game, u, states)

    @pytest.mark.parametrize("config", ["microgrid_reduced.json", "microgrid_paper.json"])
    def test_shipped_microgrid_blocks_match_per_constraint_reference(self, config):
        game, _ = build_game(parse_config(CONFIG_DIR / config))
        rng = np.random.default_rng(27)
        for rows in (1, 64):
            u = random_feasible_profile(game, rng)
            assert_blocks_exact(game, u, state_batch(game, u, game.disturbance.sample(rng, rows)))

    def test_microgrid_declares_band_gradients_constant(self, reduced_microgrid):
        params, game, _ = reduced_microgrid
        # only the terminal band (last constraint) needs sampled gradients
        assert game.nonlinear_columns == (2 * params.horizon,)
        assert game.input_map is None

    def test_replace_constraints_rebuilds_blocks(self):
        game = build_quadratic_state_game(np.random.default_rng(21))
        sdim = game.state_traj_dim
        cons = (
            CouplingConstraintSpec(gamma=0.3, state_coeffs=np.arange(sdim, dtype=float),
                                   input_coeffs=np.full(game.input_dim, 2.0)),
            CouplingConstraintSpec(gamma=0.3, state_value=lambda S: 0.5 * (S * S).sum(axis=1),
                                   state_grad=lambda S: S),
        )
        rebuilt = replace(game, constraints=cons)
        assert rebuilt.nonlinear_columns == (1,)
        for i, sl in enumerate(rebuilt.player_slices):
            block = rebuilt.constant_jacobian[sl]
            assert block.shape == (sl.stop - sl.start, 2)
            expected = rebuilt.lift.input_maps[i].T @ cons[0].state_coeffs + 2.0
            assert np.allclose(block[:, 0], expected)
            assert np.array_equal(block[:, 1], np.zeros(sl.stop - sl.start))
        rng = np.random.default_rng(22)
        u = rng.normal(size=rebuilt.input_dim)
        assert_blocks_exact(rebuilt, u, state_batch(rebuilt, u, rng.normal(size=(5, 6))))

    def test_constant_gradient_length_checked(self):
        game = build_quadratic_state_game(np.random.default_rng(23))
        good = CouplingConstraintSpec(gamma=0.3, offset=-1.0)
        for name, dim in (("state_coeffs", game.state_traj_dim),
                          ("input_coeffs", game.input_dim)):
            bad = CouplingConstraintSpec(gamma=0.3, **{name: np.ones(dim + 1)})
            with pytest.raises(ValueError, match=f"constraint 1: {name} has length "
                                                 f"{dim + 1}, expected {dim}"):
                replace(game, constraints=(good, bad))

    def test_constant_gradient_is_read_only_copy(self):
        for name in ("state_coeffs", "input_coeffs"):
            given_coeffs = np.array([1.0, 2.0, 3.0])
            con = CouplingConstraintSpec(gamma=0.3, **{name: given_coeffs})
            given_coeffs[0] = 7.0
            stored = getattr(con, name)
            assert stored.dtype == float and np.array_equal(stored, [1.0, 2.0, 3.0])
            with pytest.raises(ValueError):
                stored[0] = 5.0
            from_list = getattr(CouplingConstraintSpec(gamma=0.3, **{name: [1, 2]}), name)
            assert from_list.dtype == float and not from_list.flags.writeable


class TestAffineConstraintValues:
    @pytest.mark.parametrize("config", ["microgrid_reduced.json", "microgrid_paper.json"])
    def test_microgrid_values_match_per_closure_reference(self, config):
        game, _ = build_game(parse_config(CONFIG_DIR / config))
        horizon = game.dynamics.horizon
        # the 2 T band constraints are coefficients; only the terminal band is a closure
        assert game.nonlinear_columns == (2 * horizon,)
        assert np.array_equal(np.count_nonzero(game.state_map, axis=0),
                              [1] * (2 * horizon) + [0])
        rng = np.random.default_rng(31)
        for rows in (1, 257):
            u = random_feasible_profile(game, rng)
            states = state_batch(game, u, game.disturbance.sample(rng, rows))
            assert np.array_equal(constraint_values(game, u, states),
                                  reference_constraint_values(game, u, states))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lq_values_match_per_closure_reference(self, seed):
        # S @ map and S @ state_coeffs may sum in different orders, so the
        # LQ values agree to rounding rather than bit for bit
        rng = np.random.default_rng(seed)
        game, _ = build_lq_game(random_lq_params(rng))
        u = rng.normal(size=game.input_dim)
        states = state_batch(game, u, game.disturbance.sample(rng, 9))
        np.testing.assert_allclose(constraint_values(game, u, states),
                                   reference_constraint_values(game, u, states),
                                   rtol=1e-12, atol=1e-12)

    def test_replace_constraints_rebuilds_affine_map(self):
        game = build_quadratic_state_game(np.random.default_rng(24))
        assert game.state_map is None and game.input_map.shape == (game.input_dim, 1)
        sdim = game.state_traj_dim
        grad = np.linspace(-1.0, 1.0, sdim)
        cons = (
            CouplingConstraintSpec(gamma=0.3, state_coeffs=grad, offset=2.5),
            CouplingConstraintSpec(gamma=0.3, state_value=lambda S: 0.5 * (S * S).sum(axis=1),
                                   state_grad=lambda S: S),
        )
        rebuilt = replace(game, constraints=cons)
        assert rebuilt.nonlinear_columns == (1,)
        assert rebuilt.input_map is None
        assert rebuilt.state_map.shape == (sdim, 2)
        assert np.array_equal(rebuilt.state_map[:, 0], grad)
        assert not rebuilt.state_map[:, 1].any()
        assert np.array_equal(rebuilt.constant, [2.5, 0.0])
        rng = np.random.default_rng(25)
        u = rng.normal(size=rebuilt.input_dim)
        states = state_batch(rebuilt, u, rng.normal(size=(6, rebuilt.disturbance.dim)))
        np.testing.assert_allclose(constraint_values(rebuilt, u, states),
                                   reference_constraint_values(rebuilt, u, states),
                                   rtol=1e-12, atol=1e-12)
