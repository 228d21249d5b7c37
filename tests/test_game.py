import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgames.com import ComModel
from ccgames.dynamics import TimeVaryingLinearDynamics
from dataclasses import replace

from ccgames.config import build_game, parse_config
from ccgames.dynamics import simulate_state
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, _batch_means, batch_mean, constraint_values, lift_base,
                          player_constraint_gradient_mean, project_local,
                          random_feasible_profile, state_batch)
from ccgames.lqgame import build_lq_game
from ccgames.microgrid import MicrogridParams, build_microgrid_game

from conftest import (CONFIG_DIR, central_difference, random_dynamics,
                      random_lq_params, reference_constant_jacobian,
                      reference_constraint_values, reference_jacobian_block,
                      reference_project_local, reference_random_profile, relative_error,
                      sample_operator)


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
    return GameSpec(dyn, players, (con,), dist, cost_input_grad=lambda u: u.copy())


class TestPseudoGradient:
    def test_pure_quadratic_blocks(self):
        game = build_quadratic_state_game(np.random.default_rng(0), state_cost=False)
        rng = np.random.default_rng(1)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        assert np.allclose(sample_operator(game, u, w)[0], u)

    def test_state_cost_chain_rule_at_origin(self):
        # cost |s|^2/2 at zero inputs and zero noise: block i = input_map_i^T init_map s0
        game = build_quadratic_state_game(np.random.default_rng(2), state_cost=True)
        u0 = np.zeros(game.input_dim)
        w0 = np.zeros(game.disturbance.dim)
        grad = sample_operator(game, u0, w0)[0]
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
        grad = sample_operator(game, u, w)[0]
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
        a = sample_operator(game, u, w)[0]
        b = sample_operator(game, u, w)[0]
        assert np.array_equal(a, b)


class TestConstraints:
    def test_zero_input_function(self):
        game = build_quadratic_state_game(np.random.default_rng(7))
        val = sample_operator(game, np.zeros(game.input_dim),
                              np.zeros(game.disturbance.dim))[2]
        assert val[0] == pytest.approx(-1.0)

    def test_affine_gradient_is_constant(self):
        game = build_quadratic_state_game(np.random.default_rng(8))
        rng = np.random.default_rng(9)
        for _ in range(3):
            u = rng.normal(size=game.input_dim)
            w = rng.normal(size=game.disturbance.dim)
            jac = sample_operator(game, u, w)[1]
            assert np.allclose(jac[:, 0], np.ones(game.input_dim))

    def test_gradient_matches_finite_differences(self):
        game = build_quadratic_state_game(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        jac = sample_operator(game, u, w)[1]
        fd = central_difference(lambda v: float(sample_operator(game, v, w)[2][0]), u)
        assert relative_error(jac[:, 0], fd) < 1e-6

    def test_linear_state_constraint_value(self):
        # value = <ones, s> - affine in (u, w); compare against the recursion
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
        game = GameSpec(dyn, players, (con,), dist)
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=game.disturbance.dim)
        expected = simulate_state(dyn, u, w).sum()
        assert sample_operator(game, u, w)[2][0] == pytest.approx(expected, rel=1e-12)


class TestStateBatch:
    @given(seed=st.integers(0, 2**32 - 1), equal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_recursion(self, seed, equal):
        # the solver's own lift (base_trajectory plus lift_noise) against
        # stepping the dynamics, row by row: equal block heights take the
        # stacked-array path of base_trajectory, unequal ones the tuple path
        rng = np.random.default_rng(seed)
        dyn = random_dynamics(rng, n_players=int(rng.integers(2, 5)))
        T, n_s = dyn.horizon, dyn.state_dim
        widths = [1 + (0 if equal else i % 2) for i in range(dyn.n_players)]
        dyn = TimeVaryingLinearDynamics(
            a_mats=dyn.a_mats, s0=dyn.s0,
            b_mats=tuple(rng.normal(size=(T, n_s, nj)) for nj in widths))
        players = [PlayerSpec(input_dim=nj, box_lower=-np.ones(T * nj),
                              box_upper=np.ones(T * nj)) for nj in widths]
        dist = DisturbanceModel(dim=T * n_s, com_model=ComModel(),
                                mean=np.zeros(T * n_s), std=np.ones(T * n_s))
        game = GameSpec(dyn, players, (), dist)
        assert isinstance(game.stacked_input_maps, np.ndarray) == equal
        u = rng.normal(size=game.input_dim)
        w = rng.normal(size=(int(rng.integers(1, 8)), T * n_s))
        for row, w_r in zip(state_batch(game, u, w), w):
            direct = simulate_state(dyn, u, w_r)
            assert np.linalg.norm(row - direct) / max(1.0, np.linalg.norm(direct)) < 1e-10


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
        with pytest.raises(ValueError, match="player count"):
            GameSpec(dyn, (player,), (), dist)
        game = build_quadratic_state_game(rng)
        with pytest.raises(ValueError, match="player count"):
            replace(game, players=game.players[:1])

    def test_replaced_dynamics_rebuild_the_lift(self):
        # a replaced game is built and checked again, so its lift follows the
        # new dynamics instead of keeping the old one
        game, _ = build_microgrid_game(MicrogridParams(n_households=2, horizon=4, delta_t=6.0))
        dyn = game.dynamics
        halved = replace(game, dynamics=replace(dyn, a_mats=0.5 * dyn.a_mats))
        rng = np.random.default_rng(21)
        u = random_feasible_profile(halved, rng)
        w = halved.disturbance.sample(rng, 3)
        rows = state_batch(halved, u, w)
        for row, w_row in zip(rows, w):
            np.testing.assert_allclose(row, simulate_state(halved.dynamics, u, w_row),
                                       rtol=0, atol=1e-10)

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

    def test_affine_state_cost_needs_a_gradient(self):
        with pytest.raises(ValueError, match="cost_state_affine declares a cost_state_grad"):
            PlayerSpec(input_dim=1, box_lower=[0.0], box_upper=[1.0], cost_state_affine=True)

    def test_state_costs_read_rows_unless_every_one_is_declared_affine(self, reduced_microgrid):
        _, game, _ = reduced_microgrid
        assert all(p.cost_state_affine for p in game.players) and not game.state_costs_read_rows
        # one undeclared state cost is enough; a player without one reads no row
        players = list(game.players)
        players[1] = replace(players[1], cost_state_affine=False)
        assert replace(game, players=tuple(players)).state_costs_read_rows
        players[1] = replace(players[1], cost_state_grad=None)
        assert not replace(game, players=tuple(players)).state_costs_read_rows


def assert_blocks_exact(game, u, states):
    jac = player_constraint_gradient_mean(game, states[:, game.support_index])
    for i, sl in enumerate(game.player_slices):
        assert np.array_equal(jac[sl], reference_jacobian_block(
            game, i, states[:, list(game.support)]))


class TestConstantJacobianBlocks:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lq_blocks_match_per_constraint_reference(self, seed):
        rng = np.random.default_rng(seed)
        game, _ = build_lq_game(random_lq_params(rng))
        # -0.0 counts: the bytes of one product per (player, constraint) pair
        assert same_bits(game.constant_jacobian, reference_constant_jacobian(game))
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
        assert same_bits(game.constant_jacobian, reference_constant_jacobian(game))
        rng = np.random.default_rng(27)
        for rows in (1, 64):
            u = random_feasible_profile(game, rng)
            assert_blocks_exact(game, u, state_batch(game, u, game.disturbance.sample(rng, rows)))

    def test_constant_jacobian_bytes_unequal_heights(self):
        # players of unequal heights take one product per (player, constraint)
        game = build_quadratic_state_game(np.random.default_rng(26))
        assert game.block_height is None
        sdim, rng = game.state_traj_dim, np.random.default_rng(27)
        game = replace(game, constraints=game.constraints + tuple(
            CouplingConstraintSpec(gamma=0.3, state_coeffs=rng.normal(size=sdim) * (k - 1))
            for k in range(3)))  # -0.0 coefficients in the first, zeros in the second
        assert same_bits(game.constant_jacobian, reference_constant_jacobian(game))

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


def same_bits(a, b) -> bool:
    """Equal type, dtype, shape and bytes: -0.0 differs from 0.0, NaN equals itself."""
    return type(a) is type(b) and a.dtype == b.dtype and np.shape(a) == np.shape(b) \
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def wide_values(rng, shape):
    """Floats from 1e-8 to 1e8 in size, both signs, a tenth of them +-0.0."""
    out = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    zeros = rng.uniform(size=shape) < 0.1
    out[zeros] = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)[zeros]
    return out


def with_boxes(game, lo, hi):
    """The game with the stacked box [lo, hi], each player's block its own box."""
    return replace(game, players=tuple(replace(p, box_lower=lo[sl], box_upper=hi[sl])
                                       for p, sl in zip(game.players, game.player_slices)))


class TestFastPathsKeepTheBits:
    """Each per-iterate primitive equals, bit for bit, the numpy expression it replaced."""

    @pytest.mark.parametrize("m", [1, 2, 3, 1001])
    def test_batch_mean_equals_ndarray_mean(self, m):
        rng = np.random.default_rng(m)
        rows = wide_values(rng, (m, 5))
        stacked = wide_values(rng, (4, m, 5))
        assert same_bits(batch_mean(rows), rows.mean(axis=0))
        assert same_bits(batch_mean(stacked, 1), stacked.mean(axis=1))
        assert same_bits(batch_mean(rows[:, 2]), rows[:, 2].mean())  # a value closure's (M,)
        # the closures' batch means, as _batch_means took them before
        fn = np.tanh
        assert same_bits(_batch_means(fn, rows), fn(rows).mean(axis=0))
        assert same_bits(_batch_means(fn, stacked),
                         fn(stacked.reshape(4 * m, 5)).reshape(4, m, -1).mean(axis=1))

    def test_input_grad_equals_zeros_plus_oracle(self):
        game = build_quadratic_state_game(np.random.default_rng(31))
        signed = np.resize([-0.0, 0.0, 1.5, -2.0, -0.0], game.input_dim)
        game = replace(game, cost_input_grad=lambda u: signed.copy())
        u = np.zeros(game.input_dim)
        got = lift_base(game, u).input_grad
        assert same_bits(got, np.zeros(game.input_dim) + game.cost_input_grad(u))
        assert not np.signbit(got[signed == 0.0]).any()  # -0.0 becomes +0.0, as before
        no_cost = lift_base(replace(game, cost_input_grad=None), u).input_grad
        assert same_bits(no_cost, np.zeros(game.input_dim))

    def test_projection_equals_np_clip(self):
        game = build_quadratic_state_game(np.random.default_rng(32))
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 3.0, -3.0, 20.0, -20.0])
        lo = np.resize([-np.inf, -0.0, 0.0, np.nan, -1.0, -10.0], game.input_dim)
        hi = np.resize([np.inf, 0.0, -0.0, np.nan, np.inf, 10.0], game.input_dim)
        boxed = with_boxes(game, lo, hi)
        rng = np.random.default_rng(33)
        for _ in range(20):
            u = rng.choice(special, size=game.input_dim)
            for g in (game, boxed):
                assert same_bits(project_local(g, u), np.clip(u, g.box_lower, g.box_upper))

    def test_random_profile_equals_rng_uniform(self):
        # the doubles and the stream state of one rng.uniform over the stacked
        # box, zero widths (signed zeros too) and wide ones included
        game = build_quadratic_state_game(np.random.default_rng(34))
        lo = np.resize([-0.0, 0.0, -0.0, -3.0, -1e300, 2.5, -1e-300], game.input_dim)
        hi = np.resize([0.0, 0.0, -0.0, 7.0, 1e300, 2.5, 1e-300], game.input_dim)
        for g in (game, with_boxes(game, lo, hi)):
            rng, ref = np.random.default_rng(35), np.random.default_rng(35)
            for _ in range(5):
                assert same_bits(random_feasible_profile(g, rng), ref.uniform(g.box_lower,
                                                                              g.box_upper))
                assert rng.bit_generator.state == ref.bit_generator.state
        # a box [0.0, -0.0] has the width -0.0, which rng.uniform refuses
        # ("high - low < 0"); the draw is its one point
        point = with_boxes(game, np.zeros(game.input_dim), np.full(game.input_dim, -0.0))
        assert same_bits(random_feasible_profile(point, np.random.default_rng(35)),
                         np.zeros(game.input_dim))

    @pytest.mark.parametrize("lower, upper", [(-np.inf, 0.0), (0.0, np.inf), (np.nan, np.nan),
                                              (-1e308, 1e308)])
    def test_random_profile_raises_for_a_width_that_is_not_finite(self, lower, upper):
        # such a game builds without a warning, and its draw raises as
        # rng.uniform does, whose own overflow warning is silenced here
        game = build_quadratic_state_game(np.random.default_rng(36))
        wide = with_boxes(game, np.resize([lower, -1.0], game.input_dim),
                          np.resize([upper, 1.0], game.input_dim))
        assert wide.box_width is None
        with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            random_feasible_profile(wide, np.random.default_rng(37))
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            np.random.default_rng(37).uniform(wide.box_lower, wide.box_upper)
