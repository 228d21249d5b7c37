from dataclasses import replace

import numpy as np
import pytest

from ccgames.game import random_feasible_profile
from ccgames.lqgame import (LqConstraint, LqGameParams, LqPlayer, build_lq_game,
                            pseudo_gradient_matrix, solve_vgne_kkt)

from conftest import (central_difference, quadratic_oracle_params, random_lq_params,
                      relative_error,
                      sample_operator)


class TestPseudoGradientMatrix:
    def test_oracle_game_structure(self):
        params = quadratic_oracle_params()
        mat, vec = pseudo_gradient_matrix(params)
        assert mat.shape == (6, 6)
        assert np.allclose(np.diag(mat), 1.0)
        assert np.allclose(vec, -1.0)
        # off-diagonal blocks are the coupling weight on matching coordinates
        assert mat[0, 2] == mat[0, 4] == 0.25 and mat[0, 1] == 0.0

    def test_sampled_gradient_is_affine_map(self, quadratic_game):
        game, offsets = quadratic_game
        params = quadratic_oracle_params()
        mat, vec = pseudo_gradient_matrix(params)
        rng = np.random.default_rng(0)
        for _ in range(4):
            u = random_feasible_profile(game, rng)
            w = game.disturbance.sample(rng, 1)[0]
            assert np.allclose(sample_operator(game, u, w)[0], mat @ u + vec)


class TestKktOracle:
    def test_oracle_solution(self):
        params = quadratic_oracle_params()
        u_star, lam_star = solve_vgne_kkt(params)
        assert np.allclose(u_star, 0.5)
        assert lam_star == pytest.approx(0.25)
        # interior to the boxes, constraint active
        assert np.all(np.abs(u_star) < 5.0)
        assert float(np.ones(6) @ u_star) == pytest.approx(3.0)

    def test_inactive_constraint_branch(self):
        params = quadratic_oracle_params()
        slack = LqConstraint(input_coeffs=np.ones(6), offset=-100.0, gamma=0.5)
        from dataclasses import replace

        u_star, lam_star = solve_vgne_kkt(replace(params, constraints=(slack,)))
        assert lam_star == 0.0
        assert np.allclose(u_star, 1.0 / 1.5)  # unconstrained symmetric solve


class TestBuiltGame:
    def test_constraint_value_and_gradient(self, quadratic_game):
        game, offsets = quadratic_game
        rng = np.random.default_rng(1)
        u = random_feasible_profile(game, rng)
        w = np.zeros(game.disturbance.dim)
        assert sample_operator(game, u, w)[2][0] == pytest.approx(float(u.sum() - 3.0))
        assert np.allclose(sample_operator(game, u, w)[1][:, 0], 1.0)

    def test_deterministic_game_zero_offset(self, quadratic_game):
        _, offsets = quadratic_game
        assert np.array_equal(offsets.offsets, np.zeros(1))

    def test_gradient_matches_finite_differences(self, quadratic_game):
        game, _ = quadratic_game
        params = quadratic_oracle_params()
        mat, vec = pseudo_gradient_matrix(params)
        rng = np.random.default_rng(2)
        u = random_feasible_profile(game, rng)
        w = np.zeros(game.disturbance.dim)
        grad = sample_operator(game, u, w)[0]
        for i, sl in enumerate(game.player_slices):
            def cost_block(block, i=i, sl=sl):
                probe = u.copy()
                probe[sl] = block
                others = probe.reshape(3, 2).sum(axis=0) - probe[sl]
                return (0.5 * probe[sl] @ probe[sl]
                        + 0.25 * probe[sl] @ others - probe[sl].sum())

            fd = central_difference(cost_block, u[sl])
            assert relative_error(grad[sl], fd) < 1e-6

    def test_noisy_state_constraint_scale(self):
        # constraint value picks up w_0 with weight 2: std = 2 * noise std
        players = (LqPlayer(input_dim=1, box_lower=-np.ones(2), box_upper=np.ones(2)),)
        cons = (LqConstraint(input_coeffs=np.zeros(2), offset=0.0, gamma=0.1,
                             state_coeffs=np.array([0.0, 2.0, 0.0])),)
        params = LqGameParams(horizon=2, state_dim=1, players=players,
                              constraints=cons, noise_std=np.array([0.5, 0.5]))
        game, offsets = build_lq_game(params)
        assert game.constraints[0].com_scale == pytest.approx(1.0)
        from ccgames.com import ComModel, h_inverse

        assert offsets.offsets[0] == pytest.approx(h_inverse(ComModel(), 0.1))

    def test_unequal_blocks_rejected(self):
        players = (LqPlayer(input_dim=1, box_lower=-np.ones(2), box_upper=np.ones(2)),
                   LqPlayer(input_dim=2, box_lower=-np.ones(4), box_upper=np.ones(4)))
        params = LqGameParams(horizon=2, state_dim=1, players=players)
        with pytest.raises(ValueError):
            build_lq_game(params)


def reference_input_grad(p, u):
    """The input-cost gradient by its former expression: (N, 1) coefficients
    broadcast over the blocks, the block sum by ``ndarray.sum``."""
    quad_self = np.array([[float(pl.quad_self)] for pl in p.players])
    quad_couple = np.array([[float(pl.quad_couple)] for pl in p.players])
    d = p.horizon * p.players[0].input_dim
    lin = np.array([np.zeros(d) if pl.linear is None
                    else np.asarray(pl.linear, dtype=float).reshape(-1) for pl in p.players])
    blocks = u.reshape(len(p.players), d)
    return (quad_self * blocks + quad_couple * (blocks.sum(axis=0) - blocks) + lin).reshape(-1)


@pytest.mark.parametrize("seed", range(12))
def test_input_grad_keeps_the_bits_of_its_former_expression(seed):
    rng = np.random.default_rng(seed)
    params = quadratic_oracle_params() if seed == 0 else random_lq_params(rng)
    if seed % 3 == 1:  # players without a linear term
        params = replace(params, players=tuple(replace(pl, linear=None)
                                               for pl in params.players))
    grad = build_lq_game(params)[0].cost_input_grad
    for _ in range(10):
        n = sum(params.horizon * pl.input_dim for pl in params.players)
        u = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 200, size=n)
        u[rng.uniform(size=n) < 0.2] = 0.0
        u[rng.uniform(size=n) < 0.2] = -0.0
        got, want = grad(u), reference_input_grad(params, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
