"""The solve path evaluates from reduced lifts: the mean trajectory and the
per-row support columns, never whole lifted batches."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccgames.game as game_mod
import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.game import (CouplingConstraintSpec, GameSpec, lift_base, operator_estimate,
                          ReducedLift, random_feasible_profile, reduce_noise, reduced_lift,
                          state_batch)
from ccgames.lqgame import build_lq_game
from ccgames.rng import iteration_stream
from ccgames.solver import (SolverConfig, batch_size, coordinator_noise, coordinator_step,
                            initial_state, step_size)

from conftest import (CONFIG_DIR, generic_copy, random_lq_params, reference_operator,
                      with_support_oracles)
from test_stacked_step import GAMES as STEP_GAMES

TOL = dict(rtol=1e-12, atol=1e-12)
MICROGRID_CONFIGS = ("microgrid_reduced.json", "microgrid_paper.json")
# games with a state-cost closure shared by a subset of players, a player
# without one, or player blocks of unequal heights
SUBSET_GAMES = ("mixed_cost_microgrid", "unequal_heights", "unequal_heights_declared",
                "wide_constraints")


def random_support_game(rng, subset):
    """A random LQ game whose callable state oracles read every column, or a
    random nonempty subset of columns that it declares."""
    game, offsets = build_lq_game(random_lq_params(rng))
    if not subset:
        return with_support_oracles(game, rng), offsets
    n = game.state_traj_dim
    support = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return with_support_oracles(game, rng, support), offsets


def assert_matches_reference(game, offsets, u, w, seed, k=3):
    f_ref, jac_ref, g_ref = reference_operator(game, u, w)
    f_hat, jac, g_raw = operator_estimate(game, lift_base(game, u), reduce_noise(game, w))
    np.testing.assert_allclose(f_hat, f_ref, **TOL)
    np.testing.assert_allclose(jac, jac_ref, **TOL)
    np.testing.assert_allclose(g_raw, g_ref, **TOL)
    # the coordinator's tightened constraint mean, on the batch it draws
    # through the sampler (the declared law's draw has no rows to rebuild)
    game = generic_copy(game)
    cfg = SolverConfig(seed=seed)
    state = replace(initial_state(game, cfg), k=k, u=u)
    _, _, g_hat = coordinator_step(state, game, offsets, cfg, step_size(cfg, k),
                                   coordinator_noise(game, iteration_stream(seed, k, 0),
                                                     batch_size(cfg, k)),
                                   lift_base(game, u))
    w0 = game.disturbance.sample(iteration_stream(seed, k, 0), batch_size(cfg, k))
    np.testing.assert_allclose(g_hat, reference_operator(game, u, w0)[2] + offsets.offsets,
                               **TOL)


class TestReducedOperator:
    @given(seed=st.integers(0, 2**32 - 1), subset=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lq_matches_per_row_reference(self, seed, subset):
        rng = np.random.default_rng(seed)
        game, offsets = random_support_game(rng, subset)
        if not subset:
            assert game.support == tuple(range(game.state_traj_dim))
        u = rng.normal(size=game.input_dim)
        assert_matches_reference(game, offsets, u, game.disturbance.sample(rng, 7), seed)

    @pytest.mark.parametrize("config", MICROGRID_CONFIGS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_microgrid_matches_per_row_reference(self, config, seed):
        game, offsets = build_game(parse_config(CONFIG_DIR / config))
        rng = np.random.default_rng(seed)
        u = random_feasible_profile(game, rng)
        assert_matches_reference(game, offsets, u, game.disturbance.sample(rng, 5), seed)

    @pytest.mark.parametrize("name", SUBSET_GAMES)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_subset_games_match_per_row_reference(self, name, seed):
        # the shared (M, s) batch goes through the evaluators that the player
        # step feeds one batch per player: no player may index it
        game, offsets = STEP_GAMES[name]()
        rng = np.random.default_rng(seed)
        u = random_feasible_profile(game, rng)
        assert_matches_reference(game, offsets, u, game.disturbance.sample(rng, 5), seed)


class TestLiftLinearity:
    @given(seed=st.integers(0, 2**32 - 1), subset=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_reduced_lift_is_the_reduction_of_the_whole_lift(self, seed, subset):
        # the lift is affine in w, so the mean of the lifted rows is the lift
        # of the mean draw, and the support rows are columns of the lifted rows
        rng = np.random.default_rng(seed)
        game, _ = random_support_game(rng, subset)
        u = rng.normal(size=game.input_dim)
        w = game.disturbance.sample(rng, int(rng.integers(1, 50)))
        base = lift_base(game, u)
        states = state_batch(game, u, w)
        whole = ReducedLift(states.mean(axis=0), states[:, game.support_index])
        lift = reduced_lift(game, reduce_noise(game, w), base)
        np.testing.assert_allclose(lift.mean, whole.mean, **TOL)
        np.testing.assert_allclose(lift.support, whole.support, **TOL)


class TestSupport:
    def test_microgrid_declares_terminal_column(self, reduced_microgrid):
        params, game, _ = reduced_microgrid
        assert game.support == (params.horizon,)
        assert game.support_noise_map_t.shape == (params.horizon, 1)
        assert all(gm.shape == (params.horizon, 1) for gm in game.support_input_maps_t)

    def test_empty_without_callable_state_oracles(self, quadratic_game):
        game, _ = quadratic_game
        assert game.support == ()
        # a declaration changes nothing when no oracle reads the trajectory
        assert replace(game, state_support=(0,)).support == ()

    def test_undeclared_support_is_every_column(self, quadratic_game):
        game, _ = quadratic_game
        con = CouplingConstraintSpec(gamma=0.3, state_value=lambda S: S.sum(axis=1),
                                     state_grad=lambda S: np.ones(S.shape))
        assert replace(game, constraints=(con,)).support == \
            tuple(range(game.state_traj_dim))

    # the reduced microgrid has 13 trajectory columns
    @pytest.mark.parametrize("support", [(13,), (-1,), (1, 0), (0, 0)])
    def test_bad_declaration_rejected(self, reduced_microgrid, support):
        _, game, _ = reduced_microgrid
        with pytest.raises(ValueError, match="state_support"):
            replace(game, state_support=support)

    def test_build_passes_the_declaration(self, reduced_microgrid):
        _, game, _ = reduced_microgrid
        rebuilt = GameSpec(game.dynamics, game.players, game.constraints,
                           game.disturbance, state_support=(2, 5))
        assert rebuilt.support == (2, 5)
        assert isinstance(rebuilt.support_index, np.ndarray)


def test_run_reads_only_support_columns(monkeypatch):
    cfg = parse_config(CONFIG_DIR / "microgrid_reduced.json")
    game, offsets = build_game(cfg)
    widths = []

    def watched(oracle):
        def read(S):
            widths.append(S.shape[1])
            return oracle(S)
        return read

    shared = watched(game.players[0].cost_state_grad)
    cons = list(game.constraints)
    for j in game.nonlinear_columns:
        c = cons[j]
        cons[j] = replace(c, state_value=watched(c.state_value),
                          state_grad=watched(c.state_grad))
    game = replace(game, players=tuple(replace(p, cost_state_grad=shared)
                                       for p in game.players),
                   constraints=tuple(cons))

    def whole_lift(*args, **kwargs):
        raise AssertionError("the solve path lifted whole trajectories")

    monkeypatch.setattr(game_mod, "state_batch", whole_lift)
    monkeypatch.setattr(game_mod, "lift_noise", whole_lift)
    solver.estimate_lipschitz(game, offsets, seed=cfg.solver.seed)
    trace = solver.run(game, offsets, replace(cfg.solver, max_iterations=3))
    assert trace.final_state.k == 3
    assert widths and set(widths) == {len(game.support)} == {1}
