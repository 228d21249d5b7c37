"""All players step in one stacked computation.

``player_step`` evaluates each oracle once on the rows of every player that
uses it, takes every player's means in one reduction and forms the
pseudo-gradient, the Jacobian, the averaging and the clip as whole-profile
array operations. None of that may change a bit: every player's update must
equal its own evaluation on its own batch (``conftest.reference_player_step``,
which uses no stacked code), also for players holding distinct state-cost
closures, players without one, and blocks of unequal heights. Entities whose
draws no estimate reads draw nothing.
"""

from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.com import ComModel, UnderApproxOffsets
from ccgames.config import build_game, parse_config
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec, PlayerSpec,
                          lift_base, random_feasible_profile)
from ccgames.lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from ccgames.rng import iteration_stream

from conftest import (CONFIG_DIR, assert_run_equals_reference, random_lq_params,
                      reference_player_step, serial_reference_run, with_support_oracles)

LQ_SEEDS = range(6)


def config_game(name):
    return build_game(parse_config(CONFIG_DIR / name))


def mixed_cost_microgrid():
    """The reduced microgrid whose households hold the shared terminal-cost
    gradient (0 and 3), none (1), or one of their own (2 and 4)."""
    game, offsets = config_game("microgrid_reduced.json")
    shared = game.players[0].cost_state_grad
    grads = (shared, None, lambda S: 3.0 * np.tanh(S - 0.5), shared, lambda S: S * S)
    players = tuple(replace(p, cost_state_grad=g) for p, g in zip(game.players, grads))
    return replace(game, players=players), offsets


def unequal_height_game(state_support=None):
    """Four players with 1, 2, 1 and 2 inputs per step: a state cost shared by
    players 0 and 2, one of player 1's own, none for player 3; a coefficient
    constraint and a closure pair."""
    rng = np.random.default_rng(41)
    T, n_s, dims = 3, 2, (1, 2, 1, 2)
    dyn = TimeVaryingLinearDynamics(
        a_mats=rng.normal(scale=0.7, size=(T, n_s, n_s)),
        b_mats=tuple(rng.normal(size=(T, n_s, d)) for d in dims), s0=rng.normal(size=n_s))
    shared = np.tanh
    players = [PlayerSpec(input_dim=d, box_lower=-np.ones(T * d), box_upper=np.ones(T * d),
                          cost_state_grad=g)
               for d, g in zip(dims, (shared, lambda S: 0.5 * S, shared, None))]
    sdim = (T + 1) * n_s
    width = sdim if state_support is None else len(state_support)
    rho = rng.uniform(0.2, 1.0, size=width)
    cons = (
        CouplingConstraintSpec(gamma=0.2, state_coeffs=rng.normal(size=sdim),
                               input_coeffs=rng.normal(size=T * sum(dims)), offset=-0.5),
        CouplingConstraintSpec(gamma=0.2, state_value=lambda S: np.abs(S) @ rho,
                               state_grad=lambda S: np.sign(S) * rho),
    )
    dist = DisturbanceModel(dim=T * n_s, sample=lambda r, n: r.standard_normal((n, T * n_s)),
                            com_model=ComModel())
    game = GameSpec.build(dyn, players, cons, dist, state_support=state_support,
                          cost_input_grad=lambda u: 0.3 * u + 0.1)
    assert game.block_height is None
    return game, UnderApproxOffsets.from_game(game)


def wide_constraint_game():
    """Blocks of height 3 against 25 constraints: a shape at which one product
    of the whole stacked Jacobian with the multiplier rounds differently from
    one product per block."""
    rng = np.random.default_rng(5)
    T, N, m = 3, 4, 25
    players = tuple(LqPlayer(input_dim=1, box_lower=-np.ones(T), box_upper=np.ones(T),
                             quad_self=1.5, quad_couple=0.1, linear=rng.normal(size=T))
                    for _ in range(N))
    cons = tuple(LqConstraint(input_coeffs=rng.normal(size=N * T), offset=float(rng.normal()),
                              gamma=0.2, state_coeffs=rng.normal(size=T + 1)) for _ in range(m))
    game, offsets = build_lq_game(LqGameParams(
        horizon=T, initial_state=rng.normal(size=1),
        a_mats=rng.normal(scale=0.7, size=(T, 1, 1)),
        b_mats=tuple(rng.normal(size=(T, 1, 1)) for _ in range(N)), players=players,
        constraints=cons, noise_std=rng.uniform(0.1, 1.0, size=T)))
    return with_support_oracles(game, rng), offsets


def lq_support_game(seed):
    rng = np.random.default_rng(seed)
    game, offsets = build_lq_game(random_lq_params(rng))
    return with_support_oracles(game, rng), offsets


GAMES = {
    "microgrid_reduced": lambda: config_game("microgrid_reduced.json"),
    "microgrid_paper": lambda: config_game("microgrid_paper.json"),
    "quadratic_oracle": lambda: config_game("quadratic_oracle.json"),
    "mixed_cost_microgrid": mixed_cost_microgrid,
    "unequal_heights": unequal_height_game,
    "unequal_heights_declared": lambda: unequal_height_game(state_support=(1, 4, 5)),
    "wide_constraints": wide_constraint_game,
    **{f"lq_support_oracles_{s}": (lambda s=s: lq_support_game(s)) for s in LQ_SEEDS},
}


def step_config(**kw):
    return replace(solver.SolverConfig(delta=0.7, step=solver.StepSchedule(a0=0.5, offset=2.0),
                                       residual_batch=50, seed=3), **kw)


def random_state(game, rng, k):
    return solver.SolverState(
        k, random_feasible_profile(game, rng), random_feasible_profile(game, rng),
        rng.uniform(0.0, 2.0, size=game.constraint_count),
        rng.uniform(0.0, 2.0, size=game.constraint_count), seed=3)


@pytest.mark.parametrize("name", GAMES)
def test_player_step_equals_per_player_reference(name):
    game, _ = GAMES[name]()
    cfg = step_config()
    rng = np.random.default_rng(7)
    for k, m in ((0, 1), (5, 7), (40, 300)):
        state = random_state(game, rng, k)
        base = lift_base(game, state.u)
        noise = solver.draw_noise(game, cfg.seed, k, m)[1]
        assert noise.shape == (game.n_players, m, len(game.support))
        rows = [n + base[list(game.support)] for n in noise]
        u_avg, u_next = solver.player_step(state, game, cfg, noise, base)
        ref_avg, ref_next = reference_player_step(game, state, cfg, rows)
        assert np.array_equal(u_avg, ref_avg)
        assert np.array_equal(u_next, ref_next)
        # the noise now holds the support rows
        assert np.array_equal(noise, np.reshape(rows, noise.shape))


@pytest.mark.parametrize("name", GAMES)
def test_run_equals_per_player_reference(name):
    game, offsets = GAMES[name]()
    cfg = step_config(max_iterations=4, residual_tolerance=0.0)
    initial = solver.initial_state(game, cfg)
    trace = solver.run(game, offsets, cfg, initial=initial)
    assert trace.termination_reason == solver.TERMINATION_BUDGET
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, cfg, initial))


def counted_draws(monkeypatch, game):
    """(game with a counting sampler, list of rows per sampler call, list of
    (seed, k, entity) per iteration stream the solver creates)."""
    rows, streams = [], []

    def sample(rng, n):
        rows.append(n)
        return game.disturbance.sample(rng, n)

    def stream(seed, k, entity):
        streams.append((seed, k, entity))
        return iteration_stream(seed, k, entity)

    monkeypatch.setattr(solver, "iteration_stream", stream)
    return replace(game, disturbance=replace(game.disturbance, sample=sample)), rows, streams


def test_oracle_run_makes_no_iteration_draws(monkeypatch):
    # no oracle reads a trajectory: neither a player nor the coordinator draws
    cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
    game, offsets = build_game(cfg)
    assert game.support == () and game.state_map is None and not game.nonlinear_columns
    scfg = replace(cfg.solver, max_iterations=60, residual_tolerance=0.0)
    initial = solver.initial_state(game, scfg)
    counted, rows, streams = counted_draws(monkeypatch, game)
    trace = solver.run(counted, offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert streams == []
    assert rows == [scfg.residual_batch]  # the run's residual batch alone
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, scfg, initial))


def test_players_without_support_draw_nothing(monkeypatch):
    # state coefficients: the coordinator's mean is read, no player's rows are
    rng = np.random.default_rng(2)
    game, offsets = build_lq_game(random_lq_params(rng))
    while game.state_map is None:
        game, offsets = build_lq_game(random_lq_params(rng))
    assert game.support == ()
    cfg = step_config(max_iterations=5, residual_tolerance=0.0)
    initial = solver.initial_state(game, cfg)
    counted, rows, streams = counted_draws(monkeypatch, game)
    trace = solver.run(counted, offsets, cfg, initial=initial)
    monkeypatch.undo()
    assert streams == [(cfg.seed, k, 0) for k in range(cfg.max_iterations + 1)]
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, cfg, initial))


def test_nan_drawn_for_one_player_names_only_that_player(monkeypatch):
    game, offsets = config_game("microgrid_reduced.json")
    poisoned = []  # player 2's generators (entity 3), kept alive so `is` holds

    def stream(seed, k, entity):
        rng = iteration_stream(seed, k, entity)
        if entity == 3:
            poisoned.append(rng)
        return rng

    def sample(rng, n):
        w = game.disturbance.sample(rng, n)
        if any(rng is p for p in poisoned):
            w[-1, 0] = np.nan
        return w

    monkeypatch.setattr(solver, "iteration_stream", stream)
    nan_game = replace(game, disturbance=replace(game.disturbance, sample=sample))
    trace = solver.run(nan_game, offsets, step_config(max_iterations=5))
    assert trace.termination_reason == solver.TERMINATION_NON_FINITE
    assert trace.final_state.k == 1
    assert solver.non_finite_updates(game, trace.final_state) == ["player 2 strategy update"]
