"""All players step in one stacked computation.

``player_step`` calls the two evaluators of ``operator_estimate``
(``player_pseudo_gradient_mean``, and ``player_constraint_gradient_mean``
while a multiplier is positive) on the players' (N, M, s) support rows:
each oracle runs once on the rows of every player that uses it, every
player's means come from one reduction, and the averaging and the clip are
whole-profile array operations. None of that
may change a bit: every player's update must equal its own evaluation on its
own batch (``conftest.reference_player_step``, which uses no stacked code),
also for players holding distinct state-cost closures, players without one,
and blocks of unequal heights. Entities whose draws no estimate reads draw
nothing; with an empty support the players get no batch (None).
"""

from concurrent.futures import ThreadPoolExecutor
import math
from dataclasses import replace

import numpy as np
import pytest

import ccgames.game as game_mod
import ccgames.solver as solver
from ccgames.com import ComModel, UnderApproxOffsets
from ccgames.config import build_game, parse_config
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec, PlayerSpec,
                          base_trajectory, lift_base, random_feasible_profile)
from ccgames.lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from ccgames.rng import iteration_stream

from conftest import (CONFIG_DIR, assert_run_equals_reference, generic_copy,
                      hook_player_streams, hook_tables, random_lq_params,
                      reference_base_trajectory, reference_lipschitz, reference_player_step,
                      serial_reference_run, with_support_oracles)

LQ_SEEDS = range(6)
LIFT_LQ_SEEDS = range(12)  # the LQ seeds of test_two_lane


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


def sampler_microgrid():
    """The reduced microgrid drawn through its sampler, not its declared law."""
    game, offsets = config_game("microgrid_reduced.json")
    return generic_copy(game), offsets


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
    game = GameSpec(dyn, players, cons, dist, state_support=state_support,
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
    "microgrid_reduced_sampler": sampler_microgrid,
    "quadratic_oracle": lambda: config_game("quadratic_oracle.json"),
    "mixed_cost_microgrid": mixed_cost_microgrid,
    "unequal_heights": unequal_height_game,
    "unequal_heights_declared": lambda: unequal_height_game(state_support=(1, 4, 5)),
    "wide_constraints": wide_constraint_game,
    **{f"lq_support_oracles_{s}": (lambda s=s: lq_support_game(s)) for s in LQ_SEEDS},
}


def step_config(**kw):
    return replace(solver.SolverConfig(delta=0.7, step_a0=0.5, step_offset=2.0,
                                       residual_batch=50, seed=3), **kw)


def random_state(game, rng, k):
    return solver.SolverState(
        k, random_feasible_profile(game, rng), random_feasible_profile(game, rng),
        rng.uniform(0.0, 2.0, size=game.constraint_count),
        rng.uniform(0.0, 2.0, size=game.constraint_count))


@pytest.mark.parametrize("name", GAMES)
def test_player_step_equals_per_player_reference(name):
    game, _ = GAMES[name]()
    cfg = step_config()
    rng = np.random.default_rng(7)
    for k, m in ((0, 1), (5, 7), (40, 300)):
        state = random_state(game, rng, k)
        base = lift_base(game, state.u)
        table = solver.iteration_table(game, cfg.seed, k, k + 1)
        with ThreadPoolExecutor(1) as lane:
            noise = solver.draw_noise(game, table, k, m,
                                      np.empty(game.n_players * m * len(game.support)), lane)[1]
        if game.support:
            assert noise.shape == (game.n_players, m, len(game.support))
            traj = reference_base_trajectory(game, state.u)
            rows = [n + traj[list(game.support)] for n in noise]
        else:  # no player draws: no batch, and the reference reads no rows
            assert noise is None
            rows = [np.empty((m, 0))] * game.n_players
        u_avg, u_next = solver.player_step(state, game, cfg, solver.step_size(cfg, k), noise,
                                           base)
        ref_avg, ref_next = reference_player_step(game, state, cfg, rows)
        assert np.array_equal(u_avg, ref_avg)
        assert np.array_equal(u_next, ref_next)
        if game.support:  # the noise now holds the support rows
            assert np.array_equal(noise, np.reshape(rows, noise.shape))


def counted_jacobians(monkeypatch, game):
    """(copy of ``game`` whose closure ``state_grad``s log "state_grad" to a
    list, the list): each ``player_constraint_gradient_mean`` call logs
    "jacobian" to it too, the solver's and ``operator_estimate``'s alike."""
    calls, evaluator = [], game_mod.player_constraint_gradient_mean

    def watched(grad):
        def counted(rows):
            calls.append("state_grad")
            return grad(rows)
        return counted

    def jacobian(*args):
        calls.append("jacobian")
        return evaluator(*args)

    monkeypatch.setattr(game_mod, "player_constraint_gradient_mean", jacobian)
    cons = tuple(c if c.state_grad is None else replace(c, state_grad=watched(c.state_grad))
                 for c in game.constraints)
    return replace(game, constraints=cons), calls


@pytest.mark.parametrize("positive", [None, 0, -1], ids=["zero", "first-only", "last-only"])
@pytest.mark.parametrize("name", ["microgrid_reduced", "microgrid_paper",
                                  "microgrid_reduced_sampler"])
def test_jacobian_formed_only_for_a_positive_multiplier(monkeypatch, name, positive):
    # the residual, the extended operator and the player step against the full
    # formula F_hat + Jac lam, Jac from the evaluators: at lam = 0 no Jacobian
    # is estimated and no closure gradient runs, yet every bit is the formula's;
    # one positive entry, affine (first) or the terminal closure (last), forms
    # the whole Jacobian once per call, as before
    game, offsets = GAMES[name]()
    assert game.nonlinear_columns
    cfg, k, m = step_config(), 5, 40
    rng = np.random.default_rng(23)
    state = replace(random_state(game, rng, k), lam=np.zeros(game.constraint_count))
    if positive is not None:
        state.lam[positive] = 0.75
    alpha, base = solver.step_size(cfg, k), lift_base(game, state.u)
    res_noise = solver.residual_noise(game, cfg, cfg.seed)
    table = solver.iteration_table(game, cfg.seed, k, k + 1)
    buffer = np.empty(game.n_players * m * len(game.support))
    with ThreadPoolExecutor(1) as lane:
        rows = solver.draw_noise(game, table, k, m, buffer, lane)[1]
    watched, calls = counted_jacobians(monkeypatch, game)
    field_u, field_lam = solver.extended_operator(watched, offsets, base, res_noise, state.lam)
    residual = solver.residual_estimate(state, watched, offsets, alpha, res_noise, base)
    u_avg, u_next = solver.player_step(state, watched, cfg, alpha, rows, base)  # rows += base
    formed = 0 if positive is None else 3
    assert calls.count("jacobian") == formed
    assert calls.count("state_grad") == formed * len(game.nonlinear_columns)
    monkeypatch.undo()

    f_hat, jac, g_raw = game_mod.operator_estimate(game, base, res_noise)
    want_u, want_lam = f_hat + jac @ state.lam, g_raw + offsets.offsets
    assert field_u.tobytes() == want_u.tobytes()
    assert field_lam.tobytes() == want_lam.tobytes()
    u_step = game_mod.project_local(game, state.u - alpha * want_u)
    lam_step = np.maximum(state.lam + alpha * want_lam, 0.0)
    assert residual == math.hypot(np.linalg.norm(state.u - u_step),
                                  np.linalg.norm(state.lam - lam_step))
    f = game_mod.player_pseudo_gradient_mean(game, base, rows)
    jac = game_mod.player_constraint_gradient_mean(game, rows)
    want_avg = (1.0 - cfg.delta) * state.u + cfg.delta * state.u_avg_prev
    want_next = game_mod.project_local(
        game, want_avg - alpha * (f + game_mod.blockwise(game, jac, state.lam)))
    assert u_avg.tobytes() == want_avg.tobytes()
    assert u_next.tobytes() == want_next.tobytes()


@pytest.mark.parametrize("name", GAMES)
def test_run_equals_per_player_reference(name):
    game, offsets = GAMES[name]()
    cfg = step_config(max_iterations=4, residual_tolerance=0.0)
    initial = solver.initial_state(game, cfg)
    trace = solver.run(game, offsets, cfg, initial=initial)
    assert trace.termination_reason == solver.TERMINATION_BUDGET
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, cfg, initial))


LIFT_GAMES = {
    **{name: (lambda name=name: config_game(name + ".json")[0])
       for name in ("microgrid_reduced", "microgrid_paper", "quadratic_oracle")},
    "unequal_heights": lambda: unequal_height_game()[0],
    **{f"lq_{s}": (lambda s=s: lq_support_game(s)[0]) for s in LIFT_LQ_SEEDS},
}


@pytest.mark.parametrize("name", LIFT_GAMES)
def test_base_trajectory_equals_per_player_sum(name):
    # the stacked maps and the tuple of unequal heights, against a loop that
    # adds one player's product at a time; bytes, so signed zeros count too
    game = LIFT_GAMES[name]()
    rng = np.random.default_rng(17)
    for u in (np.zeros(game.input_dim), random_feasible_profile(game, rng),
              rng.normal(scale=1e3, size=game.input_dim)):
        assert base_trajectory(game, u).tobytes() == reference_base_trajectory(game, u).tobytes()


def test_lift_games_cover_both_layouts():
    heights = [LIFT_GAMES[name]().block_height for name in ("microgrid_paper", "unequal_heights")]
    assert heights[0] is not None and heights[1] is None


def counted_draws(monkeypatch, game):
    """(game with a counting sampler, list of rows per sampler call, list of
    (seed, k, entity) per iteration stream the solver creates, list of the
    (seed, k0, rows, entities) of each iteration table it builds)."""
    rows, streams, tables = [], [], []

    def sample(rng, n):
        rows.append(n)
        return game.disturbance.sample(rng, n)

    def stream(seed, k, entity):
        streams.append((seed, k, entity))
        return iteration_stream(seed, k, entity)

    def made(seed, k, entity, rng):
        streams.append((seed, k, entity))
        return rng

    monkeypatch.setattr(solver, "iteration_stream", stream)
    hook_tables(monkeypatch, made, tables)
    counted = replace(game, disturbance=replace(game.disturbance, sample=sample))
    return counted, rows, streams, tables


def test_oracle_run_makes_no_iteration_draws(monkeypatch):
    # no oracle reads a trajectory: neither a player nor the coordinator draws
    cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
    game, offsets = build_game(cfg)
    assert game.support == () and game.state_map is None and not game.nonlinear_columns
    scfg = replace(cfg.solver, max_iterations=60, residual_tolerance=0.0)
    initial = solver.initial_state(game, scfg)
    counted, rows, streams, tables = counted_draws(monkeypatch, game)
    trace = solver.run(counted, offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert streams == [] and tables == []
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
    counted, rows, streams, tables = counted_draws(monkeypatch, game)
    trace = solver.run(counted, offsets, cfg, initial=initial)
    monkeypatch.undo()
    assert streams == [(cfg.seed, k, 0) for k in range(cfg.max_iterations + 1)]
    assert tables == [(cfg.seed, 0, cfg.max_iterations, 1)]  # the coordinator's column alone
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, cfg, initial))


def test_nan_drawn_for_one_player_names_only_that_player(monkeypatch):
    # a NaN written into player 2's standard normals, drawn from the declared
    # law and through the sampler of a generic copy
    declared, offsets = config_game("microgrid_reduced.json")

    def poison(rows):
        rows[-1, 0] = np.nan

    for nan_game in (declared, generic_copy(declared)):
        hook_player_streams(monkeypatch, poison, players={2})
        trace = solver.run(nan_game, offsets, step_config(max_iterations=5))
        monkeypatch.undo()
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == 1
        assert solver.non_finite_updates(nan_game, trace.final_state) == \
            ["player 2 strategy update"]


# estimate_lipschitz of each shipped config at its own seed and at seed 1
SHIPPED_PROBE = {
    "quadratic_oracle": ("0x1.30e9ee78f2f9dp+1", "0x1.525d7789742ebp+1"),
    "microgrid_reduced": ("0x1.26673fc293ee2p+7", "0x1.23401763fb2f5p+7"),
    "microgrid_paper": ("0x1.3811fe4521564p+7", "0x1.38af2d116cf25p+7"),
}


@pytest.mark.parametrize("name", SHIPPED_PROBE)
def test_shipped_lipschitz_bits(name):
    cfg = parse_config(CONFIG_DIR / f"{name}.json")
    game, offsets = build_game(cfg)
    for seed, expected in zip((cfg.solver.seed, 1), SHIPPED_PROBE[name]):
        assert solver.estimate_lipschitz(game, offsets, seed).hex() == expected
    for seed in (cfg.solver.seed, 1, 2, 3):
        assert solver.estimate_lipschitz(game, offsets, seed).hex() \
            == reference_lipschitz(game, offsets, seed).hex()


def lq_game(seed, sampler=False):
    """A random LQ game with coefficient constraints, an input map and no
    support; with ``sampler``, its disturbance drawn only through a sampler."""
    game, offsets = build_lq_game(random_lq_params(np.random.default_rng(seed)))
    return (generic_copy(game) if sampler else game), offsets


PROBE_GAMES = {**GAMES, **{f"lq_{s}": (lambda s=s: lq_game(s)) for s in LQ_SEEDS},
               **{f"lq_sampler_{s}": (lambda s=s: lq_game(s, sampler=True)) for s in LQ_SEEDS}}


@pytest.mark.parametrize("name", PROBE_GAMES)
def test_lipschitz_equals_per_pair_reference(name):
    # every layout (unequal heights, a declared support, a sampler, no support)
    game, offsets = PROBE_GAMES[name]()
    for seed in (1, 2, 3):
        assert solver.estimate_lipschitz(game, offsets, seed).hex() \
            == reference_lipschitz(game, offsets, seed).hex()


@pytest.mark.parametrize("name, sampled", [("microgrid_reduced", False),
                                           ("microgrid_reduced_sampler", True),
                                           ("quadratic_oracle", None)])
def test_probe_draws_only_what_it_reads(monkeypatch, name, sampled):
    # one batch per pair: from a declared law with no sampler call, through
    # the sampler otherwise, and none when no estimate reads the trajectory
    game, offsets = GAMES[name]()
    counted, rows, _, _ = counted_draws(monkeypatch, game)
    batches, draw = [], solver.batch_noise

    def batch_noise(game, rng, m):
        batches.append(m)
        return draw(game, rng, m)

    monkeypatch.setattr(solver, "batch_noise", batch_noise)
    solver.estimate_lipschitz(counted, offsets, 1)
    pairs = 0 if sampled is None else solver.LIPSCHITZ_PAIRS
    assert batches == [solver.LIPSCHITZ_BATCH] * pairs
    assert rows == (batches if sampled else [])
