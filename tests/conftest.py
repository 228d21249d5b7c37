import json
from pathlib import Path

import numpy as np
import pytest

from ccgames import MicrogridParams, build_microgrid_game
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def random_dynamics(rng, n_s=None, n_players=None, horizon=None):
    """A random stable-ish time-varying system for lift/simulate cross-checks."""
    n_s = n_s or rng.integers(1, 5)
    n_players = n_players or rng.integers(1, 5)
    horizon = horizon or rng.integers(1, 11)
    a = rng.normal(scale=0.7, size=(horizon, n_s, n_s))
    b = tuple(rng.normal(size=(horizon, n_s, rng.integers(1, 3)))
              for _ in range(n_players))
    s0 = rng.normal(size=n_s)
    return TimeVaryingLinearDynamics(a_mats=a, b_mats=b, s0=s0)


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for idx in range(x.size):
        step = np.zeros_like(x)
        step[idx] = h
        g[idx] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def relative_error(approx, exact):
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    return float(np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact)))


def quadratic_oracle_params():
    """The shipped closed-form test game, rebuilt from its config file."""
    doc = json.loads((CONFIG_DIR / "quadratic_oracle.json").read_text())
    g = doc["game"]
    players = tuple(LqPlayer(
        input_dim=p["input_dim"], box_lower=np.array(p["box_lower"]),
        box_upper=np.array(p["box_upper"]), quad_self=p["quad_self"],
        quad_couple=p["quad_couple"], linear=np.array(p["linear"]))
        for p in g["players"])
    cons = tuple(LqConstraint(
        input_coeffs=np.array(c["input_coeffs"]), offset=c["offset"],
        gamma=c["gamma"]) for c in g["constraints"])
    return LqGameParams(horizon=g["horizon"], state_dim=g["state_dim"],
                        initial_state=np.array(g["initial_state"]),
                        players=players, constraints=cons)


@pytest.fixture(scope="session")
def quadratic_game():
    return build_lq_game(quadratic_oracle_params())


@pytest.fixture(scope="session")
def reduced_microgrid():
    params = MicrogridParams(n_households=5, horizon=12, delta_t=2.0)
    game, offsets = build_microgrid_game(params)
    return params, game, offsets


def _embed_support(game, support_values):
    """A support-column gradient written into a whole-trajectory vector."""
    full = np.zeros(game.state_traj_dim)
    full[list(game.support)] = support_values
    return full


def reference_support_map(game, i):
    """Player i's (T n_i, len(support)) map of support gradients,
    ``input_maps[i][support].T``, from the lift alone."""
    return game.lift.input_maps[i][list(game.support)].T


def reference_jacobian_block(game, i, rows):
    """Player i's constraint-Jacobian block evaluated one constraint at a time.

    Independent of the cached constant Jacobian and the stacked support
    maps: column j is built from constraint j's own fields, its
    ``state_coeffs`` mapped through the player's input map, then its
    ``input_coeffs`` block, then the batch mean of ``state_grad`` on the
    support ``rows`` (M, len(support)) mapped by ``reference_support_map``.
    """
    sl = game.player_slices[i]
    out = np.zeros((sl.stop - sl.start, len(game.constraints)))
    gm_t = game.lift.input_maps[i].T
    for j, c in enumerate(game.constraints):
        if c.state_coeffs is not None:
            out[:, j] += gm_t @ c.state_coeffs
        if c.input_coeffs is not None:
            out[:, j] += c.input_coeffs[sl]
        if c.state_grad is not None:
            out[:, j] += reference_support_map(game, i) @ c.state_grad(rows).mean(axis=0)
    return out


def reference_pseudo_gradient_block(game, i, u, rows):
    """Player i's pseudo-gradient mean evaluated alone: its block of the
    game's input-cost gradient plus the batch mean of its own
    ``cost_state_grad`` on the support ``rows``, mapped by
    ``reference_support_map``."""
    sl = game.player_slices[i]
    out = np.zeros(sl.stop - sl.start)
    if game.cost_input_grad is not None:
        out = out + game.cost_input_grad(np.asarray(u, dtype=float))[sl]
    grad = game.players[i].cost_state_grad
    if grad is not None:
        out = out + reference_support_map(game, i) @ grad(rows).mean(axis=0)
    return out


def reference_player_step(game, state, cfg, rows):
    """(u_avg, u_next) of every player's strategy update, one player at a
    time on its own support rows ``rows[i]`` (M, len(support)), with no
    stacked evaluation: each player's gradient and Jacobian block from the
    references above, its averaging, forward step and clip to its own box."""
    from ccgames.solver import step_size

    alpha = step_size(cfg, state.k)
    u_avg, u_next = [], []
    for i, (p, sl) in enumerate(zip(game.players, game.player_slices)):
        f_i = reference_pseudo_gradient_block(game, i, state.u, rows[i])
        jac_i = reference_jacobian_block(game, i, rows[i])
        avg = (1.0 - cfg.delta) * state.u[sl] + cfg.delta * state.u_avg_prev[sl]
        u_avg.append(avg)
        u_next.append(np.clip(avg - alpha * (f_i + jac_i @ state.lam), p.box_lower, p.box_upper))
    return np.concatenate(u_avg), np.concatenate(u_next)


def reference_project_local(game, u):
    """Each player's block clipped to its own box, one player at a time."""
    out = np.array(u, dtype=float)
    for p, sl in zip(game.players, game.player_slices):
        out[sl] = np.clip(out[sl], p.box_lower, p.box_upper)
    return out


def reference_random_profile(game, rng):
    """One uniform draw from each player's own box, in player order."""
    return np.concatenate([rng.uniform(p.box_lower, p.box_upper) for p in game.players])


def reference_constraint_values(game, u, states):
    """Raw constraint values evaluated one constraint at a time.

    Independent of the stacked maps: value j is ``states @ state_coeffs``,
    plus ``u @ input_coeffs + offset``, plus ``state_value`` on the support
    columns, each from constraint j's own fields.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    out = np.zeros((states.shape[0], len(game.constraints)))
    rows = states[:, list(game.support)]
    for j, c in enumerate(game.constraints):
        if c.state_coeffs is not None:
            out[:, j] += states @ c.state_coeffs
        out[:, j] += c.offset if c.input_coeffs is None else u @ c.input_coeffs + c.offset
        if c.state_value is not None:
            out[:, j] += c.state_value(rows)
    return out


def reference_operator(game, u, w):
    """(F, Jac, G_raw) batch means at u, one draw at a time on whole trajectories.

    Each row's trajectory is stepped through the dynamics (``simulate_state``,
    not the lift); every oracle is evaluated on that row alone, and the
    per-row results are averaged at the end.
    """
    from ccgames.dynamics import simulate_state

    u = np.asarray(u, dtype=float).reshape(-1)
    rows_f, rows_j, rows_g = [], [], []
    for w_r in np.atleast_2d(w):
        s = simulate_state(game.dynamics, u, w_r)[None, :]
        f = []
        for i, p in enumerate(game.players):
            block = np.zeros(game.player_slices[i].stop - game.player_slices[i].start)
            if game.cost_input_grad is not None:
                block += game.cost_input_grad(u)[game.player_slices[i]]
            if p.cost_state_grad is not None:
                g = np.asarray(p.cost_state_grad(s[:, list(game.support)]), dtype=float)
                block += game.lift.input_maps[i].T @ _embed_support(game, g.reshape(-1))
            f.append(block)
        rows_f.append(np.concatenate(f))
        rows_j.append(np.vstack([reference_jacobian_block(game, i, s[:, list(game.support)])
                                 for i in range(game.n_players)]))
        rows_g.append(reference_constraint_values(game, u, s)[0])
    return (np.mean(rows_f, axis=0), np.mean(rows_j, axis=0), np.mean(rows_g, axis=0))


def random_lq_params(rng):
    """A random LQ game with input maps, state noise and state-coupled constraints."""
    T = int(rng.integers(1, 5))
    n_s = int(rng.integers(1, 3))
    n_players = int(rng.integers(1, 4))
    n_in = int(rng.integers(1, 3))
    d = T * n_in
    players = tuple(LqPlayer(
        input_dim=n_in, box_lower=-np.ones(d), box_upper=np.ones(d),
        quad_self=1.0 + float(rng.uniform()), quad_couple=float(rng.uniform(-0.3, 0.3)),
        linear=rng.normal(size=d)) for _ in range(n_players))
    sdim = (T + 1) * n_s
    cons = tuple(LqConstraint(
        input_coeffs=rng.normal(size=n_players * d), offset=float(rng.normal()),
        gamma=0.2, state_coeffs=rng.normal(size=sdim) if rng.uniform() < 0.8 else None)
        for _ in range(int(rng.integers(1, 5))))
    return LqGameParams(
        horizon=T, state_dim=n_s, initial_state=rng.normal(size=n_s),
        a_mats=rng.normal(scale=0.7, size=(T, n_s, n_s)),
        b_mats=tuple(rng.normal(size=(T, n_s, n_in)) for _ in range(n_players)),
        players=players, constraints=cons,
        noise_std=rng.uniform(0.1, 1.0, size=T * n_s))


def with_support_oracles(game, rng, support=None):
    """The same game with nonlinear callable state oracles that read only
    ``support`` (default: every column, left undeclared).

    Every player gets a state cost with gradient ``weights * tanh(S)``, and
    each state-coupled constraint with probability 1/2 trades its
    ``state_coeffs`` for the value ``|S| @ rho`` with gradient
    ``sign(S) * rho`` on the support columns.
    """
    from dataclasses import replace

    cols = list(range(game.state_traj_dim)) if support is None else list(support)
    players = tuple(
        replace(p, cost_state_grad=lambda S, wt=rng.uniform(0.5, 1.5, len(cols)):
                wt * np.tanh(S))
        for p in game.players)
    cons = []
    for c in game.constraints:
        if c.state_coeffs is not None and rng.uniform() < 0.5:
            rho = c.state_coeffs[cols]
            c = replace(c, state_coeffs=None, state_value=lambda S, r=rho: np.abs(S) @ r,
                        state_grad=lambda S, r=rho: np.sign(S) * r)
        cons.append(c)
    return replace(game, players=players, constraints=tuple(cons),
                   state_support=None if support is None else tuple(cols))


def serial_reference_run(game, offsets, cfg, initial):
    """``solver.run`` from ``initial`` to the budget ``cfg.max_iterations``,
    with every entity's batch drawn whole, in entity order, on this thread.

    Each entity draws from its ``iteration_stream`` and ``reduce_noise``
    reduces the whole draw: the coordinator steps on it, and the players
    step one at a time on their support rows (``reference_player_step``,
    not the stacked ``player_step``). Returns the final state and, per
    record, a dict of every ``IterationRecord`` field but ``wall_ms`` (for
    a config without snapshots, so ``strategies`` is None). No divergence
    or non-finite stop.
    """
    from ccgames import solver
    from ccgames.game import lift_base, reduce_noise
    from ccgames.rng import iteration_stream

    state, records = initial, []
    noise_res = solver.residual_noise(game, cfg, state.seed)
    while True:
        k, m = state.k, solver.batch_size(cfg, state.k)
        base = lift_base(game, state.u)
        noise = [reduce_noise(game, game.disturbance.sample(iteration_stream(state.seed, k, e), m))
                 for e in range(1 + game.n_players)]
        lam_avg, lam_next, g_hat = solver.coordinator_step(state, game, offsets, cfg,
                                                           noise[0], base)
        records.append(dict(
            k=k, residual=solver.residual_estimate(state, game, offsets, cfg, noise_res, base),
            g_hat_max=float(g_hat.max()) if g_hat.size else 0.0,
            g_hat_norm=float(np.linalg.norm(g_hat)), lam=state.lam.copy(),
            alpha=solver.step_size(cfg, k), batch=m, strategies=None))
        if k >= cfg.max_iterations:
            return state, records
        rows = [n.support + base[list(game.support)] for n in noise[1:]]
        u_avg, u_next = reference_player_step(game, state, cfg, rows)
        state = solver.SolverState(k + 1, u_next, u_avg, lam_next, lam_avg, state.seed)


def assert_run_equals_reference(trace, reference):
    """``trace`` of ``solver.run`` equals ``serial_reference_run``'s (final
    state, records) bit for bit, in every record field but ``wall_ms``."""
    from dataclasses import fields

    from ccgames.solver import IterationRecord

    state, records = reference
    final = trace.final_state
    assert (final.k, final.seed) == (state.k, state.seed)
    for name in ("u", "u_avg_prev", "lam", "lam_avg_prev"):
        assert np.array_equal(getattr(final, name), getattr(state, name)), name
    assert len(trace.records) == len(records)
    names = [f.name for f in fields(IterationRecord) if f.name != "wall_ms"]
    for record, expected in zip(trace.records, records):
        assert sorted(names) == sorted(expected)
        for name in names:
            got, want = getattr(record, name), expected[name]
            assert (got is None and want is None) or np.array_equal(got, want), name
