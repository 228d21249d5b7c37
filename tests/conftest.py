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


def reference_jacobian_block(game, i, u, states):
    """Player i's constraint-Jacobian block evaluated one constraint at a time.

    Independent of the cached constant blocks and the support input maps:
    every gradient, constant array or callable, is evaluated and averaged per
    column, state part first; a callable one on the support columns of
    ``states``, written back into a whole-trajectory gradient.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    sl = game.player_slices[i]
    out = np.zeros((sl.stop - sl.start, len(game.constraints)))
    gm_t = game.lift.input_maps[i].T
    for j, c in enumerate(game.constraints):
        if callable(c.state_grad):
            g = np.asarray(c.state_grad(states[:, list(game.support)]), dtype=float)
            out[:, j] += gm_t @ _embed_support(game, g if g.ndim == 1 else g.mean(axis=0))
        elif c.state_grad is not None:
            out[:, j] += gm_t @ c.state_grad
        if c.input_grad is not None:
            a = c.input_grad(u) if callable(c.input_grad) else c.input_grad
            out[:, j] += np.asarray(a, dtype=float)[sl]
    return out


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
    """Raw constraint values evaluated one value closure at a time.

    Independent of the stacked affine map: every ``state_value`` and
    ``input_value`` is called, state part first; an affine one (constant
    ``state_grad``) on whole trajectories, the others on the support columns.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    out = np.zeros((states.shape[0], len(game.constraints)))
    rows = states[:, list(game.support)]
    for j, c in enumerate(game.constraints):
        if c.state_value is not None:
            affine = isinstance(c.state_grad, np.ndarray)
            out[:, j] += np.asarray(c.state_value(states if affine else rows), dtype=float)
        if c.input_value is not None:
            out[:, j] += float(c.input_value(u))
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
            if p.cost_input_grad is not None:
                block += p.cost_input_grad(u)
            if p.cost_state_grad is not None:
                g = np.asarray(p.cost_state_grad(s[:, list(game.support)]), dtype=float)
                block += game.lift.input_maps[i].T @ _embed_support(game, g.reshape(-1))
            f.append(block)
        rows_f.append(np.concatenate(f))
        rows_j.append(np.vstack([reference_jacobian_block(game, i, u, s)
                                 for i in range(game.n_players)]))
        rows_g.append(reference_constraint_values(game, u, s)[0])
    return (np.mean(rows_f, axis=0), np.mean(rows_j, axis=0), np.mean(rows_g, axis=0))


def random_lq_params(rng, mixed_callables=False):
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


def with_callable_gradients(game, rng):
    """The same game with a random subset of constant gradients wrapped as callables."""
    from dataclasses import replace

    cons = []
    for c in game.constraints:
        kw = {}
        if c.state_grad is not None and rng.uniform() < 0.5:
            kw["state_grad"] = lambda S, g=c.state_grad: np.tile(g, (S.shape[0], 1))
        if c.input_grad is not None and rng.uniform() < 0.5:
            kw["input_grad"] = lambda u, g=c.input_grad: g.copy()
        cons.append(replace(c, **kw))
    return replace(game, constraints=tuple(cons))


def with_support_oracles(game, rng, support=None):
    """The same game with nonlinear callable state oracles that read only
    ``support`` (default: every column, left undeclared).

    Every player gets a state cost with gradient ``weights * tanh(S)``, and
    each state-coupled constraint with probability 1/2 becomes the value
    ``|S| @ rho`` with gradient ``sign(S) * rho`` on the support columns.
    """
    from dataclasses import replace

    cols = list(range(game.state_traj_dim)) if support is None else list(support)
    players = tuple(
        replace(p, cost_state_grad=lambda S, wt=rng.uniform(0.5, 1.5, len(cols)):
                wt * np.tanh(S))
        for p in game.players)
    cons = []
    for c in game.constraints:
        if isinstance(c.state_grad, np.ndarray) and rng.uniform() < 0.5:
            rho = c.state_grad[cols]
            c = replace(c, state_value=lambda S, r=rho: np.abs(S) @ r,
                        state_grad=lambda S, r=rho: np.sign(S) * r)
        cons.append(c)
    return replace(game, players=players, constraints=tuple(cons),
                   state_support=None if support is None else tuple(cols))
