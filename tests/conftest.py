import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ccgames import MicrogridParams, build_microgrid_game, solver
from ccgames.config import build_game, parse_config
from ccgames.dynamics import CompactLift, TimeVaryingLinearDynamics, simulate_state
from ccgames.game import (ReducedLift, lift_base, operator_estimate, random_feasible_profile,
                          reduce_noise)
from ccgames.lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from ccgames.rng import PURPOSE_PROBE, iteration_stream, substream

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


def reference_compact_lift(dyn):
    """``build_compact_lift`` by its per-map recursion: row-block t+1 of each
    map is ``A_t @`` row-block t, one product per map (the initial state's,
    the noise's and each player's own) and step, then the step's fresh
    identity or ``B^j_t`` block is placed."""
    T, n_s = dyn.horizon, dyn.state_dim
    sdim = (T + 1) * n_s
    init_map = np.zeros((sdim, n_s))
    input_maps = [np.zeros((sdim, T * b.shape[2])) for b in dyn.b_mats]
    noise_map = np.zeros((sdim, T * n_s))
    init_map[0:n_s] = np.eye(n_s)
    for t in range(T):
        rows = slice(t * n_s, (t + 1) * n_s)
        rows_next = slice((t + 1) * n_s, (t + 2) * n_s)
        a_t = dyn.a_mats[t]
        init_map[rows_next] = a_t @ init_map[rows]
        noise_map[rows_next] = a_t @ noise_map[rows]
        noise_map[rows_next, t * n_s:(t + 1) * n_s] = np.eye(n_s)
        for gm, b in zip(input_maps, dyn.b_mats):
            nj = b.shape[2]
            gm[rows_next] = a_t @ gm[rows]
            gm[rows_next, t * nj:(t + 1) * nj] = b[t]
    return CompactLift(init_map, tuple(input_maps), noise_map)


def reference_constant_jacobian(game):
    """The constant Jacobian (input_dim, m) built one (player, constraint)
    pair at a time from the reference lift: ``input_maps[i].T @
    state_coeffs``, then the ``input_coeffs`` block, each added to zero."""
    maps = reference_compact_lift(game.dynamics).input_maps
    out = np.zeros((game.input_dim, len(game.constraints)))
    for gm, sl in zip(maps, game.player_slices):
        for j, c in enumerate(game.constraints):
            if c.state_coeffs is not None:
                out[sl, j] += gm.T @ c.state_coeffs
            if c.input_coeffs is not None:
                out[sl, j] += c.input_coeffs[sl]
    return out


def apply_lift(lift, s0, u, w):
    """The lift's affine map at (s0, u, w): each player's product added in order."""
    parts = np.split(u, np.cumsum([gm.shape[1] for gm in lift.input_maps])[:-1])
    return sum((gm @ uj for gm, uj in zip(lift.input_maps, parts)),
               lift.init_map @ s0 + lift.noise_map @ w)


def sample_operator(game, u, w):
    """(F, Jac, G_raw) of ``operator_estimate`` at u on the one draw w."""
    return operator_estimate(game, lift_base(game, u), reduce_noise(game, np.reshape(w, (1, -1))))


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
    alpha = solver.step_size(cfg, state.k)
    u_avg, u_next = [], []
    for i, (p, sl) in enumerate(zip(game.players, game.player_slices)):
        f_i = reference_pseudo_gradient_block(game, i, state.u, rows[i])
        jac_i = reference_jacobian_block(game, i, rows[i])
        avg = (1.0 - cfg.delta) * state.u[sl] + cfg.delta * state.u_avg_prev[sl]
        u_avg.append(avg)
        u_next.append(np.clip(avg - alpha * (f_i + jac_i @ state.lam), p.box_lower, p.box_upper))
    return np.concatenate(u_avg), np.concatenate(u_next)


def reference_base_trajectory(game, u):
    """``init_trajectory + input_maps[0] @ u^0 + input_maps[1] @ u^1 + ...``,
    one player's product added at a time, in player order."""
    out = game.init_trajectory
    for gm, sl in zip(game.lift.input_maps, game.player_slices):
        out = out + gm @ u[sl]
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


def reference_lipschitz(game, offsets, seed):
    """``solver.estimate_lipschitz`` with numpy's norms: per pair, u1, u2, l1,
    l2 and its batch (``solver.batch_noise``, none when no estimate reads the
    trajectory) drawn from the probe stream, then one ``extended_operator``
    call at each point and the pair's ratio. NaN at the first pair with a
    field that is not finite; a NaN ratio is dropped, as the loop's ``max``
    dropped it."""
    rng = substream(seed, PURPOSE_PROBE, 0)
    worst, m, scale = 0.0, game.constraint_count, solver.LIPSCHITZ_MULTIPLIER_SCALE
    for _ in range(solver.LIPSCHITZ_PAIRS):
        u1 = random_feasible_profile(game, rng)
        u2 = random_feasible_profile(game, rng)
        l1 = rng.uniform(0.0, scale, size=m)
        l2 = rng.uniform(0.0, scale, size=m)
        noise = solver.batch_noise(game, rng, solver.LIPSCHITZ_BATCH) \
            if game.reads_trajectory else None
        a1u, a1l = solver.extended_operator(game, offsets, lift_base(game, u1), noise, l1)
        a2u, a2l = solver.extended_operator(game, offsets, lift_base(game, u2), noise, l2)
        if not all(np.all(np.isfinite(a)) for a in (a1u, a1l, a2u, a2l)):
            return math.nan
        dz = math.hypot(np.linalg.norm(u1 - u2), np.linalg.norm(l1 - l2))
        if dz < 1e-12:
            continue
        worst = max(worst, math.hypot(np.linalg.norm(a1u - a2u), np.linalg.norm(a1l - a2l)) / dz)
    return worst


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


def generic_copy(game):
    """The game with its disturbance model's Gaussian declaration dropped, so
    the solver draws every batch through ``disturbance.sample``."""
    return replace(game, disturbance=replace(game.disturbance, mean=None, std=None))


class HookedStream:
    """A generator whose ``standard_normal`` draws pass through ``hook(values)``
    as they are made: the hook may write into them or raise. Every other
    attribute is the generator's own."""

    def __init__(self, rng, hook):
        self._rng, self._hook = rng, hook

    def standard_normal(self, *args, **kwargs):
        values = self._rng.standard_normal(*args, **kwargs)
        self._hook(values)
        return values

    def __getattr__(self, name):
        return getattr(self._rng, name)


def hook_tables(monkeypatch, wrap, built=None):
    """Patch ``solver.IterationTable`` through ``monkeypatch``: each stream a
    table makes is ``wrap(seed, k, entity, rng)``, and each table built appends
    its (seed, k0, rows, entities) to the list ``built``, when given."""

    class Hooked(solver.IterationTable):
        def __init__(self, seed, k0, count, n):
            super().__init__(seed, k0, count, n)
            if built is not None:
                built.append((seed, k0, len(self.words), n))

        def streams(self, k, first=0):
            return [wrap(self.seed, k, e, rng)
                    for e, rng in enumerate(super().streams(k, first), first)]

    monkeypatch.setattr(solver, "IterationTable", Hooked)


def hook_player_streams(monkeypatch, hook, players=None):
    """``hook_tables`` so that the streams of the players in ``players``
    (default: every player) are ``HookedStream``s of ``hook``: each of their
    draws, through a sampler or from a declared law, on whichever thread it
    is made."""
    def wrap(seed, k, e, rng):
        return HookedStream(rng, hook) if e > 0 and (players is None or e - 1 in players) else rng

    hook_tables(monkeypatch, wrap)


def per_row(game):
    """Numbers a player's draw takes per row."""
    law = game.support_law
    return game.disturbance.dim if law is None else law.factor.shape[0]


RESUME_K = 9000  # the tail of the reduced acceptance run: two-lane batches


@pytest.fixture(scope="session")
def reduced_tail():
    """microgrid_reduced resumed at RESUME_K for 3 iterations, as (the game
    drawn from its declared law, the same game drawn through its sampler,
    offsets, solver config, initial state). Both games draw on two lanes."""
    cfg = parse_config(CONFIG_DIR / "microgrid_reduced.json")
    game, offsets = build_game(cfg)
    scfg = replace(cfg.solver, max_iterations=RESUME_K + 3)
    initial = replace(solver.initial_state(game, scfg), k=RESUME_K)
    games = (game, generic_copy(game))
    for g in games:
        assert solver.batch_size(scfg, RESUME_K) * per_row(g) >= solver.TWO_LANE_MIN_DRAWS
    return games, offsets, scfg, initial


def checkpoint_writer(cfg, directory):
    """A ``solver.run`` observer that writes every ``cfg.checkpoint_every``-th
    iterate's checkpoint into ``directory``, as ``ccgames run`` does."""
    def observe(state, record):
        if state.k % cfg.checkpoint_every == 0:
            solver.write_checkpoint(state, cfg, directory)

    return observe


def serial_entity_noise(game, seed, k, m):
    """Every entity's reduced noise for iteration k with m-row batches, drawn
    one entity at a time, in entity order, on this thread, each by code of
    its own here, not the solver's: (the coordinator's ``ReducedLift``, a list
    of each player's (m, len(support)) support rows).

    A player draws its rows from its ``iteration_stream``: through a sampler
    ``sample(rng, m) @ support_noise_map_t`` of one whole draw, and for a
    declared Gaussian disturbance ``xi @ factor + shift`` of
    ``game.support_law``, xi an (m, r) standard normal. The coordinator draws
    nothing, and its noise is None, when no constraint value reads the
    trajectory. Otherwise, through a sampler, it reduces one whole draw
    (``reduce_noise``); for a declared law it draws its rows as a player
    does, then its mean disturbance from its law given their mean, or, when
    no constraint closure reads the rows, zero rows and the mean disturbance
    ``mean + std eta / sqrt(m)``.
    """
    law, d, s = game.support_law, game.disturbance, len(game.support)

    def rows(rng):
        if law is None:
            return d.sample(rng, m) @ game.support_noise_map_t
        return np.dot(rng.standard_normal((m, law.factor.shape[0])), law.factor) + law.shift

    players = [rows(iteration_stream(seed, k, 1 + i)) for i in range(game.n_players)]
    if game.state_map is None and not game.nonlinear_columns:
        return None, players
    rng = iteration_stream(seed, k, 0)
    if law is None:
        return reduce_noise(game, d.sample(rng, m)), players
    if game.nonlinear_columns:
        z = rows(rng)
        w_mean = d.mean + law.gain @ (z.mean(axis=0) - law.shift) \
            + law.spread @ rng.standard_normal(d.dim) / math.sqrt(m)
    else:
        z = np.zeros((m, s))
        w_mean = d.mean + d.std * rng.standard_normal(d.dim) / math.sqrt(m)
    return ReducedLift(w_mean @ game.lift.noise_map.T, z), players


def serial_reference_run(game, offsets, cfg, initial):
    """``solver.run`` from ``initial`` to the budget ``cfg.max_iterations``,
    with every entity's batch drawn by ``serial_entity_noise``.

    The coordinator steps on its reduced noise, and the players step one at
    a time on their support rows (``reference_player_step``, not the stacked
    ``player_step``). Returns the final state and, per record, a dict of
    every ``IterationRecord`` field but ``wall_ms`` (for a config without
    snapshots, so ``strategies`` is None). No divergence or non-finite stop.
    """
    state, records = initial, []
    noise_res = solver.residual_noise(game, cfg, cfg.seed)
    while True:
        k, m = state.k, solver.batch_size(cfg, state.k)
        base = lift_base(game, state.u)
        coordinator, players = serial_entity_noise(game, cfg.seed, k, m)
        alpha = solver.step_size(cfg, k)
        lam_avg, lam_next, g_hat = solver.coordinator_step(state, game, offsets, cfg, alpha,
                                                           coordinator, base)
        records.append(dict(
            k=k, residual=solver.residual_estimate(state, game, offsets, alpha, noise_res, base),
            g_hat_max=float(g_hat.max()) if g_hat.size else 0.0,
            g_hat_norm=float(np.linalg.norm(g_hat)), lam=state.lam.copy(),
            alpha=solver.step_size(cfg, k), batch=m, strategies=None))
        if k >= cfg.max_iterations:
            return state, records
        traj = reference_base_trajectory(game, state.u)
        rows = [n + traj[list(game.support)] for n in players]
        u_avg, u_next = reference_player_step(game, state, cfg, rows)
        state = solver.SolverState(k + 1, u_next, u_avg, lam_next, lam_avg)


def as_reference(trace):
    """(final state, records) of ``trace`` in ``assert_run_equals_reference``'s form."""
    return trace.final_state, [{name: value for name, value in vars(record).items()
                                if name != "wall_ms"} for record in trace.records]


def assert_run_equals_reference(trace, reference):
    """``trace`` of ``solver.run`` equals ``serial_reference_run``'s (final
    state, records) bit for bit, in every record field but ``wall_ms``."""
    state, records = reference
    final = trace.final_state
    assert final.k == state.k
    for name in ("u", "u_avg_prev", "lam", "lam_avg_prev"):
        assert np.array_equal(getattr(final, name), getattr(state, name)), name
    assert len(trace.records) == len(records)
    names = [f.name for f in fields(solver.IterationRecord) if f.name != "wall_ms"]
    for record, expected in zip(trace.records, records):
        assert sorted(names) == sorted(expected)
        for name in names:
            got, want = getattr(record, name), expected[name]
            assert (got is None and want is None) or np.array_equal(got, want), name
