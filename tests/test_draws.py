"""Every entity's batch, drawn on the calling thread.

For a declared Gaussian disturbance a player's support rows are drawn from
their law directly, all players' in one batched product. That may not change
a bit of a seeded run: a run equals a serial reference drawn one entity at a
time by code of its own. A failed draw reaches the caller, and ``run``
starts no thread. Players that draw only their batch means (the shipped
microgrids at a zero multiplier) draw no rows, so the row tests run the
microgrids with their state costs undeclared (``conftest.undeclared_copy``):
their players draw every row. The sampler path's rows are checked against
one whole draw in ``tests/test_two_lane.py``.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.lqgame import build_lq_game

from conftest import (CONFIG_DIR, MICROGRID_CONFIGS, ORACLE_LQ_SEEDS, RESUME_K, HookedStream,
                      as_reference, assert_run_equals_reference, hook_player_streams,
                      hook_tables, oracle_lq_game, per_row, random_lq_params,
                      serial_entity_noise, serial_reference_run, undeclared_copy,
                      with_support_oracles)


def zero_rank_game():
    """An LQ game whose declared law has rank 0: no noise, r = 0."""
    game, _ = build_lq_game(replace(random_lq_params(np.random.default_rng(0)),
                                    noise_std=None))
    return with_support_oracles(game, np.random.default_rng(1))


def full_rank_game():
    """An LQ game whose support is every column after the initial state: a
    law of rank r = s > 1, drawn in place."""
    rng = np.random.default_rng(3)
    game, _ = build_lq_game(random_lq_params(rng))
    while game.dynamics.horizon * game.dynamics.state_dim < 2:
        game, _ = build_lq_game(random_lq_params(rng))
    n_s = game.dynamics.state_dim
    return with_support_oracles(game, rng, support=range(n_s, game.state_traj_dim))


DRAW_GAMES = {
    # undeclared, so that their players draw rows at a zero multiplier
    **{name: (lambda name=name: undeclared_copy(build_game(parse_config(CONFIG_DIR / name))[0]))
       for name in MICROGRID_CONFIGS},
    **{f"lq_{seed}": (lambda seed=seed: oracle_lq_game(seed)) for seed in ORACLE_LQ_SEEDS},
    "zero_rank": zero_rank_game,
    "full_rank": full_rank_game,
}


@pytest.mark.parametrize("name", DRAW_GAMES)
def test_draw_noise_equals_one_draw_per_player(name):
    # one row, and thousands: the stack's one product keeps each player's bits
    game = DRAW_GAMES[name]()
    assert game.support_law is not None
    for m in {1} if per_row(game) == 0 else {1, 2047, 16384}:
        buffer = np.empty(game.n_players * m * len(game.support))
        table = solver.iteration_table(game, 6, 11, 12)
        lam = np.zeros(game.constraint_count)
        coordinator, noise = solver.draw_noise(game, table, 11, m, lam, buffer)
        want_coordinator, want_players = serial_entity_noise(game, 6, 11, m)
        if want_coordinator is None:  # no constraint value reads the trajectory
            assert coordinator is None
        else:
            assert np.array_equal(coordinator.mean, want_coordinator.mean)
            assert np.array_equal(coordinator.support, want_coordinator.support)
        for i, rows in enumerate(noise):
            assert rows.tobytes() == want_players[i].tobytes(), (m, i)


def test_draw_games_cover_every_rank():
    ranks = {name: per_row(make()) for name, make in DRAW_GAMES.items()}
    assert ranks["microgrid_paper.json"] == ranks["microgrid_reduced.json"] == 1
    assert ranks["zero_rank"] == 0 and max(ranks.values()) > 1
    full = DRAW_GAMES["full_rank"]()
    assert per_row(full) == len(full.support) > 1


def test_run_equals_serial_reference(reduced_tail):
    games, offsets, scfg, initial = reduced_tail
    for game in games:
        trace = solver.run(game, offsets, scfg, initial=initial)
        assert trace.termination_reason == solver.TERMINATION_BUDGET
        assert_run_equals_reference(trace, serial_reference_run(game, offsets, scfg, initial))


def test_run_draws_on_the_calling_thread_and_starts_no_thread(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail
    start = threading.Thread.start
    for game in games:
        drawn_on, started = set(), []

        def counted(thread):
            started.append(thread)
            start(thread)

        hook_player_streams(monkeypatch, lambda rows: drawn_on.add(threading.current_thread()))
        monkeypatch.setattr(threading.Thread, "start", counted)
        trace = solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        assert trace.termination_reason == solver.TERMINATION_BUDGET
        assert drawn_on == {threading.current_thread()}
        assert started == []


class DrawFailure(Exception):
    pass


def test_draw_exception_reaches_run(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail

    def failing(rows):
        raise DrawFailure("draw failed")

    for game in games:
        hook_player_streams(monkeypatch, failing, players={game.n_players - 1})
        with pytest.raises(DrawFailure, match="draw failed"):
            solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        # a failed run leaves nothing behind: the next run completes, bit for bit
        one = replace(scfg, max_iterations=RESUME_K + 1)
        trace = solver.run(game, offsets, one, initial=initial)
        assert_run_equals_reference(trace, serial_reference_run(game, offsets, one, initial))


def test_nan_draw_stops_non_finite(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail

    def poisoned(rows):
        rows[-1, 0] = np.nan

    for game in games:
        even = range(0, game.n_players, 2)
        hook_player_streams(monkeypatch, poisoned, players=set(even))
        trace = solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == RESUME_K + 1
        # the poisoned draws name players 0, 2, 4, ...
        assert solver.non_finite_updates(game, trace.final_state) == \
            [f"player {i} strategy update" for i in even]


def poison_draw_buffers(monkeypatch):
    """Patch ``solver.draw_noise`` so that the buffer ``run`` passes is
    filled with NaN before every draw; returns the list of buffers passed."""
    draw, buffers = solver.draw_noise, []

    def poisoned(game, seed, k, m, lam, buffer):
        assert buffer is not None
        buffer.fill(np.nan)
        buffers.append(buffer)
        return draw(game, seed, k, m, lam, buffer)

    monkeypatch.setattr(solver, "draw_noise", poisoned)
    return buffers


def assert_stale_rows_unread(monkeypatch, game, offsets, scfg, initial):
    """A run whose draw buffer is NaN before every draw equals the run as
    it is, bit for bit: every entry a step reads was drawn in its iterate."""
    clean = solver.run(game, offsets, scfg, initial=initial)
    buffers = poison_draw_buffers(monkeypatch)
    poisoned = solver.run(game, offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert len(buffers) == scfg.max_iterations - initial.k
    assert len({id(b) for b in buffers}) < len(buffers)  # the buffer is reused
    assert_run_equals_reference(poisoned, as_reference(clean))


def test_reused_draw_buffer_leaks_no_stale_rows_tail(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail
    assert_stale_rows_unread(monkeypatch, games[0], offsets, scfg, initial)


def test_reused_draw_buffer_leaks_no_stale_rows_paper(monkeypatch):
    # from k = 0 the buffer grows several times and is reused in between
    cfg = parse_config(CONFIG_DIR / "microgrid_paper.json")
    game, offsets = build_game(cfg)
    game = undeclared_copy(game)  # so its players draw rows into the buffer
    scfg = replace(cfg.solver, max_iterations=200)
    assert_stale_rows_unread(monkeypatch, game, offsets, scfg, solver.initial_state(game, scfg))


def test_mean_draws_size_no_buffer(reduced_tail, monkeypatch):
    # the shipped game at a zero multiplier: each player draws its batch mean,
    # one row, on the calling thread, and the run's row buffer stays empty
    _, offsets, scfg, initial = reduced_tail
    game, _ = build_game(parse_config(CONFIG_DIR / "microgrid_reduced.json"))
    assert not solver.players_draw_rows(game, initial.lam)
    drawn_on, shapes = set(), []

    def watched(normals):
        drawn_on.add(threading.current_thread())
        shapes.append(normals.shape)

    hook_player_streams(monkeypatch, watched)
    buffers = poison_draw_buffers(monkeypatch)
    trace = solver.run(game, offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert trace.termination_reason == solver.TERMINATION_BUDGET
    assert drawn_on == {threading.current_thread()} and set(shapes) == {(1, 1)}
    assert len(shapes) == game.n_players * (scfg.max_iterations - initial.k)
    assert [b.size for b in buffers] == [0] * (scfg.max_iterations - initial.k)


def run_concurrently(target, args):
    """``target(arg)`` for each of ``args`` on a thread of its own, all at
    once, switching as often as the interpreter allows; returns the threads,
    each joined."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    return threads


def test_concurrent_runs_each_equal_their_serial_reference(reduced_tail, monkeypatch):
    # two runs at once, told apart by their seeds: each equals its serial
    # reference, and each draws every player's batch on its own calling thread
    games, offsets, scfg, initial = reduced_tail
    game = games[0]
    configs = [replace(scfg, seed=seed) for seed in (scfg.seed, scfg.seed + 1)]
    drawn_on = {cfg.seed: set() for cfg in configs}  # threads of each run's player draws

    def hooked(seed, k, e, rng):
        def note(rows):
            drawn_on[seed].add(threading.current_thread())
        return HookedStream(rng, note) if e > 0 else rng

    traces, callers, failures = {}, {}, []

    def solve(cfg):
        callers[cfg.seed] = threading.current_thread()
        try:
            traces[cfg.seed] = solver.run(game, offsets, cfg, initial=initial)
        except Exception as exc:  # reported below, with the run's seed
            failures.append((cfg.seed, exc))

    hook_tables(monkeypatch, hooked)
    run_concurrently(solve, configs)
    monkeypatch.undo()
    assert not failures
    for cfg in configs:
        assert_run_equals_reference(traces[cfg.seed],
                                    serial_reference_run(game, offsets, cfg, initial))
        assert drawn_on[cfg.seed] == {callers[cfg.seed]}
