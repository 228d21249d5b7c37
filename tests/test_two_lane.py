"""Players' draws split between two threads for large batches.

Through a sampler, a player's batch is drawn whole in one call; for a
declared Gaussian disturbance its support rows are drawn from their law
directly. From ``TWO_LANE_MIN_DRAWS`` numbers per player's draw on, half of
the players draw on a second thread. Neither may change a bit of a seeded
run: a player's sampler rows equal ``reduce_noise`` of one whole draw, and a
two-lane run equals a serial reference drawn one entity at a time. Failures
on the second thread reach the caller. Each run owns its second thread and
joins it before it returns, so concurrent runs never share one.
"""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.game import lift_base, random_feasible_profile, reduce_noise, reduced_lift
from ccgames.lqgame import build_lq_game
from ccgames.rng import iteration_stream

from conftest import (CONFIG_DIR, RESUME_K, HookedStream, as_reference,
                      assert_run_equals_reference, generic_copy, hook_player_streams, hook_tables,
                      per_row, random_lq_params, serial_entity_noise, serial_reference_run,
                      with_support_oracles)

# one row, which numpy multiplies by another path, and odd and even counts of
# thousands of rows: a sampler player's rows are one whole draw at any count
ROW_COUNTS = (1, 2047, 2048, 2049, 6151)
MICROGRID_CONFIGS = ("microgrid_reduced.json", "microgrid_paper.json")
LQ_SEEDS = range(12)  # seed 11 draws a disturbance of dimension 1


def lq_game(seed):
    rng = np.random.default_rng(seed)
    game, _ = build_lq_game(random_lq_params(rng))
    return with_support_oracles(game, rng)


def test_lq_seeds_cover_disturbance_dim_one():
    assert 1 in {lq_game(seed).disturbance.dim for seed in LQ_SEEDS}


def assert_sampler_rows_equal_whole(game, m):
    game = generic_copy(game)
    rng = np.random.default_rng(m)
    base = lift_base(game, random_feasible_profile(game, rng))
    rows = np.full((1, m, len(game.support)), np.nan)
    solver.draw_support_noise(game, [iteration_stream(5, 7, 2)], rows)
    w = game.disturbance.sample(iteration_stream(5, 7, 2), m)
    whole = reduced_lift(game, reduce_noise(game, w), base).support
    assert np.array_equal(rows[0] + base.trajectory[game.support_index], whole)


@pytest.mark.parametrize("m", ROW_COUNTS)
@pytest.mark.parametrize("config", MICROGRID_CONFIGS)
def test_microgrid_blocked_rows_equal_one_whole_draw(config, m):
    game, _ = build_game(parse_config(CONFIG_DIR / config))
    assert_sampler_rows_equal_whole(game, m)


@pytest.mark.parametrize("m", ROW_COUNTS)
@pytest.mark.parametrize("seed", LQ_SEEDS)
def test_lq_blocked_rows_equal_one_whole_draw(seed, m):
    assert_sampler_rows_equal_whole(lq_game(seed), m)


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


LANE_GAMES = {
    **{name: (lambda name=name: build_game(parse_config(CONFIG_DIR / name))[0])
       for name in MICROGRID_CONFIGS},
    **{f"lq_{seed}": (lambda seed=seed: lq_game(seed)) for seed in LQ_SEEDS},
    "zero_rank": zero_rank_game,
    "full_rank": full_rank_game,
}


@pytest.mark.parametrize("name", LANE_GAMES)
def test_lane_draw_equals_one_draw_per_player(name):
    # one row, and the row counts just below and at the split into two lanes
    game = LANE_GAMES[name]()
    r = per_row(game)
    assert game.support_law is not None
    counts = {1} if r == 0 else {1, -(-solver.TWO_LANE_MIN_DRAWS // r) - 1,
                                  -(-solver.TWO_LANE_MIN_DRAWS // r)}
    for m in counts:
        buffer = np.empty(game.n_players * m * len(game.support))
        table = solver.iteration_table(game, 6, 11, 12)
        with ThreadPoolExecutor(1) as lane:
            coordinator, noise = solver.draw_noise(game, table, 11, m, buffer, lane)
        want_coordinator, want_players = serial_entity_noise(game, 6, 11, m)
        if want_coordinator is None:  # no constraint value reads the trajectory
            assert coordinator is None
        else:
            assert np.array_equal(coordinator.mean, want_coordinator.mean)
            assert np.array_equal(coordinator.support, want_coordinator.support)
        for i, rows in enumerate(noise):
            assert rows.tobytes() == want_players[i].tobytes(), (m, i)


def test_lane_games_cover_every_rank():
    ranks = {name: per_row(make()) for name, make in LANE_GAMES.items()}
    assert ranks["microgrid_paper.json"] == ranks["microgrid_reduced.json"] == 1
    assert ranks["zero_rank"] == 0 and max(ranks.values()) > 1
    full = LANE_GAMES["full_rank"]()
    assert per_row(full) == len(full.support) > 1


def on_second_lane():
    return threading.current_thread() is not threading.main_thread()


def test_two_lane_run_equals_serial_reference(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail
    for game in games:
        lanes = set()

        def watched(rows):
            lanes.add(on_second_lane())

        hook_player_streams(monkeypatch, watched)
        trace = solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        assert lanes == {False, True}
        assert trace.termination_reason == solver.TERMINATION_BUDGET
        assert_run_equals_reference(trace, serial_reference_run(game, offsets, scfg, initial))


class DrawFailure(Exception):
    pass


def test_second_lane_exception_reaches_run(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail

    def failing(rows):
        if on_second_lane():
            raise DrawFailure("draw failed on the second lane")

    for game in games:
        hook_player_streams(monkeypatch, failing)
        with pytest.raises(DrawFailure, match="second lane"):
            solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        # a failed run leaves nothing behind: the next run completes, bit for bit
        one = replace(scfg, max_iterations=RESUME_K + 1)
        trace = solver.run(game, offsets, one, initial=initial)
        assert_run_equals_reference(trace, serial_reference_run(game, offsets, one, initial))


def test_nan_draw_on_second_lane_stops_non_finite(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail

    def poisoned(rows):
        if on_second_lane():
            rows[-1, 0] = np.nan

    for game in games:
        hook_player_streams(monkeypatch, poisoned)
        trace = solver.run(game, offsets, scfg, initial=initial)
        monkeypatch.undo()
        assert trace.termination_reason == solver.TERMINATION_NON_FINITE
        assert trace.final_state.k == RESUME_K + 1
        # the second lane draws players 0, 2, 4, ...
        assert solver.non_finite_updates(game, trace.final_state) == \
            [f"player {i} strategy update" for i in range(0, game.n_players, 2)]


def poison_draw_buffers(monkeypatch):
    """Patch ``solver.draw_noise`` so that the buffer ``run`` passes is
    filled with NaN before every draw; returns the list of buffers passed."""
    draw, buffers = solver.draw_noise, []

    def poisoned(game, seed, k, m, buffer, lane):
        assert buffer is not None
        buffer.fill(np.nan)
        buffers.append(buffer)
        return draw(game, seed, k, m, buffer, lane)

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


def test_reused_draw_buffer_leaks_no_stale_rows_two_lane(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail
    assert_stale_rows_unread(monkeypatch, games[0], offsets, scfg, initial)


def test_reused_draw_buffer_leaks_no_stale_rows_paper(monkeypatch):
    # from k = 0 the buffer grows several times and is reused in between
    cfg = parse_config(CONFIG_DIR / "microgrid_paper.json")
    game, offsets = build_game(cfg)
    scfg = replace(cfg.solver, max_iterations=200)
    assert_stale_rows_unread(monkeypatch, game, offsets, scfg, solver.initial_state(game, scfg))


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


def assert_concurrent_calls_agree(game):
    """More calling threads than cores, all handing half their draws to one
    shared lane: each call still gets its own entities' rows, in entity order."""
    m = solver.TWO_LANE_MIN_DRAWS // per_row(game) + 1
    callers, calls = 4, 5
    got, failures = {}, []

    def call(k):
        try:
            for _ in range(calls):
                buffer = np.empty(game.n_players * m * len(game.support))
                table = solver.iteration_table(game, 2, k, k + 1)
                got.setdefault(k, []).append(solver.draw_noise(game, table, k, m, buffer, lane))
        except Exception as exc:  # reported below, with the caller's index
            failures.append((k, exc))

    with ThreadPoolExecutor(1) as lane:
        run_concurrently(call, range(callers))
    assert not failures
    for k in range(callers):
        want_coordinator, want_players = serial_entity_noise(game, 2, k, m)
        assert len(got[k]) == calls
        for coordinator, rows in got[k]:
            assert np.array_equal(coordinator.mean, want_coordinator.mean)
            assert np.array_equal(coordinator.support, want_coordinator.support)
            assert len(rows) == game.n_players
            for i, r in enumerate(rows):
                assert np.array_equal(r, want_players[i]), (k, i)


def test_concurrent_callers_share_the_lane():
    game, _ = build_game(parse_config(CONFIG_DIR / "microgrid_reduced.json"))
    assert_concurrent_calls_agree(game)
    assert_concurrent_calls_agree(generic_copy(game))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_lane(reduced_tail):
    # a forked child inherits no running thread: after a two-lane run in the
    # parent, a run in the child draws on a lane of its own and equals it
    games, offsets, scfg, initial = reduced_tail
    parent = solver.run(games[0], offsets, scfg, initial=initial)

    def child():
        trace = solver.run(games[0], offsets, scfg, initial=initial)
        assert_run_equals_reference(trace, as_reference(parent))

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    hung = process.is_alive()
    if hung:
        process.kill()
        process.join()
    assert not hung and process.exitcode == 0


def draw_lanes():
    """The second-lane threads alive in this process."""
    return [t for t in threading.enumerate() if t.name.startswith("ccgames-draws")]


def test_run_joins_its_lane_on_return_and_on_raise(reduced_tail, monkeypatch):
    games, offsets, scfg, initial = reduced_tail
    drew = set()

    def noted(rows):  # by name, so that draw_lanes below looks for the right threads
        drew.add(threading.current_thread().name.startswith("ccgames-draws"))

    hook_player_streams(monkeypatch, noted)
    solver.run(games[0], offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert drew == {False, True}
    assert not draw_lanes()

    def failing(rows):
        if on_second_lane():
            raise DrawFailure("draw failed on the second lane")

    hook_player_streams(monkeypatch, failing)
    with pytest.raises(DrawFailure):
        solver.run(games[0], offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert not draw_lanes()


def test_concurrent_runs_each_draw_on_their_own_lane(reduced_tail, monkeypatch):
    # two runs at once, told apart by their seeds: each equals its serial
    # reference, and each hands half its draws to a thread no other run uses
    games, offsets, scfg, initial = reduced_tail
    game = games[0]
    configs = [replace(scfg, seed=seed) for seed in (scfg.seed, scfg.seed + 1)]
    drawn_on = {cfg.seed: set() for cfg in configs}  # threads of each run's player draws

    def hooked(seed, k, e, rng):
        def note(rows):
            drawn_on[seed].add(threading.current_thread())
        return HookedStream(rng, note) if e > 0 else rng

    traces, failures = {}, []

    def solve(cfg):
        try:
            traces[cfg.seed] = solver.run(game, offsets, cfg, initial=initial)
        except Exception as exc:  # reported below, with the run's seed
            failures.append((cfg.seed, exc))

    hook_tables(monkeypatch, hooked)
    callers = set(run_concurrently(solve, configs))
    monkeypatch.undo()
    assert not failures
    for cfg in configs:
        assert_run_equals_reference(traces[cfg.seed],
                                    serial_reference_run(game, offsets, cfg, initial))
    lanes = [drawn_on[cfg.seed] - callers for cfg in configs]
    assert [len(lane) for lane in lanes] == [1, 1] and lanes[0] != lanes[1]
    assert not draw_lanes()
