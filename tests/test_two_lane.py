"""Players' draws in row blocks, split between two threads for large batches.

A player's batch is drawn in blocks of ``DRAW_BLOCK_ROWS`` rows, and from
``TWO_LANE_MIN_DRAWS`` numbers per draw on, half of the players draw on a
second thread. Neither may change a bit of a seeded run: the blocked rows
equal one whole draw, and a two-lane run equals a serial whole-draw
reference. Failures on the second thread reach the caller.
"""

import multiprocessing
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.game import lift_base, random_feasible_profile, reduce_noise, reduced_lift
from ccgames.lqgame import build_lq_game
from ccgames.rng import iteration_stream

from conftest import (CONFIG_DIR, assert_run_equals_reference, random_lq_params,
                      serial_reference_run, with_support_oracles)

B = solver.DRAW_BLOCK_ROWS
ROW_COUNTS = (1, B - 1, B, B + 1, 3 * B + 7)
MICROGRID_CONFIGS = ("microgrid_reduced.json", "microgrid_paper.json")
LQ_SEEDS = range(12)  # seed 11 draws a disturbance of dimension 1
RESUME_K = 9000  # the tail of the reduced acceptance run: two-lane batches
ITERATIONS = 3


def lq_game(seed):
    rng = np.random.default_rng(seed)
    game, _ = build_lq_game(random_lq_params(rng))
    return with_support_oracles(game, rng)


def test_lq_seeds_cover_disturbance_dim_one():
    assert 1 in {lq_game(seed).disturbance.dim for seed in LQ_SEEDS}


def assert_blocked_equals_whole(game, m):
    rng = np.random.default_rng(m)
    base = lift_base(game, random_feasible_profile(game, rng))
    blocked = np.full((m, len(game.support)), np.nan)
    solver.draw_support_noise(game, iteration_stream(5, 7, 2), blocked)
    w = game.disturbance.sample(iteration_stream(5, 7, 2), m)
    whole = reduced_lift(game, reduce_noise(game, w), base).support
    assert np.array_equal(blocked + base[game.support_index], whole)


@pytest.mark.parametrize("m", ROW_COUNTS)
@pytest.mark.parametrize("config", MICROGRID_CONFIGS)
def test_microgrid_blocked_rows_equal_one_whole_draw(config, m):
    game, _ = build_game(parse_config(CONFIG_DIR / config))
    assert_blocked_equals_whole(game, m)


@pytest.mark.parametrize("m", ROW_COUNTS)
@pytest.mark.parametrize("seed", LQ_SEEDS)
def test_lq_blocked_rows_equal_one_whole_draw(seed, m):
    assert_blocked_equals_whole(lq_game(seed), m)


@pytest.fixture(scope="module")
def reduced_tail():
    """microgrid_reduced resumed at RESUME_K for ITERATIONS iterations."""
    cfg = parse_config(CONFIG_DIR / "microgrid_reduced.json")
    game, offsets = build_game(cfg)
    scfg = replace(cfg.solver, max_iterations=RESUME_K + ITERATIONS)
    initial = replace(solver.initial_state(game, scfg), k=RESUME_K)
    assert solver.batch_size(scfg, RESUME_K) * game.disturbance.dim \
        >= solver.TWO_LANE_MIN_DRAWS
    return game, offsets, scfg, initial


def with_sampler(game, wrap):
    """The game with its sampler replaced by ``wrap(original sampler)``."""
    return replace(game, disturbance=replace(game.disturbance,
                                             sample=wrap(game.disturbance.sample)))


def on_second_lane():
    return threading.current_thread() is not threading.main_thread()


def test_two_lane_run_equals_serial_reference(reduced_tail):
    game, offsets, scfg, initial = reduced_tail
    lanes = set()

    def watched(sample):
        def draw(rng, count):
            lanes.add(on_second_lane())
            return sample(rng, count)
        return draw

    trace = solver.run(with_sampler(game, watched), offsets, scfg, initial=initial)
    assert lanes == {False, True}
    assert trace.termination_reason == solver.TERMINATION_BUDGET
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, scfg, initial))


class DrawFailure(Exception):
    pass


def test_second_lane_exception_reaches_run(reduced_tail):
    game, offsets, scfg, initial = reduced_tail

    def failing(sample):
        def draw(rng, count):
            if on_second_lane():
                raise DrawFailure("sampler failed on the second lane")
            return sample(rng, count)
        return draw

    with pytest.raises(DrawFailure, match="second lane"):
        solver.run(with_sampler(game, failing), offsets, scfg, initial=initial)
    # the lane survives its failure: the next run completes, bit for bit
    one = replace(scfg, max_iterations=RESUME_K + 1)
    trace = solver.run(game, offsets, one, initial=initial)
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, one, initial))


def test_nan_draw_on_second_lane_stops_non_finite(reduced_tail):
    game, offsets, scfg, initial = reduced_tail

    def poisoned(sample):
        def draw(rng, count):
            w = sample(rng, count)
            if on_second_lane():
                w[-1, 0] = np.nan
            return w
        return draw

    trace = solver.run(with_sampler(game, poisoned), offsets, scfg, initial=initial)
    assert trace.termination_reason == solver.TERMINATION_NON_FINITE
    assert trace.final_state.k == RESUME_K + 1
    # the second lane draws players 0, 2, 4, ...
    assert solver.non_finite_updates(game, trace.final_state) == \
        [f"player {i} strategy update" for i in range(0, game.n_players, 2)]


def test_concurrent_callers_share_the_lane():
    # more calling threads than cores, switching as often as the interpreter
    # allows: each call still gets its own entities' rows, in entity order
    game, _ = build_game(parse_config(CONFIG_DIR / "microgrid_reduced.json"))
    m = solver.TWO_LANE_MIN_DRAWS // game.disturbance.dim + 1
    callers, calls = 4, 5
    got, failures = {}, []

    def call(k):
        try:
            for _ in range(calls):
                got.setdefault(k, []).append(solver.draw_noise(game, 2, k, m))
        except Exception as exc:  # reported below, with the caller's index
            failures.append((k, exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not failures
    for k in range(callers):
        whole = [reduce_noise(game, game.disturbance.sample(iteration_stream(2, k, e), m))
                 for e in range(1 + game.n_players)]
        assert len(got[k]) == calls
        for coordinator, rows in got[k]:
            assert np.array_equal(coordinator.mean, whole[0].mean)
            assert np.array_equal(coordinator.support, whole[0].support)
            assert len(rows) == game.n_players
            for i, r in enumerate(rows):
                assert np.array_equal(r, whole[1 + i].support), (k, i)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_lane():
    # a forked child inherits the parent's lane executor but not its thread;
    # a task handed to that executor would never run
    game, _ = build_game(parse_config(CONFIG_DIR / "microgrid_reduced.json"))
    m = solver.TWO_LANE_MIN_DRAWS // game.disturbance.dim + 1
    solver.draw_noise(game, 3, 0, m)  # the parent's lane exists
    child = multiprocessing.get_context("fork").Process(
        target=solver.draw_noise, args=(game, 3, 1, m))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0
