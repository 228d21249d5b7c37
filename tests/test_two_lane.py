"""A sampler player's support rows equal one whole draw.

Through a sampler (``conftest.generic_copy``), a player's batch is drawn
whole in one ``disturbance.sample`` call, and its support rows must equal
``reduce_noise`` of that draw bit for bit, at any row count. The module and
test names are those of the draw paths these tests were first written for
(ROADMAP item 5 keeps the rename open); ``tests/test_draws.py`` holds the
tests of ``draw_noise`` and of the run's draws.
"""

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.game import lift_base, random_feasible_profile, reduce_noise, reduced_lift
from ccgames.rng import iteration_stream

from conftest import CONFIG_DIR, MICROGRID_CONFIGS, ORACLE_LQ_SEEDS, generic_copy, oracle_lq_game

# one row, which numpy multiplies by another path, and odd and even counts of
# thousands of rows: a sampler player's rows are one whole draw at any count
ROW_COUNTS = (1, 2047, 2048, 2049, 6151)


def test_lq_seeds_cover_disturbance_dim_one():
    assert 1 in {oracle_lq_game(seed).disturbance.dim for seed in ORACLE_LQ_SEEDS}


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
@pytest.mark.parametrize("seed", ORACLE_LQ_SEEDS)
def test_lq_blocked_rows_equal_one_whole_draw(seed, m):
    assert_sampler_rows_equal_whole(oracle_lq_game(seed), m)
