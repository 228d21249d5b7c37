"""A declared Gaussian disturbance: the solver draws what the estimates read
from its exact law.

For independent N(mean, diag(std^2)) rows w and A = ``support_noise_map_t``,
a player's support rows are z = w A ~ N(mean A, A^T diag(std^2) A), and the
coordinator's reduced noise is (mean(w) @ noise_map.T, its M rows z). The
moment test compares the means and covariances of many draws with that law,
entry by entry, within 5 standard errors.
"""

from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.com import ComModel
from ccgames.config import build_game, parse_config
from ccgames.game import DisturbanceModel
from ccgames.lqgame import build_lq_game
from ccgames.rng import iteration_stream

from conftest import CONFIG_DIR, generic_copy, random_lq_params, with_support_oracles

REPETITIONS = 20000
ROWS = 3  # the coordinator's batch in the moment test
LIMIT = 5.0  # standard errors


def full_support_lq():
    """An LQ game whose callable oracles read every trajectory column, so the
    support covariance is singular: the initial state's columns carry no
    noise (4 steps of 2 states: s = 10 support columns, rank 8)."""
    rng = np.random.default_rng(0)
    game, offsets = build_lq_game(random_lq_params(rng))
    game = with_support_oracles(game, rng)
    assert len(game.support) == game.state_traj_dim == 10
    assert game.support_law.factor.shape == (8, 10)
    return game, offsets


GAMES = {
    "microgrid_reduced": lambda: build_game(parse_config(CONFIG_DIR / "microgrid_reduced.json")),
    "microgrid_paper": lambda: build_game(parse_config(CONFIG_DIR / "microgrid_paper.json")),
    "full_support_lq": full_support_lq,
}


def joint_law(game, m):
    """Mean and covariance of (mean(w) @ noise_map.T, z_1, ..., z_m) for m
    independent rows w of the declared law, from the model's mean and std."""
    d = game.disturbance
    n, a = game.lift.noise_map, game.support_noise_map_t
    cov_w = np.diag(d.std ** 2)
    c = a.T @ cov_w @ a
    sdim, s = n.shape[0], a.shape[1]
    mean = np.concatenate([n @ d.mean] + [d.mean @ a] * m)
    cov = np.zeros((sdim + m * s, sdim + m * s))
    cov[:sdim, :sdim] = n @ cov_w @ n.T / m
    for j in range(m):
        rows = slice(sdim + j * s, sdim + (j + 1) * s)
        cov[:sdim, rows] = n @ cov_w @ a / m
        cov[rows, :sdim] = cov[:sdim, rows].T
        cov[rows, rows] = c
    return mean, cov


def assert_moments(draws, mean, cov):
    """Sample mean and covariance (about the known mean) of the rows of
    ``draws`` within LIMIT standard errors of (mean, cov), entry by entry; an
    entry of zero variance must hold to rounding."""
    r = draws.shape[0]
    dev = draws - mean
    var = np.diag(cov)
    scale = var.max()
    mean_se = np.sqrt(var / r)
    mean_z = np.abs(dev.mean(axis=0)) / (mean_se + 1e-9 * np.sqrt(scale))
    cov_se = np.sqrt((np.outer(var, var) + cov ** 2) / r)
    cov_z = np.abs(dev.T @ dev / r - cov) / (cov_se + 1e-9 * scale)
    assert mean_z.max() <= LIMIT, f"mean off by {mean_z.max():.1f} standard errors"
    assert cov_z.max() <= LIMIT, f"covariance off by {cov_z.max():.1f} standard errors"


@pytest.mark.parametrize("name", GAMES)
def test_coordinator_noise_has_the_exact_law(name):
    game, _ = GAMES[name]()
    assert game.state_map is not None or game.nonlinear_columns  # the coordinator draws
    draws = np.empty((REPETITIONS, game.state_traj_dim + ROWS * len(game.support)))
    for k in range(REPETITIONS):
        noise = solver.coordinator_noise(game, iteration_stream(11, k, 0), ROWS)
        draws[k] = np.concatenate([noise.mean, noise.support.ravel()])
    assert_moments(draws, *joint_law(game, ROWS))


@pytest.mark.parametrize("name", GAMES)
def test_player_support_rows_have_the_exact_law(name):
    game, _ = GAMES[name]()
    rows = solver.draw_support_noise(game, [iteration_stream(12, 0, 1)],
                                     np.empty((1, REPETITIONS, len(game.support))))[0]
    mean, cov = joint_law(game, 1)
    sdim = game.state_traj_dim
    assert_moments(rows, mean[sdim:], cov[sdim:, sdim:])


MEAN_LIMIT = 4.0  # standard errors of the mean rows' mean
VARIANCE_RATIO = 0.05  # |sample variance / (C / M) - 1|; its standard error is 0.01


@pytest.mark.parametrize("m", [1, 64, 22500])
@pytest.mark.parametrize("name", GAMES)
def test_player_mean_rows_have_the_law_of_a_batch_mean(name, m):
    # the mean of m rows z ~ N(shift, C) is N(shift, C / m): each column of
    # many mean rows, drawn as one player's are, has that mean and variance,
    # and a column that carries no noise is the shift itself
    game, _ = GAMES[name]()
    law = game.support_law
    means = solver.draw_support_noise(game, [iteration_stream(13, m, 1)],
                                      np.empty((1, REPETITIONS, len(game.support))), m)[0]
    dev = means - law.shift
    var = np.diag(law.factor.T @ law.factor) / m
    noisy = var > 0
    assert noisy.any() and not dev[:, ~noisy].any()
    dev, var = dev[:, noisy], var[noisy]
    mean_z = np.abs(dev.mean(axis=0)) / np.sqrt(var / REPETITIONS)
    assert mean_z.max() <= MEAN_LIMIT, f"mean off by {mean_z.max():.1f} standard errors"
    ratio = (dev * dev).mean(axis=0) / var
    assert np.abs(ratio - 1.0).max() <= VARIANCE_RATIO, ratio


def test_without_support_the_coordinator_draws_only_its_mean():
    # an LQ game with state coefficients and no callable oracle: the
    # coordinator draws T n_s normals whatever its batch size
    rng = np.random.default_rng(2)
    game, _ = build_lq_game(random_lq_params(rng))
    while game.state_map is None:
        game, _ = build_lq_game(random_lq_params(rng))
    assert game.support == ()
    m = 10 ** 6
    noise = solver.coordinator_noise(game, iteration_stream(4, 0, 0), m)
    assert noise.support.shape == (m, 0)
    stream = iteration_stream(4, 0, 0)
    eta = stream.standard_normal(game.disturbance.dim)
    d = game.disturbance
    assert np.array_equal(noise.mean,
                          (d.mean + (eta * d.std) / np.sqrt(m)) @ game.lift.noise_map.T)


def state_cost_lq():
    """An LQ game with state coefficients whose only callable oracles are the
    players' state costs: the players read every column, no constraint
    closure reads any."""
    rng = np.random.default_rng(2)
    game, _ = build_lq_game(random_lq_params(rng))
    while game.state_map is None:
        game, _ = build_lq_game(random_lq_params(rng))
    game = replace(with_support_oracles(game, rng), constraints=game.constraints)
    assert game.support and not game.nonlinear_columns
    return game


def test_without_a_constraint_closure_the_coordinator_draws_only_its_mean():
    game = state_cost_lq()
    d = game.disturbance
    for m in (1, 1000, 10 ** 5):
        stream = iteration_stream(4, 0, 0)
        noise = solver.coordinator_noise(game, stream, m)
        # T n_s normals, whatever m: the stream is where that draw leaves it
        reference = iteration_stream(4, 0, 0)
        eta = reference.standard_normal(d.dim)
        assert stream.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(noise.mean,
                              (d.mean + d.std * eta / np.sqrt(m)) @ game.lift.noise_map.T)
        assert noise.support.shape == (m, len(game.support)) and not noise.support.any()


def test_without_a_constraint_closure_the_coordinator_mean_has_the_exact_law():
    game = state_cost_lq()
    sdim = game.state_traj_dim
    draws = np.array([solver.coordinator_noise(game, iteration_stream(11, k, 0), ROWS).mean
                      for k in range(REPETITIONS)])
    mean, cov = joint_law(game, ROWS)
    assert_moments(draws, mean[:sdim], cov[:sdim, :sdim])


def test_factors_of_a_singular_support_covariance():
    game, _ = full_support_lq()
    law, d, a = game.support_law, game.disturbance, game.support_noise_map_t
    c = a.T @ np.diag(d.std ** 2) @ a
    np.testing.assert_allclose(law.factor.T @ law.factor, c, rtol=0, atol=1e-12 * c.max())
    # the initial state's columns carry no noise: exactly zero in the factor
    assert not np.any(law.factor[:, :game.dynamics.state_dim])
    # mean(w) A given mean(z) is mean(z): K A^T projects onto the range of C,
    # and Q leaves nothing in the support
    np.testing.assert_allclose(a.T @ law.gain @ c, c, rtol=0, atol=1e-9 * c.max())
    np.testing.assert_allclose(a.T @ law.spread, 0.0, atol=1e-12)
    assert all(not x.flags.writeable for x in (law.factor, law.shift, law.gain, law.spread))


def test_zero_variance_law_draws_the_mean():
    game, _ = build_lq_game(replace(random_lq_params(np.random.default_rng(0)),
                                    noise_std=None))
    game = with_support_oracles(game, np.random.default_rng(1))
    assert game.support_law.factor.shape[0] == 0
    rows = solver.draw_support_noise(game, [iteration_stream(1, 0, 1)],
                                     np.empty((1, 5, len(game.support))))[0]
    assert np.array_equal(rows, np.broadcast_to(game.support_law.shift, rows.shape))


class TestDeclaration:
    def test_default_sampler_is_the_row_draw(self):
        rng = np.random.default_rng(3)
        mean, std = rng.normal(size=4), rng.uniform(0.0, 2.0, size=4)
        model = DisturbanceModel(dim=4, com_model=ComModel(), mean=mean, std=std)
        want = np.random.default_rng(9).standard_normal((7, 4))
        want *= std
        want += mean
        assert np.array_equal(model.sample(np.random.default_rng(9), 7), want)

    def test_replaced_sampler_keeps_the_declaration(self, reduced_microgrid):
        _, game, _ = reduced_microgrid
        # as the benchmark's tracer wraps the sampler
        wrapped = replace(game, disturbance=replace(
            game.disturbance, sample=lambda rng, n: game.disturbance.sample(rng, n)))
        assert wrapped.support_law is not None
        assert np.array_equal(wrapped.support_law.factor, game.support_law.factor)
        generic = generic_copy(game)
        assert generic.support_law is None
        assert generic.disturbance.sample is game.disturbance.sample

    def test_declared_arrays_are_read_only_copies(self):
        mean = np.zeros(2)
        model = DisturbanceModel(dim=2, com_model=ComModel(), mean=mean, std=np.ones(2))
        mean[0] = 5.0
        assert model.mean[0] == 0.0
        assert not model.mean.flags.writeable and not model.std.flags.writeable

    @pytest.mark.parametrize("kw, message", [
        (dict(mean=np.zeros(2)), "given together"),
        (dict(std=np.ones(2)), "given together"),
        (dict(mean=np.zeros(3), std=np.ones(2)), r"mean has shape \(3,\), expected \(2,\)"),
        (dict(mean=np.zeros(2), std=np.ones((2, 1))), "std has shape"),
        (dict(mean=np.array([0.0, np.nan]), std=np.ones(2)), "mean must be finite"),
        (dict(mean=np.zeros(2), std=np.array([1.0, np.inf])), "std must be finite"),
        (dict(mean=np.zeros(2), std=np.array([1.0, -0.5])), "nonnegative"),
        (dict(), "needs a sampler"),
    ], ids=["mean-alone", "std-alone", "mean-shape", "std-shape", "nan-mean", "inf-std",
            "negative-std", "nothing"])
    def test_bad_declaration_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            DisturbanceModel(dim=2, com_model=ComModel(), **kw)

