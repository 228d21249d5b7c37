import math

import numpy as np
import pytest

from ccgames.game import random_feasible_profile, state_batch
from ccgames.microgrid import (MicrogridParams, build_microgrid_game,
                               default_tou_tariff, household_cost_value)

from conftest import central_difference, relative_error, sample_operator


def paper_params(**kw):
    base = dict(n_households=20, horizon=24, delta_t=1.0)
    base.update(kw)
    return MicrogridParams(**base)


class TestParams:
    def test_paper_values_accepted(self):
        p = paper_params()
        assert p.efficiency == 5e-5 and p.alpha_discharge == 80.0

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            paper_params(terminal_band=0.5)   # exceeds room to the bounds
        with pytest.raises(ValueError):
            paper_params(terminal_band=0.0)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            paper_params(soc_desired=0.05)    # below soc_min

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            paper_params(gamma_soc=1.5)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            paper_params(demand=-np.ones(24))


class TestTariff:
    def test_early_hours_rate(self):
        assert paper_params().tou_tariff[3] == pytest.approx(15.3)

    def test_evening_peak_rate(self):
        assert paper_params().tou_tariff[18] == pytest.approx(45.6)

    def test_aggregate_term(self):
        # the price rises by tariff_coupling / n per unit of aggregate exchange:
        # 20 more units from household 1 at hour 6 raise it by 1.0, and so
        # lower household 0's input-cost gradient there by 1.0
        p = paper_params()
        game, _ = build_microgrid_game(p)
        u = np.zeros(game.input_dim)
        more = u.copy()
        more[game.player_slices[1].start + 6] -= 20.0
        at = game.player_slices[0].start + 6
        assert game.cost_input_grad(more)[at] == pytest.approx(game.cost_input_grad(u)[at] - 1.0)

    def test_band_table_covers_day(self):
        tou = default_tou_tariff(24, 1.0)
        assert tou[0] == 15.3 and tou[5] == 35.6 and tou[15] == 23.3
        assert tou[17] == 45.6 and tou[22] == 27.6

    def test_coarse_sampling_uses_hour_of_day(self):
        tou = default_tou_tariff(12, 2.0)
        assert tou[0] == 15.3 and tou[9] == 45.6  # t=9 -> hour 18


class TestConstruction:
    def test_paper_constraint_count(self):
        game, offsets = build_microgrid_game(paper_params())
        assert game.constraint_count == 2 * 24 + 1 == 49
        assert offsets.offsets.shape == (49,)

    def test_randomized_construction_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            T = int(rng.integers(2, 9))
            p = MicrogridParams(n_households=n, horizon=T, delta_t=24.0 / T)
            game, offsets = build_microgrid_game(p)
            assert game.n_players == n
            assert game.constraint_count == 2 * T + 1
            assert game.input_dim == n * T
            for i, pl in enumerate(game.players):
                assert np.array_equal(pl.box_lower, np.zeros(T))
                assert np.array_equal(pl.box_upper, p.demand[i])
            gammas = [c.gamma for c in game.constraints]
            assert gammas[:2 * T] == [p.gamma_soc / 2] * (2 * T)
            assert gammas[-1] == p.gamma_terminal

    def test_band_coefficients_are_signed_unit_rows(self):
        # the bytes of +-1.0 * np.eye(T + 1)[t]: the lower band's zeros are -0.0
        T = 24
        game, _ = build_microgrid_game(paper_params())
        for k, c in enumerate(game.constraints[:2 * T]):
            sign, t = (1.0, k + 1) if k < T else (-1.0, k - T + 1)
            assert c.state_coeffs.tobytes() == (sign * np.eye(T + 1)[t]).tobytes()
        assert np.signbit(game.constraints[T].state_coeffs).all()

    def test_offsets_strictly_positive(self):
        _, offsets = build_microgrid_game(paper_params())
        assert np.all(offsets.offsets > 0)

    def test_zero_flow_keeps_soc(self):
        p = paper_params(renewable_mean=np.zeros(24), renewable_std=np.full(24, 1e-12))
        game, _ = build_microgrid_game(p)
        states = state_batch(game, np.zeros(game.input_dim), np.zeros((1, 24)))
        assert np.allclose(states[0], p.soc_initial)

    def test_lift_matches_simulation(self):
        from ccgames.dynamics import simulate_state

        game, _ = build_microgrid_game(MicrogridParams(n_households=3, horizon=6,
                                                       delta_t=4.0))
        rng = np.random.default_rng(1)
        u = random_feasible_profile(game, rng)
        w = game.disturbance.sample(rng, 1)[0]
        assert np.allclose(state_batch(game, u, w[None, :])[0],
                           simulate_state(game.dynamics, u, w), atol=1e-12)


class TestCostOracle:
    def test_full_supply_kills_utility_term(self):
        # u = demand: zero grid exchange, log(1) = 0 utility, zero tariff cost
        p = MicrogridParams(n_households=1, horizon=1, delta_t=1.0,
                            renewable_mean=np.array([0.0]),
                            renewable_std=np.array([0.1]))
        d = p.demand[0, 0]
        u = np.array([d])
        cost = household_cost_value(0, u, np.zeros(1), p)
        soc_dev = p.soc_initial - p.efficiency * d - p.soc_desired
        expected = (p.alpha_discharge * d ** 2 + p.beta_discharge * d
                    + 0.5 * p.alpha_battery * soc_dev ** 2)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_terminal_term_vanishes_on_target(self):
        p = MicrogridParams(n_households=1, horizon=1, delta_t=1.0)
        u = np.zeros(1)
        # disturbance exactly zero, start at the desired level: term 3 = 0
        cost = household_cost_value(0, u, np.zeros(1), p)
        d = p.demand[0, 0]
        price = p.tou_tariff[0] + p.tariff_coupling * d
        expected = price * d - p.alpha_utility * math.log(1.0 + d)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_single_step_hand_value(self):
        p = MicrogridParams(n_households=1, horizon=1, delta_t=1.0,
                            demand=np.array([2.0]))
        u = np.array([0.5])
        w = np.array([3e-5])
        exchange = 1.5
        price = p.tou_tariff[0] + 1.0 * exchange
        term1 = price * exchange + 80.0 * 0.25 + 10.0 * 0.5
        term2 = -50.0 * math.log(2.5)
        soc_final = 0.5 + 3e-5 - 5e-5 * 0.5
        term3 = 0.5 * (soc_final - 0.5) ** 2
        assert household_cost_value(0, u, w, p) == pytest.approx(
            term1 + term2 + term3, rel=1e-12)

    def test_two_household_hand_value(self):
        # household 0 pays its own degradation only: household 1's discharge
        # enters its cost through the price and the shared state alone
        p = MicrogridParams(n_households=2, horizon=2, delta_t=12.0,
                            demand=np.array([1.0, 2.0]), tou_tariff=np.array([20.0, 30.0]),
                            renewable_mean=np.zeros(2), renewable_std=np.full(2, 0.1))
        u = np.array([0.2, 0.0, 0.1, 0.1])
        w = np.array([1e-4, 0.0])
        exchange0, exchange1 = np.array([0.8, 2.0]), np.array([0.9, 1.9])
        price = np.array([20.0, 30.0]) + 0.5 * (exchange0 + exchange1)
        term1 = (price * exchange0).sum() + 80.0 * 0.04 + 10.0 * 0.2
        term2 = -50.0 * math.log(1.0 + 2.8)
        soc_final = 0.5 + 1e-4 - 5e-5 * 12.0 * 0.4
        term3 = 0.5 * (soc_final - 0.5) ** 2
        assert household_cost_value(0, u, w, p) == pytest.approx(
            term1 + term2 + term3, rel=1e-12)

    def test_log_domain_guard(self):
        p = MicrogridParams(n_households=1, horizon=1, delta_t=1.0,
                            demand=np.array([0.2]))
        with pytest.raises(ValueError):
            # strategy outside the box drives exchange below the log domain
            household_cost_value(0, np.array([1.5]), np.zeros(1), p)


class TestGradients:
    def test_cost_gradient_matches_finite_differences(self):
        p = MicrogridParams(n_households=4, horizon=6, delta_t=4.0)
        game, _ = build_microgrid_game(p)
        rng = np.random.default_rng(2)
        for trial in range(20):
            u = random_feasible_profile(game, rng) * 0.9  # keep off the kink
            w = game.disturbance.sample(rng, 1)[0]
            grad = sample_operator(game, u, w)[0]
            i = trial % game.n_players
            sl = game.player_slices[i]

            def cost_block(block, i=i, sl=sl):
                probe = u.copy()
                probe[sl] = block
                return household_cost_value(i, probe, w, p)

            fd = central_difference(cost_block, u[sl], h=1e-6)
            assert relative_error(grad[sl], fd) < 1e-4

    def test_terminal_cost_gradient_form(self):
        # gradient of the terminal term is alpha_bat * (SoC_T - target) times
        # the terminal row of the player's input map
        p = MicrogridParams(n_households=2, horizon=3, delta_t=8.0)
        game, _ = build_microgrid_game(p)
        rng = np.random.default_rng(3)
        u = random_feasible_profile(game, rng)
        w = game.disturbance.sample(rng, 1)[0]
        states = state_batch(game, u, w[None, :])
        soc_dev = states[0, -1] - p.soc_desired
        grad = sample_operator(game, u, w)[0]
        for i, sl in enumerate(game.player_slices):
            input_part = game.cost_input_grad(u)[sl]
            terminal_part = grad[sl] - input_part
            expected = p.alpha_battery * soc_dev * game.lift.input_maps[i][-1]
            assert np.allclose(terminal_part, expected, atol=1e-12)

    def test_constraint_gradients_match_finite_differences(self):
        p = MicrogridParams(n_households=3, horizon=5, delta_t=4.0)
        game, _ = build_microgrid_game(p)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = random_feasible_profile(game, rng)
            w = game.disturbance.sample(rng, 1)[0]
            jac = sample_operator(game, u, w)[1]
            for j in (0, p.horizon - 1, game.constraint_count - 1):
                fd = central_difference(
                    lambda v, j=j: float(sample_operator(game, v, w)[2][j]), u)
                assert np.linalg.norm(jac[:, j] - fd) <= 1e-4 * max(
                    1e-6, np.linalg.norm(jac[:, j]))

    def test_terminal_kink_uses_zero_subgradient(self):
        p = MicrogridParams(n_households=1, horizon=2, delta_t=12.0,
                            renewable_mean=np.zeros(2),
                            renewable_std=np.full(2, 1e-9))
        game, _ = build_microgrid_game(p)
        # zero strategies, zero noise: SoC_T = desired exactly -> at the kink
        jac = sample_operator(game, np.zeros(game.input_dim), np.zeros(2))[1]
        assert not jac[:, -1].any()
