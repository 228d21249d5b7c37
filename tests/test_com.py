import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgames.com import (ComModel, UnderApproxOffsets,
                         estimate_constraint_satisfaction, estimate_epsilon_gap,
                         h_gaussian, h_inverse, wilson_interval)
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, constraint_sample, random_feasible_profile,
                          state_batch)

from conftest import reference_constraint_values


def make_tiny_game(constraints, noise_std=1.0, box=(0.0, 1.0)):
    """One player, one step, scalar state s_1 = w_0 (state starts at zero)."""
    dyn = TimeVaryingLinearDynamics(
        a_mats=np.ones((1, 1, 1)), b_mats=(np.zeros((1, 1, 1)),), s0=np.zeros(1))
    player = PlayerSpec(input_dim=1, box_lower=np.array([box[0]]),
                        box_upper=np.array([box[1]]),
                        cost_input_grad=lambda u: u[:1])
    dist = DisturbanceModel(
        dim=1, sample=lambda rng, n: rng.normal(0.0, noise_std, size=(n, 1)),
        com_model=ComModel())
    return GameSpec.build(dyn, (player,), tuple(constraints), dist)


class TestGaussianBound:
    def test_zero_is_one(self):
        assert h_gaussian(0.0) == 1.0

    def test_at_pi(self):
        assert h_gaussian(math.pi) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_gaussian(-0.1)

    @given(st.floats(0, 50), st.floats(0, 50))
    def test_monotone_nonincreasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert h_gaussian(lo) >= h_gaussian(hi)


class TestHInverse:
    def test_closed_form_at_point_one(self):
        expected = math.pi * math.sqrt(math.log(20.0) / 2.0)
        assert h_inverse(ComModel(), 0.1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.8449, abs=5e-4)

    def test_gamma_one_is_zero(self):
        assert h_inverse(ComModel(), 1.0) == 0.0

    def test_out_of_range_gamma(self):
        for gamma in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                h_inverse(ComModel(), gamma)

    @given(st.floats(1e-6, 0.999))
    @settings(max_examples=50)
    def test_round_trip(self, gamma):
        model = ComModel()
        theta = h_inverse(model, gamma)
        assert model.h(theta) <= gamma + 1e-12
        if theta > 1e-6:
            assert model.h(theta - 1e-6) >= gamma - 1e-9

    @given(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
    @settings(max_examples=50)
    def test_monotone_in_gamma(self, g1, g2):
        lo, hi = sorted((g1, g2))
        model = ComModel()
        assert h_inverse(model, lo) >= h_inverse(model, hi)

    def test_tabulated_bisection_matches_gaussian(self):
        thetas = np.linspace(0.0, 20.0, 4001)
        model = ComModel(kind="user-tabulated", theta_grid=thetas,
                         h_grid=[h_gaussian(t) for t in thetas])
        for gamma in (0.05, 0.1, 0.3, 0.9):
            assert h_inverse(model, gamma) == pytest.approx(
                h_inverse(ComModel(), gamma), abs=2e-2)

    def test_tabulated_insufficient_coverage(self):
        model = ComModel(kind="user-tabulated", theta_grid=[0.0, 1.0],
                         h_grid=[1.0, 0.5])
        with pytest.raises(ValueError):
            h_inverse(model, 0.1)

    def test_conservative_versus_exact_normal_quantile(self):
        quantile = NormalDist().inv_cdf
        for gamma in (0.01, 0.05, 0.1, 0.2):
            assert h_inverse(ComModel(), gamma) >= quantile(1.0 - gamma)


class TestOffsetsAndTightenedValues:
    def test_offsets_formula(self):
        off = UnderApproxOffsets.from_tolerances(ComModel(), [0.1, 0.1], betas=[0.0, 0.5])
        base = h_inverse(ComModel(), 0.1)
        assert np.allclose(off.offsets, [base, base + 0.5])

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError):
            UnderApproxOffsets(np.array([-0.1]))

    def test_gamma_near_one_zero_offset(self):
        con = CouplingConstraintSpec(gamma=0.999, com_scale=0.0,
                                     input_value=lambda u: -1.3,
                                     input_grad=lambda u: np.zeros(1))
        game = make_tiny_game([con])
        off = UnderApproxOffsets.from_game(game)
        u, w = np.zeros(1), np.zeros(1)
        assert np.array_equal(constraint_sample(game, u, w) + off.offsets,
                              constraint_sample(game, u, w))

    def test_offset_arithmetic(self):
        con = CouplingConstraintSpec(gamma=0.1, input_value=lambda u: -5.0,
                                     input_grad=lambda u: np.zeros(1))
        game = make_tiny_game([con])
        off = UnderApproxOffsets.from_tolerances(ComModel(), [0.1])
        val = constraint_sample(game, np.zeros(1), np.zeros(1)) + off.offsets
        assert val[0] == pytest.approx(-5.0 + h_inverse(ComModel(), 0.1))


class TestSatisfaction:
    def test_deterministic_always_satisfied(self):
        con = CouplingConstraintSpec(gamma=0.1, input_value=lambda u: -1.0,
                                     input_grad=lambda u: np.zeros(1))
        game = make_tiny_game([con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 500,
                                               np.random.default_rng(0))
        assert rep.p_hat[0] == 1.0
        assert rep.all_met

    def test_normal_quantile_frequency(self):
        # value = s_1 - q with s_1 standard normal: satisfied with prob 0.9
        q = NormalDist().inv_cdf(0.9)
        con = CouplingConstraintSpec(gamma=0.2, state_value=lambda S: S[:, 1] - q,
                                     state_grad=lambda S: np.array([0.0, 1.0]))
        game = make_tiny_game([con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 40000,
                                               np.random.default_rng(0))
        assert rep.p_hat[0] == pytest.approx(0.9, abs=0.01)
        assert rep.ci_lower[0] < 0.9 < rep.ci_upper[0]

    def test_single_sample_is_binary(self):
        con = CouplingConstraintSpec(gamma=0.5, state_value=lambda S: S[:, 1],
                                     state_grad=lambda S: np.array([0.0, 1.0]))
        game = make_tiny_game([con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 1,
                                               np.random.default_rng(2))
        assert rep.p_hat[0] in (0.0, 1.0)

    def test_sample_count_must_be_positive(self):
        game = make_tiny_game([])
        with pytest.raises(ValueError):
            estimate_constraint_satisfaction(game, np.zeros(1), 0,
                                             np.random.default_rng(0))

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.8 < lo < 0.9 < hi < 0.97
        lo_all, hi_all = wilson_interval(100, 100)
        assert hi_all == 1.0 and lo_all > 0.95


class TestEpsilonGap:
    def make_game_with_offset_value(self):
        # deterministic constraint pinned at exactly minus its offset
        gamma = 0.1
        offset = h_inverse(ComModel(), gamma)
        con = CouplingConstraintSpec(gamma=gamma, com_scale=1.0,
                                     input_value=lambda u: -offset,
                                     input_grad=lambda u: np.zeros(1))
        return make_tiny_game([con]), gamma

    def test_tight_construction_recovers_gamma(self):
        game, gamma = self.make_game_with_offset_value()
        est = estimate_epsilon_gap(game, np.zeros(1), [np.array([0.5])], 200,
                                   np.random.default_rng(3), UnderApproxOffsets.from_game(game))
        # P{value <= 0} = 1 and E[tightened] = 0, so the term is exactly gamma
        assert est.m_hat[0] == pytest.approx(gamma, rel=1e-12)

    def test_more_candidates_never_decrease(self):
        game, _ = self.make_game_with_offset_value()
        rng = np.random.default_rng(4)
        cands = [np.array([x]) for x in (0.2, 0.5, 0.9)]
        prev = -1.0
        for count in (1, 2, 3):
            est = estimate_epsilon_gap(game, np.zeros(1), cands[:count], 100,
                                       np.random.default_rng(5),
                                       UnderApproxOffsets.from_game(game))
            assert est.m_hat[0] >= prev - 1e-15
            prev = est.m_hat[0]

    def test_matches_relifting_reference(self, reduced_microgrid):
        # the sample set is lifted once; re-lifting it per probe gives the same bits
        _, game, offsets = reduced_microgrid
        rng = np.random.default_rng(6)
        u_star = random_feasible_profile(game, rng)
        cands = [random_feasible_profile(game, rng) for _ in range(3)]
        est = estimate_epsilon_gap(game, u_star, cands, 500, np.random.default_rng(7),
                                   offsets=offsets)
        w = game.disturbance.sample(np.random.default_rng(7), 500)
        gammas = np.array([c.gamma for c in game.constraints])
        m_ref = np.zeros(game.constraint_count)
        for cand in cands:
            for sl in game.player_slices:
                probe = u_star.copy()
                probe[sl] = cand[sl]
                raw = reference_constraint_values(game, probe, state_batch(game, probe, w))
                e_g = raw.mean(axis=0) + offsets.offsets
                m_ref = np.maximum(m_ref, np.abs(1.0 - gammas - (raw <= 0.0).mean(axis=0) - e_g))
        assert np.array_equal(est.m_hat, m_ref)
        assert est.candidates_evaluated == 3 * game.n_players

    def test_empty_candidates_rejected(self):
        game, _ = self.make_game_with_offset_value()
        with pytest.raises(ValueError):
            estimate_epsilon_gap(game, np.zeros(1), [], 100, np.random.default_rng(0),
                                 UnderApproxOffsets.from_game(game))

    def test_profile_outside_boxes_rejected(self):
        game, _ = self.make_game_with_offset_value()
        with pytest.raises(ValueError, match="profile must lie in the local strategy sets"):
            estimate_epsilon_gap(game, np.array([100.0]), [np.array([0.5])], 100,
                                 np.random.default_rng(0), UnderApproxOffsets.from_game(game))

    def test_infeasible_candidate_rejected(self):
        game, _ = self.make_game_with_offset_value()
        with pytest.raises(ValueError):
            estimate_epsilon_gap(game, np.zeros(1), [np.array([7.0])], 100,
                                 np.random.default_rng(0), UnderApproxOffsets.from_game(game))
