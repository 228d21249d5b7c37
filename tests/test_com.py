import json
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgames import com
from ccgames.com import (ComModel, UnderApproxOffsets,
                         estimate_constraint_satisfaction, estimate_epsilon_gap,
                         h_gaussian, h_inverse, wilson_interval, wilson_intervals)
from ccgames.dynamics import TimeVaryingLinearDynamics
from ccgames.game import (CouplingConstraintSpec, DisturbanceModel, GameSpec,
                          PlayerSpec, random_feasible_profile, state_batch)

from ccgames.config import build_game, parse_config, parse_config_dict
from ccgames.lqgame import build_lq_game

from conftest import (CONFIG_DIR, random_dynamics, random_lq_params,
                      reference_constraint_values, sample_operator)


def make_tiny_game(constraints, noise_std=1.0, box=(0.0, 1.0)):
    """One player, one step, scalar state s_1 = w_0 (state starts at zero)."""
    dyn = TimeVaryingLinearDynamics(
        a_mats=np.ones((1, 1, 1)), b_mats=(np.zeros((1, 1, 1)),), s0=np.zeros(1))
    player = PlayerSpec(input_dim=1, box_lower=np.array([box[0]]),
                        box_upper=np.array([box[1]]))
    dist = DisturbanceModel(
        dim=1, sample=lambda rng, n: rng.normal(0.0, noise_std, size=(n, 1)),
        com_model=ComModel())
    return GameSpec(dyn, (player,), tuple(constraints), dist,
                    cost_input_grad=lambda u: u[:1])


@pytest.fixture(scope="module")
def branch_game():
    """Two players over three steps with every kind of constraint part: state
    coefficients together with a value closure on two support columns, input
    coefficients, and a deterministic constant."""
    dyn = random_dynamics(np.random.default_rng(11), n_s=2, n_players=2, horizon=3)
    rng = np.random.default_rng(12)
    players = tuple(PlayerSpec(input_dim=n, box_lower=-np.ones(3 * n),
                               box_upper=np.ones(3 * n)) for n in dyn.input_dims)
    rho = np.array([0.7, -0.4])
    cons = (CouplingConstraintSpec(gamma=0.2, state_coeffs=rng.normal(size=8), offset=0.3,
                                   state_value=lambda S: np.abs(S) @ rho,
                                   state_grad=lambda S: np.sign(S) * rho),
            CouplingConstraintSpec(gamma=0.1, input_coeffs=rng.normal(size=dyn.input_dim_total),
                                   offset=-0.2),
            CouplingConstraintSpec(gamma=0.3, com_scale=0.0, offset=-1.0))
    dist = DisturbanceModel(dim=6, com_model=ComModel(), mean=np.zeros(6), std=np.full(6, 0.5))
    game = GameSpec(dyn, players, cons, dist, state_support=(3, 7))
    return game, UnderApproxOffsets.from_game(game)


def relifting_reference(game, u_star, cands, n_samples, seed, offsets):
    """The gap terms with every (candidate, player) probe lifted on its own:
    the whole sample set moved onto the probe's trajectory, every constraint
    evaluated one at a time, then the two batch means."""
    w = game.disturbance.sample(np.random.default_rng(seed), n_samples)
    gammas = np.array([c.gamma for c in game.constraints])
    m_ref = np.zeros(game.constraint_count)
    for cand in cands:
        for sl in game.player_slices:
            probe = u_star.copy()
            probe[sl] = cand[sl]
            raw = reference_constraint_values(game, probe, state_batch(game, probe, w))
            e_g = raw.mean(axis=0) + offsets.offsets
            m_ref = np.maximum(m_ref, np.abs(1.0 - gammas - (raw <= 0.0).mean(axis=0) - e_g))
    return m_ref


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

    def test_tabulated_inverse_matches_gaussian(self):
        thetas = np.linspace(0.0, 20.0, 4001)
        model = ComModel(kind="user-tabulated", theta_grid=thetas,
                         h_grid=[h_gaussian(t) for t in thetas])
        for gamma in (0.05, 0.1, 0.3, 0.9):
            assert h_inverse(model, gamma) == pytest.approx(
                h_inverse(ComModel(), gamma), abs=2e-2)

    def test_tabulated_exact_crossing(self):
        # the second segment falls from 0.3 at 1 to 0 at 4: 0.15 at 2.5
        model = ComModel(kind="user-tabulated", theta_grid=[0.0, 1.0, 4.0],
                         h_grid=[1.0, 0.3, 0.0])
        assert h_inverse(model, 0.15) == 2.5
        assert h_inverse(model, 0.3) == 1.0
        assert h_inverse(model, 1e-300) == 4.0

    @given(st.lists(st.tuples(st.floats(1e-6, 1e3), st.floats(0.0, 1.0)), min_size=1,
                    max_size=6), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_tabulated_inverse_on_random_tables(self, steps, gamma):
        # h(theta) <= gamma at the inverse, which is the crossing in exact
        # arithmetic to within rounding
        widths, drops = np.array(steps).T
        hg = np.concatenate(([1.0], 1.0 - np.cumsum(drops) / max(drops.sum(), 1.0)))
        model = ComModel(kind="user-tabulated",
                         theta_grid=np.concatenate(([0.0], np.cumsum(widths))),
                         h_grid=np.minimum.accumulate(np.clip(hg, 0.0, 1.0)))
        if model.h_grid[-1] > gamma:
            with pytest.raises(ValueError, match="cannot cover"):
                h_inverse(model, gamma)
            return
        theta = h_inverse(model, gamma)
        assert model.h(theta) <= gamma
        i = int(np.argmax(model.h_grid <= gamma))
        tg, hg = ([Fraction(x) for x in grid] for grid in (model.theta_grid, model.h_grid))
        exact = tg[i] if i == 0 else \
            tg[i - 1] + (tg[i] - tg[i - 1]) * (hg[i - 1] - Fraction(gamma)) / (hg[i - 1] - hg[i])
        assert theta == pytest.approx(float(exact), rel=1e-12, abs=1e-300)

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
        off = UnderApproxOffsets.from_tolerances(ComModel(), [0.1, 0.2], scales=[1.0, 0.5])
        assert np.allclose(off.offsets, [h_inverse(ComModel(), 0.1),
                                         0.5 * h_inverse(ComModel(), 0.2)])

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError):
            UnderApproxOffsets(np.array([-0.1]))

    def test_gamma_near_one_zero_offset(self):
        con = CouplingConstraintSpec(gamma=0.999, com_scale=0.0, offset=-1.3)
        game = make_tiny_game([con])
        off = UnderApproxOffsets.from_game(game)
        u, w = np.zeros(1), np.zeros(1)
        assert np.array_equal(sample_operator(game, u, w)[2] + off.offsets,
                              sample_operator(game, u, w)[2])

    def test_offset_arithmetic(self):
        con = CouplingConstraintSpec(gamma=0.1, offset=-5.0)
        game = make_tiny_game([con])
        off = UnderApproxOffsets.from_tolerances(ComModel(), [0.1])
        val = sample_operator(game, np.zeros(1), np.zeros(1))[2] + off.offsets
        assert val[0] == pytest.approx(-5.0 + h_inverse(ComModel(), 0.1))


def fixed_block_rows(rows, widths):
    """A stand-in for ``com._block_rows`` that answers ``rows`` for any width
    and appends each width it is asked about to ``widths``."""
    def block_rows(width):
        widths.append(width)
        return rows

    return block_rows


def satisfaction_game(name, request):
    """A shipped config's game, a noisy LQ game or ``branch_game``."""
    if name == "branch_game":
        return request.getfixturevalue(name)[0]
    if name == "noisy_lq":
        return build_lq_game(random_lq_params(np.random.default_rng(5)))[0]
    return build_game(parse_config(CONFIG_DIR / name))[0]


class TestSatisfaction:
    @pytest.mark.parametrize("name", ["microgrid_reduced.json", "microgrid_paper.json",
                                      "quadratic_oracle.json", "noisy_lq", "branch_game"])
    def test_row_blocks_do_not_change_bits(self, name, request, monkeypatch):
        # trajectories and values are row-wise and the hits integer sums, so
        # one row per block, the default budget and all rows in one block give
        # the same bytes; the sample spans two budget blocks and one row more
        game = satisfaction_game(name, request)
        assert game.disturbance.dim > 0
        width = max(game.state_traj_dim, game.constraint_count)
        budget = com._block_rows(width)
        assert budget * width <= com.BLOCK_FLOATS
        n = 2 * budget + 1
        u = random_feasible_profile(game, np.random.default_rng(3))

        def report():
            rep = estimate_constraint_satisfaction(game, u, n, np.random.default_rng(4))
            return [a.tobytes() for a in (rep.p_hat, rep.ci_lower, rep.ci_upper)]

        default = report()
        for rows in (1, n):
            widths = []
            monkeypatch.setattr(com, "_block_rows", fixed_block_rows(rows, widths))
            assert report() == default
            assert widths == [width]

    def test_deterministic_always_satisfied(self):
        con = CouplingConstraintSpec(gamma=0.1, offset=-1.0)
        game = make_tiny_game([con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 500,
                                               np.random.default_rng(0))
        assert rep.p_hat[0] == 1.0
        assert rep.all_met

    def test_normal_quantile_frequency(self):
        # value = s_1 - q with s_1 standard normal: satisfied with prob 0.9
        q = NormalDist().inv_cdf(0.9)
        con = CouplingConstraintSpec(gamma=0.2, state_coeffs=[0.0, 1.0], offset=-q)
        game = make_tiny_game([con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 40000,
                                               np.random.default_rng(0))
        assert rep.p_hat[0] == pytest.approx(0.9, abs=0.01)
        assert rep.ci_lower[0] < 0.9 < rep.ci_upper[0]

    def test_single_sample_is_binary(self):
        con = CouplingConstraintSpec(gamma=0.5, state_coeffs=[0.0, 1.0])
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

    @pytest.mark.parametrize("n", [1, 7, 10000])
    def test_wilson_intervals_equal_scalar_bit_for_bit(self, n):
        counts = np.arange(n + 1)
        lo, hi = wilson_intervals(counts, n)
        scalar = np.array([wilson_interval(int(k), n) for k in counts])
        assert np.array_equal(lo, scalar[:, 0]) and np.array_equal(hi, scalar[:, 1])

    def test_report_uses_the_intervals_of_its_counts(self):
        con = CouplingConstraintSpec(gamma=0.5, state_coeffs=[0.0, 1.0])
        game = make_tiny_game([con, con])
        rep = estimate_constraint_satisfaction(game, np.zeros(1), 37, np.random.default_rng(4))
        hits = round(rep.p_hat[0] * 37)
        assert (rep.ci_lower[0], rep.ci_upper[0]) == wilson_interval(hits, 37)


class TestEpsilonGap:
    def make_game_with_offset_value(self):
        # deterministic constraint pinned at exactly minus its offset
        gamma = 0.1
        offset = h_inverse(ComModel(), gamma)
        con = CouplingConstraintSpec(gamma=gamma, com_scale=1.0, offset=-offset)
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

    @pytest.mark.parametrize("fixture", ["reduced_microgrid", "branch_game", "quadratic_game"])
    def test_matches_relifting_reference(self, fixture, request):
        # the noise part is evaluated once and each probe is a shift of it; per
        # probe re-lifting rounds differently, by a few ulps
        *_, game, offsets = request.getfixturevalue(fixture)
        rng = np.random.default_rng(6)
        u_star = random_feasible_profile(game, rng)
        cands = [random_feasible_profile(game, rng) for _ in range(3)]
        est = estimate_epsilon_gap(game, u_star, cands, 500, np.random.default_rng(7),
                                   offsets=offsets)
        m_ref = relifting_reference(game, u_star, cands, 500, 7, offsets)
        assert np.abs(est.m_hat - m_ref).max() <= 1e-14
        assert est.candidates_evaluated == 3 * game.n_players

    def test_exact_ties_match_reference_bit_for_bit(self):
        # integer draws, unit coefficients, integer offsets and an integer
        # closure: every value is an exact integer, some rows sit exactly on 0,
        # and means of 512 integers are exact, so the counts and means of the
        # shifted columns must equal the reference bit for bit
        dyn = TimeVaryingLinearDynamics(a_mats=np.ones((1, 1, 1)),
                                        b_mats=(np.ones((1, 1, 1)),), s0=np.zeros(1))
        player = PlayerSpec(input_dim=1, box_lower=np.array([0.0]), box_upper=np.array([4.0]))
        dist = DisturbanceModel(
            dim=1, com_model=ComModel(),
            sample=lambda rng, n: rng.integers(-3, 4, size=(n, 1)).astype(float))
        cons = (CouplingConstraintSpec(gamma=0.1, state_coeffs=[0.0, 1.0], offset=-2.0),
                CouplingConstraintSpec(gamma=0.2, state_coeffs=[0.0, -1.0], offset=1.0),
                CouplingConstraintSpec(gamma=0.3, offset=-2.0,
                                       state_value=lambda S: np.abs(S[:, 1]),
                                       state_grad=lambda S: np.sign(S) * [0.0, 1.0]))
        game = GameSpec(dyn, (player,), cons, dist)
        offsets = UnderApproxOffsets.from_game(game)
        cands = [np.array([x]) for x in (0.0, 1.0, 3.0, 4.0)]
        est = estimate_epsilon_gap(game, np.array([2.0]), cands, 512,
                                   np.random.default_rng(8), offsets)
        w = game.disturbance.sample(np.random.default_rng(8), 512)
        assert np.any(state_batch(game, np.array([1.0]), w)[:, 1] == 2.0)
        assert np.array_equal(est.m_hat, relifting_reference(
            game, np.array([2.0]), cands, 512, 8, offsets))

    @pytest.mark.parametrize("fixture", ["reduced_microgrid", "branch_game"])
    def test_probe_blocks_do_not_change_bits(self, fixture, request, monkeypatch):
        # the value closures are row-wise, so one probe per closure call, three
        # (a short last block) and all probes in one call give the same bits as
        # the default blocks; a block of probes is sized by their support rows
        *_, game, offsets = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        u_star = random_feasible_profile(game, rng)
        cands = [random_feasible_profile(game, rng) for _ in range(4)]

        def m_hat():
            return estimate_epsilon_gap(game, u_star, cands, 300, np.random.default_rng(10),
                                        offsets).m_hat

        default = m_hat()
        for block in (1, 3, 4 * game.n_players):
            widths = []
            monkeypatch.setattr(com, "_block_rows", fixed_block_rows(block, widths))
            assert np.array_equal(m_hat(), default)
            assert widths == [300 * len(game.support)]

    def test_game_without_coupled_constraints_has_empty_terms(self):
        # the oracle with its one constraint dropped: nothing to certify
        doc = json.loads((CONFIG_DIR / "quadratic_oracle.json").read_text())
        doc["game"]["constraints"] = []
        game, offsets = build_game(parse_config_dict(doc))
        assert game.constraint_count == 0
        u_star = np.zeros(game.input_dim)
        cands = [random_feasible_profile(game, np.random.default_rng(j)) for j in range(4)]
        est = estimate_epsilon_gap(game, u_star, cands, 50, np.random.default_rng(1), offsets)
        assert est.m_hat.shape == (0,)
        assert est.candidates_evaluated == 4 * game.n_players

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
        offsets = UnderApproxOffsets.from_game(game)

        def gap(*candidates):
            return estimate_epsilon_gap(game, np.zeros(1), list(candidates), 100,
                                        np.random.default_rng(0), offsets)

        # every candidate is checked, the last as the first, with the same tolerance
        for candidates in ([np.array([7.0])], [np.array([0.5]), np.array([1.0 + 1e-4])],
                           [np.array([0.5]), np.array([np.nan])]):
            with pytest.raises(ValueError, match="candidates must lie in the local strategy sets"):
                gap(*candidates)
        with pytest.raises(ValueError, match="candidate dimension does not match the profile"):
            gap(np.array([0.5]), np.array([0.5, 0.5]))
        assert gap(np.array([0.5]), np.array([1.0 + 1e-9])).candidates_evaluated == 2
