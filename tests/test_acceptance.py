"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line. The heavy fixtures (the closed-form
oracle run and the 10^4-iteration reduced benchmark run) are session-scoped
and shared across criteria.
"""

import resource
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.com import (ComModel, estimate_constraint_satisfaction, h_inverse)
from ccgames.config import build_game, parse_config
from ccgames.dynamics import build_compact_lift, simulate_state
from ccgames.game import random_feasible_profile
from ccgames.microgrid import household_cost_value
from ccgames.rng import substream
from ccgames.solver import (estimate_lipschitz, estimator_diagnostics, initial_state,
                            validate_config)

from conftest import (CONFIG_DIR, apply_lift, central_difference, random_dynamics,
                      relative_error, sample_operator)

pytestmark = pytest.mark.slow


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def oracle_run():
    cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
    game, offsets = build_game(cfg)
    t0 = time.time()
    trace = solver.run(game, offsets, cfg.solver)
    return {
        "cfg": cfg, "game": game, "trace": trace,
        "residuals": np.array([r.residual for r in trace.records]),
        "seconds": time.time() - t0,
    }


@pytest.fixture(scope="session")
def benchmark_run(reduced_microgrid):
    """The 10^4-iteration ``solver.run`` of the reduced shared-battery game,
    whose observer checks criterion 8's invariants at each iterate against
    the one before; the residuals, step sizes and batches are its records'."""
    params, game, offsets = reduced_microgrid
    cfg = parse_config(CONFIG_DIR / "microgrid_reduced.json").solver
    prev = initial_state(game, cfg)
    ok = dict(identity_ok=True, feasible_ok=True, multiplier_ok=True)

    def check(state, record):
        nonlocal prev
        expect_u = (1.0 - cfg.delta) * prev.u + cfg.delta * prev.u_avg_prev
        expect_lam = (1.0 - cfg.delta) * prev.lam + cfg.delta * prev.lam_avg_prev
        ok["identity_ok"] &= np.array_equal(state.u_avg_prev, expect_u) \
            and np.array_equal(state.lam_avg_prev, expect_lam)
        ok["multiplier_ok"] &= bool(np.all(state.lam >= 0.0))
        ok["feasible_ok"] &= bool(np.all((game.box_lower <= state.u)
                                         & (state.u <= game.box_upper)))
        prev = state

    usage, t0 = resource.getrusage(resource.RUSAGE_SELF), time.time()
    trace = solver.run(game, offsets, cfg, observe=check)
    seconds, after = time.time() - t0, resource.getrusage(resource.RUSAGE_SELF)
    # the observer saw every iterate, the last one included
    assert prev is trace.final_state and prev.k == cfg.max_iterations, trace.termination_reason
    records = trace.records[:-1]
    return {
        "params": params, "game": game, "offsets": offsets, "cfg": cfg,
        "state": trace.final_state, "residuals": np.array([r.residual for r in records]),
        "alphas": np.array([r.alpha for r in records]),
        "batches": np.array([r.batch for r in records]), **ok, "seconds": seconds,
        "system_seconds": after.ru_stime - usage.ru_stime,
        "minor_faults": after.ru_minflt - usage.ru_minflt,
    }


def trailing_mean(values, window=50):
    return np.convolve(values, np.ones(window) / window, mode="valid")


class TestAcceptance:
    def test_01_lift_correctness(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        worst = 0.0
        for _ in range(100):
            dyn = random_dynamics(rng)   # n_s <= 4, N <= 4, T <= 10
            lift = build_compact_lift(dyn)
            u = rng.normal(size=dyn.input_dim_total)
            w = rng.normal(size=dyn.horizon * dyn.state_dim)
            direct = simulate_state(dyn, u, w)
            lifted = apply_lift(lift, dyn.s0, u, w)
            err = np.linalg.norm(lifted - direct) / max(1.0, np.linalg.norm(direct))
            worst = max(worst, err)
        dt = time.time() - t0
        report(1, "lift-correctness",
               worst <= 1e-10 and dt < 5.0,
               f"worst rel err {worst:.2e} over 100 systems, {dt:.2f}s")

    def test_02_gradient_fidelity(self, reduced_microgrid, quadratic_game):
        params, game, _ = reduced_microgrid
        lq_game, _ = quadratic_game
        rng = np.random.default_rng(7)
        t0 = time.time()
        worst = 0.0
        for trial in range(20):
            u = random_feasible_profile(game, rng) * 0.9
            w = game.disturbance.sample(rng, 1)[0]
            grad, jac, _ = sample_operator(game, u, w)
            i = trial % game.n_players
            sl = game.player_slices[i]

            def cost_block(block, i=i, sl=sl):
                probe = u.copy()
                probe[sl] = block
                return household_cost_value(i, probe, w, params)

            worst = max(worst, relative_error(
                grad[sl], central_difference(cost_block, u[sl], h=1e-6)))

            j = trial % game.constraint_count
            fd = central_difference(
                lambda v, j=j: float(sample_operator(game, v, w)[2][j]), u)
            denom = max(1e-6, float(np.linalg.norm(jac[:, j])))
            worst = max(worst, float(np.linalg.norm(jac[:, j] - fd)) / denom)

            u_lq = random_feasible_profile(lq_game, rng)
            w_lq = np.zeros(lq_game.disturbance.dim)
            grad_lq = sample_operator(lq_game, u_lq, w_lq)[0]
            for i_lq, sl_lq in enumerate(lq_game.player_slices):
                def lq_block(block, i=i_lq, sl=sl_lq):
                    probe = u_lq.copy()
                    probe[sl] = block
                    others = probe.reshape(3, 2).sum(axis=0) - probe[sl]
                    return float(0.5 * probe[sl] @ probe[sl]
                                 + 0.25 * probe[sl] @ others - probe[sl].sum())

                worst = max(worst, relative_error(
                    grad_lq[sl_lq], central_difference(lq_block, u_lq[sl_lq])))
        dt = time.time() - t0
        report(2, "gradient-fidelity", worst <= 1e-4 and dt < 30.0,
               f"worst rel err {worst:.2e} at 20 points, {dt:.1f}s")

    def test_03_oracle_convergence(self, oracle_run):
        # independent oracle: assemble and solve the KKT system from the raw
        # config numbers (active affine constraint, boxes slack)
        doc = oracle_run["cfg"].to_json_dict()["game"]
        n, d = len(doc["players"]), doc["horizon"]
        total = n * d
        mat = np.zeros((total, total))
        vec = np.zeros(total)
        for i, pl in enumerate(doc["players"]):
            rows = slice(i * d, (i + 1) * d)
            mat[rows, rows] = pl["quad_self"] * np.eye(d)
            for j in range(n):
                if j != i:
                    mat[rows, j * d:(j + 1) * d] = pl["quad_couple"] * np.eye(d)
            vec[rows] = pl["linear"]
        a = np.array(doc["constraints"][0]["input_coeffs"], dtype=float)
        b = float(doc["constraints"][0]["offset"])
        kkt = np.block([[mat, a[:, None]], [a[None, :], np.zeros((1, 1))]])
        sol = np.linalg.solve(kkt, np.concatenate([-vec, [-b]]))
        u_star, lam_star = sol[:-1], sol[-1]
        assert lam_star > 0  # constraint active as designed
        lo = np.array(doc["players"][0]["box_lower"])
        hi = np.array(doc["players"][0]["box_upper"])
        assert np.all(u_star.reshape(n, d) > lo) and np.all(u_star.reshape(n, d) < hi)

        trace = oracle_run["trace"]
        err = float(np.linalg.norm(trace.final_state.u - u_star))
        ok = (err <= 1e-2 and trace.final_state.k <= 50000
              and oracle_run["seconds"] < 120.0)
        report(3, "oracle-convergence", ok,
               f"|u - u*| = {err:.2e} after {trace.final_state.k} iterations, "
               f"{oracle_run['seconds']:.1f}s")

    def test_04_residual_decay(self, oracle_run, benchmark_run):
        res_o = oracle_run["residuals"]
        win_o = trailing_mean(res_o)
        tail_o = win_o[451:]
        mono_o = bool(np.all(np.diff(tail_o) <= 1e-12 * res_o[0]))
        ok_o = mono_o and tail_o[-1] < 1e-3

        res_m = benchmark_run["residuals"]
        win_m = trailing_mean(res_m)
        tail_m = win_m[451:]
        mono_m = bool(np.all(np.diff(tail_m) <= 1e-12 * res_m[0]))
        ok_m = mono_m and tail_m[-1] < 0.1 * tail_m[0]
        ok_time = benchmark_run["seconds"] < 600.0
        report(4, "residual-decay", ok_o and ok_m and ok_time,
               f"oracle tail {tail_o[-1]:.2e} mono={mono_o}; benchmark "
               f"tail/start {tail_m[-1] / tail_m[0]:.2e} mono={mono_m}; "
               f"benchmark run {benchmark_run['seconds']:.0f}s, system "
               f"{benchmark_run['system_seconds']:.2f}s, "
               f"{benchmark_run['minor_faults']} minor faults")

    def test_05_chance_constraint_soundness(self, benchmark_run):
        game = benchmark_run["game"]
        u_final = benchmark_run["state"].u
        t0 = time.time()
        rep = estimate_constraint_satisfaction(
            game, u_final, 10000, substream(999, 5))
        dt = time.time() - t0
        freq_ok = bool(np.all(rep.p_hat >= rep.targets))
        ci_ok = rep.all_met
        terminal_ok = rep.p_hat[-1] >= 0.9
        report(5, "chance-constraint-soundness",
               freq_ok and ci_ok and terminal_ok and dt < 60.0,
               f"min p_hat {rep.p_hat.min():.4f}, terminal {rep.p_hat[-1]:.4f}, "
               f"{dt:.1f}s")

    def test_06_com_conservativeness(self):
        t0 = time.time()
        quantile = NormalDist().inv_cdf
        model = ComModel()
        gaps = {g: h_inverse(model, g) - quantile(1.0 - g)
                for g in (0.01, 0.05, 0.1, 0.2)}
        ok = all(v >= 0 for v in gaps.values()) and time.time() - t0 < 1.0
        report(6, "com-conservativeness", ok,
               "margins " + ", ".join(f"{g}: {v:.3f}" for g, v in gaps.items()))

    def test_07_estimator_scaling(self, reduced_microgrid):
        _, game, offsets = reduced_microgrid
        rng = substream(31, 7)
        u = random_feasible_profile(game, rng)
        lam = 0.5 * np.ones(game.constraint_count)
        t0 = time.time()
        diag = estimator_diagnostics(game, u, lam, [8, 32, 128, 512], 64, rng,
                                     offsets=offsets)
        dt = time.time() - t0
        ok = diag.slope is not None and -1.3 <= diag.slope <= -0.7 and dt < 120.0
        report(7, "estimator-scaling", ok,
               f"fitted slope {diag.slope:.3f}, {dt:.1f}s")

    def test_08_schedule_and_feasibility_invariants(self, benchmark_run):
        alphas = benchmark_run["alphas"]
        batches = benchmark_run["batches"]
        ks = np.arange(len(alphas))
        alpha_ok = bool(np.all(alphas == 1.4e-4 / (ks + 2)))
        batch_ok = bool(np.all(batches == np.ceil((ks + 2) ** 1.1)))
        ok = (alpha_ok and batch_ok and benchmark_run["identity_ok"]
              and benchmark_run["feasible_ok"] and benchmark_run["multiplier_ok"])
        report(8, "schedule-feasibility-invariants", ok,
               f"alpha={alpha_ok} batch={batch_ok} "
               f"identity={benchmark_run['identity_ok']} "
               f"boxes={benchmark_run['feasible_ok']} "
               f"multiplier>=0={benchmark_run['multiplier_ok']} "
               f"over {len(alphas)} iterations")

    def test_09_config_gate(self):
        t0 = time.time()
        cfg = parse_config(CONFIG_DIR / "microgrid_paper.json")
        game, offsets = build_game(cfg)
        lip = estimate_lipschitz(game, offsets, seed=cfg.solver.seed)
        accepts_shipped = validate_config(cfg.solver, lip).passed
        bad_delta = replace(cfg.solver, delta=0.5)
        rejects_delta = not validate_config(bad_delta, lip).passed
        bound = 1.0 / (4.0 * cfg.solver.delta * (2.0 * lip + 1.0))
        big_step = replace(cfg.solver, step_a0=4.0 * bound, step_offset=1.0)
        rejects_step = not validate_config(big_step, lip).passed
        dt = time.time() - t0
        report(9, "config-gate",
               accepts_shipped and rejects_delta and rejects_step and dt < 10.0,
               f"lipschitz {lip:.3g}, shipped ok={accepts_shipped}, "
               f"delta 0.5 rejected={rejects_delta}, oversized step "
               f"rejected={rejects_step}, {dt:.1f}s")
