import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ccgames.com as com_mod
from ccgames.com import h_inverse
from ccgames.cli import epsilon_gap, main, read_strategies_csv, write_strategies_csv
from ccgames.config import (ConfigError, OutputPaths, VerificationParams, build_game,
                            parse_config, parse_config_dict)
from ccgames.solver import SolverConfig, estimate_lipschitz, run, write_checkpoint

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_lq_doc(**solver_overrides):
    solver = {
        "delta": 0.7, "step_a0": 20.0, "step_offset": 400.0,
        "batch_scale": 1e-9, "batch_offset": 2.0, "batch_exponent": 1.01,
        "max_iterations": 3000, "residual_tolerance": 1e-5,
        "residual_batch": 32, "seed": 11,
    }
    solver.update(solver_overrides)
    return {
        "game": {
            "kind": "linear_quadratic", "horizon": 2, "state_dim": 1,
            "initial_state": [0.0],
            "players": [
                {"input_dim": 1, "box_lower": [-5, -5], "box_upper": [5, 5],
                 "quad_self": 1.0, "quad_couple": 0.25, "linear": [-1, -1]}
                for _ in range(3)
            ],
            "constraints": [
                {"input_coeffs": [1, 1, 1, 1, 1, 1], "offset": -3.0, "gamma": 0.5}
            ],
        },
        "com": {"kind": "gaussian-standard"},
        "solver": solver,
        "output": {"trace": "trace.csv", "summary": "summary.json",
                   "strategies": "strategies.csv"},
        "verification": {"satisfaction_samples": 200,
                         "epsilon_gap_candidates": 3, "epsilon_gap_samples": 50},
    }


def small_microgrid_doc():
    return {
        "game": {"kind": "microgrid", "n_households": 2, "horizon": 4,
                 "delta_t": 6.0},
        "solver": {"delta": 0.9, "step_a0": 1.4e-4, "step_offset": 2.0,
                   "max_iterations": 5, "residual_batch": 64, "seed": 3},
        "verification": {"satisfaction_samples": 300},
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(config, out, *extra):
    """Exit code of ``ccgames run --config config --out-dir out *extra``."""
    return main(["run", "--config", str(config), "--out-dir", str(out), *extra])


class TestParseConfig:
    def test_shipped_configs_parse(self):
        for name in ("quadratic_oracle.json", "microgrid_reduced.json",
                     "microgrid_paper.json"):
            cfg = parse_config(CONFIG_DIR / name)
            game, offsets = build_game(cfg)
            assert game.input_dim > 0
            assert offsets.offsets.shape == (game.constraint_count,)

    def test_round_trip(self):
        for name in ("quadratic_oracle.json", "microgrid_reduced.json",
                     "microgrid_paper.json"):
            cfg = parse_config(CONFIG_DIR / name)
            again = parse_config_dict(cfg.to_json_dict())
            assert again.to_json_dict() == cfg.to_json_dict()
            assert again.solver == cfg.solver

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_bad_gamma_names_field(self, tmp_path):
        doc = small_microgrid_doc()
        doc["game"]["gamma_soc"] = 1.5
        with pytest.raises(ConfigError, match="gamma_soc"):
            parse_config(write_doc(tmp_path, doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = small_microgrid_doc()
        doc["solver"]["stepsize"] = 1.0
        with pytest.raises(ConfigError, match="solver.stepsize"):
            parse_config(write_doc(tmp_path, doc))

    def test_delta_half_parses_but_fails_validation(self, tmp_path):
        doc = small_microgrid_doc()
        doc["solver"]["delta"] = 0.5
        cfg = parse_config(write_doc(tmp_path, doc))  # schema accepts it
        assert cfg.solver.delta == 0.5
        code = main(["validate", "--config", str(write_doc(tmp_path, doc))])
        assert code == 2

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"game": }')
        with pytest.raises(ConfigError, match="bad.json:1"):
            parse_config(path)

    @pytest.mark.parametrize("content, reason", [
        (None, "Is a directory"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["directory", "non-utf8"])
    def test_unreadable_config_is_one_message(self, tmp_path, capsys, content, reason):
        path = tmp_path
        if content is not None:
            path = tmp_path / "config.json"
            path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("invalid configuration:\n  cannot read config "
                                           f"file {path}: {reason}\n")


def oracle_doc():
    return json.loads((CONFIG_DIR / "quadratic_oracle.json").read_text())


def edited(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def replaced(section, value):
    def edit(doc):
        doc[section] = value
    return edit


def edited_player(key, value, index=0):
    def edit(doc):
        doc["game"]["players"][index][key] = value
    return edit


def edited_constraint(key, value):
    def edit(doc):
        doc["game"]["constraints"][0][key] = value
    return edit


def assert_one_message_exit_one(tmp_path, capsys, doc, message):
    assert main(["validate", "--config", str(write_doc(tmp_path, doc))]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"invalid configuration:\n  {message}\n"
    assert "validation passed" not in captured.out


class TestWideBoxAndHugeBatch:
    @pytest.mark.parametrize("width", [1e160, 1e300])
    def test_wide_box_validates(self, capsys, width, tmp_path):
        # the squares of the probe's profile differences overflow; past the
        # multipliers' scale the ratio does not depend on the box scale, and
        # at 1e100 no square overflows
        def lipschitz(doc_width):
            doc = oracle_doc()
            for p in doc["game"]["players"]:
                p.update(box_lower=[-doc_width] * 2, box_upper=[doc_width] * 2)
            game, offsets = build_game(parse_config_dict(doc))
            return doc, estimate_lipschitz(game, offsets, seed=doc["solver"]["seed"])

        doc, wide = lipschitz(width)
        assert wide == pytest.approx(lipschitz(1e100)[1], rel=1e-12)
        assert main(["validate", "--config", str(write_doc(tmp_path, doc))]) == 0
        assert f"estimated operator Lipschitz bound: {wide:.6g}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("exponent", [70.0, 2000.0])
    def test_unrepresentable_batch_is_one_message(self, tmp_path, capsys, exponent):
        # schedules whose first batch no array holds: 2^70 rows is past
        # numpy's largest dimension, 2^2000 past the doubles; neither can be
        # allocated, as a batch that overcommitted memory might grant could
        # be. validate fails its batch-size check, run refuses the schedule,
        # and a forced run stops at iteration 0 with the same one line
        doc = json.loads((CONFIG_DIR / "microgrid_reduced.json").read_text())
        doc["solver"]["batch_exponent"] = exponent
        config = write_doc(tmp_path, doc)
        message = ("iteration 0: no array holds its batch of "
                   f"ceil(1.0 * (0 + 2.0) ** {exponent}) rows")
        assert main(["validate", "--config", str(config)]) == 2
        out = capsys.readouterr().out
        assert f"  [FAIL] batch-size: {message}\n" in out and out.count("[FAIL]") == 1
        assert run_cli(config, tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"validation failure: batch-size: {message}\n"
                                           "refusing to run; pass --force to override\n")
        assert run_cli(config, tmp_path / "out", "--force") == 1
        assert capsys.readouterr().err == message + "\n"


class TestOverflowingDynamics:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_lift_is_one_message(self, tmp_path, capsys, command):
        # A = 1e10 over 40 steps: the lift's 1e400 is past the doubles, refused
        # where the lift is built, with no RuntimeWarning (an error in this suite)
        doc, T = oracle_doc(), 40
        doc["game"].update(horizon=T, a_mats=[[[1e10]]] * T)
        for p in doc["game"]["players"]:
            p.update(box_lower=[-5.0] * T, box_upper=[5.0] * T, linear=[-1.0] * T)
        doc["game"]["constraints"][0]["input_coeffs"] = [1.0] * (3 * T)
        config = str(write_doc(tmp_path, doc))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "--config", config, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("invalid configuration:\n  game: the dynamics overflow a "
                                "double within the horizon\n")
        assert captured.out == ""


class TestConfigErrors:
    @pytest.mark.parametrize("edit, path", [
        (edited("solver", "max_iterations", float("nan")), "solver.max_iterations"),
        (edited("solver", "seed", float("nan")), "solver.seed"),
        (edited("solver", "max_iterations", float("inf")), "solver.max_iterations"),
        (edited("solver", "divergence_factor", float("nan")), "solver.divergence_factor"),
        (edited("solver", "residual_tolerance", float("nan")), "solver.residual_tolerance"),
        (edited("com", "beta", float("nan")), "com.beta"),
        (edited("com", "beta", [float("inf")]), "com.beta[0]"),
    ], ids=["nan-iterations", "nan-seed", "inf-iterations", "nan-divergence",
            "nan-tolerance", "nan-beta", "inf-beta-entry"])
    def test_non_finite_scalar_rejected(self, tmp_path, capsys, edit, path):
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, f"{path}: expected a finite number")

    @pytest.mark.parametrize("edit, path", [
        (edited_player("linear", [float("nan"), -1.0]), "game.players[0].linear"),
        (edited_player("box_upper", [5.0, float("inf")], index=2), "game.players[2].box_upper"),
        (edited_constraint("input_coeffs", [1, 1, float("-inf"), 1, 1, 1]),
         "game.constraints[0].input_coeffs"),
        (edited("game", "noise_std", [float("nan")] * 2), "game.noise_std"),
        (edited("game", "b_mats", [[[1.0]] * 2, [[float("nan")]] * 2, [[1.0]] * 2]),
         "game.b_mats[1]"),
        (replaced("com", {"kind": "user-tabulated", "theta_grid": [0.0, float("nan"), 4.0],
                          "h_grid": [1.0, 0.3, 0.0]}), "com.theta_grid"),
        (replaced("com", {"kind": "user-tabulated", "theta_grid": [0.0, 1.0, 4.0],
                          "h_grid": [1.0, float("nan"), 0.0]}), "com.h_grid"),
    ], ids=["nan-linear", "inf-box", "inf-coeffs", "nan-noise", "nan-b-mats",
            "nan-theta-grid", "nan-h-grid"])
    def test_non_finite_array_rejected(self, tmp_path, capsys, edit, path):
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, f"{path}: expected finite numbers")

    @pytest.mark.parametrize("edit, message", [
        (edited_player("linear", ["-1", "-1"]), "game.players[0].linear[0]: expected a number, "
                                                "got '-1'"),
        (edited_player("box_lower", [True, False]),
         "game.players[0].box_lower[0]: expected a number, got True"),
        (edited_player("box_upper", [5.0, False], index=2),
         "game.players[2].box_upper[1]: expected a number, got False"),
        (edited("game", "b_mats", [[[1.0]] * 2, [[1.0], ["x"]], [[1.0]] * 2]),
         "game.b_mats[1][1][0]: expected a number, got 'x'"),
        (edited("game", "noise_std", [0.5, None]), "game.noise_std[1]: expected a number, "
                                                   "got None"),
    ], ids=["string-linear", "bool-box", "bool-box-player-2", "string-b-mats", "null-entry"])
    def test_non_number_array_entry_rejected(self, tmp_path, capsys, edit, message):
        # the scalar reader refuses strings and booleans; so does every array entry
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("key", ["renewable_std", "renewable_mean", "tou_tariff"])
    def test_non_finite_microgrid_array_rejected(self, tmp_path, capsys, key):
        doc = small_microgrid_doc()
        doc["game"][key] = [float("inf"), 0.1, 0.1, 0.1]
        assert_one_message_exit_one(tmp_path, capsys, doc,
                                    f"game.{key}: expected finite numbers")

    @pytest.mark.parametrize("edit, message", [
        (edited_player("box_lower", [-5.0, -5.0, -5.0]),
         "game: player 0: box bounds must have equal length"),
        (edited_player("box_lower", [6.0, -5.0]),
         "game: player 0: box lower bounds exceed upper bounds"),
        (edited_player("box_upper", [5.0], index=2),
         "game: player 2: box bounds must have equal length"),
        (edited_player("box_upper", [5.0, -6.0], index=1),
         "game: player 1: box lower bounds exceed upper bounds"),
        (edited_player("linear", [-1.0]), "game: player 0: linear has length 1, expected 2"),
        (edited_constraint("input_coeffs", [1.0, 1.0]),
         "game: constraint 0: input_coeffs has length 2, expected 6"),
        (edited_constraint("state_coeffs", [1.0]),
         "game: constraint 0: state_coeffs has length 1, expected 3"),
        (edited("game", "noise_std", [0.5]),
         "game: noise profiles must have length T * state_dim"),
        (edited("com", "beta", [0.1, 0.2]),
         "com.beta: 2 entries, expected one per constraint (1)"),
    ], ids=["box-length", "box-order", "box-length-player-2", "box-order-player-1",
            "linear-length", "input-coeffs-length",
            "state-coeffs-length", "noise-length", "beta-length"])
    def test_game_build_error_is_a_config_error(self, tmp_path, capsys, edit, message):
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_box_width_past_the_largest_double_rejected(self, tmp_path, capsys, command):
        # finite bounds, so each is read, but their difference overflows: the
        # Lipschitz probe's random profiles could not be drawn from the box
        doc = oracle_doc()
        doc["game"]["players"][1].update(box_lower=[-1e308, -5.0], box_upper=[1e308, 5.0])
        out = tmp_path / "out"
        argv = [command, "--config", str(write_doc(tmp_path, doc))]
        assert main(argv + (["--out-dir", str(out)] if command == "run" else [])) == 1
        assert capsys.readouterr().err == (
            "invalid configuration:\n  game.players[1]: box_upper - box_lower overflows a double\n")
        assert not out.exists()
        doc["game"]["players"][1].update(box_lower=[-1e308, -5.0], box_upper=[0.0, 5.0])
        assert parse_config_dict(doc).lq.players[1].box_lower[0] == -1e308  # a finite width

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_initial_trajectory_rejected(self, tmp_path, capsys, command):
        # the lift (10^40) is finite, the noise-free trajectory from 1e300 is not
        doc, T = oracle_doc(), 40
        doc["game"].update(horizon=T, a_mats=[[[10.0]]] * T, initial_state=[1e300])
        for p in doc["game"]["players"]:
            p.update(box_lower=[-5.0] * T, box_upper=[5.0] * T, linear=[-1.0] * T)
        doc["game"]["constraints"][0]["input_coeffs"] = [1.0] * (3 * T)
        out = tmp_path / "out"
        argv = [command, "--config", str(write_doc(tmp_path, doc))]
        assert main(argv + (["--out-dir", str(out)] if command == "run" else [])) == 1
        assert capsys.readouterr().err == ("invalid configuration:\n  game: the noise-free "
                                           "trajectory init_map @ s0 overflows a double\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (replaced("solver", []), "solver: expected an object, got []"),
        (replaced("solver", "x"), "solver: expected an object, got 'x'"),
        (replaced("com", [1]), "com: expected an object, got [1]"),
        (replaced("output", [1]), "output: expected an object, got [1]"),
        (replaced("verification", "x"), "verification: expected an object, got 'x'"),
        (edited("game", "players", [1]), "game.players[0]: expected an object, got 1"),
        (edited("game", "b_mats", 3), "game.b_mats: expected a list, got 3"),
        (edited("game", "b_mats", [[[1.0], [1.0, 2.0]]]),
         "game.b_mats[0]: expected a numeric array"),
        (edited("output", "trace", 1), "output.trace: expected a string, got 1"),
        (lambda doc: doc["game"]["players"][1].pop("box_upper"),
         "game.players[1].box_upper: required"),
        (lambda doc: doc["game"]["constraints"][0].pop("input_coeffs"),
         "game.constraints[0].input_coeffs: required"),
    ], ids=["solver-list", "solver-string", "com-list", "output-list",
            "verification-string", "player-not-object", "b-mats-not-list",
            "b-mats-ragged", "output-name-number", "player-without-box-upper",
            "constraint-without-input-coeffs"])
    def test_malformed_section_is_one_path_error(self, tmp_path, capsys, edit, message):
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, message)

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        doc = oracle_doc()
        for section in ("solver", "output", "verification"):
            doc[section] = {}
        for player in doc["game"]["players"]:
            del player["input_dim"]
            player["linear"] = None  # a null array is an absent one
        del doc["game"]["constraints"][0]["offset"]
        cfg = parse_config(write_doc(tmp_path, doc))
        assert cfg.solver == SolverConfig()
        assert cfg.output == OutputPaths()
        assert cfg.verification == VerificationParams()
        assert all(p.input_dim == 1 and p.linear is None for p in cfg.lq.players)
        assert cfg.lq.constraints[0].offset == 0.0

    def test_schedule_keys_set_their_schedule_fields(self, tmp_path):
        doc = oracle_doc()
        doc["solver"] = {"step_a0": 3.0, "batch_exponent": 1.5}
        cfg = parse_config(write_doc(tmp_path, doc))
        assert cfg.solver == replace(SolverConfig(), step_a0=3.0, batch_exponent=1.5)

    @pytest.mark.parametrize("beta", [-0.1, [-0.1]])
    def test_negative_com_beta_rejected(self, tmp_path, capsys, beta):
        doc = oracle_doc()
        doc["com"]["beta"] = beta
        path = "com.beta[0]" if isinstance(beta, list) else "com.beta"
        assert_one_message_exit_one(tmp_path, capsys, doc, f"{path}: must be >= 0, got -0.1")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_gap_in_summary_needs_a_candidate(self, tmp_path, capsys, command):
        doc = oracle_doc()
        doc["verification"].update(epsilon_gap_in_summary=True, epsilon_gap_candidates=0)
        out = tmp_path / "out"
        argv = [command, "--config", str(write_doc(tmp_path, doc))]
        assert main(argv + (["--out-dir", str(out)] if command == "run" else [])) == 1
        assert capsys.readouterr().err == (
            "invalid configuration:\n  verification.epsilon_gap_candidates: must be at least 1 "
            "when verification.epsilon_gap_in_summary is true\n")
        assert not out.exists()
        doc["verification"]["epsilon_gap_in_summary"] = False  # no gap asked for: no refusal
        assert parse_config_dict(doc).verification.epsilon_gap_candidates == 0

    def test_constraint_beta_key_rejected(self, tmp_path):
        doc = oracle_doc()
        doc["game"]["constraints"][0]["beta"] = 0.1
        with pytest.raises(ConfigError, match=r"game.constraints\[0\].beta: unknown key"):
            parse_config(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("config", ["microgrid_reduced.json", "quadratic_oracle.json"])
    def test_com_beta_adds_to_concentration_offsets(self, tmp_path, config):
        doc = json.loads((CONFIG_DIR / config).read_text())
        game, offsets = build_game(parse_config(write_doc(tmp_path, doc)))
        model = game.disturbance.com_model
        base = [c.com_scale * h_inverse(model, c.gamma) for c in game.constraints]
        assert np.array_equal(offsets.offsets, base)
        m = game.constraint_count
        margins = np.linspace(0.0, 0.3, m)
        for beta in (0.25, margins.tolist()):
            doc.setdefault("com", {})["beta"] = beta
            _, tightened = build_game(parse_config(write_doc(tmp_path, doc)))
            assert np.array_equal(tightened.offsets, np.add(base, beta))

    def test_build_game_computes_each_offset_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(model, gamma, **kw):
            calls.append(model.kind)
            return h_inverse(model, gamma, **kw)

        monkeypatch.setattr(com_mod, "h_inverse", counted)
        doc = json.loads((CONFIG_DIR / "microgrid_paper.json").read_text())
        for beta in (0.25, np.linspace(0.0, 0.3, 49).tolist()):
            doc.setdefault("com", {})["beta"] = beta
            calls.clear()
            game, offsets = build_game(parse_config(write_doc(tmp_path, doc)))
            # build_microgrid_game's offsets are reused: one h_inverse per constraint
            assert len(calls) == game.constraint_count == 49
            base = [c.com_scale * h_inverse(game.disturbance.com_model, c.gamma)
                    for c in game.constraints]
            assert np.array_equal(offsets.offsets, np.add(base, beta))
        # another concentration model replaces build_microgrid_game's offsets
        doc["com"] = {"kind": "user-tabulated", "theta_grid": [0.0, 1.0, 4.0],
                      "h_grid": [1.0, 0.3, 0.0]}
        calls.clear()
        game, offsets = build_game(parse_config(write_doc(tmp_path, doc)))
        assert calls == ["gaussian-standard"] * 49 + ["user-tabulated"] * 49
        base = [c.com_scale * h_inverse(game.disturbance.com_model, c.gamma)
                for c in game.constraints]
        assert np.array_equal(offsets.offsets, base)


class TestValidateCommand:
    def test_shipped_paper_config_passes(self):
        assert main(["validate", "--config",
                     str(CONFIG_DIR / "microgrid_paper.json")]) == 0

    def test_oracle_config_passes(self):
        assert main(["validate", "--config",
                     str(CONFIG_DIR / "quadratic_oracle.json")]) == 0

    def test_oversized_step_fails(self, tmp_path):
        doc = small_lq_doc(step_a0=5000.0, step_offset=50.0)
        assert main(["validate", "--config", str(write_doc(tmp_path, doc))]) == 2


def read_strict_json(path):
    """``path`` parsed as strict JSON: a NaN, Infinity or -Infinity token raises."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not a JSON value")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def nan_player_zero_gradient(monkeypatch):
    """Make ``build_game`` give linear-quadratic games a cost gradient whose
    first entry of player 0's block is NaN (a config can no longer hold one)."""
    import ccgames.config as config_mod

    real = config_mod.build_lq_game

    def build(params):
        game, offsets = real(params)

        def grad(u, real_grad=game.cost_input_grad):
            g = real_grad(u)
            g[game.player_slices[0].start] = np.nan
            return g

        return replace(game, cost_input_grad=grad), offsets

    monkeypatch.setattr(config_mod, "build_lq_game", build)


def nan_terminal_state_grad(monkeypatch):
    """Make ``build_game`` give microgrids a terminal band constraint, their
    one closure column, whose ``state_grad`` is NaN."""
    import ccgames.config as config_mod

    real = config_mod.build_microgrid_game

    def build(params):
        game, offsets = real(params)
        cons = list(game.constraints)
        [j] = game.nonlinear_columns
        cons[j] = replace(cons[j], state_grad=lambda S: np.full(S.shape, np.nan))
        return replace(game, constraints=tuple(cons)), offsets

    monkeypatch.setattr(config_mod, "build_microgrid_game", build)


def active_counts(trace_csv, m):
    """Per constraint, the rows of ``trace_csv`` whose multiplier is positive."""
    with open(trace_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [sum(float(row[f"lambda_{j}"]) > 0 for row in rows) for j in range(m)]


def non_finite_run(tmp_path, monkeypatch, gap_in_summary=False):
    """A forced 50-iteration run into ``tmp_path / "out"`` whose first step
    is NaN (``nan_player_zero_gradient``); checks exit 4 and returns the
    summary, read as strict JSON."""
    nan_player_zero_gradient(monkeypatch)
    doc = small_lq_doc(max_iterations=50)
    doc["verification"]["epsilon_gap_in_summary"] = gap_in_summary
    assert run_cli(write_doc(tmp_path, doc), tmp_path / "out", "--force") == 4
    return read_strict_json(tmp_path / "out" / "summary.json")


class TestRunCommand:
    def test_zero_budget_exit_two_one_row(self, tmp_path):
        assert run_cli(write_doc(tmp_path, small_lq_doc(max_iterations=0)), tmp_path / "out") == 2
        rows = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + the single initial record

    def test_oracle_run_converges_exit_zero(self, tmp_path):
        path = write_doc(tmp_path, small_lq_doc())
        assert run_cli(path, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination_reason"] == "tolerance"
        game, _ = build_game(parse_config(path))
        u = read_strategies_csv(tmp_path / "out" / "strategies.csv", game)
        assert np.linalg.norm(u - 0.5) <= 1e-2  # closed-form equilibrium

    def test_unwritable_output_exit_one(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert run_cli(write_doc(tmp_path, small_lq_doc(max_iterations=0)), blocker / "out") == 1

    def test_checkpoints_are_the_library_writes(self, tmp_path):
        path = write_doc(tmp_path, small_lq_doc(max_iterations=7, checkpoint_every=3))
        assert run_cli(path, tmp_path / "out") == 2
        cfg = parse_config(path)
        game, offsets = build_game(cfg)
        state = run(game, offsets, replace(cfg.solver, max_iterations=6)).final_state
        written = Path(write_checkpoint(state, cfg.solver, tmp_path))
        assert sorted(p.name for p in (tmp_path / "out").glob("checkpoint_*")) == \
            ["checkpoint_00000003.json", "checkpoint_00000006.json"]
        assert (tmp_path / "out" / written.name).read_bytes() == written.read_bytes()

    def test_unwritable_checkpoint_exit_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, small_lq_doc(max_iterations=3, checkpoint_every=1))
        (tmp_path / "out" / "checkpoint_00000001.json").mkdir(parents=True)
        assert run_cli(path, tmp_path / "out") == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cannot write checkpoint: ")

    def test_validation_gate_and_force(self, tmp_path):
        doc = small_lq_doc()
        doc["solver"]["delta"] = 0.5
        doc["solver"]["max_iterations"] = 1
        path = write_doc(tmp_path, doc)
        assert run_cli(path, tmp_path / "o1") == 1
        assert run_cli(path, tmp_path / "o2", "--force") == 2

    def test_non_finite_gradient_exit_four(self, tmp_path, capsys, monkeypatch):
        summary = non_finite_run(tmp_path, monkeypatch)
        assert summary["termination_reason"] == "non-finite"
        assert summary["iterations"] == 1
        assert summary["non_finite_updates"] == ["player 0 strategy update"]
        assert "terminated: non-finite (player 0 strategy update) after 1 iterations" \
            in capsys.readouterr().out

    def test_non_finite_summary_is_strict_json(self, tmp_path, monkeypatch):
        # the residual at the NaN iterate is NaN, which strict JSON has no token for
        summary = non_finite_run(tmp_path, monkeypatch)
        assert summary["final_residual"] is None
        assert all(isinstance(x, float) for x in summary["final_multiplier"])

    def test_non_finite_run_omits_the_gap_and_writes_every_output(self, tmp_path, capsys,
                                                                  monkeypatch):
        summary = non_finite_run(tmp_path, monkeypatch, gap_in_summary=True)
        assert "epsilon_gap" not in summary
        assert summary["epsilon_gap_omitted"] == "the final iterate is not finite"
        # no satisfaction is measured at a NaN profile, so none is reported
        assert "constraint_satisfaction" not in summary
        assert summary["constraint_satisfaction_omitted"] == "the final iterate is not finite"
        assert summary["all_constraints_met"] is None
        assert summary["non_finite_updates"] == ["player 0 strategy update"]
        rows = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header and iteration 0, whose step made the NaN
        assert len((tmp_path / "out" / "strategies.csv").read_text().splitlines()) \
            == 1 + summary["config"]["game"]["horizon"] * 3
        assert "terminated: non-finite (player 0 strategy update) after 1 iterations" \
            in capsys.readouterr().out

    def test_non_finite_operator_refused_by_gate(self, tmp_path, capsys, monkeypatch):
        nan_player_zero_gradient(monkeypatch)
        assert run_cli(write_doc(tmp_path, small_lq_doc()), tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "operator-finite: the sampled operator is not finite" in err
        assert "lipschitz estimate must be positive" not in err

    def test_nan_closure_gradient_refused_by_gate(self, tmp_path, capsys, monkeypatch):
        # the solve reads no closure gradient while every multiplier is zero,
        # but the probe's multipliers are positive, so the gate still refuses
        nan_terminal_state_grad(monkeypatch)
        path = CONFIG_DIR / "microgrid_reduced.json"
        cfg = parse_config(path)
        game, offsets = build_game(cfg)
        assert math.isnan(estimate_lipschitz(game, offsets, cfg.solver.seed))
        assert run_cli(path, tmp_path / "out") == 1
        assert "operator-finite: the sampled operator is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, max_iterations", [("microgrid_reduced", 30),
                                                      ("quadratic_oracle", None)])
    def test_active_iterations_count_positive_multipliers(self, tmp_path, name, max_iterations):
        # no microgrid multiplier turns positive; the oracle's constraint is
        # active at its solution, from its second record on
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        if max_iterations is not None:
            doc["solver"]["max_iterations"] = max_iterations
        run_cli(write_doc(tmp_path, doc), tmp_path / "out")
        summary = read_strict_json(tmp_path / "out" / "summary.json")
        m = len(summary["final_multiplier"])
        active = summary["active_iterations"]
        assert active == active_counts(tmp_path / "out" / "trace.csv", m)
        if name == "microgrid_reduced":
            assert active == [0] * m == [0] * 25
        else:
            assert 0 < active[0] < summary["iterations"] + 1

    def test_overflowing_norm_diverges_without_a_warning(self, tmp_path, capsys):
        # one unit step lands every entry on 1e200: finite, but the squares in
        # the norms overflow, so the run stops at the divergence guard (exit
        # 3) and warns nothing (the suite turns a RuntimeWarning into an error)
        doc = oracle_doc()
        for player in doc["game"]["players"]:
            player.update(box_lower=[-1e300] * 2, box_upper=[1e300] * 2,
                          linear=[-1e200] * 2, quad_couple=0.0)
        doc["solver"].update(step_a0=2.0, step_offset=2.0)
        assert run_cli(write_doc(tmp_path, doc), tmp_path / "out", "--force") == 3
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_seed_override_changes_run(self, tmp_path):
        doc = small_microgrid_doc()
        path = write_doc(tmp_path, doc)
        run_cli(path, tmp_path / "a", "--seed", "1")
        run_cli(path, tmp_path / "b", "--seed", "2")
        a = (tmp_path / "a" / "strategies.csv").read_text()
        b = (tmp_path / "b" / "strategies.csv").read_text()
        assert a != b

    def test_rerun_bit_identical_except_wall_time(self, tmp_path):
        doc = small_microgrid_doc()
        path = write_doc(tmp_path, doc)
        run_cli(path, tmp_path / "a")
        run_cli(path, tmp_path / "b")
        assert (tmp_path / "a" / "strategies.csv").read_text() == \
            (tmp_path / "b" / "strategies.csv").read_text()
        rows_a = (tmp_path / "a" / "trace.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "trace.csv").read_text().splitlines()
        # wall_ms is the last column and inherently nondeterministic
        strip = lambda rows: ["," .join(r.split(",")[:-1]) for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_run_without_snapshots_removes_older_ones(self, tmp_path):
        doc = small_lq_doc(max_iterations=3, snapshot_every=1)
        out, plots = tmp_path / "out", tmp_path / "plots"
        assert run_cli(write_doc(tmp_path, doc), out) == 2
        assert (out / "strategy_snapshots.csv").exists()
        doc["solver"]["snapshot_every"] = 0
        path = write_doc(tmp_path, doc)
        assert run_cli(path, out, "--seed", "5") == 2
        assert not (out / "strategy_snapshots.csv").exists()
        assert main(["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                     "--out-dir", str(plots)]) == 0
        assert sorted(p.name for p in plots.iterdir()) == ["residual_vs_iteration.csv"]

    @pytest.mark.parametrize("name", ["trace.csv", "strategies.csv",
                                      "strategy_snapshots.csv", "summary.json"])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch, capsys,
                                                   name):
        doc = small_microgrid_doc()
        doc["solver"]["snapshot_every"] = 2
        path, out = write_doc(tmp_path, doc), tmp_path / "out"
        run_cli(path, out)
        before = (out / name).read_bytes()
        attempted = []
        real = Path.write_text

        def interrupted(self, text, *args, **kwargs):
            if not self.name.startswith(name):
                return real(self, text, *args, **kwargs)
            attempted.append(text)
            with open(self, "w", encoding="utf-8") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", interrupted)
        assert run_cli(path, out, "--seed", "8") == 1
        assert "failed to write outputs: disk full" in capsys.readouterr().err
        assert attempted and attempted[0].encode() != before
        assert (out / name).read_bytes() == before
        assert not list(out.glob("*.tmp"))


class TestStrategyFiles:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
        game, _ = build_game(cfg)
        u = np.linspace(-1.0, 1.0, game.input_dim)
        write_strategies_csv(tmp_path / "s.csv", game, u)
        assert np.array_equal(read_strategies_csv(tmp_path / "s.csv", game), u)

    def test_player_t_u_header_alias(self, tmp_path):
        cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
        game, _ = build_game(cfg)
        with open(tmp_path / "s.csv", "w") as fh:
            fh.write("player,t,u\n")
            for i in range(3):
                for t in range(2):
                    fh.write(f"{i},{t},{0.1 * (i + 1)}\n")
        u = read_strategies_csv(tmp_path / "s.csv", game)
        assert u[0] == pytest.approx(0.1) and u[-1] == pytest.approx(0.3)

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = parse_config(CONFIG_DIR / "quadratic_oracle.json")
        game, _ = build_game(cfg)
        with open(tmp_path / "s.csv", "w") as fh:
            fh.write("player,t,component,value\n0,0,0,0.5\n")
        with pytest.raises(ValueError, match="expects"):
            read_strategies_csv(tmp_path / "s.csv", game)

    def test_duplicated_row_rejected(self, tmp_path):
        # the right number of rows, but the last one repeats the first entry
        config = CONFIG_DIR / "quadratic_oracle.json"
        game, _ = build_game(parse_config(config))
        write_strategies_csv(tmp_path / "s.csv", game, np.arange(1.0, game.input_dim + 1))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        lines[-1] = lines[1]
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"duplicate entry \(player=0, t=0, component=0\)"):
            read_strategies_csv(tmp_path / "s.csv", game)
        for command in ("check-constraints", "epsilon-gap"):
            assert main([command, "--config", str(config),
                         "--strategies", str(tmp_path / "s.csv")]) == 1


    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan"] + lines[4:],
         "line 4: value nan is not finite"),
        (lambda lines: [",".join(f for k, f in enumerate(line.split(",")) if k != 1)
                        for line in lines], "line 1: expected 'player' and 't' columns"),
        (lambda lines: lines[:2] + ["1,0,0"] + lines[3:], "line 3: expected 4 fields"),
        (lambda lines: lines[:2] + [lines[2] + ",9"] + lines[3:], "line 3: expected 4 fields"),
    ], ids=["nan-value", "no-t-column", "short-row", "long-row"])
    def test_malformed_file_names_line(self, tmp_path, capsys, edit, message):
        config = CONFIG_DIR / "quadratic_oracle.json"
        game, _ = build_game(parse_config(config))
        path = tmp_path / "s.csv"
        write_strategies_csv(path, game, np.full(game.input_dim, 0.5))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message):
            read_strategies_csv(path, game)
        for command in ("check-constraints", "epsilon-gap"):
            assert main([command, "--config", str(config), "--strategies", str(path)]) == 1
            assert f"cannot read strategies: {path}, {message}" in capsys.readouterr().err


class TestCheckConstraints:
    def test_feasible_strategies_pass(self, tmp_path):
        doc = small_microgrid_doc()
        path = write_doc(tmp_path, doc)
        cfg = parse_config(path)
        game, _ = build_game(cfg)
        write_strategies_csv(tmp_path / "s.csv", game, np.zeros(game.input_dim))
        assert main(["check-constraints", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 0

    def test_deterministic_violation_fails(self, tmp_path):
        doc = small_lq_doc()
        path = write_doc(tmp_path, doc)
        cfg = parse_config(path)
        game, _ = build_game(cfg)
        # sum(u) = 12 > 3: the affine constraint is violated surely
        write_strategies_csv(tmp_path / "s.csv", game, 2 * np.ones(game.input_dim))
        assert main(["check-constraints", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 2

    def test_mismatched_file_exit_one(self, tmp_path):
        doc = small_lq_doc()
        path = write_doc(tmp_path, doc)
        (tmp_path / "s.csv").write_text("player,t,component,value\n0,0,0,1.0\n")
        assert main(["check-constraints", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 1

    def test_no_constraints_vacuous_pass(self, tmp_path):
        doc = small_lq_doc()
        doc["game"]["constraints"] = []
        path = write_doc(tmp_path, doc)
        cfg = parse_config(path)
        game, _ = build_game(cfg)
        write_strategies_csv(tmp_path / "s.csv", game, np.zeros(game.input_dim))
        assert main(["check-constraints", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 0


class TestCheckConstraintsSamples:
    def setup_files(self, tmp_path):
        path = write_doc(tmp_path, small_lq_doc())
        game, _ = build_game(parse_config(path))
        write_strategies_csv(tmp_path / "s.csv", game, np.zeros(game.input_dim))
        return ["check-constraints", "--config", str(path),
                "--strategies", str(tmp_path / "s.csv")]

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_nonpositive_samples_exit_one(self, tmp_path, capsys, samples):
        assert main(self.setup_files(tmp_path) + ["--samples", samples]) == 1
        captured = capsys.readouterr()
        assert f"--samples must be at least 1, got {samples}" in captured.err
        assert "constraint satisfaction" not in captured.out

    def test_omitted_samples_use_config_count(self, tmp_path, capsys):
        assert main(self.setup_files(tmp_path)) == 0
        assert "over 200 samples" in capsys.readouterr().out

    def test_given_samples_used(self, tmp_path, capsys):
        assert main(self.setup_files(tmp_path) + ["--samples", "7"]) == 0
        assert "over 7 samples" in capsys.readouterr().out


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["run", "validate", "check-constraints",
                                         "epsilon-gap", "plot-data"])
    def test_negative_seed_exit_one(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, small_lq_doc(max_iterations=3))
        out = tmp_path / "out"
        assert run_cli(path, out) == 2
        capsys.readouterr()
        extra = {"run": ["--out-dir", str(tmp_path / "again")],
                 "check-constraints": ["--strategies", str(out / "strategies.csv")],
                 "epsilon-gap": ["--strategies", str(out / "strategies.csv")],
                 "plot-data": ["--trace", str(out / "trace.csv"),
                               "--out-dir", str(tmp_path / "plots")]}.get(command, [])
        assert main([command, "--config", str(path), "--seed", "-1"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["--seed must be nonnegative, got -1"]
        assert captured.out == ""
        assert not (tmp_path / "again").exists() and not (tmp_path / "plots").exists()


class TestEpsilonGap:
    def test_profile_outside_boxes_exit_one(self, tmp_path, capsys):
        config = CONFIG_DIR / "quadratic_oracle.json"
        game, _ = build_game(parse_config(config))
        write_strategies_csv(tmp_path / "s.csv", game, np.full(game.input_dim, 100.0))
        assert main(["epsilon-gap", "--config", str(config),
                     "--strategies", str(tmp_path / "s.csv")]) == 1
        captured = capsys.readouterr()
        assert "the profile must lie in the local strategy sets" in captured.err
        assert "M_hat" not in captured.out

    def test_runs_and_exits_zero(self, tmp_path, capsys):
        doc = small_lq_doc()
        path = write_doc(tmp_path, doc)
        cfg = parse_config(path)
        game, _ = build_game(cfg)
        write_strategies_csv(tmp_path / "s.csv", game, 0.5 * np.ones(game.input_dim))
        assert main(["epsilon-gap", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 0
        assert "M_hat" in capsys.readouterr().out

    def test_summary_gap_matches_helper_bit_for_bit(self, tmp_path):
        doc = small_lq_doc(max_iterations=20)
        doc["verification"]["epsilon_gap_in_summary"] = True
        path = write_doc(tmp_path, doc)
        assert run_cli(path, tmp_path) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        cfg = parse_config(path)
        game, offsets = build_game(cfg)
        u = read_strategies_csv(tmp_path / "strategies.csv", game)
        gap = epsilon_gap(cfg, game, offsets, u)
        assert summary["epsilon_gap"]["m_hat"] == [float(x) for x in gap.m_hat]
        assert summary["epsilon_gap"]["candidates_evaluated"] == 3 * game.n_players
        assert any(x > 0.0 for x in gap.m_hat)

    def test_game_without_coupled_constraints(self, tmp_path, capsys):
        # run with the gap in its summary, then epsilon-gap on its strategies
        doc = oracle_doc()
        doc["game"]["constraints"] = []
        doc["verification"]["epsilon_gap_in_summary"] = True
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert run_cli(path, out) == 0
        assert {p.name for p in out.iterdir()} == {"trace.csv", "summary.json", "strategies.csv"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epsilon_gap"] == {
            "m_hat": [], "bound_with_final_multiplier": 0.0,
            "candidates_evaluated": doc["verification"]["epsilon_gap_candidates"] * 3}
        capsys.readouterr()
        assert main(["epsilon-gap", "--config", str(path),
                     "--strategies", str(out / "strategies.csv")]) == 0
        assert "gap terms over 12 unilateral deviations" in capsys.readouterr().out

    def test_zero_candidates_exit_one(self, tmp_path):
        doc = small_lq_doc()
        doc["verification"]["epsilon_gap_candidates"] = 0
        path = write_doc(tmp_path, doc)
        cfg = parse_config(path)
        game, _ = build_game(cfg)
        write_strategies_csv(tmp_path / "s.csv", game, np.zeros(game.input_dim))
        assert main(["epsilon-gap", "--config", str(path),
                     "--strategies", str(tmp_path / "s.csv")]) == 1


class TestPlotData:
    def run_small_microgrid(self, tmp_path):
        doc = small_microgrid_doc()
        doc["solver"]["snapshot_every"] = 2
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        run_cli(path, out)
        return path, out

    def test_residual_file_matches_trace(self, tmp_path):
        path, out = self.run_small_microgrid(tmp_path)
        code = main(["plot-data", "--config", str(path), "--trace",
                     str(out / "trace.csv"), "--out-dir", str(out / "plots")])
        assert code == 0
        with open(out / "plots" / "residual_vs_iteration.csv") as fh:
            rows = list(csv.DictReader(fh))
        trace_rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == len(trace_rows) - 1

    def test_profiles_cover_horizon(self, tmp_path):
        path, out = self.run_small_microgrid(tmp_path)
        main(["plot-data", "--config", str(path), "--trace",
              str(out / "trace.csv"), "--strategies", str(out / "strategies.csv"),
              "--out-dir", str(out / "plots")])
        with open(out / "plots" / "aggregate_profiles.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["t"]) for r in rows] == list(range(4))
        assert (out / "plots" / "strategies_vs_iteration.csv").exists()

    def test_missing_strategies_exit_one_unless_defaulted(self, tmp_path, capsys):
        path, out = self.run_small_microgrid(tmp_path)
        plot = ["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                "--out-dir", str(out / "plots")]
        assert main(plot + ["--strategies", str(tmp_path / "missing.csv")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cannot read strategies: ")
        (out / "strategies.csv").unlink()
        assert main(plot) == 0
        assert not (out / "plots" / "aggregate_profiles.csv").exists()

    def test_missing_strategies_exit_one_on_any_game(self, tmp_path, capsys):
        path, out = write_doc(tmp_path, small_lq_doc(max_iterations=3)), tmp_path / "out"
        assert run_cli(path, out) == 2
        plot = ["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                "--out-dir", str(out / "plots")]
        assert main(plot + ["--strategies", str(tmp_path / "missing.csv")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cannot read strategies: ")
        assert not (out / "plots").exists()
        # a readable file is read and checked, but only a microgrid has profiles
        assert main(plot + ["--strategies", str(out / "strategies.csv")]) == 0
        assert not (out / "plots" / "aggregate_profiles.csv").exists()

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        path, out = self.run_small_microgrid(tmp_path)
        code = main(["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                     "--out-dir", str(out / "trace.csv" / "plots")])
        assert code == 1
        assert "failed to write outputs" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["residual_vs_iteration.csv",
                                      "strategies_vs_iteration.csv", "aggregate_profiles.csv"])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch, capsys, name):
        path, out = self.run_small_microgrid(tmp_path)
        plot = ["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                "--out-dir", str(out / "plots")]
        assert main(plot) == 0
        before = (out / "plots" / name).read_bytes()
        assert run_cli(path, out, "--seed", "8") == 2
        real = Path.write_text

        def interrupted(self, text, *args, **kwargs):
            if not self.name.startswith(name):
                return real(self, text, *args, **kwargs)
            assert text.encode() != before
            with open(self, "w", encoding="utf-8") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", interrupted)
        assert main(plot) == 1
        assert "failed to write outputs: disk full" in capsys.readouterr().err
        assert (out / "plots" / name).read_bytes() == before
        assert not list((out / "plots").glob("*.tmp"))

    @pytest.mark.parametrize("column", ["k", "residual", "alpha", "batch"])
    def test_trace_missing_column_exit_one(self, tmp_path, capsys, column):
        path = write_doc(tmp_path, small_microgrid_doc())
        header = [c for c in ("k", "residual", "alpha", "batch", "wall_ms") if c != column]
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(header) + "\n" + ",".join("1" for _ in header) + "\n")
        assert main(["plot-data", "--config", str(path), "--trace", str(trace),
                     "--out-dir", str(tmp_path / "plots")]) == 1
        assert f"no {column!r} column" in capsys.readouterr().err

    def test_empty_trace_exit_one(self, tmp_path):
        path = write_doc(tmp_path, small_microgrid_doc())
        empty = tmp_path / "trace.csv"
        empty.write_text("k,residual,g_hat_max,g_hat_norm,alpha,batch,wall_ms\n")
        assert main(["plot-data", "--config", str(path), "--trace", str(empty),
                     "--out-dir", str(tmp_path / "plots")]) == 1
