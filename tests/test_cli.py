import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccgames.com import h_inverse
from ccgames.cli import epsilon_gap, main, read_strategies_csv, write_strategies_csv
from ccgames.config import (ConfigError, OutputPaths, VerificationParams, build_game,
                            emit_config, parse_config)
from ccgames.solver import SolverConfig

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


class TestParseConfig:
    def test_shipped_configs_parse(self):
        for name in ("quadratic_oracle.json", "microgrid_reduced.json",
                     "microgrid_paper.json"):
            cfg = parse_config(CONFIG_DIR / name)
            game, offsets = build_game(cfg)
            assert game.input_dim > 0
            assert offsets.offsets.shape == (game.constraint_count,)

    def test_round_trip(self, tmp_path):
        for name in ("quadratic_oracle.json", "microgrid_reduced.json",
                     "microgrid_paper.json"):
            cfg = parse_config(CONFIG_DIR / name)
            emit_config(cfg, tmp_path / name)
            again = parse_config(tmp_path / name)
            assert again.to_json_dict() == cfg.to_json_dict()

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


class TestConfigErrors:
    @pytest.mark.parametrize("edit, path", [
        (edited("solver", "max_iterations", float("nan")), "solver.max_iterations"),
        (edited("solver", "seed", float("nan")), "solver.seed"),
        (edited("solver", "max_iterations", float("inf")), "solver.max_iterations"),
        (edited("solver", "divergence_factor", float("nan")), "solver.divergence_factor"),
        (edited("solver", "residual_tolerance", float("nan")), "solver.residual_tolerance"),
        (edited("com", "beta", float("nan")), "com.beta"),
        (edited("com", "beta", [float("inf")]), "com.beta"),
    ], ids=["nan-iterations", "nan-seed", "inf-iterations", "nan-divergence",
            "nan-tolerance", "nan-beta", "inf-beta-entry"])
    def test_non_finite_scalar_rejected(self, tmp_path, capsys, edit, path):
        doc = oracle_doc()
        edit(doc)
        assert_one_message_exit_one(tmp_path, capsys, doc, f"{path}: expected a finite number")

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
    ], ids=["solver-list", "solver-string", "com-list", "output-list",
            "verification-string", "player-not-object", "b-mats-not-list",
            "b-mats-ragged", "output-name-number"])
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
        assert cfg.solver == replace(SolverConfig(),
                                     step=replace(SolverConfig().step, a0=3.0),
                                     batch=replace(SolverConfig().batch, exponent=1.5))

    @pytest.mark.parametrize("beta", [-0.1, [-0.1]])
    def test_negative_com_beta_rejected(self, tmp_path, capsys, beta):
        doc = oracle_doc()
        doc["com"]["beta"] = beta
        assert_one_message_exit_one(tmp_path, capsys, doc,
                                    f"com.beta: must be nonnegative, got {beta!r}")

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
        import ccgames.com as com_mod

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


class TestRunCommand:
    def test_zero_budget_exit_two_one_row(self, tmp_path):
        doc = small_lq_doc(max_iterations=0)
        code = main(["run", "--config", str(write_doc(tmp_path, doc)),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        rows = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + the single initial record

    def test_oracle_run_converges_exit_zero(self, tmp_path):
        doc = small_lq_doc()
        code = main(["run", "--config", str(write_doc(tmp_path, doc)),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination_reason"] == "tolerance"
        cfg = parse_config(write_doc(tmp_path, doc))
        game, _ = build_game(cfg)
        u = read_strategies_csv(tmp_path / "out" / "strategies.csv", game)
        assert np.linalg.norm(u - 0.5) <= 1e-2  # closed-form equilibrium

    def test_unwritable_output_exit_one(self, tmp_path):
        doc = small_lq_doc(max_iterations=0)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["run", "--config", str(write_doc(tmp_path, doc)),
                     "--out-dir", str(blocker / "out")])
        assert code == 1

    def test_validation_gate_and_force(self, tmp_path):
        doc = small_lq_doc()
        doc["solver"]["delta"] = 0.5
        doc["solver"]["max_iterations"] = 1
        path = write_doc(tmp_path, doc)
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "o1")]) == 1
        assert main(["run", "--config", str(path), "--force",
                     "--out-dir", str(tmp_path / "o2")]) == 2

    def test_non_finite_gradient_exit_four(self, tmp_path, capsys):
        doc = small_lq_doc(max_iterations=50)
        doc["game"]["players"][0]["linear"] = [float("nan"), -1.0]
        code = main(["run", "--config", str(write_doc(tmp_path, doc)), "--force",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination_reason"] == "non-finite"
        assert summary["iterations"] == 1
        assert summary["non_finite_updates"] == ["player 0 strategy update"]
        assert "terminated: non-finite (player 0 strategy update) after 1 iterations" \
            in capsys.readouterr().out

    def test_non_finite_operator_refused_by_gate(self, tmp_path, capsys):
        doc = small_lq_doc()
        doc["game"]["players"][0]["linear"] = [float("nan"), -1.0]
        code = main(["run", "--config", str(write_doc(tmp_path, doc)),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "operator-finite: the sampled operator is not finite" in err
        assert "lipschitz estimate must be positive" not in err

    def test_seed_override_changes_run(self, tmp_path):
        doc = small_microgrid_doc()
        path = write_doc(tmp_path, doc)
        main(["run", "--config", str(path), "--out-dir", str(tmp_path / "a"),
              "--seed", "1"])
        main(["run", "--config", str(path), "--out-dir", str(tmp_path / "b"),
              "--seed", "2"])
        a = (tmp_path / "a" / "strategies.csv").read_text()
        b = (tmp_path / "b" / "strategies.csv").read_text()
        assert a != b

    def test_rerun_bit_identical_except_wall_time(self, tmp_path):
        doc = small_microgrid_doc()
        path = write_doc(tmp_path, doc)
        main(["run", "--config", str(path), "--out-dir", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "strategies.csv").read_text() == \
            (tmp_path / "b" / "strategies.csv").read_text()
        for name in ("a", "b"):
            pass
        rows_a = (tmp_path / "a" / "trace.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "trace.csv").read_text().splitlines()
        # wall_ms is the last column and inherently nondeterministic
        strip = lambda rows: ["," .join(r.split(",")[:-1]) for r in rows]
        assert strip(rows_a) == strip(rows_b)

    @pytest.mark.parametrize("name", ["trace.csv", "strategies.csv",
                                      "strategy_snapshots.csv", "summary.json"])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch, capsys,
                                                   name):
        doc = small_microgrid_doc()
        doc["solver"]["snapshot_every"] = 2
        path, out = write_doc(tmp_path, doc), tmp_path / "out"
        main(["run", "--config", str(path), "--out-dir", str(out)])
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
        assert main(["run", "--config", str(path), "--out-dir", str(out),
                     "--seed", "8"]) == 1
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
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        cfg = parse_config(path)
        game, offsets = build_game(cfg)
        u = read_strategies_csv(tmp_path / "strategies.csv", game)
        gap = epsilon_gap(cfg, game, offsets, u)
        assert summary["epsilon_gap"]["m_hat"] == [float(x) for x in gap.m_hat]
        assert summary["epsilon_gap"]["candidates_evaluated"] == 3 * game.n_players
        assert any(x > 0.0 for x in gap.m_hat)

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
        main(["run", "--config", str(path), "--out-dir", str(out)])
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

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        path, out = self.run_small_microgrid(tmp_path)
        code = main(["plot-data", "--config", str(path), "--trace", str(out / "trace.csv"),
                     "--out-dir", str(out / "trace.csv" / "plots")])
        assert code == 1
        assert "failed to write outputs" in capsys.readouterr().err

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
