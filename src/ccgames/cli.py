"""Command-line front end.

Subcommands:

    run                solve the configured game, write trace/summary/strategies
    validate           check the solver schedules against the estimated operator bound
    check-constraints  Monte Carlo chance-constraint verification of a strategy file
    epsilon-gap        equilibrium-gap certificate terms at a strategy file
    plot-data          tidy CSV extracts (residual decay, profiles) from a trace

Exit codes for ``run``: 0 tolerance reached, 2 iteration budget exhausted,
3 divergence guard tripped, 4 non-finite iterate, 1 configuration or I/O
failure. ``summary.json`` is strict JSON: a non-finite number is written as null.
Every front-end failure, in any subcommand, is one ``CliError`` (or a
``ConfigError`` or ``BatchError``) that ``main`` prints to stderr, then returns 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import com as com_mod
from . import game as game_mod
from . import solver as solver_mod
from .config import ConfigError, RunConfig, build_game, parse_config
from .rng import PURPOSE_PROBE, substream


class CliError(Exception):
    """A front-end failure: ``main`` prints the message to stderr and returns 1."""


@contextmanager
def _failing_as(prefix):
    """Re-raise an OSError or ValueError of the block as ``CliError("prefix: error")``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CliError(f"{prefix}: {exc}") from exc


def _strategy_rows(game, u):
    """'player,t,component,value' of every entry of the profile u, in file order."""
    for i, sl in enumerate(game.player_slices):
        n_i = game.players[i].input_dim
        block = u[sl].reshape(game.dynamics.horizon, n_i)
        for t in range(game.dynamics.horizon):
            for comp in range(n_i):
                yield f"{i},{t},{comp},{float(block[t, comp])!r}"


def _lines(header, rows) -> str:
    return "".join(line + "\n" for line in (header, *rows))


def write_strategies_csv(path, game, u) -> None:
    """Strategy interchange file: one row per (player, step, component)."""
    solver_mod.write_text_atomic(path, _lines("player,t,component,value",
                                              _strategy_rows(game, u)))


def read_strategies_csv(path, game) -> np.ndarray:
    """Read a strategy file ('u' is an alias of 'value'); every entry appears
    once, finite, or a ``ValueError`` names the offending line."""
    u = np.zeros(game.input_dim)
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty strategy file")
        cols = set(reader.fieldnames)
        if "value" in cols:
            value_col, comp_col = "value", "component"
        elif "u" in cols:
            value_col, comp_col = "u", None
        else:
            raise ValueError(f"{path}: expected a 'value' or 'u' column")
        if not {"player", "t"} <= cols:
            raise ValueError(f"{path}, line 1: expected 'player' and 't' columns")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
            try:
                i, t = int(row["player"]), int(row["t"])
                comp = int(row[comp_col]) if comp_col and row.get(comp_col) else 0
                value = float(row[value_col])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: value {value} is not finite")
            if not (0 <= i < game.n_players):
                raise ValueError(f"{where}: player index {i} out of range")
            n_i = game.players[i].input_dim
            if not (0 <= t < game.dynamics.horizon and 0 <= comp < n_i):
                raise ValueError(f"{where}: entry (t={t}, component={comp}) out of range")
            idx = game.player_slices[i].start + t * n_i + comp
            if idx in seen:
                raise ValueError(f"{where}: duplicate entry (player={i}, t={t}, component={comp})")
            seen.add(idx)
            u[idx] = value
    if len(seen) != game.input_dim:
        raise ValueError(f"{path}: {len(seen)} entries, game expects {game.input_dim}")
    return u


def _write_snapshots_csv(path, trace, game) -> None:
    solver_mod.write_text_atomic(path, _lines("k,player,t,component,value", (
        f"{rec.k},{row}" for rec in trace.records if rec.strategies is not None
        for row in _strategy_rows(game, rec.strategies))))


def _strict_json(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def epsilon_gap(cfg: RunConfig, game, offsets, u) -> com_mod.EpsilonGapEstimate:
    """Gap terms at ``u`` over the configured random candidates and probe streams."""
    cand_rng = substream(cfg.solver.seed, PURPOSE_PROBE, 1)
    candidates = [game_mod.random_feasible_profile(game, cand_rng)
                  for _ in range(cfg.verification.epsilon_gap_candidates)]
    return com_mod.estimate_epsilon_gap(
        game, u, candidates, cfg.verification.epsilon_gap_samples,
        substream(cfg.solver.seed, PURPOSE_PROBE, 2), offsets=offsets)


def cmd_validate(args, cfg: RunConfig, game, offsets) -> int:
    lip = solver_mod.estimate_lipschitz(game, offsets, seed=cfg.solver.seed)
    report = solver_mod.validate_config(cfg.solver, lip)
    print(f"estimated operator Lipschitz bound: {lip:.6g}")
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    print("validation " + ("passed" if report.passed else "failed"))
    return 0 if report.passed else 2


def cmd_run(args, cfg: RunConfig, game, offsets) -> int:
    if not args.force:
        lip = solver_mod.estimate_lipschitz(game, offsets, seed=cfg.solver.seed)
        report = solver_mod.validate_config(cfg.solver, lip)
        if not report.passed:
            raise CliError("\n".join([*(f"validation failure: {check.name}: {check.detail}"
                                        for check in report.failures),
                                      "refusing to run; pass --force to override"]))

    out_dir = Path(args.out_dir)
    with _failing_as("cannot create output directory"):
        out_dir.mkdir(parents=True, exist_ok=True)

    def checkpoint(state, record):
        if state.k % cfg.solver.checkpoint_every == 0:
            with _failing_as("cannot write checkpoint"):
                solver_mod.write_checkpoint(state, cfg.solver, out_dir)
    trace = solver_mod.run(game, offsets, cfg.solver,
                           observe=checkpoint if cfg.solver.checkpoint_every else None)
    state = trace.final_state
    # the estimates are defined at a profile in the local sets, which a NaN is not
    omitted = None if state.is_finite() else "the final iterate is not finite"
    if omitted:
        satisfaction = {"constraint_satisfaction_omitted": omitted, "all_constraints_met": None}
    else:
        rep = com_mod.estimate_constraint_satisfaction(
            game, state.u, cfg.verification.satisfaction_samples,
            substream(cfg.solver.seed, PURPOSE_PROBE, 3))
        satisfaction = {"constraint_satisfaction": [
            {"index": j, "p_hat": float(rep.p_hat[j]), "ci_lower": float(rep.ci_lower[j]),
             "ci_upper": float(rep.ci_upper[j]), "target": float(rep.targets[j])}
            for j in range(game.constraint_count)], "all_constraints_met": rep.all_met}

    summary = {
        "termination_reason": trace.termination_reason,
        "iterations": state.k,
        "final_residual": trace.records[-1].residual,
        "final_multiplier": [float(x) for x in state.lam],
        "active_iterations": (np.array([r.lam for r in trace.records]) > 0).sum(axis=0).tolist(),
        "row_draw_iterations": sum(bool(game.support) and solver_mod.players_draw_rows(game, r.lam)
                                   for r in trace.records if r.k < state.k),
        **satisfaction,
        "non_finite_updates": solver_mod.non_finite_updates(game, state),
        "seed": cfg.solver.seed,
        "config": cfg.to_json_dict(),
    }
    if cfg.verification.epsilon_gap_in_summary and omitted:
        summary["epsilon_gap_omitted"] = omitted
    elif cfg.verification.epsilon_gap_in_summary:
        gap = epsilon_gap(cfg, game, offsets, state.u)
        summary["epsilon_gap"] = {
            "m_hat": [float(x) for x in gap.m_hat],
            "bound_with_final_multiplier": float(np.dot(state.lam, gap.m_hat)),
            "candidates_evaluated": gap.candidates_evaluated,
        }

    with _failing_as("failed to write outputs"):
        write_trace_csv(trace, out_dir / cfg.output.trace)
        write_strategies_csv(out_dir / cfg.output.strategies, game, state.u)
        if cfg.solver.snapshot_every:
            _write_snapshots_csv(out_dir / "strategy_snapshots.csv", trace, game)
        else:  # no older run's snapshots beside this run's trace
            (out_dir / "strategy_snapshots.csv").unlink(missing_ok=True)
        solver_mod.write_text_atomic(
            out_dir / cfg.output.summary,
            json.dumps(_strict_json(summary), indent=2, allow_nan=False) + "\n")

    culprits = summary["non_finite_updates"]
    reason = trace.termination_reason + (f" ({', '.join(culprits)})" if culprits else "")
    print(f"terminated: {reason} after {state.k} iterations, "
          f"residual {trace.records[-1].residual:.6g}")
    return {solver_mod.TERMINATION_TOLERANCE: 0,
            solver_mod.TERMINATION_BUDGET: 2,
            solver_mod.TERMINATION_DIVERGENCE: 3,
            solver_mod.TERMINATION_NON_FINITE: 4}[trace.termination_reason]


def cmd_check_constraints(args, cfg: RunConfig, game, offsets) -> int:
    with _failing_as("cannot read strategies"):
        u = read_strategies_csv(args.strategies, game)
    if args.samples is not None and args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    samples = cfg.verification.satisfaction_samples if args.samples is None else args.samples
    rng = substream(cfg.solver.seed, PURPOSE_PROBE, 3)
    rep = com_mod.estimate_constraint_satisfaction(game, u, samples, rng)
    print(f"constraint satisfaction over {rep.n_samples} samples:")
    for j in range(game.constraint_count):
        ok = rep.ci_lower[j] >= rep.targets[j]
        print(f"  [{'ok  ' if ok else 'FAIL'}] constraint {j}: "
              f"p_hat={rep.p_hat[j]:.4f} CI=[{rep.ci_lower[j]:.4f}, {rep.ci_upper[j]:.4f}] "
              f"target={rep.targets[j]:.4f}")
    if game.constraint_count == 0:
        print("  no coupled constraints; vacuous pass")
    return 0 if rep.all_met or game.constraint_count == 0 else 2


def cmd_epsilon_gap(args, cfg: RunConfig, game, offsets) -> int:
    with _failing_as("cannot read strategies"):
        u_star = read_strategies_csv(args.strategies, game)
    if cfg.verification.epsilon_gap_candidates < 1:
        raise CliError("verification.epsilon_gap_candidates must be at least 1")
    with _failing_as("cannot certify the strategies"):
        gap = epsilon_gap(cfg, game, offsets, u_star)
    print(f"gap terms over {gap.candidates_evaluated} unilateral deviations "
          f"({gap.samples_used} samples each); sampled max is a lower bound on the sup:")
    for j, m in enumerate(gap.m_hat):
        print(f"  constraint {j}: M_hat = {m:.6g}")
    print("certificate form: unilateral improvement <= sum_j lambda_j * M_hat_j "
          "for any dual-feasible lambda")
    return 0


def write_trace_csv(trace: solver_mod.RunTrace, path) -> None:
    """Trace CSV: one row per record, '.' decimals, LF endings, UTF-8."""
    # every trace ends with the record of its last iterate
    lam_cols = [f"lambda_{j}" for j in range(trace.records[0].lam.shape[0])]
    header = ["k", "residual", "g_hat_max", "g_hat_norm", *lam_cols,
              "alpha", "batch", "wall_ms"]
    rows = (",".join([str(rec.k), repr(rec.residual), repr(rec.g_hat_max),
                      repr(rec.g_hat_norm), *(repr(float(x)) for x in rec.lam),
                      repr(rec.alpha), str(rec.batch), f"{rec.wall_ms:.3f}"])
            for rec in trace.records)
    solver_mod.write_text_atomic(path, _lines(",".join(header), rows))


def _read_trace(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("k", "residual", "alpha", "batch"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: not a trace file, no {column!r} column")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: trace has no rows")
    return rows


def cmd_plot_data(args, cfg: RunConfig, game, offsets) -> int:
    with _failing_as("cannot read trace"):
        rows = _read_trace(args.trace)
    strategies_path = Path(args.strategies) if args.strategies else \
        Path(args.trace).parent / cfg.output.strategies
    u = None
    if args.strategies or cfg.game_kind == "microgrid" and strategies_path.exists():
        with _failing_as("cannot read strategies"):
            u = read_strategies_csv(strategies_path, game)

    outputs = {"residual_vs_iteration.csv": _lines("k,residual,alpha,batch", (
        f"{row['k']},{row['residual']},{row['alpha']},{row['batch']}" for row in rows))}
    out_dir, snaps = Path(args.out_dir), Path(args.trace).parent / "strategy_snapshots.csv"
    with _failing_as("failed to write outputs"):
        if snaps.exists():
            outputs["strategies_vs_iteration.csv"] = snaps.read_text(encoding="utf-8")
        if u is not None and cfg.game_kind == "microgrid":
            p = cfg.microgrid
            battery = u.reshape(p.n_households, p.horizon).sum(axis=0)
            total_demand = p.demand.sum(axis=0)
            outputs["aggregate_profiles.csv"] = _lines(
                "t,total_demand,grid_exchange,battery_discharge,renewable_mean",
                (f"{t},{float(total_demand[t])!r},{float(total_demand[t] - battery[t])!r},"
                 f"{float(battery[t])!r},{float(p.renewable_mean[t])!r}"
                 for t in range(p.horizon)))
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            solver_mod.write_text_atomic(out_dir / name, text)

    print("wrote " + ", ".join(outputs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccgames",
        description="equilibrium seeking for dynamic games with coupled chance constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, needs_out=False):
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        if needs_out:
            p.add_argument("--out-dir", default=".", help="output directory")

    p_run = sub.add_parser("run", help="solve and write trace/summary/strategies")
    common(p_run, cmd_run, needs_out=True)
    p_run.add_argument("--force", action="store_true",
                       help="run even if schedule validation fails")

    p_val = sub.add_parser("validate", help="check solver schedules")
    common(p_val, cmd_validate)

    p_chk = sub.add_parser("check-constraints",
                           help="verify chance constraints at a strategy file")
    common(p_chk, cmd_check_constraints)
    p_chk.add_argument("--strategies", required=True, help="strategy CSV to verify")
    p_chk.add_argument("--samples", type=int, default=None,
                       help="override verification sample count")

    p_eps = sub.add_parser("epsilon-gap",
                           help="equilibrium-gap certificate terms at a strategy file")
    common(p_eps, cmd_epsilon_gap)
    p_eps.add_argument("--strategies", required=True, help="strategy CSV to probe")

    p_plot = sub.add_parser("plot-data", help="emit tidy CSVs from a trace")
    common(p_plot, cmd_plot_data, needs_out=True)
    p_plot.add_argument("--trace", required=True, help="trace CSV from a run")
    p_plot.add_argument("--strategies", default=None,
                        help="strategy CSV for profile extracts")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise CliError(f"--seed must be nonnegative, got {args.seed}")
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed))
        game, offsets = build_game(cfg)
        return args.handler(args, cfg, game, offsets)
    except (CliError, ConfigError, solver_mod.BatchError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
