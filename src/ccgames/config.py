"""Run configuration: one JSON document with named sections.

Sections: ``game`` (microgrid or linear_quadratic description), ``com``
(concentration model kind and extra margins), ``solver`` (schedules and
termination), ``output`` (artifact file names), ``verification`` (Monte
Carlo sizes for the check subcommands). Unknown keys anywhere are rejected;
validation errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .com import ComModel, GAUSSIAN_STANDARD, USER_TABULATED, UnderApproxOffsets
from .lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from .microgrid import MicrogridParams, build_microgrid_game
from .solver import BatchSchedule, SolverConfig, StepSchedule


class ConfigError(ValueError):
    """Schema or invariant violation; ``errors`` lists per-field messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


_MICROGRID_KEYS = {
    "kind", "n_households", "horizon", "delta_t", "efficiency", "soc_initial",
    "soc_min", "soc_max", "soc_desired", "terminal_band", "gamma_soc",
    "gamma_terminal", "tariff_coupling", "alpha_discharge", "beta_discharge",
    "alpha_utility", "alpha_battery", "tou_tariff", "demand",
    "renewable_peak", "renewable_mean", "renewable_std",
}
_LQ_KEYS = {
    "kind", "horizon", "state_dim", "initial_state", "a_mats", "b_mats",
    "players", "constraints", "noise_mean", "noise_std",
}
_LQ_PLAYER_KEYS = {"input_dim", "box_lower", "box_upper", "quad_self",
                   "quad_couple", "linear"}
_LQ_CONSTRAINT_KEYS = {"input_coeffs", "offset", "gamma", "state_coeffs"}
_COM_KEYS = {"kind", "beta", "theta_grid", "h_grid"}
_SOLVER_KEYS = {
    "delta", "step_a0", "step_offset", "batch_scale", "batch_offset",
    "batch_exponent", "max_iterations", "residual_tolerance", "residual_batch",
    "seed", "checkpoint_every", "snapshot_every", "divergence_factor",
}
_OUTPUT_KEYS = {"trace", "summary", "strategies"}
_VERIFICATION_KEYS = {"satisfaction_samples", "epsilon_gap_candidates",
                      "epsilon_gap_samples", "epsilon_gap_in_summary"}


@dataclass(frozen=True)
class OutputPaths:
    trace: str = "trace.csv"
    summary: str = "summary.json"
    strategies: str = "strategies.csv"


@dataclass(frozen=True)
class VerificationParams:
    satisfaction_samples: int = 10000
    epsilon_gap_candidates: int = 8
    epsilon_gap_samples: int = 2000
    epsilon_gap_in_summary: bool = False


@dataclass(frozen=True)
class RunConfig:
    game_kind: str
    microgrid: MicrogridParams | None
    lq: LqGameParams | None
    com_model: ComModel
    com_beta: object  # scalar or per-constraint list, added to the offsets
    solver: SolverConfig
    output: OutputPaths
    verification: VerificationParams
    raw: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


def _check_keys(section: dict, allowed: set, where: str, errors: list):
    for key in section:
        if key not in allowed:
            errors.append(f"{where}.{key}: unknown key")


def _number(section, key, where, errors, lo=None, hi=None, strict_lo=False,
            strict_hi=False, default=None, integer=False):
    if key not in section:
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{where}.{key}: expected a number, got {val!r}")
        return default
    if not math.isfinite(val):
        errors.append(f"{where}.{key}: expected a finite number")
        return default
    if integer and int(val) != val:
        errors.append(f"{where}.{key}: expected an integer, got {val!r}")
        return default
    if lo is not None and (val <= lo if strict_lo else val < lo):
        errors.append(f"{where}.{key}: must be {'>' if strict_lo else '>='} {lo}, got {val}")
        return default
    if hi is not None and (val >= hi if strict_hi else val > hi):
        errors.append(f"{where}.{key}: must be {'<' if strict_hi else '<='} {hi}, got {val}")
        return default
    return int(val) if integer else float(val)


def _array(section, key, where, errors, default=None):
    if key not in section or section[key] is None:
        return default
    try:
        return np.asarray(section[key], dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{where}.{key}: expected a numeric array")
        return default


def _parse_microgrid(section: dict, errors: list) -> MicrogridParams | None:
    w = "game"
    _check_keys(section, _MICROGRID_KEYS, w, errors)
    kwargs = {}
    spec = [
        ("n_households", dict(lo=1, integer=True)),
        ("horizon", dict(lo=1, integer=True)),
        ("delta_t", dict(lo=0, strict_lo=True)),
        ("efficiency", dict(lo=0, strict_lo=True)),
        ("soc_initial", dict()),
        ("soc_min", dict()),
        ("soc_max", dict()),
        ("soc_desired", dict()),
        ("terminal_band", dict(lo=0, strict_lo=True)),
        ("gamma_soc", dict(lo=0, hi=1, strict_lo=True, strict_hi=True)),
        ("gamma_terminal", dict(lo=0, hi=1, strict_lo=True, strict_hi=True)),
        ("tariff_coupling", dict(lo=0, strict_lo=True)),
        ("alpha_discharge", dict(lo=0, strict_lo=True)),
        ("beta_discharge", dict(lo=0, strict_lo=True)),
        ("alpha_utility", dict(lo=0, strict_lo=True)),
        ("alpha_battery", dict(lo=0, strict_lo=True)),
        ("renewable_peak", dict(lo=0)),
    ]
    for key, opts in spec:
        val = _number(section, key, w, errors, **opts)
        if val is not None:
            kwargs[key] = val
    for key in ("tou_tariff", "demand", "renewable_mean", "renewable_std"):
        val = _array(section, key, w, errors)
        if val is not None:
            kwargs[key] = val
    if errors:
        return None
    try:
        return MicrogridParams(**kwargs)
    except ValueError as exc:
        errors.append(f"game: {exc}")
        return None


def _parse_lq(section: dict, errors: list) -> LqGameParams | None:
    w = "game"
    _check_keys(section, _LQ_KEYS, w, errors)
    horizon = _number(section, "horizon", w, errors, lo=1, integer=True)
    if horizon is None:
        errors.append("game.horizon: required for linear_quadratic games")
        return None
    state_dim = _number(section, "state_dim", w, errors, lo=1, integer=True, default=1)
    players = []
    for idx, raw in enumerate(section.get("players", [])):
        pw = f"{w}.players[{idx}]"
        _check_keys(raw, _LQ_PLAYER_KEYS, pw, errors)
        input_dim = _number(raw, "input_dim", pw, errors, lo=1, integer=True, default=1)
        lo = _array(raw, "box_lower", pw, errors)
        hi = _array(raw, "box_upper", pw, errors)
        if lo is None or hi is None:
            errors.append(f"{pw}: box_lower and box_upper are required")
            continue
        players.append(LqPlayer(
            input_dim=input_dim, box_lower=lo, box_upper=hi,
            quad_self=_number(raw, "quad_self", pw, errors, default=1.0),
            quad_couple=_number(raw, "quad_couple", pw, errors, default=0.0),
            linear=_array(raw, "linear", pw, errors)))
    if not players:
        errors.append("game.players: at least one player is required")
    constraints = []
    for idx, raw in enumerate(section.get("constraints", [])):
        cw = f"{w}.constraints[{idx}]"
        _check_keys(raw, _LQ_CONSTRAINT_KEYS, cw, errors)
        coeffs = _array(raw, "input_coeffs", cw, errors)
        if coeffs is None:
            errors.append(f"{cw}.input_coeffs: required")
            continue
        constraints.append(LqConstraint(
            input_coeffs=coeffs,
            offset=_number(raw, "offset", cw, errors, default=0.0),
            gamma=_number(raw, "gamma", cw, errors, lo=0, hi=1,
                          strict_lo=True, strict_hi=True, default=0.5),
            state_coeffs=_array(raw, "state_coeffs", cw, errors)))
    if errors:
        return None
    return LqGameParams(
        horizon=horizon, state_dim=state_dim,
        initial_state=_array(section, "initial_state", w, errors),
        a_mats=_array(section, "a_mats", w, errors),
        b_mats=None if section.get("b_mats") is None else tuple(
            np.asarray(b, dtype=float) for b in section["b_mats"]),
        players=tuple(players), constraints=tuple(constraints),
        noise_mean=_array(section, "noise_mean", w, errors),
        noise_std=_array(section, "noise_std", w, errors))


def _parse_com(section: dict, errors: list):
    _check_keys(section, _COM_KEYS, "com", errors)
    kind = section.get("kind", GAUSSIAN_STANDARD)
    if kind not in (GAUSSIAN_STANDARD, USER_TABULATED):
        errors.append(f"com.kind: unknown kind {kind!r}")
        return ComModel(), 0.0
    beta = section.get("beta", 0.0)
    entries = beta if isinstance(beta, list) else [beta]
    if any(isinstance(b, bool) or not isinstance(b, (int, float)) for b in entries):
        errors.append(f"com.beta: expected a number or a list of numbers, got {beta!r}")
    elif not all(math.isfinite(b) for b in entries):
        errors.append("com.beta: expected a finite number")
    elif any(b < 0 for b in entries):
        errors.append(f"com.beta: must be nonnegative, got {beta!r}")
    try:
        model = ComModel(kind=kind,
                         theta_grid=_array(section, "theta_grid", "com", errors),
                         h_grid=_array(section, "h_grid", "com", errors))
    except ValueError as exc:
        errors.append(f"com: {exc}")
        model = ComModel()
    return model, beta


def _parse_solver(section: dict, errors: list) -> SolverConfig:
    w = "solver"
    _check_keys(section, _SOLVER_KEYS, w, errors)
    delta = _number(section, "delta", w, errors, lo=0, hi=1, strict_lo=True, default=0.9)
    step = StepSchedule(
        a0=_number(section, "step_a0", w, errors, lo=0, strict_lo=True, default=1.4e-4),
        offset=_number(section, "step_offset", w, errors, lo=0, strict_lo=True, default=2.0))
    batch = BatchSchedule(
        scale=_number(section, "batch_scale", w, errors, lo=0, strict_lo=True, default=1.0),
        offset=_number(section, "batch_offset", w, errors, lo=0, strict_lo=True, default=2.0),
        exponent=_number(section, "batch_exponent", w, errors, lo=0, strict_lo=True, default=1.1))
    return SolverConfig(
        delta=delta, step=step, batch=batch,
        max_iterations=_number(section, "max_iterations", w, errors, lo=0,
                               integer=True, default=1000),
        residual_tolerance=_number(section, "residual_tolerance", w, errors, lo=0,
                                   default=1e-8),
        residual_batch=_number(section, "residual_batch", w, errors, lo=1,
                               integer=True, default=2000),
        seed=_number(section, "seed", w, errors, lo=0, integer=True, default=0),
        checkpoint_every=_number(section, "checkpoint_every", w, errors, lo=0,
                                 integer=True, default=0),
        snapshot_every=_number(section, "snapshot_every", w, errors, lo=0,
                               integer=True, default=0),
        divergence_factor=_number(section, "divergence_factor", w, errors, lo=1,
                                  default=1e6))


def parse_config_dict(doc: dict) -> RunConfig:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    _check_keys(doc, {"game", "com", "solver", "output", "verification"}, "top", errors)
    game_section = doc.get("game")
    if not isinstance(game_section, dict):
        errors.append("game: section is required")
        raise ConfigError(errors)

    kind = game_section.get("kind")
    microgrid = lq = None
    if kind == "microgrid":
        microgrid = _parse_microgrid(game_section, errors)
    elif kind == "linear_quadratic":
        lq = _parse_lq(game_section, errors)
    else:
        errors.append(f"game.kind: expected 'microgrid' or 'linear_quadratic', got {kind!r}")

    com_model, com_beta = _parse_com(doc.get("com", {}), errors)
    solver = _parse_solver(doc.get("solver", {}), errors)

    out_section = doc.get("output", {})
    _check_keys(out_section, _OUTPUT_KEYS, "output", errors)
    output = OutputPaths(
        trace=str(out_section.get("trace", "trace.csv")),
        summary=str(out_section.get("summary", "summary.json")),
        strategies=str(out_section.get("strategies", "strategies.csv")))

    ver_section = doc.get("verification", {})
    _check_keys(ver_section, _VERIFICATION_KEYS, "verification", errors)
    flag = ver_section.get("epsilon_gap_in_summary", False)
    if not isinstance(flag, bool):
        errors.append("verification.epsilon_gap_in_summary: expected a boolean")
        flag = False
    verification = VerificationParams(
        satisfaction_samples=_number(ver_section, "satisfaction_samples",
                                     "verification", errors, lo=1, integer=True,
                                     default=10000),
        epsilon_gap_candidates=_number(ver_section, "epsilon_gap_candidates",
                                       "verification", errors, lo=0, integer=True,
                                       default=8),
        epsilon_gap_samples=_number(ver_section, "epsilon_gap_samples",
                                    "verification", errors, lo=1, integer=True,
                                    default=2000),
        epsilon_gap_in_summary=flag)

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        game_kind=kind, microgrid=microgrid, lq=lq, com_model=com_model,
        com_beta=com_beta, solver=solver, output=output,
        verification=verification, raw=doc)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run config; raises ConfigError with details."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}: {exc.msg}"]) from exc
    return parse_config_dict(doc)


def emit_config(cfg: RunConfig, path) -> None:
    """Write the config back out; parse(emit(cfg)) round trips."""
    Path(path).write_text(json.dumps(cfg.to_json_dict(), indent=2) + "\n",
                          encoding="utf-8")


def build_game(cfg: RunConfig):
    """Instantiate the configured game and its tightening offsets (plus the
    margin ``com.beta``); a game the builders reject raises ConfigError."""
    try:
        if cfg.game_kind == "microgrid":
            built, base = build_microgrid_game(cfg.microgrid)
        else:
            built, base = build_lq_game(cfg.lq)
    except ValueError as exc:
        raise ConfigError([f"game: {exc}"]) from exc
    game = _override_com(built, cfg.com_model)
    beta = np.asarray(cfg.com_beta, dtype=float)
    if beta.ndim == 1 and beta.shape[0] != game.constraint_count:
        raise ConfigError([f"com.beta: {beta.shape[0]} entries, expected one per "
                           f"constraint ({game.constraint_count})"])
    if game is not built:  # another concentration model: other offsets
        base = UnderApproxOffsets.from_game(game)
    return game, UnderApproxOffsets(base.offsets + beta)


def _override_com(game, model: ComModel):
    from dataclasses import replace

    if model.kind == game.disturbance.com_model.kind and model.kind == GAUSSIAN_STANDARD:
        return game
    return replace(game, disturbance=replace(game.disturbance, com_model=model))
