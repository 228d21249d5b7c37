"""Run configuration: one JSON document with named sections.

Sections: ``game`` (microgrid or linear_quadratic description), ``com``
(concentration model kind and extra margins), ``solver`` (schedules and
termination), ``output`` (artifact file names), ``verification`` (Monte
Carlo sizes for the check subcommands). ``_read`` reads every section
against one table that maps each allowed key to its reader. Sections must be
objects and list keys lists; unknown keys anywhere are rejected; validation
errors carry the JSON path of the offending field. Only the keys present are
passed on, so every default is the one of the dataclass a section fills.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .com import ComModel, GAUSSIAN_STANDARD, USER_TABULATED, UnderApproxOffsets
from .lqgame import LqConstraint, LqGameParams, LqPlayer, build_lq_game
from .microgrid import MicrogridParams, build_microgrid_game
from .solver import SolverConfig


class ConfigError(ValueError):
    """Schema or invariant violation; ``errors`` lists per-field messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


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
    microgrid: MicrogridParams | None = None
    lq: LqGameParams | None = None
    com_model: ComModel = field(default_factory=ComModel)
    com_beta: object = 0.0  # scalar or per-constraint list, added to the offsets
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputPaths = field(default_factory=OutputPaths)
    verification: VerificationParams = field(default_factory=VerificationParams)
    raw: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


# A reader takes (value, JSON path, errors) and returns the value read, or
# None after appending an error (or for a null array, which means absent).

def _read(section, table: dict, where: str, errors: list) -> dict:
    """The keys of the object ``section``, each read by its reader in
    ``table``; unknown keys and values read as None are left out. ``where``
    is the section's JSON path ("" for the top level)."""
    if not isinstance(section, dict):
        errors.append(f"{where}: expected an object, got {section!r}")
        return {}
    out = {}
    for key, val in section.items():
        if key not in table:
            errors.append(f"{where or 'top'}.{key}: unknown key")
        elif (got := table[key](val, f"{where}.{key}" if where else key, errors)) is not None:
            out[key] = got
    return out


def _number(lo=None, hi=None, strict_lo=False, strict_hi=False, integer=False):
    """Reader of a finite number within the bounds, an int if ``integer``."""
    def read(val, where, errors):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            errors.append(f"{where}: expected a number, got {val!r}")
        elif not math.isfinite(val):
            errors.append(f"{where}: expected a finite number")
        elif integer and int(val) != val:
            errors.append(f"{where}: expected an integer, got {val!r}")
        elif lo is not None and (val <= lo if strict_lo else val < lo):
            errors.append(f"{where}: must be {'>' if strict_lo else '>='} {lo}, got {val}")
        elif hi is not None and (val >= hi if strict_hi else val > hi):
            errors.append(f"{where}: must be {'<' if strict_hi else '<='} {hi}, got {val}")
        else:
            return int(val) if integer else float(val)
    return read


_REAL = _number()
_POSITIVE = _number(lo=0, strict_lo=True)
_COUNT = _number(lo=0, integer=True)
_SIZE = _number(lo=1, integer=True)
_PROBABILITY = _number(lo=0, hi=1, strict_lo=True, strict_hi=True)
_NONNEGATIVE = _number(lo=0)


def _non_number(val, where):
    """(JSON path, value) of the first entry of the nested lists ``val``
    that is not a number (a string or a boolean, say), or None."""
    if isinstance(val, list):
        return next((bad for i, v in enumerate(val)
                     if (bad := _non_number(v, f"{where}[{i}]")) is not None), None)
    return None if isinstance(val, (int, float)) and not isinstance(val, bool) else (where, val)


def _array(val, where, errors):
    if val is None:
        return None
    if (bad := _non_number(val, where)) is not None:
        errors.append(f"{bad[0]}: expected a number, got {bad[1]!r}")
        return None
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{where}: expected a numeric array")
        return None
    if np.all(np.isfinite(arr)):
        return arr
    errors.append(f"{where}: expected finite numbers")


def _text(val, where, errors):
    if isinstance(val, str):
        return val
    errors.append(f"{where}: expected a string, got {val!r}")


def _flag(val, where, errors):
    if isinstance(val, bool):
        return val
    errors.append(f"{where}: expected a boolean")


def _list(item):
    """Reader of a list whose entries ``item`` reads; a tuple of them, or
    None if any entry is rejected."""
    def read(val, where, errors):
        if val is None:
            return None
        if not isinstance(val, list):
            errors.append(f"{where}: expected a list, got {val!r}")
            return None
        mark = len(errors)
        got = tuple(item(v, f"{where}[{i}]", errors) for i, v in enumerate(val))
        return got if len(errors) == mark else None
    return read


def _filled(cls, table, required=()):
    """Reader of a section whose keys are the fields of ``cls``, each key of
    ``required`` present; None if the section has an error."""
    def read(section, where, errors):
        mark = len(errors)
        fields = _read(section, table, where, errors)
        if len(errors) == mark:
            errors.extend(f"{where}.{key}: required" for key in required if key not in fields)
        return cls(**fields) if len(errors) == mark else None
    return read


_PLAYER = _filled(LqPlayer, {
    "input_dim": _SIZE, "box_lower": _array, "box_upper": _array,
    "quad_self": _REAL, "quad_couple": _REAL, "linear": _array,
}, required=("box_lower", "box_upper"))


def _finite_box_player(val, where, errors):
    """``_PLAYER`` with finite box widths, from which random profiles can be
    drawn; boxes of unequal lengths or in the wrong order are the game's to refuse."""
    player = _PLAYER(val, where, errors)
    if player is not None and player.box_lower.shape == player.box_upper.shape:
        with np.errstate(over="ignore"):
            width = player.box_upper - player.box_lower
        if np.any(width == math.inf):
            errors.append(f"{where}: box_upper - box_lower overflows a double")
            return None
    return player


_CONSTRAINT = _filled(LqConstraint, {
    "input_coeffs": _array, "offset": _REAL, "gamma": _PROBABILITY,
    "state_coeffs": _array,
}, required=("input_coeffs",))
_MICROGRID = {
    "kind": _text, "n_households": _SIZE, "horizon": _SIZE,
    "delta_t": _POSITIVE, "efficiency": _POSITIVE,
    "soc_initial": _REAL, "soc_min": _REAL, "soc_max": _REAL, "soc_desired": _REAL,
    "terminal_band": _POSITIVE, "gamma_soc": _PROBABILITY, "gamma_terminal": _PROBABILITY,
    "tariff_coupling": _POSITIVE, "alpha_discharge": _POSITIVE,
    "beta_discharge": _POSITIVE, "alpha_utility": _POSITIVE, "alpha_battery": _POSITIVE,
    "tou_tariff": _array, "demand": _array, "renewable_peak": _NONNEGATIVE,
    "renewable_mean": _array, "renewable_std": _array,
}
_LQ = {
    "kind": _text, "horizon": _SIZE, "state_dim": _SIZE, "initial_state": _array,
    "a_mats": _array, "b_mats": _list(_array),
    "players": _list(_finite_box_player), "constraints": _list(_CONSTRAINT),
    "noise_mean": _array, "noise_std": _array,
}


def _game(section, where, errors) -> dict | None:
    """RunConfig's game fields: the kind and its microgrid or LQ parameters."""
    kind = section.get("kind") if isinstance(section, dict) else None
    table = {"microgrid": _MICROGRID, "linear_quadratic": _LQ}.get(kind)
    if table is None and isinstance(section, dict):
        errors.append(f"game.kind: expected 'microgrid' or 'linear_quadratic', got {kind!r}")
        return None
    mark = len(errors)
    fields = _read(section, table, where, errors)  # reports a section that is no object
    if kind == "linear_quadratic":
        if "horizon" not in section:
            errors.append("game.horizon: required for linear_quadratic games")
        if section.get("players") in (None, []):
            errors.append("game.players: at least one player is required")
    if len(errors) > mark:
        return None
    del fields["kind"]
    if kind == "linear_quadratic":
        return {"game_kind": kind, "lq": LqGameParams(**fields)}
    try:
        return {"game_kind": kind, "microgrid": MicrogridParams(**fields)}
    except ValueError as exc:
        errors.append(f"game: {exc}")


def _com_kind(val, where, errors):
    if val in (GAUSSIAN_STANDARD, USER_TABULATED):
        return val
    errors.append(f"{where}: unknown kind {val!r}")


def _com_beta(val, where, errors):
    """A nonnegative margin, or a list of them, one per constraint."""
    read = _list(_NONNEGATIVE) if isinstance(val, list) else _NONNEGATIVE
    return read(val, where, errors)


_COM = {"kind": _com_kind, "beta": _com_beta, "theta_grid": _array, "h_grid": _array}


def _com(section, where, errors) -> dict:
    """RunConfig's com fields: the concentration model and ``com_beta``."""
    mark = len(errors)
    fields = _read(section, _COM, where, errors)
    out = {"com_beta": fields.pop("beta")} if "beta" in fields else {}
    if len(errors) == mark:
        try:
            out["com_model"] = ComModel(**fields)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
    return out


_SOLVER = {
    "delta": _number(lo=0, hi=1, strict_lo=True),
    "step_a0": _POSITIVE, "step_offset": _POSITIVE,
    "batch_scale": _POSITIVE, "batch_offset": _POSITIVE, "batch_exponent": _POSITIVE,
    "max_iterations": _COUNT, "residual_tolerance": _NONNEGATIVE,
    "residual_batch": _SIZE, "seed": _COUNT, "checkpoint_every": _COUNT,
    "snapshot_every": _COUNT, "divergence_factor": _number(lo=1),
}

_TOP = {
    "game": _game, "com": _com, "solver": _filled(SolverConfig, _SOLVER),
    "output": _filled(OutputPaths, {"trace": _text, "summary": _text, "strategies": _text}),
    "verification": _filled(VerificationParams, {
        "satisfaction_samples": _SIZE, "epsilon_gap_candidates": _COUNT,
        "epsilon_gap_samples": _SIZE, "epsilon_gap_in_summary": _flag}),
}


def parse_config_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    errors: list[str] = []
    sections = _read(doc, _TOP, "", errors)
    if "game" not in doc:
        errors.append("game: section is required")
    ver = sections.get("verification")
    if ver and ver.epsilon_gap_in_summary and ver.epsilon_gap_candidates < 1:
        errors.append("verification.epsilon_gap_candidates: must be at least 1 when "
                      "verification.epsilon_gap_in_summary is true")
    if errors:
        raise ConfigError(errors)
    return RunConfig(**sections.pop("game"), **sections.pop("com", {}), **sections, raw=doc)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run config; raises ConfigError with details."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: "
                           f"{getattr(exc, 'strerror', None) or exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}: {exc.msg}"]) from exc
    return parse_config_dict(doc)


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
    if model.kind == game.disturbance.com_model.kind and model.kind == GAUSSIAN_STANDARD:
        return game
    return replace(game, disturbance=replace(game.disturbance, com_model=model))
