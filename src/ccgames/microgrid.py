"""Demand-side management benchmark: households sharing one battery.

N households draw power from the grid and from a shared battery charged by
renewables. The scalar shared state is the battery's state of charge,

    SoC_{t+1} = SoC_t + eta * dt * ( r_t - sum_i u^i_t ),

where u^i_t is household i's discharging decision and r_t the (random)
renewable generation, modeled as independent normals per hour. The
disturbance entering the shared dynamics is w_t = eta * dt * r_t, declared
to the game as independent Gaussian coordinates (``DisturbanceModel`` mean
and std), so the solver draws only the SoC_T column its oracles read.

Each household pays a tariff that is affine in the aggregate grid exchange,
carries a quadratic battery-degradation charge, earns a log utility for the
power it consumes from the grid, and is penalized for the terminal deviation
of the SoC from its desired level. Chance constraints keep the SoC inside
its band at every step and near the desired level at the horizon; the
two-sided band is split into two one-sided constraints at half the tolerance
each (union bound), so the resulting game has 2 T + 1 coupled constraints.

Demand and renewable profiles are synthetic placeholders (double-peak demand,
midday-peaked renewables) chosen for plausible shapes only; override them via
the config for real data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .com import ComModel, UnderApproxOffsets
from .dynamics import TimeVaryingLinearDynamics
from .game import CouplingConstraintSpec, DisturbanceModel, GameSpec, PlayerSpec

# time-of-use tariff by hour band: [start, end] -> price
TOU_BANDS = ((0, 4, 15.3), (5, 14, 35.6), (15, 16, 23.3), (17, 21, 45.6), (22, 24, 27.6))


def default_tou_tariff(horizon: int, delta_t: float) -> np.ndarray:
    """Per-step tariff from the hour-of-day bands."""
    out = np.empty(horizon)
    for t in range(horizon):
        hour = min(int(t * delta_t), 24)
        for lo, hi, price in TOU_BANDS:
            if lo <= hour <= hi:
                out[t] = price
                break
        else:
            raise ValueError(f"no tariff band covers hour {hour}")
    return out


def default_demand_profile(horizon: int, delta_t: float) -> np.ndarray:
    """Synthetic double-peak household demand (morning and evening), kW."""
    hours = np.arange(horizon) * delta_t
    return (0.4
            + 1.1 * np.exp(-0.5 * ((hours - 8.5) / 2.0) ** 2)
            + 1.5 * np.exp(-0.5 * ((hours - 19.0) / 2.5) ** 2))


def default_renewable_mean(horizon: int, delta_t: float, peak: float) -> np.ndarray:
    """Synthetic midday-peaked renewable generation mean, kW."""
    hours = np.arange(horizon) * delta_t
    return peak * np.maximum(0.0, np.sin(math.pi * (hours - 6.0) / 12.0))


@dataclass(frozen=True)
class MicrogridParams:
    n_households: int = 20
    horizon: int = 24
    delta_t: float = 1.0
    efficiency: float = 5e-5
    soc_initial: float = 0.5
    soc_min: float = 0.1
    soc_max: float = 0.9
    soc_desired: float = 0.5
    terminal_band: float = 0.05
    gamma_soc: float = 0.1
    gamma_terminal: float = 0.1
    tariff_coupling: float = 1.0
    alpha_discharge: float = 80.0
    beta_discharge: float = 10.0
    alpha_utility: float = 50.0
    alpha_battery: float = 1.0
    tou_tariff: np.ndarray | None = None
    demand: np.ndarray | None = None          # (N, T) or (T,) shared profile
    renewable_peak: float | None = None       # scales the default mean profile
    renewable_mean: np.ndarray | None = None  # (T,)
    renewable_std: np.ndarray | None = None   # (T,)

    def __post_init__(self):
        n, T = self.n_households, self.horizon
        if n < 1 or T < 1:
            raise ValueError("need at least one household and one step")
        if self.delta_t <= 0 or self.efficiency <= 0:
            raise ValueError("delta_t and efficiency must be positive")
        if not (self.soc_min <= self.soc_desired <= self.soc_max):
            raise ValueError("need soc_min <= soc_desired <= soc_max")
        band_room = min(self.soc_desired - self.soc_min, self.soc_max - self.soc_desired)
        if not (0.0 < self.terminal_band < band_room):
            raise ValueError(
                f"terminal_band must be in (0, {band_room}), got {self.terminal_band}")
        for name in ("gamma_soc", "gamma_terminal"):
            g = getattr(self, name)
            if not (0.0 < g < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {g}")
        for name in ("tariff_coupling", "alpha_discharge", "beta_discharge",
                     "alpha_utility", "alpha_battery"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

        tou = default_tou_tariff(T, self.delta_t) if self.tou_tariff is None \
            else np.asarray(self.tou_tariff, dtype=float).reshape(-1)
        if tou.shape[0] != T:
            raise ValueError("tou_tariff must have one entry per step")

        demand = default_demand_profile(T, self.delta_t) if self.demand is None \
            else np.asarray(self.demand, dtype=float)
        if demand.ndim == 1:
            demand = np.tile(demand, (n, 1))
        if demand.shape != (n, T):
            raise ValueError(f"demand must have shape ({n}, {T})")
        if np.any(demand < 0):
            raise ValueError("demand profiles must be nonnegative")

        peak = 0.4 * n if self.renewable_peak is None else float(self.renewable_peak)
        r_mean = default_renewable_mean(T, self.delta_t, peak) if self.renewable_mean is None \
            else np.asarray(self.renewable_mean, dtype=float).reshape(-1)
        r_std = (0.25 * r_mean + 0.02 * peak) if self.renewable_std is None \
            else np.asarray(self.renewable_std, dtype=float).reshape(-1)
        if r_mean.shape[0] != T or r_std.shape[0] != T:
            raise ValueError("renewable profiles must have one entry per step")
        if np.any(r_std < 0):
            raise ValueError("renewable std must be nonnegative")

        object.__setattr__(self, "tou_tariff", tou)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "renewable_peak", peak)
        object.__setattr__(self, "renewable_mean", r_mean)
        object.__setattr__(self, "renewable_std", r_std)


def _input_cost_grad(p: MicrogridParams):
    n, T = p.n_households, p.horizon
    kc = p.tariff_coupling

    def grad(u):
        profile = u.reshape(n, T)
        exchange = p.demand - profile
        price = p.tou_tariff + (kc / n) * exchange.sum(axis=0)
        g = (-(kc / n) * exchange - price
             + 2.0 * p.alpha_discharge * profile + p.beta_discharge)
        return (g + p.alpha_utility / (1.0 + exchange.sum(axis=1, keepdims=True))).reshape(-1)

    return grad


def _terminal_cost_grad(p: MicrogridParams):
    def grad(soc_final):
        # the support is (T,): the one column SoC_T in and its gradient out
        out = soc_final - p.soc_desired
        out *= p.alpha_battery
        return out

    return grad


def household_cost_value(i: int, u: np.ndarray, w: np.ndarray, p: MicrogridParams) -> float:
    """Total cost of household i at one sampled disturbance (reporting only)."""
    n, T = p.n_households, p.horizon
    u = np.asarray(u, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if u.shape[0] != n * T or w.shape[0] != T:
        raise ValueError("dimension mismatch in strategies or disturbance")
    profile = u.reshape(n, T)
    exchange = p.demand - profile
    price = p.tou_tariff + (p.tariff_coupling / n) * exchange.sum(axis=0)
    degradation = (p.alpha_discharge * profile[i] ** 2 + p.beta_discharge * profile[i]).sum()
    inside = 1.0 + exchange[i].sum()
    if inside <= 0:
        raise ValueError(
            f"household {i} grid exchange sum {inside - 1.0} leaves the log domain; "
            "check demand/bounds in the config")
    soc_final = p.soc_initial + w.sum() - p.efficiency * p.delta_t * profile.sum()
    return float((price * exchange[i]).sum() + degradation
                 - p.alpha_utility * math.log(inside)
                 + 0.5 * p.alpha_battery * (soc_final - p.soc_desired) ** 2)


def _soc_band_constraints(p: MicrogridParams):
    """Two one-sided band constraints per step t = 1..T plus the terminal band."""
    T = p.horizon
    cons = []
    scales = _soc_std(p)

    def band(t, sign, offset):
        # sign * e_t, its zeros signed as sign * 0.0 is (-0.0 for the lower band)
        coeffs = np.full(T + 1, sign * 0.0)
        coeffs[t] = sign
        return CouplingConstraintSpec(
            gamma=p.gamma_soc / 2.0, com_scale=scales[t], state_coeffs=coeffs, offset=offset)

    cons.extend(band(t, 1.0, -p.soc_max) for t in range(1, T + 1))
    cons.extend(band(t, -1.0, p.soc_min) for t in range(1, T + 1))

    # both closures receive the support (T,), the one column SoC_T, and
    # compute in the one array they return
    def terminal_value(soc_final):
        out = soc_final[:, 0] - p.soc_desired
        np.abs(out, out=out)
        out -= p.terminal_band
        return out

    def terminal_grad(soc_final):
        out = soc_final - p.soc_desired
        return np.sign(out, out=out)  # sign(0) = 0 at the kink

    cons.append(CouplingConstraintSpec(
        gamma=p.gamma_terminal, com_scale=scales[T],
        state_value=terminal_value, state_grad=terminal_grad))
    return cons


def _soc_std(p: MicrogridParams) -> np.ndarray:
    """Standard deviation of SoC_t induced by the renewables, per t = 0..T."""
    scale = p.efficiency * p.delta_t
    var = np.concatenate([[0.0], np.cumsum((scale * p.renewable_std) ** 2)])
    return np.sqrt(var)


def build_microgrid_game(p: MicrogridParams):
    """Assemble the benchmark as a (game, tightening offsets) pair."""
    n, T = p.n_households, p.horizon
    eff = p.efficiency * p.delta_t
    dyn = TimeVaryingLinearDynamics(
        a_mats=np.ones((T, 1, 1)),
        b_mats=tuple(np.full((T, 1, 1), -eff) for _ in range(n)),
        s0=np.array([p.soc_initial]),
    )
    # one terminal-cost gradient object for every household, so the solver
    # evaluates it once per shared batch
    terminal_grad = _terminal_cost_grad(p)
    players = [
        PlayerSpec(
            input_dim=1,
            box_lower=np.zeros(T),
            box_upper=p.demand[i].copy(),
            cost_state_grad=terminal_grad,
        )
        for i in range(n)
    ]
    constraints = _soc_band_constraints(p)

    disturbance = DisturbanceModel(dim=T, com_model=ComModel(), mean=eff * p.renewable_mean,
                                   std=eff * p.renewable_std)
    # every state oracle reads SoC_T alone
    game = GameSpec(dyn, players, constraints, disturbance, state_support=(T,),
                    cost_input_grad=_input_cost_grad(p))
    offsets = UnderApproxOffsets.from_game(game)
    return game, offsets
