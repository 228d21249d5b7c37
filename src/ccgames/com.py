"""Concentration-of-measure machinery for chance-constraint tightening.

A concentration model is a monotone nonincreasing function ``h`` with
``h(0) <= 1`` bounding the probability that a regular function of the
disturbance deviates from its mean by more than ``theta``. Replacing the
chance constraint "value <= 0 with probability >= 1 - gamma" by the
conservative expected constraint

    E[value] + scale * h_inverse(gamma) + beta <= 0

yields a convex inner approximation of the feasible set. ``scale`` converts
the tightening into the units of the constraint value (for affine-in-noise
constraints it is the standard deviation of the sampled value; the shipped
game builders compute it, and it is zero for deterministic constraints).
``beta`` is an extra nonnegative margin that can be adjusted empirically;
it is set per run (the config's ``com.beta``, a scalar or one entry per
constraint) and added on top of the offsets ``UnderApproxOffsets`` computes.

This module also provides empirical verification (satisfaction frequencies
with Wilson intervals) and the equilibrium-quality gap estimate that bounds
how much the tightened game's equilibrium can be exploited in the original
chance-constrained game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN_STANDARD = "gaussian-standard"
USER_TABULATED = "user-tabulated"

# 95% two-sided normal quantile, used by the Wilson intervals
_Z95 = 1.959963984540054


def h_gaussian(theta: float) -> float:
    """Deviation bound min{2 exp(-2 theta^2 / pi^2), 1} for standard Gaussians."""
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    return min(2.0 * math.exp(-2.0 * theta * theta / math.pi**2), 1.0)


@dataclass(frozen=True)
class ComModel:
    """Concentration function ``h`` with its generalized inverse.

    kind       : GAUSSIAN_STANDARD or USER_TABULATED.
    theta_grid : tabulated kinds only; increasing grid of theta values.
    h_grid     : tabulated kinds only; nonincreasing values of h in [0, 1].

    Tabulated models interpolate linearly between grid points and hold the
    last value beyond the grid.
    """

    kind: str = GAUSSIAN_STANDARD
    theta_grid: np.ndarray | None = None
    h_grid: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == GAUSSIAN_STANDARD:
            return
        if self.kind != USER_TABULATED:
            raise ValueError(f"unknown concentration model kind: {self.kind!r}")
        tg = np.asarray(self.theta_grid, dtype=float)
        hg = np.asarray(self.h_grid, dtype=float)
        if tg.ndim != 1 or tg.shape != hg.shape or tg.size < 2:
            raise ValueError("tabulated model needs matching 1-D grids of size >= 2")
        if np.any(np.diff(tg) <= 0) or tg[0] < 0:
            raise ValueError("theta_grid must be increasing and nonnegative")
        if np.any(np.diff(hg) > 0) or np.any(hg < 0) or np.any(hg > 1):
            raise ValueError("h_grid must be nonincreasing with values in [0, 1]")
        object.__setattr__(self, "theta_grid", tg)
        object.__setattr__(self, "h_grid", hg)

    def h(self, theta: float) -> float:
        if theta < 0:
            raise ValueError(f"theta must be nonnegative, got {theta}")
        if self.kind == GAUSSIAN_STANDARD:
            return h_gaussian(theta)
        if theta >= self.theta_grid[-1]:
            return float(self.h_grid[-1])
        return float(np.interp(theta, self.theta_grid, self.h_grid))


def h_inverse(model: ComModel, gamma: float, tol: float = 1e-10) -> float:
    """Smallest theta with h(theta) <= gamma.

    Gaussian models use the closed form pi * sqrt(ln(2/gamma) / 2); other
    kinds bisect on [0, theta_max], doubling theta_max until it covers gamma.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if model.h(0.0) <= gamma:
        return 0.0
    if model.kind == GAUSSIAN_STANDARD:
        return math.pi * math.sqrt(math.log(2.0 / gamma) / 2.0)
    lo, hi = 0.0, 1.0
    while model.h(hi) > gamma:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"h never drops to gamma={gamma}; model cannot cover it")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model.h(mid) <= gamma:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class UnderApproxOffsets:
    """Per-constraint tightening offsets scale_j * h_inverse(gamma_j), plus
    any margin beta_j the caller adds."""

    offsets: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=float).reshape(-1)
        if np.any(off < 0):
            raise ValueError("offsets must be nonnegative")
        object.__setattr__(self, "offsets", off)

    @classmethod
    def from_tolerances(cls, model: ComModel, gammas, scales=None) -> "UnderApproxOffsets":
        gammas = np.asarray(gammas, dtype=float).reshape(-1)
        m = gammas.shape[0]
        scales = np.ones(m) if scales is None else np.broadcast_to(
            np.asarray(scales, dtype=float), (m,)).copy()
        if np.any(scales < 0):
            raise ValueError("scales must be nonnegative")
        return cls(np.array([scales[j] * h_inverse(model, gammas[j]) for j in range(m)]))

    @classmethod
    def from_game(cls, game) -> "UnderApproxOffsets":
        cons = game.constraints
        return cls.from_tolerances(game.disturbance.com_model, [c.gamma for c in cons],
                                   scales=[c.com_scale for c in cons])


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SatisfactionReport:
    """Empirical chance-constraint satisfaction at a fixed strategy profile."""

    p_hat: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    targets: np.ndarray
    n_samples: int

    @property
    def all_met(self) -> bool:
        """True when every lower confidence bound reaches its target."""
        return bool(np.all(self.ci_lower >= self.targets))


def estimate_constraint_satisfaction(game, u: np.ndarray, n_samples: int,
                                     rng: np.random.Generator) -> SatisfactionReport:
    """Monte Carlo frequencies of raw constraint satisfaction, with 95% Wilson CIs."""
    from . import game as game_mod

    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    w = game.disturbance.sample(rng, n_samples)
    vals = game_mod.constraint_values(game, u, game_mod.state_batch(game, u, w))
    hits = (vals <= 0.0).sum(axis=0)
    p_hat = hits / n_samples
    los, his = [], []
    for h in hits:
        lo, hi = wilson_interval(int(h), n_samples)
        los.append(lo)
        his.append(hi)
    targets = np.array([1.0 - c.gamma for c in game.constraints])
    return SatisfactionReport(p_hat, np.array(los), np.array(his), targets, n_samples)


@dataclass(frozen=True)
class EpsilonGapEstimate:
    """Sampled lower bound on the per-constraint equilibrium-gap terms.

    m_hat[j] estimates sup over unilateral deviations of
    |1 - gamma_j - P{value_j <= 0} - E[tightened value_j]|, with the sup
    replaced by a max over the supplied candidate deviations. It is therefore
    a lower bound on the true sup, reported as such.
    """

    m_hat: np.ndarray
    samples_used: int = 0
    candidates_evaluated: int = 0


def estimate_epsilon_gap(game, u_star: np.ndarray, candidates, n_samples: int,
                         rng: np.random.Generator,
                         offsets: UnderApproxOffsets) -> EpsilonGapEstimate:
    """Evaluate the gap terms over per-player unilateral deviations.

    Each candidate is a full stacked profile; for every (candidate, player)
    pair the player's block is substituted into ``u_star`` and both the
    satisfaction probability and the expected tightened value are estimated
    on one shared sample set (common random numbers), tightened by
    ``offsets``. The noise part of that set is lifted once; each probe adds
    only its noise-free trajectory.
    """
    from . import game as game_mod

    candidates = [np.asarray(c, dtype=float).reshape(-1) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    u_star = np.asarray(u_star, dtype=float).reshape(-1)
    if not np.allclose(game_mod.project_local(game, u_star), u_star, atol=1e-8):
        raise ValueError("the profile must lie in the local strategy sets")
    for c in candidates:
        if c.shape != u_star.shape:
            raise ValueError("candidate dimension does not match the profile")
        if not np.allclose(game_mod.project_local(game, c), c, atol=1e-8):
            raise ValueError("candidates must lie in the local strategy sets")

    noise = game_mod.lift_noise(game, game.disturbance.sample(rng, n_samples))
    gammas = np.array([c.gamma for c in game.constraints])
    m_hat = np.zeros(game.constraint_count)
    pairs = 0
    for cand in candidates:
        for i in range(game.n_players):
            probe = u_star.copy()
            sl = game.player_slices[i]
            probe[sl] = cand[sl]
            states = noise + game_mod.lift_base(game, probe)
            raw = game_mod.constraint_values(game, probe, states)
            p_hat = (raw <= 0.0).mean(axis=0)
            e_g = raw.mean(axis=0) + offsets.offsets
            m_hat = np.maximum(m_hat, np.abs(1.0 - gammas - p_hat - e_g))
            pairs += 1
    return EpsilonGapEstimate(m_hat, samples_used=n_samples, candidates_evaluated=pairs)
