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
chance-constrained game. Both evaluate their sample set in blocks of at
most ``BLOCK_FLOATS`` = 2^14 float64s (128 KiB, glibc's default mmap
threshold), which the allocator serves without faulting in fresh pages on
every call: row blocks of the satisfaction estimate's trajectories and
values, probe blocks of the gap estimate's closure columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN_STANDARD = "gaussian-standard"
USER_TABULATED = "user-tabulated"

# 95% two-sided normal quantile, used by the Wilson intervals
_Z95 = 1.959963984540054

# float64s in one block of a verification estimate's arrays (128 KiB)
BLOCK_FLOATS = 2 ** 14


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
        return float(np.interp(theta, self.theta_grid, self.h_grid))


def h_inverse(model: ComModel, gamma: float) -> float:
    """Smallest theta with h(theta) <= gamma.

    Gaussian models use the closed form pi * sqrt(ln(2/gamma) / 2). A table
    is inverted exactly: the crossing on the first segment that reaches
    gamma, stepped up to the next double while h there still exceeds gamma.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if model.h(0.0) <= gamma:
        return 0.0
    if model.kind == GAUSSIAN_STANDARD:
        return math.pi * math.sqrt(math.log(2.0 / gamma) / 2.0)
    tg, hg = model.theta_grid, model.h_grid
    if hg[-1] > gamma:
        raise ValueError(f"h never drops to gamma={gamma}; model cannot cover it")
    i = int(np.argmax(hg <= gamma))  # h(tg[i - 1]) > gamma >= h(tg[i])
    theta = float(tg[i - 1] + (tg[i] - tg[i - 1]) * (hg[i - 1] - gamma) / (hg[i - 1] - hg[i]))
    while model.h(theta) > gamma:
        theta = math.nextafter(theta, math.inf)
    return theta


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


def wilson_intervals(successes: np.ndarray, n: int, z: float = _Z95) -> tuple:
    """(lower, upper) arrays of ``wilson_interval`` of each count, by the same IEEE operations."""
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


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


def _block_rows(width: int) -> int:
    """Rows of ``width`` floats each that fit in ``BLOCK_FLOATS``, or one."""
    return max(1, BLOCK_FLOATS // max(width, 1))


def estimate_constraint_satisfaction(game, u: np.ndarray, n_samples: int,
                                     rng: np.random.Generator) -> SatisfactionReport:
    """Monte Carlo frequencies of raw constraint satisfaction, with 95% Wilson CIs.

    The rows are one ``sample`` call, lifted and evaluated in row blocks; the
    values are row-wise and the hit counts integer sums, so blocks change no bit.
    """
    from . import game as game_mod

    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    w = game.disturbance.sample(rng, n_samples)
    base, hits = game_mod.base_trajectory(game, u), np.zeros(game.constraint_count, np.intp)
    block = _block_rows(max(game.state_traj_dim, game.constraint_count))
    for lo in range(0, n_samples, block):
        states = game_mod.lift_noise(game, w[lo:lo + block])
        states += base
        hits += (game_mod.constraint_values(game, u, states) <= 0.0).sum(axis=0)
    targets = np.array([1.0 - c.gamma for c in game.constraints])
    return SatisfactionReport(hits / n_samples, *wilson_intervals(hits, n_samples), targets,
                              n_samples)


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
    pair, a probe, the player's block is substituted into ``u_star``, and the
    satisfaction probability and expected tightened value are estimated on one
    shared sample set (common random numbers), tightened by ``offsets``. Its
    noise part ``N = lift_noise(w) @ state_map`` is evaluated once, and a probe
    shifts column j by its noise-free part C_j: an affine-only column counts
    ``N_j <= -C_j`` in a sorted N_j (``fl(a + b) <= 0`` exactly when ``a <= -b``)
    and averages ``mean(N_j) + C_j``; a closure column is evaluated per row.
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
    if any(c.shape != u_star.shape for c in candidates):
        raise ValueError("candidate dimension does not match the profile")
    stacked = np.array(candidates)
    if not np.allclose(stacked.clip(game.box_lower, game.box_upper), stacked, atol=1e-8):
        raise ValueError("candidates must lie in the local strategy sets")

    noise = game_mod.lift_noise(game, game.disturbance.sample(rng, n_samples))
    m, support, nonlinear = game.constraint_count, game.support_index, game.nonlinear_columns
    shared = np.zeros((n_samples, m)) if game.state_map is None else noise @ game.state_map
    # each probe's noise-free constraint part and support columns, one product per player
    u_base, steps = game_mod.base_trajectory(game, u_star), stacked - u_star
    shift = np.stack([steps[:, sl] @ game.constant_jacobian[sl] for sl in game.player_slices], 1)
    base = np.stack([steps[:, sl] @ maps
                     for sl, maps in zip(game.player_slices, game.support_input_maps_t)], 1)
    shift = (shift + game_mod._affine_part(game, game_mod._input_part(game, u_star),
                                           u_base)).reshape(len(stacked) * game.n_players, m)
    base = (base + u_base[support]).reshape(len(shift), -1)
    hits, e_g = np.empty_like(shift), shared.mean(axis=0) + shift
    affine = [j for j in range(m) if j not in nonlinear]
    columns = shared.T[affine]  # one copy, sorted in place
    columns.sort(axis=1)
    for j, column in zip(affine, columns):
        hits[:, j] = np.searchsorted(column, -shift[:, j], side="right")
    # a block of probes' (n_samples, s) support rows fits in BLOCK_FLOATS
    rows, block = noise[:, support], _block_rows(n_samples * len(game.support))
    for j in nonlinear:
        for probes in (slice(lo, lo + block) for lo in range(0, len(shift), block)):
            probe_rows = (rows + base[probes, None, :]).reshape(-1, rows.shape[1])
            raw = shared[:, j] + shift[probes, j, None]
            raw += game.constraints[j].state_value(probe_rows).reshape(raw.shape)
            hits[probes, j], e_g[probes, j] = (raw <= 0.0).sum(axis=1), raw.mean(axis=1)
    gammas = np.array([c.gamma for c in game.constraints])
    m_hat = np.abs(1.0 - gammas - hits / n_samples - (e_g + offsets.offsets)).max(axis=0)
    return EpsilonGapEstimate(m_hat, n_samples, len(shift))
