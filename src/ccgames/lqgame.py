"""Generic linear-quadratic test games with affine coupled constraints.

Player costs take the aggregative quadratic form

    cost_i(u) = q_self/2 ||u^i||^2 + q_couple <u^i, sum_{j != i} u^j> + <c_i, u^i>,

which requires all players to share one block dimension. Coupled constraints
are affine in the profile and, optionally, in the stacked trajectory:

    value_j(s, u) = <state_coeffs_j, s> + <input_coeffs_j, u> + offset_j.

The disturbance has independent Gaussian coordinates N(noise_mean,
noise_std^2), declared to the game (``DisturbanceModel`` mean and std), so
the constraint value is Gaussian and the concentration scale is exactly its
standard deviation; for a deterministic disturbance (zero std) it is zero
and no tightening is applied. These games double as
closed-form oracles: when boxes are inactive the equilibrium-multiplier pair
solves a linear KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .com import ComModel, UnderApproxOffsets
from .dynamics import TimeVaryingLinearDynamics, build_compact_lift
from .game import CouplingConstraintSpec, DisturbanceModel, GameSpec, PlayerSpec


@dataclass(frozen=True)
class LqPlayer:
    box_lower: np.ndarray
    box_upper: np.ndarray
    input_dim: int = 1
    quad_self: float = 1.0
    quad_couple: float = 0.0
    linear: np.ndarray | None = None


@dataclass(frozen=True)
class LqConstraint:
    input_coeffs: np.ndarray
    offset: float = 0.0
    gamma: float = 0.5
    state_coeffs: np.ndarray | None = None


@dataclass(frozen=True)
class LqGameParams:
    horizon: int
    state_dim: int = 1
    initial_state: np.ndarray | None = None
    a_mats: np.ndarray | None = None           # default: identity every step
    b_mats: tuple | None = None                # default: zero input influence
    players: tuple = field(default_factory=tuple)
    constraints: tuple = field(default_factory=tuple)
    noise_mean: np.ndarray | None = None       # default zeros
    noise_std: np.ndarray | None = None        # default zeros (deterministic)


def _resolved_dynamics(p: LqGameParams) -> TimeVaryingLinearDynamics:
    T, n_s = p.horizon, p.state_dim
    a = np.tile(np.eye(n_s), (T, 1, 1)) if p.a_mats is None \
        else np.asarray(p.a_mats, dtype=float)
    if p.b_mats is None:
        b = tuple(np.zeros((T, n_s, pl.input_dim)) for pl in p.players)
    else:
        b = tuple(np.asarray(bm, dtype=float) for bm in p.b_mats)
    s0 = np.zeros(n_s) if p.initial_state is None \
        else np.asarray(p.initial_state, dtype=float)
    return TimeVaryingLinearDynamics(a_mats=a, b_mats=b, s0=s0)


def pseudo_gradient_matrix(p: LqGameParams):
    """Affine expected pseudo-gradient F(u) = M u + c, assembled from the costs.

    This is the linear-algebra description used by KKT oracles; it is built
    straight from the parameters, independent of the sampling evaluators.
    """
    dims = [p.horizon * pl.input_dim for pl in p.players]
    if len(set(dims)) != 1:
        raise ValueError("aggregative coupling needs equal player block dimensions")
    d = dims[0]
    n = len(p.players)
    total = n * d
    mat = np.zeros((total, total))
    vec = np.zeros(total)
    for i, pl in enumerate(p.players):
        rows = slice(i * d, (i + 1) * d)
        mat[rows, rows] = pl.quad_self * np.eye(d)
        for j in range(n):
            if j != i:
                mat[rows, j * d:(j + 1) * d] = pl.quad_couple * np.eye(d)
        if pl.linear is not None:
            vec[rows] = np.asarray(pl.linear, dtype=float)
    return mat, vec


def _input_grad(p: LqGameParams, d: int):
    # coefficients of the blocks' shape: the products skip broadcasting, same bits
    quad_self = np.repeat([float(pl.quad_self) for pl in p.players], d).reshape(-1, d)
    quad_couple = np.repeat([float(pl.quad_couple) for pl in p.players], d).reshape(-1, d)
    lin = np.array([np.zeros(d) if pl.linear is None
                    else np.asarray(pl.linear, dtype=float).reshape(-1) for pl in p.players])

    def grad(u):
        blocks = u.reshape(quad_self.shape)
        out = quad_self * blocks + quad_couple * (np.add.reduce(blocks) - blocks) + lin
        return out.reshape(-1)

    return grad


def build_lq_game(p: LqGameParams):
    """Assemble the game and its tightening offsets."""
    if not p.players:
        raise ValueError("need at least one player")
    dyn = _resolved_dynamics(p)
    T = p.horizon
    d = T * p.players[0].input_dim
    if any(T * pl.input_dim != d for pl in p.players):
        raise ValueError("aggregative coupling needs equal player block dimensions")

    wdim = T * p.state_dim
    mean = np.zeros(wdim) if p.noise_mean is None \
        else np.asarray(p.noise_mean, dtype=float).reshape(-1)
    std = np.zeros(wdim) if p.noise_std is None \
        else np.asarray(p.noise_std, dtype=float).reshape(-1)
    if mean.shape[0] != wdim or std.shape[0] != wdim:
        raise ValueError("noise profiles must have length T * state_dim")

    for i, pl in enumerate(p.players):
        if pl.linear is not None and np.size(pl.linear) != d:
            raise ValueError(f"player {i}: linear has length {np.size(pl.linear)}, "
                             f"expected {d}")
    players = []
    for i, pl in enumerate(p.players):
        try:
            players.append(PlayerSpec(
                input_dim=pl.input_dim,
                box_lower=np.asarray(pl.box_lower, dtype=float),
                box_upper=np.asarray(pl.box_upper, dtype=float),
            ))
        except ValueError as exc:
            raise ValueError(f"player {i}: {exc}") from None

    sdim = (dyn.horizon + 1) * dyn.state_dim
    # the lift only when a com_scale reads it; GameSpec builds its own
    reads = any(c.state_coeffs is not None for c in p.constraints)
    noise_map = build_compact_lift(dyn).noise_map if reads else None
    constraints = []
    for j, c in enumerate(p.constraints):
        scale = 0.0
        if c.state_coeffs is not None:
            if np.shape(c.state_coeffs) != (sdim,):
                raise ValueError(f"constraint {j}: state_coeffs has length "
                                 f"{np.size(c.state_coeffs)}, expected {sdim}")
            with np.errstate(over="ignore", invalid="ignore"):  # the constraint refuses inf
                scale = float(np.linalg.norm((noise_map.T @ c.state_coeffs) * std))
        constraints.append(CouplingConstraintSpec(
            gamma=c.gamma, com_scale=scale, state_coeffs=c.state_coeffs,
            input_coeffs=c.input_coeffs, offset=c.offset))

    disturbance = DisturbanceModel(dim=wdim, com_model=ComModel(), mean=mean, std=std)
    game = GameSpec(dyn, players, constraints, disturbance, cost_input_grad=_input_grad(p, d))
    offsets = UnderApproxOffsets.from_game(game)
    return game, offsets


def solve_vgne_kkt(p: LqGameParams):
    """Direct KKT solve for an LQ game with one affine constraint assumed active.

    Solves [M a; a^T 0] [u; lam] = [-c; -b]; if the multiplier comes out
    negative the constraint is inactive and the unconstrained system M u = -c
    is returned with lam = 0. Assumes box bounds are slack at the solution
    (callers should verify). Intended as an independent oracle for testing.
    """
    mat, vec = pseudo_gradient_matrix(p)
    if len(p.constraints) != 1:
        raise ValueError("oracle solve handles exactly one affine constraint")
    c = p.constraints[0]
    if c.state_coeffs is not None:
        raise ValueError("oracle solve handles input-only constraints")
    a = np.asarray(c.input_coeffs, dtype=float).reshape(-1)
    n = mat.shape[0]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = mat
    kkt[:n, n] = a
    kkt[n, :n] = a
    rhs = np.concatenate([-vec, [-c.offset]])
    sol = np.linalg.solve(kkt, rhs)
    u, lam = sol[:n], float(sol[n])
    if lam < 0:
        u = np.linalg.solve(mat, -vec)
        lam = 0.0
    return u, lam
