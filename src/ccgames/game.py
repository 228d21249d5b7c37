"""Game description and per-sample gradient / constraint evaluation.

A game couples N players through shared linear dynamics, convex coupled
constraints, and each other's inputs. Each player's local set is a box on its
stacked strategy; ``GameSpec`` stacks the boxes, so projecting a profile is
one clip. Players hold cost oracles split into a state part (function of the
stacked trajectory) and an input part (function of the stacked profile);
constraints are split the same way.

Oracles are batched. A game declares ``state_support``, the trajectory
columns its callable state oracles read (``cost_state_grad``, callable
``state_grad`` and the ``state_value`` closures that are not affine); they
receive an (M, len(support)) array of those columns of the sampled
trajectories and return either an (M, len(support)) array or a 1-D array
when the result does not depend on the sample (the evaluators then skip the
averaging). Without a declaration the support is every column; it is empty
when the game has no callable state oracle. Gradients, not values, are the
primary contract; values are only needed for reporting.

The solve needs only batch means, and every affine part of them is an
affine map of the mean disturbance. So the solve evaluates from a
``ReducedLift``: the mean trajectory ``base + mean(w) @ noise_map.T`` and the
per-row support columns ``w @ noise_map[support].T + base[support]``
(``reduce_noise`` and ``reduced_lift``; players need only ``support_rows``).
Each oracle runs once per batch on the support rows
(``cost_state_grad_means``, ``constraint_state_grad_means``,
``constraint_value_mean``), and the per-player functions only assemble
blocks from those means. ``operator_estimate`` is the one function that
stacks the blocks of all players on a shared batch. Verification needs
per-row values of every constraint, so it lifts whole trajectories
(``state_batch``, or ``lift_base`` plus ``lift_noise``) for
``constraint_values``.

A constraint gradient that depends on neither the sample nor the profile may
be given as a constant 1-D array instead of a callable (``state_grad`` of
length state_dim, ``input_grad`` of length input_dim). ``GameSpec`` folds
those into each player's constant Jacobian block once, at construction, so
the evaluators only call the remaining callables. The shipped games declare
them: the microgrid's 2 T state-of-charge band constraints (``+-e_t``) and
every linear-quadratic constraint (``state_coeffs`` and ``input_coeffs``);
only the microgrid's terminal-band gradient varies with the sample.

A constant ``state_grad`` next to a ``state_value`` also declares the state
part of the value affine, ``state_value(S) = S @ state_grad + c``.
``GameSpec`` stacks those gradients into one (state_dim, m) map and their
offsets ``c = state_value(0)`` into one vector, and checks the declaration
on whole random trajectories at construction (the only call an affine
``state_value`` gets); the evaluators then compute every affine column with
one matrix product and call only the remaining value closures (on the
microgrid, the terminal band's).

Players that share one ``cost_state_grad`` object (the microgrid's
households all hold the same terminal-cost gradient) get one evaluation of
it per batch in ``cost_state_grad_means``. The microgrid declares the
support ``(T,)``: its terminal closures read and return SoC_T alone.

All evaluation here is pure: identical (u, w) inputs give bit-identical
outputs, and a game object is immutable after construction, so concurrent
evaluation across players and samples is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .com import ComModel
from .dynamics import CompactLift, TimeVaryingLinearDynamics, build_compact_lift, simulate_state


@dataclass(frozen=True)
class PlayerSpec:
    """One player's local set, a box, and cost oracles.

    input_dim       : n_i, inputs per time step.
    box_lower/upper : per-coordinate bounds of the local set on the stacked
                      strategy (length T * n_i).
    cost_state_grad : S -> gradient of the state cost over the support
                      columns S of each sampled trajectory; None means no
                      state cost.
    cost_input_grad : u -> gradient of the input cost in this player's block.
    """

    input_dim: int
    box_lower: np.ndarray
    box_upper: np.ndarray
    cost_state_grad: Callable | None = None
    cost_input_grad: Callable | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        lo = np.asarray(self.box_lower, dtype=float).reshape(-1)
        hi = np.asarray(self.box_upper, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal length")
        if np.any(lo > hi):
            raise ValueError("box lower bounds exceed upper bounds")
        object.__setattr__(self, "box_lower", lo)
        object.__setattr__(self, "box_upper", hi)


@dataclass(frozen=True)
class CouplingConstraintSpec:
    """One scalar coupled constraint value = state part + input part <= 0.

    gamma     : violation tolerance in (0, 1) of the chance constraint.
    beta      : extra nonnegative tightening margin.
    com_scale : converts the concentration offset into the constraint's
                units (standard deviation of the sampled value for
                affine-in-noise constraints; 0 for deterministic ones).
    state_value/state_grad : batched oracles in the support columns of the
                             stacked trajectory (an affine ``state_value``
                             reads whole trajectories).
    input_value/input_grad : oracles in the stacked profile (full-length
                             gradient; players slice their own block).
    Either gradient may instead be a constant 1-D array; it is stored as a
    read-only float copy.
    """

    gamma: float
    beta: float = 0.0
    com_scale: float = 1.0
    state_value: Callable | None = None
    state_grad: Callable | np.ndarray | None = None
    input_value: Callable | None = None
    input_grad: Callable | np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.com_scale < 0:
            raise ValueError("com_scale must be nonnegative")
        for name in ("state_grad", "input_grad"):
            grad = getattr(self, name)
            if grad is None or callable(grad):
                continue
            const = np.array(grad, dtype=float)
            if const.ndim != 1:
                raise ValueError(f"constant {name} must be a 1-D array")
            const.flags.writeable = False
            object.__setattr__(self, name, const)


@dataclass(frozen=True)
class DisturbanceModel:
    """I.i.d. disturbance sampler plus its concentration model.

    sample(rng, n) must return an (n, T * n_s) array of stacked draws,
    independent within and across batches.
    """

    dim: int
    sample: Callable
    com_model: ComModel


@dataclass(frozen=True)
class GameSpec:
    """Full game: dynamics with cached lift, players, constraints, noise.

    Derived in ``__post_init__`` (so ``dataclasses.replace`` rebuilds them):

    box_lower/box_upper      : (input_dim,), the players' boxes stacked in
                               player order: the local set of the profile.
    constant_jacobian_blocks : per player, the (T n_i, m) Jacobian block
                               holding every constant-array gradient; the
                               columns of callable gradients hold only the
                               constant part (zero if none).
    varying_state_columns    : constraints whose ``state_grad`` is callable.
    varying_input_columns    : constraints whose ``input_grad`` is callable.
    affine_state_columns     : constraints with a ``state_value`` and a
                               constant ``state_grad`` (affine state part).
    affine_state_map         : (state_dim, m), column j the constant
                               ``state_grad`` of affine column j, else zero.
    affine_state_offset      : (m,), entry j ``state_value`` at the zero
                               trajectory for affine column j, else zero.
    state_value_columns      : the other constraints with a ``state_value``,
                               whose closures are called per batch.
    support                  : the trajectory columns the callable state
                               oracles receive: ``state_support`` when
                               declared, else every column; empty when no
                               callable state oracle exists.
    support_index            : ``support`` as a slice when contiguous (its
                               columns are then views), else an index array.
    support_noise_map_t     : (T n_s, len(support)), ``noise_map[support].T``.
    support_input_maps_t     : per player, (T n_i, len(support)),
                               ``input_maps[i][support].T``.
    """

    dynamics: TimeVaryingLinearDynamics
    lift: CompactLift
    players: tuple
    constraints: tuple
    disturbance: DisturbanceModel
    player_slices: tuple = field(default=())
    state_support: tuple | None = None
    box_lower: np.ndarray = field(init=False, repr=False, compare=False)
    box_upper: np.ndarray = field(init=False, repr=False, compare=False)
    constant_jacobian_blocks: tuple = field(init=False, repr=False, compare=False)
    varying_state_columns: tuple = field(init=False, repr=False, compare=False)
    varying_input_columns: tuple = field(init=False, repr=False, compare=False)
    affine_state_columns: tuple = field(init=False, repr=False, compare=False)
    affine_state_map: np.ndarray = field(init=False, repr=False, compare=False)
    affine_state_offset: np.ndarray = field(init=False, repr=False, compare=False)
    state_value_columns: tuple = field(init=False, repr=False, compare=False)
    support: tuple = field(init=False, repr=False, compare=False)
    support_index: object = field(init=False, repr=False, compare=False)
    support_noise_map_t: np.ndarray = field(init=False, repr=False, compare=False)
    support_input_maps_t: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("box_lower", "box_upper"):
            box = np.concatenate([getattr(p, name) for p in self.players])
            box.flags.writeable = False
            object.__setattr__(self, name, box)
        cons = self.constraints
        sdim = self.lift.init_map.shape[0]
        for j, c in enumerate(cons):
            for grad, dim in ((c.state_grad, sdim), (c.input_grad, self.input_dim)):
                if isinstance(grad, np.ndarray) and grad.shape[0] != dim:
                    raise ValueError(
                        f"constraint {j}: constant gradient has length {grad.shape[0]}, "
                        f"expected {dim}")
        blocks = []
        for gm, sl in zip(self.lift.input_maps, self.player_slices):
            # the same per-column products, in the same order, as a per-sample
            # evaluation, so cached columns are bit-identical to evaluated ones
            block = np.zeros((sl.stop - sl.start, len(cons)))
            gm_t = gm.T
            for j, c in enumerate(cons):
                if isinstance(c.state_grad, np.ndarray):
                    block[:, j] += gm_t @ c.state_grad
                if isinstance(c.input_grad, np.ndarray):
                    block[:, j] += c.input_grad[sl]
            block.flags.writeable = False
            blocks.append(block)
        object.__setattr__(self, "constant_jacobian_blocks", tuple(blocks))
        object.__setattr__(self, "varying_state_columns",
                           tuple(j for j, c in enumerate(cons) if callable(c.state_grad)))
        object.__setattr__(self, "varying_input_columns",
                           tuple(j for j, c in enumerate(cons) if callable(c.input_grad)))
        self._fold_affine_values(sdim)
        self._resolve_support(sdim)

    def _resolve_support(self, sdim):
        declared = self.state_support
        if declared is not None:
            declared = tuple(int(c) for c in declared)
            if any(b <= a for a, b in zip(declared, declared[1:])) \
                    or any(not 0 <= c < sdim for c in declared):
                raise ValueError(
                    f"state_support must be increasing column indices in [0, {sdim}), "
                    f"got {declared}")
        callable_oracles = (any(p.cost_state_grad is not None for p in self.players)
                            or self.varying_state_columns or self.state_value_columns)
        if not callable_oracles:
            support = ()
        else:
            support = tuple(range(sdim)) if declared is None else declared
        # a contiguous support indexes as a slice, which gives views, not copies
        lo, hi = (support[0], support[-1] + 1) if support else (0, 0)
        index = slice(lo, hi) if support == tuple(range(lo, hi)) \
            else np.array(support, dtype=np.intp)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "support_index", index)
        object.__setattr__(self, "support_noise_map_t", self.lift.noise_map[index].T)
        object.__setattr__(self, "support_input_maps_t",
                           tuple(gm[index].T for gm in self.lift.input_maps))

    def _fold_affine_values(self, sdim):
        # Row 0 of the probe is the zero trajectory, which gives the offset;
        # rows 1-2 are random trajectories on which the value must equal
        # S @ grad + offset (the same cross-check as ``_check_lift``).
        cons = self.constraints
        affine = tuple(j for j, c in enumerate(cons)
                       if c.state_value is not None and isinstance(c.state_grad, np.ndarray))
        amap = np.zeros((sdim, len(cons)))
        offset = np.zeros(len(cons))
        probe = np.vstack([np.zeros(sdim), np.random.default_rng(0).normal(size=(2, sdim))])
        for j in affine:
            grad = cons[j].state_grad
            vals = np.asarray(cons[j].state_value(probe), dtype=float).reshape(-1)
            if not np.allclose(vals[1:], probe[1:] @ grad + vals[0], atol=1e-9):
                raise ValueError(
                    f"constraint {j}: state_value is not affine with the constant "
                    "state_grad (state_value(S) != S @ state_grad + state_value(0))")
            amap[:, j] = grad
            offset[j] = vals[0]
        amap.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "affine_state_columns", affine)
        object.__setattr__(self, "affine_state_map", amap)
        object.__setattr__(self, "affine_state_offset", offset)
        object.__setattr__(self, "state_value_columns", tuple(
            j for j, c in enumerate(cons) if c.state_value is not None and j not in affine))

    @classmethod
    def build(cls, dynamics: TimeVaryingLinearDynamics, players, constraints,
              disturbance: DisturbanceModel, state_support=None) -> "GameSpec":
        """Validate and assemble a game; ``state_support`` declares the
        trajectory columns its callable state oracles read (default: all)."""
        players = tuple(players)
        constraints = tuple(constraints)
        if len(players) != dynamics.n_players:
            raise ValueError("player count does not match the dynamics input maps")
        for i, (p, nj) in enumerate(zip(players, dynamics.input_dims)):
            if p.input_dim != nj:
                raise ValueError(f"player {i} input_dim {p.input_dim} != dynamics {nj}")
            if p.box_lower.shape[0] != dynamics.horizon * nj:
                raise ValueError(f"player {i} box bounds must cover T * n_i entries")
        if disturbance.dim != dynamics.horizon * dynamics.state_dim:
            raise ValueError("disturbance dimension must be T * n_s")
        lift = build_compact_lift(dynamics)
        slices, off = [], 0
        for nj in dynamics.input_dims:
            slices.append(slice(off, off + dynamics.horizon * nj))
            off += dynamics.horizon * nj
        game = cls(dynamics, lift, players, constraints, disturbance, tuple(slices),
                   None if state_support is None else tuple(state_support))
        game._check_lift()
        return game

    def _check_lift(self):
        # cheap construction-time cross-check of the cached lift against the recursion
        rng = np.random.default_rng(0)
        for _ in range(2):
            u = rng.normal(size=self.input_dim)
            w = rng.normal(size=self.disturbance.dim)
            direct = simulate_state(self.dynamics, u, w)
            lifted = state_batch(self, u, w[None, :])[0]
            if not np.allclose(direct, lifted, atol=1e-9):
                raise ValueError("compact lift disagrees with the stepped dynamics")

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def input_dim(self) -> int:
        return self.dynamics.input_dim_total

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    @property
    def state_traj_dim(self) -> int:
        return (self.dynamics.horizon + 1) * self.dynamics.state_dim


def lift_base(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """Noise-free trajectory ``init_map @ s0 + sum_j input_maps[j] @ u^j``."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != game.input_dim:
        raise ValueError(f"profile length {u.shape[0]}, expected {game.input_dim}")
    base = game.lift.init_map @ game.dynamics.s0
    for gm, sl in zip(game.lift.input_maps, game.player_slices):
        base = base + gm @ u[sl]
    return base


def lift_noise(game: GameSpec, w_batch: np.ndarray) -> np.ndarray:
    """Noise part ``w @ noise_map.T`` of the trajectories, one row per draw."""
    w_batch = np.atleast_2d(np.asarray(w_batch, dtype=float))
    if w_batch.shape[1] != game.disturbance.dim:
        raise ValueError("disturbance sample dimension mismatch")
    return w_batch @ game.lift.noise_map.T


def state_batch(game: GameSpec, u: np.ndarray, w_batch: np.ndarray) -> np.ndarray:
    """Sampled stacked trajectories, one row per disturbance draw."""
    states = lift_noise(game, w_batch)
    states += lift_base(game, u)
    return states


@dataclass(frozen=True)
class ReducedLift:
    """A batch of trajectories reduced to what its batch means read.

    mean    : (state_dim,) mean trajectory of the batch.
    support : (M, len(game.support)) per-row ``game.support`` columns.
    """

    mean: np.ndarray
    support: np.ndarray


def reduce_noise(game: GameSpec, w_batch: np.ndarray) -> ReducedLift:
    """Reduced noise part of a batch: ``mean(w) @ noise_map.T`` and the
    per-row support columns ``w @ noise_map[support].T``."""
    return ReducedLift(w_batch.mean(axis=0) @ game.lift.noise_map.T,
                       w_batch @ game.support_noise_map_t)


def reduced_lift(game: GameSpec, noise: ReducedLift, base: np.ndarray) -> ReducedLift:
    """``reduce_noise`` of a batch moved onto the noise-free trajectory ``base``."""
    return ReducedLift(base + noise.mean, noise.support + base[game.support_index])


def support_rows(game: GameSpec, w_batch: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The support columns of the trajectories, ``reduced_lift(...).support``,
    without the mean trajectory."""
    rows = w_batch @ game.support_noise_map_t
    rows += base[game.support_index]
    return rows


def reduce_states(game: GameSpec, states: np.ndarray) -> ReducedLift:
    """Reduced lift of already lifted trajectories (M, state_dim)."""
    return ReducedLift(states.mean(axis=0), states[:, game.support_index])


def _mean_over_batch(values: np.ndarray) -> np.ndarray:
    """Average a batched oracle result; 1-D results are sample-independent."""
    values = np.asarray(values, dtype=float)
    return values if values.ndim == 1 else values.mean(axis=0)


def cost_state_grad_means(game: GameSpec, rows: np.ndarray, players=None) -> list:
    """Batch means over the support ``rows`` of the state-cost gradients of
    ``players`` (default all), None where absent; each distinct
    ``cost_state_grad`` object runs once."""
    means, out = {}, []
    for i in range(game.n_players) if players is None else players:
        grad = game.players[i].cost_state_grad
        if grad is not None and id(grad) not in means:
            means[id(grad)] = _mean_over_batch(grad(rows))
        out.append(None if grad is None else means[id(grad)])
    return out


def player_pseudo_gradient_mean(game: GameSpec, i: int, u: np.ndarray,
                                state_grad_mean: np.ndarray | None) -> np.ndarray:
    """Player i's cost gradient block; ``state_grad_mean`` is its entry of
    ``cost_state_grad_means`` of the batch."""
    u = np.asarray(u, dtype=float).reshape(-1)
    p = game.players[i]
    out = np.zeros(game.player_slices[i].stop - game.player_slices[i].start)
    if p.cost_input_grad is not None:
        out = out + np.asarray(p.cost_input_grad(u), dtype=float)
    if p.cost_state_grad is not None:
        out = out + game.support_input_maps_t[i] @ state_grad_mean
    return out


def constraint_values(game: GameSpec, u: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Raw coupled-constraint values along whole trajectories, shape (batch, m).

    The affine state parts come from one product with ``affine_state_map``;
    only the other value closures are called, on the support columns.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if game.affine_state_columns:
        out = states @ game.affine_state_map
        out += game.affine_state_offset
    else:
        out = np.zeros((states.shape[0], game.constraint_count))
    if game.state_value_columns:
        rows = states[:, game.support_index]
        for j in game.state_value_columns:
            out[:, j] += np.asarray(game.constraints[j].state_value(rows), dtype=float)
    for j, c in enumerate(game.constraints):
        if c.input_value is not None:
            out[:, j] += float(c.input_value(u))
    return out


def constraint_value_mean(game: GameSpec, u: np.ndarray, lift: ReducedLift) -> np.ndarray:
    """Batch mean of ``constraint_values``, shape (m,), from a reduced lift:
    the affine parts from the mean trajectory, the value closures averaged
    over the support rows."""
    out = lift.mean @ game.affine_state_map + game.affine_state_offset
    for j in game.state_value_columns:
        out[j] += np.asarray(game.constraints[j].state_value(lift.support), dtype=float).mean()
    for j, c in enumerate(game.constraints):
        if c.input_value is not None:
            out[j] += float(c.input_value(u))
    return out


def constraint_state_grad_means(game: GameSpec, rows: np.ndarray) -> list:
    """Batch means over the support ``rows`` of the callable constraint state
    gradients.

    One (len(support),) array per entry of ``game.varying_state_columns``;
    the constant gradients need no evaluation.
    """
    return [_mean_over_batch(game.constraints[j].state_grad(rows))
            for j in game.varying_state_columns]


def player_constraint_gradient_mean(game: GameSpec, i: int, u: np.ndarray,
                                    state_grad_means: list) -> np.ndarray:
    """Player i's constraint-Jacobian block (T n_i, m): its constant block plus
    the callable columns, from ``constraint_state_grad_means`` of the batch."""
    out = game.constant_jacobian_blocks[i].copy()
    gm_t = game.support_input_maps_t[i]
    for j, mean in zip(game.varying_state_columns, state_grad_means):
        out[:, j] += gm_t @ mean
    u = np.asarray(u, dtype=float).reshape(-1)
    sl = game.player_slices[i]
    for j in game.varying_input_columns:
        out[:, j] += np.asarray(game.constraints[j].input_grad(u), dtype=float)[sl]
    return out


def operator_estimate(game: GameSpec, u: np.ndarray, lift: ReducedLift):
    """Sampled operator parts at u over the reduced lift of a batch.

    Returns (F_hat, Jac_hat, G_raw_mean): the stacked pseudo-gradient mean,
    the stacked constraint-Jacobian mean (dim, m) and the raw constraint
    mean. With tightening offsets o, the extended operator at (u, lam) is
    (F_hat + Jac_hat @ lam, -(G_raw_mean + o)). Each distinct state-cost
    gradient and each callable constraint gradient is averaged once.
    """
    f_hat = np.concatenate([
        player_pseudo_gradient_mean(game, i, u, mean)
        for i, mean in enumerate(cost_state_grad_means(game, lift.support))
    ])
    means = constraint_state_grad_means(game, lift.support)
    jac = np.vstack([player_constraint_gradient_mean(game, i, u, means)
                     for i in range(game.n_players)])
    return f_hat, jac, constraint_value_mean(game, u, lift)


def _single_sample_operator(game: GameSpec, u: np.ndarray, w: np.ndarray):
    w_batch = np.reshape(np.asarray(w, dtype=float), (1, -1))
    return operator_estimate(game, u, reduced_lift(game, reduce_noise(game, w_batch),
                                                   lift_base(game, u)))


def pseudo_gradient_sample(game: GameSpec, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Single-sample pseudo-gradient; block i is player i's own cost gradient."""
    return _single_sample_operator(game, u, w)[0]


def constraint_gradient_sample(game: GameSpec, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Single-sample constraint Jacobian, column j = gradient of constraint j."""
    return _single_sample_operator(game, u, w)[1]


def constraint_sample(game: GameSpec, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Single-sample raw constraint vector."""
    return _single_sample_operator(game, u, w)[2]


def project_local(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the local sets: a clip to the stacked box."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != game.input_dim:
        raise ValueError(f"profile length {u.shape[0]}, expected {game.input_dim}")
    return np.clip(u, game.box_lower, game.box_upper)


def random_feasible_profile(game: GameSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the stacked box, one double per coordinate in order."""
    return rng.uniform(game.box_lower, game.box_upper)
