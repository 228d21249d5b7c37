"""Game description and batched gradient / constraint evaluation.

A game couples N players through shared linear dynamics, convex coupled
constraints, and each other's inputs. Each player's local set is a box on its
stacked strategy; ``GameSpec`` stacks the boxes, so projecting a profile is
one clip. Costs split into each player's ``cost_state_grad`` (a function of
the stacked trajectory) and the game's ``cost_input_grad`` (a function of
the stacked profile whose block i is player i's own input-cost gradient).

A coupled constraint is data: its value along a trajectory S under the
profile u is ``S @ state_coeffs + u @ input_coeffs + offset +
state_value(S[:, support])``. The closure pair ``state_value``/``state_grad``
is the only nonlinear part (on the shipped games, the microgrid's terminal
band). ``GameSpec`` stacks the coefficients once into a state map, an input
map, a constant vector and the constant Jacobian, so the evaluators do matrix
products and call only the closures.

Oracles are batched and row-wise (output row r depends only on input row r),
so the rows of several players' batches can share one call. The callable
state oracles (``cost_state_grad`` and the constraint closures) receive an
(M, len(support)) array of the trajectory columns the game declares in
``state_support`` (default: every column; none without such an oracle) and
return (M,) values or (M, len(support)) gradients. The microgrid declares
``(T,)``: its terminal closures read SoC_T alone.

The solve needs only batch means, and every affine part of them is an
affine map of the mean disturbance. So it evaluates from a ``ReducedLift``:
the mean trajectory ``base + mean(w) @ noise_map.T`` and the per-row support
columns ``w @ noise_map[support].T + base[support]`` (``reduce_noise``,
``reduced_lift``), one batch (M, s) shared by every player (the residual) or
one per player (N, M, s) (an iteration). Each distinct oracle runs once on
them, and every player's block is assembled from the means at once;
per-player products stay one product per block (``blockwise``), so every bit
equals a per-player evaluation. Verification needs per-row values of every
constraint, so it lifts whole trajectories (``state_batch``, or
``lift_base`` plus ``lift_noise``) for ``constraint_values``.

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
    """One player's local set, a box, and state-cost oracle.

    input_dim       : n_i, inputs per time step.
    box_lower/upper : per-coordinate bounds of the local set on the stacked
                      strategy (length T * n_i).
    cost_state_grad : S -> (M, len(support)) gradient of the state cost over
                      the support columns S of each sampled trajectory,
                      row-wise; None means no state cost.
    """

    input_dim: int
    box_lower: np.ndarray
    box_upper: np.ndarray
    cost_state_grad: Callable | None = None

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
    """One scalar coupled constraint, value <= 0, with value
    ``S @ state_coeffs + u @ input_coeffs + offset + state_value(S[:, support])``.

    gamma        : violation tolerance in (0, 1) of the chance constraint.
    com_scale    : converts the concentration offset into the constraint's
                   units (standard deviation of the sampled value for
                   affine-in-noise constraints; 0 for deterministic ones).
    state_coeffs : (state_dim,) coefficients on the stacked trajectory.
    input_coeffs : (input_dim,) coefficients on the stacked profile.
    offset       : the constant term.
    state_value/state_grad : the nonlinear state part, batched closures on the
                             support columns returning (M,) values and
                             (M, len(support)) gradients; both or neither.
    An absent part is None. Coefficients are stored as read-only float copies.
    """

    gamma: float
    com_scale: float = 1.0
    state_coeffs: np.ndarray | None = None
    input_coeffs: np.ndarray | None = None
    offset: float = 0.0
    state_value: Callable | None = None
    state_grad: Callable | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.com_scale < 0:
            raise ValueError("com_scale must be nonnegative")
        if (self.state_value is None) != (self.state_grad is None):
            raise ValueError("state_value and state_grad must be given together")
        for name in ("state_coeffs", "input_coeffs"):
            if getattr(self, name) is not None:
                coeffs = np.array(getattr(self, name), dtype=float)
                if coeffs.ndim != 1:
                    raise ValueError(f"{name} must be a 1-D array")
                coeffs.flags.writeable = False
                object.__setattr__(self, name, coeffs)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class DisturbanceModel:
    """I.i.d. disturbance sampler plus its concentration model.

    sample(rng, n) must return an (n, T * n_s) array of stacked draws,
    independent within and across batches. The solver calls it from two
    threads, each call with one entity's own generator, and may draw one
    batch in several calls of consecutive row blocks; so it must keep no
    mutable state between calls. Seeded runs are bit-identical across block
    sizes only for a row-sequential sampler, whose n rows equal the rows of
    draws of consecutive parts of n from the same generator.
    """

    dim: int
    sample: Callable
    com_model: ComModel


def _stacked(constraints, name, dim):
    """(dim, m) map whose column j is constraint j's ``name`` (zero if absent);
    None when no constraint declares one, so that part costs nothing."""
    columns = [getattr(c, name) for c in constraints]
    if all(coeffs is None for coeffs in columns):
        return None
    out = np.zeros((dim, len(columns)))
    for j, coeffs in enumerate(columns):
        if coeffs is None:
            continue
        if coeffs.shape[0] != dim:
            raise ValueError(f"constraint {j}: {name} has length {coeffs.shape[0]}, "
                             f"expected {dim}")
        out[:, j] = coeffs
    out.flags.writeable = False
    return out


def _set_derived(obj, **values):
    """Set fields of a frozen dataclass from its ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class GameSpec:
    """Full game: dynamics with cached lift, players, constraints, noise.

    cost_input_grad : u -> (input_dim,) gradient of the input costs, block i
                      player i's own; None means no input cost.

    Derived in ``__post_init__`` (so ``dataclasses.replace`` rebuilds them):

    box_lower/box_upper  : (input_dim,), the players' boxes stacked in order.
    block_height         : T n_i when every player's block has that height.
    constant_jacobian    : (input_dim, m) Jacobian of the coefficients (a
                           closure column holds only its coefficient part).
    state_map/input_map  : (state_dim, m) and (input_dim, m), column j
                           constraint j's ``state_coeffs``/``input_coeffs``
                           (zero if absent); None when no constraint has one.
    constant             : (m,), the ``offset`` of every constraint.
    nonlinear_columns    : constraints with ``state_value``/``state_grad``.
    state_cost_groups    : (cost_state_grad, player indices) per distinct
                           state-cost gradient object.
    support              : the columns the callable state oracles receive:
                           ``state_support`` when declared, else every
                           column; empty without a callable state oracle.
    support_index        : ``support`` as a slice when contiguous (its
                           columns are then views), else an index array.
    support_noise_map_t  : (T n_s, len(support)), ``noise_map[support].T``.
    support_input_maps_t : at i, ``input_maps[i][support].T``; an (N, T n_i,
                           len(support)) array with a ``block_height``.
    """

    dynamics: TimeVaryingLinearDynamics
    lift: CompactLift
    players: tuple
    constraints: tuple
    disturbance: DisturbanceModel
    player_slices: tuple = field(default=())
    state_support: tuple | None = None
    cost_input_grad: Callable | None = None
    box_lower: np.ndarray = field(init=False, repr=False, compare=False)
    box_upper: np.ndarray = field(init=False, repr=False, compare=False)
    block_height: int | None = field(init=False, repr=False, compare=False)
    constant_jacobian: np.ndarray = field(init=False, repr=False, compare=False)
    state_map: np.ndarray | None = field(init=False, repr=False, compare=False)
    input_map: np.ndarray | None = field(init=False, repr=False, compare=False)
    constant: np.ndarray = field(init=False, repr=False, compare=False)
    nonlinear_columns: tuple = field(init=False, repr=False, compare=False)
    state_cost_groups: tuple = field(init=False, repr=False, compare=False)
    support: tuple = field(init=False, repr=False, compare=False)
    support_index: object = field(init=False, repr=False, compare=False)
    support_noise_map_t: np.ndarray = field(init=False, repr=False, compare=False)
    support_input_maps_t: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cons, sdim = self.constraints, self.lift.init_map.shape[0]
        state_map = _stacked(cons, "state_coeffs", sdim)
        input_map = _stacked(cons, "input_coeffs", self.input_dim)
        jac = np.zeros((self.input_dim, len(cons)))
        for gm, sl in zip(self.lift.input_maps, self.player_slices):
            # the same per-column products, in the same order, as a per-sample
            # evaluation, so cached columns are bit-identical to evaluated ones
            for j, c in enumerate(cons):
                if c.state_coeffs is not None:
                    jac[sl, j] += gm.T @ c.state_coeffs
                if c.input_coeffs is not None:
                    jac[sl, j] += c.input_coeffs[sl]
        read_only = dict(box_lower=np.concatenate([p.box_lower for p in self.players]),
                         box_upper=np.concatenate([p.box_upper for p in self.players]),
                         constant_jacobian=jac,
                         constant=np.array([c.offset for c in cons], dtype=float))
        for array in read_only.values():
            array.flags.writeable = False
        heights = {sl.stop - sl.start for sl in self.player_slices}
        groups = {}
        for i, p in enumerate(self.players):
            if p.cost_state_grad is not None:
                groups.setdefault(id(p.cost_state_grad), (p.cost_state_grad, []))[1].append(i)
        _set_derived(self, **read_only, state_map=state_map, input_map=input_map,
                     block_height=heights.pop() if len(heights) == 1 else None,
                     nonlinear_columns=tuple(j for j, c in enumerate(cons)
                                             if c.state_value is not None),
                     state_cost_groups=tuple((g, np.array(ix)) for g, ix in groups.values()))
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
        if not (self.state_cost_groups or self.nonlinear_columns):
            support = ()
        else:
            support = tuple(range(sdim)) if declared is None else declared
        # a contiguous support indexes as a slice, which gives views, not copies
        lo, hi = (support[0], support[-1] + 1) if support else (0, 0)
        index = slice(lo, hi) if support == tuple(range(lo, hi)) \
            else np.array(support, dtype=np.intp)
        # each map keeps the layout of ``gm[index].T``: products with another
        # layout can round differently
        maps = [gm[index] for gm in self.lift.input_maps]
        _set_derived(self, support=support, support_index=index,
                     support_noise_map_t=self.lift.noise_map[index].T,
                     support_input_maps_t=tuple(gm.T for gm in maps)
                     if self.block_height is None else np.stack(maps).transpose(0, 2, 1))

    @classmethod
    def build(cls, dynamics: TimeVaryingLinearDynamics, players, constraints,
              disturbance: DisturbanceModel, state_support=None,
              cost_input_grad=None) -> "GameSpec":
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
                   None if state_support is None else tuple(state_support), cost_input_grad)
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


def reduce_states(game: GameSpec, states: np.ndarray) -> ReducedLift:
    """Reduced lift of already lifted trajectories (M, state_dim)."""
    return ReducedLift(states.mean(axis=0), states[:, game.support_index])


def _batch_means(fn, rows: np.ndarray) -> np.ndarray:
    """Batch means of the row-wise closure ``fn``: (k,) over one batch
    (M, s), or (n, k) over n batches (n, M, s) from one call on their rows."""
    if rows.ndim == 2:
        return fn(rows).mean(axis=0)
    n, m, s = rows.shape
    return fn(rows.reshape(n * m, s)).reshape(n, m, -1).mean(axis=1)


def cost_state_grad_means(game: GameSpec, rows: np.ndarray) -> np.ndarray:
    """(N, len(support)) batch means of the players' state-cost gradients
    (zero without one) over the support ``rows``: one batch (M, s) shared by
    every player or one per player (N, M, s). Each distinct
    ``cost_state_grad`` runs once, on the rows of the players holding it."""
    out = np.zeros((game.n_players, len(game.support)))
    for grad, players in game.state_cost_groups:
        own = rows if rows.ndim == 2 or len(players) == game.n_players else rows[players]
        out[players] = _batch_means(grad, own)
    return out


def blockwise(game: GameSpec, maps, vecs: np.ndarray) -> np.ndarray:
    """``maps[i] @ vecs[i]`` for every player i, concatenated in player order.

    ``maps`` is one matrix per player, an (N, h, k) array (one batched
    product) or a tuple, or a stacked (input_dim, k) array split into player
    blocks; ``vecs`` is (N, k), or (k,) for all. Each block is its own
    product, so the bits equal a per-player loop, as a product over the
    whole stack's rows would not."""
    vecs = np.broadcast_to(vecs, (game.n_players, vecs.shape[-1]))
    if isinstance(maps, np.ndarray) and maps.ndim == 2:
        maps = tuple(maps[sl] for sl in game.player_slices) if game.block_height is None \
            else maps.reshape(game.n_players, game.block_height, -1)
    if isinstance(maps, np.ndarray):
        return np.matmul(maps, vecs[:, :, None]).reshape(-1)
    return np.concatenate([a @ v for a, v in zip(maps, vecs)])


def player_pseudo_gradient_mean(game: GameSpec, u: np.ndarray,
                                state_grad_means: np.ndarray) -> np.ndarray:
    """The stacked pseudo-gradient mean (input_dim,), block i player i's cost
    gradient; ``state_grad_means`` is ``cost_state_grad_means`` of the batch."""
    out = np.zeros(game.input_dim)
    if game.cost_input_grad is not None:
        out += game.cost_input_grad(np.asarray(u, dtype=float).reshape(-1))
    if game.state_cost_groups:
        # out holds no -0.0, so a stateless player's +-0 product changes nothing
        out += blockwise(game, game.support_input_maps_t, state_grad_means)
    return out


def _affine_part(game: GameSpec, u: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``states @ state_map + (u @ input_map + constant)`` for one trajectory
    or a batch of them; a map that no constraint declares is skipped."""
    if game.input_map is None:
        part = game.constant
    else:
        part = u @ game.input_map
        part += game.constant
    if game.state_map is None:
        out = np.empty(states.shape[:-1] + part.shape)
        out[...] = part
        return out
    out = states @ game.state_map
    out += part
    return out


def constraint_values(game: GameSpec, u: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Raw coupled-constraint values along whole trajectories, shape (batch, m):
    the affine parts from the stacked maps, then the value closures on the
    support columns."""
    out = _affine_part(game, u, states)
    if game.nonlinear_columns:
        rows = states[:, game.support_index]
        for j in game.nonlinear_columns:
            out[:, j] += game.constraints[j].state_value(rows)
    return out


def constraint_value_mean(game: GameSpec, u: np.ndarray, lift: ReducedLift) -> np.ndarray:
    """Batch mean of ``constraint_values``, shape (m,), from a reduced lift:
    the affine parts from the mean trajectory, the value closures averaged
    over the support rows."""
    out = _affine_part(game, u, lift.mean)
    for j in game.nonlinear_columns:
        out[j] += game.constraints[j].state_value(lift.support).mean()
    return out


def constraint_state_grad_means(game: GameSpec, rows: np.ndarray) -> list:
    """Batch means of the constraint gradient closures over the support
    ``rows``, one per entry of ``game.nonlinear_columns``: (s,) for a shared
    batch (M, s), (N, s) for one batch per player (N, M, s)."""
    return [_batch_means(game.constraints[j].state_grad, rows)
            for j in game.nonlinear_columns]


def player_constraint_gradient_mean(game: GameSpec, state_grad_means: list) -> np.ndarray:
    """The stacked constraint-Jacobian mean (input_dim, m): the constant
    Jacobian plus the closure columns from ``constraint_state_grad_means``."""
    out = game.constant_jacobian.copy()
    for j, means in zip(game.nonlinear_columns, state_grad_means):
        out[:, j] += blockwise(game, game.support_input_maps_t, means)
    return out


def operator_estimate(game: GameSpec, u: np.ndarray, lift: ReducedLift):
    """Sampled operator parts at u over the reduced lift of a batch shared by
    every player.

    Returns (F_hat, Jac_hat, G_raw_mean): the stacked pseudo-gradient mean,
    the stacked constraint-Jacobian mean (dim, m) and the raw constraint
    mean. With tightening offsets o, the extended operator at (u, lam) is
    (F_hat + Jac_hat @ lam, -(G_raw_mean + o)). Each distinct state-cost
    gradient and each constraint gradient closure is averaged once.
    """
    return (player_pseudo_gradient_mean(game, u, cost_state_grad_means(game, lift.support)),
            player_constraint_gradient_mean(
                game, constraint_state_grad_means(game, lift.support)),
            constraint_value_mean(game, u, lift))


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
