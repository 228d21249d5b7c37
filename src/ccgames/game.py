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
return (M,) values or (M, len(support)) gradients. A closure returns one new
array and holds no other batch-sized temporary (it computes in the array it
returns), since each such array is faulted in afresh as the batch grows. The
microgrid declares ``(T,)``: its terminal closures read SoC_T alone.

The solve needs only batch means, and every affine part of them is an
affine map of the mean disturbance. What reads no batch is evaluated once per
profile u (``lift_base``, an ``IterateBase``): the noise-free trajectory
``base``, the input-cost gradient and the constraints' part ``u @ input_map
+ constant``. A batch enters as a ``ReducedLift``: the mean trajectory ``base
+ mean(w) @ noise_map.T`` and the per-row support columns ``w @
noise_map[support].T + base[support]`` (``reduce_noise``, ``reduced_lift``).
Two evaluators, ``player_pseudo_gradient_mean`` and
``player_constraint_gradient_mean``, read the support rows of one batch
(M, s) shared by every player (the residual) or one per player (N, M, s)
(an iteration); each distinct oracle runs once on them, and per-player
products stay one product per block (``blockwise``), so every bit equals a
per-player evaluation. A game with no state map and an empty support (the
quadratic oracle) reads no trajectory: none is computed and no batch lifted.
The satisfaction estimate lifts whole trajectories, a block of rows at a
time; the gap estimate evaluates its sample set's noise part once and each
probe as a shift of it.

A ``DisturbanceModel`` may declare independent Gaussian coordinates (its
``mean`` and ``std``). The game then derives, once, the law of what a
reduced lift reads of a batch (``SupportLaw``): the support rows are a
linear map of Gaussian rows, and the mean disturbance given them is Gaussian
too, so the solver can draw both directly instead of whole rows.

All evaluation here is pure: identical (u, w) inputs give bit-identical
outputs, and a game object is immutable after construction, so concurrent
evaluation across players and samples is safe.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

import numpy as np

from .com import ComModel
from .dynamics import CompactLift, TimeVaryingLinearDynamics, build_compact_lift


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
        if not 0.0 <= self.com_scale < np.inf:
            raise ValueError(f"com_scale must be finite and nonnegative, got {self.com_scale}")
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


def _gaussian_rows(mean: np.ndarray, std: np.ndarray) -> Callable:
    """Sampler of rows with independent N(mean_d, std_d^2) coordinates."""
    def sample(rng, n):
        # standard_normal plus an in-place affine transform; much faster than
        # the broadcast loc/scale path in Generator.normal for wide batches
        draws = rng.standard_normal((n, mean.shape[0]))
        draws *= std
        draws += mean
        return draws

    return sample


@dataclass(frozen=True)
class DisturbanceModel:
    """I.i.d. disturbance sampler plus its concentration model.

    sample(rng, n) must return an (n, T * n_s) array of stacked draws,
    independent within and across batches. The solver calls it from two
    threads, each call with one entity's own generator for that entity's
    whole batch; so it must keep no mutable state between calls.

    mean/std : optional (dim,) arrays declaring independent Gaussian
               coordinates N(mean_d, std_d^2), finite, std >= 0; both or
               neither. ``sample`` then defaults to the row draw
               ``standard_normal((n, dim)) * std + mean`` (in place, in that
               order), and a given ``sample`` must draw rows of that law. For
               a declared model the solver's iteration batches and the
               Lipschitz probe's are drawn from the law of what the estimates
               read (``GameSpec.support_law``), not through ``sample``; the
               residual batch, the estimator diagnostics and the verification
               still call it.
    """

    dim: int
    com_model: ComModel
    _: KW_ONLY
    sample: Callable | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        if (self.mean is None) != (self.std is None):
            raise ValueError("disturbance mean and std must be given together")
        if self.mean is not None:
            law = {}
            for name in ("mean", "std"):
                arr = np.array(getattr(self, name), dtype=float)
                if arr.shape != (self.dim,):
                    raise ValueError(f"disturbance {name} has shape {arr.shape}, "
                                     f"expected ({self.dim},)")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"disturbance {name} must be finite")
                arr.flags.writeable = False
                law[name] = arr
            if np.any(law["std"] < 0):
                raise ValueError("disturbance std must be nonnegative")
            if self.sample is None:
                law["sample"] = _gaussian_rows(law["mean"], law["std"])
            _set_derived(self, **law)
        elif self.sample is None:
            raise ValueError("a disturbance model needs a sampler or a declared mean and std")


# eigenvalues of the support covariance at most this fraction of the largest
# are dropped as zero (a zero-variance support column such as SoC_0)
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SupportLaw:
    """The law of what the solve reads of a batch of M declared-Gaussian rows
    w ~ N(mean, diag(std^2)): the support rows z = w A, with A =
    ``support_noise_map_t``, and the batch mean mean(w).

    factor : (r, s) with ``factor.T @ factor`` = C = A^T diag(std^2) A; r is
             the rank of C, so z = xi @ factor + shift for xi an (M, r)
             standard normal.
    shift  : (s,), ``mean @ A``, the mean of z.
    gain   : (dim, s), K = diag(std^2) A C^+, the regression of w on z.
    spread : (dim, dim), Q = (I - K A^T) diag(std), so that given mean(z),
             mean(w) = mean + K (mean(z) - shift) + Q eta / sqrt(M) for eta
             a (dim,) standard normal (Gaussian conditioning; Rasmussen and
             Williams, Gaussian Processes for Machine Learning, 2006, A.2).
    """

    factor: np.ndarray
    shift: np.ndarray
    gain: np.ndarray
    spread: np.ndarray

    @classmethod
    def of(cls, mean: np.ndarray, std: np.ndarray, a: np.ndarray) -> "SupportLaw":
        """The law of ``(w @ a, mean(w))`` for independent N(mean, std^2) rows w."""
        var = std * std
        values, vectors = np.linalg.eigh(a.T @ (var[:, None] * a))
        keep = values > RANK_TOLERANCE * values.max(initial=0.0)
        values, vectors = values[keep], vectors[:, keep]
        # the pseudo-inverse of C from the kept eigenpairs: C may be singular
        gain = (var[:, None] * a) @ (vectors / values) @ vectors.T
        law = dict(factor=np.sqrt(values)[:, None] * vectors.T, shift=mean @ a, gain=gain,
                   spread=(np.eye(std.shape[0]) - gain @ a.T) * std)
        for array in law.values():
            array.flags.writeable = False
        return cls(**law)


def _stacked(constraints, name, dim):
    """(dim, m) map whose column j is constraint j's ``name`` (zero if absent);
    None when no constraint declares one, so that part costs nothing."""
    columns = [getattr(c, name) for c in constraints]
    if all(coeffs is None for coeffs in columns):
        return None
    out = np.zeros((dim, len(columns)))
    for j, coeffs in enumerate(columns):
        if coeffs is not None and coeffs.shape[0] != dim:
            raise ValueError(f"constraint {j}: {name} has length {coeffs.shape[0]}, "
                             f"expected {dim}")
        out[:, j] = 0.0 if coeffs is None else coeffs
    out.flags.writeable = False
    return out


def _set_derived(obj, **values):
    """Set fields of a frozen dataclass from its ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class GameSpec:
    """Full game: dynamics, players, constraints, noise; checked and derived
    on construction, so ``dataclasses.replace`` rebuilds and re-checks it.

    state_support   : the increasing trajectory columns the state oracles read (default: all).
    cost_input_grad : u -> (input_dim,) gradient of the input costs, block i
                      player i's own; None means no input cost.

    ``__post_init__`` checks the players against the dynamics (count, input
    dims, box lengths) and the disturbance dimension; dynamics whose lift
    overflows a double are refused (``build_compact_lift``), and so are an
    ``init_trajectory`` or a ``constant_jacobian`` that does. Derived there:

    lift                 : ``build_compact_lift(dynamics)``.
    player_slices        : player i's block of the stacked profile, in order.
    input_dim            : length of the stacked profile, T sum_i n_i.
    box_lower/box_upper  : (input_dim,), the players' boxes stacked in order.
    box_width            : (input_dim,) ``box_upper - box_lower``, None when a
                           width is not finite.
    block_height         : T n_i when every player's block has that height.
    stacked_input_maps   : ``lift.input_maps``, stacked when ``block_height`` is set.
    constant_jacobian    : (input_dim, m) Jacobian of the coefficients (a
                           closure column holds only its coefficient part).
    state_map/input_map  : (state_dim, m) and (input_dim, m), column j
                           constraint j's ``state_coeffs``/``input_coeffs``
                           (zero if absent); None when no constraint has one.
    constant             : (m,), the ``offset`` of every constraint.
    init_trajectory      : (state_dim,) ``init_map @ s0``, the trajectory
                           under zero input and zero noise.
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
    support_law          : ``SupportLaw`` of the support rows and the mean
                           disturbance when the disturbance model declares
                           its Gaussian ``mean``/``std``, else None.
    reads_trajectory     : whether an estimate reads the trajectory (a state map or a support).
    values_read_trajectory : whether a constraint value does (a state map or a closure).
    """

    dynamics: TimeVaryingLinearDynamics
    players: tuple
    constraints: tuple
    disturbance: DisturbanceModel
    state_support: tuple | None = None
    cost_input_grad: Callable | None = None
    lift: CompactLift = field(init=False, repr=False, compare=False)
    player_slices: tuple = field(init=False, repr=False, compare=False)
    input_dim: int = field(init=False, repr=False, compare=False)
    box_lower: np.ndarray = field(init=False, repr=False, compare=False)
    box_upper: np.ndarray = field(init=False, repr=False, compare=False)
    box_width: np.ndarray | None = field(init=False, repr=False, compare=False)
    block_height: int | None = field(init=False, repr=False, compare=False)
    stacked_input_maps: object = field(init=False, repr=False, compare=False)
    constant_jacobian: np.ndarray = field(init=False, repr=False, compare=False)
    state_map: np.ndarray | None = field(init=False, repr=False, compare=False)
    input_map: np.ndarray | None = field(init=False, repr=False, compare=False)
    constant: np.ndarray = field(init=False, repr=False, compare=False)
    init_trajectory: np.ndarray = field(init=False, repr=False, compare=False)
    nonlinear_columns: tuple = field(init=False, repr=False, compare=False)
    state_cost_groups: tuple = field(init=False, repr=False, compare=False)
    support: tuple = field(init=False, repr=False, compare=False)
    support_index: object = field(init=False, repr=False, compare=False)
    support_noise_map_t: np.ndarray = field(init=False, repr=False, compare=False)
    support_input_maps_t: object = field(init=False, repr=False, compare=False)
    support_law: SupportLaw | None = field(init=False, repr=False, compare=False)
    reads_trajectory: bool = field(init=False, repr=False, compare=False)
    values_read_trajectory: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dyn, players, cons = self.dynamics, tuple(self.players), tuple(self.constraints)
        if len(players) != dyn.n_players:
            raise ValueError("player count does not match the dynamics input maps")
        slices, off = [], 0
        for i, (p, nj) in enumerate(zip(players, dyn.input_dims)):
            if p.input_dim != nj:
                raise ValueError(f"player {i} input_dim {p.input_dim} != dynamics {nj}")
            if p.box_lower.shape[0] != dyn.horizon * nj:
                raise ValueError(f"player {i} box bounds must cover T * n_i entries")
            slices.append(slice(off, off + dyn.horizon * nj))
            off += dyn.horizon * nj
        if self.disturbance.dim != dyn.horizon * dyn.state_dim:
            raise ValueError("disturbance dimension must be T * n_s")
        lift = build_compact_lift(dyn)
        heights = {sl.stop - sl.start for sl in slices}
        height = heights.pop() if len(heights) == 1 else None
        _set_derived(self, players=players, constraints=cons, lift=lift,
                     player_slices=tuple(slices), input_dim=dyn.input_dim_total,
                     block_height=height, stacked_input_maps=lift.input_maps if height is None
                     else np.stack(lift.input_maps))
        sdim = lift.init_map.shape[0]
        state_map = _stacked(cons, "state_coeffs", sdim)
        input_map = _stacked(cons, "input_coeffs", self.input_dim)
        box_lower = np.concatenate([p.box_lower for p in players])
        box_upper = np.concatenate([p.box_upper for p in players])
        # a width that is not finite is None; a trajectory or Jacobian that is not is refused
        with np.errstate(over="ignore", invalid="ignore"):
            width = box_upper - box_lower
            derived = dict(constant_jacobian=self._constant_jacobian(input_map),
                           init_trajectory=lift.init_map @ dyn.s0)
        for name, what in (("init_trajectory", "noise-free trajectory init_map @ s0"),
                           ("constant_jacobian", "constant constraint Jacobian")):
            if not np.isfinite(derived[name]).all():
                raise ValueError(f"the {what} overflows a double")
        read_only = dict(box_lower=box_lower, box_upper=box_upper,
                         box_width=width if np.isfinite(width).all() else None,
                         constant=np.array([c.offset for c in cons], dtype=float), **derived)
        for array in read_only.values():
            if array is not None:
                array.flags.writeable = False
        groups = {}
        for i, p in enumerate(players):
            if p.cost_state_grad is not None:
                groups.setdefault(id(p.cost_state_grad), (p.cost_state_grad, []))[1].append(i)
        nonlinear = tuple(j for j, c in enumerate(cons) if c.state_value is not None)
        _set_derived(self, **read_only, state_map=state_map, input_map=input_map,
                     nonlinear_columns=nonlinear,
                     values_read_trajectory=state_map is not None or bool(nonlinear),
                     state_cost_groups=tuple((g, np.array(ix)) for g, ix in groups.values()))
        self._resolve_support(sdim)

    def _constant_jacobian(self, input_map):
        # column j: state_coeffs through every player's map in one product,
        # each block its own (``blockwise``), the bits of ``input_maps[i].T @
        # state_coeffs`` that reference_jacobian_block pins (one product over
        # the concatenated maps rounds differently); then input_map, whose
        # zeros change no bit of a sum that starts from +0.0
        maps = self.stacked_input_maps
        maps_t = maps.transpose(0, 2, 1) if self.block_height is not None \
            else tuple(gm.T for gm in maps)
        jac = np.zeros((self.input_dim, len(self.constraints)))
        for j, c in enumerate(self.constraints):
            if c.state_coeffs is not None:
                jac[:, j] += blockwise(self, maps_t, c.state_coeffs)
        if input_map is not None:
            jac += input_map
        return jac

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
        maps = self.stacked_input_maps
        noise_map_t = self.lift.noise_map[index].T
        d = self.disturbance
        _set_derived(self, state_support=declared, support=support, support_index=index,
                     reads_trajectory=self.state_map is not None or bool(support),
                     support_noise_map_t=noise_map_t,
                     support_law=None if d.mean is None
                     else SupportLaw.of(d.mean, d.std, noise_map_t),
                     support_input_maps_t=tuple(gm[index].T for gm in maps)
                     if self.block_height is None else maps[:, index].transpose(0, 2, 1))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    @property
    def state_traj_dim(self) -> int:
        return (self.dynamics.horizon + 1) * self.dynamics.state_dim


def _profile(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """The profile ``u`` as a flat float array of the game's length."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != game.input_dim:
        raise ValueError(f"profile length {u.shape[0]}, expected {game.input_dim}")
    return u


def base_trajectory(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """Noise-free trajectory ``init_map @ s0 + sum_j input_maps[j] @ u^j``. Its terms
    are summed over axis 0 row after row (2+ columns): the bits of a per-player loop."""
    u = _profile(game, u)
    maps = game.stacked_input_maps
    if isinstance(maps, np.ndarray):
        terms = np.matmul(maps, u.reshape(game.n_players, -1, 1))[..., 0]
    else:
        terms = [gm @ u[sl] for gm, sl in zip(maps, game.player_slices)]
    return np.concatenate((game.init_trajectory[None], terms)).sum(axis=0)


@dataclass(frozen=True)
class IterateBase:
    """The parts of the operator at a profile u that read no batch
    (``lift_base``), evaluated once and read by every estimate at u.

    trajectory : (state_dim,) ``base_trajectory(game, u)``, or None when no
                 estimate reads it (``game.reads_trajectory`` is False).
    input_grad : (input_dim,) ``cost_input_grad(u)``, zero without one.
    affine     : (m,) ``u @ input_map + constant``.
    The arrays are read-only, so estimates may share them.
    """

    trajectory: np.ndarray | None
    input_grad: np.ndarray
    affine: np.ndarray


def lift_base(game: GameSpec, u: np.ndarray) -> IterateBase:
    """The batch-free parts of the operator at the profile u (``IterateBase``)."""
    u = _profile(game, u)
    traj = base_trajectory(game, u) if game.reads_trajectory else None
    # + 0.0: a new array, holding no -0.0 (player_pseudo_gradient_mean relies on that)
    grad = np.zeros(game.input_dim) if game.cost_input_grad is None \
        else game.cost_input_grad(u) + 0.0
    base = IterateBase(traj, grad, _input_part(game, u))
    for array in (traj, grad, base.affine):
        if array is not None:
            array.flags.writeable = False
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
    states += base_trajectory(game, u)
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
    return ReducedLift(batch_mean(w_batch) @ game.lift.noise_map.T,
                       w_batch @ game.support_noise_map_t)


def reduced_lift(game: GameSpec, noise: ReducedLift, base: IterateBase) -> ReducedLift:
    """``reduce_noise`` of a batch moved onto the noise-free trajectory of ``base``."""
    traj = base.trajectory
    return ReducedLift(traj + noise.mean, noise.support + traj[game.support_index])


def batch_mean(a: np.ndarray, axis: int = 0):
    """``a.mean(axis)`` of a float64 array, bit for bit: the two ufuncs it runs."""
    return np.true_divide(np.add.reduce(a, axis), a.shape[axis])


def _batch_means(fn, rows: np.ndarray) -> np.ndarray:
    """Batch means of the row-wise closure ``fn``: (k,) over one batch
    (M, s), or (n, k) over n batches (n, M, s) from one call on their rows."""
    *n, m, s = rows.shape
    return batch_mean(fn(rows.reshape(-1, s)).reshape(*n, m, -1), len(n))


def blockwise(game: GameSpec, maps, vecs: np.ndarray) -> np.ndarray:
    """``maps[i] @ vecs[i]`` for every player i, concatenated in player order.

    ``maps`` is one matrix per player, an (N, h, k) array (one batched
    product) or a tuple, or a stacked (input_dim, k) array split into player
    blocks; ``vecs`` is (N, k), or (k,) for all. Each block is its own
    product, so the bits equal a per-player loop, as a product over the
    whole stack's rows would not. A one-term product (k = 1) is a multiply:
    ``matmul`` runs it in a loop about twice as slow."""
    if isinstance(maps, np.ndarray) and maps.ndim == 2:
        maps = tuple(maps[sl] for sl in game.player_slices) if game.block_height is None \
            else maps.reshape(game.n_players, game.block_height, -1)
    if isinstance(maps, np.ndarray):  # a (k,) vecs broadcasts over the players
        if maps.shape[2] == 1:
            return np.multiply(maps[..., 0], vecs).reshape(-1)
        return np.matmul(maps, vecs[..., None]).reshape(-1)
    vecs = np.broadcast_to(vecs, (game.n_players, vecs.shape[-1]))
    return np.concatenate([a @ v for a, v in zip(maps, vecs)])


def player_pseudo_gradient_mean(game: GameSpec, base: IterateBase, rows: np.ndarray) -> np.ndarray:
    """The stacked pseudo-gradient mean (input_dim,), block i player i's cost
    gradient: ``base.input_grad`` plus the state costs' batch means over the
    support ``rows``, one batch (M, s) shared by every player or one per
    player (N, M, s); each distinct ``cost_state_grad`` runs once, on the rows
    of the players holding it. Without state costs: the read-only
    ``base.input_grad``, and ``rows`` is not read (None will do)."""
    if not game.state_cost_groups:
        return base.input_grad
    means = np.zeros((game.n_players, len(game.support)))
    for grad, players in game.state_cost_groups:
        own = rows if rows.ndim == 2 or len(players) == game.n_players else rows[players]
        means[players] = _batch_means(grad, own)
    # input_grad holds no -0.0, so a stateless player's +-0 product changes nothing
    return base.input_grad + blockwise(game, game.support_input_maps_t, means)


def _input_part(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """``u @ input_map + constant``, the constraint values' part that reads
    no trajectory (``constant`` itself when no map is declared)."""
    if game.input_map is None:
        return game.constant
    part = u @ game.input_map
    part += game.constant
    return part


def _affine_part(game: GameSpec, part: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``states @ state_map + part`` for one trajectory or a batch of them,
    ``part`` the ``_input_part``; a state map that no constraint declares is
    skipped."""
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
    out = _affine_part(game, _input_part(game, u), states)
    if game.nonlinear_columns:
        rows = states[:, game.support_index]
        for j in game.nonlinear_columns:
            out[:, j] += game.constraints[j].state_value(rows)
    return out


def constraint_value_mean(game: GameSpec, base: IterateBase, lift: ReducedLift) -> np.ndarray:
    """Batch mean of ``constraint_values``, shape (m,), from a reduced lift
    on ``base``: the affine parts from the mean trajectory, the value closures
    averaged over the support rows. When no value reads the trajectory it is
    the read-only ``base.affine`` itself, and ``lift`` is not read (None will do)."""
    if not game.values_read_trajectory:
        return base.affine
    out = _affine_part(game, base.affine, lift.mean)
    for j in game.nonlinear_columns:
        out[j] += batch_mean(game.constraints[j].state_value(lift.support))
    return out


def player_constraint_gradient_mean(game: GameSpec, rows: np.ndarray) -> np.ndarray:
    """The stacked constraint-Jacobian mean (input_dim, m): the constant
    Jacobian plus each closure column's ``state_grad`` batch means over the
    support ``rows``, (M, s) shared or (N, M, s) one batch per player. Without
    closures: the read-only ``constant_jacobian``, and ``rows`` is not read."""
    if not game.nonlinear_columns:
        return game.constant_jacobian
    out = game.constant_jacobian.copy()
    for j in game.nonlinear_columns:
        means = _batch_means(game.constraints[j].state_grad, rows)
        out[:, j] += blockwise(game, game.support_input_maps_t, means)
    return out


def operator_estimate(game: GameSpec, base: IterateBase, noise: ReducedLift):
    """Sampled operator parts at the profile of ``base`` (``lift_base``) over
    a batch shared by every player, its reduced noise ``noise``.

    Returns (F_hat, Jac_hat, G_raw_mean): the stacked pseudo-gradient mean,
    the stacked constraint-Jacobian mean (dim, m) and the raw constraint
    mean. With tightening offsets o, the extended operator at (u, lam) is
    (F_hat + Jac_hat @ lam, -(G_raw_mean + o)). Each distinct state-cost
    gradient and each constraint gradient closure is averaged once. Without
    ``game.reads_trajectory`` nothing is lifted and ``noise`` is not read.
    """
    if not game.reads_trajectory:
        return base.input_grad, game.constant_jacobian, base.affine
    lift = reduced_lift(game, noise, base)
    return (player_pseudo_gradient_mean(game, base, lift.support),
            player_constraint_gradient_mean(game, lift.support),
            constraint_value_mean(game, base, lift))


def project_local(game: GameSpec, u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the local sets: ``ndarray.clip`` (as ``np.clip``) to the box."""
    return _profile(game, u).clip(game.box_lower, game.box_upper)


def random_feasible_profile(game: GameSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the stacked box, one double per coordinate in order:
    the doubles and the stream state of ``rng.uniform(box_lower, box_upper)``,
    which also raises for a width that is not finite."""
    if game.box_width is None:
        raise OverflowError("Range exceeds valid bounds")
    return game.box_lower + game.box_width * rng.random(game.input_dim)
