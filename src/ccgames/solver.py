"""Semi-decentralized sampling-based equilibrium iteration.

Each iteration k runs through a coordinator and the players:

    coordinator:  G_hat    = batch mean of the tightened constraint values
                  lam_avg  = (1 - delta) lam_k + delta lam_avg_{k-1}
                  lam_{k+1} = proj_{>=0}( lam_avg + alpha_k G_hat )
                  broadcasts lam_k (the pre-update multiplier)
    player i:     F_hat_i  = batch mean of its cost-gradient block
                  Jac_i    = batch mean of its constraint-Jacobian block
                  u_avg_i  = (1 - delta) u_i + delta u_avg_prev_i
                  u_i'     = proj_local( u_avg_i - alpha_k (F_hat_i + Jac_i lam_k) )

The averaging weight delta lives in [1/golden_ratio, 1); this inertia is what
lets the scheme converge under a merely monotone pseudo-gradient. Batches
grow superlinearly and step sizes decay so sampling error is summable.

Every entity draws its own fresh batch each iteration from a substream keyed
by (``cfg.seed``, iteration, entity), so a run is bit-reproducible regardless
of execution order. A ``SolverState`` is the iterate alone. ``run`` hands each
iterate to its caller's ``observe``, which may write a checkpoint: one JSON
document of (settings, iterate) that a resume continues (``load_checkpoint``).

An entity draws only what its estimates read, and nothing when no estimate
reads its draw. ``draw_noise`` makes the generators of the entities that draw
from a row of the run's ``iteration_table``, which derives their state words
for a block of iterations in one pass, and ``draw_support_noise`` draws the
support rows of the coordinator and of each lane of players: for a declared
Gaussian ``mean``/``std`` from their law (``game.support_law``), otherwise one
whole draw through ``disturbance.sample`` per entity. Drawing is most of a
large-batch iteration, so the players are split between the calling thread
and the run's own worker thread; each entity's draw is one function of its
own stream, so a seeded run is bit-identical to a serial one. The players'
(N, M, s) support rows go into the flat buffer that every ``iterate`` is
given, one per ``run``, so the growing batches are not faulted in afresh.

The steps take their shared inputs from the caller, as ``run`` supplies them:
the run's reduced residual batch (``residual_noise``), each entity's reduced
batch (``draw_noise``), and what ``run`` evaluates once per iterate: alpha_k,
M_k and the batch-free parts (``lift_base``: noise-free trajectory, input-cost
gradient, affine constraint part). One projection (``game.project_local``)
serves the residual and the player step; the guard's norm is the finite check.
Only ``extended_operator`` forms the operator on one shared batch, for the
residual and the Lipschitz probe; the steps form its parts on their own batches.
No step lifts whole trajectories: the coordinator maps the mean disturbance
through the affine constraint parts, and the players read only the support
columns; what none reads (``game.reads_trajectory``) is neither drawn nor
computed. ``player_step`` steps every player at once, through the evaluators
of ``operator_estimate`` on the (N, M, s) support rows, with the bits of a
per-player loop: each oracle runs once on the rows of every player using it.
It and the residual estimate the Jacobian only for a positive multiplier.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import game as game_mod
from .com import UnderApproxOffsets
from .rng import IterationTable, iteration_stream, residual_stream, substream, PURPOSE_PROBE

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

TERMINATION_TOLERANCE = "tolerance"
TERMINATION_BUDGET = "budget"
TERMINATION_DIVERGENCE = "divergence-guard"
TERMINATION_NON_FINITE = "non-finite"

CHECKPOINT_FORMAT = "ccgames-state v4"
# the settings a resume may change: extending the budget is what resume is for
RESUMABLE_SETTINGS = ("max_iterations", "residual_tolerance", "checkpoint_every", "snapshot_every")
STATE_ARRAYS = ("u", "u_avg_prev", "lam", "lam_avg_prev")

LIPSCHITZ_PAIRS = 16
LIPSCHITZ_BATCH = 256
LIPSCHITZ_MULTIPLIER_SCALE = 1.0

# numbers in one player's draw (rows x numbers per row) from which the
# players' draws are split between two threads (``draw_noise``)
TWO_LANE_MIN_DRAWS = 16384
# iterations whose streams ``run`` derives in one table (``iteration_table``)
ITERATION_BLOCK = 64

MAX_ROWS = np.iinfo(np.intp).max  # numpy's largest dimension, a batch's most rows


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; the fields are the keys of a config's ``solver``
    section. Step sizes are step_a0 / (k + step_offset) and batch sizes
    ceil(batch_scale * (k + batch_offset)^batch_exponent), at least 1."""

    delta: float = 0.9
    step_a0: float = 1.4e-4
    step_offset: float = 2.0
    batch_scale: float = 1.0
    batch_offset: float = 2.0
    batch_exponent: float = 1.1
    max_iterations: int = 1000
    residual_tolerance: float = 1e-8
    residual_batch: int = 2000
    seed: int = 0
    checkpoint_every: int = 0
    snapshot_every: int = 0
    divergence_factor: float = 1e6


def step_size(cfg: SolverConfig, k: int) -> float:
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    return cfg.step_a0 / (k + cfg.step_offset)


class BatchError(ValueError):
    """A batch of the schedule at iteration k that no array can hold."""

    def __init__(self, cfg: SolverConfig, k: int):
        super().__init__(f"iteration {k}: no array holds its batch of ceil({cfg.batch_scale} * "
                         f"({k} + {cfg.batch_offset}) ** {cfg.batch_exponent}) rows")


def batch_size(cfg: SolverConfig, k: int) -> int:
    """The batch of iteration k; a ``BatchError`` past the doubles or an array index."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    try:  # a TypeError is a negative base's complex power
        m = max(1, math.ceil(cfg.batch_scale * (k + cfg.batch_offset) ** cfg.batch_exponent))
    except (OverflowError, TypeError):
        m = math.inf
    if m > MAX_ROWS:
        raise BatchError(cfg, k)
    return m


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


def validate_config(cfg: SolverConfig, lipschitz_estimate: float) -> ValidationReport:
    """Check the schedule conditions the convergence theory needs.

    Returns a report rather than raising; callers decide whether to gate.
    ``lipschitz_estimate`` is the empirical Lipschitz bound of the sampled
    operator (see ``estimate_lipschitz``).
    """
    checks = []
    inv_phi = 1.0 / GOLDEN_RATIO
    checks.append(ValidationCheck(
        "averaging-lower", cfg.delta >= inv_phi,
        f"delta={cfg.delta} must be >= 1/golden_ratio ~ {inv_phi:.6f}"))
    checks.append(ValidationCheck(
        "averaging-upper", cfg.delta < 1.0,
        f"delta={cfg.delta} must be < 1 (strict)"))
    positive = cfg.step_a0 > 0 and cfg.step_offset > 0
    checks.append(ValidationCheck(
        "step-positive", positive,
        f"step_a0={cfg.step_a0}, step_offset={cfg.step_offset} must be positive"))
    # alpha(k) is evaluated only for a positive schedule: k + offset may be 0 otherwise
    unchecked = "not evaluated: the step schedule fails step-positive"
    if not math.isfinite(lipschitz_estimate):
        checks.append(ValidationCheck(
            "operator-finite", False,
            f"the sampled operator is not finite (lipschitz estimate {lipschitz_estimate}); "
            "an oracle returned NaN or inf"))
    elif lipschitz_estimate <= 0:
        checks.append(ValidationCheck(
            "step-bound", False, "lipschitz estimate must be positive"))
    elif not positive:
        checks.append(ValidationCheck("step-bound", False, unchecked))
    else:
        bound = 1.0 / (4.0 * cfg.delta * (2.0 * lipschitz_estimate + 1.0))
        a0 = step_size(cfg, 0)
        checks.append(ValidationCheck(
            "step-bound", a0 <= bound,
            f"alpha(0)={a0:.3e} must be <= 1/(4 delta (2 L + 1)) = {bound:.3e} "
            f"for L={lipschitz_estimate:.3e}"))
    ratios_ok = positive and all(step_size(cfg, k + 1) <= step_size(cfg, k) for k in range(100))
    checks.append(ValidationCheck(
        "step-decreasing", ratios_ok,
        "alpha(k) must be nonincreasing" if positive else unchecked))
    checks.append(ValidationCheck(
        "batch-growth", cfg.batch_exponent > 1.0,
        f"batch_exponent={cfg.batch_exponent} must exceed 1 (superlinear growth)"))
    checks.append(ValidationCheck(
        "batch-scale", cfg.batch_scale > 0 and cfg.batch_offset > 0,
        f"batch_scale={cfg.batch_scale}, batch_offset={cfg.batch_offset} must be positive"))
    try:  # the first batch; run refuses a later one at its iterate
        held, detail = True, f"iteration 0: batch size {batch_size(cfg, 0)}"
    except BatchError as exc:
        held, detail = False, str(exc)
    checks.append(ValidationCheck("batch-size", held, detail))
    return ValidationReport(tuple(checks))


@dataclass
class SolverState:
    """Iterate (u, multiplier) plus the lagged averaged companions."""

    k: int
    u: np.ndarray
    u_avg_prev: np.ndarray
    lam: np.ndarray
    lam_avg_prev: np.ndarray

    def z_norm(self) -> float:
        return math.hypot(_norm(self.u), _norm(self.lam))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.u).all() and np.isfinite(self.lam).all())


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, numpy's ``norm`` formula; ``vdot`` overflows silently."""
    return math.sqrt(np.vdot(x, x))


def initial_state(game, cfg: SolverConfig) -> SolverState:
    """Start at the projected origin with a zero multiplier.

    The averaged companions are seeded with the initial point itself, which
    makes the first averaging step a no-op.
    """
    u0 = game_mod.project_local(game, np.zeros(game.input_dim))
    lam0 = np.zeros(game.constraint_count)
    return SolverState(0, u0, u0.copy(), lam0, lam0.copy())


@dataclass(frozen=True)
class IterationRecord:
    k: int
    residual: float
    g_hat_max: float
    g_hat_norm: float
    lam: np.ndarray
    alpha: float
    batch: int
    wall_ms: float
    strategies: np.ndarray | None = None


@dataclass(frozen=True)
class RunTrace:
    records: tuple
    termination_reason: str
    final_state: SolverState


def coordinator_noise(game, rng: np.random.Generator | None,
                      m: int) -> game_mod.ReducedLift | None:
    """Reduced noise of the coordinator's m-row batch, drawn from its iteration
    stream ``rng``: ``batch_noise``'s. It is None, and ``rng`` is not read
    (None will do), when no constraint value reads the trajectory. For a
    declared Gaussian disturbance and no constraint closure, no value reads
    the support rows: they are zero, and only the mean disturbance is drawn,
    from its law ``mean + std eta / sqrt(M)``: T n_s numbers.
    """
    if not game.values_read_trajectory:
        return None
    d = game.disturbance
    if game.support_law is None or game.nonlinear_columns:
        return batch_noise(game, rng, m)
    w_mean = d.mean + d.std * rng.standard_normal(d.dim) / math.sqrt(m)
    return game_mod.ReducedLift(w_mean @ game.lift.noise_map.T, np.zeros((m, len(game.support))))


def batch_noise(game, rng: np.random.Generator, m: int) -> game_mod.ReducedLift:
    """Reduced noise of an m-row batch drawn from ``rng`` (the coordinator's
    and each Lipschitz probe pair's).

    For a declared Gaussian disturbance (``game.support_law``) the support
    rows z come from ``draw_support_noise`` and then the mean disturbance
    from its law given mean(z), with ``len(mean)`` more normals from the same
    stream: T n_s + M r numbers in all. For any other model the batch is
    drawn whole through ``disturbance.sample``, since its mean disturbance is
    one sum over every row.
    """
    law, d = game.support_law, game.disturbance
    if law is None:
        return game_mod.reduce_noise(game, d.sample(rng, m))
    z = draw_support_noise(game, [rng], np.empty((1, m, len(game.support))))[0]
    w_mean = d.mean + law.gain @ (game_mod.batch_mean(z) - law.shift) \
        + law.spread @ rng.standard_normal(d.dim) / math.sqrt(m)
    return game_mod.ReducedLift(w_mean @ game.lift.noise_map.T, z)


def draw_support_noise(game, streams, out: np.ndarray) -> np.ndarray:
    """Write the support noise rows ``w @ support_noise_map_t`` of a draw
    ``w`` of M rows from ``streams[j]`` into slab j of ``out``, shape
    (n, M, len(game.support)) for n streams, and return ``out``.

    For a declared Gaussian disturbance the rows are drawn from their law
    directly: ``xi @ factor + shift`` of ``game.support_law`` for xi an
    (M, r) standard normal, r normals per row. The streams fill one
    (n, M, r) array of normals (``out`` itself if r = s), mapped by one
    batched matmul and one add; for r = 1 a multiply, as matmul runs a
    one-term product in a loop several times slower. Otherwise each stream's
    ``w`` is drawn whole through the sampler, so slab j equals
    ``reduce_noise(game, w).support``.
    """
    law = game.support_law
    if law is None:
        for rng, rows in zip(streams, out):
            np.matmul(game.disturbance.sample(rng, len(rows)), game.support_noise_map_t, out=rows)
        return out
    r = law.factor.shape[0]
    xi = out if r == out.shape[2] else np.empty(out.shape[:2] + (r,))
    for rng, slab in zip(streams, xi):
        rng.standard_normal(out=slab)
    (np.multiply if r == 1 else np.matmul)(xi, law.factor, out=out)
    out += law.shift
    return out


def iteration_table(game, seed: int, k0: int, stop: int) -> IterationTable | None:
    """The streams of the entities that draw (``draw_noise``) from iteration k0 for
    ``ITERATION_BLOCK`` iterations, or up to ``stop``; None when no entity draws."""
    first, n = 0 if game.values_read_trajectory else 1, 1 + game.n_players if game.support else 1
    return IterationTable(seed, k0, min(ITERATION_BLOCK, stop - k0), n) if first < n else None


def draw_noise(game, table, k: int, m: int, buffer: np.ndarray, lane: ThreadPoolExecutor):
    """Every entity's reduced noise for iteration k with m-row batches:
    (``coordinator_noise``, an (N, m, len(game.support)) array whose slab i
    is player i's ``draw_support_noise`` rows, None for an empty support).
    The array is a view of the flat float ``buffer``, which must hold N m
    len(game.support) floats.

    The streams of the entities that draw come from row k of ``table``, an
    ``iteration_table`` (None when no entity draws). From ``TWO_LANE_MIN_DRAWS``
    numbers per player's draw (M r for a declared Gaussian disturbance, M T n_s
    through the sampler), the executor ``lane`` fills the slabs of players 0,
    2, 4, ... while this thread draws the other entities; below it ``lane`` is
    not used. An exception from either lane is raised once both are done.
    """
    first = 0 if game.values_read_trajectory else 1
    streams = [] if table is None else table.streams(k, first)
    rng = streams.pop(0) if first == 0 else None
    if not streams:
        return coordinator_noise(game, rng, m), None
    shape = (game.n_players, m, len(game.support))
    noise = buffer[:math.prod(shape)].reshape(shape)
    own, half = slice(None), None
    per_row = game.disturbance.dim if game.support_law is None \
        else game.support_law.factor.shape[0]
    if m * per_row >= TWO_LANE_MIN_DRAWS:
        half = lane.submit(draw_support_noise, game, streams[::2], noise[::2])
        own = slice(1, None, 2)
    try:
        coordinator = coordinator_noise(game, rng, m)
        draw_support_noise(game, streams[own], noise[own])
    finally:
        if half is not None:
            wait([half])  # so no draw outlives the call
    if half is not None:
        half.result()
    return coordinator, noise


def coordinator_step(state: SolverState, game, offsets: UnderApproxOffsets,
                     cfg: SolverConfig, alpha: float, noise: game_mod.ReducedLift,
                     base: game_mod.IterateBase):
    """One multiplier update with step ``alpha``; returns (lam_avg, lam_next, g_hat).

    ``noise`` is the reduced noise of the coordinator's batch
    (``coordinator_noise``); ``base`` is ``lift_base(game, state.u)``, the
    iterate's batch-free parts.
    """
    lift = game_mod.reduced_lift(game, noise, base) if game.values_read_trajectory else None
    g_hat = game_mod.constraint_value_mean(game, base, lift) + offsets.offsets
    lam_avg = (1.0 - cfg.delta) * state.lam + cfg.delta * state.lam_avg_prev
    lam_next = np.maximum(lam_avg + alpha * g_hat, 0.0)
    return lam_avg, lam_next, g_hat


def player_step(state: SolverState, game, cfg: SolverConfig, alpha: float,
                noise: np.ndarray | None, base: game_mod.IterateBase):
    """Every player's strategy update with step ``alpha`` against ``state.lam``;
    returns the stacked (u_avg, u_next).

    ``noise`` is the players' (N, M, len(game.support)) support noise from
    ``draw_noise``; the support columns of ``base.trajectory`` are added to
    it in place, so it holds their support rows afterwards. ``base`` is
    ``lift_base(game, state.u)``; with an empty support neither noise (None)
    nor trajectory is read. The Jacobian blocks are estimated only for a
    positive multiplier; at lam = 0 the step has the bits of the full formula.
    """
    if game.support:
        noise += base.trajectory[game.support_index]
    f = game_mod.player_pseudo_gradient_mean(game, base, noise)
    if np.count_nonzero(state.lam):
        jac = game_mod.player_constraint_gradient_mean(game, noise)
        f = f + game_mod.blockwise(game, jac, state.lam)
    u_avg = (1.0 - cfg.delta) * state.u + cfg.delta * state.u_avg_prev
    return u_avg, game_mod.project_local(game, u_avg - alpha * f)


def iterate(state: SolverState, game, offsets: UnderApproxOffsets, cfg: SolverConfig,
            alpha: float, m: int, residual: float, base: game_mod.IterateBase,
            buffer: np.ndarray, lane, table: IterationTable | None):
    """Run one full iteration with step ``alpha`` on ``draw_noise``'s m-row
    batches; returns (next state, record for iteration k). ``residual`` is
    ``residual_estimate`` of ``state``, for the record; ``base`` is its ``lift_base``,
    shared by all; ``buffer``, ``lane`` and ``table`` are the run's (``draw_noise``)."""
    t0 = time.perf_counter()
    k = state.k
    coordinator, player_noise = draw_noise(game, table, k, m, buffer, lane)
    lam_avg, lam_next, g_hat = coordinator_step(state, game, offsets, cfg, alpha,
                                                coordinator, base)
    u_avg, u_next = player_step(state, game, cfg, alpha, player_noise, base)
    new_state = SolverState(k + 1, u_next, u_avg, lam_next, lam_avg)
    snapshot = bool(cfg.snapshot_every) and k % cfg.snapshot_every == 0
    return new_state, _record(state, alpha, m, residual, g_hat, t0, snapshot)


def _record(state: SolverState, alpha: float, m: int, residual: float, g_hat: np.ndarray,
            t0: float, snapshot: bool) -> IterationRecord:
    """Record of the iterate ``state`` (step ``alpha``, batch m), timed from t0."""
    return IterationRecord(
        k=state.k, residual=residual,
        g_hat_max=float(np.maximum.reduce(g_hat)) if g_hat.size else 0.0,
        g_hat_norm=_norm(g_hat), lam=state.lam.copy(), alpha=alpha, batch=m,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        strategies=state.u.copy() if snapshot else None)


def residual_noise(game, cfg: SolverConfig, seed: int) -> game_mod.ReducedLift:
    """Reduced noise of the residual batch: ``cfg.residual_batch`` draws from
    the residual substream of ``seed``, common to every iteration of a run."""
    w_res = game.disturbance.sample(residual_stream(seed), cfg.residual_batch)
    return game_mod.reduce_noise(game, w_res)


def extended_operator(game, offsets: UnderApproxOffsets, base: game_mod.IterateBase,
                      noise: game_mod.ReducedLift, lam: np.ndarray):
    """(field_u, field_lam) = (F_hat + Jac lam, G_hat + o) at (u of ``base``, ``lam``) on
    ``noise``; the monotone operator is (field_u, -field_lam). As in ``player_step``, Jac
    is estimated only for a positive multiplier (at lam = 0 field_u is F_hat, maybe
    read-only: the bits of F_hat + Jac 0 for a finite Jac, as F_hat holds no -0.0)."""
    lift = game_mod.reduced_lift(game, noise, base) if game.reads_trajectory else None
    rows = lift and lift.support
    f = game_mod.player_pseudo_gradient_mean(game, base, rows)
    if np.count_nonzero(lam):
        f = f + game_mod.player_constraint_gradient_mean(game, rows) @ lam
    return f, game_mod.constraint_value_mean(game, base, lift) + offsets.offsets


def residual_estimate(state: SolverState, game, offsets: UnderApproxOffsets, alpha: float,
                      noise: game_mod.ReducedLift, base: game_mod.IterateBase) -> float:
    """Distance from the iterate to one exact projected forward step of size ``alpha``.

    The expected operator is replaced by a large-reference-batch estimate
    (``residual_batch`` samples); the backward step is the product of the
    local-set projection and the nonnegative-orthant projection. Zero exactly
    at equilibrium-multiplier pairs, up to estimator noise. ``noise`` is the
    reduced reference batch ``residual_noise(game, cfg, cfg.seed)``, common
    to every iteration of a run; ``base`` is ``lift_base(game, state.u)``.
    """
    field_u, field_lam = extended_operator(game, offsets, base, noise, state.lam)
    u_step = game_mod.project_local(game, state.u - alpha * field_u)
    lam_step = np.maximum(state.lam + alpha * field_lam, 0.0)
    return math.hypot(_norm(state.u - u_step), _norm(state.lam - lam_step))


def run(game, offsets: UnderApproxOffsets, cfg: SolverConfig,
        initial: SolverState | None = None, observe=None) -> RunTrace:
    """Iterate until the residual tolerance, the budget, the divergence guard,
    or a non-finite iterate.

    The trace holds one record per completed iteration plus a final record
    at the last iterate (so a zero-iteration run still yields the initial
    record), whose constraint mean comes from the coordinator's batch of
    that iterate. The residual batch is drawn and reduced once per run. The
    run owns the players' draw buffer, made twice a batch's need whenever a
    batch outgrows it, the ``iteration_table`` of its current block, made as
    k leaves the last (None when no entity draws), and the second draw lane
    (``draw_noise``), whose thread starts at the first batch that crosses
    ``TWO_LANE_MIN_DRAWS`` and is joined before ``run`` returns or raises. ``initial`` (a loaded checkpoint,
    say) needs the game's dimensions and a nonnegative multiplier. The
    divergence guard is relative to ``initial_state``, the projected origin,
    wherever a run starts. Each finite new iterate, before the guard, goes to
    ``observe(state, record)`` (read-only) with the record of its iteration;
    an exception from it propagates. A batch no array holds is a ``BatchError``.
    """
    origin = initial_state(game, cfg)
    state = origin if initial is None else initial
    wrong = [n for n in STATE_ARRAYS
             if np.shape(getattr(state, n)) != np.shape(getattr(origin, n))]
    if wrong:
        raise ValueError(f"initial {', '.join(wrong)}: not the game's dimensions")
    if np.any(state.lam < 0):
        raise ValueError("initial multiplier must be nonnegative")
    guard = cfg.divergence_factor * (1.0 + origin.z_norm())
    noise_res = residual_noise(game, cfg, cfg.seed)
    records, buffer, table = [], np.empty(0), None
    with ThreadPoolExecutor(1, "ccgames-draws") as lane:
        while True:
            alpha = step_size(cfg, state.k)
            m = batch_size(cfg, state.k)
            if (need := game.n_players * m * len(game.support)) > buffer.size:
                try:  # a buffer past any array
                    buffer = np.empty(2 * need)
                except (ValueError, MemoryError):
                    raise BatchError(cfg, state.k) from None
            base = game_mod.lift_base(game, state.u)
            res = residual_estimate(state, game, offsets, alpha, noise_res, base)
            if res <= cfg.residual_tolerance or state.k >= cfg.max_iterations:
                t0 = time.perf_counter()  # like iteration records, excludes the residual
                reason = TERMINATION_TOLERANCE if res <= cfg.residual_tolerance \
                    else TERMINATION_BUDGET
                rng = iteration_stream(cfg.seed, state.k, 0) \
                    if game.values_read_trajectory else None
                noise = coordinator_noise(game, rng, m)
                g_hat = coordinator_step(state, game, offsets, cfg, alpha, noise, base)[2]
                records.append(_record(state, alpha, m, res, g_hat, t0, bool(cfg.snapshot_every)))
                break
            if table is None or state.k - table.k0 >= len(table.words):  # the next block
                table = iteration_table(game, cfg.seed, state.k, cfg.max_iterations)
            state, record = iterate(state, game, offsets, cfg, alpha, m, res, base, buffer, lane,
                                    table)
            records.append(record)
            z_norm = state.z_norm()  # finite only if every entry is
            if not math.isfinite(z_norm) and not state.is_finite():
                # NaN compares False against the guard, so it needs its own stop
                reason = TERMINATION_NON_FINITE
                break
            if observe is not None:
                observe(state, record)
            if z_norm > guard:
                reason = TERMINATION_DIVERGENCE
                break
    return RunTrace(tuple(records), reason, state)


def non_finite_updates(game, state: SolverState) -> list:
    """The updates that left ``state`` non-finite, in entity order, named
    like ``"coordinator multiplier update"`` or ``"player 3 strategy update"``.

    ``run`` stops at the first non-finite iterate. Its averaged companions
    come from the finite iterate before it, so a non-finite multiplier is the
    coordinator's doing and a non-finite block of u its player's.
    """
    names = [] if np.all(np.isfinite(state.lam)) else ["coordinator multiplier update"]
    names.extend(f"player {i} strategy update" for i, sl in enumerate(game.player_slices)
                 if not np.all(np.isfinite(state.u[sl])))
    return names


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` (UTF-8, LF endings) through a temporary file
    in the same directory, so an interrupted write leaves the previous file
    as it was and never a partial one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_checkpoint(state: SolverState, cfg: SolverConfig, directory) -> str:
    """Write ``checkpoint_<k>.json`` atomically (``write_text_atomic``): the
    settings ``cfg``, whose object is a config ``solver`` section, and the
    iterate ``state``. ``json`` writes each float
    as its shortest repr, which reads back to the same bits."""
    path = Path(directory) / f"checkpoint_{state.k:08d}.json"
    doc = {"format": CHECKPOINT_FORMAT, "solver": asdict(cfg), "k": state.k,
           **{name: getattr(state, name).tolist() for name in STATE_ARRAYS}}
    write_text_atomic(path, json.dumps(doc) + "\n")
    return str(path)


def load_checkpoint(path, cfg: SolverConfig) -> SolverState:
    """The iterate of the checkpoint at ``path`` for a resume with settings
    ``cfg``. One ``ValueError`` names ``path`` when the file is not a
    ``CHECKPOINT_FORMAT`` document (v1 text checkpoints are not read), its
    ``k`` is not a nonnegative integer, an array entry is not finite, or its
    settings differ from ``cfg`` outside ``RESUMABLE_SETTINGS``, naming them."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError:  # not JSON, a v1 text checkpoint among them
        doc = None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    try:
        stored, wanted = doc["solver"], asdict(cfg)
        if not isinstance(stored, dict):
            raise TypeError(f"solver={stored!r} is not an object")
        state = SolverState(operator.index(doc["k"]),
                            *(np.array(doc[name], dtype=float) for name in STATE_ARRAYS))
        if isinstance(doc["k"], bool) or state.k < 0:
            raise ValueError(f"k={doc['k']!r} is not a nonnegative integer")
        if not all(np.isfinite(getattr(state, name)).all() for name in STATE_ARRAYS):
            raise ValueError("non-finite entries")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {CHECKPOINT_FORMAT} checkpoint ({exc!r})") \
            from None
    differ = sorted(name for name in stored.keys() | wanted.keys()
                    if name not in RESUMABLE_SETTINGS
                    and stored.get(name) != wanted.get(name))
    if differ:
        raise ValueError(f"{path}: written with other solver settings: {', '.join(differ)}")
    return state


def estimate_lipschitz(game, offsets: UnderApproxOffsets, seed: int) -> float:
    """Empirical Lipschitz bound of the sampled operator over feasible pairs.

    Samples ``LIPSCHITZ_PAIRS`` random (u, multiplier) pairs, with multipliers
    uniform in [0, ``LIPSCHITZ_MULTIPLIER_SCALE``], each pair with its own
    ``batch_noise`` of ``LIPSCHITZ_BATCH`` rows (none when no estimate reads
    the trajectory), evaluates the operator at each point by one
    ``extended_operator`` call, and returns the largest difference ratio; a
    pair whose squares overflow has its norms taken by ``math.hypot``. Used to
    size the step bound in ``validate_config`` since no analytic constant is
    available. NaN when a field or a ratio is not finite.
    """
    rng, m, ratios = substream(seed, PURPOSE_PROBE, 0), game.constraint_count, [0.0]
    for _ in range(LIPSCHITZ_PAIRS):
        u1 = game_mod.random_feasible_profile(game, rng)
        u2 = game_mod.random_feasible_profile(game, rng)
        l1 = rng.uniform(0.0, LIPSCHITZ_MULTIPLIER_SCALE, size=m)
        l2 = rng.uniform(0.0, LIPSCHITZ_MULTIPLIER_SCALE, size=m)
        noise = batch_noise(game, rng, LIPSCHITZ_BATCH) if game.reads_trajectory else None
        f1u, f1l = extended_operator(game, offsets, game_mod.lift_base(game, u1), noise, l1)
        f2u, f2l = extended_operator(game, offsets, game_mod.lift_base(game, u2), noise, l2)
        if not all(np.isfinite(f).all() for f in (f1u, f1l, f2u, f2l)):
            return math.nan
        du, dl, dfu, dfl = u1 - u2, l1 - l2, f1u - f2u, f1l - f2l
        dz, da = math.hypot(_norm(du), _norm(dl)), math.hypot(_norm(dfu), _norm(dfl))
        if math.isinf(dz) or math.isinf(da):  # a square overflowed
            dz, da = math.hypot(*du, *dl), math.hypot(*dfu, *dfl)
        if dz >= 1e-12:
            ratios.append(da / dz)
    return float(np.max(ratios))  # a NaN ratio is the result, not dropped


@dataclass(frozen=True)
class EstimatorDiagnostics:
    """Empirical mean squared estimator errors against a reference batch."""

    batch_sizes: tuple
    pseudo_gradient_mse: np.ndarray
    jacobian_mse: np.ndarray
    constraint_mse: np.ndarray
    total_mse: np.ndarray
    slope: float | None
    reference_batch: int
    repetitions: int


def estimator_diagnostics(game, u: np.ndarray, lam: np.ndarray, batch_sizes,
                          repetitions: int, rng: np.random.Generator,
                          offsets: UnderApproxOffsets) -> EstimatorDiagnostics:
    """Measure how estimator error decays with batch size.

    For each batch size M the three estimators (gradient mean, Jacobian mean
    applied to the multiplier, tightened-constraint mean) are re-drawn
    ``repetitions`` times and compared against one reference evaluation with
    a 10x-larger batch. The fitted log-log slope of the total error should
    sit near -1 for i.i.d. sample means.
    """
    batch_sizes = tuple(int(m) for m in batch_sizes)
    if not batch_sizes or min(batch_sizes) < 1 or repetitions < 1:
        raise ValueError("batch_sizes must be nonempty, and every batch size and "
                         f"repetitions at least 1: got {batch_sizes}, {repetitions}")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    m_ref = 10 * max(batch_sizes)
    base = game_mod.lift_base(game, u)

    def estimate(m):
        noise = game_mod.reduce_noise(game, game.disturbance.sample(rng, m))
        f_hat, jac, g_raw = game_mod.operator_estimate(game, base, noise)
        return f_hat, jac, g_raw + offsets.offsets

    f_ref, jac_ref, g_ref = estimate(m_ref)
    mse = np.zeros((3, len(batch_sizes)))  # gradient, Jacobian, constraint rows
    for col, m in enumerate(batch_sizes):
        for _ in range(repetitions):
            f_hat, jac, g_hat = estimate(m)
            mse[:, col] += [float(np.sum((f_hat - f_ref) ** 2)),
                            float(np.sum(((jac - jac_ref) @ lam) ** 2)),
                            float(np.sum((g_hat - g_ref) ** 2))]
    mse_f, mse_j, mse_g = mse / repetitions
    total = mse_f + mse_j + mse_g
    slope = None
    if np.all(total > 0):
        slope = float(np.polyfit(np.log(batch_sizes), np.log(total), 1)[0])
    return EstimatorDiagnostics(batch_sizes, mse_f, mse_j, mse_g, total, slope,
                                m_ref, repetitions)

