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
by (seed, iteration, entity), so a run is bit-reproducible regardless of
execution order and can be resumed from a checkpoint.

The steps take their shared inputs from the caller, as ``run`` supplies them:
each iterate's ``lift_base`` and the run's reduced residual batch
(``residual_noise``). The local sets are boxes: a player's backward step clips.

Every estimate is a batch mean, so no step lifts whole trajectories. The
coordinator averages the disturbances and maps the mean through the affine
constraint parts, calling only the value closures on the support columns
(``game.support``); each player lifts only those columns, for its oracles.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import game as game_mod
from .com import UnderApproxOffsets
from .rng import iteration_stream, residual_stream, substream, PURPOSE_PROBE

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

TERMINATION_TOLERANCE = "tolerance"
TERMINATION_BUDGET = "budget"
TERMINATION_DIVERGENCE = "divergence-guard"
TERMINATION_NON_FINITE = "non-finite"

CHECKPOINT_TAG = "ccgames-state v1"

LIPSCHITZ_PAIRS = 16
LIPSCHITZ_BATCH = 256
LIPSCHITZ_MULTIPLIER_SCALE = 1.0


@dataclass(frozen=True)
class StepSchedule:
    """Decaying step sizes a0 / (k + offset)."""

    a0: float
    offset: float = 2.0

    def value(self, k: int) -> float:
        return self.a0 / (k + self.offset)


@dataclass(frozen=True)
class BatchSchedule:
    """Growing batch sizes ceil(scale * (k + offset)^exponent), at least 1."""

    scale: float = 1.0
    offset: float = 2.0
    exponent: float = 1.1

    def value(self, k: int) -> int:
        return max(1, math.ceil(self.scale * (k + self.offset) ** self.exponent))


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 0.9
    step: StepSchedule = field(default_factory=lambda: StepSchedule(a0=1.4e-4))
    batch: BatchSchedule = field(default_factory=BatchSchedule)
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
    return cfg.step.value(k)


def batch_size(cfg: SolverConfig, k: int) -> int:
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    return cfg.batch.value(k)


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
    checks.append(ValidationCheck(
        "step-positive", cfg.step.a0 > 0 and cfg.step.offset > 0,
        f"step schedule a0={cfg.step.a0}, offset={cfg.step.offset} must be positive"))
    if not math.isfinite(lipschitz_estimate):
        checks.append(ValidationCheck(
            "operator-finite", False,
            f"the sampled operator is not finite (lipschitz estimate {lipschitz_estimate}); "
            "an oracle returned NaN or inf"))
    elif lipschitz_estimate <= 0:
        checks.append(ValidationCheck(
            "step-bound", False, "lipschitz estimate must be positive"))
    else:
        bound = 1.0 / (4.0 * cfg.delta * (2.0 * lipschitz_estimate + 1.0))
        a0 = step_size(cfg, 0)
        checks.append(ValidationCheck(
            "step-bound", a0 <= bound,
            f"alpha(0)={a0:.3e} must be <= 1/(4 delta (2 L + 1)) = {bound:.3e} "
            f"for L={lipschitz_estimate:.3e}"))
    ratios_ok = all(step_size(cfg, k + 1) <= step_size(cfg, k) for k in range(100))
    checks.append(ValidationCheck(
        "step-decreasing", ratios_ok, "alpha(k) must be nonincreasing"))
    checks.append(ValidationCheck(
        "batch-growth", cfg.batch.exponent > 1.0,
        f"batch exponent {cfg.batch.exponent} must exceed 1 (superlinear growth)"))
    checks.append(ValidationCheck(
        "batch-scale", cfg.batch.scale > 0 and cfg.batch.offset > 0,
        f"batch schedule scale={cfg.batch.scale}, offset={cfg.batch.offset} must be positive"))
    return ValidationReport(tuple(checks))


@dataclass
class SolverState:
    """Iterate (u, multiplier) plus the lagged averaged companions."""

    k: int
    u: np.ndarray
    u_avg_prev: np.ndarray
    lam: np.ndarray
    lam_avg_prev: np.ndarray
    seed: int

    def z_norm(self) -> float:
        return math.hypot(float(np.linalg.norm(self.u)), float(np.linalg.norm(self.lam)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.lam)))

    def to_text(self) -> str:
        def row(name, arr):
            return name + " " + " ".join(repr(float(x)) for x in arr)

        lines = [
            CHECKPOINT_TAG,
            f"seed {self.seed}",
            f"k {self.k}",
            row("u", self.u),
            row("u_avg_prev", self.u_avg_prev),
            row("multiplier", self.lam),
            row("multiplier_avg_prev", self.lam_avg_prev),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SolverState":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CHECKPOINT_TAG:
            raise ValueError("not a recognized checkpoint (bad version tag)")
        fields = {}
        for ln in lines[1:]:
            name, _, rest = ln.partition(" ")
            fields[name] = rest
        try:
            seed = int(fields["seed"])
            k = int(fields["k"])
            vec = lambda name: np.array(
                [float(x) for x in fields[name].split()] if fields[name].strip() else [])
            return cls(k, vec("u"), vec("u_avg_prev"),
                       vec("multiplier"), vec("multiplier_avg_prev"), seed)
        except KeyError as exc:
            raise ValueError(f"checkpoint missing field {exc}") from exc


def initial_state(game, cfg: SolverConfig) -> SolverState:
    """Start at the projected origin with a zero multiplier.

    The averaged companions are seeded with the initial point itself, which
    makes the first averaging step a no-op.
    """
    u0 = game_mod.project_local(game, np.zeros(game.input_dim))
    lam0 = np.zeros(game.constraint_count)
    return SolverState(0, u0, u0.copy(), lam0, lam0.copy(), cfg.seed)


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
    config: SolverConfig
    records: tuple
    termination_reason: str
    final_state: SolverState


def coordinator_step(state: SolverState, game, offsets: UnderApproxOffsets,
                     cfg: SolverConfig, rng: np.random.Generator, base: np.ndarray):
    """One multiplier update; returns (lam_avg, lam_next, g_hat).

    ``base`` is ``lift_base(game, state.u)``, the iterate's noise-free trajectory.
    """
    m_k = batch_size(cfg, state.k)
    alpha = step_size(cfg, state.k)
    w0 = game.disturbance.sample(rng, m_k)
    lift = game_mod.reduced_lift(game, game_mod.reduce_noise(game, w0), base)
    g_hat = game_mod.constraint_value_mean(game, state.u, lift) + offsets.offsets
    lam_avg = (1.0 - cfg.delta) * state.lam + cfg.delta * state.lam_avg_prev
    lam_next = np.maximum(lam_avg + alpha * g_hat, 0.0)
    return lam_avg, lam_next, g_hat


def player_step(i: int, state: SolverState, game, cfg: SolverConfig,
                rng: np.random.Generator, base: np.ndarray):
    """One strategy update for player i against ``state.lam``; returns (u_avg_i, u_next_i).

    ``base`` is ``lift_base(game, state.u)``, the iterate's noise-free trajectory.
    """
    m_k = batch_size(cfg, state.k)
    alpha = step_size(cfg, state.k)
    w = game.disturbance.sample(rng, m_k)
    rows = game_mod.support_rows(game, w, base)
    (cost_mean,) = game_mod.cost_state_grad_means(game, rows, (i,))
    f_i = game_mod.player_pseudo_gradient_mean(game, i, state.u, cost_mean)
    jac_i = game_mod.player_constraint_gradient_mean(
        game, i, state.u, game_mod.constraint_state_grad_means(game, rows))
    sl = game.player_slices[i]
    u_avg_i = (1.0 - cfg.delta) * state.u[sl] + cfg.delta * state.u_avg_prev[sl]
    raw = u_avg_i - alpha * (f_i + jac_i @ state.lam)
    return u_avg_i, np.clip(raw, game.box_lower[sl], game.box_upper[sl])


def iterate(state: SolverState, game, offsets: UnderApproxOffsets, cfg: SolverConfig,
            residual: float, base: np.ndarray):
    """Run one full iteration; returns (next state, record for iteration k).

    ``residual`` is ``residual_estimate`` of ``state``, for the record. The
    noise-free trajectory ``base`` of the iterate (``lift_base``) is shared by
    the coordinator, every player and the residual.
    """
    t0 = time.perf_counter()
    k = state.k
    lam_avg, lam_next, g_hat = coordinator_step(
        state, game, offsets, cfg, iteration_stream(state.seed, k, 0), base)

    u_next = np.empty_like(state.u)
    u_avg = np.empty_like(state.u)
    for i in range(game.n_players):
        u_avg_i, u_next_i = player_step(
            i, state, game, cfg, iteration_stream(state.seed, k, 1 + i), base)
        sl = game.player_slices[i]
        u_avg[sl] = u_avg_i
        u_next[sl] = u_next_i

    new_state = SolverState(k + 1, u_next, u_avg, lam_next, lam_avg, state.seed)
    snapshot = bool(cfg.snapshot_every) and k % cfg.snapshot_every == 0
    return new_state, _record(state, cfg, residual, g_hat, t0, snapshot)


def _record(state: SolverState, cfg: SolverConfig, residual: float, g_hat: np.ndarray,
            t0: float, snapshot: bool) -> IterationRecord:
    """Record of the iterate ``state``, timed from ``perf_counter`` value t0."""
    return IterationRecord(
        k=state.k, residual=residual,
        g_hat_max=float(g_hat.max()) if g_hat.size else 0.0,
        g_hat_norm=float(np.linalg.norm(g_hat)),
        lam=state.lam.copy(), alpha=step_size(cfg, state.k), batch=batch_size(cfg, state.k),
        wall_ms=(time.perf_counter() - t0) * 1e3,
        strategies=state.u.copy() if snapshot else None)


def residual_noise(game, cfg: SolverConfig, seed: int) -> game_mod.ReducedLift:
    """Reduced noise of the residual batch: ``cfg.residual_batch`` draws from
    the residual substream of ``seed``, common to every iteration of a run."""
    w_res = game.disturbance.sample(residual_stream(seed), cfg.residual_batch)
    return game_mod.reduce_noise(game, w_res)


def residual_estimate(state: SolverState, game, offsets: UnderApproxOffsets,
                      cfg: SolverConfig, noise, base: np.ndarray) -> float:
    """Distance from the iterate to one exact projected forward step.

    The expected operator is replaced by a large-reference-batch estimate
    (``cfg.residual_batch`` samples); the backward step is the product of the
    local-set projection and the nonnegative-orthant projection. Zero exactly
    at equilibrium-multiplier pairs, up to estimator noise. ``noise`` is the
    reduced reference batch ``residual_noise(game, cfg, state.seed)``, common
    to every iteration of a run, or the same batch lifted whole
    (``lift_noise``); ``base`` is ``lift_base(game, state.u)``.
    """
    alpha = step_size(cfg, state.k)
    if isinstance(noise, np.ndarray):
        noise = game_mod.reduce_states(game, noise)
    f_hat, jac, g_raw = game_mod.operator_estimate(
        game, state.u, game_mod.reduced_lift(game, noise, base))
    u_step = game_mod.project_local(game, state.u - alpha * (f_hat + jac @ state.lam))
    lam_step = np.maximum(state.lam + alpha * (g_raw + offsets.offsets), 0.0)
    return math.hypot(float(np.linalg.norm(state.u - u_step)),
                      float(np.linalg.norm(state.lam - lam_step)))


def run(game, offsets: UnderApproxOffsets, cfg: SolverConfig,
        initial: SolverState | None = None, checkpoint_dir=None) -> RunTrace:
    """Iterate until the residual tolerance, the budget, the divergence guard,
    or a non-finite iterate.

    The trace holds one record per completed iteration plus a final record
    at the last iterate (so a zero-iteration run still yields the initial
    record), whose constraint mean comes from the coordinator's batch of
    that iterate. The residual batch is drawn and reduced once per run; each
    iterate's noise-free trajectory is lifted once and shared by the
    residual and the iteration. ``initial`` needs a nonnegative multiplier.
    """
    state = initial if initial is not None else initial_state(game, cfg)
    if np.any(state.lam < 0):
        raise ValueError("initial multiplier must be nonnegative")
    guard = cfg.divergence_factor * (1.0 + state.z_norm())
    noise_res = residual_noise(game, cfg, state.seed)
    records = []
    while True:
        base = game_mod.lift_base(game, state.u)
        res = residual_estimate(state, game, offsets, cfg, noise_res, base)
        if res <= cfg.residual_tolerance or state.k >= cfg.max_iterations:
            t0 = time.perf_counter()  # like iteration records, excludes the residual
            reason = TERMINATION_TOLERANCE if res <= cfg.residual_tolerance \
                else TERMINATION_BUDGET
            g_hat = coordinator_step(state, game, offsets, cfg,
                                     iteration_stream(state.seed, state.k, 0), base)[2]
            records.append(_record(state, cfg, res, g_hat, t0, bool(cfg.snapshot_every)))
            break
        state, record = iterate(state, game, offsets, cfg, res, base)
        records.append(record)
        if not state.is_finite():
            # NaN compares False against the guard, so it needs its own stop
            reason = TERMINATION_NON_FINITE
            break
        if checkpoint_dir is not None and cfg.checkpoint_every > 0 \
                and state.k % cfg.checkpoint_every == 0:
            write_checkpoint(state, checkpoint_dir)
        if state.z_norm() > guard:
            reason = TERMINATION_DIVERGENCE
            break
    return RunTrace(cfg, tuple(records), reason, state)


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


def write_checkpoint(state: SolverState, directory) -> str:
    """Write ``checkpoint_<k>.txt`` atomically (``write_text_atomic``)."""
    path = Path(directory) / f"checkpoint_{state.k:08d}.txt"
    write_text_atomic(path, state.to_text())
    return str(path)


def load_checkpoint(path) -> SolverState:
    return SolverState.from_text(Path(path).read_text(encoding="utf-8"))


def estimate_lipschitz(game, offsets: UnderApproxOffsets, seed: int) -> float:
    """Empirical Lipschitz bound of the sampled operator over feasible pairs.

    Samples ``LIPSCHITZ_PAIRS`` random (u, multiplier) pairs, with multipliers
    uniform in [0, ``LIPSCHITZ_MULTIPLIER_SCALE``], evaluates the operator of
    each pair on one shared batch of ``LIPSCHITZ_BATCH`` draws, and returns
    the largest difference ratio. Used to size the step
    bound in ``validate_config`` since no analytic constant is available.
    Returns NaN when any sampled operator value is not finite.
    """
    rng = substream(seed, PURPOSE_PROBE, 0)
    worst = 0.0
    m = game.constraint_count
    for _ in range(LIPSCHITZ_PAIRS):
        u1 = game_mod.random_feasible_profile(game, rng)
        u2 = game_mod.random_feasible_profile(game, rng)
        l1 = rng.uniform(0.0, LIPSCHITZ_MULTIPLIER_SCALE, size=m)
        l2 = rng.uniform(0.0, LIPSCHITZ_MULTIPLIER_SCALE, size=m)
        noise = game_mod.reduce_noise(game, game.disturbance.sample(rng, LIPSCHITZ_BATCH))
        f1, j1, g1 = game_mod.operator_estimate(
            game, u1, game_mod.reduced_lift(game, noise, game_mod.lift_base(game, u1)))
        f2, j2, g2 = game_mod.operator_estimate(
            game, u2, game_mod.reduced_lift(game, noise, game_mod.lift_base(game, u2)))
        g1, g2 = g1 + offsets.offsets, g2 + offsets.offsets
        if not all(np.all(np.isfinite(a)) for a in (f1, j1, g1, f2, j2, g2)):
            return math.nan
        dz = math.hypot(float(np.linalg.norm(u1 - u2)), float(np.linalg.norm(l1 - l2)))
        if dz < 1e-12:
            continue
        da = math.hypot(float(np.linalg.norm((f1 + j1 @ l1) - (f2 + j2 @ l2))),
                        float(np.linalg.norm(g1 - g2)))
        worst = max(worst, da / dz)
    return worst


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
    if not batch_sizes:
        raise ValueError("batch_sizes must be nonempty")
    batch_sizes = tuple(int(m) for m in batch_sizes)
    u = np.asarray(u, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    m_ref = 10 * max(batch_sizes)
    base = game_mod.lift_base(game, u)

    def estimate(m):
        noise = game_mod.reduce_noise(game, game.disturbance.sample(rng, m))
        f_hat, jac, g_raw = game_mod.operator_estimate(
            game, u, game_mod.reduced_lift(game, noise, base))
        return f_hat, jac, g_raw + offsets.offsets

    f_ref, jac_ref, g_ref = estimate(m_ref)
    mse_f, mse_j, mse_g = [], [], []
    for m in batch_sizes:
        acc = np.zeros(3)
        for _ in range(repetitions):
            f_hat, jac, g_hat = estimate(m)
            acc[0] += float(np.sum((f_hat - f_ref) ** 2))
            acc[1] += float(np.sum(((jac - jac_ref) @ lam) ** 2))
            acc[2] += float(np.sum((g_hat - g_ref) ** 2))
        acc /= repetitions
        mse_f.append(acc[0])
        mse_j.append(acc[1])
        mse_g.append(acc[2])
    mse_f, mse_j, mse_g = np.array(mse_f), np.array(mse_j), np.array(mse_g)
    total = mse_f + mse_j + mse_g
    slope = None
    if np.all(total > 0):
        slope = float(np.polyfit(np.log(batch_sizes), np.log(total), 1)[0])
    return EstimatorDiagnostics(batch_sizes, mse_f, mse_j, mse_g, total, slope,
                                m_ref, repetitions)

