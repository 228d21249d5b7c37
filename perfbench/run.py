#!/usr/bin/env python3
"""Benchmark of the ccgames solver, one workload per invocation.

    python3 perfbench/run.py --workload reduced_tail --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The library is imported from
``src/`` of that checkout. Each invocation sets up the workload several
times and runs one untimed warm-up solve and verification. Then, for
``--seconds`` seconds, it repeats cycles of set-up, solve, reference work
and verification, and checks every output.

``--trace 0`` reports the end-to-end metrics: medians over the run, with
solve and verification times divided by the reference work timed in the
same cycle (see reference.py). ``--trace 1`` alternates untraced and traced
solves and reports the per-layer metrics from the traced ones; the spans are
saved to ``.perfbench/spans-<workload>.npz``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# One BLAS thread for this single-threaded process; set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import workloads as W  # noqa: E402  (imports ccgames from SRC)
    from reference import reference_work  # noqa: E402
    from tracing import Tracer  # noqa: E402
except ModuleNotFoundError:  # no ccgames sources: not run from a source checkout
    W = None

# set-ups before the first timed solve
SETUP_REPEATS = 5
# Every cycle repeats set-up, the reference work and the verification until
# each has taken this long (at least once). Short operations then get enough
# samples, spread over the same stretch of time as the solves.
SETUP_SECONDS = 0.05
REFERENCE_SECONDS = 0.1
VERIFY_SECONDS = 0.2
# timed solves run at least this often, even when --seconds is short
MIN_SOLVES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def library_found() -> bool:
    """True when ccgames came from this checkout's ``src`` and configs exist."""
    if W is None or not (ROOT / "configs").is_dir():
        return False
    return Path(W.solver_mod.__file__).resolve().parent == (SRC / "ccgames").resolve()


class Tally:
    """Operations attempted and failed, plus the digests of their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def record(self, kind, faults, digest=None) -> bool:
        """Count one operation; True when it passed its checks."""
        if digest is not None and self.digests.setdefault(kind, digest) != digest:
            faults.append(f"{kind} output differs from an earlier {kind} with this seed")
        self.attempted += 1
        if faults:
            self.failed += 1
            for fault in faults:
                print(f"FAILED {kind}: {fault}", file=sys.stderr)
        return not faults


def checked_solve(wl, problem, reference, tally):
    """One checked solve; returns (trace, seconds), seconds None when it failed."""
    scfg, initial = W.solve_arguments(problem, wl)
    trace, digest = None, None
    try:
        t0 = perf_counter()
        trace = W.solve(problem, scfg, initial)
        elapsed = perf_counter() - t0
        faults = W.check_solve(problem, wl, trace, reference)
        digest = W.digest(trace.final_state.u, trace.final_state.lam)
    except Exception:  # a failed solve is counted and reported, not fatal
        faults = ["solve raised:\n" + traceback.format_exc()]
    return trace, elapsed if tally.record("solve", faults, digest) else None


def checked_verify(wl, problem, u, tally):
    """One checked verification of ``u``; returns its seconds, None when it failed."""
    digest = None
    try:
        t0 = perf_counter()
        satisfaction, gap = W.verify(problem, u)
        elapsed = perf_counter() - t0
        faults = W.check_verify(wl, satisfaction, gap)
        digest = W.digest(satisfaction.p_hat, gap.m_hat)
    except Exception:  # as above
        faults = ["verification raised:\n" + traceback.format_exc()]
    return elapsed if tally.record("verify", faults, digest) else None


def timed_setup(wl, seed, times, wrap_game=None, tracer=None, layers=None):
    """One set-up; appends its seconds (and layer totals) and returns the problem."""
    mark = tracer.mark() if tracer else None
    t0 = perf_counter()
    problem = W.setup(ROOT, wl, seed, wrap_game)
    times.append(perf_counter() - t0)
    if tracer:
        layers.append(tracer.totals(mark, tracer.mark()))
    if not problem.validation_passed:
        raise RuntimeError(f"{wl.config} fails schedule validation")
    return problem


def repeat_for(seconds, fn):
    """Call ``fn`` at least once and until ``seconds`` have passed."""
    end = perf_counter() + seconds
    fn()
    while perf_counter() < end:
        fn()


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
            f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} {threads}")


def timed(fn, times):
    t0 = perf_counter()
    fn()
    times.append(perf_counter() - t0)


def untraced(wl, seed, seconds):
    setup_times, solve_times, verify_times = [], [], []
    solve_rel, verify_rel, final = [], [], []
    for _ in range(SETUP_REPEATS):
        problem = timed_setup(wl, seed, setup_times)
    reference = W.reference_solution(problem)
    tally = Tally()
    trace, _ = checked_solve(wl, problem, reference, tally)  # warm-up
    if trace is not None:
        checked_verify(wl, problem, trace.final_state.u, tally)
    reference_work()
    attempts = 0
    deadline = perf_counter() + seconds
    while attempts < MIN_SOLVES or perf_counter() < deadline:
        repeat_for(SETUP_SECONDS, lambda: timed_setup(wl, seed, setup_times))
        trace, elapsed = checked_solve(wl, problem, reference, tally)
        attempts += 1
        if trace is None:
            continue
        # between the solve and its verifications, so that it is close to both
        ref_times = []
        repeat_for(REFERENCE_SECONDS, lambda: timed(reference_work, ref_times))
        # Means, not medians, within a cycle: times of these short operations
        # are bimodal under contention, and a mean moves smoothly with the mix.
        ref_s = mean(ref_times)
        if elapsed is not None:
            solve_times.append(elapsed)
            solve_rel.append(elapsed / ref_s)
            final.append(trace.final_state)
        verified = []

        def verify(u=trace.final_state.u):
            elapsed = checked_verify(wl, problem, u, tally)
            if elapsed is not None:
                verified.append(elapsed)

        repeat_for(VERIFY_SECONDS, verify)
        if verified:
            verify_times += verified
            verify_rel.append(mean(verified) / ref_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not (solve_rel and verify_rel):
        return tally, None

    iterations = final[0].k - wl.start_k
    print(f"setup_s = {median(setup_times):.6f} s (median of {len(setup_times)} set-ups)")
    for name, times, rel in (("solve", solve_times, solve_rel),
                             ("verify", verify_times, verify_rel)):
        print(f"{name}_s = {median(times):.6f} s (median of {len(times)}, "
              f"min {min(times):.6f}, max {max(times):.6f})")
        print(f"{name}_rel = {median(rel):.4f} reference works (median of {len(rel)} cycles)")
    print(f"iterations = {iterations} count per solve")
    if reference is not None:
        print(f"time_to_tol_s = {median(solve_times):.6f} s (solve_s of a run to the tolerance)")
        print(f"iters_to_tol = {iterations} count")
        print(f"kkt_error = {max(W.kkt_error(f, reference) for f in final):.6e} "
              f"(max over solves, limit {W.KKT_TOLERANCE:g})")
    print(f"peak_rss_mb = {peak_rss_mb:.3f} MB")
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "solve_rel": (median(solve_rel), "ref"),
        "verify_rel": (median(verify_rel), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, metrics


# per-layer metrics taken from the solve part of a traced cycle
SOLVE_LAYER_METRICS = (
    ("rng.iteration_stream.calls", "count"), ("rng.iteration_stream.ms", "ms"),
    ("sample.calls", "count"), ("sample.rows", "count"), ("sample.ms", "ms"),
    ("sample.bytes_computed", "B"),
    ("game.state_batch.calls", "count"), ("game.state_batch.rows", "count"),
    ("game.state_batch.ms", "ms"), ("game.state_batch.bytes_computed", "B"),
    ("game.player_pseudo_gradient_mean.calls", "count"),
    ("game.player_pseudo_gradient_mean.ms", "ms"),
    ("game.player_constraint_gradient_mean.calls", "count"),
    ("game.player_constraint_gradient_mean.ms", "ms"),
    ("game.constraint_values.calls", "count"), ("game.constraint_values.rows", "count"),
    ("game.constraint_values.ms", "ms"), ("game.constraint_values.self_ms", "ms"),
    ("solver.residual_estimate.ms", "ms"), ("solver.residual_estimate.self_ms", "ms"),
    ("solver.coordinator_step.ms", "ms"), ("solver.coordinator_step.self_ms", "ms"),
    ("solver.player_step.ms", "ms"), ("solver.player_step.self_ms", "ms"),
    ("solver.iterate.calls", "count"), ("solver.iterate.self_ms", "ms"),
    ("solver.run.ms", "ms"), ("solver.run.self_ms", "ms"),
)
# per-layer metrics taken from the verification part, prefixed with "verify."
# where the layer also runs in the solve part
VERIFY_LAYER_METRICS = (
    ("com.estimate_constraint_satisfaction.ms", "ms"),
    ("com.estimate_epsilon_gap.ms", "ms"),
    ("verify.game.constraint_values.calls", "count"),
    ("verify.game.constraint_values.rows", "count"),
    ("verify.game.constraint_values.ms", "ms"),
)
SETUP_LAYER_METRICS = (
    ("config.parse_config.ms", "ms"), ("config.build_game.ms", "ms"),
    ("solver.estimate_lipschitz.ms", "ms"),
)


def traced(wl, seed, seconds):
    tracer = Tracer()
    setup_layers = []

    def traced_setup():
        with tracer.installed():
            return timed_setup(wl, seed, [], tracer.traced_game, tracer, setup_layers)

    for _ in range(SETUP_REPEATS):
        traced_problem = traced_setup()
    problem = W.setup(ROOT, wl, seed)
    reference = W.reference_solution(problem)
    tally = Tally()

    def traced_cycle():
        """Traced solve + verify; returns (solve seconds, marks) or None on failure."""
        with tracer.installed():
            begin = tracer.mark()
            trace, elapsed = checked_solve(wl, traced_problem, reference, tally)
            if trace is None:
                return None
            solved = tracer.mark()
            verified = checked_verify(wl, traced_problem, trace.final_state.u, tally)
            if elapsed is None or verified is None:
                return None
            return elapsed, (begin, solved, tracer.mark())

    checked_solve(wl, problem, reference, tally)  # warm-up, both paths
    traced_cycle()
    plain_s, traced_s, cycles = [], [], []
    attempts = 0
    deadline = perf_counter() + seconds
    while attempts < MIN_SOLVES or perf_counter() < deadline:
        attempts += 1
        traced_setup()
        _, elapsed = checked_solve(wl, problem, reference, tally)
        if elapsed is not None:
            plain_s.append(elapsed)
        result = traced_cycle()
        if result is None:
            continue
        traced_s.append(result[0])
        cycles.append(result[1])
    tracer.write(spans_path(wl))
    if not (cycles and plain_s):
        return tally, None

    solve_parts = [tracer.totals(m[0], m[1]) for m in cycles]
    verify_parts = [tracer.totals(m[1], m[2]) for m in cycles]
    values = {}
    for name, unit in SOLVE_LAYER_METRICS:
        values[name] = (median([p.get(name, 0.0) for p in solve_parts]), unit)
    for name, unit in VERIFY_LAYER_METRICS:
        key = name.removeprefix("verify.")
        values[name] = (median([p.get(key, 0.0) for p in verify_parts]), unit)
    for name, unit in SETUP_LAYER_METRICS:
        values[name] = (median([p.get(name, 0.0) for p in setup_layers]), unit)
    iterate_ms = np.concatenate([tracer.durations_ms("solver.iterate", m[0], m[1])
                                 for m in cycles])
    p50, p90 = np.percentile(iterate_ms, [50, 90])
    values["solver.iterate.ms_p50"] = (p50, "ms")
    values["solver.iterate.ms_p90"] = (p90, "ms")
    values["game.state_batch.rows_per_fresh_draw"] = (
        values["game.state_batch.rows"][0] / values["sample.rows"][0], "ratio")
    values["trace.overhead_ratio"] = (median(traced_s) / median(plain_s), "ratio")
    print(f"traced cycles: {len(cycles)}; solver.iterate spans: {len(iterate_ms)}; "
          f"spans saved to {spans_path(wl).relative_to(ROOT)}")
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    return tally, values


def spans_path(wl):
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    return out / f"spans-{wl.name}.npz"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not library_found():
        print(f"no ccgames sources and configs under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"environment: {environment()}")
    print(f"workload={wl.name} config=configs/{wl.config} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = traced if args.trace else untraced
    tally, metrics = run(wl, args.seed, args.seconds)
    for kind, value in sorted(tally.digests.items()):
        print(f"digest {kind} seed={args.seed}: {value}")
    print(f"fail_rate = {tally.failed}/{tally.attempted}")
    correct = tally.failed == 0 and metrics is not None
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
