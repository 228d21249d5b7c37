"""Deterministic keyed random streams.

Every stochastic component of a run draws from its own substream, derived
from the run seed plus an integer key. Streams are independent by
construction (numpy ``SeedSequence`` spawn keys) and reproducible across
processes, so a run is fully determined by ``(seed, config, game)`` no
matter how the work is scheduled.

Key layout used by the solver:

    (PURPOSE_ITERATION, k, entity)   per-iteration batches; entity 0 is the
                                     coordinator, entity 1+i is player i
    (PURPOSE_RESIDUAL,)              reference batch for residual estimates
    (PURPOSE_PROBE, j)               Lipschitz / diagnostic probes
"""

from __future__ import annotations

import numpy as np

PURPOSE_ITERATION = 0
PURPOSE_RESIDUAL = 1
PURPOSE_PROBE = 2


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for a keyed substream of the given seed."""
    # what default_rng builds from a SeedSequence, without its argument dispatch
    # (a fifth of the cost; the solver makes one per entity per iteration)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def iteration_stream(seed: int, k: int, entity: int) -> np.random.Generator:
    """Stream for iteration ``k``; entity 0 = coordinator, 1 + i = player i."""
    return substream(seed, PURPOSE_ITERATION, k, entity)


def residual_stream(seed: int) -> np.random.Generator:
    """Common-random-number stream for residual estimation.

    Deliberately not keyed by the iteration counter: reusing one reference
    batch across iterations turns the estimator noise into a smooth function
    of the iterate, which keeps residual-decay diagnostics clean. It never
    touches the iterate streams.
    """
    return substream(seed, PURPOSE_RESIDUAL)
