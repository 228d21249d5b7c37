"""Fixed reference work that the solver's times are divided by.

On a shared machine, the speed available to one process drifts. Other
tenants' load changes over tens of seconds to minutes. On a shared 2-vCPU VM
(Intel Xeon, 2.1 GHz), back-to-back solves in one process varied by ±15%,
and the medians of 20-second runs varied by up to 1.7x over a few minutes.
Set-up, solve and verification all drifted together. A solve is
therefore timed next to this reference work, and reported as a multiple of
it. That cancels the drift the two share, and leaves the cost of the solver
code.

The work mixes the two kinds of load the solver has: interpreter dispatch
over small numpy calls with per-call random substreams (like the players'
and coordinator's per-iteration steps), and bulk sampling plus a lift-sized
matrix product (like the large-batch iterations). It uses numpy only and
never imports ccgames, so a change to the library cannot move it. It must
not change once the benchmark is in use: every recorded `*_rel` figure is
in its units.
"""

from __future__ import annotations

import numpy as np

_SMALL = np.linspace(-1.0, 1.0, 13)
_LIFT = np.linspace(0.0, 1.0, 12 * 13).reshape(12, 13)


def reference_work() -> float:
    """About 15 ms of mixed dispatch and array work on one core; returns a checksum."""
    total = 0.0
    for k in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0, k, 1)))
        x = np.clip(_SMALL * 0.5 + rng.standard_normal(13), -1.0, 1.0)
        total += float(np.linalg.norm(x)) + float(x @ _SMALL)
    bulk = np.random.default_rng(3)
    for _ in range(10):  # small blocks, so the work adds little to peak memory
        total += float((bulk.standard_normal((2200, 12)) @ _LIFT).mean(axis=0).sum())
    return total
