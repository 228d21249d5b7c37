"""Spans recorded from outside the library, by rebinding module attributes.

The solver looks its collaborators up as module attributes at call time
(``game_mod.state_batch``, ``iteration_stream``, ``coordinator_step``, ...),
so replacing those attributes with timing wrappers traces every call the
library makes without changing it. The disturbance sampler is a field of the
frozen game, so it is wrapped by building a copy of the game with
``dataclasses.replace``. Wrappers are installed only for the duration of a
``Tracer.installed()`` block, which lets one process alternate traced and
untraced solves.

Each call becomes one span (name, start, end, parent) held in flat arrays;
``Tracer.write`` saves them when the benchmark ends. Counts (calls, rows,
computed bytes) are accumulated at the same boundaries.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

import ccgames.com as com_mod
import ccgames.config as config_mod
import ccgames.game as game_mod
import ccgames.solver as solver_mod


def _rows(counts, name, args, out):
    counts[name + ".rows"] += out.shape[0]


def _lifted(counts, name, args, out):
    # trajectories written plus disturbance rows read, from the array shapes
    game = args[0]
    counts[name + ".rows"] += out.shape[0]
    counts[name + ".bytes_computed"] += out.nbytes + out.shape[0] * game.disturbance.dim * 8


def _drawn(counts, name, args, out):
    counts[name + ".rows"] += out.shape[0]
    counts[name + ".bytes_computed"] += out.nbytes


# (module, attribute, span name, counter) for every rebound library function
TARGETS = (
    (config_mod, "parse_config", "config.parse_config", None),
    (config_mod, "build_game", "config.build_game", None),
    (solver_mod, "run", "solver.run", None),
    (solver_mod, "iterate", "solver.iterate", None),
    (solver_mod, "iteration_stream", "rng.iteration_stream", None),
    (solver_mod, "coordinator_step", "solver.coordinator_step", None),
    (solver_mod, "player_step", "solver.player_step", None),
    (solver_mod, "residual_estimate", "solver.residual_estimate", None),
    (solver_mod, "estimate_lipschitz", "solver.estimate_lipschitz", None),
    (game_mod, "state_batch", "game.state_batch", _lifted),
    (game_mod, "constraint_values", "game.constraint_values", _rows),
    (game_mod, "player_pseudo_gradient_mean", "game.player_pseudo_gradient_mean", None),
    (game_mod, "player_constraint_gradient_mean",
     "game.player_constraint_gradient_mean", None),
    (com_mod, "estimate_constraint_satisfaction",
     "com.estimate_constraint_satisfaction", None),
    (com_mod, "estimate_epsilon_gap", "com.estimate_epsilon_gap", None),
)
SAMPLE = "sample"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording one span and its counts per call."""
        nid = self._id(name)
        calls = name + ".calls"
        stack, counts = self._stack, self.counts
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, name, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, count), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def traced_game(self, game):
        """Copy of ``game`` whose disturbance sampler records spans."""
        sample = self.wrap(SAMPLE, game.disturbance.sample, _drawn)
        return replace(game, disturbance=replace(game.disturbance, sample=sample))

    def mark(self):
        """Position to pass to ``totals``: (span index, counts so far)."""
        return len(self.start), Counter(self.counts)

    def totals(self, begin, finish) -> dict:
        """Per-name totals between two marks.

        Returns ``{name: value}`` with ``<span>.ms`` (summed span time),
        ``<span>.self_ms`` (span time minus the time its child spans cover)
        and every count accumulated in the interval. Spans opened between the
        marks must also have closed between them.
        """
        lo, hi = begin[0], finish[0]
        ids, parent, dur = self._slice(lo, hi)
        child = np.zeros_like(dur)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        total = np.bincount(ids, weights=dur, minlength=len(self.names))
        own = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".ms"] = float(total[nid])
            out[name + ".self_ms"] = float(own[nid])
        counts = Counter(finish[1])
        counts.subtract(begin[1])
        out.update({key: float(value) for key, value in counts.items()})
        return out

    def durations_ms(self, name: str, begin, finish) -> np.ndarray:
        """Durations of every span called ``name`` between two marks."""
        ids, _, dur = self._slice(begin[0], finish[0])
        return dur[ids == self._ids.get(name, -1)]

    def _slice(self, lo, hi):
        # array slices are copies, so the recorder can keep growing afterwards
        ids = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        dur = (np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])) * 1e3
        return ids, parent, dur

    def write(self, path) -> None:
        """Save every span: names, name index, parent index, start, end (s)."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
