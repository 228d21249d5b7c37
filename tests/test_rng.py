"""Iteration streams: the words an ``IterationTable`` derives for a block of
iterations equal those of a ``SeedSequence`` per iteration and entity, bit for
bit, and so do the streams of a run that crosses blocks."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import ccgames.solver as solver
from ccgames.config import build_game, parse_config
from ccgames.rng import (PURPOSE_ITERATION, IterationTable, iteration_stream, iteration_streams,
                         substream)

from conftest import (CONFIG_DIR, assert_run_equals_reference, hook_tables, serial_reference_run,
                      undeclared_copy)

SEEDS = [0, 1, 2 ** 32 + 7, 2 ** 128 + 3]
ITERATIONS = [0, 9000, 2 ** 32 + 1]
# the coordinator, the players of the shipped games, and entities of larger
# tables
ENTITIES = [0, 1, 20, 63, 64, 197]


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
    assert np.array_equal(got.integers(0, 2 ** 63, size=3), want.integers(0, 2 ** 63, size=3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", ITERATIONS)
def test_equals_the_seed_sequence_stream(seed, k):
    for entity in ENTITIES:
        assert_same_stream(iteration_stream(seed, k, entity),
                           substream(seed, PURPOSE_ITERATION, k, entity))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k0", [0, 9000, 2 ** 32 - 3])
def test_every_row_of_a_table_is_the_seed_sequence_stream(seed, k0):
    # a block from 2^32 - 3 stops after 3 rows, where k gets its second word
    rows = min(solver.ITERATION_BLOCK, 2 ** 32 - k0)
    want = [[substream(seed, PURPOSE_ITERATION, k, e).bit_generator.state for e in range(198)]
            for k in range(k0, k0 + rows)]
    for n in (1, 21, 65, 198):
        table = IterationTable(seed, k0, solver.ITERATION_BLOCK, n)
        assert table.words.shape == (rows, n, 4) and not table.words.flags.writeable
        for first in (0, 1):
            for k, states in enumerate(want, k0):
                got = [rng.bit_generator.state for rng in table.streams(k, first)]
                assert got == states[first:n], (n, first, k)
        for k in (k0 - 1, k0 + rows):
            with pytest.raises(IndexError):
                table.streams(k)
    if k0 + rows == 2 ** 32:  # the next block, of two-word k
        next_block = IterationTable(seed, k0 + rows, 2, 3)
        for k in (2 ** 32, 2 ** 32 + 1):
            assert_same_stream(next_block.streams(k, 2)[0],
                               substream(seed, PURPOSE_ITERATION, k, 2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 21, 65])
def test_one_call_gives_every_entity_of_an_iteration(seed, n):
    # from entity 0 on, and from entity 1 on (the players)
    for first in (0, 1):
        streams = iteration_streams(seed, 9000, n, first=first)
        assert len(streams) == n - first
        for entity, got in enumerate(streams, first):
            assert_same_stream(got, substream(seed, PURPOSE_ITERATION, 9000, entity))
    assert iteration_streams(seed, 9000, 0) == []


def test_each_call_is_a_new_generator():
    first, second = iteration_stream(3, 4, 5), iteration_stream(3, 4, 5)
    assert first is not second and first.bit_generator is not second.bit_generator
    first.standard_normal(100)
    assert_same_stream(second, substream(3, PURPOSE_ITERATION, 4, 5))


def test_streams_from_threads_at_once_have_the_same_bits():
    # four threads on short switches, each making the tables of every key
    keys = [(seed, k, entity) for seed in (1, 2) for k in range(10)
            for entity in (0, 7, 65)]
    want = [substream(seed, PURPOSE_ITERATION, k, e).bit_generator.state
            for seed, k, e in keys]
    orders = [list(range(len(keys))), list(range(len(keys) - 1, -1, -1))] * 2
    start, results = threading.Barrier(len(orders), timeout=60), [None] * len(orders)

    def create(t):
        start.wait()
        results[t] = {i: iteration_stream(*keys[i]).bit_generator.state for i in orders[t]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=create, args=(t,)) for t in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for t, got in enumerate(results):
        assert [got[i] for i in range(len(keys))] == want, f"thread {t}"


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_key_words_are_refused(key):
    # as SeedSequence refuses them
    with pytest.raises(ValueError):
        substream(key[0], PURPOSE_ITERATION, *key[1:])
    with pytest.raises(ValueError):
        iteration_stream(*key)
    with pytest.raises(ValueError):
        iteration_streams(*key[:2], 1, first=key[2])
    if key[2] == 0:
        with pytest.raises(ValueError):
            IterationTable(*key[:2], solver.ITERATION_BLOCK, 1)


def test_a_count_below_the_first_entity_is_refused():
    with pytest.raises(ValueError):
        iteration_streams(0, 0, 2, first=3)


@pytest.mark.parametrize("name, start, scale, blocks", [
    ("microgrid_paper", 0, None, [(0, 64), (64, 64), (128, 22)]),
    # up to k's second word, then from it; small batches there
    ("microgrid_reduced", 2 ** 32 - 5, 1e-9, [(2 ** 32 - 5, 5), (2 ** 32, 5)])])
def test_runs_across_blocks_equal_the_per_iterate_reference(monkeypatch, name, start, scale,
                                                            blocks):
    cfg = parse_config(CONFIG_DIR / f"{name}.json")
    game, offsets = build_game(cfg)
    game = undeclared_copy(game)  # so its players draw rows, as the reference does
    stop = blocks[-1][0] + blocks[-1][1]
    scfg = replace(cfg.solver, max_iterations=stop, residual_tolerance=0.0, snapshot_every=0,
                   batch_scale=scale or cfg.solver.batch_scale)
    initial = replace(solver.initial_state(game, scfg), k=start)
    tables = []
    hook_tables(monkeypatch, lambda seed, k, e, rng: rng, tables)
    trace = solver.run(game, offsets, scfg, initial=initial)
    monkeypatch.undo()
    assert trace.final_state.k == stop
    assert tables == [(scfg.seed, k0, rows, 1 + game.n_players) for k0, rows in blocks]
    assert_run_equals_reference(trace, serial_reference_run(game, offsets, scfg, initial))
