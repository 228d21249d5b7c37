"""Iteration streams: the words ``iteration_stream`` derives for a whole
iteration equal those of a ``SeedSequence`` per entity, bit for bit."""

import sys
import threading

import numpy as np
import pytest

from ccgames.rng import PURPOSE_ITERATION, iteration_stream, iteration_streams, substream

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
    with pytest.raises(ValueError):
        iteration_stream(*key)
    with pytest.raises(ValueError):
        iteration_streams(*key[:2], 1, first=key[2])


def test_a_count_below_the_first_entity_is_refused():
    with pytest.raises(ValueError):
        iteration_streams(0, 0, 2, first=3)
