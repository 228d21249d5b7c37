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

``iteration_streams`` derives the state words of ``substream`` for entities 0
to n - 1 of an iteration in one pass. ``SeedSequence`` follows O'Neill's
``seed_seq`` (HMC-CS-2014-0905): it hashes its 32-bit entropy words (the
seed's, padded with zeros to four, then the key's) into a 4-word pool, then
hashes the pool into PCG64's state. Each word after the fourth is hashed into
every pool word in turn, and the hash constant advances once per hash,
whatever the word. So the pool before the last word, the entity, is that of
the key ``(PURPOSE_ITERATION, k)``, and the entity's hashes follow from the
count of words before it (``_entity_words``, kept). Its mix and the state
generation then run for the n entities at once, in uint64 arithmetic masked to
32 bits: the same operations on the same words, so the streams are bit-equal
to ``substream``. PCG64 is seeded from a row of that (n, 4) table of state
words through ``_StateWords``; each call builds its own table.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

PURPOSE_ITERATION = 0
PURPOSE_RESIDUAL = 1
PURPOSE_PROBE = 2

# numpy's SeedSequence constants: the entropy hash (A), the state hash (B),
# and the mix of a pool word with a hashed word
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state(4, uint64) hashes pool word j % 4 into 32-bit word j of 8
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK for j in range(9)],
                       dtype=np.uint64)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for a keyed substream of the given seed."""
    # what default_rng builds from a SeedSequence, without its argument dispatch
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


class _StateWords(ISeedSequence):
    """A seed sequence whose state words are generated already. PCG64 asks
    for ``generate_state(4, np.uint64)`` and reads the buffer it gets, so
    the words must be one C-contiguous row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds PCG64's 4 uint64 state words only")
        return self.words


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of word j by constants j and j + 1, per row."""
    v = (words ^ constants[:-1]) * constants[1:] & _MASK
    return v ^ v >> 16


@functools.lru_cache(maxsize=16)
def _entity_words(n_words: int, rows: int) -> np.ndarray:
    """(rows, 4): row e ``_MIX_R`` x entity e's hashes after ``n_words`` words."""
    hs = np.array([_INIT_A * pow(_MULT_A, 4 * n_words + j, 1 << 32) & _MASK
                   for j in range(5)], dtype=np.uint64)
    words = _MIX_R * _hash(np.arange(rows, dtype=np.uint64)[:, None], hs)
    words.flags.writeable = False  # one array for every caller
    return words


def _n_words(n: int) -> int:
    return (max(n.bit_length(), 1) + 31) // 32  # 32-bit words of n, at least 1


def iteration_stream(seed: int, k: int, entity: int) -> np.random.Generator:
    """Stream of ``entity`` for iteration ``k`` (0 = coordinator, 1 + i = player i):
    a new generator, bit-equal to ``substream(seed, PURPOSE_ITERATION, k, entity)``."""
    return iteration_streams(seed, k, entity + 1, first=entity)[0]


def iteration_streams(seed: int, k: int, n: int, first: int = 0) -> list:
    """``iteration_stream(seed, k, e)`` for e = first, ..., n - 1, each seeded
    from its row of one table of the PCG64 state words of these entities."""
    seed, k = operator.index(seed), operator.index(k)
    if operator.index(first) < 0 or n < first:
        raise ValueError(f"expected 0 <= first <= n, got first={first}, n={n}")
    prefix = np.random.SeedSequence(seed, spawn_key=(PURPOSE_ITERATION, k))
    n_words = max(4, _n_words(seed)) + _n_words(PURPOSE_ITERATION) + _n_words(k)
    pool = (_MIX_L * prefix.pool.astype(np.uint64) - _entity_words(n_words, n)[first:]) & _MASK
    pool ^= pool >> 16
    state = _hash(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH)
    # little-endian pairs of 32-bit words, in a new C-contiguous array
    table = np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << 32)
    return [np.random.Generator(np.random.PCG64(_StateWords(words))) for words in table]


def residual_stream(seed: int) -> np.random.Generator:
    """Common-random-number stream for residual estimation.

    Deliberately not keyed by the iteration counter: reusing one reference
    batch across iterations turns the estimator noise into a smooth function
    of the iterate, which keeps residual-decay diagnostics clean. It never
    touches the iterate streams.
    """
    return substream(seed, PURPOSE_RESIDUAL)
