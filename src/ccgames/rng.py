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

``IterationTable`` derives the state words of ``substream`` for entities 0 to
n - 1 of a block of iterations in one pass. ``SeedSequence`` follows O'Neill's
``seed_seq`` (HMC-CS-2014-0905): it hashes its 32-bit entropy words (the
seed's, padded with zeros to four, then the key's) into a 4-word pool, then the
pool into PCG64's state. Each word after the fourth is hashed into every pool
word in turn, the hash constant advancing once per hash, whatever the word. So
every k starts from the pool of the key ``(PURPOSE_ITERATION,)``, and a word's
hashes follow from its position (``_mix``): k's words, the entity's and the
state generation run for the whole block at once, in uint64 arithmetic masked
to 32 bits, the same operations on the same words as ``substream``'s. PCG64 is
seeded from a row of the table through ``_StateWords``; ``solver.run`` keeps the
table of its current block, and ``iteration_streams`` is the one-row case.
"""

from __future__ import annotations

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


def _mix(pool: np.ndarray, values: np.ndarray, position: int) -> np.ndarray:
    """``pool`` with each of ``values`` hashed in as the entropy word at ``position``."""
    hs = np.array([_INIT_A * pow(_MULT_A, 4 * position + j, 1 << 32) & _MASK
                   for j in range(5)], dtype=np.uint64)
    pool = (_MIX_L * pool - _MIX_R * _hash(values[:, None], hs)) & _MASK
    return pool ^ pool >> 16


def _n_words(n: int) -> int:
    return (max(n.bit_length(), 1) + 31) // 32  # 32-bit words of n, at least 1


class IterationTable:
    """The streams of entities 0 to n - 1 for iterations k0 to k0 + count - 1.
    Read-only (c, n, 4) ``words``: row k - k0, column e the PCG64 state words of
    ``substream(seed, PURPOSE_ITERATION, k, e)``; c = count, or fewer where k's
    count of 32-bit words changes (at 2^32, 2^64)."""

    def __init__(self, seed: int, k0: int, count: int, n: int):
        seed, k0 = operator.index(seed), operator.index(k0)
        if k0 < 0:  # as SeedSequence refuses a negative key word
            raise ValueError("expected non-negative integer")
        self.seed, self.k0 = seed, k0
        at, k_words = max(4, _n_words(seed)) + _n_words(PURPOSE_ITERATION), _n_words(k0)
        ks = range(k0, min(k0 + count, 1 << 32 * k_words))
        pool = np.random.SeedSequence(seed, spawn_key=(PURPOSE_ITERATION,)).pool.astype(np.uint64)
        for j in range(k_words):  # k's words, lowest first, for the whole block
            pool = _mix(pool, np.array([k >> 32 * j & _MASK for k in ks], dtype=np.uint64), at + j)
        pool = _mix(pool[:, None], np.arange(n, dtype=np.uint64), at + k_words)
        state = _hash(pool[..., [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH)
        # little-endian pairs of 32-bit words, in a new C-contiguous array
        self.words = np.ascontiguousarray(state[..., 0::2] | state[..., 1::2] << 32)
        self.words.flags.writeable = False

    def streams(self, k: int, first: int = 0) -> list:
        """New generators of entities first, ..., n - 1 of iteration k, from row k - k0."""
        if not 0 <= k - self.k0 < len(self.words):
            raise IndexError(f"iteration {k} is not in the block from {self.k0}")
        return [np.random.Generator(np.random.PCG64(_StateWords(words)))
                for words in self.words[k - self.k0, first:]]


def iteration_stream(seed: int, k: int, entity: int) -> np.random.Generator:
    """Stream of ``entity`` for iteration ``k`` (0 = coordinator, 1 + i = player i):
    a new generator, bit-equal to ``substream(seed, PURPOSE_ITERATION, k, entity)``."""
    return iteration_streams(seed, k, entity + 1, first=entity)[0]


def iteration_streams(seed: int, k: int, n: int, first: int = 0) -> list:
    """``iteration_stream(seed, k, e)`` for e = first, ..., n - 1: a one-row table's."""
    if operator.index(first) < 0 or n < first:
        raise ValueError(f"expected 0 <= first <= n, got first={first}, n={n}")
    return IterationTable(seed, k, 1, n).streams(k, first)


def residual_stream(seed: int) -> np.random.Generator:
    """Common-random-number stream for residual estimation.

    Deliberately not keyed by the iteration counter: reusing one reference
    batch across iterations turns the estimator noise into a smooth function
    of the iterate, which keeps residual-decay diagnostics clean. It never
    touches the iterate streams.
    """
    return substream(seed, PURPOSE_RESIDUAL)
