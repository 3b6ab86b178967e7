"""Deterministic random number generation helpers.

HPL regenerates its input matrix from a fixed seed on restart ("With the
same configure file, matrix A and b are always the same since the HPL test
uses a fixed random seed", paper section 5.2).  To let *any* rank regenerate
*any* block — needed both at initial generation and when a replacement rank
re-derives data it never owned — we derive one independent stream per global
block coordinate from a root seed.

:func:`block_streams` yields the streams of many coordinates at once: it
runs numpy's ``SeedSequence`` entropy mixing (frozen by NEP 19) for all of
them in one vectorised pass and seeds one PCG64 the way PCG64 seeds
itself, so a matrix of thousands of blocks does not build thousands of
``SeedSequence`` and ``PCG64`` objects.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np


def seeded_rng(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def block_rng(seed: int, *coords: int) -> np.random.Generator:
    """A generator whose stream depends only on ``(seed, *coords)``.

    Two calls with identical arguments yield identical streams regardless of
    which process makes the call or in which order blocks are generated.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(coords)))


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# PCG64's multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int) -> list:
    """``seed`` as SeedSequence takes an int: little-endian 32-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def spawn_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """The ``(m, 4)`` uint64 words ``SeedSequence(seed, spawn_key=key)
    .generate_state(4, np.uint64)`` returns for each row ``key`` of the
    ``(m, d)`` array ``keys`` — the words PCG64 seeds itself from.

    Every coordinate must fit one 32-bit word.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] == 0 or (
        keys.size and not 0 <= keys.min() <= keys.max() <= _MASK32
    ):
        raise ValueError("keys must be an (m, d >= 1) array of coordinates in [0, 2**32)")
    m = len(keys)
    run = _seed_words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # padded when a spawn key follows
    entropy = [np.full(m, w, dtype=np.uint32) for w in run]
    entropy += list(keys.astype(np.uint32).T)

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = np.empty((m, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # pairs of words are little-endian uint64s, as generate_state makes them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def block_streams(seed: int, keys: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row ``key`` of ``keys``, in order, a generator in the state
    ``block_rng(seed, *key)`` starts in: the same stream, bit for bit.

    One generator is re-seeded for every key, so draw from it before
    taking the next.  The seeding is PCG64's own (``pcg64_set_seed``):
    the words are ``initstate`` (high, low) then ``initseq``; the
    increment is ``initseq << 1 | 1``, and the state takes two LCG steps
    from zero with ``initstate`` added between them.
    """
    bit_generator = np.random.PCG64(0)  # numpy.random loads on first use
    rng = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, q_hi, q_lo in spawn_states(seed, keys).tolist():
        inc = pcg["inc"] = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = full  # the setter copies the values out
        yield rng
