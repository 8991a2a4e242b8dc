"""numpy's per-round random-number scheme, computed for a chunk of rounds.

A protocol round ``i`` of seed ``s`` draws from the generator
``default_rng(SeedSequence(s).spawn(...)[i])``, that is the seed sequence
with spawn key ``(i,)``, and party ``k`` from the stream
``rng.spawn(n)[k]``, spawn key ``(i, k)``.  Building those ``1 + n``
``Generator`` objects costs more than the round's own evolution, so this
module computes the numbers they would give directly, with a copy of the
functions numpy runs:

* the ``SeedSequence`` hash of every spawn key, as ``uint32`` arithmetic
  over the whole chunk: a pool is four ``uint32`` words, kept as four
  broadcastable arrays, and its hash constant advances the same way
  whatever the words hold;
* the ``PCG64`` state seeded from ``generate_state(4, np.uint64)`` and its
  first 64-bit output, as ``uint64`` arithmetic over the chunk: a 128-bit
  number is a pair of high and low words, multiplied through 32-bit halves.

The constants come from ``numpy/random/bit_generator.pyx`` (``SeedSequence``)
and ``numpy/random/src/pcg64/pcg64.h`` (``PCG64``).  The tests hold every
function here equal to numpy itself.  Nothing here imports ``numpy.random``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _halves(value: int) -> tuple[np.uint64, np.uint64]:
    """A 128-bit constant as its high and low ``uint64`` words."""
    return np.uint64(value >> 64), np.uint64(value & 2**64 - 1)


# Two PCG64 steps from a state s with increment c: s * M^2 + c * (M + 1).
_PCG_MULT2, _PCG_INC2 = _halves(_PCG_MULT**2 & _MASK128), _halves(_PCG_MULT + 1)
_LOW32, _U1, _U32, _U58, _U63 = (np.uint64(v) for v in (_MASK32, 1, 32, 58, 63))

# A seed sequence's pool words and the hash constant its next word meets.
Pool = tuple[list[np.ndarray], int]


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * np.uint32(nxt)
    return value ^ value >> 16, nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ value >> 16


def _mix_words(pool: Pool, words: Iterable) -> Pool:
    """Mix entropy words beyond the first four into a pool, as
    ``SeedSequence.mix_entropy`` does."""
    pool, const = list(pool[0]), pool[1]
    for word in words:
        for dst in range(4):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)
    return pool, const


def seed_pool(seed: int) -> Pool:
    """The pool of ``SeedSequence(seed)`` with a spawn key still to mix in
    (ValueError on a negative seed, as numpy)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # A spawn key pads the seed's words with zeros to the pool size.
    words += [0] * (4 - len(words))
    words = [np.array([w], dtype=np.uint32) for w in words]
    const, pool = _INIT_A, []
    for word in words[:4]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    return _mix_words((pool, const), words[4:])


def _mul64(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit products of ``uint64`` words, as high and low
    words, from their 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    low, cross_a, cross_b = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (low >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    high = a_hi * b_hi + (cross_a >> _U32) + (cross_b >> _U32) + (mid >> _U32)
    return high, mid << _U32 | low & _LOW32


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Products modulo ``2**128`` of (high, low) word pairs."""
    high, low = _mul64(a[1], b[1])
    return high + a[0] * b[1] + a[1] * b[0], low


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Sums modulo ``2**128`` of (high, low) word pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _first_outputs(pool: list[np.ndarray]) -> np.ndarray:
    """The first 64-bit output of ``PCG64`` seeded by each seed sequence
    whose pool words are given, flattened, as ``uint64``: the 128-bit
    state arithmetic runs on (high, low) word pairs."""
    const, words = _INIT_B, []
    for j in range(8):  # generate_state(4, np.uint64), as uint32 pairs
        w = pool[j % 4] ^ const
        const = const * _MULT_B & _MASK32
        w = w * np.uint32(const)
        words.append((w ^ w >> 16).astype(np.uint64).ravel())
    s_hi, s_lo, c_hi, c_lo = (words[2 * j] | words[2 * j + 1] << _U32 for j in range(4))
    inc = (c_hi << _U1 | c_lo >> _U63, c_lo << _U1 | _U1)
    state = _add128(
        _mul128(_add128(inc, (s_hi, s_lo)), _PCG_MULT2), _mul128(inc, _PCG_INC2)
    )
    x, rot = state[0] ^ state[1], state[0] >> _U58
    return x >> rot | x << (-rot & _U63)


def chunk_keys(
    base: Pool, n: int, first: int, count: int
) -> tuple[list[tuple[tuple[int, ...], tuple[bool, ...]]], Pool]:
    """The (bits, switches) keys of rounds ``first`` to ``first + count - 1``
    of ``n`` parties, and the pools of the rounds' generators.

    A round index must fit one 32-bit spawn-key word.  Party ``k``'s bit
    is its stream's first ``integers(2)``, bit 31 of the first output, and
    its switch (``k >= 1``) the second call, bit 63.
    """
    rounds = _mix_words(base, [np.arange(first, first + count, dtype=np.uint32)])
    parties = _mix_words(
        ([w[:, None] for w in rounds[0]], rounds[1]), [np.arange(n, dtype=np.uint32)]
    )
    out = _first_outputs(parties[0]).reshape(count, n)
    bits = (out >> np.uint64(31) & _U1).tolist()
    switches = (out[:, 1:] >> _U63).astype(bool).tolist()
    return [(tuple(b), tuple(s)) for b, s in zip(bits, switches)], rounds


def uniforms(pool: Pool, rows: Sequence[int]) -> list[float]:
    """``random()`` of the generators of the given rows of a pool: the
    sample ``Generator.choice`` takes first."""
    out = _first_outputs([w[rows] for w in pool[0]])
    return ((out >> np.uint64(11)).astype(float) * 2.0**-53).tolist()


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cumulative sums ``Generator.choice(len(p), p=p)`` searches: its
    pick is their right bisection at its sample."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()
