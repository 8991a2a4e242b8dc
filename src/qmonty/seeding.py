"""numpy's per-round random-number scheme, computed for a chunk of rounds.

A protocol round ``i`` of seed ``s`` draws from the generator
``default_rng(SeedSequence(s).spawn(...)[i])``, that is the seed sequence
with spawn key ``(i,)``, and party ``k`` from the stream
``rng.spawn(n)[k]``, spawn key ``(i, k)``.  Building those ``1 + n``
``Generator`` objects costs more than the round's own evolution, so this
module computes the numbers they would give directly, with a copy of the
functions numpy runs:

* the ``SeedSequence`` hash of every spawn key, as ``uint32`` arithmetic.
  The root seed's pool is scalar work, done in Python integers.  A chunk's
  pools are one ``(4, ...)`` array, a pool word per row; the hash constant
  advances the same way whatever the words hold, so each entropy word meets
  the four pool words in one broadcast step against a precomputed column
  of constants;
* the ``PCG64`` state seeded from ``generate_state(4, np.uint64)`` and its
  first 64-bit output, as ``uint64`` arithmetic over the chunk: the eight
  ``uint32`` words are one ``(8, N)`` step from a constant schedule, and a
  128-bit number is a pair of high and low words, multiplied through
  32-bit halves, both products of the seeding in one stacked step.

A round's key, its parties' bits and switches, is packed into one integer
code (:func:`chunk_keys`, :func:`decode_key`).

The constants come from ``numpy/random/bit_generator.pyx`` (``SeedSequence``)
and ``numpy/random/src/pcg64/pcg64.h`` (``PCG64``).  The tests hold every
function here equal to numpy itself.  Nothing here imports ``numpy.random``.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _powers(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**j`` modulo ``2**32`` for ``j`` from 0 to ``count``."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(values: Sequence[int], dtype=np.uint32) -> np.ndarray:
    return np.array(values, dtype=dtype)[:, None]


# The hash constants of a pool's first 16 hashes: its four words, then
# each word mixed into the three others.
_POOL_CONSTS = _powers(_INIT_A, _MULT_A, 16)
# generate_state's eight words: word j is pool word j % 4 xored with
# _STATE_CONSTS[j] and multiplied by _STATE_CONSTS[j + 1], as a (2, 4, 1)
# schedule that broadcasts over a (4, N) pool.
_STATE_CONSTS = _powers(_INIT_B, _MULT_B, 8)
_STATE_XOR = np.array(_STATE_CONSTS[:8], dtype=np.uint32).reshape(2, 4, 1)
_STATE_MULT = np.array(_STATE_CONSTS[1:], dtype=np.uint32).reshape(2, 4, 1)
# Two PCG64 steps from a state s with increment c: s * M^2 + c * (M + 1),
# the two factors as a column of high and a column of low words.
_PCG_FACTORS = (_PCG_MULT**2 & _MASK128, _PCG_MULT + 1)
_PCG_HI = _column([f >> 64 for f in _PCG_FACTORS], np.uint64)
_PCG_LO = _column([f & _MASK64 for f in _PCG_FACTORS], np.uint64)
_LOW32, _U1, _U11, _U32, _U58, _U63 = (
    np.uint64(v) for v in (_MASK32, 1, 11, 32, 58, 63)
)

# A seed sequence's pool words, as a (4, ...) uint32 array, and the hash
# constant its next entropy word meets.
Pool = tuple[np.ndarray, int]


def _hashmix(value, const, nxt):
    """``SeedSequence``'s ``hashmix`` of a word met by hash constant
    ``const``, which advances to ``nxt``: Python integers or ``uint32``
    arrays."""
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y & _MASK32
    return value ^ value >> 16


@lru_cache(maxsize=None)
def _word_schedule(const: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The hash constants an entropy word meets, one per pool word, as it
    is mixed into the four pool words from hash constant ``const``: the
    xor and multiply columns, and the constant after them."""
    consts = _powers(const, _MULT_A, 4)
    return _column(consts[:4]), _column(consts[1:]), consts[4]


def _mix_words(pool: Pool, words: Iterable) -> Pool:
    """Mix entropy words beyond the first four into pools, as
    ``SeedSequence.mix_entropy`` does.

    Each word array meets every pool: pools of shape ``(4, *S)`` and a word
    array of shape ``W`` give pools of shape ``(4, *S, *W)``.
    """
    pools, const = pool
    for word in words:
        word = np.asarray(word, dtype=np.uint32)
        xor, nxt, const = _word_schedule(const)
        column = (4,) + (1,) * (pools.ndim - 1 + word.ndim)
        h = _hashmix(word, xor.reshape(column), nxt.reshape(column))
        pools = _mix(pools.reshape(pools.shape + (1,) * word.ndim), h)
    return pools, const


def seed_pool(seed: int) -> Pool:
    """The pool of ``SeedSequence(seed)`` with a spawn key still to mix in
    (ValueError on a negative seed, as numpy): a ``(4,)`` array."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # A spawn key pads the seed's words with zeros to the pool size.
    words += [0] * (4 - len(words))
    consts = zip(_POOL_CONSTS, _POOL_CONSTS[1:])
    pool = [_hashmix(w, *next(consts)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    return _mix_words((np.array(pool, dtype=np.uint32), _POOL_CONSTS[16]), words[4:])


def _mul64(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit products of ``uint64`` words, as high and low
    words, from their 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    low, cross_a, cross_b = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (low >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    high = a_hi * b_hi + (cross_a >> _U32) + (cross_b >> _U32) + (mid >> _U32)
    return high, mid << _U32 | low & _LOW32


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Sums modulo ``2**128`` of (high, low) word pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _first_outputs(pool) -> np.ndarray:
    """The first 64-bit output of ``PCG64`` seeded by each seed sequence
    whose pool words are given (a ``(4, ...)`` array, or four arrays),
    flattened, as ``uint64``: the 128-bit state arithmetic runs on
    (high, low) word pairs."""
    pool = np.asarray(pool, dtype=np.uint32).reshape(4, -1)
    # generate_state(4, np.uint64): eight uint32 words, paired low-first.
    w = (pool ^ _STATE_XOR) * _STATE_MULT
    w = (w ^ w >> 16).astype(np.uint64).reshape(4, 2, -1)
    s_hi, s_lo, c_hi, c_lo = w[:, 0] | w[:, 1] << _U32
    inc_hi, inc_lo = c_hi << _U1 | c_lo >> _U63, c_lo << _U1 | _U1
    start = _add128((inc_hi, inc_lo), (s_hi, s_lo))
    # (inc + s) * M^2 and inc * (M + 1), as one stacked product.
    a_hi, a_lo = np.stack([start[0], inc_hi]), np.stack([start[1], inc_lo])
    high, low = _mul64(a_lo, _PCG_LO)
    high += a_hi * _PCG_LO + a_lo * _PCG_HI
    state_hi, state_lo = _add128((high[0], low[0]), (high[1], low[1]))
    x, rot = state_hi ^ state_lo, state_hi >> _U58
    return x >> rot | x << (-rot & _U63)


@lru_cache(maxsize=None)
def _key_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each bit of an ``n``-party key code: the party whose output
    holds it, that output's bit, and the code's bit."""
    if 2 * n - 1 > 64:
        raise ValueError(
            f"a key code of {n} parties needs {2 * n - 1} bits, more than 64"
        )
    party = np.r_[np.arange(n), np.arange(1, n)]
    source = np.array([31] * n + [63] * (n - 1), dtype=np.uint64)
    return party, source, np.arange(2 * n - 1, dtype=np.uint64)


def decode_key(code: int, n: int) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """The (bits, switches) of an ``n``-party key code from
    :func:`chunk_keys`."""
    bits = tuple(code >> k & 1 for k in range(n))
    return bits, tuple(bool(code >> (n + k - 1) & 1) for k in range(1, n))


def chunk_keys(base: Pool, n: int, first: int, count: int) -> tuple[list[int], Pool]:
    """The key codes of rounds ``first`` to ``first + count - 1`` of ``n``
    parties, and the pools of the rounds' generators.

    A round index must fit one 32-bit spawn-key word.  Party ``k``'s bit
    is its stream's first ``integers(2)``, bit 31 of the first output, and
    its switch (``k >= 1``) the second call, bit 63.  A code holds party
    ``k``'s bit in bit ``k`` and its switch in bit ``n + k - 1``, so it
    needs ``2n - 1`` bits (ValueError beyond 64).
    """
    party, source, target = _key_layout(n)
    rounds = _mix_words(base, [np.arange(first, first + count, dtype=np.uint32)])
    parties = _mix_words(rounds, [np.arange(n, dtype=np.uint32)])
    out = _first_outputs(parties[0]).reshape(count, n)
    codes = ((out[:, party] >> source & _U1) << target).sum(axis=1)
    return codes.tolist(), rounds


def uniforms(pool: Pool, rows: Sequence[int]) -> list[float]:
    """``random()`` of the generators of the given rows of a pool: the
    sample ``Generator.choice`` takes first."""
    if not rows:
        return []
    out = _first_outputs(pool[0][:, rows])
    return ((out >> _U11).astype(float) * 2.0**-53).tolist()


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cumulative sums ``Generator.choice(len(p), p=p)`` searches: its
    pick is their right bisection at its sample."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()
