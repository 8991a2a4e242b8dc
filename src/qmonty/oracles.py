"""Closed-form payoff formulas for the two-party game.

These are independent of the state-vector pipeline and double as oracles in
the equivalence test suite.  The separable and entangled payoffs sum over
the prize door j and every tuple of opened doors; only tuples of distinct
doors that avoid j contribute, and for those the switch indicator equals the
keep indicator.  The sum therefore runs over the next free door j - k below
j, each k weighted by the number of tuples that give it (see
:func:`_offset_weights`).  The ``*_forms`` functions return the
``(kk, ss, ks)`` triple of :func:`qmonty.game.form_curves` for many pairs
and every m = 0..d-2, in the shape of :func:`qmonty.game.label_forms`; the
``*_curves`` functions are column ``m`` of it at many angles, and the
``payoff_*`` functions their one-pair, one-angle calls.  No pair or angle
changes the entries of another, so each entry is the float of that call.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

from .game import Forms, GameConfig, _entries, form_curves
from .qudit import Strategy

# Largest n whose n! a closed form evaluates: the payoff weights reach
# (d - 1)! and the displacement rows (d - 2)!, which bounds the d they take.
MAX_FACTORIAL_D = 20


def classical_p_ns(d: int) -> float:
    """Win probability when the player keeps the initial door: 1/d."""
    if d < 2:
        raise ValueError("need at least two doors")
    return 1.0 / d


def classical_p_s(d: int, m: int) -> float:
    """Win probability by switching after m doors were opened."""
    if not 0 <= m <= d - 2:
        raise ValueError(f"need d - 2 >= m >= 0, got d={d}, m={m}")
    return (d - 1) / (d - m - 1) / d


@lru_cache(maxsize=None)
def _offset_weights(d: int) -> tuple[np.ndarray, np.ndarray]:
    """W[m, k - 1] = N_m(k) (d-m-1)!/(d-1)! for m = 0..d-2 and k = 1..m+1
    (else 0), each the exact ratio rounded once, and q_m^2 = (d-1)/(d-m-1).

    N_m(k) counts the ordered tuples of m distinct opened doors that avoid
    the prize door j and leave j - k as the next free door below it: doors
    j-1, ..., j-k+1 are opened and j - k is not, and the other m - k + 1 come
    from the d - k - 1 left, so N_m(k) = m! C(d-k-1, m-k+1) for every j.
    They sum to (d-1)!/(d-m-1)!, the number of such tuples."""
    if d - 1 > MAX_FACTORIAL_D:
        raise ValueError(f"closed-form payoffs support d <= {MAX_FACTORIAL_D + 1}, got d = {d}")
    weights = np.zeros((d - 1, d - 1))
    for m in range(d - 1):
        weights[m, : m + 1] = [
            math.factorial(m) * math.comb(d - k - 1, m - k + 1) * math.factorial(d - m - 1)
            / math.factorial(d - 1)
            for k in range(1, m + 2)
        ]
    q2 = np.array([(d - 1) / (d - m - 1) for m in range(d - 1)])
    weights.flags.writeable = q2.flags.writeable = False
    return weights, q2


def _require_two_party(config: GameConfig) -> None:
    if config.n != 2:
        raise ValueError("closed-form payoffs cover the two-party game only")


def _offset_forms(d: int, amps: np.ndarray, prize: np.ndarray) -> Forms:
    """The triple of every pair at every m from the amplitudes
    ``amps[pair, j, l]`` of prize door j and door l, and the prize weights
    ``prize[pair, j]``.  With C_k = sum_j prize_j |amps_{j,j-k}|^2 and
    R_k = sum_j prize_j Re(conj amps_{j,j} amps_{j,j-k}): kk = C_0,
    ss = q_m^2 sum_k W[m, k - 1] C_k and ks = q_m sum_k W[m, k - 1] R_k, each
    sum over the last axis of a broadcast product, not a matrix product, so
    a pair's sums do not depend on the other pairs."""
    weights, q2 = _offset_weights(d)
    doors = np.arange(d)
    below = amps[:, doors, (doors - doors[:, None]) % d]  # [pair, k, j]
    c = (prize[:, None, :] * np.abs(below) ** 2).sum(axis=2)
    r = (prize[:, None, :] * (below[:, :1].conj() * below).real).sum(axis=2)
    ss = q2 * (c[:, None, 1:] * weights).sum(axis=2)
    ks = np.sqrt(q2) * (r[:, None, 1:] * weights).sum(axis=2)
    return np.repeat(c[:, :1], d - 1, axis=1), ss, ks


def separable_forms(d: int, pairs: Sequence[tuple[Strategy, Strategy]]) -> Forms:
    """The payoff triple of the all-zero separable initial state for every
    ``(A, B)`` pair at every m = 0..d-2, each of shape ``(len(pairs), d - 1)``.

    The payoff sums |a_{j,0}|^2 |cos(g) b_{j,0} eps(o,j) + q sin(g) b_{j-lam,0}
    eps(o,j-lam,j)|^2 over the prize door j and every opened-door tuple o,
    with q = sqrt((d-1)/(d-m-1)), scaled by (d-m-1)!/(d-1)!.  Counted by the
    offset k = lam it is the :func:`_offset_forms` of b_{l,0} with prize
    weights |a_{j,0}|^2.  eps and lam are ``epsilon`` and ``lambda_term`` in
    ``tests/conftest.py``, whose reference payoffs sum the uncounted form.
    """
    return _separable(*_entries(d, pairs))


def _separable(a: np.ndarray, b: np.ndarray) -> Forms:
    """:func:`separable_forms` of ``(pairs, d, d)`` host and player stacks."""
    d = a.shape[-1]
    # Contiguous copies of the first columns, as the pairs' own arrays.
    a0, b0 = (np.ascontiguousarray(mats[:, :, 0]) for mats in (a, b))
    return _offset_forms(d, np.broadcast_to(b0[:, None], (len(b0), d, d)), np.abs(a0) ** 2)


def _column(forms, config: GameConfig, cases, gammas: Sequence[float]) -> np.ndarray:
    """Column ``config.m`` of ``forms(config.d, cases)`` at each gamma."""
    _require_two_party(config)
    return form_curves(*(f[:, config.m] for f in forms(config.d, cases)), gammas)


def separable_curves(config: GameConfig, pairs, gammas: Sequence[float]) -> np.ndarray:
    """Expected payoff for the all-zero separable initial state of every
    ``(A, B)`` pair at each gamma: column ``config.m`` of
    :func:`separable_forms`; ``config.gamma`` is not used."""
    return _column(separable_forms, config, pairs, gammas)


def payoff_separable(A: Strategy, B: Strategy, config: GameConfig) -> float:
    """Expected payoff for the all-zero separable initial state at
    ``config.gamma``: :func:`separable_curves` for one pair and one angle."""
    return float(separable_curves(config, [(A, B)], [config.gamma])[0, 0])


def payoff_qft_separable(config: GameConfig) -> float:
    """Payoff when the player picks the uniform-superposition strategy.

    Independent of the host's strategy:
    |sqrt(P_ns) cos(gamma) + sqrt(P_s) sin(gamma)|^2.
    """
    _require_two_party(config)
    pns = classical_p_ns(config.d)
    ps = classical_p_s(config.d, config.m)
    return (
        math.sqrt(pns) * math.cos(config.gamma)
        + math.sqrt(ps) * math.sin(config.gamma)
    ) ** 2


def gamma_max(d: int, m: int) -> float:
    """Angle maximizing the uniform-player payoff: arctan sqrt(P_s/P_ns)."""
    return math.atan(math.sqrt(classical_p_s(d, m) / classical_p_ns(d)))


def payoff_max(d: int, m: int) -> float:
    """Maximum of the uniform-player payoff over gamma: P_ns + P_s."""
    return classical_p_ns(d) + classical_p_s(d, m)


def entangled_forms(d: int, pairs: Sequence[tuple[Strategy, Strategy]]) -> Forms:
    """The payoff triple of the shared-GHZ initial state for every ``(A, B)``
    pair at every m = 0..d-2, each of shape ``(len(pairs), d - 1)``.

    The payoff sums |cos(g) eps(o,j) D_{j,j} + q sin(g) eps(o,j-lam,j)
    D_{j,j-lam}|^2 over j and o, with D = A B^T, scaled by (d-m-1)!/d!: the
    :func:`_offset_forms` of D_{j,l} with prize weights 1/d (eps, lam and
    q as in :func:`separable_forms`).  D carries no conjugation; the GHZ
    pairing makes the plain bilinear form the correct one, which the
    pipeline-equivalence suite confirms for complex strategies.
    """
    return _entangled(*_entries(d, pairs))


def _entangled(a: np.ndarray, b: np.ndarray) -> Forms:
    """:func:`entangled_forms` of ``(pairs, d, d)`` host and player stacks."""
    # [pair, j, l] = sum_i a_{j,i} b_{l,i}: one stacked product of contiguous
    # copies of A and of B^T, each pair's the one-pair call's own, so a batch
    # does not change its rounding.  The copies keep ``B is A`` off numpy's
    # symmetric A @ A.T path, which rounds otherwise.
    d = a.shape[-1]
    rowdots = np.matmul(np.ascontiguousarray(a), b.swapaxes(1, 2).copy())
    return _offset_forms(d, rowdots, np.full((len(rowdots), d), 1.0 / d))


def entangled_curves(config: GameConfig, pairs, gammas: Sequence[float]) -> np.ndarray:
    """Expected payoff for the shared-GHZ initial state of every ``(A, B)``
    pair at each gamma: column ``config.m`` of :func:`entangled_forms`;
    ``config.gamma`` is not used."""
    return _column(entangled_forms, config, pairs, gammas)


def payoff_entangled(A: Strategy, B: Strategy, config: GameConfig) -> float:
    """Expected payoff for the shared-GHZ initial state at ``config.gamma``:
    :func:`entangled_curves` for one pair and one angle."""
    return float(entangled_curves(config, [(A, B)], [config.gamma])[0, 0])


@lru_cache(maxsize=None)
def _switch_row(d: int, k: int) -> tuple[float, ...]:
    """:func:`displacement_forms`' P_{s,k} at every m = 0..d-2, built once per
    ``(d, k)``.  A row is built only when asked for, so k = 0 needs no
    factorial at any d."""
    if k >= 1 and d - 2 > MAX_FACTORIAL_D:
        raise ValueError("closed-form displacement payoffs with k >= 1 support "
                         f"d <= {MAX_FACTORIAL_D + 2}, got d = {d}")
    return tuple(
        math.factorial(m) * math.factorial(k - 1)
        / (math.factorial(m + k + 1 - d) * math.factorial(d - 2))
        if k >= d - m - 1 and k >= 1 else 0.0 for m in range(d - 1)
    )


def displacement_forms(d: int, ks: Sequence[int]) -> Forms:
    """The payoff triple ``(P_ns, P_s, 0)`` when the GHZ correlation is
    displaced by k doors, for every k in ``ks`` at every m = 0..d-2, each of
    shape ``(len(ks), d - 1)``: P_{ns,k} = 1 only at k = 0, and
    P_{s,k} = m!(k-1)!/((m+k+1-d)!(d-2)!) for k >= d-m-1, else 0."""
    ks = [operator.index(k) for k in ks]
    for k in ks:
        if not 0 <= k < d:
            raise ValueError(f"displacement {k} out of range for dimension {d}")
    p_ns = np.array([[float(k == 0)] * (d - 1) for k in ks]).reshape(-1, d - 1)
    p_s = np.array([_switch_row(d, k) for k in ks]).reshape(-1, d - 1)
    return p_ns, p_s, np.zeros_like(p_ns)


def displacement_curves(config: GameConfig, ks, gammas: Sequence[float]) -> np.ndarray:
    """Payoff when the GHZ correlation is displaced by k doors, for every k
    in ``ks`` at each gamma: P_{ns,k} cos^2(gamma) + P_{s,k} sin^2(gamma),
    column ``config.m`` of :func:`displacement_forms`; ``config.gamma`` is
    not used."""
    return _column(displacement_forms, config, ks, gammas)


def payoff_displacement(k: int, config: GameConfig) -> float:
    """Payoff when the GHZ correlation is displaced by k doors, at
    ``config.gamma``: :func:`displacement_curves` for one k and one angle."""
    return float(displacement_curves(config, [k], [config.gamma])[0, 0])


def default_gammas(points: int = 101) -> np.ndarray:
    """Evenly spaced sample angles on [0, pi/2]."""
    if points < 2:
        raise ValueError("need at least two sample points")
    return np.linspace(0.0, math.pi / 2, points)
