"""Closed-form payoff formulas for the two-party game.

These are independent of the state-vector pipeline and double as oracles in
the equivalence test suite.  The separable and entangled payoffs sum over
the prize door j and every tuple of opened doors; only tuples of distinct
doors that avoid j contribute, and for those the switch indicator equals the
keep indicator.  The sum therefore runs over the next free door j - k below
j, each k weighted by the number of tuples that give it (see
:func:`_next_free`), in O(d * m) terms.

:func:`separable_curves` and :func:`entangled_curves` evaluate these terms
for many strategy pairs and angles at once, as one numpy grid
[pair, gamma, j, k - 1] with the shape of :func:`qmonty.game.payoff_curves`.
Each entry takes the steps of the scalar formula in the same order, so it is
the float a one-pair, one-angle call gives, whatever the batch;
:func:`payoff_separable` and :func:`payoff_entangled` are those calls.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .game import GameConfig
from .qudit import Strategy

MAX_FACTORIAL_D = 20


def _factorial(x: int) -> int:
    if x < 0 or x > MAX_FACTORIAL_D:
        raise ValueError(f"factorial argument {x} outside supported range")
    return math.factorial(x)


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


def _next_free(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The door j - k below each prize door j, as a grid [j, k - 1], and the
    count N(k) of opened-door tuples whose next free door below j is j - k,
    for k = 1..m+1.

    Only ordered tuples of m distinct doors that avoid j count.  For offset
    k, doors j-1, ..., j-k+1 are opened and j - k is not; the other m - k + 1
    opened doors come from the d - k - 1 left, and the m doors open in any
    order: N(k) = m! C(d-k-1, m-k+1), the same for every j.  The counts sum to
    (d-1)!/(d-m-1)!, the number of such tuples.
    """
    k = np.arange(1, m + 2)
    below = (np.arange(d)[:, None] - k) % d
    counts = np.array(
        [_factorial(m) * math.comb(d - i - 1, m - i + 1) for i in range(1, m + 2)],
        dtype=float,
    )
    return below, counts


def _require_two_party(config: GameConfig) -> None:
    if config.n != 2:
        raise ValueError("closed-form payoffs cover the two-party game only")


def _angle_factors(
    config: GameConfig, gammas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """cos(g) and q sin(g), q = sqrt((d-1)/(d-m-1)), per angle, shaped to
    broadcast over the term grid [pair, gamma, j, k - 1].  Each is the
    scalar product math.cos(g) or q * math.sin(g)."""
    d, m = config.d, config.m
    q = math.sqrt((d - 1) / (d - m - 1))
    cos = np.array([math.cos(g) for g in gammas], dtype=float)
    qsin = np.array([q * math.sin(g) for g in gammas], dtype=float)
    return cos[:, None, None], qsin[:, None, None]


def _check_pairs(
    config: GameConfig, pairs: Sequence[tuple[Strategy, Strategy]]
) -> None:
    _require_two_party(config)
    if any(A.d != config.d or B.d != config.d for A, B in pairs):
        raise ValueError("strategy dimension does not match the config")


def _total(pref: float, grid: np.ndarray) -> np.ndarray:
    """pref times the sum of each [pair, gamma] slice of the (j, k) grid,
    taken over the slice's row-major run as the scalar formula's sum is."""
    pairs, angles, d, offsets = grid.shape
    return pref * grid.reshape(pairs, angles, d * offsets).sum(axis=-1)


def separable_curves(
    config: GameConfig,
    pairs: Sequence[tuple[Strategy, Strategy]],
    gammas: Sequence[float],
) -> np.ndarray:
    """Expected payoff for the all-zero separable initial state of every
    ``(A, B)`` pair at each gamma, as an array of shape
    ``(len(pairs), len(gammas))``; ``config.gamma`` is not used.

    Sum over the prize door j and every opened-door tuple of
    |a_{j,0}|^2 * |cos(g) b_{j,0} eps(o,j)
                   + sqrt((d-1)/(d-m-1)) sin(g) b_{j-lam,0} eps(o,j-lam,j)|^2,
    scaled by (d-m-1)!/(d-1)!.  Counted by the offset k = lam:
    sum over j and k of |a_{j,0}|^2 N(k) |cos(g) b_{j,0} + q sin(g) b_{j-k,0}|^2.
    The terms of all pairs and angles form one grid [pair, gamma, j, k - 1].
    eps and lam are ``epsilon`` and ``lambda_term`` in ``tests/conftest.py``,
    whose reference payoffs sum the uncounted form.
    """
    _check_pairs(config, pairs)
    d, m = config.d, config.m
    a0 = np.array([A.entries[:, 0] for A, _ in pairs], dtype=complex).reshape(-1, d)
    b0 = np.array([B.entries[:, 0] for _, B in pairs], dtype=complex).reshape(-1, d)
    below, counts = _next_free(d, m)
    cos, qsin = _angle_factors(config, gammas)
    term = cos * b0[:, None, :, None] + qsin * b0[:, None, below]
    weights = (np.abs(a0) ** 2)[:, None, :, None] * counts
    pref = _factorial(d - m - 1) / _factorial(d - 1)
    return _total(pref, weights * np.abs(term) ** 2)


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


def entangled_curves(
    config: GameConfig,
    pairs: Sequence[tuple[Strategy, Strategy]],
    gammas: Sequence[float],
) -> np.ndarray:
    """Expected payoff for the shared-GHZ initial state of every ``(A, B)``
    pair at each gamma, as an array of shape ``(len(pairs), len(gammas))``;
    ``config.gamma`` is not used.

    Sum over j and opened-door tuples of
    |cos(g) eps(o,j) sum_i a_{j,i} b_{j,i}
      + sqrt((d-1)/(d-m-1)) sin(g) eps(o,j-lam,j) sum_i b_{j-lam,i} a_{j,i}|^2,
    scaled by (d-m-1)!/d!, and counted by the offset k = lam as in
    :func:`separable_curves` (eps and lam as there).  The row products carry
    no conjugation; the GHZ pairing makes the plain bilinear form the correct
    one, which the pipeline-equivalence suite confirms for complex strategies.
    """
    _check_pairs(config, pairs)
    d, m = config.d, config.m
    # [pair, j, l] = sum_i a_{j,i} b_{l,i}: one stacked product of the A
    # entries and the copied B transposes, each pair's the one-pair call's
    # own, so a batch does not change its rounding.  The copies keep
    # ``B is A`` off numpy's symmetric A @ A.T path, which rounds otherwise.
    a = np.array([A.entries for A, _ in pairs], dtype=complex).reshape(-1, d, d)
    bt = np.array([B.entries.T for _, B in pairs], dtype=complex).reshape(-1, d, d)
    rowdots = np.matmul(a, bt)
    below, counts = _next_free(d, m)
    cos, qsin = _angle_factors(config, gammas)
    term = (
        cos * np.diagonal(rowdots, axis1=1, axis2=2)[:, None, :, None]
        + qsin * rowdots[:, None, np.arange(d)[:, None], below]
    )
    pref = _factorial(d - m - 1) / _factorial(d)
    return _total(pref, counts * np.abs(term) ** 2)


def payoff_entangled(A: Strategy, B: Strategy, config: GameConfig) -> float:
    """Expected payoff for the shared-GHZ initial state at ``config.gamma``:
    :func:`entangled_curves` for one pair and one angle."""
    return float(entangled_curves(config, [(A, B)], [config.gamma])[0, 0])


def displacement_curves(
    config: GameConfig, ks: Sequence[int], gammas: Sequence[float]
) -> np.ndarray:
    """Payoff when the GHZ correlation is displaced by k doors, for every k
    in ``ks`` at each gamma, as an array of shape ``(len(ks), len(gammas))``;
    ``config.gamma`` is not used.

    P_{ns,k} cos^2(gamma) + P_{s,k} sin^2(gamma) with P_{ns,k} = 1 only at
    k = 0 and P_{s,k} = m!(k-1)!/((m+k+1-d)!(d-2)!) for k >= d-m-1, else 0.
    Each entry takes the scalar steps of that formula in the same order,
    with ``math.cos`` and ``math.sin`` per angle.
    """
    _require_two_party(config)
    d, m = config.d, config.m
    p_ns, p_s = [], []
    for k in ks:
        if not 0 <= k < d:
            raise ValueError(f"displacement {k} out of range for dimension {d}")
        p_ns.append(1.0 if k == 0 else 0.0)
        if k >= d - m - 1 and k >= 1:
            p_s.append(
                _factorial(m)
                * _factorial(k - 1)
                / (_factorial(m + k + 1 - d) * _factorial(d - 2))
            )
        else:
            p_s.append(0.0)
    cos2 = np.array([math.cos(g) ** 2 for g in gammas], dtype=float)
    sin2 = np.array([math.sin(g) ** 2 for g in gammas], dtype=float)
    return np.array(p_ns)[:, None] * cos2 + np.array(p_s)[:, None] * sin2


def payoff_displacement(k: int, config: GameConfig) -> float:
    """Payoff when the GHZ correlation is displaced by k doors, at
    ``config.gamma``: :func:`displacement_curves` for one k and one angle."""
    return float(displacement_curves(config, [k], [config.gamma])[0, 0])


def default_gammas(points: int = 101) -> np.ndarray:
    """Evenly spaced sample angles on [0, pi/2]."""
    if points < 2:
        raise ValueError("need at least two sample points")
    return np.linspace(0.0, math.pi / 2, points)
