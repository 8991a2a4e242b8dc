"""Generalized quantum Monty Hall game.

The register layout for a game with ``m`` openable doors and ``n`` parties is
``|o_m, ..., o_1, p_n, ..., p_1>`` in ket order: the host's door label ``a``
(= ``p_1``) occupies slot 0, the player's label ``b`` (= ``p_2``) slot 1, and
the j-th opened-door register slot ``n - 1 + j``.

The game pipeline applies every party's strategy, then the door-opening
operators in succession, then each player's switching step: the switch, no
switch, or the quantum mixed step ``cos(gamma) * I + sin(gamma) * S``.  The
mixed step is a per-basis-state isometry but not a unitary, so the final
state is generally not normalized; the expected payoff is by definition the
plain sum of squared winning amplitudes of that final state, which is
exactly what the closed-form oracles compute.

:func:`multi_play` runs the n-party pipeline on dense state vectors, and
:func:`play_game` is its two-party call at the config's angle.
:func:`payoff_curve` runs it in two steps, which the tests hold to it.
:func:`label_amplitudes` applies the strategy pairs as one stacked product
``B psi A^T`` of the initial label block; no door is open yet, so the label
amplitudes serve every ``m``.  The openings and the switch are one linear
map per ``(d, m)``, which :func:`_tail` reads as three sparse forms by
following each label state through the operators' entry tables.  So a
row's payoff is the quadratic form of :func:`form_curves`, whose triple
:func:`label_forms` reads at every ``m`` at once, in the shape of the
closed-form oracles' triples.  The forms come from the operators, not from
the closed forms' counts, so ``qmonty verify`` still compares two
independent computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qudit import (
    LocalOperator,
    StateVector,
    Strategy,
    _matches,
    _slot_matrix,
    _split,
    apply_local_operator,
    apply_strategy,
    check_register_size,
    ghz_state,
    make_basis_state,
)

GAMMA_MAX_RANGE = math.pi / 2
# Most label amplitudes one batch of :func:`_label_rows` holds (its products
# hold d times as many).  :func:`label_forms` takes every row at once, since
# it reads only the d^2 label amplitudes of each.  Larger batches save
# little time and raise the peak memory.
BATCH_AMPLITUDES = 1 << 14


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: doors ``d``, opened doors ``m``, parties ``n``,
    and the switch-mix angle ``gamma`` in [0, pi/2].

    The parameter restrictions ``n >= 2`` and ``d - n >= m >= 0`` are the
    consistency conditions of the underlying door game.
    """

    d: int
    m: int
    n: int
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("the game needs at least two parties (n >= 2)")
        if not 0 <= self.m <= self.d - self.n:
            raise ValueError(
                f"need d - n >= m >= 0, got d={self.d}, n={self.n}, m={self.m}"
            )
        if not 0.0 <= self.gamma <= GAMMA_MAX_RANGE + 1e-12:
            raise ValueError("gamma must lie in [0, pi/2]")

    @property
    def num_qudits(self) -> int:
        return self.m + self.n


def player_slot(k: int) -> int:
    """Slot of party k's door label (host is party 1)."""
    return k - 1


def opened_slot(j: int, n: int) -> int:
    """Slot of the j-th opened-door register (j = 1..m)."""
    return n - 1 + j


# ---------------------------------------------------------------------------
# Operator builders (shared with the multiplayer and protocol modules).
# ---------------------------------------------------------------------------


def _free_doors(d: int, k: int) -> np.ndarray:
    """Mask of shape (d**k, d): door c is free in row r when none of the k
    labels of flat index r is c; ValueError when d**k is above the budget."""
    check_register_size(d, k)
    free = np.ones((d,) * k + (d,), dtype=bool)
    for axis in range(k):
        # The label on this axis takes its own door.
        shape = [1] * (k + 1)
        shape[axis] = shape[k] = d
        free &= ~np.eye(d, dtype=bool).reshape(shape)
    return free.reshape(d**k, d)


@lru_cache(maxsize=None)
def _door_opening(d: int, n: int, j: int) -> LocalOperator:
    """j-th door-opening operator for an n-party game.

    Acts on slots (o_j, ..., o_1, p_n, ..., p_1); its domain is the new
    register being 0.  Each in-domain input goes to the uniform superposition
    over the doors not yet taken by any party label or previously opened
    register, so the map is an isometry on its whole domain.  On inputs whose
    earlier registers are pairwise distinct and disjoint from the party
    labels, the amplitude equals 1/sqrt(d + 1 - j - U(p)) with U the number
    of distinct party labels.
    """
    if j < 1:
        raise ValueError("door-opening step index starts at 1")
    slots = tuple(range(opened_slot(j, n), -1, -1))
    # The new register is the most significant label, so an input
    # (0, rest) has the flat index of ``rest``.
    width = d ** (j - 1 + n)
    free = _free_doors(d, j - 1 + n)
    rest, doors = np.nonzero(free)
    count = free.sum(axis=1)
    domain = np.zeros(d * width, dtype=bool)
    domain[:width] = count > 0
    return LocalOperator(
        d, slots, rest, doors * width + rest, 1.0 / np.sqrt(count[rest]), domain,
        name=f"door-opening O_{j}",
    )


@lru_cache(maxsize=None)
def _door_switch(
    d: int, m: int, n: int, k: int, tolerate_opened_choice: bool = False
) -> LocalOperator:
    """Door-switching operator for party k on slots (o_m, ..., o_1, p_k).

    Moves the party's label to the next door (mod d) not present in the
    opened registers.  The standard domain requires the party label and all
    opened registers to be pairwise distinct.  With ``tolerate_opened_choice``
    the map is defined on every basis input (used by the protocol host, whose
    register may contain still-zero slots of validators that declined); on
    the standard domain both variants agree exactly.  The tolerant variant
    is not injective: inputs differing only in a label that collides with an
    opened register can land on the same output.
    """
    if m > d - 2:
        raise ValueError("switching needs m <= d - 2 so a free door exists")
    slots = tuple(range(opened_slot(m, n), opened_slot(1, n) - 1, -1)) + (
        player_slot(k),
    )
    # Input r holds the party label p = r % d and the opened registers as
    # the m labels of r // d.
    check_register_size(d, m + 1)
    rows = np.arange(d ** (m + 1))
    p = rows % d
    free = np.repeat(_free_doors(d, m), d, axis=0)
    # m <= d - 2 leaves a free door among the d - 1 above p, nearest first.
    above = (p[:, None] + np.arange(1, d)) % d
    target = above[rows, free[rows[:, None], above].argmax(axis=1)]
    if tolerate_opened_choice:
        domain = np.ones(len(p), dtype=bool)
    else:
        domain = (free.sum(axis=1) == d - m) & free[rows, p]
    src = rows[domain]
    dst = src + target[domain] - p[domain]
    return LocalOperator(
        d, slots, src, dst, np.ones(len(src)), domain, name=f"door-switching S_{k}"
    )


def _mixed_switch(d: int, m: int, n: int, k: int, gamma: float) -> LocalOperator:
    """cos(gamma) * identity + sin(gamma) * switch on the switch's domain.

    Not cached, unlike the base switch it is built from: a cache keyed by
    the float angle would keep one operator per angle ever used.  Each
    input's kept branch precedes its moved branch; a branch whose
    coefficient is below 1e-15 (cos(pi/2), sin(0)) is left out.
    """
    base = _door_switch(d, m, n, k)
    c, s = math.cos(gamma), math.sin(gamma)
    keep = np.array([abs(c) > 1e-15, abs(s) > 1e-15])
    src = np.column_stack([base.src, base.src])[:, keep].ravel()
    dst = np.column_stack([base.src, base.dst])[:, keep].ravel()
    amp = np.column_stack([np.full(len(base.src), complex(c)), s * base.amp])
    return LocalOperator(
        d, base.slots, src, dst, amp[:, keep].ravel(), base.domain_mask,
        name=f"mixed-switch({gamma:.6g}) S_{k}",
    )


def door_opening_operator(j: int, config: GameConfig) -> LocalOperator:
    """Two-party door-opening operator for step j (1 <= j <= m)."""
    if not 1 <= j <= config.m:
        raise ValueError(f"door-opening index {j} out of range 1..{config.m}")
    return _door_opening(config.d, config.n, j)


def door_switching_operator(config: GameConfig) -> LocalOperator:
    """Two-party door-switching operator on slots (o_m, ..., o_1, b)."""
    return _door_switch(config.d, config.m, config.n, 2)


def mixed_switch_operator(config: GameConfig) -> LocalOperator:
    """Quantum mixed switching step at the config's gamma."""
    return _mixed_switch(config.d, config.m, config.n, 2, config.gamma)


def player_switch_operator(k: int, config) -> LocalOperator:
    """Door-switching operator for player k (2 <= k <= n).

    Reads all opened registers, moves only p_k to the next unopened door,
    and ignores the other players' labels entirely.  ``config`` only needs
    ``d``, ``m`` and ``n`` attributes.
    """
    if not 2 <= k <= config.n:
        raise ValueError(f"player index {k} out of range 2..{config.n}")
    return _door_switch(config.d, config.m, config.n, k)


def player_mixed_switch_operator(k: int, config, gamma: float) -> LocalOperator:
    """cos(gamma) I + sin(gamma) S_k for player k."""
    if not 2 <= k <= config.n:
        raise ValueError(f"player index {k} out of range 2..{config.n}")
    return _mixed_switch(config.d, config.m, config.n, k, gamma)


# ---------------------------------------------------------------------------
# Game pipeline.
# ---------------------------------------------------------------------------


def separable_initial(config: GameConfig) -> StateVector:
    """All labels at zero: |0...0>."""
    return make_basis_state(config.d, (0,) * config.num_qudits)


def entangled_initial(config: GameConfig) -> StateVector:
    """Opened registers at zero, party labels in the shared GHZ state."""
    ghz = ghz_state(config.d, config.n)
    if config.m == 0:
        return ghz
    return make_basis_state(config.d, (0,) * config.m).tensor(ghz)


def _check_initial(config: GameConfig, initial: StateVector) -> None:
    if initial.d != config.d:
        raise ValueError("initial state dimension does not match the config")
    if initial.num_qudits != config.num_qudits:
        raise ValueError(
            f"initial state must have {config.num_qudits} qudits, "
            f"got {initial.num_qudits}"
        )
    if config.m:
        opened = range(opened_slot(config.m, config.n), config.n - 1, -1)
        # Row 0 holds every amplitude with all opened registers at 0.
        blocks = _slot_matrix(initial, opened)[0]
        if np.abs(blocks[1:]).max(initial=0.0) > 1e-12:
            raise ValueError("initial state must have all opened registers at 0")


def multi_play(
    config: GameConfig,
    strategies: Sequence[Strategy],
    switch_decisions: Sequence[bool | float],
    initial: StateVector,
) -> StateVector:
    """Run the n-party pipeline on a dense state and return the final state.

    ``strategies`` lists one move per party (host first), applied to the
    party labels; the door openings 1..m follow in succession.  Each entry
    of ``switch_decisions`` (players 2..n, ascending) is either a classical
    flag (``bool`` or ``np.bool_``), applying the switch operator or nothing,
    or a float angle, applying the quantum mixed step for that player; an
    integer is neither and raises ``ValueError``.  Switch operators of distinct
    players write disjoint slots, so their order is immaterial.  The
    returned state is the raw linear image (no renormalization).
    """
    if len(strategies) != config.n:
        raise ValueError(f"need {config.n} strategies, got {len(strategies)}")
    if len(switch_decisions) != config.n - 1:
        raise ValueError(
            f"need {config.n - 1} switch decisions, got {len(switch_decisions)}"
        )
    for k, decision in enumerate(switch_decisions, start=2):
        if isinstance(decision, (int, np.integer)) and not isinstance(decision, bool):
            raise ValueError(
                f"switch decision {decision!r} of player {k} is an integer; "
                "pass a bool flag or a float angle"
            )
    _check_initial(config, initial)
    state = initial
    for k, strat in enumerate(strategies, start=1):
        state = apply_strategy(state, strat, player_slot(k))
    for j in range(1, config.m + 1):
        state = apply_local_operator(state, door_opening_operator(j, config))
    for k, decision in enumerate(switch_decisions, start=2):
        if isinstance(decision, (bool, np.bool_)):
            if decision:
                state = apply_local_operator(state, player_switch_operator(k, config))
        else:
            state = apply_local_operator(
                state, player_mixed_switch_operator(k, config, float(decision))
            )
    return state


def play_game(
    config: GameConfig, A: Strategy, B: Strategy, initial: StateVector
) -> StateVector:
    """Run the full two-party pipeline and return the final state.

    Host strategy A on slot a, player strategy B on slot b, door openings
    1..m in succession, then the mixed switching step at ``config.gamma``:
    :func:`multi_play` for two parties.  At the endpoints gamma = 0 and
    gamma = pi/2 the final state is always normalized.
    """
    if config.n != 2:
        raise ValueError("play_game is the two-party pipeline; use multi_play")
    return multi_play(config, [A, B], [float(config.gamma)], initial)


def _win_weight(final: StateVector, k: int) -> float:
    """Squared amplitude total on the basis states with p_k = p_1."""
    pairs = _slot_matrix(final, (player_slot(k), player_slot(1)))[0]
    # Row p_k * d + p_1 holds the pair (p_k, p_1); the equal pairs are every
    # (d + 1)-th row.
    return float((np.abs(pairs[:: final.d + 1]) ** 2).sum())


def expected_payoff(final: StateVector) -> float:
    """Player win weight: sum of squared amplitudes with b = a.

    Applied to the raw pipeline output this is the game's expected payoff;
    the host's payoff is 1 minus this value.
    """
    return _win_weight(final, 2)


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key, ascending, and the sum of its values in the order
    they come."""
    distinct, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(distinct), dtype=values.dtype)
    np.add.at(sums, where, values)
    return distinct, sums


# A payoff triple (kk, ss, ks): kk cos^2 g + ss sin^2 g + 2 ks sin g cos g.
Forms = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _Tail:
    """The door openings and the switch of the two-party game as three
    sparse forms over the ``inputs`` party-label basis states (opened
    registers at 0).  For a row ``L`` of label amplitudes, with ``K`` and
    ``M`` the winning (b = a) amplitudes of the kept and switched states:
    ``|K|^2 = sum_i kept_i |L_i|^2`` and ``|M|^2 = sum_j moved_j |L_j|^2``,
    each an ``(index, weight)`` pair, and ``<K, M> = sum conj(L_i) X_ij L_j``
    with ``cross`` the ``(i, j, X_ij)`` coordinate list."""

    inputs: int
    kept: tuple[np.ndarray, np.ndarray]
    moved: tuple[np.ndarray, np.ndarray]
    cross: tuple[np.ndarray, np.ndarray, np.ndarray]


def _tail_table(d: int, openings: Sequence[LocalOperator], switch: LocalOperator) -> _Tail:
    """Follow each two-party label basis state through ``openings`` and then
    ``switch``, by their ``src``/``dst``/``amp`` tables, and keep the paths
    that end on a winning output: each output's source and the product of
    its step amplitudes, ``f`` before the switch and ``g`` after it.

    The forms are diagonal in the kept and the switched state only if every
    winning output has exactly one source in each: amplitudes that meet on
    one output would add a term between their sources.  The game's openings
    keep their input labels and its switch permutes its domain, so this
    holds; ValueError otherwise."""

    def follow(index, source, factor, op):
        # Each path's successors: the paths end on basis states ``index``,
        # start on label states ``source`` and carry the product ``factor``.
        local, rest = _split(d, index, op.slots)
        if not op.domain_mask[local].all():
            raise ValueError(f"{op.name}: a basis state of the game lies outside its domain")
        which, entry = _matches(local, op.src)
        return rest[which] + op.output_place[entry], source[which], factor[which] * op.amp[entry]

    inputs = d * d
    start = np.arange(inputs)
    kept = (start, start, np.ones(inputs, dtype=complex))
    for op in openings:
        kept = follow(*kept, op)
    branches = []
    for at, source, factor in (kept, follow(*kept, switch)):
        win = np.flatnonzero(at % d == at // d % d)
        win = win[np.argsort(at[win])]
        branches.append((at[win], source[win], factor[win]))
    # return_inverse also keeps np.unique off its masked-array check.
    wins = np.unique(np.concatenate([branches[0][0], branches[1][0]]), return_inverse=True)[0]
    for name, (at, _, _) in zip(("kept", "switched"), branches):
        count = np.bincount(np.searchsorted(wins, at), minlength=len(wins))
        if (count != 1).any():
            bad = np.argmax(count != 1)
            raise ValueError(
                f"winning output {wins[bad]} of the {name} state has {count[bad]} "
                "sources; the forms need exactly one"
            )
    # Both branches now list every winning output once, in the same order.
    (_, i, f), (_, j, g) = branches
    pairs, values = _summed(i * inputs + j, f.conj() * g)
    return _Tail(
        inputs,
        _summed(i, np.abs(f) ** 2),
        _summed(j, np.abs(g) ** 2),
        (pairs // inputs, pairs % inputs, values),
    )


@lru_cache(maxsize=None)
def _tail(d: int, m: int) -> _Tail:
    """The two-party game's tail table, built once per ``(d, m)``; ValueError
    when the game's register is above the amplitude budget."""
    check_register_size(d, m + 2)
    config = GameConfig(d, m, 2)
    openings = [door_opening_operator(j, config) for j in range(1, m + 1)]
    return _tail_table(d, openings, door_switching_operator(config))


def _entries(d: int, pairs: Sequence[tuple[Strategy, Strategy]]) -> tuple[np.ndarray, ...]:
    """The ``(len(pairs), d, d)`` host and player stacks of Strategy pairs."""
    if not all(isinstance(s, Strategy) for pair in pairs for s in pair):
        raise TypeError("strategy pairs must hold Strategy objects")
    if any(A.d != d or B.d != d for A, B in pairs):
        raise ValueError("strategy dimension does not match the config")
    stack = np.array([(A.entries, B.entries) for A, B in pairs], dtype=complex)
    return tuple(stack.reshape(-1, 2, d, d).swapaxes(0, 1))


def _label_rows(psi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The label amplitudes ``B psi A^T``, flattened to ``b * d + a``, of each
    matrix pair of the ``(rows, d, d)`` stacks ``a`` and ``b`` and the label
    block ``psi[b, a]``, in batches of ``BATCH_AMPLITUDES // d^2`` rows.  Each
    sum adds the pairwise sum of its later terms to its first, as a support
    state's ``np.add.reduceat`` does, so the rows are its bit for bit."""
    d = len(psi)
    size = max(1, BATCH_AMPLITUDES // (d * d))
    if len(a) > size:
        return np.concatenate([
            _label_rows(psi, a[lo : lo + size], b[lo : lo + size])
            for lo in range(0, len(a), size)
        ])
    # x[p, a, k] = sum_j a[p, a, j] psi[k, j], then sum_k b[p, b, k] x[p, a, k],
    # each over a contiguous last axis (order="C").
    rows = psi[None]
    for mats in (a, b):
        terms = np.multiply(mats[:, :, None], rows[:, None], order="C")
        rows = terms[..., 0] + terms[..., 1:].sum(axis=-1)
    return rows.reshape(-1, d * d)


def label_amplitudes(
    config: GameConfig,
    pairs: Sequence[tuple[Strategy, Strategy]],
    initial: StateVector | None = None,
) -> np.ndarray:
    """Party-label amplitudes after each ``(A, B)`` pair's strategies, of
    shape ``(len(pairs), d^2)``: :func:`_label_rows` of the initial state's
    first d^2 amplitudes, its labels with the opened registers at 0.  Those
    stay at 0, so the rows of ``m = 0`` serve every ``m``."""
    if config.n != 2:
        raise ValueError("label_amplitudes covers the two-party game only")
    if initial is None:
        initial = separable_initial(config)
    _check_initial(config, initial)
    d = config.d
    return _label_rows(initial.amplitudes[: d * d].reshape(d, d), *_entries(d, pairs))


@lru_cache(maxsize=None)
def _stacked_tail(d: int, ms: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The two-party :func:`_tail` forms at each m of ``ms``, one row per m:
    the kept and the moved weights over the ``d^2`` labels, the union of
    the cross terms' label pairs as ``(i, j)``, and their values on it."""
    tails = [_tail(d, m) for m in ms]
    keys = [t.cross[0] * d * d + t.cross[1] for t in tails]
    # return_inverse also keeps np.unique off its masked-array check.
    union = np.unique(np.concatenate(keys), return_inverse=True)[0]
    kept, moved = np.zeros((2, len(ms), d * d))
    cross = np.zeros((len(ms), len(union)), dtype=complex)
    for row, (t, key) in enumerate(zip(tails, keys)):
        kept[row, t.kept[0]], moved[row, t.moved[0]] = t.kept[1], t.moved[1]
        cross[row, np.searchsorted(union, key)] = t.cross[2]
    kept.flags.writeable = moved.flags.writeable = cross.flags.writeable = False
    return kept, moved, union // (d * d), union % (d * d), cross


def label_forms(d: int, labels: np.ndarray, ms: Sequence[int] | None = None) -> Forms:
    """The triple ``(kk, ss, ks)`` of each row ``L`` of two-party
    :func:`label_amplitudes` at each m of ``ms`` (by default every
    m = 0..d-2), each of shape ``(len(labels), len(ms))``: ``kk = |K|^2``
    and ``ss = |M|^2`` of the kept and switched winning amplitudes, and
    ``ks = Re <K, M>``, read from :func:`_tail`'s forms.  Each sum runs over
    the contiguous last axis of a broadcast product, so a row's sums do not
    depend on the other rows: numpy sums a strided axis of several rows in
    another order than that of one row."""
    ms = tuple(range(d - 1)) if ms is None else tuple(ms)
    kept, moved, xi, xj, cross = _stacked_tail(d, ms)
    if labels.ndim != 2 or labels.shape[1] != d * d:
        raise ValueError(f"labels must have shape (rows, {d * d}), got {labels.shape}")
    weight = (np.abs(labels) ** 2)[:, None, :]
    cross = np.ascontiguousarray(((labels[:, xi].conj() * labels[:, xj])[:, None] * cross).real)
    return (weight * kept).sum(axis=2), (weight * moved).sum(axis=2), cross.sum(axis=2)


def form_curves(kk, ss, ks, gammas: Sequence[float]) -> np.ndarray:
    """The payoffs ``|cos(g) K + sin(g) M|^2 = kk cos^2 g + ss sin^2 g
    + 2 ks sin g cos g`` of a triple at each gamma, with a last axis over the
    angles.  The cosines and sines are ``math.cos`` and ``math.sin``, so an
    entry does not depend on the other angles asked for."""
    c = np.fromiter(map(math.cos, gammas), float, len(gammas))
    s = np.fromiter(map(math.sin, gammas), float, len(gammas))
    kk, ss, ks = (np.asarray(f)[..., None] for f in (kk, ss, ks))
    return kk * (c * c) + ss * (s * s) + 2 * ks * (s * c)


def label_curves(config: GameConfig, labels: np.ndarray, gammas: Sequence[float]) -> np.ndarray:
    """Expected payoff of each row of :func:`label_amplitudes` at each
    gamma: :func:`form_curves` of :func:`label_forms` at ``config.m``."""
    if config.n != 2:
        raise ValueError("label_curves covers the two-party game only")
    return form_curves(*label_forms(config.d, labels, [config.m]), gammas)[:, 0]


def payoff_curve(
    config: GameConfig,
    A: Strategy,
    B: Strategy,
    gammas: Sequence[float],
    initial: StateVector | None = None,
) -> np.ndarray:
    """Expected payoff of one pair at each gamma: :func:`label_curves` of
    :func:`label_amplitudes`."""
    return label_curves(config, label_amplitudes(config, [(A, B)], initial), gammas)[0]
