"""n-party extension of the door game.

States carry the layout |o_m, ..., o_1, p_n, ..., p_1> where p_1 is the
host's (prize) label and p_2..p_n the players' chosen doors.  The door
openings account for every party label, and each player owns a switching
operator that reads the shared opened registers but only moves that player's
label.  The pipeline :func:`multi_play` and the player switch builders live
in :mod:`qmonty.game`, which runs the two-party game as the case n = 2; they
are importable from here too.
"""

from __future__ import annotations

from .game import (  # noqa: F401 (multi_play and the switch builders are re-exported)
    GameConfig,
    _door_opening,
    _win_weight,
    multi_play,
    player_mixed_switch_operator,
    player_switch_operator,
)
from .qudit import LocalOperator, StateVector


def multi_door_opening_operator(j: int, config) -> LocalOperator:
    """j-th door-opening operator over all party labels (j = 1..m).

    ``config`` only needs ``d``, ``m`` and ``n`` attributes, so protocol
    configurations work as well as :class:`GameConfig`.
    """
    if not 1 <= j <= config.m:
        raise ValueError(f"door-opening index {j} out of range 1..{config.m}")
    return _door_opening(config.d, config.n, j)


def per_player_payoff(config: GameConfig, final: StateVector, k: int) -> float:
    """Win weight of player k: squared amplitude total on p_k = p_1."""
    if not 2 <= k <= config.n:
        raise ValueError(f"player index {k} out of range 2..{config.n}")
    if (final.d, final.num_qudits) != (config.d, config.num_qudits):
        raise ValueError("final state does not match the config")
    return _win_weight(final, k)
