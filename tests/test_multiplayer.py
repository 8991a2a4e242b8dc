"""n-party extension: operators, pipeline, per-player payoffs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    is_isometry_on_domain,
    is_unitary_on_domain,
    operator_map,
    random_special_unitary,
    record_steps,
)

from qmonty import game
from qmonty.game import (
    GameConfig,
    door_opening_operator,
    door_switching_operator,
    entangled_initial,
    expected_payoff,
    play_game,
    separable_initial,
)
from qmonty.multiplayer import (
    multi_door_opening_operator,
    multi_play,
    per_player_payoff,
    player_mixed_switch_operator,
    player_switch_operator,
)
from qmonty.oracles import classical_p_ns, classical_p_s
from qmonty.qudit import (
    StateVector,
    Strategy,
    apply_local_operator,
    flat_index,
    ghz_state,
    make_basis_state,
    qft,
    sum_d,
)


def _initial(config: GameConfig) -> StateVector:
    return make_basis_state(config.d, (0,) * config.num_qudits)


class TestMultiGameState:
    def test_slot_count_enforced(self):
        cfg = GameConfig(4, 1, 3)
        ident = Strategy(4, np.eye(4))
        with pytest.raises(ValueError, match="must have 4 qudits"):
            multi_play(cfg, [ident] * 3, [False, False], make_basis_state(4, (0, 0, 0)))

    def test_dimension_enforced(self):
        cfg = GameConfig(4, 1, 3)
        ident = Strategy(4, np.eye(4))
        with pytest.raises(ValueError, match="dimension"):
            multi_play(cfg, [ident] * 3, [False, False], make_basis_state(3, (0,) * 4))


class TestTwoPartyReduction:
    @pytest.mark.parametrize("d,m", [(3, 1), (4, 2), (5, 3)])
    def test_door_opening_maps_identical(self, d, m):
        cfg = GameConfig(d, m, 2)
        for j in range(1, m + 1):
            multi = multi_door_opening_operator(j, cfg)
            two = door_opening_operator(j, cfg)
            assert multi.slots == two.slots
            assert dict(operator_map(multi)) == dict(operator_map(two))

    @pytest.mark.parametrize("d,m", [(3, 1), (5, 2)])
    def test_switch_maps_identical(self, d, m):
        cfg = GameConfig(d, m, 2)
        multi = player_switch_operator(2, cfg)
        two = door_switching_operator(cfg)
        assert multi.slots == two.slots
        assert dict(operator_map(multi)) == dict(operator_map(two))

    def test_pipeline_reduction_to_play_game(self):
        rng = np.random.default_rng(2)
        d, m = 4, 2
        gamma = 0.6
        cfg = GameConfig(d, m, 2, gamma)
        A, B = random_special_unitary(d, rng), random_special_unitary(d, rng)
        two_party = play_game(cfg, A, B, separable_initial(cfg))
        multi = multi_play(cfg, [A, B], [gamma], _initial(cfg))
        assert np.allclose(two_party.amplitudes, multi.amplitudes)
        assert per_player_payoff(cfg, multi, 2) == pytest.approx(
            expected_payoff(two_party), abs=1e-12
        )


class TestMultiDoorOpening:
    def test_all_labels_distinct_forces_single_door(self):
        cfg = GameConfig(4, 1, 3)
        op = multi_door_opening_operator(1, cfg)
        # party labels (p_3, p_2, p_1) = (2, 1, 0) leave only door 3
        assert operator_map(op)[(0, 2, 1, 0)] == (((3, 2, 1, 0), 1.0 + 0.0j),)

    def test_coinciding_labels_open_uniformly(self):
        cfg = GameConfig(4, 1, 3)
        op = multi_door_opening_operator(1, cfg)
        outs = dict(operator_map(op)[(0, 0, 0, 0)])
        assert set(outs) == {(c, 0, 0, 0) for c in (1, 2, 3)}
        for amp in outs.values():
            assert amp == pytest.approx(1 / math.sqrt(3))

    @pytest.mark.parametrize("d,n", [(4, 3), (5, 3), (5, 4)])
    def test_isometry(self, d, n):
        cfg = GameConfig(d, d - n, n)
        for j in range(1, cfg.m + 1):
            op = multi_door_opening_operator(j, cfg)
            assert is_isometry_on_domain(op, 1e-9)
            assert is_unitary_on_domain(op, 1e-9)


class TestPlayerSwitch:
    def test_blocked_gap_walk(self):
        cfg = GameConfig(4, 2, 2)
        op = player_switch_operator(2, cfg)
        # opened (2, 3), label 1: 1+1=2 and 1+2=3 blocked, 1+3=0 free
        assert operator_map(op)[(2, 3, 1)] == (((2, 3, 0), 1.0 + 0.0j),)

    def test_index_range(self):
        cfg = GameConfig(5, 1, 3)
        with pytest.raises(ValueError):
            player_switch_operator(1, cfg)
        with pytest.raises(ValueError):
            player_switch_operator(4, cfg)

    def test_distinct_players_commute(self):
        rng = np.random.default_rng(9)
        d, m, n = 5, 1, 3
        cfg = GameConfig(d, m, n)
        state = _initial(cfg)
        for k, strat in enumerate(
            [qft(d), random_special_unitary(d, rng), random_special_unitary(d, rng)],
            start=1,
        ):
            from qmonty.game import player_slot
            from qmonty.qudit import apply_strategy

            state = apply_strategy(state, strat, player_slot(k))
        state = apply_local_operator(state, multi_door_opening_operator(1, cfg))
        s2 = player_switch_operator(2, cfg)
        s3 = player_switch_operator(3, cfg)
        order_a = apply_local_operator(apply_local_operator(state, s2), s3)
        order_b = apply_local_operator(apply_local_operator(state, s3), s2)
        assert np.allclose(order_a.amplitudes, order_b.amplitudes)


class TestMultiPlay:
    def test_identity_round_is_inert(self):
        cfg = GameConfig(4, 0, 3)
        ident = Strategy(4, np.eye(4))
        out = multi_play(cfg, [ident] * 3, [False, False], _initial(cfg))
        assert out.amplitudes[flat_index(4, (0, 0, 0))] == pytest.approx(1)

    def test_ghz_correlation_wins_for_everyone(self):
        d, n, m = 4, 3, 1
        cfg = GameConfig(d, m, n)
        ident = Strategy(d, np.eye(d))
        initial = make_basis_state(d, (0,) * m).tensor(ghz_state(d, n))
        out = multi_play(cfg, [ident] * n, [False, False], initial)
        assert per_player_payoff(cfg, out, 2) == pytest.approx(1, abs=1e-12)
        assert per_player_payoff(cfg, out, 3) == pytest.approx(1, abs=1e-12)

    def test_argument_validation(self):
        cfg = GameConfig(4, 1, 3)
        ident = Strategy(4, np.eye(4))
        with pytest.raises(ValueError):
            multi_play(cfg, [ident] * 2, [False, False], _initial(cfg))
        with pytest.raises(ValueError):
            multi_play(cfg, [ident] * 3, [False], _initial(cfg))

    def test_numpy_bool_decision_is_a_classical_flag(self):
        cfg = GameConfig(4, 1, 3)
        strategies = [qft(4), sum_d(4, 0), sum_d(4, 0)]
        for flags in ([True, False], [np.True_, False], [np.True_, np.False_]):
            out = multi_play(cfg, strategies, flags, _initial(cfg))
            assert per_player_payoff(cfg, out, 2) == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("decision", [1, 0, np.int64(1)])
    def test_integer_decision_raises(self, decision):
        cfg = GameConfig(4, 1, 3)
        strategies = [qft(4), sum_d(4, 0), sum_d(4, 0)]
        with pytest.raises(ValueError, match="integer"):
            multi_play(cfg, strategies, [decision, False], _initial(cfg))

    @pytest.mark.parametrize("d,n", [(4, 3), (5, 3)])
    def test_norm_preserved_with_classical_switches(self, d, n):
        rng = np.random.default_rng(d + n)
        m = d - n
        cfg = GameConfig(d, m, n)
        strategies = [random_special_unitary(d, rng) for _ in range(n)]
        out = multi_play(cfg, strategies, [True] * (n - 1), _initial(cfg))
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_non_mixed_step_keeps_the_norm(self, data):
        d = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(2, min(3, d)))
        m = data.draw(st.integers(0, d - n))
        cfg = GameConfig(d, m, n)
        initial = data.draw(st.sampled_from([separable_initial, entangled_initial]))(cfg)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        strategies = [random_special_unitary(d, rng) for _ in range(n)]
        decisions = data.draw(st.lists(
            st.booleans() | st.floats(0, math.pi / 2), min_size=n - 1, max_size=n - 1
        ))
        with pytest.MonkeyPatch.context() as mp:
            steps = record_steps(mp, game)
            multi_play(cfg, strategies, decisions, initial)
        assert len(steps) == n + m + sum(x is not False for x in decisions)
        # Strategies are unitary, door openings isometries on their domain
        # and switches permute theirs: each keeps the squared norm, 1 up to
        # the first mixed step, which is not isometric.
        kept = 1.0
        for op, _, state in steps:
            norm2 = np.vdot(state.amplitudes, state.amplitudes).real
            if isinstance(op, Strategy) or not op.name.startswith("mixed-switch"):
                assert abs(norm2 - kept) <= 1e-12, op
            else:
                kept = norm2

    def test_mixed_switch_operator_per_player(self):
        cfg = GameConfig(4, 1, 3)
        op = player_mixed_switch_operator(3, cfg, math.pi / 4)
        assert is_isometry_on_domain(op, 1e-9)


class TestPerPlayerPayoff:
    def test_basis_states(self):
        cfg = GameConfig(4, 1, 3)
        win = make_basis_state(4, (3, 2, 1, 1))
        assert per_player_payoff(cfg, win, 2) == 1  # p_2 = p_1 = 1
        assert per_player_payoff(cfg, win, 3) == 0  # p_3 = 2 != 1

    def test_player_index_range(self):
        cfg = GameConfig(4, 1, 3)
        state = _initial(cfg)
        with pytest.raises(ValueError):
            per_player_payoff(cfg, state, 1)
        with pytest.raises(ValueError):
            per_player_payoff(cfg, state, 4)

    @pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (5, 3)])
    def test_equal_shift_recovers_classical_mixture_per_player(self, d, n):
        for m in range(0, d - n + 1):
            cfg = GameConfig(d, m, n)
            init = _initial(cfg)
            for i in (0, 1, d - 1):
                for g in (0.0, 0.7, math.pi / 2):
                    strategies = [qft(d)] + [sum_d(d, i)] * (n - 1)
                    out = multi_play(cfg, strategies, [g] * (n - 1), init)
                    expected = (
                        classical_p_ns(d) * math.cos(g) ** 2
                        + classical_p_s(d, m) * math.sin(g) ** 2
                    )
                    for k in range(2, n + 1):
                        assert per_player_payoff(cfg, out, k) == pytest.approx(
                            expected, abs=1e-9
                        )

    def test_no_openings_make_players_independent(self):
        rng = np.random.default_rng(0)
        d, n, m = 4, 3, 0
        cfg = GameConfig(d, m, n)
        init = _initial(cfg)
        values = []
        for _ in range(10):
            bystander = random_special_unitary(d, rng)
            out = multi_play(cfg, [qft(d), sum_d(d, 1), bystander], [True, False], init)
            values.append(per_player_payoff(cfg, out, 2))
        assert max(values) - min(values) < 1e-9

    def test_door_openings_couple_players_through_blocked_gaps(self):
        # With openings present, another player's label can occupy exactly
        # the door a switcher needs the host to open: with the prize at 2,
        # player 2 at 0 and player 3 at 1, the only openable door is 3, so
        # player 2's switch stops at door 1 instead of reaching the prize.
        # The per-player classical mixture therefore survives equal shifts
        # but not arbitrary ones.
        d, n, m = 4, 3, 1
        cfg = GameConfig(d, m, n)
        init = _initial(cfg)
        payoffs = {}
        for i3 in (0, 1):
            strategies = [qft(d), sum_d(d, 0), sum_d(d, i3)]
            out = multi_play(cfg, strategies, [True, False], init)
            payoffs[i3] = per_player_payoff(cfg, out, 2)
        assert payoffs[0] == pytest.approx(3 / 8, abs=1e-12)
        assert payoffs[1] == pytest.approx(1 / 4, abs=1e-12)
