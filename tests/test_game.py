"""Two-party game engine: combinatorial helpers, operators, pipeline."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROOT,
    epsilon,
    is_isometry_on_domain,
    is_unitary_on_domain,
    load_module,
    operator_map,
    random_special_unitary,
    random_strategies,
    reference_door_opening,
    reference_door_switch,
    reference_label_amplitudes,
    reference_payoff_curves,
    reference_tail_steps,
    support_bound,
)

from qmonty import game
from qmonty.game import (
    GameConfig,
    _door_opening,
    _door_switch,
    door_opening_operator,
    door_switching_operator,
    entangled_initial,
    expected_payoff,
    mixed_switch_operator,
    BATCH_AMPLITUDES,
    _tail,
    _tail_table,
    form_curves,
    label_amplitudes,
    label_curves,
    label_forms,
    payoff_curve,
    payoff_curves,
    play_game,
    separable_initial,
)
from qmonty.oracles import payoff_entangled, payoff_separable
from qmonty.qudit import (
    DomainError,
    LocalOperator,
    Strategy,
    StateVector,
    SupportState,
    apply_local_operator,
    apply_strategy,
    flat_index,
    make_basis_state,
    qft,
    sum_d,
    support_basis_state,
)

label_lists = st.lists(st.integers(0, 9), min_size=1, max_size=6)


class TestGameConfig:
    def test_valid(self):
        GameConfig(3, 1, 2, 0.5)
        GameConfig(6, 4, 2)
        GameConfig(5, 2, 3)

    @pytest.mark.parametrize(
        "d,m,n,g",
        [(3, 2, 2, 0.0), (3, -1, 2, 0.0), (3, 0, 1, 0.0), (3, 1, 2, 2.0), (4, 3, 2, 0.0)],
    )
    def test_invalid(self, d, m, n, g):
        with pytest.raises(ValueError):
            GameConfig(d, m, n, g)


class TestCombinatorialHelpers:
    def test_epsilon_examples(self):
        assert epsilon((1, 3, 5)) == 1
        assert epsilon((0, 2, 2)) == 0
        assert epsilon((7,)) == 1

    @given(label_lists)
    def test_epsilon_matches_set_size(self, labels):
        assert epsilon(labels) == (1 if len(set(labels)) == len(labels) else 0)


class TestDoorOpening:
    def test_single_openable_door(self):
        cfg = GameConfig(3, 1, 2)
        op = door_opening_operator(1, cfg)
        assert operator_map(op)[(0, 1, 0)] == (((2, 1, 0), 1.0 + 0.0j),)

    def test_player_on_prize_door(self):
        cfg = GameConfig(3, 1, 2)
        op = door_opening_operator(1, cfg)
        outs = dict(operator_map(op)[(0, 0, 0)])
        assert set(outs) == {(1, 0, 0), (2, 0, 0)}
        for amp in outs.values():
            assert amp == pytest.approx(1 / math.sqrt(2))

    def test_occupied_register_outside_domain(self):
        cfg = GameConfig(3, 1, 2)
        state = make_basis_state(3, (1, 1, 0))  # o_1 already nonzero
        with pytest.raises(DomainError):
            apply_local_operator(state, door_opening_operator(1, cfg))

    def test_index_range(self):
        cfg = GameConfig(4, 2, 2)
        with pytest.raises(ValueError):
            door_opening_operator(0, cfg)
        with pytest.raises(ValueError):
            door_opening_operator(3, cfg)

    def test_oversized_label_grid_refused(self):
        # The last opening of d = 9, m = 7 spans 9**8 local labels.
        cfg = GameConfig(9, 7, 2)
        with pytest.raises(ValueError, match="budget"):
            door_opening_operator(7, cfg)
        with pytest.raises(ValueError, match="budget"):
            door_switching_operator(cfg)

    def test_large_openings_build_and_apply_in_small_memory(self):
        # Protocol A at d = 4, n = 9: O_2 spans 4**11 local inputs but holds
        # 236,196 entries, so building and applying it must not take memory
        # in proportion to its local space; a label grid of its 4**10 input
        # rows alone would take 80 MiB.
        state = support_basis_state(4, (0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1))
        tracemalloc.start()
        try:
            for j in (1, 2):
                state = apply_local_operator(state, _door_opening.__wrapped__(4, 9, j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(state.index // 4**9) == [2 * 4 + 3, 3 * 4 + 2]
        assert np.abs(state.amplitudes) ** 2 == pytest.approx([0.5, 0.5])
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_isometry_on_domain_exhaustive(self, d):
        for m in range(1, min(3, d - 2) + 1):
            cfg = GameConfig(d, m, 2)
            for j in range(1, m + 1):
                op = door_opening_operator(j, cfg)
                assert is_isometry_on_domain(op, 1e-9)
                assert is_unitary_on_domain(op, 1e-9)

    @pytest.mark.parametrize("d,m", [(4, 2), (5, 3)])
    def test_amplitude_matches_counting_formula(self, d, m):
        # On inputs with clean prior registers the amplitude is
        # 1/sqrt(d + 1 - j - U(a, b)).
        cfg = GameConfig(d, m, 2)
        for j in range(1, m + 1):
            op = door_opening_operator(j, cfg)
            for src, outs in operator_map(op).items():
                prior, b, a = src[1:-2], src[-2], src[-1]
                if epsilon((a, b, *prior)) != 1 and not (
                    a == b and epsilon((a, *prior)) == 1
                ):
                    continue
                u = len({a, b})
                expected = 1 / math.sqrt(d + 1 - j - u)
                for _, amp in outs:
                    assert amp == pytest.approx(expected)


class TestDoorSwitching:
    def test_examples(self):
        cfg = GameConfig(3, 1, 2)
        op = door_switching_operator(cfg)
        assert operator_map(op)[(2, 1)] == (((2, 0), 1.0 + 0.0j),)
        assert operator_map(op)[(2, 0)] == (((2, 1), 1.0 + 0.0j),)

    def test_chosen_door_opened_is_domain_error(self):
        cfg = GameConfig(3, 1, 2)
        state = make_basis_state(3, (1, 1, 0))  # b = o_1 = 1
        with pytest.raises(DomainError):
            apply_local_operator(state, door_switching_operator(cfg))

    @pytest.mark.parametrize("d,m", [(3, 1), (4, 2), (5, 2), (6, 4)])
    def test_permutation_per_opened_tuple(self, d, m):
        op = door_switching_operator(GameConfig(d, m, 2))
        fibers = {}
        for (src, outs) in operator_map(op).items():
            opened, b = src[:-1], src[-1]
            ((dst, amp),) = outs
            assert amp == 1
            assert dst[:-1] == opened
            assert dst[-1] != b
            fibers.setdefault(opened, []).append((b, dst[-1]))
        for opened, pairs in fibers.items():
            sources = [b for b, _ in pairs]
            targets = [t for _, t in pairs]
            assert sorted(sources) == sorted(targets)  # permutation of valid labels
        assert is_isometry_on_domain(op)
        assert is_unitary_on_domain(op)


class TestBuildersMatchLoopReference:
    # Same entries in the same order and the same domain as the loops.
    @pytest.mark.parametrize(
        "d,n,j", [(3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 4), (5, 4, 1), (5, 3, 2)]
    )
    def test_door_opening(self, d, n, j):
        op = _door_opening(d, n, j)
        ref = reference_door_opening(d, n, j)
        assert list(operator_map(op).items()) == list(ref.items())
        assert np.flatnonzero(op.domain_mask).tolist() == [flat_index(d, t) for t in ref]

    @pytest.mark.parametrize("tolerate", [False, True])
    @pytest.mark.parametrize("d,m,n", [(3, 1, 2), (4, 2, 2), (5, 3, 2), (6, 2, 3), (4, 0, 2)])
    def test_door_switch(self, d, m, n, tolerate):
        op = _door_switch(d, m, n, 2, tolerate)
        ref = reference_door_switch(d, m, tolerate)
        assert list(operator_map(op).items()) == list(ref.items())
        assert np.flatnonzero(op.domain_mask).tolist() == [flat_index(d, t) for t in ref]


class TestMixedSwitch:
    def test_gamma_zero_is_identity_on_domain(self):
        op = mixed_switch_operator(GameConfig(3, 1, 2, 0.0))
        for src, outs in operator_map(op).items():
            assert outs == ((src, 1.0 + 0.0j),)

    def test_gamma_right_angle_equals_switch(self):
        cfg = GameConfig(3, 1, 2, math.pi / 2)
        assert operator_map(mixed_switch_operator(cfg)) == dict(
            operator_map(door_switching_operator(cfg))
        )

    def test_equal_weight_superposition(self):
        op = mixed_switch_operator(GameConfig(3, 1, 2, math.pi / 4))
        outs = dict(operator_map(op)[(2, 1)])
        assert outs[(2, 1)] == pytest.approx(1 / math.sqrt(2))
        assert outs[(2, 0)] == pytest.approx(1 / math.sqrt(2))

    def test_isometric_per_input_but_not_unitary(self):
        # The identity and switch branches are orthogonal for each input,
        # yet distinct inputs can produce non-orthogonal outputs; the mixed
        # step is the one genuinely non-unitary stage of the pipeline.
        op = mixed_switch_operator(GameConfig(3, 1, 2, math.pi / 4))
        assert is_isometry_on_domain(op, 1e-9)
        assert not is_unitary_on_domain(op, 1e-9)

    def test_operator_of_a_past_angle_is_freed(self):
        # A cache keyed by the float angle would keep one operator per angle.
        ref = weakref.ref(mixed_switch_operator(GameConfig(6, 4, 2, 0.123456789)))
        gc.collect()
        assert ref() is None


class TestPlayGame:
    def test_nothing_happens(self):
        cfg = GameConfig(3, 0, 2, 0.0)
        ident = Strategy(3, np.eye(3))
        out = play_game(cfg, ident, ident, make_basis_state(3, (0, 0)))
        assert out.amplitude((0, 0)) == pytest.approx(1)

    def test_hand_evaluated_round(self):
        cfg = GameConfig(3, 1, 2, 0.0)
        out = play_game(
            cfg, sum_d(3, 1), Strategy(3, np.eye(3)), make_basis_state(3, (0, 0, 0))
        )
        assert out.amplitude((2, 0, 1)) == pytest.approx(1)

    def test_classical_switch_payoff(self):
        cfg = GameConfig(3, 1, 2, math.pi / 2)
        final = play_game(cfg, qft(3), sum_d(3, 0), separable_initial(cfg))
        assert expected_payoff(final) == pytest.approx(2 / 3, abs=1e-12)

    def test_norm_preserved_at_gamma_endpoints(self):
        rng = np.random.default_rng(1)
        for gamma in (0.0, math.pi / 2):
            cfg = GameConfig(4, 2, 2, gamma)
            A, B = random_special_unitary(4, rng), random_special_unitary(4, rng)
            final = play_game(cfg, A, B, separable_initial(cfg))
            assert abs(final.norm - 1) < 1e-9

    def test_mixed_step_changes_norm_for_interfering_player(self):
        # cos*I + sin*S is not unitary: with the uniform player the branch
        # overlap inflates the norm, which is why payoffs are defined on the
        # raw final state.
        cfg = GameConfig(3, 1, 2, math.pi / 4)
        final = play_game(cfg, Strategy(3, np.eye(3)), qft(3), separable_initial(cfg))
        assert final.norm**2 == pytest.approx(1 + 2 * math.sqrt(2) / 3, abs=1e-9)

    def test_initial_state_checks(self):
        cfg = GameConfig(3, 1, 2)
        ident = Strategy(3, np.eye(3))
        with pytest.raises(ValueError):
            play_game(cfg, ident, ident, make_basis_state(3, (0, 0)))
        with pytest.raises(ValueError):
            play_game(cfg, ident, ident, make_basis_state(3, (1, 0, 0)))

    def test_traced_operator_builds_are_children(self):
        # The pipeline reaches its builders through module globals, so the
        # benchmark's tracer (bench/tracing.py) sees them inside play_game.
        from qmonty import game

        tracing = load_module(ROOT / "bench" / "tracing.py", "qmonty_bench_tracing")
        tracer = tracing.Tracer()
        tracer.instrument()
        try:
            cfg = GameConfig(4, 2, 2, math.pi / 4)
            game.play_game(cfg, qft(4), qft(4), separable_initial(cfg))
        finally:
            tracer.uninstrument()
        names = [span[tracing.NAME] for span in tracer.spans]
        root = names.index("game.play_game")
        children = [
            span[tracing.NAME] for span in tracer.spans if span[tracing.PARENT] == root
        ]
        # Two door openings and the mixed switch.
        assert children.count("game.operator_build") == 3
        assert "qudit.apply_local_operator.mixed" in children

    def test_multiparty_config_rejected(self):
        cfg = GameConfig(5, 1, 3)
        ident = Strategy(5, np.eye(5))
        with pytest.raises(ValueError):
            play_game(cfg, ident, ident, make_basis_state(5, (0,) * 4))


class TestExpectedPayoff:
    def test_basis_outcomes(self):
        assert expected_payoff(make_basis_state(3, (2, 1, 1))) == 1
        assert expected_payoff(make_basis_state(3, (2, 1, 0))) == 0


class TestPipelineAgainstOracles:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_separable_and_entangled_match_closed_form(self, d):
        rng = np.random.default_rng(d)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng))
            for _ in range(5)
        ]
        for m in range(0, d - 1):
            for g in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
                cfg = GameConfig(d, m, 2, g)
                sep0, ent0 = separable_initial(cfg), entangled_initial(cfg)
                for A, B in pairs:
                    sim = expected_payoff(play_game(cfg, A, B, sep0))
                    assert abs(sim - payoff_separable(A, B, cfg)) < 1e-9
                    sim = expected_payoff(play_game(cfg, A, B, ent0))
                    assert abs(sim - payoff_entangled(A, B, cfg)) < 1e-9

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_displacement_matches_simulation_for_all_shifts(self, d):
        from qmonty.oracles import payoff_displacement

        for m in range(0, d - 1):
            for g in (0.0, math.pi / 3, math.pi / 2):
                cfg = GameConfig(d, m, 2, g)
                ent0 = entangled_initial(cfg)
                for i in range(d):
                    for k in range(d):
                        sim = expected_payoff(
                            play_game(cfg, sum_d(d, i), sum_d(d, (i + k) % d), ent0)
                        )
                        assert abs(sim - payoff_displacement(k, cfg)) < 1e-9

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(17)
        cfg = GameConfig(4, 1, 2, 0.7)
        A, B = random_special_unitary(4, rng), random_special_unitary(4, rng)
        base = expected_payoff(play_game(cfg, A, B, separable_initial(cfg)))
        for _ in range(10):
            phase_a = np.exp(1j * rng.uniform(0, 2 * math.pi))
            phase_b = np.exp(1j * rng.uniform(0, 2 * math.pi))
            with pytest.warns():
                A2 = Strategy(4, phase_a * A.entries)
                B2 = Strategy(4, phase_b * B.entries)
            shifted = expected_payoff(play_game(cfg, A2, B2, separable_initial(cfg)))
            assert abs(shifted - base) < 1e-12

    def test_gamma_endpoints_reproduce_pure_strategies(self):
        rng = np.random.default_rng(3)
        d, m = 4, 2
        A, B = random_special_unitary(d, rng), random_special_unitary(d, rng)
        keep_cfg = GameConfig(d, m, 2, 0.0)
        switch_cfg = GameConfig(d, m, 2, math.pi / 2)
        initial = separable_initial(keep_cfg)

        kept = play_game(keep_cfg, A, B, initial)
        state = initial
        from qmonty.game import player_slot
        from qmonty.qudit import apply_strategy
        state = apply_strategy(state, A, player_slot(1))
        state = apply_strategy(state, B, player_slot(2))
        for j in (1, 2):
            state = apply_local_operator(state, door_opening_operator(j, keep_cfg))
        assert np.allclose(kept.amplitudes, state.amplitudes)

        switched = play_game(switch_cfg, A, B, initial)
        state = apply_local_operator(state, door_switching_operator(switch_cfg))
        assert np.allclose(switched.amplitudes, state.amplitudes)


class TestPayoffCurve:
    def test_matches_per_gamma_pipeline(self):
        rng = np.random.default_rng(11)
        d, m = 4, 2
        A, B = random_special_unitary(d, rng), random_special_unitary(d, rng)
        gammas = np.linspace(0, math.pi / 2, 7)
        cfg0 = GameConfig(d, m, 2)
        curve = payoff_curve(cfg0, A, B, gammas)
        for g, value in zip(gammas, curve):
            cfg = GameConfig(d, m, 2, g)
            direct = expected_payoff(play_game(cfg, A, B, separable_initial(cfg)))
            assert value == pytest.approx(direct, abs=1e-12)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_one_point_curve_matches_oracles(self, data):
        d = data.draw(st.integers(3, 6))
        m = data.draw(st.integers(0, d - 2))
        g = data.draw(st.floats(0.0, math.pi / 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A, B = random_special_unitary(d, rng), random_special_unitary(d, rng)
        cfg = GameConfig(d, m, 2, g)
        (sep,) = payoff_curve(cfg, A, B, [g])
        (ent,) = payoff_curve(cfg, A, B, [g], entangled_initial(cfg))
        assert sep == pytest.approx(payoff_separable(A, B, cfg), abs=1e-9)
        assert ent == pytest.approx(payoff_entangled(A, B, cfg), abs=1e-9)


class TestPayoffCurves:
    """All pairs of a cell as the rows of batched support states."""

    GAMMAS = (0.0, math.pi / 6, math.pi / 4, 0.9, math.pi / 2)

    @pytest.mark.parametrize("d, m, count", [(3, 1, 7), (5, 2, 9), (6, 4, 50)])
    def test_rows_equal_one_pair_curves(self, d, m, count, monkeypatch):
        rng = np.random.default_rng(d * 10 + m)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng))
            for _ in range(count)
        ]
        cfg = GameConfig(d, m, 2)
        if (d, m) == (6, 4):
            # 20 rows of d^2 label amplitudes per batch: the pairs span 3.
            monkeypatch.setattr(game, "BATCH_AMPLITUDES", 20 * d * d)
        rows, core = [], game._label_rows

        def recording(psi, a, b):
            rows.append(len(a))
            return core(psi, a, b)

        monkeypatch.setattr(game, "_label_rows", recording)
        for initial in (separable_initial(cfg), entangled_initial(cfg)):
            rows.clear()
            curves = payoff_curves(cfg, pairs, self.GAMMAS, initial)
            # A stack above the batch bound calls the core once per batch.
            assert rows == ([50, 20, 20, 10] if (d, m) == (6, 4) else [count])
            assert curves.shape == (count, len(self.GAMMAS))
            for row, (A, B) in zip(curves, pairs):
                assert np.array_equal(row, payoff_curve(cfg, A, B, self.GAMMAS, initial))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_dense_pipeline(self, d):
        rng = np.random.default_rng(100 + d)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng)),
            (random_special_unitary(d, rng), sum_d(d, 1)),
            (sum_d(d, 2 % d), random_special_unitary(d, rng)),
            (sum_d(d, 1), sum_d(d, d - 1)),
            (qft(d), qft(d)),
            (qft(d), random_special_unitary(d, rng)),
        ]
        for m in range(d - 1):
            cfg = GameConfig(d, m, 2)
            for initial in (separable_initial(cfg), entangled_initial(cfg)):
                curves = payoff_curves(cfg, pairs, self.GAMMAS, initial)
                for row, (A, B) in zip(curves, pairs):
                    dense = [
                        expected_payoff(play_game(GameConfig(d, m, 2, g), A, B, initial))
                        for g in self.GAMMAS
                    ]
                    assert np.abs(row - dense).max() <= 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_support_bound_is_reached(self, d):
        # The batch size rests on this count: a random pair's pre-switch
        # state fills it exactly, and the switch keeps it.
        rng = np.random.default_rng(d)
        A, B = random_special_unitary(d, rng), random_special_unitary(d, rng)
        for m in range(d - 1):
            cfg = GameConfig(d, m, 2)
            for initial in (separable_initial(cfg), entangled_initial(cfg)):
                index = np.flatnonzero(initial.amplitudes)
                state = SupportState(d, m + 2, index, initial.amplitudes[index])
                state = apply_strategy(apply_strategy(state, A, 0), B, 1)
                for j in range(1, m + 1):
                    state = apply_local_operator(state, door_opening_operator(j, cfg))
                switched = apply_local_operator(state, door_switching_operator(cfg))
                assert len(state.index) == len(switched.index) == support_bound(cfg)

    def test_no_pairs_and_bad_initial(self):
        cfg = GameConfig(4, 1, 2)
        assert payoff_curves(cfg, [], self.GAMMAS).shape == (0, len(self.GAMMAS))
        with pytest.raises(ValueError, match="opened registers at 0"):
            payoff_curves(cfg, [(qft(4), qft(4))], self.GAMMAS, make_basis_state(4, (1, 0, 0)))


class TestTailTable:
    """``payoff_curves`` reads the door openings and the switch as three
    sparse forms per (d, m) instead of evolving them per batch."""

    GAMMAS = (0.0, math.pi / 6, math.pi / 4, 0.9, math.pi / 2)

    @pytest.mark.parametrize(
        "d, m", [(d, m) for d in range(3, 7) for m in range(d - 1)] + [(7, 5)]
    )
    def test_equals_step_by_step_reference(self, d, m):
        cfg = GameConfig(d, m, 2)
        size = max(1, BATCH_AMPLITUDES // support_bound(cfg))
        drawn = random_strategies(d, 2 * (2 * size + 1), np.random.default_rng(d * m))
        # Pairs whose supports total about three times BATCH_AMPLITUDES.
        random_pairs = list(zip(drawn[::2], drawn[1::2]))
        # verify's displacement pairs, and permutations mixed with random
        # strategies: their zero amplitudes leave the support.
        shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
        mixed = [(sum_d(d, 1), drawn[0]), (drawn[1], sum_d(d, 2 % d)), (qft(d), sum_d(d, 0))]
        for initial in (separable_initial(cfg), entangled_initial(cfg)):
            for pairs in (random_pairs, shifts, mixed):
                # The forms sum each payoff in another order than the
                # reference's per-angle squares.
                np.testing.assert_allclose(
                    payoff_curves(cfg, pairs, self.GAMMAS, initial),
                    reference_payoff_curves(cfg, pairs, self.GAMMAS, initial),
                    rtol=0, atol=1e-14,
                )

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_form_sizes(self, d):
        # One kept source (a, a) per prize door, and one switched source
        # (a - k, a) per offset k = 1..m + 1: the cross terms pair them.
        for m in range(d - 1):
            tail = _tail(d, m, 2)
            assert tail.inputs == d * d
            assert len(tail.kept[0]) == d
            assert len(tail.moved[0]) == len(tail.cross[0]) == (m + 1) * d

    def test_many_angles_equal_the_per_angle_reference(self):
        # sweep's largest grid at its largest simulated game: the angles
        # cost one broadcast, and every one still matches the reference.
        cfg = GameConfig(7, 5, 2)
        gammas = np.linspace(0, math.pi / 2, 100_000)
        pairs = [(qft(7), qft(7))]
        np.testing.assert_allclose(
            payoff_curves(cfg, pairs, gammas, entangled_initial(cfg)),
            reference_payoff_curves(cfg, pairs, gammas, entangled_initial(cfg)),
            rtol=0, atol=1e-14,
        )
        # The unit triples read the angle factors c^2, s^2 and s c exactly:
        # each is math.cos's and math.sin's own.
        c, s = [math.cos(g) for g in gammas], [math.sin(g) for g in gammas]
        for triple, want in (
            ((1.0, 0.0, 0.0), np.multiply(c, c)),
            ((0.0, 1.0, 0.0), np.multiply(s, s)),
            ((0.0, 0.0, 0.5), np.multiply(s, c)),
        ):
            assert form_curves(*triple, gammas).tobytes() == want.tobytes()

    def test_table_of_the_game(self):
        # d = 4, m = 1: one winning output |o, a, a> per o != a.  Its kept
        # source is (b, a) = (a, a), with 3 free doors to open; the switch
        # moves b to the next door above it that is not opened, so its
        # switched source is the door below a, or the one below that when o
        # holds it, with 2 free doors.  Label index: b * d + a.
        cfg = GameConfig(4, 1, 2)
        table = _tail_table(
            4, 2, [door_opening_operator(1, cfg)], door_switching_operator(cfg)
        )
        f, g = 1 / np.sqrt(3), 1 / np.sqrt(2)
        # The kept source (a, a) of each a, reached through its 3 openings.
        assert table.inputs == 16
        assert table.kept[0].tolist() == [a * 5 for a in range(4)]
        assert np.array_equal(table.kept[1], np.full(4, f**2 + f**2 + f**2))
        # (kept source, switched source, outputs): (a - 2, a) when o = a - 1,
        # (a - 1, a) for the other two o.
        terms = sorted(
            (a * 5, b * 4 + a, count)
            for a in range(4) for b, count in (((a - 2) % 4, 1), ((a - 1) % 4, 2))
        )
        moved = sorted((j, count) for _, j, count in terms)
        assert table.moved[0].tolist() == [j for j, _ in moved]
        assert np.array_equal(table.moved[1], [g**2 * count for _, count in moved])
        xi, xj, xv = table.cross
        assert list(zip(xi.tolist(), xj.tolist())) == [(i, j) for i, j, _ in terms]
        assert np.array_equal(xv, [complex(f * g * count) for _, _, count in terms])

    def _switch(self, src, dst):
        # A hand-made switch of b alone (m = 0), defined on every input.
        return LocalOperator(3, (1,), src, dst, np.ones(len(src)), np.ones(3, dtype=bool))

    def test_two_sources_on_one_winning_output_refused(self):
        # b = 0 and b = 1 both land on b = 1: the payoff would need the sum
        # of their amplitudes, which a gather cannot form.
        with pytest.raises(ValueError, match="switched state has 2 sources"):
            _tail_table(3, 2, [], self._switch([0, 1, 2], [1, 1, 0]))

    def test_winning_output_without_source_refused(self):
        with pytest.raises(ValueError, match="switched state has 0 sources"):
            _tail_table(3, 2, [], self._switch([0, 1], [1, 2]))

    def test_opening_that_merges_inputs_refused(self):
        cfg = GameConfig(3, 1, 2)
        base = door_opening_operator(1, cfg)
        # Send every entry to the first entry's output.
        merged = LocalOperator(
            3, base.slots, base.src, np.full(len(base.dst), base.dst[0]), base.amp,
            base.domain_mask,
        )
        with pytest.raises(ValueError, match="kept state has"):
            _tail_table(3, 2, [merged], door_switching_operator(cfg))


class TestLabelSplit:
    """``payoff_curves`` is ``label_curves`` of ``label_amplitudes``, and
    the labels of the m = 0 states serve every m, as verify uses them."""

    GAMMAS = (0.0, math.pi / 6, math.pi / 4, 0.9, math.pi / 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_labels_of_m0_equal_the_pipeline_at_every_m(self, d):
        drawn = random_strategies(d, 100, np.random.default_rng(d))
        pairs = list(zip(drawn[::2], drawn[1::2]))
        shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
        heads = GameConfig(d, 0, 2)
        families = [
            (pairs, separable_initial), (pairs, entangled_initial), (shifts, entangled_initial)
        ]
        labels = [label_amplitudes(heads, cases, initial(heads)) for cases, initial in families]
        for m in [5] if d == 7 else range(d - 1):
            cfg = GameConfig(d, m, 2)
            for rows, (cases, initial) in zip(labels, families):
                curves = label_curves(cfg, rows, self.GAMMAS)
                assert np.array_equal(curves, payoff_curves(cfg, cases, self.GAMMAS, initial(cfg)))
                np.testing.assert_allclose(
                    curves, reference_payoff_curves(cfg, cases, self.GAMMAS, initial(cfg)),
                    rtol=0, atol=1e-14,
                )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_forms_at_every_m_equal_the_reference(self, d):
        drawn = random_strategies(d, 20, np.random.default_rng(40 + d))
        pairs = list(zip(drawn[::2], drawn[1::2])) + [(qft(d), qft(d))]
        shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
        heads = GameConfig(d, 0, 2)
        for cases, initial in (
            (pairs, separable_initial), (pairs, entangled_initial), (shifts, entangled_initial)
        ):
            forms = label_forms(d, label_amplitudes(heads, cases, initial(heads)))
            assert [f.shape for f in forms] == [(len(cases), d - 1)] * 3
            curves = form_curves(*forms, self.GAMMAS)
            for m in range(d - 1):
                cfg = GameConfig(d, m, 2)
                np.testing.assert_allclose(
                    curves[:, m], reference_payoff_curves(cfg, cases, self.GAMMAS, initial(cfg)),
                    rtol=0, atol=1e-14,
                )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_form_rows_equal_one_row_calls(self, d):
        drawn = random_strategies(d, 60, np.random.default_rng(d))
        labels = label_amplitudes(
            GameConfig(d, 0, 2), list(zip(drawn[::2], drawn[1::2])),
            entangled_initial(GameConfig(d, 0, 2)),
        )
        for ms in (None, [d - 2], [0, d - 2]):
            forms = label_forms(d, labels, ms)
            for r in range(len(labels)):
                for whole, alone in zip(forms, label_forms(d, labels[r : r + 1], ms)):
                    assert np.array_equal(whole[r], alone[0])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [1, 50, 500])
    def test_one_ghz_evolution_serves_pairs_and_shifts(self, d, count):
        # verify evolves the entangled pairs and the displacement shifts in
        # one call; at d = 6, 500 pairs and 6 shifts span two batches.
        drawn = random_strategies(d, 2 * count, np.random.default_rng(count + d))
        pairs = list(zip(drawn[::2], drawn[1::2]))
        shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
        heads = GameConfig(d, 0, 2)
        ghz = entangled_initial(heads)
        both = label_amplitudes(heads, pairs + shifts, ghz)
        assert np.array_equal(both[:count], label_amplitudes(heads, pairs, ghz))
        assert np.array_equal(both[count:], label_amplitudes(heads, shifts, ghz))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("count", [1, 50, 500])
    def test_rows_equal_the_support_pipeline_bit_for_bit(self, d, count):
        # At d = 6, 500 pairs span two batches of 455 rows.
        drawn = random_strategies(d, 2 * count, np.random.default_rng(10 * count + d))
        pairs = list(zip(drawn[::2], drawn[1::2]))
        shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
        mixed = pairs[: count // 2] + shifts + [(qft(d), pairs[0][1])] + pairs[count // 2 :]
        heads = GameConfig(d, 0, 2)
        for cases, initial in (
            (pairs, separable_initial), (pairs, entangled_initial),
            (mixed, separable_initial), (mixed, entangled_initial),
        ):
            rows = label_amplitudes(heads, cases, initial(heads))
            reference = reference_label_amplitudes(heads, cases, initial(heads))
            assert rows.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d, m", [(3, 1), (4, 2), (5, 1), (6, 3), (7, 2)])
    def test_random_label_block_with_opened_registers_at_0(self, d, m):
        # Every label amplitude non-zero: the sums run over all d terms.
        rng = np.random.default_rng(d * 10 + m)
        block = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        amps = np.zeros(d ** (m + 2), dtype=complex)
        amps[: d * d] = block / np.linalg.norm(block)
        cfg = GameConfig(d, m, 2)
        initial = StateVector(d, m + 2, amps)
        drawn = random_strategies(d, 40, rng)
        pairs = list(zip(drawn[::2], drawn[1::2])) + [(sum_d(d, 1), qft(d))]
        np.testing.assert_allclose(
            label_amplitudes(cfg, pairs, initial),
            reference_label_amplitudes(cfg, pairs, initial),
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_rows_do_not_depend_on_the_stacks_layout(self, d):
        # Column-major stacks and label block: each product is still laid
        # out with the summed axis last and contiguous, so no row's rounding
        # changes.
        rng = np.random.default_rng(d)
        psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats = np.array([s.entries for s in random_strategies(d, 20, rng)])
        rows = game._label_rows(psi, mats[::2], mats[1::2])
        fortran = [np.asfortranarray(x) for x in (psi, mats[::2], mats[1::2])]
        assert game._label_rows(*fortran).tobytes() == rows.tobytes()

    def test_refusals(self):
        cfg = GameConfig(4, 1, 2)
        with pytest.raises(ValueError, match="strategy dimension does not match"):
            label_amplitudes(cfg, [(qft(4), qft(3))])
        with pytest.raises(TypeError, match="Strategy objects"):
            label_amplitudes(cfg, [(qft(4), qft(4).entries)])
        with pytest.raises(ValueError, match="two-party game only"):
            label_amplitudes(GameConfig(5, 1, 3), [(qft(5), qft(5))])
        for shape in [(2, 15), (2, 64), (16,)]:
            with pytest.raises(ValueError, match=r"labels must have shape \(rows, 16\)"):
                label_curves(cfg, np.zeros(shape, dtype=complex), self.GAMMAS)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_step_keeps_each_row_norm(self, data):
        d = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(0, d - 2))
        initial = data.draw(st.sampled_from([separable_initial, entangled_initial]))
        count = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        drawn = random_strategies(d, 2 * count, rng)
        heads = GameConfig(d, 0, 2)
        labels = label_amplitudes(heads, list(zip(drawn[::2], drawn[1::2])), initial(heads))
        assert np.abs((np.abs(labels) ** 2).sum(axis=1) - 1).max() <= 1e-12
        # The door openings are isometries and the switch permutes its
        # domain, so the reference's every step keeps each row's norm.
        for row in labels:
            index = np.flatnonzero(row)
            state = SupportState(d, m + 2, index, row[index])
            for step in reference_tail_steps(GameConfig(d, m, 2), state):
                assert abs((np.abs(step.amplitudes) ** 2).sum() - 1) <= 1e-12
