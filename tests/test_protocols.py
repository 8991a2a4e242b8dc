"""Key-distribution protocol rounds, batches, transcripts, diagnostics."""

import json
import os
import subprocess
import sys
from bisect import bisect_right
from dataclasses import FrozenInstanceError, fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROOT,
    by_key,
    enumerate_measurement_branches,
    is_isometry_on_domain,
    is_unitary_on_domain,
    key_code,
    load_script,
    measurement_branches,
    operator_map,
    record_diagnostics,
    record_evolutions,
    record_steps,
    reference_evolve_round,
    reference_first_outputs,
    reference_key_steps,
    reference_rewrite_opened,
    reference_simulate_round,
)

from qmonty import protocols, seeding
from qmonty.protocols import (
    BatchReport,
    ProtocolConfig,
    ProtocolTranscript,
    _measured_slots,
    _protocol_switch,
    aligned_omega_operator,
    evolve_round_a,
    evolve_round_b,
    host_victory_operator,
    iter_rounds,
    omega_operator,
    run_batch,
    run_protocol_a,
    run_protocol_b,
    serialize_transcripts,
    simulate_round_a,
    simulate_round_b,
    summarize,
    transcript_lines,
    victory_encoding_operator,
    write_transcripts,
)
from qmonty.game import BATCH_AMPLITUDES, opened_slot, player_slot
from qmonty.qudit import (
    DomainError,
    LocalOperator,
    Measurement,
    StateVector,
    SupportState,
    apply_local_operator,
    apply_strategy,
    flat_index,
    make_basis_state,
    measurement_distribution,
    sum_d,
    support_basis_state,
    support_ghz_state,
)


def config_a(d=4, n=2, approvals=None, seed=0, rounds=1):
    m = d - 2
    return ProtocolConfig(
        d=d, n=n, m=m,
        approvals=tuple(approvals) if approvals is not None else (True,) * m,
        seed=seed, rounds=rounds,
    )


def config_b(d=3, approvals=None, seed=0, rounds=1):
    m, n = d - 2, d - 1
    return ProtocolConfig(
        d=d, n=n, m=m,
        approvals=tuple(approvals) if approvals is not None else (True,) * m,
        seed=seed, rounds=rounds,
    )


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(d=4, n=1, m=2, approvals=(True, True), seed=0)
        with pytest.raises(ValueError):
            ProtocolConfig(d=4, n=2, m=2, approvals=(True,), seed=0)
        with pytest.raises(ValueError):
            ProtocolConfig(d=4, n=2, m=2, approvals=(True, True), seed=0, rounds=0)

    def test_round_indices_fit_one_spawn_key_word(self):
        # Round 2**32 - 1 is the last whose index is one 32-bit word.
        config_a(rounds=2**32)
        with pytest.raises(ValueError, match="at most 4294967296 rounds"):
            config_a(rounds=2**32 + 1)

    def test_protocol_conditions(self):
        ProtocolConfig(d=4, n=2, m=2, approvals=(True, True), seed=0).validate_for("a")
        with pytest.raises(ValueError):
            ProtocolConfig(d=5, n=2, m=2, approvals=(True, True), seed=0).validate_for("a")
        config_b(3).validate_for("b")
        with pytest.raises(ValueError):
            ProtocolConfig(d=4, n=2, m=2, approvals=(True, True), seed=0).validate_for("b")
        with pytest.raises(ValueError):
            config_a().validate_for("x")

    def test_protocol_a_needs_a_validator(self):
        # With m = 0 there is no opened register to diagnose.
        config = ProtocolConfig(d=2, n=2, m=0, approvals=(), seed=0)
        with pytest.raises(ValueError, match=r"protocol A needs at least one validator \(d >= 3\)"):
            config.validate_for("a")
        with pytest.raises(ValueError, match="at least one validator"):
            next(iter_rounds(config, "a"))
        with pytest.raises(ValueError, match="at least one validator"):
            run_protocol_a(config, np.random.default_rng(0))


class TestOmegaOperator:
    def test_assignments(self):
        op = omega_operator(2, 4)
        assert operator_map(op)[(0, 1)] == (((3, 1), 1.0 + 0.0j),)
        op3 = omega_operator(3, 4)
        assert operator_map(op3)[(0, 0)] == (((3, 0), 1.0 + 0.0j),)

    def test_occupied_register_is_domain_error(self):
        # protocol B layout at d = 4: five qudits (o_2, o_1, p_3, p_2, p_1)
        state = make_basis_state(4, (0, 1, 0, 1, 0))
        with pytest.raises(DomainError):
            apply_local_operator(state, omega_operator(2, 4))

    def test_index_range(self):
        with pytest.raises(ValueError):
            omega_operator(1, 4)
        with pytest.raises(ValueError):
            omega_operator(4, 4)

    def test_isometry(self):
        for d in (3, 4, 5):
            for j in range(2, d):
                assert is_isometry_on_domain(omega_operator(j, d))
                assert is_unitary_on_domain(omega_operator(j, d))

    def test_aligned_with_zero_shift_is_plain(self):
        for d, j in ((3, 2), (4, 3), (5, 2)):
            assert dict(operator_map(aligned_omega_operator(j, d, 0))) == dict(
                operator_map(omega_operator(j, d))
            )

    def test_aligned_is_shift_conjugation(self):
        # aligned(shift) acts as: undo the player's shift, fill, redo it.
        d, j, shift = 4, 2, 1
        from qmonty.game import player_slot

        for p in range(d):
            state = make_basis_state(d, (0, 0, 0, p, 0))
            direct = apply_local_operator(state, aligned_omega_operator(j, d, shift))
            undone = apply_strategy(state, sum_d(d, d - shift), player_slot(j))
            filled = apply_local_operator(undone, omega_operator(j, d))
            redone = apply_strategy(filled, sum_d(d, shift), player_slot(j))
            assert np.allclose(direct.amplitudes, redone.amplitudes)


class TestBuildersMatchLoopReference:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_gap_fillers_and_encoders(self, d):
        for j in range(2, d):
            for shift in range(d):
                ref = reference_rewrite_opened(
                    d, 2, lambda t: (t[1] - shift + j) % d if t[0] == 0 else None
                )
                assert operator_map(aligned_omega_operator(j, d, shift)) == ref

            def victory(t):
                o, p, k = t
                if o != (p + j) % d or (k - p) % d not in (0, 1, d - 1):
                    return None
                return 0 if p == k else 1

            assert operator_map(victory_encoding_operator(j, d)) == (
                reference_rewrite_opened(d, 3, victory)
            )
            for bit in (0, 1):
                ref = reference_rewrite_opened(
                    d, 3,
                    lambda t: (t[0] - (t[2] - bit) % d - j + (t[1] != t[2])) % d,
                )
                assert operator_map(host_victory_operator(j, d, bit)) == ref
                assert host_victory_operator(j, d, bit).domain_mask.all()


class TestProtocolSwitch:
    def test_colliding_inputs_accumulate(self):
        # With a stale zero register the host's switch is not injective:
        # (o_2, o_1, p_2) = (0, 2, 3) and (0, 2, 0) both move p_2 to door 1.
        config = config_a(approvals=(True, False))
        op = _protocol_switch(config, 2)
        amps = np.zeros(4**4, dtype=complex)
        amps[flat_index(4, (0, 2, 3, 1))] = 0.6
        amps[flat_index(4, (0, 2, 0, 1))] = 0.8j
        out = apply_local_operator(StateVector(4, 4, amps), op)
        assert out.amplitudes[flat_index(4, (0, 2, 1, 1))] == pytest.approx(0.6 + 0.8j, abs=1e-12)
        assert np.count_nonzero(out.amplitudes) == 1
        assert is_isometry_on_domain(op)
        assert not is_unitary_on_domain(op)

    def test_colliding_inputs_accumulate_on_support(self):
        op = _protocol_switch(config_a(approvals=(True, False)), 2)
        index = [flat_index(4, (0, 2, 0, 1)), flat_index(4, (0, 2, 3, 1))]
        out = apply_local_operator(SupportState(4, 4, index, [0.8j, 0.6]), op)
        assert out.index.tolist() == [flat_index(4, (0, 2, 1, 1))]
        assert out.amplitudes[0] == pytest.approx(0.6 + 0.8j, abs=1e-12)


class TestVictoryEncoding:
    def test_win_rows(self):
        op = victory_encoding_operator(2, 4)
        for i in range(4):
            assert operator_map(op)[((i + 2) % 4, i, i)] == (((0, i, i), 1.0 + 0.0j),)

    def test_loss_row(self):
        op = victory_encoding_operator(2, 4)
        assert operator_map(op)[(3, 1, 2)] == (((1, 1, 2), 1.0 + 0.0j),)

    def test_two_apart_is_domain_error(self):
        state = make_basis_state(4, (0, 2, 0, 0, 2))  # o_1 = p_2 + 2, p_1 = p_2 + 2
        with pytest.raises(DomainError):
            apply_local_operator(state, victory_encoding_operator(2, 4))

    def test_isometry(self):
        for d in (3, 4, 5):
            for j in range(2, d):
                assert is_isometry_on_domain(victory_encoding_operator(j, d))
                assert is_unitary_on_domain(victory_encoding_operator(j, d))


class TestHostVictory:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_total_permutation(self, d):
        for bit in (0, 1):
            op = host_victory_operator(2, d, bit)
            assert all(op.domain_mask)
            assert is_isometry_on_domain(op)
            assert is_unitary_on_domain(op)

    def test_agrees_with_plain_encoder_on_unshifted_rounds(self):
        # Host bit 0 and an unswitched, unshifted player: the opened
        # register holds p_j + j exactly, where both encoders are defined.
        d, j = 4, 2
        plain = victory_encoding_operator(j, d)
        host = host_victory_operator(j, d, 0)
        for i in range(d):
            for k in range(d):
                if (k - i) % d not in (0, 1, d - 1) or k != i:
                    continue
                state = make_basis_state(d, (0, (i + j) % d, 0, i, k))
                a = apply_local_operator(state, plain)
                b = apply_local_operator(state, host)
                assert np.allclose(a.amplitudes, b.amplitudes)


class TestRoundsAndKeys:
    def test_forced_round_a_win_and_negation(self):
        cfg = config_a(d=4)
        rng = np.random.default_rng(0)
        t = simulate_round_a(cfg, bits=(0, 1), switches=(True,), measure_rng=rng)
        assert t.outcomes == (0, 0)  # switch bridges the filled gap
        assert t.wins == (True,)
        assert t.final_keys == (0, 0)
        assert t.agreement and not t.all_same

    def test_forced_round_b_loss_and_negation(self):
        cfg = config_b(d=3)
        rng = np.random.default_rng(0)
        t = simulate_round_b(cfg, bits=(1, 0), switches=(False,), measure_rng=rng)
        assert t.outcomes == (1,)  # loss encoded in the opened register
        assert t.wins == (False,)
        assert t.final_keys == (1, 1)
        assert t.agreement

    def test_protocol_condition_checked(self):
        bad = ProtocolConfig(d=5, n=2, m=2, approvals=(True, True), seed=0)
        with pytest.raises(ValueError):
            run_protocol_a(bad, np.random.default_rng(0))

    @pytest.mark.parametrize("protocol,cfg", [
        ("a", config_a(d=4)),
        ("a", config_a(d=3)),
        ("b", config_b(d=3)),
        ("b", config_b(d=4)),
    ])
    def test_eight_outcome_table(self, protocol, cfg):
        seen = set()
        for b1 in (0, 1):
            for bk in (0, 1):
                for sw in (False, True):
                    branches = enumerate_measurement_branches(
                        protocol, cfg, (b1,) + (bk,) * (cfg.n - 1),
                        (sw,) * (cfg.n - 1),
                    )
                    total = sum(p for p, _ in branches)
                    assert total == pytest.approx(1, abs=1e-9)
                    for _, t in branches:
                        seen.add((b1, bk, sw, t.wins[0]))
                        assert t.agreement
        expected = {
            (0, 0, True, False), (0, 0, False, True),
            (0, 1, True, True), (0, 1, False, False),
            (1, 0, True, True), (1, 0, False, False),
            (1, 1, True, False), (1, 1, False, True),
        }
        assert seen == expected


class TestSingleRound:
    """``simulate_round_a/b``, the one-key call of the batch's branches,
    against the round composed step by step (``reference_simulate_round``):
    evolution, ``measure_slots``, one-state diagnostics, transcript."""

    @pytest.mark.parametrize("protocol, config", [
        *(("a", config_a(d=d, n=n, seed=13)) for d in (3, 4) for n in (2, 3)),
        *(("b", config_b(d=d, seed=13)) for d in (3, 4, 5)),
        ("a", config_a(d=4, n=3, approvals=(True, False), seed=13)),
        ("b", config_b(d=4, approvals=(False, True), seed=13)),
    ], ids=["a3-2", "a3-3", "a4-2", "a4-3", "b3", "b4", "b5", "a4-3-10", "b4-01"])
    def test_every_key_matches_the_step_by_step_reference(self, protocol, config):
        simulate = simulate_round_a if protocol == "a" else simulate_round_b
        names = [f.name for f in fields(ProtocolTranscript) if f.name != "_tail"]
        outcomes = set()
        for r, (bits, switches) in enumerate(_every_key(config.n)):
            for seed in (r, r + 1000):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                t = simulate(config, bits, switches, rng, r)
                ref = reference_simulate_round(protocol, config, bits, switches, ref_rng, r)
                assert [getattr(t, name) for name in names] == [
                    getattr(ref, name) for name in names
                ]
                assert [line for _, line in transcript_lines([t])] == [
                    json.dumps(ref.to_record(), separators=(",", ":")) + "\n"
                ]
                # One draw each, so the generators end in the same state.
                assert rng.random() == ref_rng.random()
                outcomes.add((bits, switches, t.outcomes))
        # Some keys leave several outcomes, and the seeds reach more than one.
        assert len(outcomes) > len(_every_key(config.n)) or protocol == "b"


class TestAllApproveAgreement:
    """With every validator approving, every measurement branch of every
    (bits, switches) ends in agreeing keys."""

    @pytest.mark.parametrize("protocol,cfg", [
        *(("a", config_a(d=d, n=n)) for d, n in ((3, 2), (4, 2), (4, 3), (5, 3), (4, 4))),
        *(("b", config_b(d=d)) for d in (3, 4, 5)),
    ], ids=["a-3-2", "a-4-2", "a-4-3", "a-5-3", "a-4-4", "b-3", "b-4", "b-5"])
    def test_every_choice_agrees(self, protocol, cfg):
        for bits in product((0, 1), repeat=cfg.n):
            for switches in product((False, True), repeat=cfg.n - 1):
                branches = enumerate_measurement_branches(protocol, cfg, bits, switches)
                assert sum(p for p, _ in branches) == pytest.approx(1, abs=1e-9)
                assert all(t.agreement for _, t in branches)


class TestVictoryCorrectness:
    @pytest.mark.parametrize("d", [3, 4])
    def test_encoded_register_tracks_wins_in_every_branch(self, d):
        # After the host's victory step, every basis component of the
        # superposition carries o_{j-1} = 0 exactly when p_j = p_1.
        from itertools import product

        from qmonty.protocols import evolve_round_b
        from qmonty.qudit import labels_of_index

        cfg = config_b(d)
        n, m = cfg.n, cfg.m
        for bits in product((0, 1), repeat=n):
            for switches in product((False, True), repeat=n - 1):
                state = evolve_round_b(cfg, bits, switches)
                for idx, amp in zip(state.index, state.amplitudes):
                    if abs(amp) <= 1e-12:
                        continue
                    labels = labels_of_index(d, m + n, int(idx))
                    opened = labels[:m]              # (o_m, ..., o_1)
                    parties = labels[m:]             # (p_n, ..., p_1)
                    p1 = parties[-1]
                    for j in range(2, n + 1):
                        o_label = opened[m - (j - 1)]
                        p_j = parties[n - j]
                        assert (o_label == 0) == (p_j == p1)


class TestSupportMatchesDenseReference:
    """Rounds on the support against the same steps on dense vectors."""

    # Under approvals 10 the declining validator's register stays 0, so it
    # collides with party label 0 and the host's tolerant switch acts
    # outside the standard switch's domain.
    @pytest.mark.parametrize("protocol,cfg", [
        ("b", config_b(d=3)),
        ("b", config_b(d=4)),
        ("a", config_a(d=4)),
        ("a", config_a(d=4, approvals=(True, False))),
    ])
    def test_every_choice(self, protocol, cfg):
        evolve = evolve_round_a if protocol == "a" else evolve_round_b
        slots = _measured_slots(protocol, cfg)
        for bits in product((0, 1), repeat=cfg.n):
            for switches in product((False, True), repeat=cfg.n - 1):
                state = evolve(cfg, bits, switches)
                reference = reference_evolve_round(protocol, cfg, bits, switches)
                assert isinstance(state, SupportState)
                assert np.abs(
                    state.to_dense().amplitudes - reference.amplitudes
                ).max() <= 1e-12
                branches = measurement_branches(state, slots)
                expected = measurement_branches(reference, slots)
                assert [b[1] for b in branches] == [b[1] for b in expected]
                for (prob, _, post), (ref_prob, _, ref_post) in zip(branches, expected):
                    assert abs(prob - ref_prob) <= 1e-12
                    assert np.abs(
                        post.to_dense().amplitudes - ref_post.amplitudes
                    ).max() <= 1e-12

    def test_off_domain_raises_on_both_representations(self):
        # Protocol B layout at d = 4, (o_2, o_1, p_3, p_2, p_1): an occupied
        # o_1 is outside the gap filler's domain.
        labels = (0, 1, 0, 1, 0)
        messages = []
        for state in (make_basis_state(4, labels), support_basis_state(4, labels)):
            with pytest.raises(DomainError, match=r"\|0,1,0,1,0>") as err:
                apply_local_operator(state, omega_operator(2, 4))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def _every_key(n):
    return [
        (bits, switches)
        for bits in product((0, 1), repeat=n)
        for switches in product((False, True), repeat=n - 1)
    ]


def _step_configs():
    """Protocols A (two and three parties) and B at d = 3..5, under every
    approval mask."""
    for protocol in "ab":
        for d in (3, 4, 5):
            for n in ((d - 1,) if protocol == "b" else (2, 3)):
                for approvals in product((True, False), repeat=d - 2):
                    mask = "".join(str(int(a)) for a in approvals)
                    yield pytest.param(
                        protocol, ProtocolConfig(d, n, d - 2, approvals, seed=0),
                        id=f"{protocol}-d{d}-n{n}-{mask}",
                    )


def _key_norms(state, width, count):
    """The squared norm of each key of a batch."""
    return np.bincount(
        state.index // width, weights=np.abs(state.amplitudes) ** 2, minlength=count
    )


class TestKeySelectedSteps:
    """Every step of a key batch applies each key's own variant
    (``protocols._per_key``); it must equal evolving each variant's keys
    apart and merging, and each key must evolve as it would alone."""

    @pytest.mark.parametrize("protocol, config", _step_configs())
    def test_every_step_matches_split_and_merge(self, protocol, config, monkeypatch):
        rng = np.random.default_rng(config.d * 100 + config.n * 10 + sum(config.approvals))
        every = _every_key(config.n)
        capacity = protocols._batch_capacity(protocol, config)
        count = int(rng.integers(1, min(len(every), capacity, 24) + 1))
        keys = [every[i] for i in rng.choice(len(every), size=count, replace=False)]
        steps = record_steps(monkeypatch)
        final = protocols._evolve_keys(protocol, config, keys)
        reference = reference_key_steps(protocol, config, keys)
        # The bit shifts are folded into the start, the first step's input.
        n = config.n
        shifted, start = reference[n - 1], steps[0][1]
        assert start.num_qudits == shifted.num_qudits
        assert np.array_equal(start.index, shifted.index)
        assert np.array_equal(start.amplitudes, shifted.amplitudes)
        assert len(steps) == len(reference) - n
        for (_, _, got), want in zip(steps, reference[n:]):
            assert np.array_equal(got.index, want.index)
            assert np.array_equal(got.amplitudes, want.amplitudes)
        assert final is steps[-1][2]

    def test_off_domain_entry_raises_its_own_variants_error(self):
        # Protocol B at d = 4: an occupied o_1 is outside both gap fillers'
        # domain.  Key r's entries are moved there after the shifts.
        config = config_b(d=4)
        d, n = config.d, config.n
        width = d ** config.num_qudits
        keys = _every_key(n)[::3]
        choice = np.array([bits[1] for bits, _ in keys])
        assert 0 < choice.sum() < len(choice)
        fillers = (aligned_omega_operator(2, d, 0), aligned_omega_operator(2, d, 1))
        shifted = reference_key_steps("b", config, keys)[n - 1]

        def error(step, *args):
            with pytest.raises(DomainError) as err:
                step(*args)
            return str(err.value)

        for bad in ([0], [4], [5], [1, 2], [2, 5]):
            owner = shifted.index // width
            moved = np.isin(owner, bad)
            state = SupportState(
                d, shifted.num_qudits,
                shifted.index + moved * d ** opened_slot(1, n), shifted.amplitudes,
            )
            picked = error(protocols._per_key, state, width, fillers, choice)
            assert picked == error(by_key, state, width, choice, lambda part, v: (
                apply_local_operator(part, fillers[v])
            ))
            # The first offending key alone, under its own variant.
            key = min(bad, key=lambda r: (choice[r], r))
            mine = state.index // width == key
            alone = SupportState(d, state.num_qudits, state.index[mine], state.amplitudes[mine])
            assert picked == error(apply_local_operator, alone, fillers[choice[key]])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operators_match_split_and_merge(self, seed):
        # Operators with several entries per input and colliding outputs,
        # on a batch of three keys (the top qudit) with random support.
        rng = np.random.default_rng(seed)
        d, n, keys = 3, 4, 3
        width = d ** (n - 1)
        index = np.sort(rng.choice(keys * width, size=int(rng.integers(1, 20)), replace=False))
        amps = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
        state = SupportState(d, n, index, amps)
        choice = rng.integers(2, size=keys)
        slots = (2, 0)

        def random_op(name):
            src = rng.permutation(np.repeat(np.arange(d * d), 2))
            return LocalOperator(
                d, slots, src, rng.integers(d * d, size=len(src)),
                rng.normal(size=len(src)) + 1j * rng.normal(size=len(src)),
                np.ones(d * d, dtype=bool), name=name,
            )

        first, second = random_op("first"), random_op("second")
        for variants in ((first, second), (None, second), (first, None)):
            out = protocols._per_key(state, width, variants, choice)
            want = by_key(state, width, choice, lambda part, v: (
                part if variants[v] is None else apply_local_operator(part, variants[v])
            ))
            assert np.array_equal(out.index, want.index)
            assert np.array_equal(out.amplitudes, want.amplitudes)

    @pytest.mark.parametrize("protocol, config", _step_configs())
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_each_key_of_a_batch_evolves_as_it_would_alone(self, protocol, config, data):
        n = config.n
        every = _every_key(n)
        # A key and its complement: every bit and every switch takes both
        # values in the batch, so every key-selected step splits it.
        bits, switches = data.draw(st.sampled_from(every))
        pair = [(bits, switches), (tuple(1 - b for b in bits), tuple(not s for s in switches))]
        size = min(protocols._batch_capacity(protocol, config), 16)
        others = data.draw(st.lists(st.sampled_from(every), max_size=size - 2, unique=True))
        keys = list(dict.fromkeys(pair + others))
        keys = [keys[i] for i in data.draw(st.permutations(range(len(keys))))]
        for column in zip(*(b + s for b, s in keys)):
            assert set(column) == {0, 1}
        batch = protocols._evolve_keys(protocol, config, keys)
        width = config.d**config.num_qudits
        assert np.array_equal(np.unique(batch.index // width), np.arange(len(keys)))
        for r, key in enumerate(keys):
            alone = protocols._evolve_keys(protocol, config, [key])
            mine = batch.index // width == r
            assert np.array_equal(batch.index[mine] - r * width, alone.index)
            assert np.array_equal(batch.amplitudes[mine], alone.amplitudes)

    @pytest.mark.parametrize("protocol, config", [
        ("b", config_b(d=4, approvals=(True, False))),
        ("b", config_b(d=5)),
        ("a", config_a(d=5, n=3, approvals=(True, False, True))),
        ("a", config_a(d=4, n=3)),
    ], ids=["b4-10", "b5-111", "a5-101", "a4-11"])
    def test_stacked_measurement_matches_each_key_alone(self, protocol, config):
        slots = _measured_slots(protocol, config)
        keys = _every_key(config.n)[:protocols._batch_capacity(protocol, config)]
        measured = Measurement(
            protocols._evolve_keys(protocol, config, keys), slots, config.num_qudits, len(keys)
        )
        width = config.d**config.num_qudits
        several = 0
        for r, key in enumerate(keys):
            p, collapse = measurement_distribution(
                protocols._evolve_keys(protocol, config, [key]), slots
            )
            assert seeding.choice_cdf(measured.distribution(r)) == seeding.choice_cdf(p)
            first = int(measured.first[r])
            assert measured.first[r + 1] - first == len(p)
            residuals = measured.collapsed(range(first, first + len(p)))
            several += len(p) > 1
            for pos in range(len(p)):
                labels, post = collapse(pos)
                assert measured.labels(first + pos) == labels
                mine = residuals.index // width == pos
                assert np.array_equal(residuals.index[mine] - pos * width, post.index)
                assert np.array_equal(residuals.amplitudes[mine], post.amplitudes)
        if protocol != "b" or not config.all_approve:
            assert several

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), all_approve=st.booleans())
    def test_isometric_steps_keep_each_key_normalized(self, data, all_approve):
        protocol = data.draw(st.sampled_from("ab"))
        d = data.draw(st.integers(3, 5))
        n = d - 1 if protocol == "b" else data.draw(st.integers(2, 3))
        m = d - 2
        approvals = (True,) * m
        if not all_approve:
            approvals = data.draw(
                st.tuples(*[st.booleans()] * m).filter(lambda a: not all(a))
            )
        config = ProtocolConfig(d, n, m, approvals, seed=0)
        size = min(protocols._batch_capacity(protocol, config), 12)
        keys = data.draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, 1)] * n), st.tuples(*[st.booleans()] * (n - 1))),
            min_size=1, max_size=size, unique=True,
        ))
        with pytest.MonkeyPatch.context() as mp:
            steps = record_steps(mp)
            protocols._evolve_keys(protocol, config, keys)
        width = d ** config.num_qudits
        for step, _, state in steps:
            ops = step if isinstance(step, tuple) else (step,)
            names = [op.name for op in ops if op is not None]
            if not all_approve and names[-1].startswith("door-switching"):
                continue  # the host's tolerant switch merges colliding inputs
            assert np.abs(_key_norms(state, width, len(keys)) - 1).max() <= 1e-12, names


class _Started(Exception):
    """Raised with the state the first step of an evolution receives."""


def _shifted_start(protocol, config, keys):
    """The state ``_evolve_keys`` hands its first step, a door opening or a
    key-selected step: every key's start with its parties' labels shifted
    by its bits."""

    def stop(state, *args):
        raise _Started(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols, "apply_local_operator", stop)
        mp.setattr(protocols, "_per_key", stop)
        with pytest.raises(_Started) as started:
            protocols._evolve_keys(protocol, config, keys)
    return started.value.args[0]


def _shifted_alone(protocol, config, bits):
    """One key's start shifted step by step: ``sum_d(d, bit_k)`` applied to
    party ``k``'s label of the basis or GHZ start."""
    d, n, m = config.d, config.n, config.m
    if protocol == "a":
        state = support_basis_state(d, (0,) * (m + n))
    else:
        # The GHZ labels under opened registers at 0 keep their flat indices.
        ghz = support_ghz_state(d, n)
        state = SupportState(d, m + n, ghz.index, ghz.amplitudes)
    for k, bit in enumerate(bits, start=1):
        state = apply_strategy(state, sum_d(d, bit), player_slot(k))
    return state


class TestShiftedStart:
    """Each key starts with its bit shifts folded in; it must equal the
    start shifted by ``apply_strategy`` one party at a time, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_start_equals_each_key_shifted_alone(self, data):
        protocol = data.draw(st.sampled_from("ab"))
        # Protocol B at d = 6 spans 6^9 amplitudes: see the test below.
        d = data.draw(st.integers(3, 6 if protocol == "a" else 5))
        n = d - 1 if protocol == "b" else data.draw(st.integers(2, 3))
        approvals = data.draw(st.tuples(*[st.booleans()] * (d - 2)))
        config = ProtocolConfig(d, n, d - 2, approvals, seed=0)
        every = _every_key(n)
        # More keys than d, so that at least two key qudits number them.
        order = data.draw(st.permutations(range(len(every))))
        keys = [every[i] for i in order[:data.draw(st.integers(d + 1, len(every)))]]
        start = _shifted_start(protocol, config, keys)
        width = d**config.num_qudits
        assert start.num_qudits - config.num_qudits >= 2
        assert d ** (start.num_qudits - config.num_qudits - 1) < len(keys)
        assert np.array_equal(np.unique(start.index // width), np.arange(len(keys)))
        for r, (bits, _) in enumerate(keys):
            alone = _shifted_alone(protocol, config, bits)
            mine = start.index // width == r
            assert np.array_equal(start.index[mine] - r * width, alone.index)
            assert np.array_equal(start.amplitudes[mine], alone.amplitudes)

    def test_register_above_the_budget_is_refused(self):
        # Protocol B at d = 6: m + n = 9 qudits, 6^9 amplitudes.
        config = ProtocolConfig(6, 5, 4, (True,) * 4, seed=0)
        with pytest.raises(ValueError, match="budget"):
            protocols._evolve_keys("b", config, _every_key(5)[:7])


class TestBatches:
    def test_protocol_a_statistics(self):
        report = run_batch(config_a(d=4, seed=7, rounds=400), "a")
        assert isinstance(report, BatchReport)
        assert report.agreement_rate == 1.0
        assert abs(report.all_same_frequency - 0.5) < 0.13
        assert report.expected_all_same_frequency == 0.5

    def test_protocol_a_decliner_breaks_agreement(self):
        report = run_batch(config_a(d=4, approvals=(True, False), seed=7, rounds=400), "a")
        assert report.agreement_rate < 1.0

    def test_protocol_a_residual_entanglement(self):
        report = run_batch(config_a(d=4, seed=3, rounds=60), "a")
        for t in report.transcripts:
            if t.all_same:
                continue
            # uniform superposition over the orderings of the opened doors
            assert any(
                marg[1] > 1e-6 for marg in t.diagnostics["opened_marginals"]
            )

    def test_protocol_b_statistics_and_residual(self):
        report = run_batch(config_b(d=3, seed=13, rounds=400), "b")
        assert report.agreement_rate == 1.0
        assert report.expected_all_same_frequency == 0.5
        for t in report.transcripts:
            if t.all_same:
                continue
            assert abs(t.diagnostics["residual_top_eigenvalue"] - 1) < 1e-9
            for marg in t.diagnostics["party_marginals"]:
                assert max(abs(v - 1 / 3) for v in marg) < 1e-9

    def test_protocol_b_multiparty(self):
        report = run_batch(config_b(d=4, seed=21, rounds=150), "b")
        assert report.agreement_rate == 1.0
        assert report.expected_all_same_frequency == 0.25

    def test_protocol_b_decliner_breaks_agreement(self):
        report = run_batch(config_b(d=3, approvals=(False,), seed=13, rounds=300), "b")
        assert report.agreement_rate < 1.0

    def test_flagged_rounds_excluded_from_agreement(self):
        report = run_batch(config_a(d=4, seed=1, rounds=200), "a")
        usable = [t for t in report.transcripts if not t.all_same]
        assert report.flagged_rounds + len(usable) == report.rounds
        assert report.all_same_frequency == report.flagged_rounds / report.rounds


def _per_round_reference(config, protocol):
    """The batch as independent single rounds, one generator per round."""
    runner = run_protocol_a if protocol == "a" else run_protocol_b
    children = np.random.SeedSequence(config.seed).spawn(config.rounds)
    return serialize_transcripts(
        runner(config, np.random.default_rng(child), i) for i, child in enumerate(children)
    )


class TestBranchTable:
    """A batch evolves each distinct (bits, switches) once and must still
    produce exactly the rounds of the per-round functions."""

    @pytest.mark.parametrize("protocol, config", [
        ("a", config_a(d=4, seed=31, rounds=120)),
        ("a", config_a(d=4, approvals=(True, False), seed=31, rounds=120)),
        ("b", config_b(d=3, seed=31, rounds=120)),
        ("b", config_b(d=3, approvals=(False,), seed=31, rounds=120)),
        ("b", config_b(d=4, seed=31, rounds=160)),
        ("b", config_b(d=4, approvals=(True, False), seed=31, rounds=160)),
        ("b", config_b(d=5, seed=31, rounds=300)),
    ], ids=["a-11", "a-10", "b3-1", "b3-0", "b4-11", "b4-10", "b5-111"])
    def test_batch_matches_per_round_reference(self, protocol, config, monkeypatch):
        # More rounds than the 2^(2n-1) keys, so branches repeat.
        assert config.rounds > 2 ** (2 * config.n - 1)
        batches = record_evolutions(monkeypatch)
        batch = run_batch(config, protocol).transcripts
        keys = {(t.bits, t.switches) for t in batch}
        assert len(keys) < config.rounds
        if config.d == 5:
            # Both chunks meet new keys, so the keys fill several evolutions.
            assert len(batches) > 1
        assert serialize_transcripts(batch) == _per_round_reference(config, protocol)

    def test_one_evolution_per_key(self, monkeypatch):
        batches = record_evolutions(monkeypatch)
        # Protocol B at d = 5 has 128 keys: the second chunk meets new ones.
        report = run_batch(config_b(d=5, seed=8, rounds=300), "b")
        keys = {(t.bits, t.switches) for t in report.transcripts}
        evolved = [key for batch in batches for key in batch]
        assert len(evolved) == len(set(evolved)) == len(keys) < 300
        assert set(evolved) == keys
        assert len(batches) > 1

    def test_benchmark_call_evolves_and_diagnoses_once(self, monkeypatch):
        batches = record_evolutions(monkeypatch)
        stacks = record_diagnostics(monkeypatch)
        config = ProtocolConfig(
            d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=200
        )
        run_batch(config, "b")
        assert len(batches) == 1 and len(stacks) == 1

    def test_later_batches_diagnose_the_outcomes_of_new_keys(self, monkeypatch):
        batches = record_evolutions(monkeypatch)
        stacks = record_diagnostics(monkeypatch)
        config = ProtocolConfig(
            d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=200
        )
        table = protocols._branch_table("b", config.d, config.n, config.m, config.approvals)
        keys = set()
        for seed in (9090, 9091):
            batches.clear()
            stacks.clear()
            rounds = run_batch(replace(config, seed=seed), "b").transcripts
            assert {t.seed for t in rounds} == {seed}
            new_keys = {(t.bits, t.switches) for t in rounds} - keys
            evolved = [key for batch in batches for key in batch]
            assert len(evolved) == len(set(evolved)) and set(evolved) == new_keys
            # Every key of this config leaves one outcome, so a batch
            # diagnoses one state per key it meets first.
            assert {len(table[key_code(*key)][1]) for key in new_keys} == {1}
            assert sum(stacks) == len(new_keys)
            assert new_keys and len(new_keys) < len(rounds)
            keys |= new_keys
        # A longer batch meets every one of the 2^7 keys; a batch after it
        # evolves and diagnoses nothing.
        rounds = run_batch(replace(config, seed=9092, rounds=1000), "b").transcripts
        assert len({(t.bits, t.switches) for t in rounds}) == 128
        batches.clear()
        stacks.clear()
        run_batch(replace(config, seed=9093), "b")
        assert batches == [] and stacks == []

    def test_known_keys_need_no_evolution_or_diagnostics(self, monkeypatch):
        # A key's outcomes are all completed when it is first met: a batch
        # whose keys were all met before draws outcomes the first batch did
        # not, and still evolves and diagnoses nothing.
        config = config_a(d=4, approvals=(True, False), seed=0, rounds=20)
        first = run_batch(config, "a").transcripts
        batches = record_evolutions(monkeypatch)
        stacks = record_diagnostics(monkeypatch)
        later = run_batch(replace(config, seed=1), "a").transcripts
        assert {(t.bits, t.switches) for t in later} <= {(t.bits, t.switches) for t in first}
        pairs = [{(t.bits, t.switches, t.outcomes) for t in rounds} for rounds in (first, later)]
        assert pairs[1] - pairs[0]
        assert batches == [] and stacks == []

    @pytest.mark.parametrize("protocol, config", [
        ("a", config_a(d=4)),
        ("a", config_a(d=4, approvals=(True, False))),
        ("a", config_a(d=4, approvals=(False, True))),
        ("b", config_b(d=4)),
        ("b", config_b(d=4, approvals=(True, False))),
    ], ids=["a4-11", "a4-10", "a4-01", "b4-11", "b4-10"])
    def test_enumerated_branches_match_the_measurement(self, protocol, config):
        evolve = evolve_round_a if protocol == "a" else evolve_round_b
        slots = _measured_slots(protocol, config)
        for bits, switches in _every_key(config.n):
            p, collapse = measurement_distribution(evolve(config, bits, switches), slots)
            branches = enumerate_measurement_branches(protocol, config, bits, switches)
            assert [(prob, t.outcomes) for prob, t in branches] == [
                (float(p[pos]), collapse(pos)[0]) for pos in np.flatnonzero(p > 1e-18)
            ]
            assert {(t.seed, t.round_index) for _, t in branches} == {(config.seed, 0)}

    def test_interleaved_configs_stay_warm(self, monkeypatch):
        # The benchmark's protocol A workload alternates two approval plans.
        configs = [
            config_a(d=4, approvals=approvals, seed=7, rounds=250)
            for approvals in ((True, True), (True, False))
        ]
        cold = [serialize_transcripts(iter_rounds(c, "a")) for c in configs]
        batches = record_evolutions(monkeypatch)
        for _ in range(2):
            assert [serialize_transcripts(iter_rounds(c, "a")) for c in configs] == cold
        assert batches == []
        # Two streams of one config, read in turn, share its table as it grows.
        protocols._branch_table.cache_clear()
        one, other = configs[1], replace(configs[1], seed=8)
        alone = [serialize_transcripts(iter_rounds(c, "a")) for c in (one, other)]
        protocols._branch_table.cache_clear()
        pairs = list(zip(iter_rounds(one, "a"), iter_rounds(other, "a")))
        assert [serialize_transcripts(rounds) for rounds in zip(*pairs)] == alone

    def test_table_keeps_only_the_configs_used_last(self, monkeypatch):
        kept = protocols._branch_table.cache_info().maxsize
        configs = [config_a(d=4, n=n, seed=5, rounds=40) for n in range(2, kept + 3)]
        for config in configs:
            run_batch(config, "a")
        assert protocols._branch_table.cache_info().currsize == kept
        batches = record_evolutions(monkeypatch)
        for config in configs[2:]:
            run_batch(config, "a")
        assert batches == []
        run_batch(configs[0], "a")
        assert batches

    def test_split_key_batches_serialize_the_same(self, monkeypatch):
        # A chunk's new keys fit one evolution at these sizes; a capacity of
        # 3 splits them into many batches, whose rounds must not change.
        configs = [
            ("a", config_a(d=4, n=5, seed=12, rounds=300)),
            ("b", config_b(d=5, seed=12, rounds=300)),
        ]
        whole = [serialize_transcripts(iter_rounds(c, p)) for p, c in configs]
        # The split run must evolve its keys again, not find them kept.
        protocols._branch_table.cache_clear()
        batches = record_evolutions(monkeypatch)
        monkeypatch.setattr(protocols, "_batch_capacity", lambda protocol, config: 3)
        split = [serialize_transcripts(iter_rounds(c, p)) for p, c in configs]
        assert split == whole
        # Batches at the cap, and more of them than the four chunks.
        assert max(map(len, batches)) == 3 and len(batches) > 4

    @pytest.mark.parametrize("protocol, config", [
        *[("a", config_a(d=4, n=n)) for n in range(2, 6)],
        ("a", config_a(d=5, n=3, approvals=(True, False, True))),
        *[("b", config_b(d=d)) for d in (3, 4, 5)],
        ("b", config_b(d=3, approvals=(False,))),
        ("b", config_b(d=4, approvals=(True, False))),
        ("b", config_b(d=5, approvals=(True, False, True))),
    ], ids=[
        "a4-2", "a4-3", "a4-4", "a4-5", "a5-101", "b3", "b4", "b5", "b3-0", "b4-10", "b5-101",
    ])
    def test_support_bound_holds_for_every_key(self, protocol, config):
        # A key starts with 1 entry (protocol A) or d (protocol B's GHZ
        # labels), and only an approved door opening adds entries, at most
        # d-fold; the batch capacity divides the batch budget by that bound.
        d = config.d
        bound = d ** sum(config.approvals) if protocol == "a" else d
        assert protocols._batch_capacity(protocol, config) == BATCH_AMPLITUDES // bound
        for key in _every_key(config.n):
            assert len(protocols._evolve_keys(protocol, config, [key]).index) <= bound

    def test_zero_state_refused(self, monkeypatch):
        def vanishing(protocol, config, keys):
            return SupportState(config.d, config.num_qudits, [0], [0.0])

        monkeypatch.setattr(protocols, "_evolve_keys", vanishing)
        with pytest.raises(ValueError, match="cannot measure a zero state"):
            next(iter_rounds(config_a(d=4, rounds=5), "a"))

    def test_batch_leaves_numpy_ma_unimported(self):
        # np.unique without return_inverse imports numpy.ma, which costs
        # about 1 MiB of peak memory.
        code = (
            "import sys\n"
            "from qmonty.protocols import ProtocolConfig, run_batch\n"
            "for p, d, n, ok in (('a', 4, 3, (1, 0)), ('b', 5, 4, (1, 1, 1))):\n"
            "    config = ProtocolConfig(d, n, d - 2, tuple(map(bool, ok)), 1, 40)\n"
            "    run_batch(config, p)\n"
            "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False False"

    def test_summarize_streams_the_same_report(self):
        for protocol, config, residual_ok in (
            ("a", config_a(d=4, seed=2, rounds=80), True),
            ("b", config_b(d=4, seed=2, rounds=80), True),
            ("b", config_b(d=3, approvals=(False,), seed=2, rounds=80), None),
            # A non-flagged round leaves protocol A's one opened register at
            # d = 3 on door 2, a basis state: the check does not apply.
            ("a", config_a(d=3, seed=2, rounds=80), None),
        ):
            report = run_batch(config, protocol)
            assert report.residual_ok is residual_ok
            streamed = summarize(config, protocol, iter_rounds(config, protocol))
            assert streamed.transcripts == ()
            assert streamed == replace(report, transcripts=())

    def test_summarize_checks_each_diagnostics_dict(self):
        # Two rounds with the same key but their own diagnostics dicts: the
        # residual check must see both, however equal their keys.
        config = config_b(d=3, seed=4, rounds=2)
        t = next(t for t in run_batch(replace(config, rounds=40), "b").transcripts
                 if not t.all_same)
        bad = dict(t.diagnostics, residual_top_eigenvalue=0.5)
        good = replace(t, diagnostics=dict(t.diagnostics))
        assert summarize(config, "b", [good, good]).residual_ok is True
        for pair in ([good, replace(t, diagnostics=bad)], [replace(t, diagnostics=bad), good]):
            assert (pair[0].bits, pair[0].switches) == (pair[1].bits, pair[1].switches)
            report = summarize(config, "b", pair)
            assert report.residual_ok is False and report.residual_skipped is None
            assert report.summary_lines()[-1] == (
                "residual party state pure with uniform marginals: FAIL"
            )

    def test_residual_check_matches_one_test_per_value(self):
        config = config_b(d=3, seed=4, rounds=2)
        t = next(t for t in run_batch(replace(config, rounds=40), "b").transcripts
                 if not t.all_same)
        assert t.residual_ok is True

        def reference(x):
            diag = x.diagnostics
            return abs(diag["residual_top_eigenvalue"] - 1) <= 1e-9 and all(
                abs(v - 1 / x.d) <= 1e-9 for marg in diag["party_marginals"] for v in marg
            )

        uniform = 1 / 3
        for value, ok in (
            (float("nan"), False),
            (uniform + 1e-8, False),
            (uniform - 1e-8, False),
            (uniform + 1e-10, True),
            (float("inf"), False),
            (0.333333333333, True),
        ):
            for party, level in ((0, 0), (1, 2)):
                marginals = [list(marg) for marg in t.diagnostics["party_marginals"]]
                marginals[party][level] = value
                x = replace(t, diagnostics=dict(t.diagnostics, party_marginals=marginals))
                assert x.residual_ok is reference(x) is ok
                assert summarize(config, "b", [t, x, t]).residual_ok is ok
        x = replace(t, diagnostics=dict(t.diagnostics, residual_top_eigenvalue=float("nan")))
        assert summarize(config, "b", [x]).residual_ok is False

    def test_rounds_are_frozen_copies(self):
        rounds = list(iter_rounds(config_b(d=3, seed=6, rounds=40), "b"))
        shared = [t for t in rounds[1:] if t.diagnostics is rounds[0].diagnostics]
        assert shared
        for t in shared:
            assert t == replace(rounds[0], round_index=t.round_index)
        with pytest.raises(FrozenInstanceError):
            shared[0].round_index = 0


class TestNumpyCopy:
    """The batch's copy of numpy's per-round random-number scheme
    (``qmonty.seeding``) against numpy itself."""

    # The last seed has six words: the two beyond the pool size are mixed
    # in as entropy words, before the round's and the party's.
    SEEDS = (0, 2**32, 2**64 + 5, 2**128 + 99, 2**190 + 3)

    @pytest.mark.parametrize("seed", SEEDS)
    # 32 parties need 63 bits, the widest key code.
    @pytest.mark.parametrize("n", [*range(2, 10), 32])
    def test_keys_and_uniforms_match_numpy(self, seed, n):
        config = ProtocolConfig(d=3, n=n, m=0, approvals=(), seed=seed)
        base = seeding.seed_pool(seed)
        # Across the first chunk boundaries, and the last rounds a config allows.
        for first, count in ((0, 16), (16, 32), (40, 9), (2**32 - 3, 3)):
            codes, pool = seeding.chunk_keys(base, n, first, count)
            rows = list(range(0, count, 2))
            uniforms = dict(zip(rows, seeding.uniforms(pool, rows)))
            assert len(codes) == count
            for r, code in enumerate(codes):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(first + r,))
                )
                key = protocols._draw_choices(config, rng)
                assert seeding.decode_key(code, n) == key
                assert code == key_code(*key)
                if r in uniforms:
                    assert uniforms[r] == rng.random()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_pool_matches_numpy(self, seed):
        pool, _ = seeding.seed_pool(seed)
        assert pool.dtype == np.uint32
        assert pool.tolist() == np.random.SeedSequence(seed).pool.tolist()

    def test_key_code_width_is_refused_beyond_64_bits(self):
        # 33 parties would need 65 bits, and their codes would alias.
        with pytest.raises(ValueError, match="65 bits"):
            seeding.chunk_keys(seeding.seed_pool(5), 33, 0, 1)

    def test_rounds_without_a_draw_compute_no_sample(self, monkeypatch):
        calls = []
        first_outputs = seeding._first_outputs

        def counting(pool):
            calls.append(np.shape(pool))
            return first_outputs(pool)

        monkeypatch.setattr(seeding, "_first_outputs", counting)
        # Every key of an all-approve protocol B config leaves one outcome,
        # so no round draws it: one call per chunk, for the keys.
        config = ProtocolConfig(
            d=5, n=4, m=3, approvals=(True, True, True), seed=4, rounds=600
        )
        report = run_batch(config, "b")
        assert len(report.transcripts) == 600
        assert len(calls) == -(-600 // protocols.CHUNK_ROUNDS) == 3
        _, pool = seeding.chunk_keys(seeding.seed_pool(4), 4, 0, 5)
        calls.clear()
        assert seeding.uniforms(pool, []) == [] and calls == []

    def test_first_outputs_match_python_integers(self):
        # Pools of random words, and of words that carry in every add.
        draw = np.random.default_rng(17)
        pools = [
            [draw.integers(0, 2**32, size=(200, 4), dtype=np.uint32) for _ in range(4)]
            for _ in range(5)
        ]
        pools += [[np.full((3, 4), word, dtype=np.uint32)] * 4 for word in (0, 2**32 - 1)]
        for pool in pools:
            assert seeding._first_outputs(pool).tolist() == reference_first_outputs(pool)

    def test_pick_matches_choice(self):
        draw = np.random.default_rng(2024)
        for trial in range(2000):
            size = int(draw.integers(2, 12))
            weights = draw.random(size) ** 3
            if trial % 3 == 0:
                weights[draw.integers(size)] = 0
            p = weights / weights.sum()
            seed = int(draw.integers(2**63))
            u = np.random.default_rng(seed).random()
            expected = np.random.default_rng(seed).choice(size, p=p)
            assert bisect_right(seeding.choice_cdf(p), u) == expected

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            next(iter_rounds(config_a(seed=-1, rounds=3), "a"))


class TestTranscripts:
    def test_determinism_byte_for_byte(self):
        cfg = config_b(d=3, seed=99, rounds=50)
        first = serialize_transcripts(run_batch(cfg, "b").transcripts)
        second = serialize_transcripts(run_batch(cfg, "b").transcripts)
        assert first == second

    def test_different_seeds_differ(self):
        a = serialize_transcripts(run_batch(config_a(seed=1, rounds=30), "a").transcripts)
        b = serialize_transcripts(run_batch(config_a(seed=2, rounds=30), "a").transcripts)
        assert a != b

    def test_record_schema(self, tmp_path):
        cfg = config_a(d=4, seed=5, rounds=3)
        report = run_batch(cfg, "a")
        path = tmp_path / "rounds.jsonl"
        write_transcripts(path, report.transcripts)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert list(record) == [
                "seed", "protocol", "round", "config", "bits", "switches",
                "approvals", "outcomes", "final_keys", "flags", "diagnostics",
            ]
            assert record["config"] == {"d": 4, "n": 2, "m": 2}
            assert record["protocol"] == "a"
            assert set(record["outcomes"]) == {"measured", "wins"}
            assert set(record["flags"]) == {"all_same", "agreement"}

    def test_lines_equal_one_dump_per_record(self):
        batch = list(iter_rounds(config_b(d=4, approvals=(True, False), seed=3, rounds=90), "b"))
        batch += list(iter_rounds(config_a(d=4, seed=3, rounds=60), "a"))
        t = batch[0]
        # Hand-made rounds that share t's diagnostics dict but not its
        # bits, outcome or seed.
        made = [
            replace(t, bits=(1 - t.bits[0], *t.bits[1:]), round_index=5),
            replace(t, outcomes=(t.outcomes[0] + 1, *t.outcomes[1:])),
            replace(t, seed=t.seed + 1),
            replace(t, round_index=2**40),
        ]
        assert all(x.diagnostics is t.diagnostics for x in made)
        rounds = batch + made + batch[:5]
        expected = [json.dumps(x.to_record(), separators=(",", ":")) + "\n" for x in rounds]
        lines = list(transcript_lines(rounds))
        assert [x for x, _ in lines] == rounds
        assert [line for _, line in lines] == expected
        assert serialize_transcripts(rounds) == "".join(expected)

    def test_rounds_made_outside_batches_serialize_as_one_dump(self):
        config = config_b(d=4, approvals=(True, False), seed=3, rounds=90)
        batch = list(iter_rounds(config, "b"))
        serialize_transcripts(batch)  # the templates now carry their JSON
        bits, switches = batch[0].bits, batch[0].switches
        made = [
            simulate_round_b(config, bits, switches, np.random.default_rng(3), 4),
            *(t for _, t in enumerate_measurement_branches("b", config, bits, switches)),
            replace(batch[0], outcomes=(batch[0].outcomes[0] + 1, *batch[0].outcomes[1:])),
            replace(batch[1], diagnostics=dict(batch[1].diagnostics, residual_top_eigenvalue=0.5)),
            replace(batch[2], seed=11),
        ]
        expected = [json.dumps(x.to_record(), separators=(",", ":")) + "\n" for x in made]
        assert [line for _, line in transcript_lines(made)] == expected
        # A batch of another seed reuses the same templates' JSON.
        other = list(iter_rounds(replace(config, seed=4), "b"))
        assert serialize_transcripts(other) == "".join(
            json.dumps(x.to_record(), separators=(",", ":")) + "\n" for x in other
        )

    def test_copies_share_the_derived_fields_of_their_template(self):
        config = config_b(d=4, seed=3)
        ((_, templates),) = protocols._branches("b", config, [((0, 1, 1), (True, False))])
        template = templates[0]
        copy = protocols._with_round(template, 7, 12)
        assert copy._tail is template._tail
        assert copy.residual_ok is template.residual_ok is True
        serialize_transcripts([copy])
        assert template._tail and copy._tail is template._tail

    def test_replaced_diagnostics_get_their_own_tail_and_verdict(self):
        t = next(t for t in iter_rounds(config_b(d=3, seed=4, rounds=40), "b")
                 if not t.all_same)
        serialize_transcripts([t])
        x = replace(t, diagnostics=dict(t.diagnostics, residual_top_eigenvalue=0.5))
        assert x._tail == [] and x._tail is not t._tail
        assert t.residual_ok is True and x.residual_ok is False
        assert serialize_transcripts([x, t]) == "".join(
            json.dumps(y.to_record(), separators=(",", ":")) + "\n" for y in (x, t)
        )

    def test_hand_built_transcript_serializes_as_one_dump(self):
        t = ProtocolTranscript(
            protocol="a", seed=3, round_index=2, d=4, n=2, m=2, bits=(0, 1),
            switches=(True,), approvals=(True, True), outcomes=(0, 0), wins=(True,),
            final_keys=(0, 0), all_same=False, agreement=True,
            diagnostics={"opened_marginals": [[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
        )
        assert t.residual_ok is True
        assert serialize_transcripts([t]) == json.dumps(
            t.to_record(), separators=(",", ":")
        ) + "\n"

    def test_transcript_fields(self):
        t = run_protocol_a(config_a(d=4, seed=3), np.random.default_rng(3))
        assert len(t.bits) == 2
        assert len(t.switches) == 1
        assert len(t.final_keys) == 2
        assert t.agreement == (t.final_keys[0] == t.final_keys[1])


def test_protocol_statistics_script(tmp_path, capsys):
    load_script("protocol_statistics").run(tmp_path, seed=2718, rounds=20)
    lines = {
        path.name: len(path.read_text().splitlines())
        for path in tmp_path.glob("*.jsonl")
    }
    assert lines == {
        "protocol_a_d4_approve11.jsonl": 20,
        "protocol_a_d4_approve10.jsonl": 20,
        "protocol_b_d3_approve1.jsonl": 20,
        "protocol_b_d5_approve111.jsonl": 2,
    }
    # Each batch's summary ends with the residual check's verdict.
    blocks = capsys.readouterr().out.split("--- protocol")[1:]
    verdicts = [block.splitlines()[-2].strip() for block in blocks]
    assert verdicts == [
        "residual opened-register entanglement: pass",
        "entanglement diagnostic: skipped (declining validators or no usable rounds)",
        "residual party state pure with uniform marginals: pass",
        "residual party state pure with uniform marginals: pass",
    ]
