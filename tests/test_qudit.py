"""Core register, gate, operator, and measurement behavior."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    by_key,
    fidelity,
    is_isometry_on_domain,
    is_special_unitary,
    is_unitary_on_domain,
    measurement_branches,
    random_special_unitary,
    reference_special_unitary,
)

from qmonty.qudit import (
    ATOL,
    SUPPORT_ATOL,
    DomainError,
    LocalOperator,
    NonSpecialUnitaryWarning,
    Picked,
    StateVector,
    Strategy,
    SupportState,
    apply_local_operator,
    apply_strategy,
    check_register_size,
    flat_index,
    ghz_state,
    label_grid,
    labels_of_index,
    make_basis_state,
    marginal_eigenvalues,
    marginal_spectra,
    measure_slots,
    measurement_distribution,
    qft,
    random_special_unitaries,
    sum_d,
    support_basis_state,
    support_ghz_state,
    top_schmidt_weights,
    uniform_superposition_strategy,
)


class TestIndexConvention:
    def test_basis_state_examples(self):
        assert make_basis_state(3, (0, 0, 0)).amplitudes[0] == 1
        assert make_basis_state(3, (2, 1, 0)).amplitudes[21] == 1
        assert make_basis_state(2, (1, 1)).amplitudes[3] == 1

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            make_basis_state(3, (0, 3))

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip(self, data):
        d = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(1, 6))
        labels = tuple(data.draw(st.integers(0, d - 1)) for _ in range(n))
        assert labels_of_index(d, n, flat_index(d, labels)) == labels

    def test_rightmost_label_fastest(self):
        # |l1, l0> -> l0 + d * l1
        assert flat_index(4, (1, 2)) == 2 + 4 * 1


class TestStateVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, 2, np.ones(3, dtype=complex))

    def test_immutable_amplitudes(self):
        s = make_basis_state(2, (0,))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_tensor_order(self):
        left = make_basis_state(3, (2,))
        right = make_basis_state(3, (1, 0))
        assert left.tensor(right).amplitude((2, 1, 0)) == 1

    def test_amplitude_lookup(self):
        s = ghz_state(3, 2)
        assert s.amplitude((1, 1)) == pytest.approx(1 / math.sqrt(3))
        assert s.amplitude((1, 0)) == 0


def _random_support(rng, d, n, size):
    index = np.sort(rng.choice(d**n, size=size, replace=False))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return SupportState(d, n, index, amps / np.linalg.norm(amps))


def _assert_same_state(support, dense):
    assert isinstance(support, SupportState)
    assert np.abs(support.to_dense().amplitudes - dense.amplitudes).max() <= 1e-12


class TestSupportState:
    def test_validation(self):
        for index in ([1, 0], [1, 1], [-1], [4]):
            with pytest.raises(ValueError, match="sorted, unique and below 4"):
                SupportState(2, 2, index, np.ones(len(index)))
        with pytest.raises(ValueError, match="equal length"):
            SupportState(2, 2, [0, 1], [1.0])
        with pytest.raises(ValueError, match="budget"):
            SupportState(2, 23, [0], [1.0])

    def test_immutable_copy(self):
        index = np.array([0, 3])
        state = SupportState(2, 2, index, [1.0, 0.0])
        index[0] = 1
        assert state.index.tolist() == [0, 3]
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_constructors(self):
        ghz = support_ghz_state(3, 3)
        assert ghz.index.tolist() == [0, 13, 26]
        assert np.allclose(ghz.amplitudes, 1 / math.sqrt(3))
        basis = support_basis_state(3, (2, 1, 0))
        assert basis.index.tolist() == [21]
        assert basis.to_dense().amplitude((2, 1, 0)) == 1

    def test_tensor_matches_dense(self):
        left, right = support_basis_state(3, (2,)), support_ghz_state(3, 2)
        _assert_same_state(left.tensor(right), left.to_dense().tensor(right.to_dense()))
        with pytest.raises(ValueError, match="budget"):
            support_basis_state(8, (0,) * 4).tensor(support_basis_state(8, (0,) * 4))


class TestSupportMatchesDense:
    """Every state operation agrees on the two representations."""

    @pytest.mark.parametrize("seed", range(8))
    def test_operations(self, seed):
        rng = np.random.default_rng(seed)
        d, n = 3, 4
        state = _random_support(rng, d, n, int(rng.integers(1, 16)))
        dense = state.to_dense()
        slot = int(rng.integers(n))
        for strat in (random_special_unitary(d, rng), sum_d(d, 2)):
            _assert_same_state(
                apply_strategy(state, strat, slot), apply_strategy(dense, strat, slot)
            )
        for slot in range(n):
            assert marginal_eigenvalues(state, slot) == pytest.approx(
                marginal_eigenvalues(dense, slot), abs=1e-12
            )
        slots = tuple(int(s) for s in rng.permutation(n)[:2])
        branches = measurement_branches(state, slots)
        expected = measurement_branches(dense, slots)
        assert [b[1] for b in branches] == [b[1] for b in expected]
        for (prob, _, post), (ref_prob, _, ref_post) in zip(branches, expected):
            assert prob == pytest.approx(ref_prob, abs=1e-12)
            _assert_same_state(post, ref_post)
        outcome, post = measure_slots(state, slots, np.random.default_rng(seed))
        ref_outcome, ref_post = measure_slots(dense, slots, np.random.default_rng(seed))
        assert outcome == ref_outcome
        _assert_same_state(post, ref_post)

    @pytest.mark.parametrize("seed", range(8))
    def test_local_operator_with_collisions(self, seed):
        # Zero to three entries per input onto random outputs, so some inputs
        # have none, runs differ in length and outputs collide; the entries
        # come in random order.  A faint entry (amplitude SUPPORT_ATOL) off
        # the domain is not support on either representation; the last
        # domain holds exactly the state's own inputs, so only it lies off.
        rng = np.random.default_rng(seed)
        d, n = 3, 4
        state = _random_support(rng, d, n, int(rng.integers(1, 16)))
        src = rng.permutation(np.repeat(np.arange(d * d), rng.integers(0, 4, size=d * d)))
        amp = rng.normal(size=len(src)) + 1j * rng.normal(size=len(src))
        slots = tuple(int(s) for s in rng.permutation(n)[:2])

        def local_of(index):
            return index // d ** slots[0] % d * d + index // d ** slots[1] % d

        outside = np.setdiff1d(np.arange(d**n), state.index)
        local = local_of(outside)
        for mask in (
            np.ones(d * d, dtype=bool),
            rng.random(d * d) < 0.7,
            np.isin(np.arange(d * d), local_of(state.index)),
        ):
            op = LocalOperator(d, slots, src, rng.integers(d * d, size=len(src)), amp, mask)
            probes = [state]
            if not mask[local].all():
                faint = rng.choice(outside[~mask[local]])
                index = np.append(state.index, faint)
                order = np.argsort(index)
                amps = np.append(state.amplitudes, SUPPORT_ATOL)
                probes.append(SupportState(d, n, index[order], amps[order]))
            for probe in probes:
                try:
                    expected = apply_local_operator(probe.to_dense(), op)
                except DomainError as err:
                    with pytest.raises(DomainError) as sparse_err:
                        apply_local_operator(probe, op)
                    assert str(sparse_err.value) == str(err)
                else:
                    _assert_same_state(apply_local_operator(probe, op), expected)

    def test_zero_amplitudes_leave_the_support(self):
        # |0> + |1> and |0> - |1> on slot 0 cancel on one output each.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonSpecialUnitaryWarning)
            h = Strategy(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        plus = SupportState(2, 1, [0, 1], [1 / math.sqrt(2)] * 2)
        out = apply_strategy(plus, h, 0)
        assert out.index.tolist() == [0]
        assert out.amplitudes[0] == pytest.approx(1.0)


class TestOneStatePerSupportState:
    """A support state is one state: the batch-row axis, strategy lists and
    strategy picks are refused."""

    def test_two_dimensional_amplitudes_refused(self):
        with pytest.raises(ValueError, match="flat and of equal length"):
            SupportState(2, 2, [0, 3], np.ones((3, 2)))
        with pytest.raises(ValueError, match="flat and of equal length"):
            SupportState(2, 2, [0, 3], np.ones((1, 2)))

    def test_strategy_list_refused(self):
        state = SupportState(3, 2, [0, 4], np.ones(2) / math.sqrt(2))
        for target in (state, state.to_dense()):
            with pytest.raises(TypeError, match="one Strategy"):
                apply_strategy(target, [qft(3)], 0)
            with pytest.raises(TypeError, match="one Strategy"):
                apply_strategy(target, [qft(3), sum_d(3, 1)], 0)

    def test_strategy_pick_refused(self):
        pick = np.zeros(2, dtype=int)
        with pytest.raises(ValueError, match="a pick takes"):
            Picked((qft(3), sum_d(3, 1)), pick)
        state = SupportState(3, 2, [0, 4], np.ones(2) / math.sqrt(2))
        op = LocalOperator(3, (0,), [0, 1, 2], [1, 2, 0], np.ones(3), np.ones(3, bool))
        with pytest.raises(TypeError, match="one Strategy"):
            apply_strategy(state, Picked((op, None), pick), 0)

    def test_exactly_zero_entry_leaves_the_support(self):
        # |0> - |1> cancels on |0>, |0> + |1> on |1>; the other entry stays.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonSpecialUnitaryWarning)
            h = Strategy(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        minus = apply_strategy(SupportState(2, 1, [0, 1], np.array([1, -1]) / math.sqrt(2)), h, 0)
        assert minus.index.tolist() == [1]
        assert minus.amplitudes == pytest.approx([1])
        plus = apply_strategy(SupportState(2, 1, [0, 1], np.array([1, 1]) / math.sqrt(2)), h, 0)
        assert plus.index.tolist() == [0]
        # An entry stored as exactly zero leaves too; a faint one stays.
        for amps, kept in (([1.0, 0.0], [1]), ([1.0, 1e-300], [0, 1])):
            out = apply_strategy(SupportState(2, 1, [0, 1], amps), sum_d(2, 1), 0)
            assert out.index.tolist() == kept

    def test_domain_error_names_the_largest_offending_entry(self):
        op = LocalOperator(
            2, (1, 0), [0, 1, 2], [0, 1, 2], np.ones(3), [True, True, True, False],
            name="partial",
        )
        index = [0, 1, 3, 4 + 3]
        # |0,1,1> and |1,1,1> lie off the domain; |0,1,1> carries more.
        state = SupportState(2, 3, index, [0.0, 0.2, 0.6, 0.3])
        with pytest.raises(DomainError) as sparse:
            apply_local_operator(state, op)
        with pytest.raises(DomainError) as dense:
            apply_local_operator(state.to_dense(), op)
        assert str(sparse.value) == str(dense.value)
        assert "partial: basis state |0,1,1>" in str(sparse.value)
        # Off-domain entries at zero, or at most SUPPORT_ATOL, are no support.
        for faint in (0.0, SUPPORT_ATOL):
            apply_local_operator(SupportState(2, 3, index, [1.0, 0.5, faint, faint]), op)


class TestPicked:
    """A pair of operators applied in one pass, each entry through its
    pick's: a batch of keys (the top qudit) against its split-and-merge."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_split_and_merge(self, seed):
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
        cases = [
            ((first, second), lambda part, v: apply_local_operator(part, (first, second)[v])),
            ((None, second), lambda part, v: apply_local_operator(part, second) if v else part),
            ((first, None), lambda part, v: part if v else apply_local_operator(part, first)),
        ]
        for variants, step in cases:
            out = apply_local_operator(state, Picked(variants, choice[index // width]))
            want = by_key(state, width, choice, step)
            assert np.array_equal(out.index, want.index)
            assert np.array_equal(out.amplitudes, want.amplitudes)

    def test_refusals(self):
        op = LocalOperator(3, (1,), [0, 1, 2], [1, 2, 0], np.ones(3), np.ones(3, bool))
        other = LocalOperator(3, (0,), [0, 1, 2], [1, 2, 0], np.ones(3), np.ones(3, bool))
        pick = np.zeros(1, dtype=int)
        for variants in ((None, None), (op, qft(3)), (qft(3), None), (op,)):
            with pytest.raises(ValueError, match="a pick takes"):
                Picked(variants, pick)
        with pytest.raises(ValueError, match="same slots"):
            Picked((op, other), pick)
        state = support_basis_state(3, (0, 1))
        with pytest.raises(ValueError, match="one pick per support entry"):
            apply_local_operator(state, Picked((op, None), np.zeros(2, dtype=int)))
        with pytest.raises(ValueError, match="single operator"):
            apply_local_operator(state.to_dense(), Picked((op, None), pick))
        assert Picked((None, op), pick).name == "local operator or identity"

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_pick_values_other_than_0_and_1_refused(self, bad):
        # -1 would wrap around in the domain mask and 2 would index past it.
        op = LocalOperator(3, (0,), [0, 1, 2], [1, 2, 0], np.ones(3), np.ones(3, bool))
        for pick in ([bad], [0, bad], [1, bad, 0]):
            with pytest.raises(ValueError, match="0 or 1"):
                Picked((op, None), np.array(pick))


class TestGhz:
    def test_bell_state(self):
        s = ghz_state(2, 2)
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_d3_amplitudes(self):
        s = ghz_state(3, 2)
        expected = np.zeros(9, dtype=complex)
        expected[[0, 4, 8]] = 1 / math.sqrt(3)
        assert np.allclose(s.amplitudes, expected)

    @pytest.mark.parametrize("d,parties", [(2, 2), (3, 3), (5, 2), (4, 4)])
    def test_normalized(self, d, parties):
        assert abs(ghz_state(d, parties).norm - 1) < 1e-9

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ghz_state(1, 2)
        with pytest.raises(ValueError):
            ghz_state(3, 1)


class TestGates:
    def test_qft_d1(self):
        assert np.allclose(qft(1).entries, [[1]])

    def test_qft_d2_matrix(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(qft(2).entries, expected)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_qft_unitary(self, d):
        u = qft(d).entries
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-9)

    def test_sum_zero_is_identity(self):
        assert np.allclose(sum_d(3, 0).entries, np.eye(3))

    def test_sum_wraps(self):
        state = make_basis_state(3, (2,))
        out = apply_strategy(state, sum_d(3, 1), 0)
        assert out.amplitude((0,)) == 1

    def test_sum_matrix_element(self):
        assert sum_d(5, 2).entries[4, 2] == 1

    def test_sum_shift_range(self):
        with pytest.raises(ValueError):
            sum_d(3, 3)
        with pytest.raises(ValueError):
            sum_d(3, -1)

    def test_superposition_strategy_columns(self):
        for d in (3, 5):
            for r in range(1, d + 1):
                col = uniform_superposition_strategy(d, r).entries[:, 0]
                expected = np.zeros(d)
                expected[:r] = 1 / math.sqrt(r)
                assert np.allclose(col, expected)


class TestStrategyType:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            Strategy(2, np.ones((2, 2)))

    def test_non_special_warns(self):
        mat = np.diag([1.0, -1.0])
        with pytest.warns(NonSpecialUnitaryWarning):
            Strategy(2, mat)

    def test_special_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Strategy(2, np.eye(2))

    def test_constructor_copies_its_input(self):
        arr = np.eye(2, dtype=complex)
        strategy = Strategy(2, arr)
        arr[0, 0] = 5
        assert np.array_equal(strategy.entries, np.eye(2))
        assert not strategy.entries.flags.writeable

    def test_stack_rejects_one_non_unitary_matrix(self):
        mats = np.stack([np.eye(3), np.diag([1.0, 2.0, 0.5]), np.eye(3)]).astype(complex)
        with pytest.raises(ValueError, match="strategy matrix is not unitary"):
            Strategy._check(mats)

    def test_stack_warns_once_per_determinant_off_one(self):
        mats = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)]).astype(complex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Strategy._check(mats)
        assert [w.category for w in caught] == [NonSpecialUnitaryWarning]
        assert "-1" in str(caught[0].message)

    def test_unitarity_bound_is_np_allclose(self):
        # The check is np.allclose(gram, I, atol=ATOL): ATOL off the diagonal
        # and ATOL + 1e-5 on it, with NaN and inf failing.  Each edge matrix
        # sits between two identities, so the bound holds over the stack.
        def off_diagonal(x):
            mat = np.eye(3, dtype=complex)
            mat[0, 1] = x  # gram[0, 1] is x exactly
            return mat

        def diagonal(r):
            return np.diag([r, 1.0, 1.0]).astype(complex)

        on = math.sqrt(1 + ATOL + 1e-5)
        edges = [
            off_diagonal(x)
            for x in (ATOL, np.nextafter(ATOL, 1), -ATOL, ATOL * (1 - 1e-9), ATOL * (1 + 1e-9),
                      ATOL * (1 + 1j) / math.sqrt(2), 1j * np.nextafter(ATOL, 1))
        ]
        edges += [diagonal(r) for r in (on, 1 / on)]
        edges += [diagonal(on + step * np.spacing(on)) for step in range(-4, 5)]
        edges += [diagonal(value) for value in (np.nan, np.inf)]
        edges += [off_diagonal(value) for value in (np.nan, np.inf, complex(np.inf, np.nan))]
        verdicts = []
        for mat in edges:
            mats = np.stack([np.eye(3), mat, np.eye(3)]).astype(complex)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gram = mats.conj().swapaxes(-1, -2) @ mats
                close = np.allclose(gram, np.eye(3), atol=ATOL)
                try:
                    Strategy._check(mats)
                except ValueError as err:
                    assert str(err) == "strategy matrix is not unitary"
                    verdicts.append((close, False))
                else:
                    verdicts.append((close, True))
        assert [close for close, _ in verdicts] == [ok for _, ok in verdicts]
        # Both sides of each edge occur, and NaN and inf fail.
        assert verdicts[:3] == [(True, True), (False, False), (True, True)]
        assert {ok for ok, _ in verdicts[9:18]} == {True, False}
        assert not any(ok for ok, _ in verdicts[-5:])


class TestIsSpecialUnitary:
    def test_identity(self):
        assert is_special_unitary(np.eye(4))

    def test_qft2_unitary_but_not_special(self):
        u = qft(2).entries
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-9)
        # det([[1,1],[1,-1]]/sqrt(2)) = -1
        assert not is_special_unitary(u)

    def test_zero_matrix(self):
        assert not is_special_unitary(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_special_unitary(np.ones((2, 3)))


class TestApplyStrategy:
    def test_identity_fixes_state(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(2, 3, amps / np.linalg.norm(amps))
        ident = Strategy(2, np.eye(2))
        out = apply_strategy(state, ident, 1)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_shift_on_slot_a(self):
        state = make_basis_state(3, (0, 0, 0))
        out = apply_strategy(state, sum_d(3, 1), 0)
        assert out.amplitude((0, 0, 1)) == 1

    def test_qft_column_zero(self):
        state = make_basis_state(3, (0, 0, 0))
        out = apply_strategy(state, qft(3), 0)
        for a in range(3):
            assert out.amplitude((0, 0, a)) == pytest.approx(1 / math.sqrt(3))

    def test_errors(self):
        state = make_basis_state(3, (0, 0))
        with pytest.raises(ValueError):
            apply_strategy(state, qft(3), 2)
        with pytest.raises(ValueError):
            apply_strategy(state, qft(2), 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unitaries_preserve_inner_products(self, seed):
        rng = np.random.default_rng(seed)
        d, n = 3, 3
        def rand_state():
            z = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            return StateVector(d, n, z / np.linalg.norm(z))
        u = random_special_unitary(d, rng)
        slot = int(rng.integers(n))
        s1, s2 = rand_state(), rand_state()
        before = s1.overlap(s2)
        after = apply_strategy(s1, u, slot).overlap(apply_strategy(s2, u, slot))
        assert abs(before - after) < 1e-9


def _identity_operator(d, slots):
    rows = np.arange(d ** len(slots))
    return LocalOperator(
        d, slots, rows, rows, np.ones(len(rows)), np.ones(len(rows), dtype=bool),
        name="identity",
    )


class TestLocalOperator:
    def test_identity_action(self):
        state = ghz_state(3, 3)
        out = apply_local_operator(state, _identity_operator(3, (2, 0)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_domain_error_names_label(self):
        op = LocalOperator(2, (0,), [0], [1], [1.0 + 0j], [True, False], name="raise-me")
        state = make_basis_state(2, (0, 1))
        with pytest.raises(DomainError, match=r"raise-me.*\|0,1>"):
            apply_local_operator(state, op)

    def test_isometry_and_unitarity_checks(self):
        op = _identity_operator(3, (1, 0))
        assert is_isometry_on_domain(op)
        assert is_unitary_on_domain(op)

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValueError):
            LocalOperator(2, (0, 0), [], [], [], [True] * 4)


class TestSizeGuard:
    def test_budget_boundary(self):
        assert check_register_size(7, 7) == 823_543  # d = 7, m = 5, n = 2
        with pytest.raises(ValueError, match="16,777,216 amplitudes"):
            check_register_size(8, 8)  # d = 8, m = 6, n = 2

    def test_states_refuse_oversized_registers(self):
        with pytest.raises(ValueError, match="budget"):
            make_basis_state(8, (0,) * 8)
        with pytest.raises(ValueError, match="budget"):
            ghz_state(8, 8)
        half = make_basis_state(8, (0,) * 4)
        with pytest.raises(ValueError, match="budget"):
            half.tensor(half)
        with pytest.raises(ValueError, match="budget"):
            StateVector(2, 23, np.zeros(1))

    def test_label_grid(self):
        assert label_grid(3, 2).T.tolist() == [
            list(labels_of_index(3, 2, row)) for row in range(9)
        ]
        with pytest.raises(ValueError, match="budget"):
            label_grid(8, 8)


class TestMeasurement:
    def test_basis_state_deterministic(self):
        state = make_basis_state(3, (2, 1, 0))
        outcome, post = measure_slots(state, (2, 1, 0), np.random.default_rng(0))
        assert outcome == (2, 1, 0)
        assert np.allclose(post.amplitudes, state.amplitudes)

    def test_ghz_collapse(self):
        rng = np.random.default_rng(5)
        outcome, post = measure_slots(ghz_state(2, 2), (0,), rng)
        assert outcome in ((0,), (1,))
        expected = make_basis_state(2, (outcome[0],) * 2)
        assert np.allclose(post.amplitudes, expected.amplitudes)

    def test_seeded_reproducibility(self):
        state = ghz_state(3, 2)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([measure_slots(state, (0, 1), rng)[0] for _ in range(50)])
        assert runs[0] == runs[1]

    def test_marginal_frequencies_within_5_sigma(self):
        rng = np.random.default_rng(42)
        z = np.random.default_rng(7).normal(size=9) + 1j * np.random.default_rng(8).normal(size=9)
        state = StateVector(3, 2, z / np.linalg.norm(z))
        probs = (np.abs(state.amplitudes.reshape(3, 3)) ** 2).sum(axis=0)  # slot 0
        samples = 10_000
        counts = np.zeros(3)
        for _ in range(samples):
            outcome, _ = measure_slots(state, (0,), rng)
            counts[outcome[0]] += 1
        for value in range(3):
            sigma = math.sqrt(samples * probs[value] * (1 - probs[value]))
            assert abs(counts[value] - samples * probs[value]) <= 5 * sigma

    def test_zero_state_refused(self):
        for state in (StateVector(2, 2, np.zeros(4)), SupportState(2, 2, [1], [0.0])):
            with pytest.raises(ValueError, match="cannot measure a zero state"):
                measure_slots(state, (0,), np.random.default_rng(0))
            with pytest.raises(ValueError, match="cannot measure a zero state"):
                measurement_distribution(state, (0,))

    def test_support_weighs_only_reached_outcomes(self):
        # Protocol A's register at d = 4, n = 8: measuring the 8 party labels
        # has 4^8 outcomes, of which this support reaches two.
        d, n = 4, 10
        labels = [(0, 0, *([1, 2] * 3), 1, 3), (0, 0, *([2, 1] * 3), 2, 0)]
        index = sorted(flat_index(d, lab) for lab in labels)
        state = SupportState(d, n, index, [0.6, 0.8])
        slots = tuple(range(8))
        p, collapse = measurement_distribution(state, slots)
        # Outcomes ascend by local index, in which slot 0 is most significant.
        assert p.tolist() == pytest.approx([0.64, 0.36], abs=1e-15)
        assert collapse(0)[0] == tuple(reversed(labels[1][2:]))
        dense = state.to_dense()
        assert len(measurement_distribution(dense, slots)[0]) == d**8
        for seed in range(3):
            outcome, post = measure_slots(state, slots, np.random.default_rng(seed))
            ref_outcome, ref_post = measure_slots(dense, slots, np.random.default_rng(seed))
            assert outcome == ref_outcome
            _assert_same_state(post, ref_post)

    def test_errors(self):
        state = ghz_state(2, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            measure_slots(state, (), rng)
        with pytest.raises(ValueError):
            measure_slots(state, (0, 0), rng)
        with pytest.raises(ValueError):
            measure_slots(state, (2,), rng)


class TestMarginals:
    def test_product_state_pure_marginal(self):
        state = make_basis_state(4, (3, 1))
        assert marginal_eigenvalues(state, 0) == pytest.approx([1, 0, 0, 0])

    @pytest.mark.parametrize("d,parties", [(2, 2), (3, 2), (4, 3)])
    def test_ghz_maximally_mixed(self, d, parties):
        for slot in range(parties):
            vals = marginal_eigenvalues(ghz_state(d, parties), slot)
            assert vals == pytest.approx([1 / d] * d)
            assert abs(sum(vals) - 1) < 1e-9

    def test_separable_superposition(self):
        amps = np.zeros(4, dtype=complex)
        amps[[0, 1]] = 1 / math.sqrt(2)  # (|00> + |01>)/sqrt(2)
        state = StateVector(2, 2, amps)
        assert marginal_eigenvalues(state, 1) == pytest.approx([1, 0])


class TestStackedDiagnostics:
    """The stacked diagnostics equal, bit for bit, the same computation on
    each state alone, whatever the other states in the stack look like."""

    @staticmethod
    def _states(d=3, n=3, count=40, seed=0):
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(count):
            # Supports from one entry (one-column marginals) to many.
            size = int(rng.integers(1, 12))
            index = np.sort(rng.choice(d**n, size=size, replace=False))
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            states.append(SupportState(d, n, index, amps / np.linalg.norm(amps)))
        for slot in range(n):
            # All of the slot's labels next to one fixed rest: one column.
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            index = 1 + np.arange(d) * d**slot if slot else np.arange(d) + d
            states.append(SupportState(d, n, index, amps / np.linalg.norm(amps)))
        return states

    @staticmethod
    def _stacked(states):
        """The states as one support state, state r at r * d**n and up."""
        d, n = states[0].d, states[0].num_qudits
        return SupportState(
            d, n + len(np.base_repr(len(states) - 1, d)),
            np.concatenate([r * d**n + s.index for r, s in enumerate(states)]),
            np.concatenate([s.amplitudes for s in states]),
        )

    @staticmethod
    def _matrix(state, row_of, col_of):
        rows, row = np.unique(row_of(state.index), return_inverse=True)
        cols, col = np.unique(col_of(state.index), return_inverse=True)
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        mat[row, col] = state.amplitudes
        return mat

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_marginal_spectra(self, slot):
        states = self._states()
        stacked = marginal_spectra(self._stacked(states), slot, 3, len(states))
        assert stacked.shape == (len(states), 3)
        for state, vals in zip(states, stacked):
            label = state.index // 3**slot % 3
            mat = np.zeros((3, 3**3), dtype=complex)
            mat[label, state.index - label * 3**slot] = state.amplitudes
            mat = mat[:, np.abs(mat).sum(axis=0) > 0]
            rho = mat @ mat.conj().T
            expected = np.linalg.eigvalsh(rho / np.trace(rho).real)[::-1]
            assert np.array_equal(vals, expected)
            assert vals.tolist() == marginal_eigenvalues(state, slot)

    @pytest.mark.parametrize("low", [1, 2])
    def test_top_schmidt_weights(self, low):
        states = self._states(seed=1)
        stacked = top_schmidt_weights(self._stacked(states), low, 3, len(states))
        assert stacked.shape == (len(states),)
        for state, weight in zip(states, stacked):
            mat = self._matrix(state, lambda i: i // 3**low, lambda i: i % 3**low)
            s2 = np.linalg.svd(mat, compute_uv=False) ** 2
            assert weight == s2.max() / s2.sum()

    def test_refusals(self):
        states = self._states(count=2)
        stacked = self._stacked(states)
        with pytest.raises(ValueError, match="out of range"):
            marginal_spectra(stacked, 3, 3, len(states))
        with pytest.raises(ValueError, match="cannot cut"):
            top_schmidt_weights(stacked, 3, 3, len(states))


class TestGhzCounterStrategy:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_conjugate_pair_fixes_ghz(self, d):
        rng = np.random.default_rng(d)
        base = ghz_state(d, 2)
        for _ in range(20):
            u = random_special_unitary(d, rng)
            out = apply_strategy(base, u.conjugated(), 0)
            out = apply_strategy(out, u, 1)
            assert fidelity(out, base) >= 1 - 1e-9


class TestRandomSpecialUnitary:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_is_special_unitary(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            assert is_special_unitary(random_special_unitary(d, rng).entries, tol=1e-9)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_stack_equals_draws_one_at_a_time(self, d):
        for seed in (0, 7, 2**40 + 3):
            for count in (0, 1, 2, 7, 100):
                stacked_rng = np.random.default_rng(seed)
                single_rng = np.random.default_rng(seed)
                stacked = random_special_unitaries(d, count, stacked_rng)
                singles = [reference_special_unitary(d, single_rng) for _ in range(count)]
                assert [mat.tobytes() for mat in stacked] == [
                    s.entries.tobytes() for s in singles
                ]
                assert stacked_rng.bit_generator.state == single_rng.bit_generator.state

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_returns_one_read_only_stack(self, count):
        stack = random_special_unitaries(4, count, np.random.default_rng(count))
        assert type(stack) is np.ndarray
        assert stack.shape == (count, 4, 4) and stack.dtype == complex
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0

    def test_non_unitary_stack_refused(self, monkeypatch):
        # Strategy._check runs on the drawn stack: a QR whose Q is scaled
        # by 2 must fail it.
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda z: (2 * qr(z)[0], qr(z)[1]))
        with pytest.raises(ValueError, match="strategy matrix is not unitary"):
            random_special_unitaries(3, 5, np.random.default_rng(0))
