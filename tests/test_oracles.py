"""Closed-form payoff formulas and their internal consistency."""

import itertools
import math

import numpy as np
import pytest
from conftest import (
    classical_displacement_oracle,
    lambda_term,
    random_special_unitary,
    random_strategies,
    reference_entangled_curves,
    reference_payoff_entangled,
    reference_payoff_separable,
    reference_separable_curves,
)

import qmonty.oracles
from qmonty.game import GameConfig, form_curves
from qmonty.oracles import (
    classical_p_ns,
    classical_p_s,
    default_gammas,
    displacement_curves,
    displacement_forms,
    entangled_curves,
    entangled_forms,
    gamma_max,
    payoff_displacement,
    payoff_entangled,
    payoff_max,
    payoff_qft_separable,
    payoff_separable,
    separable_curves,
    separable_forms,
)
from qmonty.qudit import (
    DomainError,
    Strategy,
    qft,
    sum_d,
)


class TestClassicalProbabilities:
    def test_p_ns(self):
        assert classical_p_ns(3) == pytest.approx(1 / 3)
        assert classical_p_ns(2) == pytest.approx(1 / 2)
        assert classical_p_ns(10) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            classical_p_ns(1)

    def test_p_s(self):
        assert classical_p_s(3, 1) == pytest.approx(2 / 3)
        assert classical_p_s(5, 1) == pytest.approx(4 / 15)
        assert classical_p_s(4, 0) == pytest.approx(1 / 4)
        with pytest.raises(ValueError):
            classical_p_s(3, 2)


class TestLambdaTerm:
    def test_examples(self):
        assert lambda_term(0, (), 3) == 1
        assert lambda_term(0, (2,), 3) == 2
        assert lambda_term(1, (0,), 3) == 2

    def test_minimality(self):
        for d in (3, 4, 5):
            for m in range(0, d - 1):
                for opened in itertools.permutations(range(d), m):
                    for j in range(d):
                        k = lambda_term(j, opened, d)
                        assert (j - k) % d not in opened
                        for smaller in range(1, k):
                            assert (j - smaller) % d in opened

    def test_no_free_door(self):
        with pytest.raises(DomainError):
            lambda_term(0, (0, 1, 2), 3)


class TestSeparablePayoff:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_sum_player_recovers_classical_mixture(self, d):
        for m in range(0, d - 1):
            pns, ps = classical_p_ns(d), classical_p_s(d, m)
            for i in range(d):
                for g in (0.0, 0.4, 1.1, math.pi / 2):
                    cfg = GameConfig(d, m, 2, g)
                    value = payoff_separable(qft(d), sum_d(d, i), cfg)
                    expected = pns * math.cos(g) ** 2 + ps * math.sin(g) ** 2
                    assert value == pytest.approx(expected, abs=1e-12)

    def test_qft_player_at_gamma_zero(self):
        rng = np.random.default_rng(0)
        for d, m in ((3, 1), (5, 2)):
            cfg = GameConfig(d, m, 2, 0.0)
            for _ in range(5):
                A = random_special_unitary(d, rng)
                assert payoff_separable(A, qft(d), cfg) == pytest.approx(
                    classical_p_ns(d), abs=1e-12
                )

    def test_guaranteed_win(self):
        cfg = GameConfig(3, 1, 2, gamma_max(3, 1))
        assert payoff_separable(qft(3), qft(3), cfg) == pytest.approx(1, abs=1e-12)

    def test_requires_two_parties(self):
        with pytest.raises(ValueError):
            payoff_separable(qft(5), qft(5), GameConfig(5, 1, 3, 0.0))

    @pytest.mark.parametrize("d,m", [(3, 1), (4, 2), (5, 1), (6, 3)])
    def test_host_strategy_independence_with_uniform_player(self, d, m):
        rng = np.random.default_rng(d * 10 + m)
        cfg = GameConfig(d, m, 2, 0.9)
        values = [
            payoff_separable(random_special_unitary(d, rng), qft(d), cfg)
            for _ in range(20)
        ]
        assert max(values) - min(values) < 1e-9


class TestPayoffsMatchEnumeration:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_random_pairs_every_m(self, d):
        rng = np.random.default_rng(500 + d)
        for m in range(0, d - 1):
            for _ in range(3):
                A = random_special_unitary(d, rng)
                B = random_special_unitary(d, rng)
                for g in default_gammas(5):
                    cfg = GameConfig(d, m, 2, g)
                    assert payoff_separable(A, B, cfg) == pytest.approx(
                        reference_payoff_separable(A, B, cfg), abs=1e-12
                    )
                    assert payoff_entangled(A, B, cfg) == pytest.approx(
                        reference_payoff_entangled(A, B, cfg), abs=1e-12
                    )

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_curves_every_pair_and_angle(self, d):
        rng = np.random.default_rng(700 + d)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng))
            for _ in range(3)
        ] + [(qft(d), sum_d(d, 1))]
        gammas = [0.0, *rng.uniform(0.0, math.pi / 2, 3), math.pi / 2]
        for m in range(0, d - 1):
            cfg = GameConfig(d, m, 2)
            sep = separable_curves(cfg, pairs, gammas)
            ent = entangled_curves(cfg, pairs, gammas)
            assert sep.shape == ent.shape == (len(pairs), len(gammas))
            for p, (A, B) in enumerate(pairs):
                for i, g in enumerate(gammas):
                    cfg_g = GameConfig(d, m, 2, g)
                    assert sep[p, i] == pytest.approx(
                        reference_payoff_separable(A, B, cfg_g), abs=1e-12
                    )
                    assert ent[p, i] == pytest.approx(
                        reference_payoff_entangled(A, B, cfg_g), abs=1e-12
                    )


class TestCurveOracles:
    @pytest.mark.parametrize("curves", [separable_curves, entangled_curves])
    def test_no_pairs(self, curves):
        values = curves(GameConfig(4, 1, 2), [], [0.0, 0.3, 1.2])
        assert values.shape == (0, 3)

    @pytest.mark.parametrize("curves", [separable_curves, entangled_curves])
    def test_no_angles(self, curves):
        values = curves(GameConfig(4, 1, 2), [(qft(4), qft(4))] * 2, [])
        assert values.shape == (2, 0)

    @pytest.mark.parametrize("curves", [separable_curves, entangled_curves])
    def test_wrong_dimension_raises(self, curves):
        cfg = GameConfig(4, 1, 2)
        with pytest.raises(ValueError, match="dimension"):
            curves(cfg, [(qft(4), qft(4)), (qft(4), qft(5))], [0.0])
        with pytest.raises(ValueError, match="dimension"):
            curves(cfg, [(qft(3), qft(3))], [0.0])

    @pytest.mark.parametrize("forms", [separable_forms, entangled_forms])
    def test_unchecked_matrices_refused(self, forms):
        # A bare matrix has not passed Strategy's unitarity check.
        with pytest.raises(TypeError, match="Strategy objects"):
            forms(4, [(qft(4).entries, qft(4))])

    @pytest.mark.parametrize("curves", [separable_curves, entangled_curves])
    def test_requires_two_parties(self, curves):
        with pytest.raises(ValueError):
            curves(GameConfig(5, 1, 3), [(qft(5), qft(5))], [0.0])

    def test_entries_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(11)
        d, m = 5, 2
        pairs = [(random_special_unitary(d, rng), random_special_unitary(d, rng))
                 for _ in range(4)]
        gammas = list(default_gammas(7))
        cfg = GameConfig(d, m, 2)
        sep = separable_curves(cfg, pairs, gammas)
        ent = entangled_curves(cfg, pairs, gammas)
        for p, (A, B) in enumerate(pairs):
            for i, g in enumerate(gammas):
                assert payoff_separable(A, B, GameConfig(d, m, 2, g)) == sep[p, i]
                assert payoff_entangled(A, B, GameConfig(d, m, 2, g)) == ent[p, i]

    def test_entangled_entries_do_not_depend_on_operand_identity(self):
        # numpy computes A @ A.T by a symmetric product that rounds unlike
        # the general one: the same strategy as one object or two must give
        # the same curve, bit for bit.
        gammas = list(default_gammas(31))
        for d, m in ((5, 2), (6, 3), (7, 5)):
            cfg = GameConfig(d, m, 2)
            A = qft(d)
            rng = np.random.default_rng(d)
            R = random_special_unitary(d, rng)
            same = entangled_curves(cfg, [(A, A), (R, R)], gammas)
            apart = entangled_curves(
                cfg, [(A, qft(d)), (R, Strategy(d, R.entries))], gammas
            )
            assert np.array_equal(same, apart)


class TestForms:
    """The oracles' (kk, ss, ks) triples over every m, against the term
    grid [pair, gamma, j, k - 1] that squares each term as it stands."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_curves_equal_the_term_grid(self, d):
        rng = np.random.default_rng(900 + d)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng))
            for _ in range(20)
        ] + [(qft(d), qft(d)), (qft(d), sum_d(d, 1)), (sum_d(d, 1), sum_d(d, d - 1))]
        gammas = default_gammas(101)
        families = (
            (separable_forms, reference_separable_curves),
            (entangled_forms, reference_entangled_curves),
        )
        for forms, reference in families:
            triple = forms(d, pairs)
            assert [f.shape for f in triple] == [(len(pairs), d - 1)] * 3
            curves = form_curves(*triple, gammas)
            for m in range(d - 1):
                np.testing.assert_allclose(
                    curves[:, m], reference(GameConfig(d, m, 2), pairs, gammas),
                    rtol=0, atol=1e-14,
                )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_rows_equal_one_row_calls(self, d):
        # Each pair's sums run alone, so a batch does not change a bit.
        drawn = random_strategies(d, 100, np.random.default_rng(d))
        pairs = list(zip(drawn[::2], drawn[1::2])) + [(qft(d), qft(d))]
        for forms, cases in (
            (separable_forms, pairs), (entangled_forms, pairs), (displacement_forms, range(d))
        ):
            cases = list(cases)
            triple = forms(d, cases)
            for r, case in enumerate(cases):
                for whole, alone in zip(triple, forms(d, [case])):
                    assert np.array_equal(whole[r], alone[0])

    def test_no_pairs(self):
        for forms in (separable_forms, entangled_forms, displacement_forms):
            assert [f.shape for f in forms(5, [])] == [(0, 4)] * 3

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_displacement_forms(self, d):
        # Keeping wins only at k = 0, switching at the brute-force rate, and
        # the two never interfere.
        p_ns, p_s, cross = displacement_forms(d, range(d))
        assert np.array_equal(p_ns, [[1.0] * (d - 1)] + [[0.0] * (d - 1)] * (d - 1))
        assert not cross.any()
        for k in range(d):
            for m in range(d - 1):
                assert p_s[k, m] == pytest.approx(
                    classical_displacement_oracle(d, m, k), abs=1e-15
                )


class TestQftPlayerFormula:
    def test_endpoints(self):
        for d, m in ((3, 1), (5, 2), (6, 0)):
            assert payoff_qft_separable(GameConfig(d, m, 2, 0.0)) == pytest.approx(
                classical_p_ns(d)
            )
            assert payoff_qft_separable(
                GameConfig(d, m, 2, math.pi / 2)
            ) == pytest.approx(classical_p_s(d, m))

    def test_quarter_angle_value(self):
        value = payoff_qft_separable(GameConfig(3, 1, 2, math.pi / 4))
        assert value == pytest.approx(0.5 + math.sqrt(2) / 3, abs=1e-12)
        assert value == pytest.approx(0.9714045207910317, abs=1e-12)


class TestGammaMax:
    def test_three_doors(self):
        assert gamma_max(3, 1) == pytest.approx(math.atan(math.sqrt(2)))
        assert gamma_max(3, 1) == pytest.approx(0.9553166181245093)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_no_opened_doors_gives_quarter_pi(self, d):
        assert gamma_max(d, 0) == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_payoff_max_is_one_at_full_opening(self, d):
        assert payoff_max(d, d - 2) == pytest.approx(1, abs=1e-12)

    def test_payoff_max_attained_by_formula(self):
        for d, m in ((3, 1), (4, 1), (5, 3), (6, 2)):
            at_max = payoff_qft_separable(GameConfig(d, m, 2, gamma_max(d, m)))
            assert at_max == pytest.approx(payoff_max(d, m), abs=1e-12)
            assert at_max > classical_p_s(d, m)


class TestEntangledPayoff:
    @pytest.mark.parametrize("d", [3, 5])
    def test_double_qft_interferes_to_classical_mixture_odd_d(self, d):
        for m in range(0, d - 1):
            pns, ps = classical_p_ns(d), classical_p_s(d, m)
            for g in default_gammas(21):
                cfg = GameConfig(d, m, 2, g)
                value = payoff_entangled(qft(d), qft(d), cfg)
                expected = pns * math.cos(g) ** 2 + ps * math.sin(g) ** 2
                assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("d", [4, 6])
    def test_double_qft_doubles_correlation_for_even_d(self, d):
        # The Fourier pair maps the shared state onto sum_j |j, -j>, an equal
        # mixture of label displacements 2j mod d.  For even d these are the
        # even residues, each twice, so both branches change: the keep
        # payoff is 2/d, not 1/d, and the switch payoff is the average of
        # the displacement win rates over 2j mod d, not P_s.  The classical
        # mixture is recovered for odd d only.  The full-state pipeline
        # reproduces these values exactly (see the equivalence suite).
        displacements = [2 * j % d for j in range(d)]
        for m in range(0, d - 1):
            keep = payoff_entangled(qft(d), qft(d), GameConfig(d, m, 2, 0.0))
            assert keep == pytest.approx(2 / d, abs=1e-12)
            assert abs(keep - classical_p_ns(d)) > 1e-2
            switch = payoff_entangled(qft(d), qft(d), GameConfig(d, m, 2, math.pi / 2))
            expected = sum(
                classical_displacement_oracle(d, m, k) for k in displacements
            ) / d
            assert switch == pytest.approx(expected, abs=1e-12)
            assert abs(switch - classical_p_s(d, m)) > 1e-2

    def test_perfect_correlation_endpoints(self):
        ident = Strategy(4, np.eye(4))
        assert payoff_entangled(ident, ident, GameConfig(4, 2, 2, 0.0)) == pytest.approx(1)
        assert payoff_entangled(
            ident, ident, GameConfig(4, 2, 2, math.pi / 2)
        ) == pytest.approx(0, abs=1e-12)


class TestDisplacementPayoff:
    def test_fig4_values_match_independent_oracle(self):
        d, m = 6, 3
        frozen = (0.0, 0.0, 0.25, 0.5, 0.75, 1.0)
        for k, expected in enumerate(frozen):
            assert classical_displacement_oracle(d, m, k) == pytest.approx(expected)
            cfg = GameConfig(d, m, 2, math.pi / 2)
            assert payoff_displacement(k, cfg) == pytest.approx(expected, abs=1e-12)

    def test_unreachable_gap_is_zero_for_all_gamma(self):
        for g in default_gammas(11):
            assert payoff_displacement(1, GameConfig(6, 3, 2, g)) == 0

    def test_zero_displacement(self):
        assert payoff_displacement(0, GameConfig(6, 3, 2, 0.0)) == pytest.approx(1)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_formula_matches_oracle_everywhere(self, d):
        for m in range(0, d - 1):
            for k in range(d):
                cfg = GameConfig(d, m, 2, math.pi / 2)
                assert payoff_displacement(k, cfg) == pytest.approx(
                    classical_displacement_oracle(d, m, k), abs=1e-12
                )

    def test_boundary_case_factorial(self):
        # k = d - m - 1 hits 0! in the denominator and needs no special case.
        d, m = 6, 3
        k = d - m - 1
        assert payoff_displacement(k, GameConfig(d, m, 2, math.pi / 2)) == pytest.approx(
            classical_displacement_oracle(d, m, k)
        )

    def test_range_check(self):
        with pytest.raises(ValueError):
            payoff_displacement(6, GameConfig(6, 3, 2, 0.0))
        with pytest.raises(ValueError, match="displacement -1"):
            displacement_curves(GameConfig(6, 3, 2), [0, -1], [0.0])

    def test_forms_equal_the_formula_and_are_built_once(self, monkeypatch):
        def formula(d, m, k):
            if k >= d - m - 1 and k >= 1:
                return (math.factorial(m) * math.factorial(k - 1)
                        / (math.factorial(m + k + 1 - d) * math.factorial(d - 2)))
            return 0.0

        def check_every_entry():
            for d in range(2, 13):
                p_ns, p_s, cross = displacement_forms(d, range(d))
                assert np.array_equal(p_ns, [[float(k == 0)] * (d - 1) for k in range(d)])
                assert np.array_equal(
                    p_s, [[formula(d, m, k) for m in range(d - 1)] for k in range(d)]
                )
                assert not cross.any()
                for k in range(d):
                    one = displacement_forms(d, [k])
                    assert all(np.array_equal(f[k], g[0]) for f, g in zip((p_ns, p_s), one))

        qmonty.oracles._switch_row.cache_clear()
        check_every_entry()

        # A later call reads the kept rows: no factorial is evaluated again.
        def no_factorial(x):
            raise AssertionError("displacement_forms rebuilt a row")

        monkeypatch.setattr(qmonty.oracles, "_factorial", no_factorial)
        check_every_entry()

    def test_ks_must_be_integers(self):
        displacement_forms(5, [1])  # a kept row must not answer for 1.0
        with pytest.raises(TypeError):
            displacement_forms(5, [1.0])
        # k = 0 reads no factorial, so a large d keeps its kept-door row.
        p_ns, p_s, _ = displacement_forms(30, [0])
        assert p_ns.tolist() == [[1.0] * 29] and not p_s.any()

    @staticmethod
    def scalar_displacement(k, config):
        """The scalar formula, step by step, as the one-angle oracle took it."""
        d, m, g = config.d, config.m, config.gamma
        p_ns_k = 1.0 if k == 0 else 0.0
        p_s_k = 0.0
        if k >= d - m - 1 and k >= 1:
            p_s_k = (
                math.factorial(m) * math.factorial(k - 1)
                / (math.factorial(m + k + 1 - d) * math.factorial(d - 2))
            )
        return p_ns_k * math.cos(g) ** 2 + p_s_k * math.sin(g) ** 2

    @pytest.mark.parametrize(
        "gammas", [(0.0, math.pi / 6, math.pi / 4, math.pi / 2), tuple(default_gammas(101))]
    )
    def test_curves_equal_scalar_formula_on_verify_grid(self, gammas):
        for d in range(2, 7):
            for m in range(d - 1):
                curves = displacement_curves(GameConfig(d, m, 2), range(d), gammas)
                scalar = [
                    [self.scalar_displacement(k, GameConfig(d, m, 2, g)) for g in gammas]
                    for k in range(d)
                ]
                assert np.array_equal(curves, scalar)
                # An entry does not depend on the other ks and angles asked for.
                part = displacement_curves(GameConfig(d, m, 2), range(1, d), gammas[2:])
                assert np.array_equal(curves[1:, 2:], part)


class TestClassicalBound:
    @pytest.mark.parametrize("d,m", [(3, 1), (4, 2), (5, 1), (6, 4)])
    def test_classical_mixture_peak_is_best_pure_strategy(self, d, m):
        pns, ps = classical_p_ns(d), classical_p_s(d, m)
        values = [
            pns * math.cos(g) ** 2 + ps * math.sin(g) ** 2
            for g in default_gammas(1001)
        ]
        assert max(values) == pytest.approx(max(pns, ps), abs=1e-9)


class TestPayoffCurveType:
    def test_default_gammas(self):
        g = default_gammas()
        assert len(g) == 101
        assert g[0] == 0
        assert g[-1] == pytest.approx(math.pi / 2)
