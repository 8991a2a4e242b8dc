"""Acceptance suite: every criterion at its stated tolerance and runtime.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or on failure).  Criterion 4 checks the Fourier pair on the shared GHZ state
over d in {3, 4, 5, 6} against its exact curve: ``qft (x) qft`` maps
``sum_i |i,i>`` onto ``sum_j |j,-j>``, an equal mixture of label
displacements ``2j mod d``, whose payoff is averaged with the brute-force
``classical_displacement_oracle``.  For odd d those displacements cover every
residue once, so the curve is also the paper's classical mixture
``P_ns cos^2 + P_s sin^2``; for even d they cover the even residues twice and
the curve departs from that mixture (keep payoff 2/d).
"""

import math
import time

import numpy as np
import pytest
from conftest import classical_displacement_oracle, fidelity, random_special_unitary

from qmonty.game import (
    GameConfig,
    entangled_initial,
    expected_payoff,
    payoff_curve,
    play_game,
    separable_initial,
)
from qmonty.oracles import (
    classical_p_ns,
    classical_p_s,
    default_gammas,
    gamma_max,
    payoff_entangled,
    payoff_max,
    payoff_qft_separable,
    payoff_separable,
)
from qmonty.protocols import (
    ProtocolConfig,
    enumerate_measurement_branches,
    run_batch,
)
from qmonty.qudit import (
    apply_strategy,
    ghz_state,
    qft,
    sum_d,
    uniform_superposition_strategy,
)

TOL = 1e-9
GRID = [(d, m) for d in (3, 4, 5, 6) for m in range(0, d - 1)]
GAMMAS_101 = default_gammas(101)


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_classical_recovery():
    start = time.perf_counter()
    worst = 0.0
    for d, m in GRID:
        cfg = GameConfig(d, m, 2)
        pns, ps = classical_p_ns(d), classical_p_s(d, m)
        expected = pns * np.cos(GAMMAS_101) ** 2 + ps * np.sin(GAMMAS_101) ** 2
        for i in range(d):
            curve = payoff_curve(cfg, qft(d), sum_d(d, i), GAMMAS_101)
            worst = max(worst, float(np.abs(curve - expected).max()))
    endpoint_curve = payoff_curve(GameConfig(3, 1, 2), qft(3), sum_d(3, 1), GAMMAS_101)
    endpoints_ok = (
        abs(endpoint_curve[0] - 1 / 3) <= TOL and abs(endpoint_curve[-1] - 2 / 3) <= TOL
    )
    elapsed = time.perf_counter() - start
    report(
        "1 (classical recovery)",
        worst <= TOL and endpoints_ok,
        f"max deviation {worst:.2e}, d=3 endpoints (1/3, 2/3)",
        elapsed,
        10,
    )


def test_criterion_02_uniform_player_curve():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_spread = 0.0
    worst_peak_dev = 0.0
    peak_angle_ok = True
    exact_one_ok = True
    spacing = GAMMAS_101[1] - GAMMAS_101[0]
    for d, m in GRID:
        cfg = GameConfig(d, m, 2)
        curves = np.stack(
            [
                payoff_curve(cfg, random_special_unitary(d, rng), qft(d), GAMMAS_101)
                for _ in range(20)
            ]
        )
        worst_spread = max(
            worst_spread, float((curves.max(axis=0) - curves.min(axis=0)).max())
        )
        best = int(curves[0].argmax())
        peak_angle_ok &= abs(GAMMAS_101[best] - gamma_max(d, m)) <= spacing
        at_max = payoff_curve(
            cfg, random_special_unitary(d, rng), qft(d), [gamma_max(d, m)]
        )[0]
        worst_peak_dev = max(worst_peak_dev, abs(at_max - payoff_max(d, m)))
        if m == d - 2:
            exact_one_ok &= abs(at_max - 1.0) <= TOL
    elapsed = time.perf_counter() - start
    report(
        "2 (uniform-player curve)",
        worst_spread <= TOL and peak_angle_ok and worst_peak_dev <= TOL and exact_one_ok,
        f"host-strategy spread {worst_spread:.2e}, peak deviation {worst_peak_dev:.2e}, "
        "peak at arctan sqrt(P_s/P_ns), payoff 1 at m = d-2",
        elapsed,
        30,
    )


def test_criterion_03_superposition_family():
    start = time.perf_counter()
    d, m = 5, 1
    cfg = GameConfig(d, m, 2)
    strategies = [uniform_superposition_strategy(d, r) for r in range(1, 5)] + [qft(d)]
    worst = 0.0
    peaks = []
    for B in strategies:
        curve = payoff_curve(cfg, qft(d), B, GAMMAS_101)
        closed = np.array(
            [payoff_separable(qft(d), B, GameConfig(d, m, 2, g)) for g in GAMMAS_101]
        )
        worst = max(worst, float(np.abs(curve - closed).max()))
        peaks.append(float(curve.max()))
    pns, ps = classical_p_ns(d), classical_p_s(d, m)
    one_door = payoff_curve(cfg, qft(d), strategies[0], GAMMAS_101)
    mixture = pns * np.cos(GAMMAS_101) ** 2 + ps * np.sin(GAMMAS_101) ** 2
    one_door_dev = float(np.abs(one_door - mixture).max())
    uniform = payoff_curve(cfg, qft(d), strategies[-1], GAMMAS_101)
    formula = np.array(
        [payoff_qft_separable(GameConfig(d, m, 2, g)) for g in GAMMAS_101]
    )
    uniform_dev = float(np.abs(uniform - formula).max())
    ordered = all(a < b for a, b in zip(peaks, peaks[1:]))
    elapsed = time.perf_counter() - start
    report(
        "3 (superposition family, d=5 m=1)",
        worst <= TOL and one_door_dev <= TOL and uniform_dev <= TOL and ordered,
        f"closed-form deviation {worst:.2e}, peaks {['%.4f' % p for p in peaks]} ordered",
        elapsed,
        10,
    )


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_criterion_04_entangled_destructive_interference(d):
    start = time.perf_counter()
    cos2, sin2 = np.cos(GAMMAS_101) ** 2, np.sin(GAMMAS_101) ** 2
    # qft (x) qft sends sum_i |i,i> to sum_j |j,-j>: label displacements
    # 2j mod d with equal weight, and no cos*sin cross term.
    displacements = [2 * j % d for j in range(d)]
    keep = displacements.count(0) / d
    worst_exact = worst_mixture = worst_keep = 0.0
    for m in range(0, d - 1):
        cfg = GameConfig(d, m, 2)
        curve = payoff_curve(
            cfg, qft(d), qft(d), GAMMAS_101, initial=entangled_initial(cfg)
        )
        switch = sum(classical_displacement_oracle(d, m, k) for k in displacements) / d
        exact = keep * cos2 + switch * sin2
        worst_exact = max(worst_exact, float(np.abs(curve - exact).max()))
        pns, ps = classical_p_ns(d), classical_p_s(d, m)
        mixture = pns * cos2 + ps * sin2
        worst_mixture = max(worst_mixture, float(np.abs(curve - mixture).max()))
        worst_keep = max(worst_keep, abs(curve[0] - 2 / d))
    elapsed = time.perf_counter() - start
    detail = f"max |simulation - displacement average| = {worst_exact:.2e}, "
    if d % 2:
        ok = worst_exact <= TOL and worst_mixture <= TOL
        detail += f"max |simulation - classical mixture| = {worst_mixture:.2e} (odd d)"
    else:
        ok = worst_exact <= TOL and worst_mixture > 1e-2 and worst_keep <= TOL
        detail += (
            f"departs from classical mixture by {worst_mixture:.2e}, "
            f"keep payoff 2/d within {worst_keep:.2e} (even d)"
        )
    report(f"4 (entangled interference, d={d})", ok, detail, elapsed, 10)


def test_criterion_05_displacement_payoffs():
    start = time.perf_counter()
    d, m = 6, 3
    frozen = (0.0, 0.0, 0.25, 0.5, 0.75, 1.0)
    oracle = tuple(classical_displacement_oracle(d, m, k) for k in range(d))
    switch_ok = True
    for k, expected in enumerate(frozen):
        cfg = GameConfig(d, m, 2, math.pi / 2)
        sim = expected_payoff(
            play_game(cfg, sum_d(d, 1), sum_d(d, (1 + k) % d), entangled_initial(cfg))
        )
        switch_ok &= abs(sim - expected) <= TOL
    cfg0 = GameConfig(d, m, 2, 0.0)
    keep = expected_payoff(
        play_game(cfg0, sum_d(d, 1), sum_d(d, 1), entangled_initial(cfg0))
    )
    k1_curve = payoff_curve(
        GameConfig(d, m, 2), sum_d(d, 1), sum_d(d, 2), GAMMAS_101,
        initial=entangled_initial(cfg0),
    )
    elapsed = time.perf_counter() - start
    report(
        "5 (displacement payoffs, d=6 m=3)",
        switch_ok
        and oracle == frozen
        and abs(keep - 1.0) <= TOL
        and float(np.abs(k1_curve).max()) <= TOL,
        f"switch payoffs {frozen} confirmed by enumeration oracle, "
        "k=0 keep payoff 1, k=1 curve identically 0",
        elapsed,
        10,
    )


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    gammas = (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
    worst_sep = worst_ent = 0.0
    for d in (3, 4, 5, 6):
        rng = np.random.default_rng(600 + d)
        pairs = [
            (random_special_unitary(d, rng), random_special_unitary(d, rng))
            for _ in range(50)
        ]
        for m in range(0, d - 1):
            cfg = GameConfig(d, m, 2)
            sep0, ent0 = separable_initial(cfg), entangled_initial(cfg)
            for A, B in pairs:
                sep_curve = payoff_curve(cfg, A, B, gammas, initial=sep0)
                ent_curve = payoff_curve(cfg, A, B, gammas, initial=ent0)
                for g, sep, ent in zip(gammas, sep_curve, ent_curve):
                    cfg_g = GameConfig(d, m, 2, g)
                    worst_sep = max(
                        worst_sep, abs(sep - payoff_separable(A, B, cfg_g))
                    )
                    worst_ent = max(
                        worst_ent, abs(ent - payoff_entangled(A, B, cfg_g))
                    )
    elapsed = time.perf_counter() - start
    report(
        "6 (oracle equivalence, 50 random pairs)",
        worst_sep <= TOL and worst_ent <= TOL,
        f"max |sim - separable form| = {worst_sep:.2e}, "
        f"max |sim - entangled form| = {worst_ent:.2e}",
        elapsed,
        120,
    )


def test_criterion_07_ghz_counter_strategy():
    start = time.perf_counter()
    worst = 1.0
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(70 + d)
        base = ghz_state(d, 2)
        for _ in range(20):
            u = random_special_unitary(d, rng)
            out = apply_strategy(base, u.conjugated(), 0)
            out = apply_strategy(out, u, 1)
            worst = min(worst, fidelity(out, base))
    elapsed = time.perf_counter() - start
    report(
        "7 (GHZ counter-strategy)",
        worst >= 1 - TOL,
        f"minimum fidelity {worst:.12f} over 20 random SU(d), d <= 5",
        elapsed,
        5,
    )


def test_criterion_08_protocol_a():
    start = time.perf_counter()
    config = ProtocolConfig(
        d=4, n=2, m=2, approvals=(True, True), seed=8181, rounds=10_000
    )
    rep = run_batch(config, "a")
    sigma = math.sqrt(0.5 * 0.5 / config.rounds)
    freq_ok = abs(rep.all_same_frequency - 0.5) <= 5 * sigma
    entangled_ok = all(
        any(marg[1] > 1e-6 for marg in t.diagnostics["opened_marginals"])
        for t in rep.transcripts
        if not t.all_same
    )
    declined = run_batch(
        ProtocolConfig(
            d=4, n=2, m=2, approvals=(True, False), seed=8181, rounds=2_000
        ),
        "a",
    )
    elapsed = time.perf_counter() - start
    report(
        "8 (protocol A, d=4, 10^4 rounds)",
        rep.agreement_rate == 1.0
        and freq_ok
        and entangled_ok
        and declined.agreement_rate < 1.0,
        f"agreement {rep.agreement_rate}, all-same {rep.all_same_frequency:.4f} "
        f"(5 sigma of 1/2), declined-validator agreement {declined.agreement_rate:.4f}, "
        "residual opened-register entanglement positive",
        elapsed,
        120,
    )


def test_criterion_09_protocol_b():
    start = time.perf_counter()
    results = []
    for d, rounds in ((3, 10_000), (5, 1_000)):
        n, m = d - 1, d - 2
        config = ProtocolConfig(
            d=d, n=n, m=m, approvals=(True,) * m, seed=9090, rounds=rounds
        )
        rep = run_batch(config, "b")
        p = 0.5 ** (n - 1)
        sigma = math.sqrt(p * (1 - p) / rounds)
        freq_ok = abs(rep.all_same_frequency - p) <= 5 * sigma
        residual_ok = all(
            abs(t.diagnostics["residual_top_eigenvalue"] - 1) <= TOL
            and all(
                abs(v - 1 / d) <= TOL
                for marg in t.diagnostics["party_marginals"]
                for v in marg
            )
            for t in rep.transcripts
            if not t.all_same
        )
        results.append((d, rep.agreement_rate, freq_ok, residual_ok, rep))
    elapsed = time.perf_counter() - start
    ok = all(r[1] == 1.0 and r[2] and r[3] for r in results)
    detail = "; ".join(
        f"d={d}: agreement {rate}, all-same {rep.all_same_frequency:.4f} "
        f"(expected {rep.expected_all_same_frequency:.4f}), residual GHZ-like"
        for d, rate, _, _, rep in results
    )
    report("9 (protocol B, d=3 and d=5)", ok, detail, elapsed, 300)


def test_criterion_10_eight_outcome_table():
    start = time.perf_counter()
    expected = {
        (0, 0, True, False), (0, 0, False, True),
        (0, 1, True, True), (0, 1, False, False),
        (1, 0, True, True), (1, 0, False, False),
        (1, 1, True, False), (1, 1, False, True),
    }
    ok = True
    for protocol, config in (
        ("a", ProtocolConfig(d=4, n=2, m=2, approvals=(True, True), seed=0)),
        ("b", ProtocolConfig(d=3, n=2, m=1, approvals=(True,), seed=0)),
    ):
        seen = set()
        for b1 in (0, 1):
            for bk in (0, 1):
                for sw in (False, True):
                    for _, t in enumerate_measurement_branches(
                        protocol, config, (b1, bk), (sw,)
                    ):
                        seen.add((b1, bk, sw, t.wins[0]))
                        ok &= t.agreement
        ok &= seen == expected
    elapsed = time.perf_counter() - start
    report(
        "10 (eight-outcome table)",
        ok,
        "both protocols realize exactly the eight (b_1, b_k, switch, win) "
        "tuples with key equality in every branch",
        elapsed,
        1,
    )
