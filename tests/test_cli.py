"""Command-line interface: formats, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    ROOT,
    random_strategies,
    reference_payoff_curves,
    reference_special_unitary,
)

import qmonty.cli
import qmonty.game
import qmonty.oracles
from qmonty.cli import main
from qmonty.game import GameConfig, entangled_initial, separable_initial
from qmonty.oracles import (
    classical_p_ns,
    classical_p_s,
    default_gammas,
    gamma_max,
    payoff_displacement,
    payoff_entangled,
    payoff_qft_separable,
    payoff_separable,
)
from qmonty.protocols import ProtocolConfig, run_batch, serialize_transcripts
from qmonty.qudit import (
    Strategy,
    qft,
    sum_d,
    uniform_superposition_strategy,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_classical_mixed_endpoints(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "classical-mixed", "--d", "3", "--m", "1",
             "--grid", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,payoff,scenario,d,m,k"
        first, last = lines[1].split(","), lines[-1].split(",")
        assert float(first[1]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(last[1]) == pytest.approx(2 / 3, abs=1e-12)
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[1]) <= 1.0

    def test_simulation_column(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "entangled-qft", "--d", "3", "--m", "1",
             "--grid", "7", "--with-simulation"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,payoff,simulated,scenario,d,m,k"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[1]) == pytest.approx(float(cells[2]), abs=1e-9)

    def test_displacement_k1_identically_zero(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "displacement", "--d", "6", "--m", "3",
             "--k", "1", "--grid", "11"],
            capsys,
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[1]) == 0.0
            assert line.split(",")[-1] == "1"

    def test_qft_player_peaks_at_gamma_max(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "qft-player", "--d", "3", "--m", "1",
             "--grid", "101"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        gammas = [float(r[0]) for r in rows]
        payoffs = [float(r[1]) for r in rows]
        best = payoffs.index(max(payoffs))
        spacing = gammas[1] - gammas[0]
        assert abs(gammas[best] - gamma_max(3, 1)) <= spacing
        assert max(payoffs) <= 1 + 1e-12

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "qft-player", "--d", "4", "--m", "1",
             "--grid", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "qft-player"
        assert len(doc["points"]) == 5

    def test_golden_file_stability(self, tmp_path, capsys):
        args = ["sweep", "--scenario", "separable-custom", "--d", "5", "--m", "1",
                "--doors", "3", "--grid", "21"]
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(args + ["--out", str(path)], capsys)
            assert code == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        assert b"\r" not in paths[0]

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--scenario", "classical-mixed", "--d", "3", "--m", "2"],
            capsys,
        )
        assert code == 2
        assert "error" in err
        code, _, _ = run_cli(
            ["sweep", "--scenario", "displacement", "--d", "6", "--m", "3",
             "--k", "9"],
            capsys,
        )
        assert code == 2
        code, _, _ = run_cli(
            ["sweep", "--scenario", "separable-custom", "--d", "3", "--m", "1",
             "--doors", "7"],
            capsys,
        )
        assert code == 2

    def test_out_into_missing_directory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "curve.csv"
        code, out, err = run_cli(
            ["sweep", "--scenario", "qft-player", "--grid", "3", "--out", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.parent.exists()


    @pytest.mark.parametrize(
        "scenario, oracle",
        [
            (["classical-mixed", "--i", "2"],
             lambda d, m, cfg: payoff_separable(qft(d), sum_d(d, 2), cfg)),
            (["qft-player"], lambda d, m, cfg: payoff_qft_separable(cfg)),
            (["separable-custom", "--doors", "2"],
             lambda d, m, cfg: payoff_separable(
                 qft(d), uniform_superposition_strategy(d, 2), cfg)),
            # One qft object on both sides, as the CLI passes it: numpy
            # computes A @ A.T with a symmetric product, which rounds
            # differently from A @ B.T with B an equal copy.
            (["entangled-qft"],
             lambda d, m, cfg: payoff_entangled(*[qft(d)] * 2, cfg)),
            (["displacement", "--k", "3"], lambda d, m, cfg: payoff_displacement(3, cfg)),
        ],
    )
    def test_analytic_column_equals_one_call_per_angle(self, scenario, oracle):
        d, m = 5, 2
        args = qmonty.cli.build_parser().parse_args(
            ["sweep", "--scenario", *scenario, "--d", str(d), "--m", str(m), "--grid", "31"]
        )
        gammas, analytic, simulated, _, _ = qmonty.cli._scenario_curves(args)
        assert simulated is None
        assert np.array_equal(
            analytic, [oracle(d, m, GameConfig(d, m, 2, g)) for g in gammas]
        )

    def test_grid_above_bound_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["sweep", "--scenario", "qft-player",
             "--grid", str(qmonty.cli.MAX_GRID + 1)],
            capsys,
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert err.startswith("error: ") and "--grid must be at most 100,000" in err


class TestSizeGuard:
    def test_oversized_simulation_exit_2(self, capsys):
        # d = 8, m = 6 spans 8**8 = 16,777,216 amplitudes, above the budget.
        start = time.perf_counter()
        code, out, err = run_cli(
            ["sweep", "--scenario", "qft-player", "--d", "8", "--m", "6",
             "--with-simulation"],
            capsys,
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert "16,777,216 amplitudes" in err

    # The closed forms' factorials stop at 20!: (d - 1)! for the payoff
    # weights, (d - 2)! for the displacement rows with k >= 1.
    @pytest.mark.parametrize("argv, largest", [
        (["--scenario", "classical-mixed", "--d", "22"], 21),
        (["--scenario", "separable-custom", "--d", "22"], 21),
        (["--scenario", "entangled-qft", "--d", "22", "--with-simulation"], 21),
        (["--scenario", "displacement", "--d", "23", "--k", "1"], 22),
    ])
    def test_closed_form_above_the_largest_d_exit_2(self, capsys, argv, largest):
        code, out, err = run_cli(["sweep", *argv], capsys)
        assert code == 2
        assert out == ""
        d = int(argv[argv.index("--d") + 1])
        assert err.startswith("error: closed-form ")
        assert f"support d <= {largest}, got d = {d}\n" in err
        code, out, _ = run_cli(["sweep", *argv, "--d", str(largest), "--grid", "2"], capsys)
        assert code == 0 and len(out.splitlines()) == 3

    # At d = 11, m = 9 each prize door has 10! opened-door tuples; the
    # oracles count them by the next free door instead of enumerating.
    @pytest.mark.parametrize("scenario", ["entangled-qft", "classical-mixed"])
    def test_large_analytic_sweep(self, scenario, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", scenario, "--d", "11", "--m", "9"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 102

    def test_large_oracles_match_classical_mixture(self):
        d, m = 11, 9
        pns, ps = classical_p_ns(d), classical_p_s(d, m)
        for g in default_gammas(11):
            cfg = GameConfig(d, m, 2, g)
            expected = pns * math.cos(g) ** 2 + ps * math.sin(g) ** 2
            assert payoff_entangled(qft(d), qft(d), cfg) == pytest.approx(
                expected, abs=1e-12
            )
            assert payoff_separable(qft(d), sum_d(d, 1), cfg) == pytest.approx(
                expected, abs=1e-12
            )

    def test_large_entangled_simulation_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["sweep", "--scenario", "entangled-qft", "--d", "11", "--m", "9",
             "--with-simulation"],
            capsys,
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert "amplitudes, above the budget" in err


    def test_protocol_register_at_the_budget(self, capsys):
        # Protocol A at d = 4, n = 9 spans 4**11 = 4,194,304 amplitudes,
        # exactly the budget; its rounds run on the state's few non-zero
        # amplitudes, not on the whole register.
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--n", "9", "--rounds", "20"],
            capsys,
        )
        assert code == 0
        assert time.perf_counter() - start < 10.0
        assert out.startswith("protocol A: 20 rounds")

    def test_protocol_register_above_budget_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--n", "10", "--rounds", "20"],
            capsys,
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert "16,777,216 amplitudes, above the budget" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--pairs", "3", "--min-d", "2", "--max-d", "3"], capsys
        )
        assert code == 0
        assert "separable" in out and "entangled" in out and "displacement" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_stacked_draw_prints_what_one_at_a_time_draws_print(
        self, capsys, monkeypatch, seed
    ):
        # Both runs share this process, so BLAS-dependent last digits agree.
        stacked = run_cli(["verify", "--seed", seed], capsys)
        monkeypatch.setattr(
            qmonty.cli,
            "random_special_unitaries",
            lambda d, count, rng: np.array(
                [reference_special_unitary(d, rng).entries for _ in range(count)]
            ),
        )
        assert run_cli(["verify", "--seed", seed], capsys) == stacked

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tail_table_prints_what_the_step_by_step_pipeline_prints(self, capsys, seed):
        # Each cell evolves its own dense initial state step by step, so the
        # labels verify computes once per d are checked against every m.
        rng = np.random.default_rng(seed)
        gammas = (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
        worst = dict.fromkeys(("separable", "entangled", "displacement"), 0.0)
        for d in range(3, 7):
            drawn = random_strategies(d, 100, rng)
            pairs = list(zip(drawn[::2], drawn[1::2]))
            shifts = [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
            for m in range(d - 1):
                cfg = GameConfig(d, m, 2)
                cells = (
                    ("separable", pairs, separable_initial(cfg),
                     qmonty.oracles.separable_curves(cfg, pairs, gammas)),
                    ("entangled", pairs, entangled_initial(cfg),
                     qmonty.oracles.entangled_curves(cfg, pairs, gammas)),
                    ("displacement", shifts, entangled_initial(cfg),
                     qmonty.oracles.displacement_curves(cfg, range(d), gammas)),
                )
                for name, cases, initial, closed in cells:
                    sim = reference_payoff_curves(cfg, cases, gammas, initial)
                    worst[name] = max(worst[name], np.abs(sim - closed).max())
        # The forms sum each payoff in another order than the reference, so
        # the printed deviations agree to the reference's own rounding.
        code, out, err = run_cli(["verify", "--seed", str(seed)], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == len(worst)
        for line, (name, dev) in zip(lines, worst.items()):
            label, rest = line.split(": max |simulation - closed form| = ")
            printed, status = rest.split("  ")
            assert (label.strip(), status) == (name, "ok")
            assert abs(float(printed) - dev) <= 1e-14

    def test_each_drawn_stack_is_checked_once(self, capsys, monkeypatch):
        # The draw checks each dimension's whole stack in one call; no pair
        # is checked again on the way to the forms.
        stacks, check = [], Strategy._check

        def recording(mats):
            if len(mats) > 1:
                stacks.append(mats.shape)
            check(mats)

        monkeypatch.setattr(Strategy, "_check", staticmethod(recording))
        code, _, _ = run_cli(["verify", "--pairs", "3", "--min-d", "3", "--max-d", "4"], capsys)
        assert code == 0
        assert stacks == [(6, 3, 3), (6, 4, 4)]

    def test_label_inputs_are_built_once_per_d(self, capsys, monkeypatch):
        # The label blocks and the shift stacks are the initial states' and
        # game._entries' own numbers, read-only and kept for later calls.
        for d in range(2, 7):
            inputs = qmonty.cli._verify_inputs(d)
            blocks = [initial(GameConfig(d, 0, 2)).amplitudes.reshape(d, d)
                      for initial in (separable_initial, entangled_initial)]
            shifts = qmonty.game._entries(
                d, [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)]
            )
            assert len(inputs) == 4
            for got, want in zip(inputs, [*blocks, *shifts]):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert qmonty.cli._verify_inputs(d) is inputs

        def unused(*args):
            raise AssertionError("verify rebuilt its label inputs")

        for name in ("separable_initial", "entangled_initial", "sum_d"):
            monkeypatch.setattr(qmonty.cli, name, unused)
        code, _, _ = run_cli(["verify", "--pairs", "2", "--min-d", "2"], capsys)
        assert code == 0

    def test_corrupted_oracle_exits_1(self, capsys, monkeypatch):
        # Every closed-form payoff of the family moves by 1e-6 (cos^2 + sin^2).
        real = qmonty.oracles._separable

        def corrupted(a, b):
            kk, ss, ks = real(a, b)
            return kk + 1e-6, ss + 1e-6, ks

        monkeypatch.setattr(qmonty.oracles, "_separable", corrupted)
        code, out, _ = run_cli(
            ["verify", "--pairs", "2", "--min-d", "3", "--max-d", "3"], capsys
        )
        assert code == 1
        assert "FAIL" in out

    def test_bad_grid_exit_2(self, capsys):
        code, _, _ = run_cli(["verify", "--min-d", "5", "--max-d", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_no_pairs_exit_2(self, capsys, pairs):
        # With no pairs the separable and entangled families check nothing,
        # so a reported 0 deviation would be a pass without evidence.
        code, out, err = run_cli(["verify", "--pairs", pairs, "--max-d", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--pairs" in err

    def test_too_many_pairs_exit_2(self, capsys, monkeypatch):
        # The cap is checked before any strategy is drawn.
        drawn = []
        monkeypatch.setattr(qmonty.cli, "random_special_unitaries",
                            lambda *args: drawn.append(args))
        code, out, err = run_cli(
            ["verify", "--pairs", "10001", "--min-d", "3", "--max-d", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--pairs" in err
        assert drawn == []

    def test_nan_oracle_fails(self, capsys, monkeypatch):
        # A NaN deviation compares false both ways; it must still be the
        # family's reported worst and fail the run.
        monkeypatch.setattr(
            qmonty.cli.oracles,
            "_separable",
            lambda a, b: (np.full((len(a), a.shape[-1] - 1), np.nan),) * 3,
        )
        code, out, _ = run_cli(
            ["verify", "--pairs", "2", "--min-d", "3", "--max-d", "3"], capsys
        )
        assert code == 1
        separable = [line for line in out.splitlines() if "separable" in line]
        assert len(separable) == 1 and "= nan  FAIL" in separable[0]
        assert "FAIL" not in out.replace(separable[0], "")

    @staticmethod
    def _corrupt(monkeypatch, d, pairs, entries, value):
        """Replace entries of dimension d in the closed-form curves that
        verify computes: every ``form_curves`` call but those on the triples
        of ``label_forms``.  Each entry is (family, m, pair, angle), with the
        family's rows after those of the families before it."""
        label_forms, curves = qmonty.cli.label_forms, qmonty.cli.form_curves
        simulated = []

        def recorded(dim, labels):
            triple = label_forms(dim, labels)
            simulated.append(triple[0])
            return triple

        def corrupted(kk, ss, ks, gammas):
            out = curves(kk, ss, ks, gammas)
            if out.shape[1] == d - 1 and not any(kk is known for known in simulated):
                first = {"separable": 0, "entangled": pairs, "displacement": 2 * pairs}
                for family, m, p, i in entries:
                    out[first[family] + p, m, i] = value(out[first[family] + p, m, i])
            return out

        monkeypatch.setattr(qmonty.cli, "label_forms", recorded)
        monkeypatch.setattr(qmonty.cli, "form_curves", corrupted)

    # The expected lines are what the scalar-oracle loop reports for the
    # same corruption: the worst entry, the first in (m, pair, angle) order.
    def test_corrupted_entry_is_the_reported_location(self, capsys, monkeypatch):
        self._corrupt(monkeypatch, 3, 2, [("separable", 1, 1, 2)], lambda x: x + 1e-6)
        code, out, _ = run_cli(
            ["verify", "--pairs", "2", "--min-d", "3", "--max-d", "3"], capsys
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "   separable: max |simulation - closed form| = 1.000e-06  "
            f"FAIL at (3, 1, {math.pi / 4!r}, 1)"
        )
        assert "FAIL" not in "".join(out.splitlines()[1:])

    def test_first_nan_in_pair_angle_order_is_reported(self, capsys, monkeypatch):
        # (0, 3) precedes (1, 1) in (pair, angle) order but not in
        # (angle, pair) order.
        self._corrupt(monkeypatch, 3, 2, [("entangled", 0, 1, 1), ("entangled", 0, 0, 3)],
                      lambda x: math.nan)
        code, out, _ = run_cli(
            ["verify", "--pairs", "2", "--min-d", "3", "--max-d", "3"], capsys
        )
        assert code == 1
        assert out.splitlines()[1] == (
            "   entangled: max |simulation - closed form| = nan  "
            f"FAIL at (3, 0, {math.pi / 2!r}, 0)"
        )
        assert "FAIL" not in out.splitlines()[0] + out.splitlines()[2]

    def test_equal_corruptions_report_the_first_m(self, capsys, monkeypatch):
        # Both deviations are exactly 1e300.  Pair 0 at m = 2 precedes pair 1
        # at m = 1 in (pair, m, angle) order but not in (m, pair, angle) order.
        self._corrupt(monkeypatch, 4, 2, [("separable", 2, 0, 1), ("separable", 1, 1, 1)],
                      lambda x: x + 1e300)
        code, out, _ = run_cli(
            ["verify", "--pairs", "2", "--min-d", "4", "--max-d", "4"], capsys
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "   separable: max |simulation - closed form| = 1.000e+300  "
            f"FAIL at (4, 1, {math.pi / 6!r}, 1)"
        )
        assert "FAIL" not in "".join(out.splitlines()[1:])


class TestProtocolCommand:
    def test_summary_and_transcripts(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--rounds", "100",
             "--seed", "7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "agreement rate over non-flagged rounds: 1.000000" in out
        assert out_path.read_text().count("\n") == 100

    def test_streamed_file_matches_run_batch(self, tmp_path, capsys):
        path = tmp_path / "streamed.jsonl"
        code, out, _ = run_cli(
            ["protocol", "--protocol", "b", "--d", "4", "--rounds", "90",
             "--seed", "5", "--approve", "01", "--out", str(path)],
            capsys,
        )
        assert code == 0
        config = ProtocolConfig(d=4, n=3, m=2, approvals=(False, True), seed=5, rounds=90)
        report = run_batch(config, "b")
        assert path.read_text() == serialize_transcripts(report.transcripts)
        assert out.splitlines() == [*report.summary_lines(), f"wrote 90 transcripts to {path}"]
        assert report.summary_lines()[-1] == (
            "entanglement diagnostic: skipped (declining validators or no usable rounds)"
        )

    def test_deterministic_output_files(self, tmp_path, capsys):
        blobs = []
        for name in ("x.jsonl", "y.jsonl"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["protocol", "--protocol", "b", "--d", "3", "--rounds", "60",
                 "--seed", "11", "--out", str(path)],
                capsys,
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_decliner_reports_lower_agreement(self, capsys):
        code, out, _ = run_cli(
            ["protocol", "--protocol", "b", "--d", "3", "--rounds", "200",
             "--seed", "3", "--approve", "0"],
            capsys,
        )
        assert code == 0
        rate = float(out.splitlines()[1].rsplit(" ", 1)[1])
        assert rate < 1.0

    def test_constraint_violation_exit_2(self, capsys):
        code, _, err = run_cli(
            ["protocol", "--protocol", "b", "--d", "4", "--n", "2"], capsys
        )
        # protocol B derives n from d, so this succeeds; a bad mask must not
        code, _, err = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--approve", "101"],
            capsys,
        )
        assert code == 2
        assert "approve" in err

    def test_protocol_a_single_opened_register_skips_the_residual(self, capsys):
        # At d = 3 every non-flagged round leaves the one opened register on
        # door 2, a basis state, so the entanglement check cannot apply.
        code, out, _ = run_cli(
            ["protocol", "--protocol", "a", "--d", "3", "--rounds", "200"], capsys
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.splitlines()[-1].startswith(
            "residual opened-register entanglement: skipped"
        )

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(["protocol", "--protocol", "c", "--d", "4"], capsys)[0] == 2

    def test_protocol_a_without_validators_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        code, out, err = run_cli(
            ["protocol", "--protocol", "a", "--d", "2", "--n", "2", "--out", str(path)], capsys
        )
        assert code == 2
        assert out == "" and not path.exists()
        assert err == "error: protocol A needs at least one validator (d >= 3)\n"

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "error: expected non-negative integer"),
        (["--rounds", str(2**32 + 1)], "error: at most 4294967296 rounds"),
    ])
    def test_bad_seed_or_round_count_exit_2(self, capsys, argv, message):
        code, _, err = run_cli(["protocol", "--protocol", "b", "--d", "3", *argv], capsys)
        assert code == 2
        assert err.startswith(message)

    @pytest.mark.parametrize("argv", [
        ["protocol", "--protocol", "a", "--d", "4"],
        ["verify", "--max-d", "3"],
    ], ids=["protocol", "verify"])
    def test_negative_seed_names_the_option_exit_2(self, capsys, argv):
        code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: expected non-negative integer for --seed, got -1\n"

    def test_out_into_missing_directory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "t.jsonl"
        code, out, err = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--rounds", "5",
             "--out", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.parent.exists()


class TestInfoAndConfigFile:
    def test_info_output(self, capsys):
        code, out, _ = run_cli(["info", "--d", "3", "--m", "1"], capsys)
        assert code == 0
        assert "P_ns = 0.333333333333" in out
        assert "P_s = 0.666666666667" in out
        assert "protocol A: valid" in out
        assert out.startswith("d=3 doors, m=1 opened, n=2 parties\n")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_info_protocol_line_follows_validate_for(self, capsys, d):
        # info calls a protocol valid exactly when the protocol command runs it.
        for protocol, n in (("a", 2), ("b", d - 1)):
            argv = ["protocol", "--protocol", protocol, "--d", str(d), "--n", str(n),
                    "--rounds", "1"]
            assert (run_cli(argv, capsys)[0] == 0) == (d >= 3)
        code, out, _ = run_cli(["info", "--d", str(d), "--m", str(d - 2)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == (
            f"protocol A: valid (d = m + 2); protocol B: valid with n = {d - 1}" if d >= 3 else
            "protocol A with n = 2: refused (protocol A needs at least one validator "
            "(d >= 3)); protocol B with n = 1: refused (a protocol needs at least two parties)"
        )

    def test_info_takes_no_party_count(self, capsys):
        # Every value info prints is a two-party quantity.
        code, out, err = run_cli(["info", "--d", "3", "--m", "1", "--n", "7"], capsys)
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_config_file_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 4, "m": 2, "grid": 5}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "sweep", "--scenario", "classical-mixed"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3:5] == ["4", "2"]
        # explicit flag beats the config value
        code, out, _ = run_cli(
            ["--config", str(cfg), "sweep", "--scenario", "classical-mixed",
             "--m", "1"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3:5] == ["4", "1"]

    def test_config_file_null_keeps_flag_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": None}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "protocol", "--protocol", "a", "--d", "4"], capsys
        )
        assert code == 0
        assert out.startswith("protocol A: 1000 rounds, ")

    def test_config_defaults_stay_with_their_call(self, tmp_path, capsys):
        # Calls without --config share one parser; a --config call sets its
        # defaults on a parser of its own.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": "a", "rounds": 5, "seed": 3}))
        plain = ["protocol", "--protocol", "a", "--d", "4"]
        before = run_cli(plain, capsys)
        code, out, _ = run_cli(["--config", str(cfg), "protocol", "--d", "4"], capsys)
        assert code == 0 and out.startswith("protocol A: 5 rounds, ")
        after = run_cli(plain, capsys)
        assert after == before and after[1].startswith("protocol A: 1000 rounds, ")
        code, _, err = run_cli(["protocol", "--d", "4"], capsys)
        assert code == 2 and "--protocol required" in err
        assert qmonty.cli._plain_parser() is qmonty.cli._plain_parser()

    def test_parsers_are_built_once(self, tmp_path, capsys, monkeypatch):
        # After a first call, a call without --config builds no parser; a
        # --config call still builds its own full parser.
        info = ["info", "--d", "3", "--m", "1"]
        first = run_cli(info, capsys)
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(info, capsys) == first
        assert built == []
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 3, "m": 1}))
        assert run_cli(["--config", str(cfg), "info"], capsys) == first
        assert built.count("qmonty") == 1

    def test_config_file_supplies_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": "a", "rounds": 5}))
        from_file = run_cli(["--config", str(cfg), "protocol", "--d", "4"], capsys)
        flags = run_cli(
            ["protocol", "--protocol", "a", "--d", "4", "--rounds", "5"], capsys
        )
        assert from_file == flags
        assert flags[0] == 0
        cfg.write_text(json.dumps({"d": 3, "m": 1}))
        assert run_cli(["--config", str(cfg), "info"], capsys) == run_cli(
            ["info", "--d", "3", "--m", "1"], capsys
        )

    @pytest.mark.parametrize(
        "argv,missing",
        [
            (["sweep"], "--scenario"),
            (["protocol", "--d", "4"], "--protocol"),
            (["protocol", "--protocol", "a"], "--d"),
            (["info", "--m", "1"], "--d"),
            (["info", "--d", "3"], "--m"),
        ],
    )
    def test_required_flag_given_nowhere_exit_2(self, tmp_path, capsys, argv, missing):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": 5}))
        for prefix in ([], ["--config", str(cfg)]):
            code, out, err = run_cli(prefix + argv, capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize(
        "defaults,argv",
        [
            ({"protocol": "c"}, ["protocol", "--d", "4"]),
            ({"scenario": "nope"}, ["sweep"]),
            # cmd_sweep would print JSON for any format but csv.
            ({"format": "xml", "grid": 2}, ["sweep", "--scenario", "qft-player"]),
        ],
    )
    def test_config_value_outside_choices_exit_2(self, tmp_path, capsys, defaults, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(defaults))
        code, out, err = run_cli(["--config", str(cfg), *argv], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert f"--{next(iter(defaults))} " in err

    @pytest.mark.parametrize(
        "defaults,argv,kind",
        [
            ({"rounds": 10.5}, ["protocol", "--protocol", "a", "--d", "4"], "an integer"),
            ({"seed": 1.5}, ["verify", "--pairs", "1"], "an integer"),
            ({"pairs": 2.5}, ["verify"], "an integer"),
            ({"grid": 3.0}, ["sweep", "--scenario", "qft-player"], "an integer"),
            ({"approve": 10}, ["protocol", "--protocol", "a", "--d", "4"], "a string"),
            # A boolean is a JSON integer to Python: it would run one round.
            ({"rounds": True}, ["protocol", "--protocol", "a", "--d", "4"], "an integer"),
        ],
        ids=["rounds-float", "seed-float", "pairs-float", "grid-float", "approve-int",
             "rounds-bool"],
    )
    def test_config_value_of_the_wrong_type_exit_2(self, tmp_path, capsys, defaults, argv, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(defaults))
        code, out, err = run_cli(["--config", str(cfg), *argv], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --{next(iter(defaults))} ") and kind in err

    def test_config_values_of_the_right_type_are_taken(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rounds": "7", "seed": 3, "with_simulation": True, "grid": 2}))
        code, out, _ = run_cli(["--config", str(cfg), "protocol", "--protocol", "a", "--d", "4"],
                               capsys)
        assert code == 0 and out.startswith("protocol A: 7 rounds, ")
        code, out, _ = run_cli(["--config", str(cfg), "sweep", "--scenario", "qft-player"], capsys)
        assert code == 0 and out.splitlines()[0] == "gamma,payoff,simulated,scenario,d,m,k"
        cfg.write_text(json.dumps({"with_simulation": 1}))
        code, _, err = run_cli(["--config", str(cfg), "sweep", "--scenario", "qft-player"],
                               capsys)
        assert code == 2 and err.startswith("error: --with-simulation ")

    def test_config_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        # "grid" is a sweep option, so the protocol command accepts it.
        cfg.write_text(json.dumps({"rouns": 5, "grid": 3}))
        code, out, err = run_cli(
            ["--config", str(cfg), "protocol", "--protocol", "a", "--d", "4"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "rouns" in err and "grid" not in err

    def test_missing_config_file_exit_2(self, capsys):
        code, _, err = run_cli(
            ["--config", "/nonexistent.json", "info", "--d", "3", "--m", "1"],
            capsys,
        )
        assert code == 2


def test_python_m_qmonty_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "qmonty", "info", "--d", "4", "--m", "2"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("d=4 doors, m=2 opened, n=2 parties")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["verify", "--pairs", "2"], ("numpy.ma",)),
        (
            ["sweep", "--scenario", "entangled-qft", "--d", "5", "--m", "2", "--with-simulation"],
            ("numpy.ma", "numpy.random"),
        ),
        (["info", "--d", "4", "--m", "2"], ("numpy.random",)),
    ],
    ids=["verify", "sweep", "info"],
)
def test_commands_leave_numpy_submodules_unimported(argv, unloaded):
    # np.unique without return_inverse imports numpy.ma, about 10 ms of a
    # cold start; sweep and info draw nothing, so they need no numpy.random.
    code = (
        "import contextlib, io, sys\n"
        "from qmonty.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"print([m for m in {unloaded!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
