"""Smoke test of the benchmark's tracer (``bench/tracing.py``).

The tracer wraps qmonty functions by name, so deleting or renaming one of
them breaks a traced benchmark run; this test makes it break tier-1 too.
It also checks that the operator names still map onto their families and
that uninstrumenting restores every wrapped function.
"""

import importlib.util
import math
import pathlib
from collections import Counter

from conftest import record_evolutions

from qmonty import game, protocols, qudit

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "qmonty_bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_and_uninstrument():
    tracing = _load_tracing()
    originals = {
        (module, attr): getattr(module, attr) for module, attr in tracing.BUILDERS
    }
    originals[(qudit, "apply_local_operator")] = qudit.apply_local_operator
    originals[(game, "play_game")] = game.play_game

    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        cfg = game.GameConfig(4, 2, 2, math.pi / 4)
        A = B = qudit.qft(4)
        game.play_game(cfg, A, B, game.separable_initial(cfg))
        config = protocols.ProtocolConfig(
            d=4, n=3, m=2, approvals=(True, True), seed=0
        )
        protocols.evolve_round_b(config, (0, 1, 0), (True, True))
        first_a = len(tracer.spans)
        config_a = protocols.ProtocolConfig(
            d=4, n=2, m=2, approvals=(True, True), seed=0
        )
        state_a = protocols.evolve_round_a(config_a, (0, 1), (True,))
    finally:
        tracer.uninstrument()

    # Protocol A's door openings and switch run on the support state, as
    # children of its evolve_round span.
    assert isinstance(state_a, qudit.SupportState)
    assert tracer.spans[first_a][tracing.NAME] == "protocols.evolve_round"
    children = [
        span[tracing.NAME] for span in tracer.spans if span[tracing.PARENT] == first_a
    ]
    assert children.count("qudit.apply_local_operator.opening") == 2
    assert children.count("qudit.apply_local_operator.switch") == 1

    names = {span[tracing.NAME] for span in tracer.spans}
    for family in ("opening", "mixed", "switch", "gap_fill", "victory"):
        assert f"qudit.apply_local_operator.{family}" in names
    assert "qudit.apply_local_operator.other" not in names
    assert {"game.play_game", "game.operator_build", "protocols.evolve_round"} <= names
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_batch_evolves_each_key_once_under_the_tracer(monkeypatch):
    tracing = _load_tracing()
    batches = record_evolutions(monkeypatch)
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        config = protocols.ProtocolConfig(
            d=4, n=3, m=2, approvals=(True, True), seed=4, rounds=64
        )
        report = protocols.run_batch(config, "b")
    finally:
        tracer.uninstrument()

    names = [span[tracing.NAME] for span in tracer.spans]
    keys = {(t.bits, t.switches) for t in report.transcripts}
    evolved = [key for batch in batches for key in batch]
    assert len(evolved) == len(set(evolved)) == len(keys) < 64
    assert set(evolved) == keys
    # The batch evolves its keys together, through the traced operators
    # but not through the single-round functions.
    assert "qudit.apply_local_operator.victory" in names
    assert "protocols.evolve_round" not in names
    assert "protocols.run_protocol" not in names


def test_each_operator_counts_one_first_use(monkeypatch):
    # Two batches of one config, the second meeting keys the first did not:
    # every operator is a first use once, when the first batch meets it.
    tracing = _load_tracing()
    ops = []
    apply = qudit.apply_local_operator

    def recording(state, op):
        ops.append(op)
        return apply(state, op)

    for module in (qudit, protocols):
        monkeypatch.setattr(module, "apply_local_operator", recording)
    tracer = tracing.Tracer()
    tracer.instrument()
    calls = []
    try:
        for seed in (4, 5):
            protocols.run_batch(protocols.ProtocolConfig(
                d=4, n=3, m=2, approvals=(True, True), seed=seed, rounds=16
            ), "b")
            calls.append(len(ops))
    finally:
        tracer.uninstrument()

    assert 0 < calls[0] < calls[1]
    spans = [
        span for span in tracer.spans
        if span[tracing.NAME].startswith("qudit.apply_local_operator.")
    ]
    assert len(spans) == len(ops)
    # A config's operators have distinct names.
    names = [op.name for op in ops]
    assert len({id(op) for op in ops}) == len(set(names))
    first = Counter(name for span, name in zip(spans, names) if span[tracing.FIRST])
    assert first == Counter(set(names))
