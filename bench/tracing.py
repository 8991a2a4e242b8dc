"""Spans around qmonty's public functions, recorded from the benchmark.

:meth:`Tracer.instrument` replaces each traced function, in every loaded
qmonty module that refers to it, by a wrapper that records a span: name,
start, end, parent and whether the call was part of the cold set-up.  Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping runs outside the span and is excluded from the
parent's self time too; it is reported as ``trace.bookkeeping_s``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from qmonty import cli, game, multiplayer, oracles, protocols, qudit

FAMILIES = (
    ("door-opening", "opening"),
    ("door-switching", "switch"),
    ("mixed-switch", "mixed"),
    ("gap-filling", "gap_fill"),
    ("victory", "victory"),
    ("host victory", "victory"),
)
FAMILY_NAMES = ("opening", "switch", "mixed", "gap_fill", "victory", "other")

# Public operator builders.  ``protocols._protocol_switch`` is the one
# private entry: protocol rounds reach the door switch only through it.
BUILDERS = (
    (game, "door_opening_operator"),
    (game, "door_switching_operator"),
    (game, "mixed_switch_operator"),
    (multiplayer, "multi_door_opening_operator"),
    (multiplayer, "player_switch_operator"),
    (multiplayer, "player_mixed_switch_operator"),
    (protocols, "omega_operator"),
    (protocols, "aligned_omega_operator"),
    (protocols, "victory_encoding_operator"),
    (protocols, "host_victory_operator"),
    (protocols, "_protocol_switch"),
)

# Layers reported by self time and call count.
SPAN_LAYERS = (
    "qudit.apply_strategy",
    "qudit.measure_slots",
    "qudit.marginal_eigenvalues",
    "game.play_game",
    "game.payoff_curve",
    "game.expected_payoff",
    "oracles.payoff_separable",
    "oracles.payoff_entangled",
    "oracles.payoff_displacement",
)
# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    *(
        (f"qudit.apply_local_operator.{f}.{kind}", unit, "lower")
        for f in FAMILY_NAMES
        for kind, unit in (("self_s", "s"), ("calls", "count"))
    ),
    ("qudit.apply_local_operator.amplitudes", "count", "lower"),
    ("qudit.apply_local_operator.computed_bytes", "B", "lower"),
    ("qudit.apply_local_operator.first_use_s", "s", "lower"),
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in SPAN_LAYERS
        for kind, unit in (("self_s", "s"), ("calls", "count"))
    ),
    ("qudit.StateVector.constructions", "count", "lower"),
    ("qudit.StateVector.bytes_copied", "B", "lower"),
    ("qudit.Strategy.constructions", "count", "lower"),
    ("game.pre_switch.distinct", "count", "lower"),
    ("game.pre_switch.repeat_share", "ratio", "higher"),
    ("game.operator_build.self_s", "s", "lower"),
    ("game.operator_build.requests", "count", "lower"),
    ("game.operator_build.distinct", "count", "lower"),
    ("game.operator_build.distinct_after_setup", "count", "lower"),
    ("oracles.first_call_s", "s", "lower"),
    ("protocols.run_batch.self_s", "s", "lower"),
    ("protocols.run_protocol.self_s", "s", "lower"),
    ("protocols.simulate_round.self_s", "s", "lower"),
    ("protocols.evolve_round.self_s", "s", "lower"),
    ("protocols.evolve_round.calls", "count", "lower"),
    ("protocols.evolve_round.distinct", "count", "lower"),
    ("protocols.evolve_round.repeat_share", "ratio", "higher"),
    ("protocols.round_ms.p50", "ms", "lower"),
    ("protocols.round_ms.p90", "ms", "lower"),
    ("protocols.round_ms.samples", "count", "higher"),
    ("protocols.serialize.self_s", "s", "lower"),
    ("protocols.transcript_bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.layer_self_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

NAME, FIRST, START, END, COVERED, PARENT, SETUP = range(7)


def _family(op) -> str:
    for prefix, family in FAMILIES:
        if op.name.startswith(prefix):
            return family
    return "other"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self.setup = True
        self._open: list[int] = []
        self._seen: dict[object, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _first(self, key, keep=None) -> bool:
        """True the first time ``key`` is seen (``keep`` pins ids alive)."""
        if key in self._seen:
            return False
        self._seen[key] = keep
        return True

    def wrap(self, fn, name, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(*args)`` may return a
        ``(name, first_use)`` pair; ``after(result)`` sees the result."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            t_in = perf_counter()
            span_name, first = before(*args, **kwargs) if before else (name, False)
            parent = stack[-1] if stack else -1
            span = [span_name, first, 0.0, 0.0, 0.0, parent, self.setup]
            stack.append(len(spans))
            spans.append(span)
            span[START] = t_start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, parent, t_in, t_start)
                raise
            self._close(span, parent, t_in, t_start)
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span, parent, t_in, t_start) -> None:
        span[END] = t_end = perf_counter()
        self._open.pop()
        t_out = perf_counter()
        self.bookkeeping_s += (t_out - t_in) - (t_end - t_start)
        if parent >= 0:
            self.spans[parent][COVERED] += t_out - t_in

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` under a top-level span; return (result, wall)."""
        t0 = perf_counter()
        result = self.wrap(fn, name)(*args)
        return result, perf_counter() - t0

    # -- instrumentation --------------------------------------------------

    def _replace(self, fn, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "qmonty" and not modname.startswith("qmonty."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _patch_init(self, cls, counter, nbytes) -> None:
        original = cls.__post_init__
        counts = self.counts

        def post_init(obj):
            original(obj)
            counts[counter] += 1
            if nbytes:
                counts[nbytes] += obj.amplitudes.nbytes

        self._patches.append((cls, "__post_init__", original))
        cls.__post_init__ = post_init

    def instrument(self) -> None:
        counts = self.counts

        def local_op(state, op):
            counts["amplitudes"] += state.amplitudes.size
            # Computed, not measured: the input read once, the output written once.
            counts["computed_bytes"] += 2 * state.amplitudes.nbytes
            return (
                f"qudit.apply_local_operator.{_family(op)}",
                self._first(("op", id(op)), op),
            )

        def built(op):
            counts["build_requests"] += 1
            if self._first(("built", id(op)), op):
                counts["build_distinct"] += 1
                counts["build_after_setup"] += not self.setup

        def table_user(name):
            def before(A, B, config):
                return name, self._first(("tables", config.d, config.m))
            return before

        def evolve(config, bits, switches):
            key = ("round", config.d, config.n, config.m, config.approvals,
                   tuple(bits), tuple(switches))
            counts["rounds_distinct"] += self._first(key)
            return "protocols.evolve_round", False

        state_keys: dict[int, tuple[object, str]] = {}

        def state_key(state) -> str:
            # One digest per state object, which is kept so its id stays unique.
            if state is None:
                return "separable"
            if id(state) not in state_keys:
                digest = hashlib.blake2b(state.amplitudes.tobytes()).hexdigest()
                state_keys[id(state)] = (state, digest)
            return state_keys[id(state)][1]

        def pre_switch(name, initial_at):
            # The evolution up to the switch depends on (d, m, n, A, B, initial),
            # not on gamma: its distinct keys bound what memoization could skip.
            def before(config, A, B, *args, **kwargs):
                initial = args[initial_at] if len(args) > initial_at else kwargs.get("initial")
                key = ("pre_switch", config.d, config.m, config.n,
                       A.entries.tobytes(), B.entries.tobytes(), state_key(initial))
                counts["pre_switch_distinct"] += self._first(key)
                return name, False
            return before

        def serialized(text):
            counts["transcript_bytes"] += len(text.encode())

        plan = [
            (qudit, "apply_local_operator", None, local_op, None),
            (qudit, "apply_strategy", "qudit.apply_strategy", None, None),
            (qudit, "measure_slots", "qudit.measure_slots", None, None),
            (qudit, "marginal_eigenvalues", "qudit.marginal_eigenvalues", None, None),
            (game, "play_game", None, pre_switch("game.play_game", 0), None),
            (game, "payoff_curve", None, pre_switch("game.payoff_curve", 1), None),
            (game, "expected_payoff", "game.expected_payoff", None, None),
            (oracles, "payoff_separable", None,
             table_user("oracles.payoff_separable"), None),
            (oracles, "payoff_entangled", None,
             table_user("oracles.payoff_entangled"), None),
            (oracles, "payoff_displacement", "oracles.payoff_displacement", None, None),
            (protocols, "run_batch", "protocols.run_batch", None, None),
            (protocols, "run_protocol_a", "protocols.run_protocol", None, None),
            (protocols, "run_protocol_b", "protocols.run_protocol", None, None),
            (protocols, "simulate_round_a", "protocols.simulate_round", None, None),
            (protocols, "simulate_round_b", "protocols.simulate_round", None, None),
            (protocols, "evolve_round_a", None, evolve, None),
            (protocols, "evolve_round_b", None, evolve, None),
            (protocols, "serialize_transcripts", "protocols.serialize", None, serialized),
            (protocols, "write_transcripts", "protocols.serialize", None, None),
            (cli, "main", "cli.main", None, None),
            *((mod, attr, "game.operator_build", None, built) for mod, attr in BUILDERS),
        ]
        for module, attr, name, before, after in plan:
            fn = getattr(module, attr)
            self._replace(fn, self.wrap(fn, name, before, after))
        self._patch_init(qudit.StateVector, "sv_constructions", "sv_bytes")
        self._patch_init(qudit.Strategy, "strategy_constructions", None)

    def uninstrument(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric in :data:`METRICS`; layers not reached read 0."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        first_use = defaultdict(float)
        round_ms = []
        for span in self.spans:
            name = span[NAME]
            own = span[END] - span[START] - span[COVERED]
            self_s[name] += own
            calls[name] += 1
            if span[FIRST]:
                first_use[name.split(".")[0]] += own
            if name == "protocols.run_protocol" and not span[SETUP]:
                round_ms.append(1e3 * (span[END] - span[START]))
        c = self.counts
        out = {}
        for f in FAMILY_NAMES:
            out[f"qudit.apply_local_operator.{f}.self_s"] = self_s[f"qudit.apply_local_operator.{f}"]
            out[f"qudit.apply_local_operator.{f}.calls"] = calls[f"qudit.apply_local_operator.{f}"]
        out["qudit.apply_local_operator.amplitudes"] = c["amplitudes"]
        out["qudit.apply_local_operator.computed_bytes"] = c["computed_bytes"]
        out["qudit.apply_local_operator.first_use_s"] = first_use["qudit"]
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        evolve_calls = calls["protocols.evolve_round"]
        pre_switch_calls = calls["game.play_game"] + calls["game.payoff_curve"]
        out.update({
            "qudit.StateVector.constructions": c["sv_constructions"],
            "qudit.StateVector.bytes_copied": c["sv_bytes"],
            "qudit.Strategy.constructions": c["strategy_constructions"],
            "game.pre_switch.distinct": c["pre_switch_distinct"],
            "game.pre_switch.repeat_share": (
                1.0 - c["pre_switch_distinct"] / pre_switch_calls if pre_switch_calls else 0.0
            ),
            "game.operator_build.self_s": self_s["game.operator_build"],
            "game.operator_build.requests": c["build_requests"],
            "game.operator_build.distinct": c["build_distinct"],
            "game.operator_build.distinct_after_setup": c["build_after_setup"],
            "oracles.first_call_s": first_use["oracles"],
            "protocols.run_batch.self_s": self_s["protocols.run_batch"],
            "protocols.run_protocol.self_s": self_s["protocols.run_protocol"],
            "protocols.simulate_round.self_s": self_s["protocols.simulate_round"],
            "protocols.evolve_round.self_s": self_s["protocols.evolve_round"],
            "protocols.evolve_round.calls": evolve_calls,
            "protocols.evolve_round.distinct": c["rounds_distinct"],
            "protocols.evolve_round.repeat_share": (
                1.0 - c["rounds_distinct"] / evolve_calls if evolve_calls else 0.0
            ),
            "protocols.round_ms.p50": statistics.median(round_ms) if round_ms else 0.0,
            "protocols.round_ms.p90": (
                statistics.quantiles(round_ms, n=10)[8] if len(round_ms) >= 2 else 0.0
            ),
            "protocols.round_ms.samples": len(round_ms),
            "protocols.serialize.self_s": self_s["protocols.serialize"],
            "protocols.transcript_bytes": c["transcript_bytes"],
            "cli.main.self_s": self_s["cli.main"],
            "bench.self_s": self_s["bench.setup"] + self_s["bench.call"],
        })
        layer_self = sum(v for k, v in self_s.items() if not k.startswith("bench."))
        out.update({
            "trace.wall_s": wall_s,
            "trace.layer_self_s": layer_self,
            "trace.bookkeeping_s": self.bookkeeping_s,
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def write(self, path, header: dict) -> None:
        """Dump the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": span[NAME],
                    "parent": span[PARENT],
                    "start_s": round(span[START] - t0, 9),
                    "end_s": round(span[END] - t0, 9),
                    "self_s": round(span[END] - span[START] - span[COVERED], 9),
                    "first_use": span[FIRST],
                    "setup": span[SETUP],
                }) + "\n")
