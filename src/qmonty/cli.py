"""Command-line front end.

Subcommands:

* ``sweep``    - payoff-vs-gamma curves (analytic, optionally simulated) as
                 CSV or JSON.
* ``verify``   - full-state simulation against every closed-form payoff over
                 a parameter grid; exits 1 if any deviation exceeds 1e-9.
* ``protocol`` - batched key-distribution rounds with transcripts and
                 summary statistics.
* ``info``     - derived quantities for a parameter choice.

Exit codes: 0 success, 1 verification failure, 2 usage or constraint error.
Flags win over values from an optional ``--config`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from functools import lru_cache, partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import game, oracles
from .game import (
    GameConfig,
    entangled_initial,
    form_curves,
    label_amplitudes,
    label_curves,
    label_forms,
    separable_initial,
)
from .oracles import default_gammas
from .protocols import (
    ProtocolConfig,
    ProtocolTranscript,
    iter_rounds,
    summarize,
    transcript_lines,
)
from .qudit import qft, random_special_unitaries, sum_d, uniform_superposition_strategy

VERIFY_TOL = 1e-9
CSV_HEADER = "gamma,payoff,scenario,d,m,k"
CSV_HEADER_SIM = "gamma,payoff,simulated,scenario,d,m,k"
# Most sample angles a sweep takes: each costs a few array entries per
# column, and most of the command's time goes to formatting its CSV lines.
MAX_GRID = 100_000
# Most random strategy pairs verify draws per d: 10,000 take about 4 s and
# 144 MiB on a 2-vCPU VM.
MAX_PAIRS = 10_000

SCENARIOS = (
    "classical-mixed",
    "qft-player",
    "separable-custom",
    "entangled-qft",
    "displacement",
)
# Options a command needs, from the command line or the --config file.
REQUIRED = {"sweep": ("scenario",), "protocol": ("protocol", "d"), "info": ("d", "m")}


class UsageError(ValueError):
    """Bad parameters for the requested command (exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _scenario_curves(
    args: argparse.Namespace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, str, str]:
    """Return (gammas, analytic, simulated-or-None, scenario tag, k column)."""
    if args.grid > MAX_GRID:
        raise UsageError(f"--grid must be at most {MAX_GRID:,}")
    gammas = default_gammas(args.grid)
    cfg0 = GameConfig(args.d, args.m, 2)
    d = args.d
    initial = separable_initial
    k_col = ""
    if args.scenario == "classical-mixed":
        tag = f"classical-mixed:i={args.shift}"
        A, B = qft(d), sum_d(d, args.shift)
        curves = partial(oracles.separable_curves, cfg0, [(A, B)])
    elif args.scenario == "qft-player":
        tag = "qft-player"
        A = B = qft(d)

        def curves(gs):
            return [[oracles.payoff_qft_separable(GameConfig(d, args.m, 2, g)) for g in gs]]
    elif args.scenario == "separable-custom":
        if not 1 <= args.doors <= d:
            raise UsageError(f"--doors must lie in 1..{d}")
        tag = f"separable-custom:doors={args.doors}"
        A, B = qft(d), uniform_superposition_strategy(d, args.doors)
        curves = partial(oracles.separable_curves, cfg0, [(A, B)])
    elif args.scenario == "entangled-qft":
        tag = "entangled-qft"
        A = B = qft(d)
        initial = entangled_initial
        curves = partial(oracles.entangled_curves, cfg0, [(A, B)])
    elif args.scenario == "displacement":
        if not 0 <= args.k < d:
            raise UsageError(f"--k must lie in 0..{d - 1}")
        tag = "displacement"
        k_col = str(args.k)
        A, B = sum_d(d, args.shift % d), sum_d(d, (args.shift + args.k) % d)
        initial = entangled_initial
        curves = partial(oracles.displacement_curves, cfg0, [args.k])
    else:
        raise UsageError(f"unknown scenario {args.scenario!r}; pick one of {SCENARIOS}")
    analytic = np.asarray(curves(gammas), dtype=float)[0]
    simulated = None
    if args.with_simulation:
        # The label amplitudes do not depend on m: no dense d^(m + 2) state.
        heads = GameConfig(d, 0, 2)
        labels = label_amplitudes(heads, [(A, B)], initial(heads))
        simulated = label_curves(cfg0, labels, gammas)[0]
    return gammas, analytic, simulated, tag, k_col


def cmd_sweep(args: argparse.Namespace) -> int:
    gammas, analytic, simulated, tag, k_col = _scenario_curves(args)
    if args.format == "csv":
        lines = [CSV_HEADER_SIM if simulated is not None else CSV_HEADER]
        for i, g in enumerate(gammas):
            cells = [_fmt(g), _fmt(analytic[i])]
            if simulated is not None:
                cells.append(_fmt(simulated[i]))
            cells += [tag, str(args.d), str(args.m), k_col]
            lines.append(",".join(cells))
        payload = "\n".join(lines) + "\n"
    else:
        points = []
        for i, g in enumerate(gammas):
            point = {"gamma": float(_fmt(g)), "payoff": float(_fmt(analytic[i]))}
            if simulated is not None:
                point["simulated"] = float(_fmt(simulated[i]))
            points.append(point)
        payload = json.dumps(
            {
                "scenario": tag,
                "d": args.d,
                "m": args.m,
                "k": int(k_col) if k_col else None,
                "points": points,
            },
            indent=2,
        ) + "\n"
    _write_output(args.out, payload)
    return 0


def _write_output(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(payload)


@lru_cache(maxsize=None)
def _verify_inputs(d: int) -> tuple[np.ndarray, ...]:
    """The separable and GHZ label blocks of the m = 0 game and the host and
    player stacks of the d displacement shifts, built once per d, read-only."""
    blocks = [initial(GameConfig(d, 0, 2)).amplitudes.reshape(d, d)
              for initial in (separable_initial, entangled_initial)]
    shifts = game._entries(d, [(sum_d(d, 1 % d), sum_d(d, (1 + k) % d)) for k in range(d)])
    for array in (*blocks, *shifts):
        array.flags.writeable = False
    return (*blocks, *shifts)


def cmd_verify(args: argparse.Namespace) -> int:
    """Simulation vs closed form over the verification grid."""
    if not 2 <= args.min_d <= args.max_d <= 6:
        raise UsageError("verification grid needs 2 <= min-d <= max-d <= 6")
    if args.pairs < 1:
        raise UsageError("--pairs must be at least 1")
    if args.pairs > MAX_PAIRS:
        raise UsageError(f"--pairs must be at most {MAX_PAIRS:,}")
    rng = np.random.default_rng(args.seed)
    gammas = (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
    worst = dict.fromkeys(("separable", "entangled", "displacement"), (0.0, ()))

    def note(name: str, devs: np.ndarray, d: int) -> None:
        # devs[p, m, i] is the deviation of row p at m and gammas[i].  d's
        # candidate is its first NaN, else its first maximum, in (m, row,
        # angle) order; a NaN becomes the family's worst and stays there.
        devs = devs.transpose(1, 0, 2)
        nan = np.isnan(devs)
        m, p, i = np.unravel_index(np.argmax(nan if nan.any() else devs), devs.shape)
        dev = devs[m, p, i]
        if not math.isnan(worst[name][0]) and not dev <= worst[name][0]:
            worst[name] = (dev, (d, int(m), gammas[i], int(p)))

    for d in range(args.min_d, args.max_d + 1):
        drawn = random_special_unitaries(d, 2 * args.pairs, rng)
        a, b = drawn[::2], drawn[1::2]
        # No door is open before the strategies, so the labels serve every
        # m: evolve them once per d from the m = 0 label blocks, the
        # entangled pairs and the shifts in one call.  Each side is then one
        # triple over the three families' rows and every m, and one broadcast.
        separable, ghz, *shifts = _verify_inputs(d)
        labels = np.concatenate([
            game._label_rows(separable, a, b),
            game._label_rows(ghz, *map(np.concatenate, zip((a, b), shifts))),
        ])
        closed = (oracles._separable(a, b), oracles._entangled(a, b),
                  oracles.displacement_forms(d, range(d)))
        sim = form_curves(*label_forms(d, labels), gammas)
        devs = abs(sim - form_curves(*map(np.concatenate, zip(*closed)), gammas))
        for name, part in zip(worst, np.split(devs, [args.pairs, 2 * args.pairs])):
            note(name, part, d)

    failed = False
    for name, (dev, where) in worst.items():
        ok = dev <= VERIFY_TOL
        status = "ok" if ok else f"FAIL at {where}"
        print(f"{name:>12}: max |simulation - closed form| = {dev:.3e}  {status}")
        failed |= not ok
    return 1 if failed else 0


def _parse_approvals(mask: str, m: int) -> tuple[bool, ...]:
    if mask == "all":
        return (True,) * m
    if mask == "none":
        return (False,) * m
    if len(mask) != m or any(c not in "01" for c in mask):
        raise UsageError(
            f"--approve must be 'all', 'none', or {m} characters of 0/1"
        )
    return tuple(c == "1" for c in mask)


def cmd_protocol(args: argparse.Namespace) -> int:
    m = args.d - 2
    n = args.d - 1 if args.protocol == "b" else args.n
    config = ProtocolConfig(
        d=args.d,
        n=n,
        m=m,
        approvals=_parse_approvals(args.approve, m),
        seed=args.seed,
        rounds=args.rounds,
    )
    config.validate_for(args.protocol)  # type: ignore[arg-type]
    rounds = iter_rounds(config, args.protocol)  # type: ignore[arg-type]
    out = open(args.out, "w", newline="\n", encoding="utf-8") if args.out else nullcontext()
    with out as fh:
        report = summarize(
            config, args.protocol, _written(rounds, fh) if fh else rounds  # type: ignore[arg-type]
        )
    print("\n".join(report.summary_lines()))
    if args.out:
        print(f"wrote {report.rounds} transcripts to {args.out}")
    return 0


def _written(rounds: Iterable[ProtocolTranscript], fh) -> Iterator[ProtocolTranscript]:
    """Pass the rounds through, writing each one's transcript line as it
    arrives, so a batch of any length is never held in memory."""
    for t, line in transcript_lines(rounds):
        fh.write(line)
        yield t


def cmd_info(args: argparse.Namespace) -> int:
    GameConfig(args.d, args.m, 2)  # checks d - 2 >= m >= 0
    pns = oracles.classical_p_ns(args.d)
    ps = oracles.classical_p_s(args.d, args.m)
    print(f"d={args.d} doors, m={args.m} opened, n=2 parties")
    print(f"P_ns = {_fmt(pns)}   P_s = {_fmt(ps)}   P_ns + P_s = {_fmt(pns + ps)}")
    print(
        f"gamma_max = {_fmt(oracles.gamma_max(args.d, args.m))} rad, "
        f"uniform-player maximum payoff = {_fmt(oracles.payoff_max(args.d, args.m))}"
    )
    if args.m == args.d - 2:
        n_b = args.d - 1
        print(f"protocol A: valid (d = m + 2); protocol B: valid with n = {n_b}")
    else:
        print("protocols need m = d - 2")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmonty",
        description="Generalized quantum Monty Hall game: payoff sweeps, "
        "oracle verification, and key-distribution protocol batches.",
    )
    parser.add_argument(
        "--config", help="JSON file of default option values (flags win)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="emit a payoff-vs-gamma curve")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--d", type=int, default=3, help="total doors")
    p.add_argument("--m", type=int, default=1, help="doors the host opens")
    p.add_argument("--k", type=int, default=0, help="displacement (displacement scenario)")
    p.add_argument("--i", dest="shift", type=int, default=1,
                   help="player shift for classical-mixed / base shift for displacement")
    p.add_argument("--doors", type=int, default=1,
                   help="superposition size for separable-custom")
    p.add_argument("--grid", type=int, default=101,
                   help=f"gamma sample points (at most {MAX_GRID:,})")
    p.add_argument("--with-simulation", action="store_true",
                   help="add a full-state simulation column")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="simulation vs closed-form payoffs")
    p.add_argument("--pairs", type=int, default=50,
                   help=f"random strategy pairs per d (at most {MAX_PAIRS:,})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-d", dest="min_d", type=int, default=3)
    p.add_argument("--max-d", dest="max_d", type=int, default=6)

    p = sub.add_parser("protocol", help="run batched protocol rounds")
    p.add_argument("--protocol", choices=("a", "b"))
    p.add_argument("--d", type=int, help="doors (m = d - 2)")
    p.add_argument("--n", type=int, default=2,
                   help="parties for protocol A (protocol B fixes n = d - 1)")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--approve", default="all",
                   help="'all', 'none', or a 0/1 mask of length m")
    p.add_argument("--out", help="transcript output path (JSON lines)")

    p = sub.add_parser("info", help="derived two-party quantities for (d, m)")
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)

    return parser


# The parser of the calls without --config, built once: parsing leaves it
# as it was, while --config sets defaults on a parser of its own.
_plain_parser = lru_cache(maxsize=None)(build_parser)


@lru_cache(maxsize=None)
def _config_parser() -> argparse.ArgumentParser:
    """The parser that finds ``--config`` before the full parse, built once."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    known, _ = _config_parser().parse_known_args(argv)

    parser = build_parser() if known.config else _plain_parser()
    (commands,) = parser._subparsers._group_actions  # noqa: SLF001
    if known.config:
        try:
            with open(known.config, encoding="utf-8") as fh:
                defaults = json.load(fh)
            if not isinstance(defaults, dict):
                raise ValueError("config file must hold a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
        options = {
            action.dest
            for sp in commands.choices.values()
            for action in sp._actions  # noqa: SLF001
            if action.option_strings and action.default is not argparse.SUPPRESS
        }
        unknown = sorted(set(defaults) - options)
        if unknown:
            print(f"error: config file keys name no option: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        # A null value keeps the flag's own default.
        defaults = {k: v for k, v in defaults.items() if v is not None}
        for sp in commands.choices.values():
            sp.set_defaults(**defaults)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    # argparse checks choices on the command line only, not on defaults.
    for action in commands.choices[args.command]._actions:  # noqa: SLF001
        value = getattr(args, action.dest, None)
        if action.choices is not None and value is not None and value not in action.choices:
            print(f"error: {action.option_strings[0]} {value!r} from the config file is "
                  f"not one of {', '.join(map(repr, action.choices))}", file=sys.stderr)
            return 2
    missing = [f"--{k}" for k in REQUIRED.get(args.command, ()) if getattr(args, k) is None]
    if missing:
        print(f"error: {', '.join(missing)} required, as a flag or in --config",
              file=sys.stderr)
        return 2

    handlers = {
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "protocol": cmd_protocol,
        "info": cmd_info,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # usage, constraint or file errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
