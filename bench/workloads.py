"""The benchmark's workloads: a cold set-up call, a timed call and a gate.

Each workload exposes

* ``setup(work)``: the cold first call into qmonty, sized to build every
  operator and oracle table the timed calls use;
* ``call(seed, work)``: one timed call through public qmonty functions,
  returning its raw output (files written, or exit code and stdout);
* ``check(raw)``: the correctness gate, returning an :class:`Outcome` with
  the operations attempted, the operations failed and the sha256 of the
  output bytes;
* ``default_seed`` and ``pin``: the inputs of call 0 and the sha256 their
  output must hash to (``pin`` is ``None`` where the output is not
  byte-stable across machines, see NOTES.md).

Operations are protocol rounds, verify checks or sweep points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

# Calls go through module attributes so that the traced run sees them.
from qmonty import cli, protocols

GATE_TOL = 1e-9
# Rounds of the cold set-up batch: every operator variant of a round is hit
# with probability 1/2 per round, so 16 rounds build all of them.
SETUP_ROUNDS = 16


@dataclass(frozen=True)
class Outcome:
    ops: int
    failed: int
    digest: str


def _digest(chunks: list[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _keys_disagree(record: dict) -> bool:
    keys = record["final_keys"]
    return len(set(record["bits"])) > 1 and any(k != keys[0] for k in keys)


def _b_residual_bad(record: dict, d: int, n: int) -> bool:
    diag = record["diagnostics"]
    marginals = diag["party_marginals"]
    # Written as ``not ... <= tol`` so that a NaN fails the round.
    if not abs(diag["residual_top_eigenvalue"] - 1.0) <= GATE_TOL:
        return True
    if [len(marg) for marg in marginals] != [d] * n:
        return True
    return any(not abs(v - 1.0 / d) <= GATE_TOL for marg in marginals for v in marg)


class ProtocolWorkload:
    """``run_batch`` per approval plan, each batch written as transcripts.

    An all-approve batch fails a round whose bits differ but whose final
    keys disagree (and, for protocol B, whose residual is not pure with
    uniform party marginals).  A batch with a declining validator fails as a
    whole when it still reaches full agreement (acceptance criterion 8).
    """

    def __init__(self, name, protocol, d, n, m, plans, rounds, default_seed, pin):
        self.name = name
        self.protocol = protocol
        self.d, self.n, self.m = d, n, m
        self.plans = plans
        self.rounds = rounds
        self.default_seed = default_seed
        self.pin = pin

    def _config(self, approvals, seed, rounds):
        return protocols.ProtocolConfig(
            d=self.d, n=self.n, m=self.m, approvals=approvals, seed=seed, rounds=rounds
        )

    def setup(self, work: Path) -> None:
        for approvals in self.plans:
            config = self._config(approvals, self.default_seed, SETUP_ROUNDS)
            protocols.run_batch(config, self.protocol)

    def call(self, seed: int, work: Path) -> list[Path]:
        paths = []
        for p, approvals in enumerate(self.plans):
            report = protocols.run_batch(self._config(approvals, seed, self.rounds), self.protocol)
            path = work / f"{self.name}-{p}.jsonl"
            protocols.write_transcripts(path, report.transcripts)
            paths.append(path)
        return paths

    def check(self, paths: list[Path]) -> Outcome:
        blobs = [path.read_bytes() for path in paths]
        failed = 0
        for approvals, blob in zip(self.plans, blobs):
            records = [json.loads(line) for line in blob.splitlines()]
            failed += max(self.rounds - len(records), 0)
            if all(approvals):
                for rec in records:
                    bad = _keys_disagree(rec)
                    if self.protocol == "b":
                        bad = bad or _b_residual_bad(rec, self.d, self.n)
                    failed += bad
            else:
                usable = [rec for rec in records if len(set(rec["bits"])) > 1]
                if usable and not any(_keys_disagree(rec) for rec in usable):
                    failed += len(records)
        return Outcome(self.rounds * len(self.plans), failed, _digest(blobs))


class VerifyWorkload:
    """``qmonty verify`` on the default grid, with stdout captured.

    The CLI reports only the largest deviation of each check family, so a
    family that fails counts all of its checks as failed.  The CLI keeps
    that maximum with ``dev > worst``, which drops a NaN deviation; random
    SU(d) pairs always leave round-off, so a separable or entangled maximum
    of exactly 0 means no deviation was kept and counts as failed too.
    """

    name = "verify-grid"
    default_seed = 0
    # The verify output prints floating-point deviations near 1e-16, whose
    # last digits depend on the BLAS kernel the CPU selects: reported, not
    # pinned.
    pin = None
    MIN_D, MAX_D, PAIRS = 3, 6, 50
    GAMMAS = 4  # fixed inside ``cli.cmd_verify``
    ROUND_OFF_FAMILIES = ("separable", "entangled")
    LINE = re.compile(r"^\s*(\w+): max \|simulation - closed form\| = (\S+)\s+(\S+)")

    def __init__(self):
        per_family = {"separable": 0, "entangled": 0, "displacement": 0}
        for d in range(self.MIN_D, self.MAX_D + 1):
            cells = (d - 1) * self.GAMMAS  # every m in 0..d-2
            per_family["separable"] += cells * self.PAIRS
            per_family["entangled"] += cells * self.PAIRS
            per_family["displacement"] += cells * d
        self.per_family = per_family
        self.checks = sum(per_family.values())

    def _run(self, seed: int, pairs: int) -> tuple[int, str]:
        args = [
            "verify", "--seed", str(seed), "--pairs", str(pairs),
            "--min-d", str(self.MIN_D), "--max-d", str(self.MAX_D),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        return code, buf.getvalue()

    def setup(self, work: Path) -> None:
        self._run(self.default_seed, 1)

    def call(self, seed: int, work: Path) -> tuple[int, str]:
        return self._run(seed, self.PAIRS)

    def check(self, raw: tuple[int, str]) -> Outcome:
        code, out = raw
        digest = _digest([out.encode()])
        if code != 0:
            return Outcome(self.checks, self.checks, digest)
        failed = 0
        seen = set()
        for line in out.splitlines():
            match = self.LINE.match(line)
            if match and match.group(1) in self.per_family:
                family, dev, status = match.groups()
                seen.add(family)
                dev = float(dev)
                vanished = dev == 0.0 and family in self.ROUND_OFF_FAMILIES
                if status != "ok" or not dev <= GATE_TOL or vanished:
                    failed += self.per_family[family]
        failed += sum(n for f, n in self.per_family.items() if f not in seen)
        return Outcome(self.checks, failed, digest)


class SweepWorkload:
    """``qmonty sweep`` of the entangled QFT curve at d=7, m=5 with the
    simulated column, written as CSV.  It has no random input."""

    name = "sweep-d7m5"
    default_seed = None
    pin = "35361577e4afd8985d47d55790622c9832f86e75fbdf0e45cd2bd9c3c68dcd6e"
    POINTS = 101

    def _run(self, path: Path) -> tuple[int, Path]:
        code = cli.main([
            "sweep", "--scenario", "entangled-qft", "--d", "7", "--m", "5",
            "--with-simulation", "--grid", str(self.POINTS), "--out", str(path),
        ])
        return code, path

    def setup(self, work: Path) -> None:
        self._run(work / f"{self.name}-setup.csv")

    def call(self, seed: int, work: Path) -> tuple[int, Path]:
        return self._run(work / f"{self.name}.csv")

    def check(self, raw: tuple[int, Path]) -> Outcome:
        code, path = raw
        if code != 0 or not path.exists():
            return Outcome(self.POINTS, self.POINTS, "")
        blob = path.read_bytes()
        header, *rows = blob.decode().splitlines()
        cols = header.split(",")
        i_payoff, i_sim = cols.index("payoff"), cols.index("simulated")
        failed = max(self.POINTS - len(rows), 0)
        for row in rows:
            cells = row.split(",")
            failed += not abs(float(cells[i_sim]) - float(cells[i_payoff])) <= GATE_TOL
        return Outcome(self.POINTS, failed, _digest([blob]))


WORKLOADS = {
    wl.name: wl
    for wl in (
        ProtocolWorkload(
            "protocol-b-d5", "b", d=5, n=4, m=3,
            plans=[(True, True, True)],
            # More rounds than the 2^(2n-1) = 128 distinct (bits, switches).
            rounds=200,
            default_seed=9090,
            pin="9e157d58fa519e3ffce2b47e4654989919a9dcff296a96a058511d1a96c7b65b",
        ),
        ProtocolWorkload(
            "protocol-a-d4", "a", d=4, n=2, m=2,
            plans=[(True, True), (True, False)],
            rounds=250,
            default_seed=7,
            pin="5536cf14ae333c602e7db6f6e8b551886a7fb8418c9a072e198f876cdb57fd06",
        ),
        VerifyWorkload(),
        SweepWorkload(),
    )
}
