"""Seeded simulations of two validated multi-party key-distribution protocols.

Protocol A (direct, condition d = m + 2): the host prepares the all-zero
register, every party encodes a random bit by shifting its own door label by
0 or 1, the m validators apply (or decline) the door-opening operators in
order, each player randomly switches or keeps its door, the host measures
all party labels and announces wins, and the players who switched-and-won or
kept-and-lost negate their bit.  When every validator approves, the opened
registers fill all doors from 2 to d-1 and a switch lands exactly on the
host's label iff the two bits differ, so all final bits agree.

Protocol B (motivated, conditions d = m + 2 = n + 1): the party labels start
in the shared GHZ state, validator j-1 applies a single-assignment
gap-filling operator on (o_{j-1}, p_j), and the host applies victory-encoding
operators writing win (0) or loss (1) into the opened registers before
measuring them, so the party labels are never measured and their maximal
entanglement survives the round.

Rounds run on :class:`~qmonty.qudit.SupportState`: both protocols start
from basis or GHZ states and apply shifts, door openings and permutations,
so a round touches a handful of amplitudes however large the register.

Randomness: one generator per round, stream-split per party, so a round is a
pure function of (seed, config).  A round's state before the host measures
depends only on its (bits, switches), so a batch (:func:`iter_rounds`)
evolves and measures each distinct pair once and completes each of its
outcomes once.  A declining validator is modeled as the
identity; the round still completes (the host's switch tolerates the stale
zero register) but switches can no longer bridge every gap, which is exactly
what breaks key agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .game import _door_switch, opened_slot, player_slot
from .multiplayer import multi_door_opening_operator
from .qudit import (
    LocalOperator,
    SupportState,
    apply_local_operator,
    apply_strategy,
    label_grid,
    marginal_eigenvalues,
    measure_slots,
    measurement_branches,
    measurement_distribution,
    sum_d,
    support_basis_state,
    support_ghz_state,
)

ProtocolId = Literal["a", "b"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol parameters.

    ``d`` doors, ``n`` parties including the host, ``m`` validators,
    a per-validator approval plan, the root seed, and the number of rounds.
    Protocol A requires d = m + 2; protocol B additionally d = n + 1.
    """

    d: int
    n: int
    m: int
    approvals: tuple[bool, ...]
    seed: int
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a protocol needs at least two parties")
        if self.m < 0:
            raise ValueError("the validator count cannot be negative")
        if len(self.approvals) != self.m:
            raise ValueError(
                f"need one approval flag per validator ({self.m}), "
                f"got {len(self.approvals)}"
            )
        if self.rounds < 1:
            raise ValueError("need at least one round")

    @property
    def num_qudits(self) -> int:
        return self.m + self.n

    @property
    def all_approve(self) -> bool:
        return all(self.approvals)

    def validate_for(self, protocol: ProtocolId) -> None:
        if protocol not in ("a", "b"):
            raise ValueError(f"unknown protocol id {protocol!r}")
        if self.d != self.m + 2:
            raise ValueError(
                f"protocol {protocol.upper()} requires d = m + 2, "
                f"got d={self.d}, m={self.m}"
            )
        if protocol == "b" and self.d != self.n + 1:
            raise ValueError(
                f"protocol B requires d = n + 1, got d={self.d}, n={self.n}"
            )


@dataclass(frozen=True)
class ProtocolTranscript:
    """Full record of one protocol round.

    In a batch from :func:`iter_rounds`, the rounds with the same bits,
    switches and outcome are copies of one transcript that differ only in
    ``round_index``: they share its tuples and its ``diagnostics`` dict, so
    that dict must be treated as read-only.
    """

    protocol: str
    seed: int
    round_index: int
    d: int
    n: int
    m: int
    bits: tuple[int, ...]
    switches: tuple[bool, ...]
    approvals: tuple[bool, ...]
    outcomes: tuple[int, ...]
    wins: tuple[bool, ...]
    final_keys: tuple[int, ...]
    all_same: bool
    agreement: bool
    diagnostics: dict

    def to_record(self) -> dict:
        """Serialization-ready dict with a fixed field order."""
        return {
            "seed": self.seed,
            "protocol": self.protocol,
            "round": self.round_index,
            "config": {"d": self.d, "n": self.n, "m": self.m},
            "bits": list(self.bits),
            "switches": [int(s) for s in self.switches],
            "approvals": [int(a) for a in self.approvals],
            "outcomes": {
                "measured": list(self.outcomes),
                "wins": [int(w) for w in self.wins],
            },
            "final_keys": list(self.final_keys),
            "flags": {"all_same": int(self.all_same), "agreement": int(self.agreement)},
            "diagnostics": self.diagnostics,
        }


def serialize_transcripts(transcripts: Iterable[ProtocolTranscript]) -> str:
    """One JSON record per line, in round order."""
    return "".join(
        json.dumps(t.to_record(), separators=(",", ":")) + "\n" for t in transcripts
    )


def write_transcripts(path, transcripts: Iterable[ProtocolTranscript]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(serialize_transcripts(transcripts))


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


# ---------------------------------------------------------------------------
# Protocol operators.
# ---------------------------------------------------------------------------


def _check_validator_index(j: int, d: int) -> int:
    n = d - 1
    if not 2 <= j <= n:
        raise ValueError(f"validator operator index {j} out of range 2..{n}")
    return n


def _rewrite_opened(
    d: int, slots: tuple[int, ...], domain: np.ndarray, opened: np.ndarray, name: str
) -> LocalOperator:
    """Operator writing ``opened[r]`` into the first (opened-register) label
    of every in-domain input r and keeping the other labels."""
    width = d ** (len(slots) - 1)
    src = np.flatnonzero(domain)
    dst = opened[src] * width + src % width
    return LocalOperator(d, slots, src, dst, np.ones(len(src)), domain, name=name)


def omega_operator(j: int, d: int) -> LocalOperator:
    """Single-assignment gap filler |0, i> -> |i + j mod d, i> on (o_{j-1}, p_j).

    Built for the d = m + 2 = n + 1 register layout; the domain is the
    opened register being 0.  It is :func:`aligned_omega_operator` with
    shift 0.
    """
    return aligned_omega_operator(j, d, 0)


@lru_cache(maxsize=None)
def aligned_omega_operator(j: int, d: int, shift: int) -> LocalOperator:
    """Gap filler aligned with the player's strategy shift.

    Maps |0, i> to |i - shift + j mod d, i>, i.e. the plain gap filler
    conjugated by the player's shift gate, so the written door label is
    anchored to the pre-strategy frame shared by all parties.  With shift 0
    this is exactly :func:`omega_operator`.
    """
    n = _check_validator_index(j, d)
    o, i = label_grid(d, 2)
    return _rewrite_opened(
        d, (opened_slot(j - 1, n), player_slot(j)), o == 0, (i - shift + j) % d,
        name=f"gap-filling Omega_{j} (shift {shift})",
    )


@lru_cache(maxsize=None)
def victory_encoding_operator(j: int, d: int) -> LocalOperator:
    """Win/loss encoder |i+j, i, k> -> ||k-i|, i, k> on (o_{j-1}, p_j, p_1).

    Defined where the opened register equals p_j + j and the two party
    labels differ by at most one (mod d); afterwards the opened register
    holds 0 for a win (p_j = p_1) and 1 for a loss.
    """
    n = _check_validator_index(j, d)
    o, i, k = label_grid(d, 3)
    diff = (k - i) % d
    domain = (o == (i + j) % d) & ((diff <= 1) | (diff == d - 1))
    return _rewrite_opened(
        d, (opened_slot(j - 1, n), player_slot(j), player_slot(1)), domain,
        (diff != 0).astype(np.intp), name=f"victory V_{j}",
    )


@lru_cache(maxsize=None)
def host_victory_operator(j: int, d: int, host_bit: int) -> LocalOperator:
    """Total win/loss encoder used by the host at step 9.

    The host knows its own strategy bit, so the opened register written by
    the aligned gap filler is k - host_bit + j (mod d) in every branch; this
    operator subtracts that reference and adds the win indicator, leaving 0
    for p_j = p_1 and 1 otherwise.  Off the protocol's proper states it
    remains the same controlled modular shift, hence a permutation of the
    whole space: rounds with declining validators still evolve unitarily and
    simply fail to agree.
    """
    n = _check_validator_index(j, d)
    o, p, k = label_grid(d, 3)
    return _rewrite_opened(
        d, (opened_slot(j - 1, n), player_slot(j), player_slot(1)),
        np.ones(d**3, dtype=bool), (o - (k - host_bit) % d - j + (p != k)) % d,
        name=f"host victory V_{j} (bit {host_bit})",
    )


def _protocol_switch(config: ProtocolConfig, k: int) -> LocalOperator:
    # The host applies the switch whatever the register holds; stale zero
    # registers of declining validators may collide with a party label.
    return _door_switch(config.d, config.m, config.n, k, tolerate_opened_choice=True)


# ---------------------------------------------------------------------------
# Round evolution.
# ---------------------------------------------------------------------------


def evolve_round_a(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool]
) -> SupportState:
    """Protocol A state just before the host measures the party labels."""
    config.validate_for("a")
    d, n, m = config.d, config.n, config.m
    state = support_basis_state(d, (0,) * (m + n))
    for k, bit in enumerate(bits, start=1):
        state = apply_strategy(state, sum_d(d, bit), player_slot(k))
    for j in range(1, m + 1):
        if config.approvals[j - 1]:
            state = apply_local_operator(state, multi_door_opening_operator(j, config))
    for k, sw in enumerate(switches, start=2):
        if sw:
            state = apply_local_operator(state, _protocol_switch(config, k))
    return state


def evolve_round_b(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool]
) -> SupportState:
    """Protocol B state just before the host measures the opened registers."""
    config.validate_for("b")
    d, n, m = config.d, config.n, config.m
    state = support_ghz_state(d, n)
    if m:
        state = support_basis_state(d, (0,) * m).tensor(state)
    for k, bit in enumerate(bits, start=1):
        state = apply_strategy(state, sum_d(d, bit), player_slot(k))
    for j in range(2, n + 1):
        if config.approvals[j - 2]:
            state = apply_local_operator(
                state, aligned_omega_operator(j, d, bits[j - 1])
            )
    for k, sw in enumerate(switches, start=2):
        if sw:
            state = apply_local_operator(state, _protocol_switch(config, k))
    for j in range(2, n + 1):
        state = apply_local_operator(state, host_victory_operator(j, d, bits[0]))
    return state


def _final_keys(
    bits: Sequence[int], switches: Sequence[bool], wins: Sequence[bool]
) -> tuple[int, ...]:
    # Negate after (switched, won) or (kept, lost), i.e. when switch == win.
    keys = [bits[0]]
    for bit, sw, won in zip(bits[1:], switches, wins):
        keys.append(bit ^ int(bool(sw) == bool(won)))
    return tuple(keys)


def _measured_slots(protocol: str, config: ProtocolConfig) -> tuple[int, ...]:
    """Protocol A's host measures the party labels, B's the opened registers."""
    if protocol == "a":
        return tuple(range(config.n))
    return tuple(opened_slot(j, config.n) for j in range(1, config.m + 1))


def _transcript(
    protocol: str,
    config: ProtocolConfig,
    round_index: int,
    bits: Sequence[int],
    switches: Sequence[bool],
    outcome: tuple[int, ...],
    residual: SupportState,
) -> ProtocolTranscript:
    """Complete a round from the host's measurement outcome."""
    if protocol == "a":
        wins = [outcome[k - 1] == outcome[0] for k in range(2, config.n + 1)]
        diagnostics = _diagnostics_a(config, residual)
    else:
        wins = [outcome[j - 2] == 0 for j in range(2, config.n + 1)]
        diagnostics = _diagnostics_b(config, residual)
    keys = _final_keys(bits, switches, wins)
    return ProtocolTranscript(
        protocol=protocol,
        seed=config.seed,
        round_index=round_index,
        d=config.d,
        n=config.n,
        m=config.m,
        bits=tuple(bits),
        switches=tuple(bool(s) for s in switches),
        approvals=config.approvals,
        outcomes=outcome,
        wins=tuple(bool(w) for w in wins),
        final_keys=keys,
        all_same=len(set(bits)) == 1,
        agreement=all(k == keys[0] for k in keys),
        diagnostics=diagnostics,
    )


def _diagnostics_a(config: ProtocolConfig, residual: SupportState) -> dict:
    margs = [
        [_round12(v) for v in marginal_eigenvalues(residual, opened_slot(j, config.n))]
        for j in range(1, config.m + 1)
    ]
    return {"opened_marginals": margs}


def _diagnostics_b(config: ProtocolConfig, residual: SupportState) -> dict:
    margs = [
        [_round12(v) for v in marginal_eigenvalues(residual, player_slot(k))]
        for k in range(1, config.n + 1)
    ]
    # Opened registers by party labels, without the all-zero rows and
    # columns of the full d**m x d**n matrix.
    rows, row_of = np.unique(residual.index // config.d**config.n, return_inverse=True)
    cols, col_of = np.unique(residual.index % config.d**config.n, return_inverse=True)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    mat[row_of, col_of] = residual.amplitudes
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    return {
        "party_marginals": margs,
        "residual_top_eigenvalue": _round12(float(s2.max() / s2.sum())),
    }


def simulate_round_a(
    config: ProtocolConfig,
    bits: Sequence[int],
    switches: Sequence[bool],
    measure_rng: np.random.Generator,
    round_index: int = 0,
) -> ProtocolTranscript:
    """Run one protocol A round with fixed bits and switch choices."""
    state = evolve_round_a(config, bits, switches)
    outcome, residual = measure_slots(state, _measured_slots("a", config), measure_rng)
    return _transcript("a", config, round_index, bits, switches, outcome, residual)


def simulate_round_b(
    config: ProtocolConfig,
    bits: Sequence[int],
    switches: Sequence[bool],
    measure_rng: np.random.Generator,
    round_index: int = 0,
) -> ProtocolTranscript:
    """Run one protocol B round with fixed bits and switch choices."""
    state = evolve_round_b(config, bits, switches)
    outcome, residual = measure_slots(state, _measured_slots("b", config), measure_rng)
    return _transcript("b", config, round_index, bits, switches, outcome, residual)


def enumerate_measurement_branches(
    protocol: ProtocolId,
    config: ProtocolConfig,
    bits: Sequence[int],
    switches: Sequence[bool],
) -> list[tuple[float, ProtocolTranscript]]:
    """All measurement branches of one round with their probabilities.

    Enumerates every outcome of the host's measurement with nonzero weight
    and completes the round for each, which makes exhaustive win/loss and
    key checks independent of sampling.
    """
    evolve = evolve_round_a if protocol == "a" else evolve_round_b
    state = evolve(config, bits, switches)
    return [
        (prob, _transcript(protocol, config, 0, bits, switches, outcome, residual))
        for prob, outcome, residual in measurement_branches(
            state, _measured_slots(protocol, config)
        )
    ]


# ---------------------------------------------------------------------------
# Random rounds and batches.
# ---------------------------------------------------------------------------


def _draw_choices(
    config: ProtocolConfig, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    streams = rng.spawn(config.n)
    bits = tuple(int(s.integers(2)) for s in streams)
    switches = tuple(bool(s.integers(2)) for s in streams[1:])
    return bits, switches


def run_protocol_a(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> ProtocolTranscript:
    """One seeded protocol A round: random bits and switch choices."""
    config.validate_for("a")
    bits, switches = _draw_choices(config, rng)
    return simulate_round_a(config, bits, switches, rng, round_index)


def run_protocol_b(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> ProtocolTranscript:
    """One seeded protocol B round: random bits and switch choices."""
    config.validate_for("b")
    bits, switches = _draw_choices(config, rng)
    return simulate_round_b(config, bits, switches, rng, round_index)


def iter_rounds(
    config: ProtocolConfig, protocol: ProtocolId
) -> Iterator[ProtocolTranscript]:
    """The batch's ``config.rounds`` seeded rounds, in round order.

    Round ``i`` draws from a generator seeded by child ``i`` of
    ``SeedSequence(config.seed)``: first its bits and switches, then the
    host's outcome, exactly as :func:`run_protocol_a`/:func:`run_protocol_b`
    would.  The state before the host measures depends only on the
    (bits, switches) pair, so within one call each distinct pair is evolved
    and measured once, and each of its outcomes is completed into a
    transcript once; a round yields that transcript with its own
    ``round_index``.  The table of pairs lives only as long as the call.
    """
    config.validate_for(protocol)
    evolve = evolve_round_a if protocol == "a" else evolve_round_b
    slots = _measured_slots(protocol, config)
    # (bits, switches) -> (outcome probabilities, collapse, transcript by outcome)
    branches: dict = {}
    root = np.random.SeedSequence(config.seed)
    for i in range(config.rounds):
        rng = np.random.default_rng(root.spawn(1)[0])
        bits, switches = _draw_choices(config, rng)
        if (bits, switches) not in branches:
            state = evolve(config, bits, switches)
            branches[bits, switches] = (*measurement_distribution(state, slots), {})
        p, collapse, templates = branches[bits, switches]
        pos = int(rng.choice(len(p), p=p))
        if pos not in templates:
            templates[pos] = _transcript(
                protocol, config, 0, bits, switches, *collapse(pos)
            )
        yield replace(templates[pos], round_index=i)


def _residual_ok(t: ProtocolTranscript) -> bool:
    """Protocol A: some opened register stays entangled.  Protocol B: the
    party state left behind is pure with uniform marginals."""
    if t.protocol == "a":
        return any(marg[1] > 1e-6 for marg in t.diagnostics["opened_marginals"])
    return abs(t.diagnostics["residual_top_eigenvalue"] - 1) <= 1e-9 and all(
        abs(v - 1 / t.d) <= 1e-9
        for marg in t.diagnostics["party_marginals"]
        for v in marg
    )


@dataclass(frozen=True)
class BatchReport:
    """Aggregate statistics over a batch of protocol rounds.

    ``residual_ok`` holds whether every non-flagged round passed the
    protocol's residual-state check, or ``None`` where the check does not
    apply: a declining validator, no non-flagged round, or protocol A with
    a single opened register (``d = 3``), which a non-flagged round, with
    party labels 0 and 1, leaves in the basis state of door 2.
    """

    protocol: str
    rounds: int
    flagged_rounds: int
    agreement_rate: float
    all_same_frequency: float
    expected_all_same_frequency: float
    residual_ok: bool | None
    transcripts: tuple[ProtocolTranscript, ...] = ()

    def summary_lines(self) -> list[str]:
        return [
            f"protocol {self.protocol.upper()}: {self.rounds} rounds, "
            f"{self.flagged_rounds} flagged (all-same strategies)",
            f"agreement rate over non-flagged rounds: {self.agreement_rate:.6f}",
            f"all-same frequency: {self.all_same_frequency:.6f} "
            f"(expected {self.expected_all_same_frequency:.6f})",
        ]


def summarize(
    config: ProtocolConfig, protocol: ProtocolId, rounds: Iterable[ProtocolTranscript]
) -> BatchReport:
    """Aggregate rounds in one pass, keeping none of them.

    The agreement rate is computed over non-flagged rounds only; flagged
    rounds (all parties drew the same strategy bit) are reported separately
    against their expected frequency 1/2^(n-1).
    """
    flagged = agreed = usable = 0
    residual_ok = True
    for t in rounds:
        if t.all_same:
            flagged += 1
            continue
        usable += 1
        agreed += t.agreement
        residual_ok = residual_ok and _residual_ok(t)
    checkable = config.all_approve and usable and (protocol == "b" or config.m >= 2)
    return BatchReport(
        protocol=protocol,
        rounds=config.rounds,
        flagged_rounds=flagged,
        agreement_rate=agreed / usable if usable else float("nan"),
        all_same_frequency=flagged / config.rounds,
        expected_all_same_frequency=0.5 ** (config.n - 1),
        residual_ok=residual_ok if checkable else None,
    )


def run_batch(config: ProtocolConfig, protocol: ProtocolId) -> BatchReport:
    """Run ``config.rounds`` independent seeded rounds (:func:`iter_rounds`),
    aggregate them (:func:`summarize`) and keep their transcripts."""
    transcripts = tuple(iter_rounds(config, protocol))
    return replace(summarize(config, protocol, transcripts), transcripts=transcripts)
