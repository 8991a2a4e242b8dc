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
from basis or GHZ states shifted by the bits and apply door openings and
permutations, so a round touches a handful of amplitudes however large the
register.

Randomness: one generator per round, stream-split per party, so a round is a
pure function of (seed, config).  A batch (:func:`iter_rounds`) builds no
generator: it computes the numbers numpy's ``SeedSequence`` and ``PCG64``
would give each round and party with arrays over a chunk of rounds
(:mod:`qmonty.seeding`).  A round's state before the host measures depends
only on its (bits, switches) key, packed into one integer code, so a
batch completes every outcome of each distinct key once, when a round
first draws the key, with the other new keys of its chunk
(:func:`_branches`), and keeps the table of codes for the few configs used
last.  A single round is the one-key call of :func:`_branches`, its
outcome drawn from the round's own generator.

A declining validator is modeled as the identity; the round still
completes (the host's switch tolerates the stale zero register) but
switches can no longer bridge every gap, which is exactly what breaks key
agreement.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from . import seeding
from .game import BATCH_AMPLITUDES, _door_switch, opened_slot, player_slot
from .multiplayer import multi_door_opening_operator
from .qudit import (
    LocalOperator,
    Measurement,
    Picked,
    SupportState,
    _key_qudits,
    apply_local_operator,
    check_register_size,
    label_grid,
    marginal_spectra,
    top_schmidt_weights,
)

ProtocolId = Literal["a", "b"]
# Rounds a batch draws before it evolves their new keys together, in one
# evolution and one stacked diagnostic: a chunk takes milliseconds, so the
# transcripts still stream out early.
CHUNK_ROUNDS = 256
# Rounds a config may ask for: every round index is then one 32-bit word of
# its seed sequence's spawn key, as ``seeding.chunk_keys`` needs.
MAX_ROUNDS = 2**32


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
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"at most {MAX_ROUNDS} rounds, got {self.rounds}")

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
        if self.m < 1:
            raise ValueError(
                f"protocol {protocol.upper()} needs at least one validator (d >= 3)"
            )
        if protocol == "b" and self.d != self.n + 1:
            raise ValueError(
                f"protocol B requires d = n + 1, got d={self.d}, n={self.n}"
            )


@dataclass(frozen=True)
class ProtocolTranscript:
    """Full record of one protocol round.

    ``residual_ok`` (protocol A: some opened register stays entangled;
    protocol B: the party state left behind is pure with uniform marginals)
    and ``_tail`` (the JSON after the ``round`` value, which
    :func:`transcript_lines` encodes when first written) are derived.
    Rounds with the same config, bits, switches and outcome are copies of
    one template, made when the key is first met, that differ only in
    ``seed`` and ``round_index``, in every batch of that config the process
    runs: they share its tuples, both derived fields and its ``diagnostics``
    dict, which must be treated as read-only.  A ``dataclasses.replace``
    copy derives its own.
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
    residual_ok: bool = field(init=False, compare=False)
    _tail: list = field(init=False, compare=False, repr=False, default_factory=list)

    def __post_init__(self) -> None:
        diag = self.diagnostics
        if self.protocol == "a":
            ok = any(marg[1] > 1e-6 for marg in diag["opened_marginals"])
        else:
            # The marginals are rounded to 12 digits, so they hold few
            # distinct values; a NaN is kept by the set and fails.
            ok = abs(diag["residual_top_eigenvalue"] - 1) <= 1e-9 and all(
                abs(v - 1 / self.d) <= 1e-9 for v in set().union(*diag["party_marginals"])
            )
        object.__setattr__(self, "residual_ok", ok)

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


def transcript_lines(
    transcripts: Iterable[ProtocolTranscript],
) -> Iterator[tuple[ProtocolTranscript, str]]:
    """Each transcript with its JSON line, ``json.dumps(t.to_record(),
    separators=(",", ":"))`` and a newline.

    Each line is a head, the text before the ``round`` value, encoded once
    per (seed, protocol) in the stream; the round value; and the
    transcript's ``_tail``, the text after it, encoded when the transcript
    or the first of its template's copies is written, in this stream or an
    earlier one.
    """
    heads: dict[tuple, str] = {}
    for t in transcripts:
        tail = t._tail
        if not tail:
            record = t.to_record()
            for name in ("seed", "protocol", "round"):
                del record[name]
            tail.append("," + json.dumps(record, separators=(",", ":"))[1:] + "\n")
        head = heads.get((t.seed, t.protocol))
        if head is None:
            head = heads[t.seed, t.protocol] = json.dumps(
                {"seed": t.seed, "protocol": t.protocol}, separators=(",", ":")
            )[:-1] + ',"round":'
        index = t.round_index
        yield t, head + (str(index) if type(index) is int else json.dumps(index)) + tail[0]


def serialize_transcripts(transcripts: Iterable[ProtocolTranscript]) -> str:
    """One JSON record per line, in round order."""
    return "".join(line for _, line in transcript_lines(transcripts))


def write_transcripts(path, transcripts: Iterable[ProtocolTranscript]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(serialize_transcripts(transcripts))


def _round12(values: np.ndarray) -> np.ndarray:
    """Every value rounded to 12 significant digits, ``float(f"{x:.12g}")``,
    formatted once per distinct value: by bit pattern, so that -0.0 keeps
    its sign."""
    values = np.ascontiguousarray(values, dtype=float)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    rounded = np.array([float(f"{x:.12g}") for x in distinct.view(float).tolist()])
    return rounded[inverse].reshape(values.shape)


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

Key = tuple[tuple[int, ...], tuple[bool, ...]]


def evolve_round_a(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool]
) -> SupportState:
    """Protocol A state just before the host measures the party labels."""
    return _evolve_keys("a", config, [(tuple(bits), tuple(switches))])


def evolve_round_b(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool]
) -> SupportState:
    """Protocol B state just before the host measures the opened registers."""
    return _evolve_keys("b", config, [(tuple(bits), tuple(switches))])


def _batch_capacity(protocol: ProtocolId, config: ProtocolConfig) -> int:
    """Keys one evolution holds: as many as keep the batch's support within
    :data:`~qmonty.game.BATCH_AMPLITUDES` (at least one); ValueError if the
    round's register is above the amplitude budget.

    A key's support starts at one entry, or ``d`` for protocol B's GHZ
    labels, and grows at most ``d``-fold at each approved door opening;
    gap fillers, switches and victory encoders add no entries."""
    check_register_size(config.d, config.num_qudits)
    bound = config.d ** sum(config.approvals) if protocol == "a" else config.d
    return max(1, BATCH_AMPLITUDES // bound)


def _evolve_keys(
    protocol: ProtocolId, config: ProtocolConfig, keys: Sequence[Key]
) -> SupportState:
    """The state just before the host measures of every (bits, switches)
    key, as one support state.

    Key ``r``'s amplitudes sit at ``r * d**(m + n) + index``: the qudits
    above the round's ``m + n`` number the keys (none for a single key), so
    only the round's register meets the amplitude budget.
    Each key starts with its parties' door labels already shifted by their
    bits: protocol A's basis state of the bits, protocol B's GHZ labels
    ``j + bit_k (mod d)`` on party ``k``.  Every later step that a key's
    bits or switches select is one call with a
    :class:`~qmonty.qudit.Picked` pair of the step's two variants, each
    entry picking its key's, so a key evolves exactly as it would alone.
    """
    config.validate_for(protocol)
    d, n, m = config.d, config.n, config.m
    check_register_size(d, m + n)
    width = d ** (m + n)
    bits = np.array([key[0] for key in keys]).reshape(len(keys), n)
    switches = np.array([key[1] for key in keys], dtype=int).reshape(len(keys), n - 1)
    places = d ** np.array([player_slot(k) for k in range(1, n + 1)])
    if protocol == "a":
        start, amplitude = (bits @ places)[:, None], 1.0
    else:
        # Each key's GHZ branch j has label j + bit_k on party k; the
        # branches share one amplitude, so sorting them keeps the state.
        start = np.sort(((np.arange(d)[:, None] + bits[:, None, :]) % d) @ places, axis=1)
        amplitude = 1.0 / math.sqrt(d)
    state = SupportState._owned(
        d, m + n + _key_qudits(d, len(keys)),
        (np.arange(len(keys))[:, None] * width + start).ravel(),
        np.full(start.size, amplitude, dtype=complex),
    )

    def pick(variants: tuple, choice: np.ndarray) -> Picked:
        # Each entry of the current state takes its key's choice.
        return Picked(variants, choice[state.index // width])

    if protocol == "a":
        for j in range(1, m + 1):
            if config.approvals[j - 1]:
                state = apply_local_operator(state, multi_door_opening_operator(j, config))
    else:
        for j in range(2, n + 1):
            if config.approvals[j - 2]:
                fillers = (aligned_omega_operator(j, d, 0), aligned_omega_operator(j, d, 1))
                state = apply_local_operator(state, pick(fillers, bits[:, j - 1]))
    for k in range(2, n + 1):
        state = apply_local_operator(
            state, pick((None, _protocol_switch(config, k)), switches[:, k - 2])
        )
    if protocol == "b":
        for j in range(2, n + 1):
            encoders = (host_victory_operator(j, d, 0), host_victory_operator(j, d, 1))
            state = apply_local_operator(state, pick(encoders, bits[:, 0]))
    return state


def _measured_slots(protocol: str, config: ProtocolConfig) -> tuple[int, ...]:
    """Protocol A's host measures the party labels, B's the opened registers."""
    if protocol == "a":
        return tuple(range(config.n))
    return tuple(opened_slot(j, config.n) for j in range(1, config.m + 1))


def _transcript(
    protocol: str, config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool],
    outcome: tuple[int, ...], diagnostics: dict,
) -> ProtocolTranscript:
    """Complete a round from the host's outcome as a template (no seed or round index)."""
    if protocol == "a":
        wins = [outcome[k - 1] == outcome[0] for k in range(2, config.n + 1)]
    else:
        wins = [outcome[j - 2] == 0 for j in range(2, config.n + 1)]
    # A party negates its bit after (switched, won) or (kept, lost), i.e.
    # when switch == win.
    keys = (bits[0], *(
        bit ^ int(bool(sw) == bool(won)) for bit, sw, won in zip(bits[1:], switches, wins)
    ))
    return ProtocolTranscript(
        protocol=protocol,
        seed=None,
        round_index=None,
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


def _diagnostics(
    protocol: str, config: ProtocolConfig, residuals: SupportState, count: int
) -> list[dict]:
    """The diagnostics of each of the ``count`` post-measurement states that
    ``residuals`` stacks above the round's register, computed for all of
    them at once.

    Protocol A: the spectrum of every opened register's marginal.  Protocol
    B: the spectrum of every party's marginal, and the largest eigenvalue of
    the party state left behind (1 when it is pure).
    """
    n, size = config.n, config.num_qudits
    if protocol == "a":
        slots = [opened_slot(j, n) for j in range(1, config.m + 1)]
    else:
        slots = [player_slot(k) for k in range(1, n + 1)]
    # [state, slot, eigenvalue]
    margs = _round12(
        np.stack(
            [marginal_spectra(residuals, slot, size, count) for slot in slots], axis=1
        )
    ).tolist()
    if protocol == "a":
        return [{"opened_marginals": marg} for marg in margs]
    # The cut between the opened registers and the party labels.
    tops = _round12(top_schmidt_weights(residuals, n, size, count)).tolist()
    return [
        {"party_marginals": marg, "residual_top_eigenvalue": top}
        for marg, top in zip(margs, tops)
    ]


def _branches(
    protocol: ProtocolId, config: ProtocolConfig, keys: Sequence[Key]
) -> list[tuple[np.ndarray, list[ProtocolTranscript]]]:
    """Every outcome of each (bits, switches) key: its outcome probabilities
    and one template transcript per outcome, in outcome order, with no seed
    or round index.

    The keys are evolved as one support state (:func:`_evolve_keys`) and
    measured at once.  Every key's distribution is read first, so a zero
    state raises before anything is collapsed; the diagnostics of all their
    outcomes are then computed from one stacked state.
    """
    measured = Measurement(
        _evolve_keys(protocol, config, keys), _measured_slots(protocol, config),
        config.num_qudits, len(keys),
    )
    probs = [measured.distribution(r) for r in range(len(keys))]
    groups = len(measured.groups)
    diagnostics = _diagnostics(protocol, config, measured.collapsed(range(groups)), groups)
    return [
        (probs[r], [
            _transcript(protocol, config, *key, measured.labels(group), diagnostics[group])
            for group in range(measured.first[r], measured.first[r + 1])
        ])
        for r, key in enumerate(keys)
    ]


def _simulate_round(
    protocol: ProtocolId, config: ProtocolConfig, bits: Sequence[int],
    switches: Sequence[bool], rng: np.random.Generator, round_index: int,
) -> ProtocolTranscript:
    """One round with fixed bits and switch choices: the one-key call of
    :func:`_branches`, its outcome drawn as ``rng.choice(len(p), p=p)``, the
    draw :func:`~qmonty.qudit.measure_slots` makes."""
    ((probs, templates),) = _branches(protocol, config, [(tuple(bits), tuple(switches))])
    return _with_round(templates[rng.choice(len(probs), p=probs)], config.seed, round_index)


def simulate_round_a(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool],
    measure_rng: np.random.Generator, round_index: int = 0,
) -> ProtocolTranscript:
    """Run one protocol A round with fixed bits and switch choices."""
    return _simulate_round("a", config, bits, switches, measure_rng, round_index)


def simulate_round_b(
    config: ProtocolConfig, bits: Sequence[int], switches: Sequence[bool],
    measure_rng: np.random.Generator, round_index: int = 0,
) -> ProtocolTranscript:
    """Run one protocol B round with fixed bits and switch choices."""
    return _simulate_round("b", config, bits, switches, measure_rng, round_index)


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
    return _simulate_round("a", config, *_draw_choices(config, rng), rng, round_index)


def run_protocol_b(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> ProtocolTranscript:
    """One seeded protocol B round: random bits and switch choices."""
    return _simulate_round("b", config, *_draw_choices(config, rng), rng, round_index)


def iter_rounds(
    config: ProtocolConfig, protocol: ProtocolId
) -> Iterator[ProtocolTranscript]:
    """The batch's ``config.rounds`` seeded rounds, in round order.

    Round ``i`` draws from a generator seeded by child ``i`` of
    ``SeedSequence(config.seed)``: first its bits and switches, then the
    host's outcome, exactly as :func:`run_protocol_a`/:func:`run_protocol_b`
    would.  No generator is built (:mod:`qmonty.seeding`), and each outcome
    is picked by searching the cumulative sums ``Generator.choice`` searches.

    Rounds stream in chunks of :data:`CHUNK_ROUNDS`.  A chunk first draws
    the keys of its rounds, as packed integer codes
    (:func:`seeding.chunk_keys`).  It then decodes the codes not in the
    config's table (:func:`_branch_table`) and completes their keys, in
    batches of up to :func:`_batch_capacity` keys (:func:`_branches`), one
    batch unless a key's support bound is large.  Last it draws each
    round's outcome and yields a copy of that outcome's template with the
    round's ``seed`` and ``round_index``.  Only the rounds whose key leaves
    several outcomes compute their sample, and a chunk with no such round
    computes none: a round's generator is not used after that draw, so the
    transcripts are the same.
    """
    config.validate_for(protocol)
    capacity = _batch_capacity(protocol, config)
    branches = _branch_table(protocol, config.d, config.n, config.m, config.approvals)
    base = seeding.seed_pool(config.seed)
    for first in range(0, config.rounds, CHUNK_ROUNDS):
        codes, pool = seeding.chunk_keys(
            base, config.n, first, min(CHUNK_ROUNDS, config.rounds - first)
        )
        new = [code for code in dict.fromkeys(codes) if code not in branches]
        for lo in range(0, len(new), capacity):
            batch = new[lo:lo + capacity]
            keys = [seeding.decode_key(code, config.n) for code in batch]
            for code, (probs, templates) in zip(batch, _branches(protocol, config, keys)):
                branches[code] = (seeding.choice_cdf(probs), templates)
        drawn = [r for r, code in enumerate(codes) if len(branches[code][0]) > 1]
        samples = dict(zip(drawn, seeding.uniforms(pool, drawn)))
        for r, code in enumerate(codes):
            cdf, templates = branches[code]
            pos = bisect_right(cdf, samples[r]) if r in samples else 0
            yield _with_round(templates[pos], config.seed, first + r)


@lru_cache(maxsize=4)
def _branch_table(
    protocol: ProtocolId, d: int, n: int, m: int, approvals: tuple[bool, ...]
) -> dict:
    """The branch table of one config's batches, empty until
    :func:`iter_rounds` fills it: key code -> (outcome cdf, template by
    outcome position), every outcome of a key completed when the key is
    first met.

    A process keeps the tables of the four configs used last, enough for a
    caller that alternates a few approval plans; each holds no more than
    the keys its config's batches met."""
    return {}


def _with_round(t: ProtocolTranscript, seed: int, round_index: int) -> ProtocolTranscript:
    """A copy of ``t`` with another ``seed`` and ``round_index``, made
    without ``dataclasses.replace``'s call of ``__init__``."""
    copy = object.__new__(ProtocolTranscript)
    copy.__dict__.update(t.__dict__, seed=seed, round_index=round_index)
    return copy


@dataclass(frozen=True)
class BatchReport:
    """Aggregate statistics over a batch of protocol rounds.

    ``residual_ok`` holds whether every non-flagged round passed the
    protocol's residual-state check, or ``None`` where the check does not
    apply, with ``residual_skipped`` the verdict line that says why: a
    declining validator, no non-flagged round, or protocol A with a single
    opened register (``d = 3``), which a non-flagged round, with party
    labels 0 and 1, leaves in the basis state of door 2.
    """

    protocol: str
    rounds: int
    flagged_rounds: int
    agreement_rate: float
    all_same_frequency: float
    expected_all_same_frequency: float
    residual_ok: bool | None
    residual_skipped: str | None = None
    transcripts: tuple[ProtocolTranscript, ...] = ()

    def summary_lines(self) -> list[str]:
        """The batch's statistics, the residual check's verdict last."""
        check = (
            "residual opened-register entanglement" if self.protocol == "a"
            else "residual party state pure with uniform marginals"
        )
        return [
            f"protocol {self.protocol.upper()}: {self.rounds} rounds, "
            f"{self.flagged_rounds} flagged (all-same strategies)",
            f"agreement rate over non-flagged rounds: {self.agreement_rate:.6f}",
            f"all-same frequency: {self.all_same_frequency:.6f} "
            f"(expected {self.expected_all_same_frequency:.6f})",
            self.residual_skipped or f"{check}: {'pass' if self.residual_ok else 'FAIL'}",
        ]


def summarize(
    config: ProtocolConfig, protocol: ProtocolId, rounds: Iterable[ProtocolTranscript]
) -> BatchReport:
    """Aggregate rounds in one pass, keeping none of them.

    The agreement rate is computed over non-flagged rounds only; flagged
    rounds (all parties drew the same strategy bit) are reported separately
    against their expected frequency 1/2^(n-1).  The residual check reads
    each non-flagged round's ``residual_ok``.
    """
    flagged = agreed = usable = 0
    residual_ok = True
    for t in rounds:
        if t.all_same:
            flagged += 1
            continue
        usable += 1
        agreed += t.agreement
        residual_ok = residual_ok and t.residual_ok
    skipped = None
    if protocol == "a" and config.m < 2:
        skipped = (
            "residual opened-register entanglement: skipped (one opened register, "
            "which every non-flagged round leaves on the one free door)"
        )
    elif not (config.all_approve and usable):
        skipped = "entanglement diagnostic: skipped (declining validators or no usable rounds)"
    return BatchReport(
        protocol=protocol,
        rounds=config.rounds,
        flagged_rounds=flagged,
        agreement_rate=agreed / usable if usable else float("nan"),
        all_same_frequency=flagged / config.rounds,
        expected_all_same_frequency=0.5 ** (config.n - 1),
        residual_ok=None if skipped else residual_ok,
        residual_skipped=skipped,
    )


def run_batch(config: ProtocolConfig, protocol: ProtocolId) -> BatchReport:
    """Run ``config.rounds`` independent seeded rounds (:func:`iter_rounds`),
    aggregate them (:func:`summarize`) and keep their transcripts."""
    transcripts = tuple(iter_rounds(config, protocol))
    return replace(summarize(config, protocol, transcripts), transcripts=transcripts)
