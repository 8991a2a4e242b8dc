"""Shared test helpers."""

import functools
import importlib.util
import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from qmonty import protocols
from qmonty.game import (
    _check_initial,
    door_opening_operator,
    door_switching_operator,
    player_slot,
    separable_initial,
)
from qmonty.multiplayer import multi_door_opening_operator
from qmonty.protocols import (
    _protocol_switch,
    aligned_omega_operator,
    evolve_round_a,
    evolve_round_b,
    host_victory_operator,
)
from qmonty.qudit import (
    ATOL,
    DomainError,
    Strategy,
    SupportState,
    apply_local_operator,
    apply_strategy,
    ghz_state,
    labels_of_index,
    make_basis_state,
    measure_slots,
    measurement_distribution,
    random_special_unitaries,
    sum_d,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def cold_branch_tables():
    """Start every test with no protocol branch table kept from an earlier
    one, so that patched operators and recorded evolutions always run."""
    protocols._branch_table.cache_clear()


def load_module(path: pathlib.Path, name: str):
    """Import the Python file at ``path`` as a module called ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module."""
    return load_module(ROOT / "scripts" / f"{name}.py", name)


def classical_displacement_oracle(d: int, m: int, k: int) -> float:
    """Brute-force switching win rate under a fixed label displacement.

    Enumerates every ordered tuple of doors the host can open when the
    player sits k doors above the prize, walks the deterministic switch
    (next unopened door upward), and counts wins.  Independent of both the
    factorial closed form and the state-vector pipeline.
    """
    wins = total = 0
    prize = 0
    player = k % d
    others = [c for c in range(d) if c not in {prize, player}]
    for opened in itertools.permutations(others, m):
        total += 1
        blocked = set(opened)
        landing = next(
            (player + step) % d
            for step in range(1, d)
            if (player + step) % d not in blocked
        )
        wins += landing == prize
    return wins / total if total else 0.0


def operator_map(op):
    """A local operator's entries as {input labels: ((output labels, amp), ...)}.

    Inputs appear in ascending flat index and each input's outputs in entry
    order, so expected values can be written as literal label tuples.
    """
    table = {}
    for src, dst, amp in zip(op.src.tolist(), op.dst.tolist(), op.amp.tolist()):
        key = labels_of_index(op.d, op.arity, src)
        table[key] = table.get(key, ()) + ((labels_of_index(op.d, op.arity, dst), amp),)
    return table


# Loop references for the numpy-built operators, in the same
# {input labels: ((output labels, amp), ...)} form as ``operator_map`` and
# with inputs in ascending flat index.


def reference_door_opening(d: int, n: int, j: int):
    """(0, rest) -> uniform superposition over the doors not in ``rest``."""
    table = {}
    for rest in itertools.product(range(d), repeat=j - 1 + n):
        doors = [c for c in range(d) if c not in rest]
        if doors:
            amp = complex(1.0 / math.sqrt(len(doors)))
            table[(0, *rest)] = tuple(((c, *rest), amp) for c in doors)
    return table


def reference_door_switch(d: int, m: int, tolerate_opened_choice: bool):
    """(opened, p) -> (opened, next door above p that is not opened)."""
    table = {}
    for labels in itertools.product(range(d), repeat=m + 1):
        opened, p = labels[:m], labels[m]
        if tolerate_opened_choice or len(set(labels)) == m + 1:
            target = next(
                (p + s) % d for s in range(1, d) if (p + s) % d not in opened
            )
            table[labels] = (((*opened, target), 1 + 0j),)
    return table


def reference_rewrite_opened(d: int, arity: int, rule):
    """Inputs whose first label ``rule(labels)`` rewrites (None: outside
    the domain), every other label kept."""
    table = {}
    for labels in itertools.product(range(d), repeat=arity):
        first = rule(labels)
        if first is not None:
            table[labels] = (((first, *labels[1:]), 1 + 0j),)
    return table


def reference_evolve_round(protocol, config, bits, switches):
    """Dense reference for ``evolve_round_a``/``evolve_round_b``: the same
    steps on a dense :class:`StateVector` through the dense qudit functions."""
    d, n, m = config.d, config.n, config.m
    if protocol == "a":
        state = make_basis_state(d, (0,) * (m + n))
    else:
        state = ghz_state(d, n)
        if m:
            state = make_basis_state(d, (0,) * m).tensor(state)
    for k, bit in enumerate(bits, start=1):
        state = apply_strategy(state, sum_d(d, bit), player_slot(k))
    if protocol == "a":
        for j in range(1, m + 1):
            if config.approvals[j - 1]:
                state = apply_local_operator(state, multi_door_opening_operator(j, config))
    else:
        for j in range(2, n + 1):
            if config.approvals[j - 2]:
                state = apply_local_operator(
                    state, aligned_omega_operator(j, d, bits[j - 1])
                )
    for k, sw in enumerate(switches, start=2):
        if sw:
            state = apply_local_operator(state, _protocol_switch(config, k))
    if protocol == "b":
        for j in range(2, n + 1):
            state = apply_local_operator(state, host_victory_operator(j, d, bits[0]))
    return state


def by_key(state, width, choice, step):
    """Split-and-merge reference for a step that each key's choice selects
    (a :class:`~qmonty.qudit.Picked` step, or a party's shift) over a batch
    of keys (key ``r`` at indices ``r * width`` up to
    ``(r + 1) * width``): ``step(part, v)`` evolves the part that holds the
    support of the keys whose ``choice`` is ``v``, 0 or 1, and the evolved
    parts are merged in index order."""
    chosen = choice[state.index // width]
    parts = []
    for v in (0, 1):
        mine = chosen == v
        if mine.all():
            return step(state, v)
        if mine.any():
            parts.append(step(SupportState(
                state.d, state.num_qudits, state.index[mine], state.amplitudes[mine]
            ), v))
    # Keys never share an index, so the sorted parts merge without collisions.
    index = np.concatenate([part.index for part in parts])
    order = np.argsort(index, kind="stable")
    amps = np.concatenate([part.amplitudes for part in parts])
    return SupportState(state.d, state.num_qudits, index[order], amps[order])


def reference_key_steps(protocol, config, keys):
    """The state of a key batch after each party's shift and then after
    each step of ``protocols._evolve_keys``, with every key-selected step
    evolved by :func:`by_key`: each part through its own variant alone, and
    the parts merged.  The first ``n`` states are the shifts, which
    ``_evolve_keys`` folds into its start."""
    d, n, m = config.d, config.n, config.m
    if protocol == "a":
        start = make_basis_state(d, (0,) * (m + n))
    else:
        start = ghz_state(d, n)
        if m:
            start = make_basis_state(d, (0,) * m).tensor(start)
    start_index = np.flatnonzero(start.amplitudes)
    width = d ** (m + n)
    rows = 0
    while d**rows < len(keys):
        rows += 1
    state = SupportState(
        d, m + n + rows,
        (np.arange(len(keys))[:, None] * width + start_index).ravel(),
        np.tile(start.amplitudes[start_index], len(keys)),
    )
    bits = np.array([key[0] for key in keys]).reshape(len(keys), n)
    switches = np.array([key[1] for key in keys], dtype=int).reshape(len(keys), n - 1)
    steps = []

    def step(choice, apply):
        nonlocal state
        state = by_key(state, width, choice, apply)
        steps.append(state)

    for k in range(1, n + 1):
        step(bits[:, k - 1], lambda part, bit: apply_strategy(
            part, sum_d(d, bit), player_slot(k)
        ))
    if protocol == "a":
        for j in range(1, m + 1):
            if config.approvals[j - 1]:
                state = apply_local_operator(state, multi_door_opening_operator(j, config))
                steps.append(state)
    else:
        for j in range(2, n + 1):
            if config.approvals[j - 2]:
                step(bits[:, j - 1], lambda part, bit: apply_local_operator(
                    part, aligned_omega_operator(j, d, bit)
                ))
    for k in range(2, n + 1):
        step(switches[:, k - 2], lambda part, sw: (
            apply_local_operator(part, _protocol_switch(config, k)) if sw else part
        ))
    if protocol == "b":
        for j in range(2, n + 1):
            step(bits[:, 0], lambda part, bit: apply_local_operator(
                part, host_victory_operator(j, d, bit)
            ))
    return steps


def reference_first_outputs(pool):
    """``seeding._first_outputs`` with the 128-bit PCG64 arithmetic in
    Python integers, one seed sequence at a time."""
    mask32, mask64, mask128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    const, words = 0x8B51F9DD, []
    for j in range(8):
        w = pool[j % 4] ^ const
        const = const * 0x58F38DED & mask32
        w = w * np.uint32(const)
        words.append((w ^ w >> 16).astype(np.uint64).ravel())
    s_hi, s_lo, c_hi, c_lo = (
        (words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)
    )
    out = []
    for a, b, c, e in zip(s_hi, s_lo, c_hi, c_lo):
        inc = (c << 65 | e << 1 | 1) & mask128
        state = ((inc + (a << 64 | b)) * (mult**2 & mask128) + inc * (mult + 1)) & mask128
        x, rot = (state >> 64 ^ state) & mask64, state >> 122
        out.append((x >> rot | x << (64 - rot)) & mask64)
    return out


def key_code(bits, switches):
    """The packed code of a (bits, switches) key, as ``seeding.chunk_keys``
    lays it out: party ``k``'s bit in bit ``k``, its switch in bit
    ``n + k - 1``."""
    n = len(bits)
    return sum(b << k for k, b in enumerate(bits)) + sum(
        int(s) << (n + k - 1) for k, s in enumerate(switches, start=1)
    )


def record_steps(monkeypatch, module=protocols):
    """Record, in the returned list, the strategy, operator or pick, the
    input state and the output state of every ``apply_strategy`` and
    ``apply_local_operator`` call that ``module`` (``qmonty.protocols`` by
    default) makes while the test runs, of those two it imports."""
    steps = []
    originals = {
        name: getattr(module, name)
        for name in ("apply_strategy", "apply_local_operator")
        if hasattr(module, name)
    }

    def recorder(apply):
        def recording(state, op, *args):
            out = apply(state, op, *args)
            steps.append((op, state, out))
            return out
        return recording

    for name, apply in originals.items():
        monkeypatch.setattr(module, name, recorder(apply))
    return steps


def support_bound(config):
    """Most basis states a pre-switch state can reach: every (b, a) with the
    ordered openings that avoid both labels.  The switch keeps the count."""
    d, m = config.d, config.m
    return d * (d - 1) * math.perm(d - 2, m) + d * math.perm(d - 1, m)


def reference_tail_steps(config, state):
    """The states of the step-by-step reference after each door opening and
    after the switch, evolved on the support operator by operator."""
    for j in range(1, config.m + 1):
        state = apply_local_operator(state, door_opening_operator(j, config))
        yield state
    yield apply_local_operator(state, door_switching_operator(config))


def reference_label_amplitudes(config, pairs, initial=None):
    """The support pipeline's party-label amplitudes, the reference that
    ``game.label_amplitudes`` must equal bit for bit: for each pair, the
    host's and then the player's strategy applied to the initial state's
    support."""
    if initial is None:
        initial = separable_initial(config)
    _check_initial(config, initial)
    index = np.flatnonzero(initial.amplitudes)
    start = SupportState(config.d, config.num_qudits, index, initial.amplitudes[index])
    labels = np.zeros((len(pairs), config.d**config.n), dtype=complex)
    for row, (A, B) in zip(labels, pairs):
        state = apply_strategy(apply_strategy(start, A, player_slot(1)), B, player_slot(2))
        # With the opened registers at 0, a flat index is its label index.
        row[state.index] = state.amplitudes
    return labels


def reference_payoff_curves(config, pairs, gammas, initial=None):
    """Step-by-step reference for ``game.payoff_curves``: each row of
    :func:`reference_label_amplitudes` evolves alone on its support through
    the door openings and the switch, operator by operator, and each gamma
    combines the winning amplitudes of the kept and moved states."""
    labels = reference_label_amplitudes(config, list(pairs), initial)
    curves = np.empty((len(labels), len(gammas)))

    def wins(state):
        d = state.d
        win = state.index % d == state.index // d % d
        return state.index[win], state.amplitudes[win]

    for row, curve in zip(labels, curves):
        index = np.flatnonzero(row)
        state = SupportState(config.d, config.num_qudits, index, row[index])
        # The state before the switch (after the last opening, if any) and after.
        *_, state, switched = state, *reference_tail_steps(config, state)
        (kept_at, kept_amps), (moved_at, moved_amps) = wins(state), wins(switched)
        at = np.union1d(kept_at, moved_at)
        kept = np.zeros(len(at), dtype=complex)
        moved = np.zeros_like(kept)
        kept[np.searchsorted(at, kept_at)] = kept_amps
        moved[np.searchsorted(at, moved_at)] = moved_amps
        for i, g in enumerate(gammas):
            curve[i] = (np.abs(math.cos(g) * kept + math.sin(g) * moved) ** 2).sum()
    return curves


def _term_grid_factors(config, gammas):
    """The next free door j - k below each prize door j as a grid [j, k - 1],
    the counts N(k) for k = 1..m+1, and cos(g) and q sin(g) per angle shaped
    to broadcast over the term grid [pair, gamma, j, k - 1]."""
    d, m = config.d, config.m
    below = (np.arange(d)[:, None] - np.arange(1, m + 2)) % d
    counts = np.array(
        [math.factorial(m) * math.comb(d - k - 1, m - k + 1) for k in range(1, m + 2)],
        dtype=float,
    )
    q = math.sqrt((d - 1) / (d - m - 1))
    cos = np.array([math.cos(g) for g in gammas], dtype=float)
    qsin = np.array([q * math.sin(g) for g in gammas], dtype=float)
    return below, counts, cos[:, None, None], qsin[:, None, None]


def _grid_total(pref, grid):
    """pref times the sum of each [pair, gamma] slice of the (j, k) grid."""
    pairs, angles, d, offsets = grid.shape
    return pref * grid.reshape(pairs, angles, d * offsets).sum(axis=-1)


def reference_separable_curves(config, pairs, gammas):
    """The separable closed form as one term grid [pair, gamma, j, k - 1]:
    sum over j and k of |a_{j,0}|^2 N(k) |cos(g) b_{j,0} + q sin(g) b_{j-k,0}|^2,
    times (d-m-1)!/(d-1)!, each term squared as it stands."""
    d, m = config.d, config.m
    a0 = np.array([A.entries[:, 0] for A, _ in pairs], dtype=complex).reshape(-1, d)
    b0 = np.array([B.entries[:, 0] for _, B in pairs], dtype=complex).reshape(-1, d)
    below, counts, cos, qsin = _term_grid_factors(config, gammas)
    term = cos * b0[:, None, :, None] + qsin * b0[:, None, below]
    weights = (np.abs(a0) ** 2)[:, None, :, None] * counts
    pref = math.factorial(d - m - 1) / math.factorial(d - 1)
    return _grid_total(pref, weights * np.abs(term) ** 2)


def reference_entangled_curves(config, pairs, gammas):
    """The entangled closed form as one term grid [pair, gamma, j, k - 1]:
    sum over j and k of N(k) |cos(g) D_{jj} + q sin(g) D_{j,j-k}|^2 with
    D = A B^T, times (d-m-1)!/d!."""
    d, m = config.d, config.m
    a = np.array([A.entries for A, _ in pairs], dtype=complex).reshape(-1, d, d)
    bt = np.array([B.entries.T for _, B in pairs], dtype=complex).reshape(-1, d, d)
    rowdots = np.matmul(a, bt)
    below, counts, cos, qsin = _term_grid_factors(config, gammas)
    term = (
        cos * np.diagonal(rowdots, axis1=1, axis2=2)[:, None, :, None]
        + qsin * rowdots[:, None, np.arange(d)[:, None], below]
    )
    pref = math.factorial(d - m - 1) / math.factorial(d)
    return _grid_total(pref, counts * np.abs(term) ** 2)


# Checks and paper-notation helpers that only the tests call, kept here so
# the package holds what the CLI, scripts and benchmark reach.  ``epsilon``
# and ``lambda_term`` are the eps and lam of the oracles' docstrings.


def measurement_branches(state, slots):
    """Every outcome of measuring ``slots`` with nonzero weight, in outcome
    order: its probability, its labels and the post-measurement state."""
    p, collapse = measurement_distribution(state, slots)
    return [(float(p[pos]), *collapse(pos)) for pos in np.flatnonzero(p > 1e-18)]


def enumerate_measurement_branches(protocol, config, bits, switches):
    """All measurement branches of one round with their probabilities.

    Every outcome of the host's measurement with nonzero weight, completed
    as round 0 of ``config.seed``, which makes exhaustive win/loss and key
    checks independent of sampling: the one-key case of a batch's branches.
    """
    ((probs, templates),) = protocols._branches(
        protocol, config, [(tuple(bits), tuple(switches))]
    )
    return [
        (float(p), protocols._with_round(t, config.seed, 0))
        for p, t in zip(probs, templates) if p > 1e-18
    ]


def reference_simulate_round(protocol, config, bits, switches, rng, round_index=0):
    """One round composed step by step, apart from the batch's branches:
    the round's evolution, ``measure_slots`` with ``rng``, the diagnostics
    of the one post-measurement state, then the transcript.  The reference
    that ``simulate_round_a/b`` must equal, field for field."""
    evolve = evolve_round_a if protocol == "a" else evolve_round_b
    outcome, residual = measure_slots(
        evolve(config, bits, switches), protocols._measured_slots(protocol, config), rng
    )
    (diagnostics,) = protocols._diagnostics(protocol, config, residual, 1)
    template = protocols._transcript(protocol, config, bits, switches, outcome, diagnostics)
    return replace(template, seed=config.seed, round_index=round_index)


def record_evolutions(monkeypatch):
    """Record, in the returned list, the (bits, switches) keys of every
    batched evolution that protocol batches run while the test runs."""
    batches = []
    evolve_keys = protocols._evolve_keys

    def recording(protocol, config, keys):
        batches.append(list(keys))
        return evolve_keys(protocol, config, keys)

    monkeypatch.setattr(protocols, "_evolve_keys", recording)
    return batches


def record_diagnostics(monkeypatch):
    """Record, in the returned list, the number of post-measurement states
    of every stacked diagnostics call that protocol batches run while the
    test runs."""
    stacks = []
    diagnostics = protocols._diagnostics

    def recording(protocol, config, residuals, count):
        stacks.append(count)
        return diagnostics(protocol, config, residuals, count)

    monkeypatch.setattr(protocols, "_diagnostics", recording)
    return stacks


def epsilon(labels):
    """0 if any two labels coincide, else 1."""
    return 1 if len(set(labels)) == len(labels) else 0


def lambda_term(j, opened, d):
    """Smallest k in 1..d-1 with j - k (mod d) not among the opened doors."""
    blocked = set(opened)
    for k in range(1, d):
        if (j - k) % d not in blocked:
            return k
    raise DomainError(
        f"no free door below {j} with opened set {sorted(blocked)} (d={d})"
    )


def fidelity(a, b):
    """|<a|b>|^2 normalized by both norms."""
    ov = abs(a.overlap(b)) ** 2
    return float(ov / (a.norm**2 * b.norm**2))


def random_strategies(d, count, rng):
    """``count`` Haar-like random SU(d) strategies: the matrices of
    ``random_special_unitaries``, each wrapped as a ``Strategy``."""
    return [Strategy(d, mat) for mat in random_special_unitaries(d, count, rng)]


def random_special_unitary(d, rng):
    """One Haar-like random SU(d) strategy."""
    return random_strategies(d, 1, rng)[0]


def reference_special_unitary(d, rng):
    """One random SU(d) drawn on its own: the reference that each matrix
    of ``random_special_unitaries`` must equal bit for bit."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    q = q * (diag / np.abs(diag))
    det = np.linalg.det(q)
    q = q * np.exp(-1j * np.angle(det) / d)
    return Strategy(d, q)


def is_special_unitary(matrix, tol=ATOL):
    """True iff the matrix is unitary within tol and |det - 1| <= tol."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=tol):
        return False
    return bool(abs(np.linalg.det(mat) - 1.0) <= tol)


def _domain_block(op):
    """Dense map on the domain: outputs reached by in-domain inputs."""
    dom = np.flatnonzero(op.domain_mask)
    keep = op.domain_mask[op.src]
    rows, row_of = np.unique(op.dst[keep], return_inverse=True)
    block = np.zeros((len(rows), len(dom)), dtype=complex)
    cols = np.searchsorted(dom, op.src[keep])
    np.add.at(block, (row_of, cols), op.amp[keep])
    return block


def is_isometry_on_domain(op, tol=ATOL):
    """Every in-domain basis input maps to a unit-norm output."""
    col_norms = (np.abs(_domain_block(op)) ** 2).sum(axis=0)
    return bool(np.all(np.abs(col_norms - 1.0) <= tol))


def is_unitary_on_domain(op, tol=ATOL):
    """Distinct in-domain basis inputs map to orthogonal outputs."""
    block = _domain_block(op)
    gram = block.conj().T @ block
    return bool(np.allclose(gram, np.eye(block.shape[1]), atol=tol))


# Literal enumeration of the closed-form payoff sums: one entry per prize
# door j and per tuple of opened doors, with the collision indicators and
# the next-free-door offset evaluated from the paper's definitions.


@functools.lru_cache(maxsize=None)
def reference_payoff_tables(d: int, m: int):
    """Per (j, opened-tuple) grids: keep indicator, j - lambda, switch indicator."""
    n_tuples = d**m
    eps_keep = np.zeros((d, n_tuples), dtype=np.int8)
    j_from = np.zeros((d, n_tuples), dtype=np.intp)
    eps_switch = np.zeros((d, n_tuples), dtype=np.int8)
    for t, opened in enumerate(itertools.product(range(d), repeat=m)):
        for j in range(d):
            src = (j - lambda_term(j, opened, d)) % d
            eps_keep[j, t] = epsilon((*opened, j))
            j_from[j, t] = src
            eps_switch[j, t] = epsilon((*opened, src, j))
    return eps_keep, j_from, eps_switch


def reference_payoff_separable(A, B, config) -> float:
    """Separable payoff summed over every (j, opened tuple) entry."""
    d, m, g = config.d, config.m, config.gamma
    eps_keep, j_from, eps_switch = reference_payoff_tables(d, m)
    a0, b0 = A.entries[:, 0], B.entries[:, 0]
    q = math.sqrt((d - 1) / (d - m - 1))
    term = (
        math.cos(g) * b0[:, None] * eps_keep
        + q * math.sin(g) * b0[j_from] * eps_switch
    )
    weights = (np.abs(a0) ** 2)[:, None]
    pref = math.factorial(d - m - 1) / math.factorial(d - 1)
    return float(pref * (weights * np.abs(term) ** 2).sum())


def reference_payoff_entangled(A, B, config) -> float:
    """Entangled payoff summed over every (j, opened tuple) entry."""
    d, m, g = config.d, config.m, config.gamma
    eps_keep, j_from, eps_switch = reference_payoff_tables(d, m)
    rowdots = A.entries @ B.entries.T
    q = math.sqrt((d - 1) / (d - m - 1))
    term = (
        math.cos(g) * eps_keep * np.diag(rowdots)[:, None]
        + q * math.sin(g) * eps_switch * rowdots[np.arange(d)[:, None], j_from]
    )
    pref = math.factorial(d - m - 1) / math.factorial(d)
    return float(pref * (np.abs(term) ** 2).sum())
