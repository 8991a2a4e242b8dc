"""State vectors over registers of d-level systems, dense or by support.

A register of ``num_qudits`` qudits of dimension ``d`` is stored either as a
flat complex array of length ``d**num_qudits`` (:class:`StateVector`) or by
its support, the sorted flat indices that may carry amplitude and their
amplitudes (:class:`SupportState`).  The basis state written in ket order
as ``|l_{N-1}, ..., l_1, l_0>`` (rightmost label varying fastest) sits at
flat index ``l_0 + d*l_1 + ... + d**(N-1)*l_{N-1}``.  Equivalently, "slot"
``s`` is the tensor factor whose label carries place value ``d**s``; slot 0
is the rightmost ket label.

The module provides basis/GHZ state constructors, single-qudit gates (the
d-dimensional Fourier gate and modular-shift permutations), application of
single-qudit unitaries and of sparse domain-restricted local operators
(index and amplitude arrays), projective measurement on a subset of slots,
and single-slot reduced-density eigenvalues as an entanglement diagnostic.
Each of these operations takes either kind of state and returns the kind it
was given.

A support state is always one state.  Many states of ``num_qudits`` qudits
are held as one support state with key qudits above the register: state
``r`` sits at flat indices ``r * d**num_qudits`` and up, and the fewest key
qudits that number the states are added.  On such a stack there is more: a
:class:`Measurement` measures every state at once, and the diagnostics
compute those eigenvalues and the largest Schmidt weight across a cut for
every state at once.  States (a stacked state's register, not its key
qudits), and the local inputs an operator builder enumerates, are capped at
:data:`MAX_AMPLITUDES`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

# Tolerance for algebraic identities (unitarity, normalization).
ATOL = 1e-9
# Amplitudes at or below this magnitude are treated as zero support.
SUPPORT_ATOL = 1e-12
# Largest register (number of amplitudes) a state may span, and most local
# inputs an operator builder may enumerate: 2**22 complex amplitudes take 64 MiB.
MAX_AMPLITUDES = 1 << 22


class DomainError(ValueError):
    """A domain-restricted operator was applied outside its domain."""


class NonSpecialUnitaryWarning(UserWarning):
    """A strategy matrix is unitary but its determinant is not 1."""


def check_register_size(d: int, num_qudits: int) -> int:
    """Number of amplitudes of the register; ValueError above the budget."""
    size = d**num_qudits
    if size > MAX_AMPLITUDES:
        raise ValueError(
            f"{num_qudits} qudits of dimension {d} span {size:,} amplitudes, "
            f"above the budget of {MAX_AMPLITUDES:,}"
        )
    return size


def _register_size(d: int, num_qudits: int) -> int:
    if d < 1:
        raise ValueError("qudit dimension must be >= 1")
    if num_qudits < 1:
        raise ValueError("need at least one qudit")
    return check_register_size(d, num_qudits)


def label_grid(d: int, num_qudits: int) -> np.ndarray:
    """Labels of every basis state: column r holds the ket-ordered labels of
    flat index r, so row 0 is the most significant label."""
    check_register_size(d, num_qudits)
    return np.indices((d,) * num_qudits).reshape(num_qudits, -1)


def flat_index(d: int, labels: Sequence[int]) -> int:
    """Flat index of the basis state with the given ket-ordered labels."""
    idx = 0
    for lab in labels:
        if not 0 <= lab < d:
            raise ValueError(f"label {lab} out of range for dimension {d}")
        idx = idx * d + lab
    return idx


def labels_of_index(d: int, num_qudits: int, index: int) -> tuple[int, ...]:
    """Ket-ordered label tuple of the basis state at a flat index."""
    if not 0 <= index < d**num_qudits:
        raise ValueError(f"index {index} out of range")
    labels = []
    for _ in range(num_qudits):
        labels.append(index % d)
        index //= d
    return tuple(reversed(labels))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable complex amplitude vector over a qudit register.

    Named constructors (:func:`make_basis_state`, :func:`ghz_state`) produce
    normalized states and every unitary or isometric operation preserves the
    norm.  The norm is not re-enforced after arbitrary operations because the
    game's mixed switching step is a legitimate non-isometric linear map.
    """

    d: int
    num_qudits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _register_size(self.d, self.num_qudits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.d**self.num_qudits,):
            raise ValueError(
                f"expected {self.d ** self.num_qudits} amplitudes, "
                f"got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Tensor product with ``self`` as the ket-leftmost factor."""
        if self.d != other.d:
            raise ValueError("dimension mismatch in tensor product")
        check_register_size(self.d, self.num_qudits + other.num_qudits)
        return StateVector(
            self.d,
            self.num_qudits + other.num_qudits,
            np.kron(self.amplitudes, other.amplitudes),
        )


def _slot_matrix(
    state: StateVector, slots: Sequence[int]
) -> tuple[np.ndarray, Callable[[np.ndarray], StateVector]]:
    """The dense amplitudes as a ``(d**k, rest)`` matrix whose row is the
    local flat index over the ``k`` slots (first slot most significant), and
    the map from a matrix of that shape back to a state."""
    d, n, k = state.d, state.num_qudits, len(slots)
    # Reshaped to (d,)*n the array's axis i holds ket position i, i.e. slot n-1-i.
    axes = [n - 1 - s for s in slots]
    pulled = np.moveaxis(state.amplitudes.reshape((d,) * n), axes, range(k))

    def to_state(mat: np.ndarray) -> StateVector:
        out = np.moveaxis(mat.reshape(pulled.shape), range(k), axes)
        return StateVector(d, n, out.reshape(-1))

    return pulled.reshape(d**k, -1), to_state


@dataclass(frozen=True, eq=False)
class SupportState:
    """Immutable register state stored by its support.

    ``index`` holds the sorted, unique flat indices of the basis states that
    may carry amplitude and ``amplitudes`` their amplitudes; every other
    amplitude is zero.  It is the same vector as :meth:`to_dense`, and the
    state operations return a :class:`SupportState` when given one, at a cost
    that grows with the support instead of the register.  That pays for
    states whose support stays small, such as basis and GHZ states under
    permutations.

    ``index`` and ``amplitudes`` are flat arrays of equal length: a support
    state is one state.  Many states are stacked along key qudits above the
    register (see the module docstring).
    """

    d: int
    num_qudits: int
    index: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        size = _register_size(self.d, self.num_qudits)
        index = np.array(self.index, dtype=np.intp)
        amps = np.array(self.amplitudes, dtype=complex)
        if index.ndim != 1 or amps.shape != index.shape:
            raise ValueError("index and amplitudes must be flat and of equal length")
        if len(index) and (
            index[0] < 0 or index[-1] >= size or np.any(index[1:] <= index[:-1])
        ):
            raise ValueError(f"support indices must be sorted, unique and below {size}")
        index.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owned(
        cls, d: int, num_qudits: int, index: np.ndarray, amplitudes: np.ndarray
    ) -> "SupportState":
        """Wrap arrays that nothing else writes to and that already hold a
        valid state (a sorted, unique ``intp`` index and complex amplitudes),
        without the constructor's copies and checks."""
        state = object.__new__(cls)
        state.__dict__.update(d=d, num_qudits=num_qudits, index=index, amplitudes=amplitudes)
        index.setflags(write=False)
        amplitudes.setflags(write=False)
        return state

    def to_dense(self) -> StateVector:
        """The same state as a dense :class:`StateVector`."""
        amps = np.zeros(self.d**self.num_qudits, dtype=complex)
        amps[self.index] = self.amplitudes
        return StateVector(self.d, self.num_qudits, amps)


State = TypeVar("State", StateVector, SupportState)


def _key_qudits(d: int, count: int) -> int:
    """The fewest qudits whose labels number ``count`` stacked states."""
    qudits = 0
    while d**qudits < count:
        qudits += 1
    return qudits


def support_basis_state(d: int, labels: Sequence[int]) -> SupportState:
    """Computational basis state |labels> (ket order, leftmost first)."""
    return SupportState(d, len(labels), [flat_index(d, labels)], [1.0])


def support_ghz_state(d: int, parties: int) -> SupportState:
    """Normalized maximally correlated state (1/sqrt(d)) sum_j |j...j>."""
    if d < 2:
        raise ValueError("GHZ state needs dimension >= 2")
    if parties < 2:
        raise ValueError("GHZ state needs at least two parties")
    check_register_size(d, parties)
    index = [flat_index(d, (j,) * parties) for j in range(d)]
    return SupportState(d, parties, index, np.full(d, 1.0 / math.sqrt(d)))


def make_basis_state(d: int, labels: Sequence[int]) -> StateVector:
    """Dense computational basis state |labels> (ket order, leftmost first)."""
    return support_basis_state(d, labels).to_dense()


def ghz_state(d: int, parties: int) -> StateVector:
    """Dense GHZ state (1/sqrt(d)) sum_j |j...j>."""
    return support_ghz_state(d, parties).to_dense()


@dataclass(frozen=True, eq=False)
class Strategy:
    """A player's move: a d x d unitary (row = output label, col = input).

    Unitarity is enforced at construction.  Strategies are nominally special
    unitary, but a global phase never affects any payoff, so a determinant
    away from 1 only triggers :class:`NonSpecialUnitaryWarning`.
    """

    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.d, self.d):
            raise ValueError(f"expected a {self.d}x{self.d} matrix")
        self._check(mat[None])
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @staticmethod
    def _check(mats: np.ndarray) -> None:
        """Raise unless every matrix of a ``(k, d, d)`` stack is unitary
        within :data:`ATOL`; warn once for each determinant away from 1."""
        gram = mats.conj().swapaxes(-1, -2) @ mats
        eye = np.eye(mats.shape[-1])
        # np.allclose(gram, eye, atol=ATOL) without its general machinery:
        # the same bound, and NaN or inf fail it.
        if not (abs(gram - eye) <= ATOL + 1e-5 * eye).all():
            raise ValueError("strategy matrix is not unitary")
        dets = np.linalg.det(mats)
        for det in dets[np.abs(dets - 1.0) > ATOL]:
            warnings.warn(
                f"strategy determinant {det:.6g} differs from 1 "
                "(harmless: payoffs are global-phase invariant)",
                NonSpecialUnitaryWarning,
                stacklevel=3,
            )


def qft(d: int) -> Strategy:
    """d-dimensional Fourier gate, entry (j, k) = exp(2*pi*i*j*k/d)/sqrt(d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    j = np.arange(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSpecialUnitaryWarning)
        return Strategy(d, np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d))


@lru_cache(maxsize=None)
def sum_d(d: int, i: int) -> Strategy:
    """Modular shift |j> -> |j + i mod d| as a permutation strategy."""
    if not 0 <= i < d:
        raise ValueError(f"shift {i} out of range for dimension {d}")
    mat = np.zeros((d, d), dtype=complex)
    for j in range(d):
        mat[(j + i) % d, j] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSpecialUnitaryWarning)
        return Strategy(d, mat)


def uniform_superposition_strategy(d: int, doors: int) -> Strategy:
    """Unitary sending |0> to the uniform superposition of the first ``doors``
    basis states (a Householder reflection; ``doors = 1`` gives the identity).
    """
    if not 1 <= doors <= d:
        raise ValueError(f"superposition size {doors} out of range 1..{d}")
    target = np.zeros(d)
    target[:doors] = 1.0 / math.sqrt(doors)
    v = target - np.eye(d)[0]
    norm2 = float(v @ v)
    mat = np.eye(d) if norm2 < 1e-30 else np.eye(d) - 2.0 * np.outer(v, v) / norm2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSpecialUnitaryWarning)
        return Strategy(d, mat)


def random_special_unitaries(
    d: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` Haar-like random SU(d): QRs of complex Gaussians, phases
    fixed, drawn and checked by :meth:`Strategy._check` as one read-only
    ``(count, d, d)`` stack.  Matrix ``i`` is bit for bit the ``i``-th of
    ``count`` draws made one at a time from ``rng``."""
    z = rng.normal(size=(count, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    # Divide the real angle by d first: a complex array divides by d as a
    # multiply by 1/d, which rounds unlike a single matrix's scalar division.
    q = q * np.exp(-1j * (np.angle(np.linalg.det(q)) / d))[:, None, None]
    Strategy._check(q)
    q.setflags(write=False)
    return q


def _split(
    d: int, index: np.ndarray, slots: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """For every flat index: its local flat index over ``slots`` (first
    slot most significant) and the flat index with those labels set to 0."""
    places = d ** np.array(slots, dtype=np.intp)
    labels = index[:, None] // places % d
    weights = d ** np.arange(len(slots) - 1, -1, -1)
    return labels @ weights, index - labels @ places


def _matches(local: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of an input position ``i`` and a table entry ``e`` with
    ``src[e] == local[i]``, found by binary search in the ascending ``src``:
    the arrays of ``i`` and ``e``, grouped by ``i``."""
    start = np.searchsorted(src, local)
    count = np.searchsorted(src, local, side="right") - start
    which = np.repeat(np.arange(len(local)), count)
    return which, np.arange(len(which)) + (start + count - np.cumsum(count))[which]


def _scatter(
    state: SupportState,
    local: np.ndarray,
    rest: np.ndarray,
    src: np.ndarray,
    place: np.ndarray,
    amp: np.ndarray,
) -> SupportState:
    """Send every support entry through the table entries ``e`` with
    ``src[e]`` equal to its ``local`` index, found by binary search in the
    ascending ``src``: to ``rest + place[e]`` with its amplitude times
    ``amp[e]``.  Amplitudes landing on one basis state are summed, since the
    map need not be injective; an entry that is exactly zero leaves the
    support."""
    which, entry = _matches(local, src)
    index = rest[which] + place[entry]
    order = np.argsort(index, kind="stable")
    index, which, entry = index[order], which[order], entry[order]
    amps = state.amplitudes[which]
    np.multiply(amp[entry], amps, out=amps)
    new = np.ones(len(index), dtype=bool)
    new[1:] = index[1:] != index[:-1]
    if not new.all():
        starts = np.flatnonzero(new)
        index, amps = index[starts], np.add.reduceat(amps, starts)
    keep = amps != 0
    if not keep.all():
        index, amps = index[keep], amps[keep]
    return SupportState._owned(state.d, state.num_qudits, index, amps)


def apply_strategy(state: State, strat: Strategy, slot: int) -> State:
    """Apply a single-qudit unitary to one slot, leaving the rest untouched."""
    if not isinstance(strat, Strategy):
        raise TypeError(f"expected one Strategy, got {type(strat).__name__}")
    if strat.d != state.d:
        raise ValueError("strategy dimension does not match the state")
    if not 0 <= slot < state.num_qudits:
        raise ValueError(f"slot {slot} out of range")
    mat = strat.entries
    if isinstance(state, SupportState):
        # The matrix's non-zero entries, grouped by ascending input (column).
        inputs, outputs = np.nonzero(mat.T)
        local, rest = _split(state.d, state.index, (slot,))
        return _scatter(
            state, local, rest, inputs, outputs * state.d**slot, mat[outputs, inputs]
        )
    dense, to_state = _slot_matrix(state, (slot,))
    return to_state(mat @ dense)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Sparse linear map declared on an ordered subset of slots.

    ``slots`` lists the touched slots in ket order (most significant first);
    local flat indices over them follow the same order.  Entry ``e`` sends
    basis input ``src[e]`` to basis output ``dst[e]`` with amplitude
    ``amp[e]``; entries are stored grouped by ascending input, in their
    given order within an input.  ``domain_mask`` marks the inputs on which
    the map is defined; applying the operator to a state with support
    outside the domain raises :class:`DomainError` rather than inventing an
    extension.

    Support states find an input's entries by binary search in the sorted
    ``src``, and read one more table, built once per operator when a
    support state first needs it: :attr:`output_place`.
    """

    d: int
    slots: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray
    domain_mask: np.ndarray
    name: str = "local operator"

    def __post_init__(self) -> None:
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("operator slots must be distinct")
        src = np.asarray(self.src, dtype=np.intp)
        dst = np.asarray(self.dst, dtype=np.intp)
        amp = np.asarray(self.amp, dtype=complex)
        mask = np.asarray(self.domain_mask, dtype=bool)
        if src.ndim != 1 or not src.shape == dst.shape == amp.shape:
            raise ValueError("src, dst and amp must be flat and of equal length")
        if mask.shape != (self.local_dim,):
            raise ValueError(f"domain mask must have {self.local_dim} elements")
        if len(src) and not (
            min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < self.local_dim
        ):
            raise ValueError(f"entries must index the {self.local_dim} local basis states")
        if np.any(src[1:] < src[:-1]):
            order = np.argsort(src, kind="stable")
            src, dst, amp = src[order], dst[order], amp[order]
        for attr, arr in (("src", src), ("dst", dst), ("amp", amp), ("domain_mask", mask)):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def arity(self) -> int:
        return len(self.slots)

    @property
    def local_dim(self) -> int:
        return self.d**self.arity

    @cached_property
    def output_place(self) -> np.ndarray:
        """Register place value of each entry's output: the sum of its
        labels times ``d**slot``."""
        place = np.zeros(len(self.dst), dtype=np.intp)
        for i, s in enumerate(self.slots):
            place += self.dst // self.d ** (self.arity - 1 - i) % self.d * self.d**s
        place.setflags(write=False)
        return place


def apply_local_operator(state: State, op: LocalOperator) -> State:
    """Apply a local operator; the state's support must lie in its domain.

    Several inputs may share an output (the protocol host's tolerant
    switch), so the amplitudes landing on one output are summed.
    """
    if op.d != state.d:
        raise ValueError("operator dimension does not match the state")
    n = state.num_qudits
    for s in op.slots:
        if not 0 <= s < n:
            raise ValueError(f"operator slot {s} out of range")
    if isinstance(state, SupportState):
        local, rest = _split(state.d, state.index, op.slots)
        _check_domain(state, op, local)
        return _scatter(state, local, rest, op.src, op.output_place, op.amp)
    mat, to_state = _slot_matrix(state, op.slots)
    support = (np.abs(mat) > SUPPORT_ATOL).any(axis=1)
    if (support & ~op.domain_mask).any():
        index = np.flatnonzero(state.amplitudes)
        sparse = SupportState(state.d, n, index, state.amplitudes[index])
        _check_domain(sparse, op, _split(state.d, index, op.slots)[0])

    out = np.zeros_like(mat)
    np.add.at(out, op.dst, op.amp[:, None] * mat[op.src])
    return to_state(out)


def _check_domain(state: SupportState, op: LocalOperator, local: np.ndarray) -> None:
    """Raise DomainError if an input outside the operator's domain carries
    amplitude above SUPPORT_ATOL, naming the first such input's largest
    component, as the dense state's check does."""
    off = ~op.domain_mask[local]
    if not off.any():
        return
    weight = np.abs(state.amplitudes)
    bad = (weight > SUPPORT_ATOL) & off
    if not bad.any():
        return
    entries = np.flatnonzero(local == local[bad].min())
    entry = entries[np.argmax(weight[entries])]
    n = state.num_qudits
    full = labels_of_index(state.d, n, int(state.index[entry]))
    labels = tuple(full[n - 1 - s] for s in op.slots)
    raise DomainError(
        f"{op.name}: basis state |{','.join(map(str, full))}> "
        f"(labels {labels} on slots {op.slots}) is outside the operator domain"
    )


def _check_measured_slots(slots: Sequence[int], num_qudits: int) -> None:
    if len(slots) == 0:
        raise ValueError("need at least one slot to measure")
    if len(set(slots)) != len(slots):
        raise ValueError("measurement slots must be distinct")
    for s in slots:
        if not 0 <= s < num_qudits:
            raise ValueError(f"slot {s} out of range")


class Measurement:
    """The outcomes of measuring ``slots`` of each of ``count`` states of
    ``num_qudits`` qudits that one support state stacks: state ``r`` is its
    part at flat indices ``r * d**num_qudits`` and up, as in a protocol's
    key batch.

    The (state, outcome) pairs that the entries reach are the *groups*,
    numbered in ascending order: state ``r``'s outcomes are the groups
    ``first[r]`` to ``first[r + 1] - 1``, in ascending outcome order.  One
    ``np.unique`` finds them and one ``bincount`` weighs them; every state's
    distribution and collapsed states are read from those arrays, with the
    numbers a measurement of the state alone computes.
    """

    def __init__(
        self, state: SupportState, slots: Sequence[int], num_qudits: int, count: int
    ) -> None:
        _check_measured_slots(slots, num_qudits)
        self.state, self.slots, self.num_qudits = state, tuple(slots), num_qudits
        self.outcomes = state.d ** len(slots)
        self.width = state.d**num_qudits
        local = _split(state.d, state.index, slots)[0]
        # return_inverse also keeps np.unique off its masked-array check.
        self.groups, of_entry = np.unique(
            state.index // self.width * self.outcomes + local, return_inverse=True
        )
        self.weights = np.bincount(of_entry, weights=np.abs(state.amplitudes) ** 2)
        self.first = np.searchsorted(self.groups, np.arange(count + 1) * self.outcomes)
        # The entries ordered by group, each group's in ascending index order.
        self._members = np.argsort(of_entry, kind="stable")
        self._sizes = np.bincount(of_entry, minlength=len(self.groups))
        self._starts = np.cumsum(self._sizes) - self._sizes

    def distribution(self, r: int) -> np.ndarray:
        """Probabilities of state ``r``'s outcomes, from group ``first[r]``
        on; ValueError on a zero state."""
        weights = self.weights[self.first[r]:self.first[r + 1]]
        total = weights.sum()
        if total <= 0:
            raise ValueError("cannot measure a zero state")
        return weights / total

    def labels(self, group: int) -> tuple[int, ...]:
        """The measured slots' labels in a group's outcome."""
        outcome = int(self.groups[group] % self.outcomes)
        return labels_of_index(self.state.d, len(self.slots), outcome)

    def collapsed(self, groups: Sequence[int]) -> SupportState:
        """The renormalized post-measurement state of each group, stacked in
        the order given: the ``i``-th group's state at flat indices
        ``i * d**num_qudits`` and up."""
        groups = np.asarray(groups, dtype=np.intp)
        sizes = self._sizes[groups]
        owner = np.repeat(np.arange(len(groups)), sizes)
        offset = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
        entries = self._members[self._starts[groups][owner] + offset]
        base = self.groups[groups] // self.outcomes * self.width
        d = self.state.d
        return SupportState._owned(
            d, self.num_qudits + _key_qudits(d, len(groups)),
            self.state.index[entries] + (np.arange(len(groups)) * self.width - base)[owner],
            self.state.amplitudes[entries] / np.sqrt(self.weights[groups])[owner],
        )


def measurement_distribution(
    state: State, slots: Sequence[int]
) -> tuple[np.ndarray, Callable[[int], tuple[tuple[int, ...], State]]]:
    """Probabilities ``p`` of the outcomes of measuring ``slots`` and a
    function collapsing the state onto the outcome at a position of ``p``
    (its labels and the renormalized state); ValueError on a zero state.

    A dense state weighs all ``d**k`` outcomes, at their local flat index; a
    support state only the outcomes its support reaches, in ascending order:
    it is the one-state case of :class:`Measurement`.  Zero weights add
    nothing to a cumulative sum, so a uniform sample picks the same outcome
    from either array, unless it lies within rounding of a boundary (the two
    totals may differ in the last bit).  :func:`measure_slots` draws
    ``rng.choice(len(p), p=p)``; a caller that draws the same way from the
    same array gets the same outcome.
    """
    d, n, k = state.d, state.num_qudits, len(slots)
    if isinstance(state, SupportState):
        measured = Measurement(state, slots, n, 1)

        def collapse(pos: int) -> tuple[tuple[int, ...], State]:
            return measured.labels(int(pos)), measured.collapsed([int(pos)])

        return measured.distribution(0), collapse

    _check_measured_slots(slots, n)
    mat, to_state = _slot_matrix(state, slots)
    probs = (np.abs(mat) ** 2).sum(axis=1)

    def collapse(pos: int) -> tuple[tuple[int, ...], State]:
        pos = int(pos)
        collapsed = np.zeros_like(mat)
        collapsed[pos] = mat[pos] / math.sqrt(probs[pos])
        return labels_of_index(d, k, pos), to_state(collapsed)

    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot measure a zero state")
    return probs / total, collapse


def measure_slots(
    state: State, slots: Sequence[int], rng: np.random.Generator
) -> tuple[tuple[int, ...], State]:
    """Projectively measure the given slots in the computational basis.

    Returns the sampled outcome labels (aligned with ``slots``) and the
    renormalized post-measurement state.  Outcome probabilities follow the
    marginal distribution of the designated slots.
    """
    p, collapse = measurement_distribution(state, slots)
    return collapse(rng.choice(len(p), p=p))


def marginal_eigenvalues(state: StateVector | SupportState, slot: int) -> list[float]:
    """Eigenvalues of the single-slot reduced density matrix, descending.

    The reduced matrix is normalized by the state's squared norm, so the
    eigenvalues always sum to 1.  A support state is the one-state case of
    :func:`marginal_spectra`.
    """
    if isinstance(state, SupportState):
        return marginal_spectra(state, slot, state.num_qudits, 1)[0].tolist()
    if not 0 <= slot < state.num_qudits:
        raise ValueError(f"slot {slot} out of range")
    mat = _slot_matrix(state, (slot,))[0]
    return _spectra((mat @ mat.conj().T)[None])[0].tolist()


def marginal_spectra(
    state: SupportState, slot: int, num_qudits: int, count: int
) -> np.ndarray:
    """:func:`marginal_eigenvalues` of each of the ``count`` states of
    ``num_qudits`` qudits that ``state`` stacks (as :class:`Measurement`
    reads them), as the rows of a ``(count, d)`` array; the reduced matrices
    are diagonalized in one stacked call."""
    if not 0 <= slot < num_qudits:
        raise ValueError(f"slot {slot} out of range")
    d = state.d
    owner, index = np.divmod(state.index, d**num_qudits)
    # Row: the slot's label.  Column: the rest of the labels, ranked within
    # the state, so a state's matrix has no all-zero columns.
    label = index // d**slot % d
    col, width = _rank_within(owner, index - label * d**slot, count)
    rho = np.empty((count, d, d), dtype=complex)
    shapes = [(d, w) for w in width.tolist()]
    for members, mats in _stacked_matrices(owner, label, col, state.amplitudes, shapes):
        rho[members] = mats @ mats.conj().transpose(0, 2, 1)
    return _spectra(rho)


def top_schmidt_weights(
    state: SupportState, low: int, num_qudits: int, count: int
) -> np.ndarray:
    """For each of the ``count`` states of ``num_qudits`` qudits that
    ``state`` stacks, the largest squared Schmidt coefficient of the cut
    between its lowest ``low`` slots and the others, over the sum of them
    all: the largest eigenvalue of either side's reduced density matrix, 1
    exactly when the two sides are not entangled."""
    if not 0 < low < num_qudits:
        raise ValueError(f"cannot cut {num_qudits} qudits above the lowest {low}")
    owner, index = np.divmod(state.index, state.d**num_qudits)
    # The matrix of high labels by low labels, without all-zero rows and columns.
    place = state.d**low
    row, rows = _rank_within(owner, index // place, count)
    col, cols = _rank_within(owner, index % place, count)
    weights = np.empty(count)
    shapes = list(zip(rows.tolist(), cols.tolist()))
    for members, mats in _stacked_matrices(owner, row, col, state.amplitudes, shapes):
        s2 = np.linalg.svd(mats, compute_uv=False) ** 2
        weights[members] = s2.max(axis=1) / s2.sum(axis=1)
    return weights


def _spectra(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each matrix of a stack of reduced density
    matrices, each first divided by its trace."""
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return np.linalg.eigvalsh(rho)[:, ::-1]


def _rank_within(
    owner: np.ndarray, key: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The rank of each entry's non-negative ``key`` among the distinct keys
    of its owner (``0..count-1``), and the number of distinct keys of each
    owner."""
    span = int(key.max()) + 1 if len(key) else 1
    # return_inverse also keeps np.unique off its masked-array check.
    distinct, of_entry = np.unique(owner * span + key, return_inverse=True)
    counts = np.bincount(distinct // span, minlength=count)
    return of_entry - (np.cumsum(counts) - counts)[owner], counts


def _stacked_matrices(
    owner: np.ndarray,
    row: np.ndarray,
    col: np.ndarray,
    amps: np.ndarray,
    shapes: Sequence[tuple[int, int]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Matrix ``i`` has shape ``shapes[i]`` and, at ``(row[e], col[e])``,
    the amplitude of every entry ``e`` with ``owner[e] == i``.  Yields, for
    each distinct shape, the ascending positions of the matrices of that
    shape and their ``(count, rows, cols)`` stack.  Only equal shapes share
    a stack: zero padding can change the rounding of a matrix product or a
    decomposition, and a state's result must not depend on what else is
    stacked with it."""
    for shape in sorted(set(shapes)):
        members = np.array([i for i, s in enumerate(shapes) if s == shape])
        pos = np.full(len(shapes), -1)
        pos[members] = np.arange(len(members))
        mine = pos[owner] >= 0
        mats = np.zeros((len(members), *shape), dtype=complex)
        mats[pos[owner[mine]], row[mine], col[mine]] = amps[mine]
        yield members, mats
