"""Dense state-vector simulator for small qubit registers.

Amplitudes are indexed big-endian: qubit 0 is the most significant bit of the
basis-state index, so ``|q0 q1 ... q_{n-1}>`` sits at index
``q0*2^(n-1) + ... + q_{n-1}``.  Operations return new :class:`StateVector`
instances rather than mutating their input.

A state's amplitudes may carry a leading batch axis: shape (B, 2^n) holds
B states of the same register, one per row, the way the protocol module
holds rounds of many sampled runs.  Every gate and measurement acts on
every row of a batch at once, through cached per-qubit tables of index
permutations and signs: a Pauli, with one label or one per row, is one
gather and one multiply, Hadamard is (X + Z)/sqrt(2), and CNOT is the
target's flip where the control is 1.

Nothing in this module draws randomness.  The ``measure_*`` functions
take a list of uniform draws from ``[0, 1)``, one per row (a 1-D state is
one row), and return ``(outcomes, post-state)`` with one outcome per row
in a list.  Each basis has one kernel, which takes a batch only and which
the protocol's round tables and the oracle's pass enumerator call
directly; ``measure_*`` hands it a 1-D state as a one-row view and gives
the post-state back 1-D.  A row of a batch gets the bits its state would
get measured alone.  Measurements never rotate the state:
Z, X and Bell outcomes are the basis's projectors applied straight to the
flat amplitude array through cached tables over a qubit tuple, a 0/1 mask
per value of the XOR of those qubits' bits and the index permutation that
flips them all (one qubit for Z and X, the pair for Bell).

A state's amplitudes keep the dtype it was built with.  Every table a gate
or projector reads is real, so a real state stays float64 through every
gate and measurement, and a complex one stays complex128.  The protocol
needs no complex number: its qubit states (``init_product``'s 0, 1, + and
-), Hadamard, CNOT, the Paulis I, X, Z and iY = Z@X, and the Z, X and Bell
projectors are all real matrices, so its amplitudes are float64 and cost
half the bytes of complex ones.

Bell states and Pauli operators both carry a two-bit ``(phase, parity)``
label from one shared base, aligned so that applying a Pauli to one half of
a Bell pair XORs the labels, and entanglement swapping constrains the XOR of
the output labels to the XOR of the input labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce

import numpy as np

NORM_TOL = 1e-10
MEASURE_NORM_TOL = 1e-6
ZERO_PROB = 1e-14

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class Basis(Enum):
    """Measurement basis selector."""

    Z = "Z"
    X = "X"
    BELL = "Bell"


class _TwoBitLabel(Enum):
    """Base of the two label alphabets: members are (phase bit, parity bit).

    XOR of two labels, of either alphabet, is the label of the left operand's
    alphabet carrying the bitwise XOR.
    """

    # Members are singletons compared by identity, so the object hash is
    # theirs: a C slot, where Enum's hashes the member's name in Python on
    # every lookup of a cell keyed by labels.
    __hash__ = object.__hash__

    def __init__(self, phase: int, parity: int):
        # Plain attributes: read on every label XOR and verification, where
        # a property over ``value`` costs several times more.
        self.phase_bit = phase
        self.parity_bit = parity

    @classmethod
    def from_bits(cls, phase: int, parity: int):
        return cls((phase & 1, parity & 1))

    def __xor__(self, other):
        return type(self).from_bits(
            self.phase_bit ^ other.phase_bit, self.parity_bit ^ other.parity_bit
        )

    def __str__(self) -> str:
        return _LABEL_NAMES[self]


class BellLabel(_TwoBitLabel):
    """The four Bell states, keyed by (phase bit, parity bit).

    Parity 0 states are built on |00>/|11>, parity 1 on |01>/|10>; the phase
    bit picks the relative sign.
    """

    PHI_PLUS = (0, 0)
    PSI_PLUS = (0, 1)
    PHI_MINUS = (1, 0)
    PSI_MINUS = (1, 1)


class PauliLabel(_TwoBitLabel):
    """Single-qubit encoding operators, keyed by (phase bit, parity bit).

    iY is the real matrix Z@X (|0> -> -|1>, |1> -> |0>); using it instead of
    Y keeps the whole alphabet real.  The bit layout makes applying a Pauli
    to one half of a Bell pair a label XOR.
    """

    I = (0, 0)
    X = (0, 1)
    Z = (1, 0)
    IY = (1, 1)


_LABEL_NAMES = {
    BellLabel.PHI_PLUS: "Phi+",
    BellLabel.PSI_PLUS: "Psi+",
    BellLabel.PHI_MINUS: "Phi-",
    BellLabel.PSI_MINUS: "Psi-",
    PauliLabel.I: "I",
    PauliLabel.X: "X",
    PauliLabel.Z: "Z",
    PauliLabel.IY: "iY",
}

_SINGLE_QUBIT_STATES = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([_SQRT2_INV, _SQRT2_INV]),
    "-": np.array([_SQRT2_INV, -_SQRT2_INV]),
}


@dataclass
class StateVector:
    """Normalised pure state over ``n_qubits`` qubits."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        expected = 2**self.n_qubits
        if self.amps.ndim not in (1, 2) or self.amps.shape[-1] != expected:
            raise ValueError(
                f"amplitude vector has shape {self.amps.shape}, expected "
                f"({expected},) or (rows, {expected}) for {self.n_qubits} qubits"
            )


def init_product(tags) -> StateVector:
    """Build a product state from per-qubit tags drawn from '0', '1', '+', '-'."""
    if len(tags) == 0:
        raise ValueError("need at least one qubit")
    bad = [s for s in tags if s not in _SINGLE_QUBIT_STATES]
    if bad:
        raise ValueError(f"unknown qubit tags {bad}; expected one of 0, 1, +, -")
    vectors = [_SINGLE_QUBIT_STATES[s] for s in tags]
    amps = vectors[0].copy() if len(vectors) == 1 else reduce(np.kron, vectors)
    return StateVector(len(tags), amps)


def _require_qubit(state: StateVector, q: int) -> None:
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
        raise ValueError(f"qubit index {q!r} is not an integer")
    if not 0 <= q < state.n_qubits:
        raise ValueError(
            f"qubit index {q} out of range for a {state.n_qubits}-qubit state"
        )


# Flat-index helpers, cached per register shape.  Measurements and gates
# then reduce to dot products, sign flips, and permutation lookups on
# the flat amplitude array, which is considerably cheaper than rearranging a
# (2, ..., 2) tensor per call.  Cached arrays are marked read-only; they are
# shared across all states of the same shape.


@lru_cache(maxsize=None)
def _masks(n: int, *qubits: int) -> np.ndarray:
    """Row ``p`` is 1.0 on flat indices where the XOR of the bits of
    ``qubits`` equals ``p``, else 0.0."""
    idx = np.arange(2**n)
    parity = np.bitwise_xor.reduce([idx >> (n - 1 - q) for q in qubits]) & 1
    rows = np.stack([parity == 0, parity == 1]).astype(np.float64)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _flip_perm(n: int, *qubits: int) -> np.ndarray:
    """Permutation of flat indices that flips every one of the distinct
    ``qubits``."""
    perm = np.arange(2**n) ^ sum(1 << (n - 1 - q) for q in qubits)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def _pauli_table(n: int, q: int) -> tuple:
    """Row 2 * phase bit + parity bit of the Pauli: the permutation of flat
    indices (the parity bit flips ``q``) and the signs (the phase bit
    negates ``q`` = 1) that apply it to qubit ``q``; iY = Z@X."""
    flip, ident, one = _flip_perm(n, q), np.arange(2**n), np.ones(2**n)
    z = 1.0 - 2.0 * _masks(n, q)[1]
    perms = np.stack([ident, flip, ident, flip])
    signs = np.stack([one, one, z, z])
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def apply_pauli(state: StateVector, q: int, label) -> StateVector:
    """Apply a Pauli to qubit ``q`` of every row.

    ``label`` is one PauliLabel for every row, or a list of one PauliLabel
    per row (a 1-D state is one row).
    """
    _require_qubit(state, q)
    n, amps = state.n_qubits, state.amps
    perms, signs = _pauli_table(n, q)
    if isinstance(label, PauliLabel):
        k = 2 * label.phase_bit + label.parity_bit
        return StateVector(n, _flip(amps, perms[k]) * signs[k])
    rows = amps.reshape(-1, 2**n)
    if not (isinstance(label, list) and len(label) == len(rows)
            and all(isinstance(lab, PauliLabel) for lab in label)):
        raise ValueError(f"expected a PauliLabel or a list of one per row, got {label!r}")
    k = np.array([2 * lab.phase_bit + lab.parity_bit for lab in label])
    picked = np.take_along_axis(rows, perms[k], axis=1) * signs[k]
    return StateVector(n, picked.reshape(amps.shape))


def apply_hadamard(state: StateVector, q: int) -> StateVector:
    """Apply H = (X + Z)/sqrt(2) to qubit ``q`` of every row."""
    _require_qubit(state, q)
    n, amps = state.n_qubits, state.amps
    perms, signs = _pauli_table(n, q)
    return StateVector(n, (_flip(amps, perms[1]) + amps * signs[2]) * _SQRT2_INV)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` of every row where ``control`` is 1."""
    _require_qubit(state, control)
    _require_qubit(state, target)
    if control == target:
        raise ValueError("cnot control and target must differ")
    n, amps = state.n_qubits, state.amps
    flipped = _flip(amps, _flip_perm(n, target))
    return StateVector(n, np.where(_masks(n, control)[1] == 1.0, flipped, amps))


def _check_measured_mass(masses: np.ndarray) -> None:
    """Refuse a measurement when a row's measured mass (sum of |amps|^2) is
    not 1, or not finite; ``masses`` holds one per row, and their max
    carries any NaN."""
    worst = float(np.abs(masses - 1.0).max())
    if not worst <= MEASURE_NORM_TOL:
        raise ValueError(
            f"state norm deviates from 1 by {worst:.3e}; "
            "refusing to measure an unnormalised state"
        )


def _require_pair(state: StateVector, q1: int, q2: int) -> None:
    _require_qubit(state, q1)
    _require_qubit(state, q2)
    if q1 == q2:
        raise ValueError("bell measurement needs two distinct qubits")


# Measurement kernels, one per basis, behind ``measure_*``.  A kernel
# takes a (B, 2^n) batch of flat amplitudes, checks the measured mass and
# returns the outcome probabilities, a (B, k) float64 array with one row of
# k outcomes per state, together with ``project(i, root)``: the amplitudes
# projected onto outcome ``i``, a (B,) array of per-row outcomes, and
# divided by ``root``, the (B, 1) column of the square roots of the
# outcomes' probabilities.  No kernel rotates the state: each applies its
# projectors to the flat amplitudes directly.
#
# The reductions below take a batch and return an array of one value per
# row.  Each is a stacked matmul or a sum along the rows, which computes
# every row with the same product, so a row's bits, and so its outcome, do
# not depend on the batch it is in.  That holds for C-contiguous rows,
# which is why :func:`_flip` takes its permutation: numpy lays out the fancy
# index ``amps[:, perm]`` in Fortran order, and a stacked matmul or sum
# over such rows adds their terms in another order.

_BITS = (0, 1)
_BELL_ORDER = tuple(BellLabel)


def _dots(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``values`` with the 1-D ``weights``."""
    return np.matmul(values[:, None, :], weights[:, None])[:, 0, 0]


def _masked_sums(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sums of each row of ``values`` over every mask row, as a
    (B, masks) array."""
    return np.matmul(masks, values[:, :, None])[:, :, 0]


def _overlaps(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Re<bra|ket> of each row: the X kernel's overlaps, under the rule
    above for real and complex amplitudes alike.  A real state's bits can
    still differ from its complex cast's, since numpy sums real and complex
    operands differently."""
    return np.matmul(bras.conj()[:, None, :], kets[:, :, None])[:, 0, 0].real


def _flip(amps: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The amplitudes of each row permuted by ``perm``, in C order: a
    ``take`` allocates its result C-contiguous."""
    return amps.take(perm, axis=-1)


# _SIGNS[m] is the (1,) column +1 (m = 0) or -1 (m = 1): amps + flipped *
# _SIGNS[minus] is amps - flipped on the rows whose flag ``minus`` is 1,
# else amps + flipped.
_SIGNS = np.array([[1.0], [-1.0]])
_SIGNS.setflags(write=False)


def _z_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors |b><b| on qubit ``q``."""
    masks = _masks(n, q)
    weights = np.abs(amps) ** 2
    totals = weights.sum(axis=1)
    _check_measured_mass(totals)
    ones = _dots(weights, masks[1])

    def project(bit, root):
        return amps * (masks[bit] / root)

    return np.column_stack([totals - ones, ones]), project


def _x_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors (I + X_q)/2 (bit 0) and (I - X_q)/2 (bit 1).

    With f = X_q amps, p(bit) = (<amps|amps> +- Re<amps|f>)/2 and the post
    state is (amps +- f)/2 over sqrt(p(bit)).
    """
    _check_measured_mass((np.abs(amps) ** 2).sum(axis=1))
    flipped = _flip(amps, _flip_perm(n, q))
    norm2, cross = _overlaps(amps, amps), _overlaps(amps, flipped)

    def project(bit, root):
        return (amps + flipped * _SIGNS[bit]) * (0.5 / root)

    return np.column_stack([0.5 * (norm2 + cross), 0.5 * (norm2 - cross)]), project


def _bell_kernel(amps: np.ndarray, n: int, q1: int, q2: int):
    """Stabiliser projectors of the Bell state labelled (phase, parity):
    (I + (-1)^parity Z_q1 Z_q2)/2 (I + (-1)^phase X_q1 X_q2)/2.

    The Z_q1 Z_q2 factor is a 0/1 parity mask; with f = X_q1 X_q2 amps,
    which keeps parity, p(phase, parity) = (W_parity +- C_parity)/2 where W
    and C sum |amps|^2 and Re(conj(amps) f) over that parity's indices.
    """
    masks = _masks(n, q1, q2)
    squares = np.abs(amps) ** 2
    _check_measured_mass(squares.sum(axis=1))
    flipped = _flip(amps, _flip_perm(n, q1, q2))
    weights = _masked_sums(masks, squares)
    cross = _masked_sums(masks, (amps.conj() * flipped).real)

    def project(i, root):  # BellLabel order: phase i >> 1, parity i & 1
        return (amps + flipped * _SIGNS[i >> 1]) * (masks[i & 1] * (0.5 / root))

    return np.concatenate([0.5 * (weights + cross), 0.5 * (weights - cross)], axis=1), project


def _pick(probs, randomness: float) -> int:
    """Index of the outcome one uniform draw from [0, 1) selects.

    Outcomes at or below ZERO_PROB are never selected; a draw beyond the
    accumulated mass (rounding) falls to the last live outcome.
    """
    if not 0.0 <= randomness < 1.0:
        raise ValueError(f"randomness must lie in [0, 1), got {randomness}")
    acc = 0.0
    live = None
    for i, p in enumerate(probs):
        acc += p
        if p > ZERO_PROB:
            live = i
            if randomness < acc:
                break
    return live


def _cut(probs) -> float:
    """The least draw for which ``_pick`` selects outcome 1 of two-outcome
    ``probs``: 0.0 or p0, whichever it selects 1 at first, or inf if neither."""
    draws = (u for u in (0.0, probs[0]) if u < 1.0 and _pick(probs, u) == 1)
    return next(draws, math.inf)


def _measure(state: StateVector, kernel, outcomes, qubits, randomness):
    """Pick and project every row's outcome with one kernel call.

    ``randomness`` is a list of one draw per row, each selecting its row's
    outcome by :func:`_pick`.  The outcomes come back as a list in row
    order.  A 1-D state is measured as a one-row batch, and its post-state
    comes back 1-D.
    """
    n, amps = state.n_qubits, state.amps
    batch = amps.reshape(-1, 2**n)  # a 1-D state as a one-row view
    rows = len(batch)
    if not isinstance(randomness, list) or len(randomness) != rows:
        raise ValueError(f"a state of {rows} row(s) takes a list of one draw per row")
    probs, project = kernel(batch, n, *qubits)
    picks = np.asarray(list(map(_pick, probs.tolist(), randomness)))
    chosen = probs[np.arange(rows), picks]
    post = project(picks, np.sqrt(chosen)[:, None]).reshape(amps.shape)
    return [outcomes[i] for i in picks.tolist()], StateVector(n, post)


def measure_z(state: StateVector, q: int, randomness):
    """Measure qubit ``q`` in Z, selecting each row's outcome with its own
    uniform draw."""
    _require_qubit(state, q)
    return _measure(state, _z_kernel, _BITS, (q,), randomness)


def measure_x(state: StateVector, q: int, randomness):
    """Measure qubit ``q`` in X (bit 0 = |+>), one uniform draw per row."""
    _require_qubit(state, q)
    return _measure(state, _x_kernel, _BITS, (q,), randomness)


def measure_bell(state: StateVector, q1: int, q2: int, randomness):
    """Measure the pair (q1, q2) in the Bell basis, one uniform draw per row."""
    _require_pair(state, q1, q2)
    return _measure(state, _bell_kernel, _BELL_ORDER, (q1, q2), randomness)


def prepare_ghz_like(state: StateVector, qc: int, qa: int, qb: int) -> StateVector:
    """Entangle three |0> qubits into (|001> + |010> + |100> + |111>)/2.

    Basis strings are read in the order (qc, qa, qb).  Equivalently the
    result is (|0>_c Psi+_ab + |1>_c Phi+_ab)/sqrt(2): reading qc in Z leaves
    the (qa, qb) pair in Psi+ for outcome 0 and Phi+ for outcome 1.
    """
    if len({qc, qa, qb}) != 3:
        raise ValueError("ghz preparation needs three distinct qubits")
    for q in (qc, qa, qb):
        _require_qubit(state, q)
        probs, _ = _z_kernel(state.amps.reshape(-1, 2**state.n_qubits), state.n_qubits, q)
        if np.any(probs[:, 1] > NORM_TOL):
            raise ValueError(f"qubit {q} must be in |0> before ghz preparation")
    s = apply_hadamard(state, qa)
    s = apply_cnot(s, qa, qb)
    s = apply_hadamard(s, qc)
    s = apply_pauli(s, qc, PauliLabel.X)
    s = apply_cnot(s, qc, qb)
    s = apply_pauli(s, qc, PauliLabel.X)
    return s

