"""Dense state-vector simulator for small qubit registers.

Amplitudes are indexed big-endian: qubit 0 is the most significant bit of the
basis-state index, so ``|q0 q1 ... q_{n-1}>`` sits at index
``q0*2^(n-1) + ... + q_{n-1}``.  Operations return new :class:`StateVector`
instances rather than mutating their input.

A state's amplitudes may carry a leading batch axis: shape (B, 2^n) holds
B states of the same register, one per row, the way the protocol module
holds round i of many sampled runs.  Pauli gates and measurements act on
every row of a batch at once.

Nothing in this module draws randomness.  The sampling ``measure_*``
functions take a uniform draw from ``[0, 1)`` supplied by the caller, one
per row of a batch, and return ``(outcome, post-state)`` with one outcome
per row, the shape of the outcome-source interface the protocol module
uses; exhaustive callers use the ``*_outcomes`` functions, which list every
outcome of a single state as ``(outcome, probability, post-state)``.  Both
go through one kernel per basis, written over the optional batch axis, so
the exhaustive and the sampled results cannot drift apart, and a row of a
batch gets the outcome its state would get measured alone.  Measurements
never rotate the state: Z, X and Bell outcomes are the basis's projectors
applied straight to the flat amplitude array through cached tables over a
qubit tuple, a 0/1 mask per value of the XOR of those qubits' bits and the
index permutation that flips them all (one qubit for Z and X, the pair for
Bell).

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

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV

_SINGLE_QUBIT_STATES = {
    "0": np.array([1, 0], dtype=np.complex128),
    "1": np.array([0, 1], dtype=np.complex128),
    "+": np.array([_SQRT2_INV, _SQRT2_INV], dtype=np.complex128),
    "-": np.array([_SQRT2_INV, -_SQRT2_INV], dtype=np.complex128),
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "StateVector") -> float:
        """Phase-insensitive overlap |<self|other>|."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("overlap requires equal qubit counts")
        return float(abs(np.vdot(self.amps, other.amps)))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())


def same_state(a: StateVector, b: StateVector, tol: float = NORM_TOL) -> bool:
    """True when the two states agree up to a global phase."""
    return a.n_qubits == b.n_qubits and abs(a.overlap(b) - 1.0) <= tol


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
    if not 0 <= q < state.n_qubits:
        raise ValueError(
            f"qubit index {q} out of range for a {state.n_qubits}-qubit state"
        )


# Flat-index helpers, cached per register shape.  Measurements and Pauli
# gates then reduce to dot products, sign flips, and permutation lookups on
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
def _z_signs(n: int, q: int) -> np.ndarray:
    signs = 1.0 - 2.0 * _masks(n, q)[1]
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _flip_perm(n: int, *qubits: int) -> np.ndarray:
    """Permutation of flat indices that flips every one of the distinct
    ``qubits``."""
    perm = np.arange(2**n) ^ sum(1 << (n - 1 - q) for q in qubits)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Permutation flipping ``target`` on indices where ``control`` is set."""
    idx = np.arange(2**n)
    cbit = (idx >> (n - 1 - control)) & 1
    perm = idx ^ (cbit << (n - 1 - target))
    perm.setflags(write=False)
    return perm


def _per_row(choices: list, image) -> np.ndarray:
    """Every row's ``image(choice)`` for its own entry of ``choices``.

    ``image`` maps a choice to an array covering every row; it is called
    once per distinct choice, and a choice shared by every row returns its
    image whole.
    """
    first = choices[0]
    out = image(first)
    if choices.count(first) == len(choices):
        return out
    for choice in dict.fromkeys(choices):
        if choice != first:
            rows = np.array([c == choice for c in choices])[:, None]
            out = np.where(rows, image(choice), out)
    return out


def _pauli_image(amps: np.ndarray, n: int, q: int, label: PauliLabel) -> np.ndarray:
    if label is PauliLabel.I:
        return amps.copy()
    if label is PauliLabel.X:
        return _flip(amps, _flip_perm(n, q))
    if label is PauliLabel.Z:
        return amps * _z_signs(n, q)
    if label is PauliLabel.IY:  # iY = Z@X
        return _flip(amps, _flip_perm(n, q)) * _z_signs(n, q)
    raise ValueError(f"expected a PauliLabel, got {label!r}")


def apply_pauli(state: StateVector, q: int, label) -> StateVector:
    """Apply a Pauli to qubit ``q`` of every row.

    ``label`` is one PauliLabel for every row, or a list of one PauliLabel
    per row (a 1-D state is one row).
    """
    _require_qubit(state, q)
    n, amps = state.n_qubits, state.amps
    if isinstance(label, PauliLabel):
        return StateVector(n, _pauli_image(amps, n, q, label))
    if not isinstance(label, list) or len(label) != (len(amps) if amps.ndim == 2 else 1):
        raise ValueError(f"expected a PauliLabel or a list of one per row, got {label!r}")
    return StateVector(n, _per_row(label, lambda lab: _pauli_image(amps, n, q, lab)))


def apply_hadamard(state: StateVector, q: int) -> StateVector:
    _require_qubit(state, q)
    n, amps = state.n_qubits, state.amps
    moved = amps.reshape((2,) * n).swapaxes(q, -1)
    out = (moved @ HADAMARD).swapaxes(q, -1).reshape(-1)
    return StateVector(n, out)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    _require_qubit(state, control)
    _require_qubit(state, target)
    if control == target:
        raise ValueError("cnot control and target must differ")
    n = state.n_qubits
    return StateVector(n, state.amps[_cnot_perm(n, control, target)])


def _check_measured_mass(masses) -> None:
    """Refuse a measurement when a row's measured mass (sum of |amps|^2) is
    not 1; ``masses`` is one float, or a list of one per row."""
    if isinstance(masses, float):
        worst = abs(masses - 1.0)
    else:
        worst = max(max(masses) - 1.0, 1.0 - min(masses))
    if worst > MEASURE_NORM_TOL:
        raise ValueError(
            f"state norm deviates from 1 by {worst:.3e}; "
            "refusing to measure an unnormalised state"
        )


def _require_pair(state: StateVector, q1: int, q2: int) -> None:
    _require_qubit(state, q1)
    _require_qubit(state, q2)
    if q1 == q2:
        raise ValueError("bell measurement needs two distinct qubits")


# Measurement kernels, one per basis, shared by the sampling ``measure_*``
# and the exhaustive ``*_outcomes`` functions.  A kernel takes a flat
# amplitude array with an optional leading batch axis, checks the measured
# mass and returns the outcome probabilities (a tuple in outcome order, or
# for a batch a list of one such tuple per row) together with
# ``project(i, root)``: the amplitudes projected onto outcome ``i`` and
# divided by ``root``, the square root of the outcome's probability.  For a
# batch, ``i`` is a (B,) array of per-row outcomes and ``root`` a (B, 1)
# column.  No kernel rotates the state: each applies its projectors to the
# flat amplitudes directly.
#
# The reductions below return one value for a 1-D array and a list of one
# per row for a batch.  A 1-D array takes numpy's vector product; a batch
# takes a stacked matmul, which computes every row with that same product,
# so a row's bits, and so its outcome, do not depend on the batch it is in.

_BITS = (0, 1)
_BELL_ORDER = tuple(BellLabel)


def _sums(values: np.ndarray):
    """The sum of ``values`` (of each row)."""
    return float(values.sum()) if values.ndim == 1 else values.sum(axis=1).tolist()


def _dots(values: np.ndarray, weights: np.ndarray):
    """The dot product of ``values`` (of each row) with the 1-D ``weights``."""
    if values.ndim == 1:
        return float(values @ weights)
    return np.matmul(values[:, None, :], weights[:, None])[:, 0, 0].tolist()


def _masked_sums(masks: np.ndarray, values: np.ndarray) -> list:
    """The sums of ``values`` (of each row) over every mask row, as a list."""
    if values.ndim == 1:
        return (masks @ values).tolist()
    return np.matmul(masks, values[:, :, None])[:, :, 0].tolist()


def _overlaps(bras: np.ndarray, kets: np.ndarray):
    """Re<bra|ket> (of each row).

    The complex products are the exception to the rule above: a row's
    result can differ from vdot's in the last bit (vdot's own bits depend on
    how its operands are aligned in memory), which moves an outcome only for
    a draw within that bit of an outcome boundary.
    """
    if bras.ndim == 1:
        return float(np.vdot(bras, kets).real)
    return np.matmul(bras.conj()[:, None, :], kets[:, :, None])[:, 0, 0].real.tolist()


def _flip(amps: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The amplitudes (of each row) permuted by ``perm``."""
    return amps[perm] if amps.ndim == 1 else amps[:, perm]


# _SIGNS[m] is the (1,) column +1 (m = 0) or -1 (m = 1).
_SIGNS = np.array([[1.0], [-1.0]])
_SIGNS.setflags(write=False)


def _plus_or_minus(amps: np.ndarray, flipped: np.ndarray, minus) -> np.ndarray:
    """amps - flipped where ``minus`` is 1, else amps + flipped; ``minus``
    is an int, or a (B,) array with one flag per row.  A row's values equal
    the int form's, though an exact zero may come out with the other sign,
    which no probability or outcome can see."""
    if isinstance(minus, int):
        return amps - flipped if minus else amps + flipped
    return amps + flipped * _SIGNS[minus]


def _z_probs(total: float, p1: float) -> tuple:
    return total - p1, p1


def _z_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors |b><b| on qubit ``q``."""
    masks = _masks(n, q)
    weights = np.abs(amps) ** 2
    totals, ones = _sums(weights), _dots(weights, masks[1])

    def project(bit, root):
        return amps * (masks[bit] / root)

    _check_measured_mass(totals)
    probs = list(map(_z_probs, totals, ones)) if amps.ndim == 2 else _z_probs(totals, ones)
    return probs, project


def _x_probs(norm2: float, cross: float) -> tuple:
    return 0.5 * (norm2 + cross), 0.5 * (norm2 - cross)


def _x_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors (I + X_q)/2 (bit 0) and (I - X_q)/2 (bit 1).

    With f = X_q amps, p(bit) = (<amps|amps> +- Re<amps|f>)/2 and the post
    state is (amps +- f)/2 over sqrt(p(bit)).
    """
    flipped = _flip(amps, _flip_perm(n, q))
    norm2, cross = _overlaps(amps, amps), _overlaps(amps, flipped)

    def project(bit, root):
        return _plus_or_minus(amps, flipped, bit) * (0.5 / root)

    _check_measured_mass(norm2)
    probs = list(map(_x_probs, norm2, cross)) if amps.ndim == 2 else _x_probs(norm2, cross)
    return probs, project


def _bell_probs(weights: list, cross: list) -> tuple:
    (w0, w1), (c0, c1) = weights, cross
    return 0.5 * (w0 + c0), 0.5 * (w1 + c1), 0.5 * (w0 - c0), 0.5 * (w1 - c1)


def _bell_kernel(amps: np.ndarray, n: int, q1: int, q2: int):
    """Stabiliser projectors of the Bell state labelled (phase, parity):
    (I + (-1)^parity Z_q1 Z_q2)/2 (I + (-1)^phase X_q1 X_q2)/2.

    The Z_q1 Z_q2 factor is a 0/1 parity mask; with f = X_q1 X_q2 amps,
    which keeps parity, p(phase, parity) = (W_parity +- C_parity)/2 where W
    and C sum |amps|^2 and Re(conj(amps) f) over that parity's indices.
    """
    flipped = _flip(amps, _flip_perm(n, q1, q2))
    masks = _masks(n, q1, q2)
    weights = _masked_sums(masks, np.abs(amps) ** 2)
    cross = _masked_sums(masks, (amps.conj() * flipped).real)

    def project(i, root):  # BellLabel order: phase i >> 1, parity i & 1
        return _plus_or_minus(amps, flipped, i >> 1) * (masks[i & 1] * (0.5 / root))

    if amps.ndim == 2:
        _check_measured_mass([w0 + w1 for w0, w1 in weights])
        return list(map(_bell_probs, weights, cross)), project
    _check_measured_mass(weights[0] + weights[1])
    return _bell_probs(weights, cross), project


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


def _outcome_list(state: StateVector, kernel, outcomes, qubits) -> list:
    if state.amps.ndim != 1:
        raise ValueError("outcome lists take a single state, not a batch")
    n = state.n_qubits
    probs, project = kernel(state.amps, n, *qubits)
    return [
        (outcome, p, None if p <= ZERO_PROB else StateVector(n, project(i, math.sqrt(p))))
        for i, (outcome, p) in enumerate(zip(outcomes, probs))
    ]


def z_outcomes(state: StateVector, q: int) -> list:
    """Both Z outcomes on qubit ``q`` as (bit, probability, post-state).

    Outcomes with numerically zero probability carry ``None`` in place of a
    post-measurement state.
    """
    _require_qubit(state, q)
    return _outcome_list(state, _z_kernel, _BITS, (q,))


def x_outcomes(state: StateVector, q: int) -> list:
    """Both X outcomes on qubit ``q``; bit 0 means |+>, bit 1 means |->.

    Projects with (I +- X_q)/2 directly on the amplitudes.
    """
    _require_qubit(state, q)
    return _outcome_list(state, _x_kernel, _BITS, (q,))


def bell_outcomes(state: StateVector, q1: int, q2: int) -> list:
    """All four Bell outcomes on the ordered pair (q1, q2), in BellLabel order.

    Each outcome's probability and post-state come from its stabiliser
    projector, built from the Z_q1 Z_q2 parity and the X_q1 X_q2 flip of the
    amplitude array.
    """
    _require_pair(state, q1, q2)
    return _outcome_list(state, _bell_kernel, _BELL_ORDER, (q1, q2))


def _measure(state: StateVector, kernel, outcomes, qubits, randomness):
    """Select and project every row's outcome with one kernel call.

    ``randomness`` is one draw, or a sequence of one draw per row (a 1-D
    state is one row); the outcome comes back in the same form.
    """
    n = state.n_qubits
    per_row = not isinstance(randomness, (int, float))
    probs, project = kernel(state.amps, n, *qubits)
    if state.amps.ndim == 1:
        (draw,) = randomness if per_row else (randomness,)
        i = _pick(probs, draw)
        post = StateVector(n, project(i, math.sqrt(probs[i])))
        return ([outcomes[i]] if per_row else outcomes[i]), post
    if not per_row or len(randomness) != len(probs):
        raise ValueError(f"a batch of {len(probs)} rows takes one draw per row")
    picks = list(map(_pick, probs, randomness))
    roots = np.sqrt([[row[i]] for row, i in zip(probs, picks)])
    post = StateVector(n, project(np.array(picks), roots))
    return [outcomes[i] for i in picks], post


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
        (_, p1), _ = _z_kernel(state.amps, state.n_qubits, q)
        if p1 > NORM_TOL:
            raise ValueError(f"qubit {q} must be in |0> before ghz preparation")
    s = apply_hadamard(state, qa)
    s = apply_cnot(s, qa, qb)
    s = apply_hadamard(s, qc)
    s = apply_pauli(s, qc, PauliLabel.X)
    s = apply_cnot(s, qc, qb)
    s = apply_pauli(s, qc, PauliLabel.X)
    return s


def bell_pair(label: BellLabel) -> StateVector:
    """The two-qubit Bell state carrying ``label``: Phi+ with the Pauli of
    the same bits applied to its second qubit."""
    s = init_product(["0", "0"])
    s = apply_hadamard(s, 0)
    s = apply_cnot(s, 0, 1)
    return apply_pauli(s, 1, PauliLabel(label.value))
