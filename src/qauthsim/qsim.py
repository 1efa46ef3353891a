"""Dense state-vector simulator for small qubit registers.

Amplitudes are indexed big-endian: qubit 0 is the most significant bit of the
basis-state index, so ``|q0 q1 ... q_{n-1}>`` sits at index
``q0*2^(n-1) + ... + q_{n-1}``.  Operations return new :class:`StateVector`
instances rather than mutating their input.

Nothing in this module draws randomness.  The sampling ``measure_*``
functions take a single uniform draw from ``[0, 1)`` supplied by the caller
and return ``(outcome, post-state)``, the shape of the outcome-source
interface the protocol module uses; exhaustive callers use the ``*_outcomes``
functions, which list every outcome as ``(outcome, probability,
post-state)``.  Both go through one kernel per basis, so the exhaustive and
the sampled results cannot drift apart.  Measurements never rotate the
state: Z, X and Bell outcomes are the basis's projectors applied straight to
the flat amplitude array through cached tables over a qubit tuple, a 0/1
mask per value of the XOR of those qubits' bits and the index permutation
that flips them all (one qubit for Z and X, the pair for Bell).

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

    @property
    def phase_bit(self) -> int:
        return self.value[0]

    @property
    def parity_bit(self) -> int:
        return self.value[1]

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
        if self.amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {self.amps.shape}, "
                f"expected ({expected},) for {self.n_qubits} qubits"
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


def _check_randomness(randomness: float) -> None:
    if not 0.0 <= randomness < 1.0:
        raise ValueError(f"randomness must lie in [0, 1), got {randomness}")


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


def apply_pauli(state: StateVector, q: int, label: PauliLabel) -> StateVector:
    _require_qubit(state, q)
    n, amps = state.n_qubits, state.amps
    if label is PauliLabel.I:
        out = amps.copy()
    elif label is PauliLabel.X:
        out = amps[_flip_perm(n, q)]
    elif label is PauliLabel.Z:
        out = amps * _z_signs(n, q)
    elif label is PauliLabel.IY:  # iY = Z@X
        out = amps[_flip_perm(n, q)] * _z_signs(n, q)
    else:
        raise ValueError(f"expected a PauliLabel, got {label!r}")
    return StateVector(n, out)


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


def _bit_probabilities(amps: np.ndarray, n: int, q: int) -> tuple[float, float]:
    weights = np.abs(amps) ** 2
    p1 = float(weights @ _masks(n, q)[1])
    return float(weights.sum() - p1), p1


def _check_measured_mass(total: float) -> None:
    if abs(total - 1.0) > MEASURE_NORM_TOL:
        raise ValueError(
            f"state norm deviates from 1 by {abs(total - 1.0):.3e}; "
            "refusing to measure an unnormalised state"
        )


def _require_pair(state: StateVector, q1: int, q2: int) -> None:
    _require_qubit(state, q1)
    _require_qubit(state, q2)
    if q1 == q2:
        raise ValueError("bell measurement needs two distinct qubits")


# Measurement kernels, one per basis, shared by the sampling ``measure_*``
# and the exhaustive ``*_outcomes`` functions.  A kernel checks the measured
# mass and returns the outcome probabilities in outcome order together with
# ``project(i)``, the normalised post-measurement amplitudes of outcome ``i``
# (called only for outcomes above ZERO_PROB).  No kernel rotates the state:
# each applies its projectors to the flat amplitude array directly.

_BITS = (0, 1)
_BELL_ORDER = tuple(BellLabel)


def _z_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors |b><b| on qubit ``q``."""
    probs = _bit_probabilities(amps, n, q)

    def project(bit: int) -> np.ndarray:
        return amps * (_masks(n, q)[bit] / math.sqrt(probs[bit]))

    _check_measured_mass(probs[0] + probs[1])
    return probs, project


def _x_kernel(amps: np.ndarray, n: int, q: int):
    """Projectors (I + X_q)/2 (bit 0) and (I - X_q)/2 (bit 1).

    With f = X_q amps, p(bit) = (<amps|amps> +- Re<amps|f>)/2 and the post
    state is (amps +- f)/2 over sqrt(p(bit)).
    """
    flipped = amps[_flip_perm(n, q)]
    norm2 = float(np.vdot(amps, amps).real)
    cross = float(np.vdot(amps, flipped).real)
    probs = (0.5 * (norm2 + cross), 0.5 * (norm2 - cross))

    def project(bit: int) -> np.ndarray:
        both = amps - flipped if bit else amps + flipped
        return both * (0.5 / math.sqrt(probs[bit]))

    _check_measured_mass(probs[0] + probs[1])
    return probs, project


def _bell_kernel(amps: np.ndarray, n: int, q1: int, q2: int):
    """Stabiliser projectors of the Bell state labelled (phase, parity):
    (I + (-1)^parity Z_q1 Z_q2)/2 (I + (-1)^phase X_q1 X_q2)/2.

    The Z_q1 Z_q2 factor is a 0/1 parity mask; with f = X_q1 X_q2 amps,
    which keeps parity, p(phase, parity) = (W_parity +- C_parity)/2 where W
    and C sum |amps|^2 and Re(conj(amps) f) over that parity's indices.
    """
    flipped = amps[_flip_perm(n, q1, q2)]
    masks = _masks(n, q1, q2)
    w0, w1 = (masks @ (np.abs(amps) ** 2)).tolist()
    c0, c1 = (masks @ (amps.conj() * flipped).real).tolist()
    probs = (0.5 * (w0 + c0), 0.5 * (w1 + c1), 0.5 * (w0 - c0), 0.5 * (w1 - c1))

    def project(i: int) -> np.ndarray:
        phase, parity = _BELL_ORDER[i].value
        both = amps - flipped if phase else amps + flipped
        return both * (masks[parity] * (0.5 / math.sqrt(probs[i])))

    _check_measured_mass(w0 + w1)
    return probs, project


def _pick(probs, randomness: float) -> int:
    """Index of the outcome one uniform draw selects.

    Outcomes at or below ZERO_PROB are never selected; a draw beyond the
    accumulated mass (rounding) falls to the last live outcome.
    """
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
    n = state.n_qubits
    probs, project = kernel(state.amps, n, *qubits)
    return [
        (outcome, p, None if p <= ZERO_PROB else StateVector(n, project(i)))
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


def _measure(state: StateVector, kernel, outcomes, qubits, randomness: float):
    _check_randomness(randomness)
    probs, project = kernel(state.amps, state.n_qubits, *qubits)
    i = _pick(probs, randomness)
    return outcomes[i], StateVector(state.n_qubits, project(i))


def measure_z(state: StateVector, q: int, randomness: float) -> tuple[int, StateVector]:
    """Measure qubit ``q`` in Z, selecting the outcome with one uniform draw."""
    _require_qubit(state, q)
    return _measure(state, _z_kernel, _BITS, (q,), randomness)


def measure_x(state: StateVector, q: int, randomness: float) -> tuple[int, StateVector]:
    """Measure qubit ``q`` in X (bit 0 = |+>), selecting with one uniform draw."""
    _require_qubit(state, q)
    return _measure(state, _x_kernel, _BITS, (q,), randomness)


def measure_bell(
    state: StateVector, q1: int, q2: int, randomness: float
) -> tuple[BellLabel, StateVector]:
    """Measure the pair (q1, q2) in the Bell basis with one uniform draw."""
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
        _, p1 = _bit_probabilities(state.amps, state.n_qubits, q)
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
