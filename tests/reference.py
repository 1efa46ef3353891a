"""Brute-force linear-algebra reference used to cross-check the simulator.

The matrices and projectors here are built explicitly via ``np.kron``, on
purpose: they share no code path with the package's reshape-based gate
application or its index-table measurement kernels.  The state helpers
(:func:`norm`, :func:`overlap`, :func:`copy_state`, :func:`same_state`,
:func:`bell_pair`) are what only the tests need of a StateVector, and
:func:`run_one_round_at_a_time` replays a run through the protocol's phases
with numpy's own draws and its own scalar decoy checks.
"""

import itertools

import numpy as np

KET = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "iY": np.array([[0, 1], [-1, 0]], dtype=complex),
}

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def norm(state):
    """Euclidean norm of a StateVector's amplitudes."""
    return float(np.linalg.norm(state.amps))


def overlap(a, b):
    """Phase-insensitive overlap |<a|b>| of two StateVectors."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("overlap requires equal qubit counts")
    return float(abs(np.vdot(a.amps, b.amps)))


def copy_state(state):
    """A StateVector with its own copy of ``state``'s amplitudes."""
    from qauthsim.qsim import StateVector

    return StateVector(state.n_qubits, state.amps.copy())


def same_state(a, b, tol=1e-10):
    """True when the two StateVectors agree up to a global phase."""
    return a.n_qubits == b.n_qubits and abs(overlap(a, b) - 1.0) <= tol


def bell_pair(label):
    """The two-qubit Bell StateVector carrying ``label``: Phi+ with the
    Pauli of the same bits applied to its second qubit."""
    from qauthsim import qsim

    s = qsim.init_product(["0", "0"])
    s = qsim.apply_hadamard(s, 0)
    s = qsim.apply_cnot(s, 0, 1)
    return qsim.apply_pauli(s, 1, qsim.PauliLabel(label.value))


def product_state(tags):
    vec = KET[tags[0]]
    for tag in tags[1:]:
        vec = np.kron(vec, KET[tag])
    return vec


def embed(op, qubits, n):
    """Lift an operator acting on the given qubits to the full 2^n space."""
    k = len(qubits)
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = [order.index(q) for q in range(n)]
    tensor = full.reshape((2,) * (2 * n))
    tensor = np.transpose(tensor, perm + [n + p for p in perm])
    return tensor.reshape(2**n, 2**n)


def bell_vector(phase, parity):
    """Two-qubit Bell state with the given (phase, parity) bits."""
    a = np.kron(KET["0"], KET[str(parity)])
    b = np.kron(KET["1"], KET[str(1 - parity)])
    return (a + (-1) ** phase * b) / np.sqrt(2)


def z_projectors(q, n):
    return [embed(np.outer(KET[str(b)], KET[str(b)].conj()), [q], n) for b in (0, 1)]


def x_projectors(q, n):
    plus = np.outer(KET["+"], KET["+"].conj())
    minus = np.outer(KET["-"], KET["-"].conj())
    return [embed(plus, [q], n), embed(minus, [q], n)]


def bell_projectors(q1, q2, n):
    projs = []
    for phase, parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        vec = bell_vector(phase, parity)
        projs.append(embed(np.outer(vec, vec.conj()), [q1, q2], n))
    return projs


def joint_distribution(amps, projector_lists):
    """Exact joint outcome probabilities for commuting projector families.

    ``projector_lists`` holds one list of projectors per measurement; the
    result maps outcome-index tuples to probabilities.
    """
    dist = {}
    for combo in itertools.product(*(range(len(pl)) for pl in projector_lists)):
        vec = amps
        for which, pl in zip(combo, projector_lists):
            vec = pl[which] @ vec
        dist[combo] = float(np.vdot(vec, vec).real)
    return dist


def enumerate_branches_from_scratch(pipeline):
    """The enumerator as it was before outcome lists were reused.

    It re-runs ``pipeline`` from scratch for every leaf, on a
    :class:`qauthsim.oracle.BranchSource` that is handed no known lists, so
    every outcome list along every path is computed afresh.
    """
    from qauthsim.oracle import BranchSource

    script: list = []
    while True:
        source = BranchSource(script)
        result = pipeline(source)
        yield result, source.probability
        taken, counts = source.taken, source.counts
        i = len(taken) - 1
        while i >= 0 and taken[i] + 1 >= counts[i]:
            i -= 1
        if i < 0:
            return
        script = taken[:i] + [taken[i] + 1]


def check_decoys_one_at_a_time(row, threshold, rng):
    """S1 then S2 on a P1 record as a plain loop: each decoy, in row order,
    measured in its prepared basis with its own scalar draw, by
    :func:`qauthsim.qsim._pick` over the label's outcome probabilities.

    Sets the row's ``measured`` bits and collapsed labels, as the
    protocol's table lookup does, and returns the phase of the first
    sequence whose mismatch rate is above ``threshold``, or None.
    """
    from qauthsim import qsim
    from qauthsim.protocol import _DECOY_PROBS, PhaseId

    row.measured = []
    for i, (label, coin) in enumerate(zip(row.labels, row.coins)):
        bit = qsim._pick(_DECOY_PROBS[label][coin], rng.random())
        row.labels[i] = 2 * coin + bit
        row.measured.append(bit)
    d = len(row.labels) // 2
    for phase, owned in ((PhaseId.S1, slice(0, d)), (PhaseId.S2, slice(d, 2 * d))):
        mismatches = sum(m != p for m, p in zip(row.measured[owned], row.prepared[owned]))
        if d and mismatches / d > threshold:
            return phase
    return None


class GeneratorStream:
    """A numpy Generator behind the draw methods the phases call on a row
    stream: ``coins`` is ``integers(0, 2, size=n)`` and ``draws`` is
    ``random(size=n)``, drawn by numpy itself rather than read off raw words
    as the program does."""

    def __init__(self, rng):
        self.rng = rng

    def coins(self, n):
        return self.rng.integers(0, 2, size=n).tolist()

    def draws(self, n):
        return self.rng.random(size=n).tolist()


def prepare_one_round(config, rng):
    """P1's record drawn by a numpy Generator: for Alice's sequence then
    Bob's, ``permutation(d + 2)``, whose first d slots carry the decoys in
    rising order, and ``integers(0, 2, size=2d)``, their d basis coins then
    d bits."""
    from qauthsim.protocol import RoundRecord

    d = config.decoys_per_sequence
    positions, coins, bits = [], [], []
    for _ in range(2 if d else 0):
        positions += sorted(rng.permutation(d + 2)[:d].tolist())
        drawn = rng.integers(0, 2, size=2 * d).tolist()
        coins += drawn[:d]
        bits += drawn[d:]
    return RoundRecord(positions, coins, bits, [2 * c + b for c, b in zip(coins, bits)])


def run_one_round_at_a_time(config, seed, keys, strategy):
    """A run of ``config`` as a plain loop: one round per step, each on a
    one-row wave, stopping at the first abort.

    Round i draws from ``np.random.default_rng((seed, i))`` through numpy's
    own ``permutation``, ``integers`` and ``random``: it builds P1's record
    with :func:`prepare_one_round` and hands the phases a
    :class:`GeneratorStream`.  So it checks the program's draws, read off
    raw PCG64 words, against numpy's.  It calls the protocol's phases
    directly (P2, E1, E2 and E3) and fills in the record as the round goes.
    It checks the decoys with :func:`check_decoys_one_at_a_time` rather
    than the protocol's table lookup, makes one Z or X measurement per
    in-transit qubit after the checks, and shares none of
    :func:`qauthsim.protocol.run_batch`'s wave filling, row dropping or
    folding.
    """
    from qauthsim import qsim
    from qauthsim.adversary import infer_key
    from qauthsim.protocol import (
        TRANSIT, Decision, Role, SampleSource, Transcript, Wave,
        e1_encode, e2_measure, e3_verify, p2_transmit,
    )

    transcript = Transcript([], Decision.ACCEPT)
    for i, key in enumerate(keys):
        rng = np.random.default_rng((seed, i))
        record = prepare_one_round(config, rng)
        transcript.rounds.append(record)
        wave = Wave([record])
        eves = p2_transmit(wave, strategy, SampleSource([GeneratorStream(rng)]))
        record.eve = eves[0] if eves else None
        phase = check_decoys_one_at_a_time(record, config.decoy_error_threshold, rng)
        if phase is not None:
            record.decision, record.aborted_in = Decision.ABORT, phase
            transcript.decision = Decision.ABORT
            return transcript
        for coins, draws in wave.in_transit:
            for q, coin, draw in zip(TRANSIT, coins, draws):
                measure = qsim.measure_x if coin else qsim.measure_z
                _, wave.state = measure(wave.state, q, [draw])
        e1_encode(wave, [key], config.direction)
        ((a, b, c),) = e2_measure(wave, SampleSource([GeneratorStream(rng)]))
        if record.eve is not None:
            c = record.eve.c_pre
            announced = a if config.direction is Role.ALICE else b
            record.inferred_key = infer_key(record.eve, announced, config.direction)
        record.c, record.a, record.b = c, a, b
        record.decision = e3_verify(a, b, c, key)
        if record.decision is Decision.REJECT:
            transcript.decision = Decision.REJECT
    return transcript
