"""Brute-force linear-algebra reference used to cross-check the simulator.

Everything here is built from explicit matrices via ``np.kron`` and dense
projectors, on purpose: it shares no code path with the package's
reshape-based gate application or its index-table measurement kernels.
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


def run_one_round_at_a_time(config, seed, keys, strategy):
    """A run of ``config`` as a plain loop: one round per step, each on a
    one-row wave, stopping at the first abort.

    It calls the protocol's phases directly (P1, P2, the S1/S2 checks, the
    in-transit measurements deferred past them, E1, E2 and E3), one Z or X
    measurement per in-transit qubit, and shares none of
    :func:`qauthsim.protocol.run_batch`'s wave filling, row dropping or
    folding.  Round i draws from the stream seeded by (seed, i).
    """
    from qauthsim import qsim
    from qauthsim.adversary import infer_key
    from qauthsim.protocol import (
        TRANSIT, Decision, DecoyRecord, PhaseId, Role, RoundRecord, SampleSource,
        Transcript, Wave, e1_encode, e2_measure, e3_verify, p1_prepare,
        p2_transmit, s_check,
    )

    transcript = Transcript([], Decision.ACCEPT)
    for i, key in enumerate(keys):
        rng = np.random.default_rng((seed, i))
        row = p1_prepare(config, rng)
        wave = Wave([row])
        eves = p2_transmit(wave, strategy, SampleSource([rng]))
        eve = eves[0] if eves else None
        alice = [slot for slot in row.alice_seq if isinstance(slot, DecoyRecord)]
        bob = [slot for slot in row.bob_seq if isinstance(slot, DecoyRecord)]
        _, ok_a = s_check(row.alice_seq, alice, config.decoy_error_threshold, rng)
        _, ok_b = s_check(row.bob_seq, bob, config.decoy_error_threshold, rng)
        if not (ok_a and ok_b):
            phase = PhaseId.S2 if ok_a else PhaseId.S1
            transcript.rounds.append(
                RoundRecord(None, None, None, alice + bob, Decision.ABORT, phase, eve=eve)
            )
            transcript.decision = Decision.ABORT
            return transcript
        for coins, draws in wave.in_transit:
            for q, coin, draw in zip(TRANSIT, coins, draws):
                measure = qsim.measure_x if coin else qsim.measure_z
                _, wave.state = measure(wave.state, q, [draw])
        e1_encode(wave, [key], config.direction)
        ((a, b, c),) = e2_measure(wave, SampleSource([rng]))
        guess = None
        if eve is not None:
            c = eve.c_pre
            guess = infer_key(eve, a if config.direction is Role.ALICE else b, config.direction)
        decision = e3_verify(a, b, c, key)
        transcript.rounds.append(
            RoundRecord(c, a, b, alice + bob, decision, eve=eve, inferred_key=guess)
        )
        if decision is Decision.REJECT:
            transcript.decision = Decision.REJECT
    return transcript
