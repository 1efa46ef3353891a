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
