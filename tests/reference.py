"""Brute-force linear-algebra reference used to cross-check the simulator.

The matrices and projectors here are built explicitly via ``np.kron``, on
purpose: they share no code path with the package's index-table gates or
measurement kernels.  The state helpers (:func:`norm`, :func:`overlap`,
:func:`copy_state`, :func:`same_state`, :func:`bell_pair`) are what only
the tests need of a StateVector, and :func:`run_one_round_at_a_time`
replays a run round by round with numpy's own draws, its own scalar decoy
checks and ``qsim.measure_*`` on one 1-D state, none of the protocol's
phase code.  :func:`decoy_text` and :func:`decoy_error_rate` read a
checked RoundRecord's decoy lists the way the transcript pins print them.  :func:`gather_transcripts` gathers the rows
:func:`qauthsim.protocol.run_batch` yields into one Transcript per run,
and :func:`batch_transcripts` runs a batch that way, its PauliLabel keys
given as :func:`key_codes`.
:func:`enumerate_branches_depth_first` is the oracle's enumeration as a
one-row depth-first walk on :func:`outcome_list`, a single state's
outcomes read off qsim's own kernels as a one-row batch, and
:class:`ListSelect` is its branch source's selection rule over several
rows at once, on Python lists.
:func:`round_leaves_in_fractions` walks a decoy-free round under any of
the three strategies in exact rational arithmetic, with its own sparse
states and matrices, for :func:`exact_round_in_fractions`, and
:func:`decoy_miss_in_fractions` measures a decoy with rational density
matrices.  :class:`GeneratorStream` puts numpy's own Generator behind a
row stream's draw methods, :func:`row_stream` is the program's stream for
one row, and :func:`fresh_register` is a round's P1 record.
"""

import itertools
import math
from fractions import Fraction

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


def outcome_list(basis, state, *qubits):
    """Every outcome of measuring the single state ``state`` in ``basis`` on
    ``qubits``, as (outcome, probability, post-state) in outcome order
    (bits 0 and 1, or BellLabel order).  An outcome at or below
    ``qsim.ZERO_PROB`` carries None in place of a post-state.

    Unlike the rest of this module it is no independent reference: it
    reads qsim's own kernels, the ones behind ``qsim.measure_*``, on the
    state as a one-row batch, for the tests that need every outcome of a
    state at once.
    """
    from qauthsim import qsim

    kernel, outcomes = {
        qsim.Basis.Z: (qsim._z_kernel, (0, 1)),
        qsim.Basis.X: (qsim._x_kernel, (0, 1)),
        qsim.Basis.BELL: (qsim._bell_kernel, tuple(qsim.BellLabel)),
    }[basis]
    assert state.amps.ndim == 1, "an outcome list takes a single state"
    n = state.n_qubits
    probs, project = kernel(state.amps[None], n, *qubits)
    return [
        (outcome, p, None if p <= qsim.ZERO_PROB
         else qsim.StateVector(n, project(np.array([i]), np.array([[math.sqrt(p)]]))[0]))
        for i, (outcome, p) in enumerate(zip(outcomes, probs[0].tolist()))
    ]


class ScriptedOneRowSource:
    """A one-row outcome source that follows one scripted branch, taking
    each outcome from :func:`outcome_list`.

    It has the outcome-source interface of the oracle's
    :class:`qauthsim.oracle.BranchSource`, ``roots`` included, and shares
    no code with it.  At its measurement ``i`` it takes live outcome
    ``script[i]`` (or the first live one beyond the script's end);
    ``taken`` records the path, ``fanouts`` the number of live outcomes at
    each depth, and ``probability`` the branch's product.
    """

    def __init__(self, script, root):
        self.script, self.roots = script, [root]
        self.taken, self.fanouts, self.probability = [], [], 1.0

    def _choose(self, basis, *args):
        from qauthsim.qsim import Basis

        live = [o for o in outcome_list(Basis(basis), *args) if o[2] is not None]
        depth = len(self.taken)
        index = self.script[depth] if depth < len(self.script) else 0
        outcome, p, post = live[index]
        self.taken.append(index)
        self.fanouts.append(len(live))
        self.probability *= p
        return [outcome], post

    def measure_z(self, state, q):
        return self._choose("Z", state, q)

    def measure_x(self, state, q):
        return self._choose("X", state, q)

    def measure_bell(self, state, q1, q2):
        return self._choose("Bell", state, q1, q2)


class ListSelect:
    """The selection rule of :class:`qauthsim.oracle.BranchSource` over
    several rows at once, on Python lists: row ``r`` picks what a
    ``BranchSource(scripts[r])`` handed the same nodes picks.

    ``select`` takes the rows' probabilities as a list of one list per row
    and returns each row's pick: row ``r`` takes live option
    ``scripts[r][depth]`` (option 0 past its script's end), an option being
    live above ``ZERO_PROB``; a script that names an option its row does
    not have is a ValueError.  ``taken`` and ``fanouts`` grow by one entry
    per row, and ``probability`` is the running product, all rebuilt at
    every call.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.taken = [()] * len(scripts)
        self.fanouts = [()] * len(scripts)
        self.probability = [1.0] * len(scripts)

    def select(self, probs) -> list:
        from qauthsim import qsim

        depth = len(self.taken[0])
        lives = [[i for i, p in enumerate(row) if p > qsim.ZERO_PROB] for row in probs]
        indexes = [script[depth] if depth < len(script) else 0 for script in self.scripts]
        if not all(0 <= index < len(live) for live, index in zip(lives, indexes)):
            raise ValueError("a script names an option its row does not have")
        picks = [live[index] for live, index in zip(lives, indexes)]
        self.taken = [path + (index,) for path, index in zip(self.taken, indexes)]
        self.fanouts = [row + (len(live),) for row, live in zip(self.fanouts, lives)]
        self.probability = [p * row[i] for p, row, i in zip(self.probability, probs, picks)]
        return picks


def enumerate_branches_depth_first(pipeline, roots=(None,)):
    """The oracle's enumeration as a one-row depth-first walk.

    For each root in turn, ``pipeline`` runs once per leaf on a
    :class:`ScriptedOneRowSource`, each leaf's script being the next branch
    in depth-first order after the last leaf's path, and every outcome list
    along the path is computed afresh.  Yields (result, probability) in the
    order :func:`qauthsim.oracle.enumerate_branches` promises: root by root,
    each root's leaves in depth-first path order.
    """
    for root in roots:
        script: list = []
        while True:
            source = ScriptedOneRowSource(script, root)
            [result] = pipeline(source)
            yield result, source.probability
            taken, fanouts = source.taken, source.fanouts
            i = len(taken) - 1
            while i >= 0 and taken[i] + 1 >= fanouts[i]:
                i -= 1
            if i < 0:
                break
            script = taken[:i] + [taken[i] + 1]


# Exact arithmetic: every state the protocol reaches before normalising is
# rational.  |G> = (|0>_c Psi+_ab + |1>_c Phi+_ab)/sqrt(2) has amplitudes
# 1/2, the key Paulis are real 0/+-1 matrices, and the Z, X and Bell
# projectors have entries 0, +-1/2 and 1.  So an unnormalised branch vector
# P_k ... P_1 psi is rational, and its squared norm is the branch's exact
# probability.  States are sparse dicts from six-bit tuples, in the round's
# qubit layout (C1, A1, B1, C2, A2, B2), to Fractions.

_FRACTION_PAULI = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Z": ((1, 0), (0, -1)),
    "iY": ((0, 1), (-1, 0)),
}

_FRACTION_Z = ((0, ((1, 0), (0, 0))), (1, ((0, 0), (0, 1))))  # (bit, |bit><bit|)
_FRACTION_X = tuple(  # (bit, (I +- X)/2), |+><+| for bit 0 and |-><-| for bit 1
    (bit, tuple(tuple(Fraction((-1) ** (bit * (i + j)), 2) for j in (0, 1)) for i in (0, 1)))
    for bit in (0, 1)
)


def _fraction_bell_projector(phase, parity):
    """|B><B| for B = (|0 parity> + (-1)^phase |1 (1 - parity)>)/sqrt(2)."""
    vec = [0, 0, 0, 0]
    vec[parity], vec[2 + (1 - parity)] = 1, (-1) ** phase
    return tuple(tuple(Fraction(x * y, 2) for y in vec) for x in vec)


def _fraction_bell():
    from qauthsim.qsim import BellLabel

    return tuple((label, _fraction_bell_projector(*label.value)) for label in BellLabel)


def _fraction_fresh_state():
    """|G> on (C1, A1, B1) times |G> on (C2, A2, B2): amplitude 1/4 on each
    of the 16 strings whose two triples both have odd parity."""
    return {
        bits: Fraction(1, 4)
        for bits in itertools.product((0, 1), repeat=6)
        if sum(bits[:3]) % 2 == 1 and sum(bits[3:]) % 2 == 1
    }


def _fraction_apply(op, qubits, state):
    """Apply matrix ``op`` over ``qubits`` (the first qubit its high bit)."""
    out = {}
    width = len(qubits)
    for bits, amp in state.items():
        col = sum(bits[q] << (width - 1 - i) for i, q in enumerate(qubits))
        for row in range(2**width):
            entry = op[row][col]
            if entry:
                new = list(bits)
                for i, q in enumerate(qubits):
                    new[q] = (row >> (width - 1 - i)) & 1
                new = tuple(new)
                out[new] = out.get(new, 0) + entry * amp
    return {bits: amp for bits, amp in out.items() if amp}


def _fraction_branches(state, walk):
    """Every (outcomes, unnormalised state) of a walk of projective
    measurements, each (qubits, [(outcome, projector)]), that is not zero."""
    if not walk:
        yield (), state
        return
    (qubits, projectors), rest = walk[0], walk[1:]
    for outcome, projector in projectors:
        post = _fraction_apply(projector, qubits, state)
        if post:
            for tail, final in _fraction_branches(post, rest):
                yield (outcome,) + tail, final


def _fraction_early_walks(strategy, c_pair, parties):
    """Each (chance, walk) of what ``strategy`` measures before the key.

    Honest measures nothing.  Under PreMeasure Charlie measures Z on C1 and
    C2 and Bell on (A1, A2) and (B1, B2).  Under InterceptResend Eve
    measures A1, A2, B1 and B2 in ``TRANSIT`` order, each in Z or in X with
    chance 1/2: one walk of chance 1/16 per choice of the four bases, each
    outcome its (basis coin, bit).
    """
    from qauthsim.adversary import StrategyId
    from qauthsim.protocol import TRANSIT

    if strategy is StrategyId.PRE_MEASURE:
        return [(1, c_pair + parties)]
    if strategy is StrategyId.INTERCEPT_RESEND:
        bases = [tuple(((coin, bit), projector) for bit, projector in _FRACTION_DECOY[coin])
                 for coin in (0, 1)]
        return [
            (Fraction(1, 16), [((q,), bases[coin]) for q, coin in zip(TRANSIT, coins)])
            for coins in itertools.product((0, 1), repeat=len(TRANSIT))
        ]
    return [(1, [])]


def round_leaves_in_fractions(strategy, key, direction):
    """Every branch of a decoy-free round under ``strategy`` in exact
    rational arithmetic, as (early outcomes, outcomes, probability),
    sharing no kernel code with qsim.

    The early outcomes are those of :func:`_fraction_early_walks`: () under
    Honest, Charlie's (c1, c2, a, b) under PreMeasure, and Eve's four
    (basis coin, bit) under InterceptResend.  Then the key Pauli acts on A1
    (Alice) or B1 (Bob), and Alice and Bob measure Bell on their pairs and
    Charlie Z on C1 and C2, the outcomes (a, b, c1, c2).
    """
    bell, c_pair = _fraction_bell(), [((0,), _FRACTION_Z), ((3,), _FRACTION_Z)]
    parties = [((1, 4), bell), ((2, 5), bell)]
    target = {"Alice": 1, "Bob": 2}[direction.value]
    for chance, walk in _fraction_early_walks(strategy, c_pair, parties):
        for pre, state in _fraction_branches(_fraction_fresh_state(), walk):
            state = _fraction_apply(_FRACTION_PAULI[str(key)], (target,), state)
            for outcomes, final in _fraction_branches(state, parties + c_pair):
                yield pre, outcomes, chance * sum(amp * amp for amp in final.values())


def exact_round_in_fractions(strategy, key, direction):
    """A decoy-free round's 64-cell transcript map ((c1, c2), a, b) under
    ``strategy`` in exact rational arithmetic, from
    :func:`round_leaves_in_fractions`: under PreMeasure Charlie announces
    his early c.
    """
    from qauthsim.adversary import StrategyId
    from qauthsim.qsim import BellLabel

    cells = {
        ((c1, c2), a, b): Fraction(0)
        for c1 in (0, 1) for c2 in (0, 1) for a in BellLabel for b in BellLabel
    }
    for pre, (a, b, c1, c2), p in round_leaves_in_fractions(strategy, key, direction):
        c = pre[:2] if strategy is StrategyId.PRE_MEASURE else (c1, c2)
        cells[c, a, b] += p
    return cells


# A decoy's eigenstate projectors by basis coin (0 Z, 1 X), each (bit,
# |bit><bit|): a decoy of label 2 * coin + bit is the density matrix of its
# projector, and one-qubit Z and X measurements keep every entry rational.
_FRACTION_DECOY = (_FRACTION_Z, _FRACTION_X)


def _fraction_product(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in (0, 1)) for j in (0, 1)) for i in (0, 1))


def decoy_miss_in_fractions():
    """The chance, in exact arithmetic, that an intercepted decoy's check
    misses P1's bit: each of the four labels with chance 1/4 is measured in
    one of Eve's two bases with chance 1/2 (post-state P rho P / p), then in
    its prepared basis, which misses when it reads the other bit."""
    total = Fraction(0)
    for label in range(4):
        rho = _FRACTION_DECOY[label // 2][label % 2][1]
        for coin in (0, 1):
            for _, eve in _FRACTION_DECOY[coin]:
                # P rho P is the post-state times Eve's outcome probability,
                # so the trace of the miss projector on it is their product.
                post = _fraction_product(_fraction_product(eve, rho), eve)
                miss = _fraction_product(_FRACTION_DECOY[label // 2][1 - label % 2][1], post)
                total += Fraction(miss[0][0] + miss[1][1], 8)
    return total


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


def decoy_text(record):
    """A checked record's decoys as one string, in row order: per decoy its
    owner's initial (Alice's d, then Bob's d), slot, basis (Z or X),
    prepared bit and S1/S2 outcome, comma-separated, as in ``A3Z01``."""
    d = len(record.positions) // 2
    return ",".join(
        f"{'AB'[i >= d]}{pos}{'ZX'[coin]}{bit}{outcome}"
        for i, (pos, coin, bit, outcome) in enumerate(
            zip(record.positions, record.coins, record.prepared, record.measured)
        )
    )


def decoy_error_rate(records):
    """Share of the checked decoys of ``records`` whose S1/S2 outcome
    differs from P1's bit, 0.0 when they hold none."""
    mismatches = total = 0
    for record in records:
        mismatches += sum(m != p for m, p in zip(record.measured, record.prepared))
        total += len(record.prepared)
    return mismatches / total if total else 0.0


class GeneratorStream:
    """A numpy Generator behind the draw methods the phases call on a row
    stream: ``perm`` is ``permutation(n)``, ``coins`` is ``integers(0, 2,
    size=n)`` and ``draws`` is ``random(size=n)``, drawn by numpy itself
    rather than read off raw words as the program does.  Unlike the
    program's stream it draws in any order: a 32-bit draw after a 64-bit
    one takes the half the last 32-bit draw left pending."""

    def __init__(self, rng):
        self.rng = rng

    def perm(self, n):
        return self.rng.permutation(n).tolist()

    def coins(self, n):
        return self.rng.integers(0, 2, size=n).tolist()

    def draws(self, n):
        return self.rng.random(size=n).tolist()


# A decoy is stored as its eigenstate label 2 * basis coin + bit (Z 0, X 1).
DECOY_KETS = ("0", "1", "+", "-")


def row_stream(key):
    """The program's stream for one row on PCG64(key): it draws what
    ``np.random.default_rng(key)`` draws, in a round's order, its 32-bit
    draws (``perm``, ``coins``) before its 64-bit ones (``draws``)."""
    from qauthsim.protocol import _RowStream

    return _RowStream(key)


def fresh_register(decoys=0, seed=0):
    """P1's record of one round with ``decoys`` per sequence, drawn from
    ``row_stream(seed)``; with no decoys P1 draws nothing."""
    from qauthsim.protocol import ProtocolConfig, p1_prepare

    config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
    return p1_prepare(config, row_stream(seed) if decoys else None)


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
    """A run of ``config`` as a plain loop: one round per step, each on one
    1-D state measured by ``qsim.measure_*``, stopping at the first abort.

    Round i draws from ``np.random.default_rng((seed, i))`` through numpy's
    own ``permutation``, ``integers`` and ``random``: it builds P1's record
    with :func:`prepare_one_round`.  So it checks the program's draws, read
    off raw PCG64 words, against numpy's.  It shares none of the
    protocol's waves, round tables or phase functions: under PreMeasure it
    measures C1 and C2 in Z, then (A1, A2) and (B1, B2) in Bell, one draw
    each; under InterceptResend it takes 2d + 4 coins and 2d + 4 draws,
    measures each decoy slot's decoy by ``qsim._pick`` over its label's
    outcome probabilities, and each protocol qubit in Z or X after the
    decoy checks (:func:`check_decoys_one_at_a_time`), and only if they
    pass.  The program walks those protocol qubits in P2, for every row;
    the checks read only decoys, so this deferred order must give the same
    transcript, and comparing the two cross-checks the program's walk.
    Then the key's Pauli acts on A1 or B1, Alice and Bob measure Bell and
    Charlie Z on C1 and C2, one draw each, and the round is verified and
    the key inferred by their label arithmetic.
    """
    from qauthsim import qsim
    from qauthsim.adversary import EveState, StrategyId
    from qauthsim.protocol import (
        _DECOY_PROBS, A1, A2, B1, B2, C1, C2, TRANSIT, Decision, Role, Transcript,
    )
    from qauthsim.qsim import PauliLabel

    fresh = qsim.init_product(["0"] * 6)
    fresh = qsim.prepare_ghz_like(qsim.prepare_ghz_like(fresh, C1, A1, B1), C2, A2, B2)
    d = config.decoys_per_sequence
    transcript = Transcript([], Decision.ACCEPT)
    for i, key in enumerate(keys):
        rng = np.random.default_rng((seed, i))
        record = prepare_one_round(config, rng)
        transcript.rounds.append(record)
        state, transit = fresh, []
        if strategy is StrategyId.PRE_MEASURE:
            (c1,), state = qsim.measure_z(state, C1, [rng.random()])
            (c2,), state = qsim.measure_z(state, C2, [rng.random()])
            (m,), state = qsim.measure_bell(state, A1, A2, [rng.random()])
            (b,), state = qsim.measure_bell(state, B1, B2, [rng.random()])
            record.eve = EveState((c1, c2), m, b)
        elif strategy is StrategyId.INTERCEPT_RESEND:
            coins = rng.integers(0, 2, size=2 * d + 4).tolist()
            draws = rng.random(size=2 * d + 4).tolist()
            slots = record.positions[:d] + [d + 2 + pos for pos in record.positions[d:]]
            for j, slot in enumerate(slots):
                bit = qsim._pick(_DECOY_PROBS[record.labels[j]][coins[slot]], draws[slot])
                record.labels[j] = 2 * coins[slot] + bit
            transit = [(coin, u) for slot, (coin, u) in enumerate(zip(coins, draws))
                       if slot not in slots]
        phase = check_decoys_one_at_a_time(record, config.decoy_error_threshold, rng)
        if phase is not None:
            record.decision, record.aborted_in = Decision.ABORT, phase
            transcript.decision = Decision.ABORT
            return transcript
        for q, (coin, u) in zip(TRANSIT, transit):
            _, state = (qsim.measure_x if coin else qsim.measure_z)(state, q, [u])
        state = qsim.apply_pauli(state, A1 if config.direction is Role.ALICE else B1, key)
        (a,), state = qsim.measure_bell(state, A1, A2, [rng.random()])
        (b,), state = qsim.measure_bell(state, B1, B2, [rng.random()])
        (c1,), state = qsim.measure_z(state, C1, [rng.random()])
        (c2,), state = qsim.measure_z(state, C2, [rng.random()])
        c = (c1, c2)
        if record.eve is not None:
            c = record.eve.c_pre
            announced = a if config.direction is Role.ALICE else b
            early = record.eve.m_pre if config.direction is Role.ALICE else record.eve.b_pre
            record.inferred_key = PauliLabel((announced ^ early).value)
        record.c, record.a, record.b = c, a, b
        guess = PauliLabel.from_bits(a.phase_bit ^ b.phase_bit,
                                     a.parity_bit ^ b.parity_bit ^ c[0] ^ c[1])
        record.decision = Decision.ACCEPT if guess is key else Decision.REJECT
        if record.decision is Decision.REJECT:
            transcript.decision = Decision.REJECT
    return transcript


def gather_transcripts(rows, runs):
    """One Transcript for each of ``runs`` runs from the (run, round,
    record) rows :func:`qauthsim.protocol.run_batch` yields, by
    ``run_protocol``'s rule: a run's decided records in round order, and as
    its decision the last that is not Accept, else Accept.  A record left
    undecided, a row dropped past its run's abort, is in no transcript.
    Checks that each run's decided records come in round order.
    """
    from qauthsim.protocol import Decision, Transcript

    transcripts = [Transcript([], Decision.ACCEPT) for _ in range(runs)]
    for r, i, record in rows:
        if record.decision is not None:
            assert i == len(transcripts[r].rounds), (r, i)
            transcripts[r].rounds.append(record)
            if record.decision is not Decision.ACCEPT:
                transcripts[r].decision = record.decision
    return transcripts


def key_codes(keys):
    """A run's PauliLabel keys as the ``bytes`` of key codes
    :func:`qauthsim.protocol.run_batch` takes: 2 * phase bit + parity bit."""
    return bytes(2 * key.phase_bit + key.parity_bit for key in keys)


def batch_transcripts(config, seeds, keys, strategy):
    """:func:`qauthsim.protocol.run_batch` of one run per seed, ``keys[r]``
    run r's PauliLabel keys, gathered into one Transcript per run, in seed
    order."""
    from qauthsim import protocol

    codes = [key_codes(run_keys) for run_keys in keys]
    return gather_transcripts(protocol.run_batch(config, seeds, codes, strategy), len(seeds))
