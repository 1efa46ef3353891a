"""Three-party authentication protocol as an explicit phase state machine.

Charlie (the center) prepares two three-qubit entangled states per round and
sends one qubit pair each to Alice and Bob, with decoy qubits mixed into the
transmitted sequences (P1, P2).  After the decoy checks (S1, S2) the chosen
party encodes the round key as a Pauli on her first qubit (E1), everyone
measures (E2), and the announcements are verified against the shared key
(E3).  The center's strategy acts in P2, before anything is sent:
:func:`p2_transmit` is the only code that turns a StrategyId into an attack,
and the PreMeasure attack measures the parties with the same walk as E2.

The quantum payload of a round lives in a :class:`RoundRegister`: one joint
state over the six protocol qubits plus one label per decoy.  Decoys are
never entangled with anything, and P1 prepares each in a Z or X eigenstate.
The only thing that ever touches a decoy is a Z or X measurement (the S1/S2
checks, or an intercepting adversary), which leaves an eigenstate again, so
a decoy is fully described by its eigenstate label (0 for |0>, 1 for |1>, 2
for |+>, 3 for |->).  The outcome probabilities of measuring each label in Z
or X are tabulated once, at import, by the qsim kernels themselves, and a
decoy measurement is that table's row picked with the kernels' selection
rule.  Alice's decoys take indices ``[0, d)`` of the decoy tables and Bob's
``[d, 2d)``, each in rising sequence position, where d is
``decoys_per_sequence``.  Each decoy check takes its uniform draws in one
batch per sequence, which yields the same stream as one draw per decoy.

All measurement outcomes flow through an outcome source object
(:class:`SampleSource` here; the oracle module swaps in a scripted source to
enumerate branches through this same code, P2 and the party walk included).

Sampled runs execute in waves (:func:`run_batch`): round i of every run of
a batch that has not aborted is one :class:`Wave`, whose six-qubit states
are the rows of one amplitude array, so each measurement of the round is
one kernel call for the whole wave.  Each row draws from its own generator,
seeded by (run seed, i), in the order its run alone would draw, so a run's
transcript does not depend on the batch it is in; :func:`run_protocol` is
the batch of one.  P1 and the S1/S2 decoy checks stay per row, since they
touch only that row's decoys and stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qsim
from .qsim import Basis, BellLabel, PauliLabel, StateVector


class Role(Enum):
    CHARLIE = "Charlie"
    ALICE = "Alice"
    BOB = "Bob"


class PhaseId(Enum):
    P1 = "P1"
    P2 = "P2"
    S1 = "S1"
    S2 = "S2"
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


class Decision(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    ABORT = "Abort"


# Layout of the joint register: round qubits in preparation order.
C1, A1, B1, C2, A2, B2 = 0, 1, 2, 3, 4, 5
PROTOCOL_QUBITS = 6


# A decoy is stored as its eigenstate label 2 * basis coin + bit, with basis
# coin 0 for Z and 1 for X: label 0 is |0>, 1 is |1>, 2 is |+> and 3 is |->.
_DECOY_KETS = ("0", "1", "+", "-")
_BASIS_OF_COIN = (Basis.Z, Basis.X)

# _DECOY_PROBS[label][coin]: the outcome probabilities of measuring decoy
# ``label`` in basis ``coin``, computed once by the qsim kernels themselves.
_DECOY_PROBS = tuple(
    tuple(
        tuple(p for _, p, _ in outcomes(qsim.init_product([ket]), 0))
        for outcomes in (qsim.z_outcomes, qsim.x_outcomes)
    )
    for ket in _DECOY_KETS
)


def _is_number(value, kinds) -> bool:
    # bool subclasses int, but True is neither a count nor a rate.
    return isinstance(value, kinds) and not isinstance(value, bool)


class FieldError(ValueError):
    """A configuration field holds a bad value; ``key`` names the field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _check_seed(seed) -> None:
    """Require a run seed to be a 64-bit unsigned integer."""
    if not _is_number(seed, int) or not 0 <= seed < 2**64:
        raise FieldError("seed", f"seed must be a 64-bit unsigned integer, got {seed!r}")


@dataclass
class ProtocolConfig:
    rounds: int = 1
    decoys_per_sequence: int = 0
    decoy_error_threshold: float = 0.0
    direction: Role = Role.ALICE
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_number(self.rounds, int) or self.rounds < 1:
            raise FieldError(
                "rounds", f"rounds must be a positive integer, got {self.rounds!r}"
            )
        if not _is_number(self.decoys_per_sequence, int) or self.decoys_per_sequence < 0:
            raise FieldError(
                "decoys_per_sequence",
                f"decoys_per_sequence must be a non-negative integer, "
                f"got {self.decoys_per_sequence!r}"
            )
        threshold = self.decoy_error_threshold
        if not _is_number(threshold, (int, float)) or not 0.0 <= threshold <= 1.0:
            raise FieldError(
                "decoy_error_threshold",
                f"decoy_error_threshold must lie in [0, 1], "
                f"got {self.decoy_error_threshold!r}"
            )
        if self.direction not in (Role.ALICE, Role.BOB):
            shown = getattr(self.direction, "value", self.direction)
            raise FieldError("direction", f"direction must be Alice or Bob, got {shown!r}")
        _check_seed(self.seed)


@dataclass
class DecoyRecord:
    owner: Role
    position: int
    basis: Basis
    prepared: int
    measured: "int | None" = None


@dataclass
class RoundRegister:
    """Quantum payload of one round.

    ``state`` covers the six protocol qubits (layout C1, A1, B1, C2, A2, B2);
    ``decoy_states[i]`` is the eigenstate label (0 |0>, 1 |1>, 2 |+>, 3 |->)
    of the decoy described by ``decoy_meta[i]``.  The transmitted sequences
    list their slots in order as ("q", protocol qubit index) or ("d", decoy
    index).
    """

    state: StateVector
    decoy_states: list
    decoy_meta: list
    alice_seq: list
    bob_seq: list


@dataclass
class RoundRecord:
    """Public announcements and outcome of a single round."""

    c: "tuple[int, int] | None"
    a: "BellLabel | None"
    b: "BellLabel | None"
    decoy_error_rate: float
    decoys: list
    decision: Decision
    aborted_in: "PhaseId | None" = None


@dataclass
class Transcript:
    rounds: list
    decision: Decision
    decoy_error_rate: float


@dataclass
class Wave:
    """Round ``i`` of every live run of a batch, one row per run.

    ``state`` stacks the rows' six-qubit states into one (B, 64) array (a
    1-D array when B is 1), so each measurement of the round is one kernel
    call for the whole wave.
    ``rows[r]`` is row r's RoundRegister from P1: its decoys and sequences,
    which only that row's own checks touch.  The wave's ``state`` replaces
    the registers' own, which stay the fresh state P1 gave them.

    ``in_transit`` lists the measurements an adversary made on protocol
    qubits in transit, one (qubit, per-row basis coins, per-row draws) per
    qubit in the order made.  :func:`run_batch` applies them after S1/S2 to
    the rows that passed: the checks read only decoys and an aborted row's
    state is never read, so every outcome is the one applying them in P2
    would give.
    """

    state: StateVector
    rows: list
    in_transit: list


class SampleSource:
    """Measurement outcome source for a wave: one numpy Generator per row.

    Each measurement takes one uniform draw from every row's generator and
    returns the rows' outcomes as a list, so each row's stream is drawn in
    the same order as if its run were alone.  The oracle module provides a
    scripted single-state source with the same three methods, so the phase
    functions below never know whether they are being sampled or enumerated.
    """

    def __init__(self, rngs: list):
        self.rngs = rngs

    def _draws(self) -> list:
        return [rng.random() for rng in self.rngs]

    def measure_z(self, state: StateVector, q: int):
        return qsim.measure_z(state, q, self._draws())

    def measure_x(self, state: StateVector, q: int):
        return qsim.measure_x(state, q, self._draws())

    def measure_bell(self, state: StateVector, q1: int, q2: int):
        return qsim.measure_bell(state, q1, q2, self._draws())


# |G> x |G> over the six protocol qubits, read-only and shared by every
# register: no phase writes amplitudes in place, each returns a new state.
_FRESH_STATE = qsim.init_product(["0"] * PROTOCOL_QUBITS)
_FRESH_STATE = qsim.prepare_ghz_like(_FRESH_STATE, C1, A1, B1)
_FRESH_STATE = qsim.prepare_ghz_like(_FRESH_STATE, C2, A2, B2)
_FRESH_STATE.amps.setflags(write=False)


def p1_prepare(config: ProtocolConfig, rng: "np.random.Generator | None") -> RoundRegister:
    """Prepare the round's entangled registers and both decoy-laced sequences.

    Draw order from ``rng`` is fixed (Alice's slot permutation, then her d
    basis coins and d bit coins; then the same for Bob) so identical streams
    give identical registers.  The first d slots of the permutation carry
    decoys.  Alice's decoys take indices ``[0, d)`` of the decoy tables and
    Bob's ``[d, 2d)``, each in rising sequence position; each decoy's state
    is its label 2 * basis coin + bit coin.  ``rng`` may be None when
    ``decoys_per_sequence`` is 0.
    """
    decoy_states: list = []
    decoy_meta: list = []
    sequences = []
    d = config.decoys_per_sequence
    for owner, qubits in ((Role.ALICE, (A1, A2)), (Role.BOB, (B1, B2))):
        if not d:
            sequences.append([("q", q) for q in qubits])
            continue
        slots = rng.permutation(d + 2).tolist()
        coins = rng.integers(0, 2, size=2 * d).tolist()  # d basis coins, then d bit coins
        seq: list = [None] * (d + 2)
        for pos, q in zip(sorted(slots[d:]), qubits):
            seq[pos] = ("q", q)
        first = len(decoy_meta)
        for j, pos in enumerate(sorted(slots[:d])):
            basis_coin, bit = coins[j], coins[d + j]
            seq[pos] = ("d", first + j)
            decoy_states.append(2 * basis_coin + bit)
            decoy_meta.append(DecoyRecord(owner, pos, _BASIS_OF_COIN[basis_coin], bit))
        sequences.append(seq)
    return RoundRegister(_FRESH_STATE, decoy_states, decoy_meta, *sequences)


def p2_transmit(register, strategy, source, rng, order=("c", "a", "b")):
    """Let the center's strategy act on the register, then hand the
    sequences to their receivers over an ideal channel.

    This is the one place where a StrategyId becomes an attack.  It runs
    once per round, before anything leaves Charlie's lab, with the whole
    register in reach.  ``register`` is a RoundRegister or a Wave.
    PreMeasure measures the six protocol qubits through ``source`` with the
    parties in ``order`` and returns its EveState (on a wave, one whose
    fields hold the rows' outcomes in row order); InterceptResend, on a
    wave only, measures every transmitted qubit with draws from ``rng``,
    one generator per row, its protocol-qubit measurements waiting in the
    wave's ``in_transit``; Honest does nothing.  Returns None unless the
    strategy records an EveState; an unknown strategy raises before the
    register is touched.
    """
    if strategy is adversary.StrategyId.PRE_MEASURE:
        return adversary.hook_premeasure(register, source, order)
    if strategy is adversary.StrategyId.INTERCEPT_RESEND:
        adversary.hook_intercept_resend(register, rng)
    elif strategy is not adversary.StrategyId.HONEST:
        raise ValueError(f"unknown strategy {strategy!r}")
    return None


def _measure_decoy(register: RoundRegister, idx: int, coin: int, randomness: float) -> int:
    """Measure decoy ``idx`` in basis ``coin`` (0 Z, 1 X) with one uniform draw.

    Picks the outcome from the decoy's probability table with qsim's
    selection rule, stores the collapsed eigenstate's label in the register
    and returns the bit.
    """
    bit = qsim._pick(_DECOY_PROBS[register.decoy_states[idx]][coin], randomness)
    register.decoy_states[idx] = 2 * coin + bit
    return bit


def _measure_in_bases(state: StateVector, q: int, coins: list, draws: list) -> StateVector:
    """Measure qubit ``q`` of every row in the row's own basis (coin 0 Z,
    1 X) with the row's draw; the rows sharing a basis are measured
    together.  Returns the post-measurement state."""
    if coins.count(coins[0]) == len(coins):
        measure = qsim.measure_x if coins[0] else qsim.measure_z
        return measure(state, q, draws)[1]
    amps = np.empty_like(state.amps)
    for coin, measure in enumerate((qsim.measure_z, qsim.measure_x)):
        rows = [j for j, c in enumerate(coins) if c == coin]
        part = StateVector(state.n_qubits, state.amps[rows])
        _, post = measure(part, q, [draws[j] for j in rows])
        amps[rows] = post.amps
    return StateVector(state.n_qubits, amps)


def s_check(
    register: RoundRegister,
    announced,
    threshold: float,
    rng: "np.random.Generator | None",
) -> tuple:
    """Measure the announced decoys in their announced bases and compare.

    ``announced`` lists indices into the register's decoy tables; all are
    validated before anything is measured.  The uniform draws come in one
    batch of ``len(announced)`` from ``rng``, the same stream as one draw per
    decoy in announcement order; an empty announcement draws nothing.
    Returns (number of mismatched decoys, pass flag: the mismatch rate over
    the announced decoys is at most ``threshold``).
    """
    metas = register.decoy_meta
    if len(register.decoy_states) != len(metas):
        raise ValueError("decoy metadata incomplete")
    for idx in announced:
        if not 0 <= idx < len(metas):
            raise ValueError(f"decoy index {idx} has no metadata")
    k = len(announced)
    draws = rng.random(size=k).tolist() if k else []
    mismatches = 0
    for idx, randomness in zip(announced, draws):
        meta = metas[idx]
        meta.measured = _measure_decoy(register, idx, int(meta.basis is Basis.X), randomness)
        mismatches += meta.measured != meta.prepared
    return mismatches, (mismatches / k if k else 0.0) <= threshold


def e1_encode(register, key, direction: Role):
    """Apply the round key's Pauli to the authenticating party's first qubit.

    ``register`` is a RoundRegister with one PauliLabel ``key``, or a Wave
    with a list of one key per row.
    """
    if direction is Role.ALICE:
        q = A1
    elif direction is Role.BOB:
        q = B1
    else:
        raise ValueError("direction must be Alice or Bob")
    register.state = qsim.apply_pauli(register.state, q, key)
    return register


def _check_order(order) -> None:
    """Require ``order`` to be a permutation of the parties "a", "b", "c"."""
    if sorted(order) != ["a", "b", "c"]:
        raise ValueError(f"order must be a permutation of 'a', 'b', 'c', got {order!r}")


def _measure_parties(register, source, order) -> tuple:
    """Measure each party's protocol qubits, the parties taking turns in ``order``.

    Party "a" is a Bell measurement on (A1, A2), "b" one on (B1, B2), and
    "c" Z on C1 then C2.  ``order`` is checked to permute the three before
    anything is measured.  Returns (a, b, (c1, c2)); on a Wave each of a,
    b, c1 and c2 is the list of the rows' outcomes.
    """
    _check_order(order)
    results = {}
    for party in order:
        if party == "a":
            results["a"], register.state = source.measure_bell(register.state, A1, A2)
        elif party == "b":
            results["b"], register.state = source.measure_bell(register.state, B1, B2)
        else:
            c1, register.state = source.measure_z(register.state, C1)
            c2, register.state = source.measure_z(register.state, C2)
            results["c"] = (c1, c2)
    return results["a"], results["b"], results["c"]


def e2_measure(register: RoundRegister, source, order=("a", "b", "c")):
    """Measure the round: Alice Bell on (A1, A2), Bob Bell on (B1, B2),
    Charlie Z on C1 then C2; returns (a, b, (c1, c2)).

    ``order`` permutes the three parties' turns; the measurements act on
    disjoint qubits, so the joint outcome distribution cannot depend on it.
    The walk is the one the PreMeasure attack makes in P2.
    """
    return _measure_parties(register, source, order)


def e3_verify(a: BellLabel, b: BellLabel, c, key: PauliLabel) -> Decision:
    """Check the announcements against the shared round key.

    The two entangled triples correlate the announcements so that, honestly,
    a XOR b equals (0, c1 XOR c2) XOR key; the verifier inverts that.
    """
    if a is None or b is None or c is None:
        raise ValueError("verification needs all three announcements")
    guess = PauliLabel.from_bits(
        a.phase_bit ^ b.phase_bit, a.parity_bit ^ b.parity_bit ^ c[0] ^ c[1]
    )
    return Decision.ACCEPT if guess is key else Decision.REJECT


def _wave_state(rows) -> StateVector:
    """The wave state of these rows' amplitudes.  A single row stays 1-D:
    the kernels take it without a batch axis and skip the broadcasting a
    (1, 64) array would cost."""
    return StateVector(PROTOCOL_QUBITS, rows[0] if len(rows) == 1 else np.asarray(rows))


def _rows(a, b, c) -> list:
    """Per-row (a, b, (c1, c2)) triples of a wave's outcome lists."""
    return list(zip(a, b, zip(*c)))


def run_batch(config: ProtocolConfig, seeds, keys, strategy) -> list:
    """Execute one run of ``config`` per seed, in waves.

    ``seeds[r]`` and ``keys[r]`` (one PauliLabel per round) belong to run
    r; ``config.seed`` is not read.  Round i of every run still alive forms
    one Wave, so each measurement of the round is one kernel call for all of
    them, and a run that aborts leaves the waves after its abort.  Row r
    draws from its own stream seeded by (seeds[r], i), in the order its run
    alone would, so a run's result does not depend on the batch it is in.
    Returns one (transcript, decision, adversary report) per run, in seed
    order; a run's decision is Accept only if every decoy check passed and
    every round verified.
    """
    if len(keys) != len(seeds):
        raise ValueError(f"got {len(keys)} key lists for {len(seeds)} seeds")
    for seed in seeds:
        _check_seed(seed)
    for run_keys in keys:
        if len(run_keys) != config.rounds:
            raise ValueError(f"got {len(run_keys)} keys for {config.rounds} rounds")
        for k in run_keys:
            if not isinstance(k, PauliLabel):
                raise ValueError(f"keys must be PauliLabel values, got {k!r}")

    if not seeds:
        return []
    d = config.decoys_per_sequence
    alice_idx, bob_idx = range(d), range(d, 2 * d)  # the layout p1_prepare fixes
    runs = [(Transcript([], Decision.ACCEPT, 0.0), adversary.AdversaryReport(strategy, [], []))
            for _ in seeds]
    mismatched = [0] * len(seeds)
    live = list(range(len(seeds)))

    for i in range(config.rounds):
        rngs = [np.random.default_rng((seeds[r], i)) for r in live]
        rows = [p1_prepare(config, rng) for rng in rngs]
        wave = Wave(_wave_state([row.state.amps for row in rows]), rows, [])
        eve = p2_transmit(wave, strategy, SampleSource(rngs), rngs)
        if eve is None:
            eves = [None] * len(rows)
        else:
            early = _rows(eve.m_pre, eve.b_pre, eve.c_pre)
            eves = [adversary.EveState(c, a, b) for a, b, c in early]

        kept, rates = [], []
        for j, r in enumerate(live):
            row, rng = rows[j], rngs[j]
            errors_a, ok_a = s_check(row, alice_idx, config.decoy_error_threshold, rng)
            errors_b, ok_b = s_check(row, bob_idx, config.decoy_error_threshold, rng)
            mismatched[r] += errors_a + errors_b
            rate = (errors_a + errors_b) / (2 * d) if d else 0.0
            transcript, report = runs[r]
            report.eve_states.append(eves[j])
            if ok_a and ok_b:
                kept.append(j)
                rates.append(rate)
                continue
            phase = PhaseId.S1 if not ok_a else PhaseId.S2
            transcript.rounds.append(
                RoundRecord(None, None, None, rate, row.decoy_meta, Decision.ABORT, phase)
            )
            transcript.decision = Decision.ABORT
            report.inferred_keys.append(None)
        if not kept:
            break
        if len(kept) < len(rows):  # so a batched state: one row has nothing to drop
            wave.state = _wave_state(wave.state.amps[kept])
            wave.in_transit = [
                (q, [coins[j] for j in kept], [draws[j] for j in kept])
                for q, coins, draws in wave.in_transit
            ]
            rngs = [rngs[j] for j in kept]
        live = [live[j] for j in kept]
        for q, coins, draws in wave.in_transit:
            wave.state = _measure_in_bases(wave.state, q, coins, draws)

        round_keys = [keys[r][i] for r in live]
        e1_encode(wave, round_keys, config.direction)
        outcomes = _rows(*e2_measure(wave, SampleSource(rngs)))
        for r, j, key, rate, (a, b, c) in zip(live, kept, round_keys, rates, outcomes):
            eve, key_guess = eves[j], None
            if eve is not None:
                c = adversary.forge_c(eve)
                announced = a if config.direction is Role.ALICE else b
                key_guess = adversary.infer_key(eve, announced, config.direction)
            decision = e3_verify(a, b, c, key)
            transcript, report = runs[r]
            transcript.rounds.append(RoundRecord(c, a, b, rate, rows[j].decoy_meta, decision))
            if decision is Decision.REJECT:
                transcript.decision = Decision.REJECT
            report.inferred_keys.append(key_guess)

    for (transcript, _), errors in zip(runs, mismatched):
        checked = 2 * d * len(transcript.rounds)
        transcript.decoy_error_rate = errors / checked if checked else 0.0
    return [(transcript, transcript.decision, report) for transcript, report in runs]


def run_protocol(config: ProtocolConfig, keys, strategy):
    """Execute a full run: P1 through E3 for each round.

    ``keys`` holds one PauliLabel per round.  Returns (transcript, decision,
    adversary report).  This is :func:`run_batch` with one row, so round
    ``i`` uses the rng stream seeded by (config.seed, i), and identical
    inputs give identical transcripts.
    """
    return run_batch(config, [config.seed], [keys], strategy)[0]


# The adversary module imports its protocol names from this one, so it is
# imported last, once every name it needs exists.  P2 and run_protocol reach
# it through this module global at call time.
from . import adversary
