"""Brute-force ground truth for the protocol and its attacks.

Entanglement-swapping tables and Pauli-on-Bell maps are recomputed from
amplitudes rather than trusted as label arithmetic; transcript distributions
are obtained by exhaustive branch enumeration.  The enumeration drives the
very same phase functions the sampler uses, P2's strategy dispatch
(:func:`qauthsim.protocol.p2_transmit`) and the parties' measurement walk
included, on a one-row :class:`qauthsim.protocol.Wave`:
:class:`BranchSource` implements the outcome-source interface of
:class:`qauthsim.protocol.SampleSource`, one outcome per row in a list, but
replays scripted choices instead of drawing randomness, and
:func:`enumerate_branches` re-executes a pipeline once per measurement
branch in depth-first order.  A pipeline must be deterministic given its
outcomes, so each replay is handed the outcome lists along the prefix it
shares with the previous one: every outcome list of the tree is computed
exactly once.  It is the package's only enumerator:
:func:`outcome_distribution` (a measurement plan on a bare state) and
:func:`exact_transcript_distribution` (a protocol round's four key maps,
each one's enumerated mass checked at run time) run pipelines on it.  The
round runs in two stages: P2 acts before E1 reads the key, so its branches
are enumerated once per (strategy, direction) and shared by the four keys,
and each P2 leaf starts one E1 + E2 enumeration per key.  A round's P1
record is decoy-free, so nothing draws from it or changes it: each call
prepares it once and every leaf's wave shares it.  No function here takes
an order of the parties' turns: the round is walked in the sampler's
orders, which are fixed in code.  Sampled runs reduce to five integer
tallies, and :mod:`qauthsim.cli` turns each tally pair into rate fields
through :func:`wilson_interval`.
"""

from __future__ import annotations

import itertools
import math

from . import protocol, qsim
from .adversary import StrategyId
from .protocol import ProtocolConfig, Role
from .qsim import Basis, BellLabel, PauliLabel

# Largest |1 - mass| an exact enumeration may leave before it is an error.
MASS_TOL = 1e-12

# The strategies exact mode enumerates; InterceptResend is sampled only.
EXACT_STRATEGIES = (StrategyId.HONEST, StrategyId.PRE_MEASURE)

# The standard normal quantile of 0.975: Wilson intervals are 95% bands.
_WILSON_Z = 1.959963984540054


class BranchSource:
    """Outcome source that follows a scripted branch of the measurement tree.

    It serves a single state, a one-row wave, and returns each outcome as a
    one-entry list, the shape :class:`qauthsim.protocol.SampleSource`
    returns for a wave.  At measurement ``i`` it takes live option
    ``script[i]`` (or the first live option beyond the script's end) from
    the outcome list, accumulating the branch probability.  ``taken``
    records the path and ``lists`` the live outcome list of every depth, so
    ``len(lists[i])`` is the fan-out at depth ``i``: together they are what
    the enumeration needs to advance to the next branch.  Depths
    below ``len(known)`` take their list from ``known`` instead of computing
    it, which is exact when ``known`` holds the lists of a pass whose script
    shares that prefix.  A pipeline that continues a branch of an earlier
    enumeration sets ``probability`` to that branch's before it measures.
    """

    def __init__(self, script):
        self._script = script
        self.known = []
        self.lists = []
        self.taken = []
        self.probability = 1.0

    def _choose(self, outcomes, *args):
        depth = len(self.taken)
        if depth < len(self.known):
            live = self.known[depth]
        else:
            live = [o for o in outcomes(*args) if o[2] is not None]
        index = self._script[depth] if depth < len(self._script) else 0
        outcome, p, post = live[index]
        self.lists.append(live)
        self.taken.append(index)
        self.probability *= p
        return [outcome], post

    def measure_z(self, state, q):
        return self._choose(qsim.z_outcomes, state, q)

    def measure_x(self, state, q):
        return self._choose(qsim.x_outcomes, state, q)

    def measure_bell(self, state, q1, q2):
        return self._choose(qsim.bell_outcomes, state, q1, q2)


def enumerate_branches(pipeline):
    """Yield (result, probability) over every measurement branch of ``pipeline``.

    ``pipeline`` is a callable taking one outcome source; it is re-executed
    once per leaf, in depth-first order, and must be deterministic given
    the outcomes it receives.  Each pass reuses the outcome lists of the
    prefix it shares with the previous pass, so every outcome list is
    computed once.  Probabilities over all yielded branches sum to 1
    (zero-probability branches are never entered).
    """
    script: list = []
    known: list = []
    while True:
        source = BranchSource(script)
        source.known = known
        result = pipeline(source)
        yield result, source.probability
        taken, lists = source.taken, source.lists
        i = len(taken) - 1
        while i >= 0 and taken[i] + 1 >= len(lists[i]):
            i -= 1
        if i < 0:
            return
        script = taken[:i] + [taken[i] + 1]
        known = lists[: i + 1]


def _validate_plan(state: qsim.StateVector, plan) -> None:
    seen = set()
    for qubits, basis in plan:
        want = 2 if basis is Basis.BELL else 1
        if len(qubits) != want:
            raise ValueError(
                f"{basis.value} measurement takes {want} qubit(s), got {qubits}"
            )
        for q in qubits:
            qsim._require_qubit(state, q)
            if q in seen:
                raise ValueError(f"qubit {q} appears twice in the measurement plan")
            seen.add(q)


def outcome_distribution(state: qsim.StateVector, plan) -> dict:
    """Exact joint distribution of an ordered plan of disjoint measurements.

    ``plan`` is a list of (qubit tuple, Basis) entries: Z and X entries name
    one qubit, Bell entries name two.  Returns a dict over the full product
    outcome space (zero-probability cells included), keyed by tuples of
    per-measurement outcomes in plan order.
    """
    _validate_plan(state, plan)

    def pipeline(source):
        current, outcomes = state, []
        for qubits, basis in plan:
            if basis is Basis.BELL:
                (outcome,), current = source.measure_bell(current, *qubits)
            elif basis is Basis.Z:
                (outcome,), current = source.measure_z(current, qubits[0])
            else:
                (outcome,), current = source.measure_x(current, qubits[0])
            outcomes.append(outcome)
        return tuple(outcomes)

    spaces = [tuple(BellLabel) if basis is Basis.BELL else (0, 1) for _, basis in plan]
    dist = {key: 0.0 for key in itertools.product(*spaces)}
    for key, probability in enumerate_branches(pipeline):
        dist[key] += probability
    return dist


def swap_table(m: BellLabel, n: BellLabel) -> dict:
    """Enumerate the swap of Bell pairs M on (A1, B1) and N on (A2, B2)
    from raw amplitudes: the joint distribution, mapping every (P on
    (A1, A2), Q on (B1, B2)) pair to its probability."""
    state = qsim.init_product(["0"] * 4)  # layout A1=0, B1=1, A2=2, B2=3
    state = qsim.apply_cnot(qsim.apply_hadamard(state, 0), 0, 1)
    state = qsim.apply_cnot(qsim.apply_hadamard(state, 2), 2, 3)
    state = qsim.apply_pauli(state, 1, PauliLabel(m.value))
    state = qsim.apply_pauli(state, 3, PauliLabel(n.value))
    return outcome_distribution(state, [((0, 2), Basis.BELL), ((1, 3), Basis.BELL)])


def pauli_bell_map(p: PauliLabel, m: BellLabel) -> BellLabel:
    """Bell label after applying Pauli ``p`` to one qubit of Bell state ``m``.

    Pure label XOR; the test suite holds this against simulator brute force
    for all sixteen pairs.
    """
    return m ^ p


# The 64 cells ((c1, c2), a, b) of a round's public transcript.
_CELLS = tuple(
    ((c1, c2), a, b) for c1 in (0, 1) for c2 in (0, 1) for a in BellLabel for b in BellLabel
)


def exact_transcript_distribution(strategy: StrategyId, direction: Role = Role.ALICE) -> dict:
    """Exact distributions of the public round transcript (c, a, b), one per key.

    Enumerates every branch of a decoy-free round (decoys are independent of
    the protocol qubits and are checked separately).  Returns
    ``{PauliLabel: cells}``, each the full 64-cell map keyed by
    ((c1, c2), a, b).  P2 acts before E1 reads the key, so its branches are
    enumerated once and the four keys share them: from each P2 leaf's state
    and EveStates, each key's E1 and E2 are enumerated with the leaf's
    probability as their starting product, which gives every branch the
    float product, and every cell the order of sums, of one walk through
    the whole round.  The parties are measured in the orders the sampler
    uses, fixed in code.  Raises ValueError when a key's leaf
    probabilities do not sum to 1 within ``MASS_TOL``.
    """
    if strategy not in EXACT_STRATEGIES:
        raise ValueError(
            f"exact enumeration covers Honest and PreMeasure, not {strategy!r}"
        )
    # One decoy-free P1 record per call: nothing draws from it or changes
    # it, so every leaf's wave shares it.  Building its config also checks
    # the direction before anything is enumerated.
    row = protocol.p1_prepare(ProtocolConfig(direction=direction), None)

    def transmit(source):
        wave = protocol.Wave([row])
        eves = protocol.p2_transmit(wave, strategy, source)
        return wave.state, eves

    maps = {key: dict.fromkeys(_CELLS, 0.0) for key in PauliLabel}
    for (state, eves), start in enumerate_branches(transmit):
        for key, cells in maps.items():

            def measure(source):
                source.probability = start  # continue the P2 branch's product
                wave = protocol.Wave([row])
                wave.state = state
                protocol.e1_encode(wave, [key], direction)
                [(a, b, c)] = protocol.e2_measure(wave, source)
                return (c if eves is None else eves[0].c_pre), a, b

            for cell, probability in enumerate_branches(measure):
                cells[cell] += probability
    for cells in maps.values():
        mass = sum(cells.values())
        if abs(1.0 - mass) > MASS_TOL:
            raise ValueError(f"enumerated probability mass is {mass!r}, not 1")
    return maps


def tv_distance(d1: dict, d2: dict) -> float:
    """Total variation distance: half the L1 distance between the maps."""
    if set(d1) != set(d2):
        raise ValueError("distributions live on different outcome spaces")
    return 0.5 * sum(abs(d1[k] - d2[k]) for k in d1)


def wilson_interval(successes: int, trials: int):
    """Wilson score interval for a binomial rate at 95%.

    Stays inside [0, 1] and behaves sensibly at observed rates of exactly
    0 or 1, which this package hits by design.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    return max(0.0, center - half), min(1.0, center + half)
