"""Brute-force ground truth for the protocol and its attacks.

Entanglement-swapping tables and Pauli-on-Bell maps are recomputed from
amplitudes rather than trusted as label arithmetic.  A protocol round's
transcript distributions (:func:`exact_transcript_distribution`) are a
depth-first sum over the very round table the sampler walks
(:func:`qauthsim.protocol._round_table`): P2's levels, then E2's from each
P2 leaf and key, every node's outcome probabilities computed once per
process by the qsim kernels.  No function here takes an order of the
parties' turns: the table holds the round in the sampler's orders, which
are fixed in code.

Only measurement plans on a bare state (:func:`outcome_distribution`, and
so :func:`swap_table`) run on the branch enumerator,
:func:`enumerate_branches`, a depth-first walk that runs a pipeline once
per leaf on a :class:`BranchSource`: an outcome source with ``measure_*``
methods that follows its scripted choices instead of drawing randomness,
one qsim kernel call on one row per measurement.  Both distributions
check their enumerated mass at run time.  Sampled runs reduce to five
integer tallies, and :mod:`qauthsim.cli` turns each tally pair into rate
fields through :func:`wilson_interval`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import protocol, qsim
from .adversary import StrategyId
from .protocol import _BELLS, ProtocolConfig, Role
from .qsim import Basis, BellLabel, PauliLabel

# Largest |1 - mass| an exact enumeration may leave before it is an error.
MASS_TOL = 1e-12

# The strategies exact mode enumerates; InterceptResend is sampled only.
EXACT_STRATEGIES = (StrategyId.HONEST, StrategyId.PRE_MEASURE)

# The standard normal quantile of 0.975: Wilson intervals are 95% bands.
_WILSON_Z = 1.959963984540054


class BranchSource:
    """Outcome source that follows one scripted branch of a one-row state.

    Each ``measure_*`` is one qsim kernel call on the state's one row (a
    state of more rows is a ValueError), and it returns the outcome as a
    one-element list and the post-state in the input's shape.  At its
    measurement ``i`` the source takes live option ``script[i]``, or option
    0 past the script's end, where an option is live above ``ZERO_PROB``;
    a script that names an option its node lacks is a ValueError.  It
    projects with the square root of the chosen probability.  ``taken`` is
    the path and ``fanouts`` the number of live options at each of its
    depths, both lists made here and appended in place as each measurement
    runs, so a list read at ``__init__`` sees every entry.  ``probability``
    is the product of the options' probabilities in path order, and
    ``roots`` is ``[root]``, the root the branch grows from, which
    :func:`enumerate_branches` sets (None on a bare source).
    """

    def __init__(self, script):
        self.script = script
        self.roots = [None]
        self.taken = []
        self.fanouts = []
        self.probability = 1.0

    def _measure(self, kernel, outcomes, state, *qubits):
        n, amps = state.n_qubits, state.amps
        if amps.size != 2**n:
            raise ValueError(f"a branch source measures one row, got {len(amps)} rows")
        probs, project = kernel(amps.reshape(1, -1), n, *qubits)
        row = probs[0].tolist()
        live = [i for i, p in enumerate(row) if p > qsim.ZERO_PROB]
        depth = len(self.taken)
        index = self.script[depth] if depth < len(self.script) else 0
        if not 0 <= index < len(live):
            raise ValueError(
                f"a script names option {index} of a node with {len(live)} live options"
            )
        pick = live[index]
        self.taken.append(index)
        self.fanouts.append(len(live))
        self.probability *= row[pick]
        post = project(np.array([pick]), np.sqrt(probs[:1, pick])[:, None])
        return [outcomes[pick]], qsim.StateVector(n, post.reshape(amps.shape))

    def measure_z(self, state, q):
        qsim._require_qubit(state, q)
        return self._measure(qsim._z_kernel, qsim._BITS, state, q)

    def measure_x(self, state, q):
        qsim._require_qubit(state, q)
        return self._measure(qsim._x_kernel, qsim._BITS, state, q)

    def measure_bell(self, state, q1, q2):
        qsim._require_pair(state, q1, q2)
        return self._measure(qsim._bell_kernel, qsim._BELL_ORDER, state, q1, q2)


def enumerate_branches(pipeline, roots=(None,)):
    """Yield (result, probability) over every measurement branch of ``pipeline``.

    ``pipeline`` is a callable that takes a :class:`BranchSource` and
    returns a list of one result; it must be deterministic given the
    outcomes it receives, and it reads its root from ``source.roots[0]``.
    For each entry of ``roots`` in turn the walk starts from the empty
    script and runs the pipeline once per leaf, yielding each leaf as it
    reaches it.  A source takes option 0 past its script's end, so the next
    script is ``path[:d] + (path[d] + 1,)`` at the deepest depth ``d`` that
    has an unexplored sibling, and a root's walk ends when no depth has
    one.  Every branch is so reached once, in depth-first path order, and a
    path that does not begin with its whole script, the mark of a pipeline
    that is not deterministic, is a ValueError.  Each root's probabilities
    sum to 1 (zero-probability branches are never entered).
    """
    for root in roots:
        script = ()
        while script is not None:
            source = BranchSource(script)
            source.roots[0] = root
            results = pipeline(source)
            if len(results) != 1:
                raise ValueError(f"a pipeline returned {len(results)} results for one branch")
            path = tuple(source.taken)
            if path[:len(script)] != script:
                raise ValueError(
                    f"a source scripted {script} took path {path}: "
                    "the pipeline is not deterministic"
                )
            yield results[0], source.probability
            script = next(
                (path[:d] + (path[d] + 1,)
                 for d in reversed(range(len(path))) if path[d] + 1 < source.fanouts[d]),
                None,
            )


def _check_mass(dist: dict) -> None:
    """Refuse an enumerated distribution whose mass is NaN or off 1 by over ``MASS_TOL``."""
    mass = sum(dist.values())
    if not abs(1.0 - mass) <= MASS_TOL:
        raise ValueError(f"enumerated probability mass is {mass!r}, not 1")


def _validate_plan(state: qsim.StateVector, plan) -> None:
    seen = set()
    for entry in plan:
        if not (isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[0], tuple) and isinstance(entry[1], Basis)):
            raise ValueError(f"a measurement plan entry is a (qubit tuple, Basis), got {entry!r}")
        qubits, basis = entry
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

    ``plan`` is an iterable of (qubit tuple, Basis) entries, read once: Z
    and X entries name one qubit, Bell entries name two.  Returns a dict
    over the full product outcome space (zero-probability cells included),
    keyed by tuples of per-measurement outcomes in plan order.  ``state`` is one state, 1-D
    or a one-row batch.  Raises ValueError for a batch of more rows, and
    when the enumerated mass is not 1 within ``MASS_TOL``.
    """
    if state.amps.size != 2**state.n_qubits:
        raise ValueError(f"an outcome distribution takes one state, got {len(state.amps)} rows")
    state = qsim.StateVector(state.n_qubits, state.amps.reshape(-1))
    plan = tuple(plan)  # validated and then measured, so a one-shot plan is read once
    _validate_plan(state, plan)

    def pipeline(source):
        current, row = state, ()
        for qubits, basis in plan:
            measure = {Basis.Z: source.measure_z, Basis.X: source.measure_x,
                       Basis.BELL: source.measure_bell}[basis]
            [outcome], current = measure(current, *qubits)
            row += (outcome,)
        return [row]

    spaces = [tuple(BellLabel) if basis is Basis.BELL else (0, 1) for _, basis in plan]
    dist = {key: 0.0 for key in itertools.product(*spaces)}
    for key, probability in enumerate_branches(pipeline):
        dist[key] += probability
    _check_mass(dist)
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


# The 64 cells ((c1, c2), a, b) of a round's public transcript, each at 0.0:
# a key's map starts as a copy, which keeps the cells' hashes.
_CELLS = dict.fromkeys(
    (((c1, c2), a, b) for c1 in (0, 1) for c2 in (0, 1) for a in BellLabel for b in BellLabel),
    0.0,
)


def _paths(levels, node: int, probability: float, outcomes=()):
    """Yield (outcomes, leaf, probability) for every live path down the
    round table's ``levels`` from ``node``, depth first: outcomes in rising
    order at each level, each probability ``probability`` times the node
    probabilities along the path, multiplied in walk order."""
    if not levels:
        yield outcomes, node, probability
        return
    (probs, children), rest = levels[0], levels[1:]
    for i, (p, child) in enumerate(zip(probs[node].tolist(), children[node].tolist())):
        if child >= 0:
            yield from _paths(rest, child, probability * p, outcomes + (i,))


def exact_transcript_distribution(strategy: StrategyId, direction: Role = Role.ALICE) -> dict:
    """Exact distributions of the public round transcript (c, a, b), one per key.

    Sums every branch of a decoy-free round (decoys are independent of the
    protocol qubits and are checked separately) over the round table of
    ``strategy`` and ``direction`` that the sampler walks.  Returns
    ``{PauliLabel: cells}``, each the full 64-cell map keyed by
    ((c1, c2), a, b): E2's own outcomes, which under PreMeasure are
    Charlie's early c.  A key's leaves are its P2 paths in depth-first
    order, each followed by the E2 paths of its leaf and key: a leaf's
    probability is the float product along the path, P2's then E2's, and
    each cell sums its leaves in that order.  Raises ValueError when a
    key's leaf probabilities do not sum to 1 within ``MASS_TOL``.
    """
    if strategy not in EXACT_STRATEGIES:
        raise ValueError(
            f"exact enumeration covers Honest and PreMeasure, not {strategy!r}"
        )
    ProtocolConfig(direction=direction)  # checks the direction before anything is built
    table = protocol._round_table(strategy, direction)
    roots = table.e2_roots(range(len(table.leaves)))
    maps = {}
    for code, key in enumerate(PauliLabel):
        cells = maps[key] = _CELLS.copy()
        for _, leaf, p in _paths(table.p2, 0, 1.0):
            for (a, b, c1, c2), _, q in _paths(table.e2, roots[leaf] + code, p):
                cells[(c1, c2), _BELLS[a], _BELLS[b]] += q
        _check_mass(cells)
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
