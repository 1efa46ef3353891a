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
so :func:`swap_table`) run on the pass enumerator,
:func:`enumerate_branches`.  It runs a pipeline in passes:
:class:`BranchSource` is an outcome source with ``measure_*`` methods that
returns one outcome per row in a list and follows each row's scripted
choices instead of drawing randomness.  A pass hands the pipeline a source
with one row per script, so each of its measurements is one kernel call
over every row, and its selection a few array steps over the kernel's
(rows, outcomes) probabilities.  The next pass scripts each unexplored
sibling of the rows' paths with every tail below it that the row's own
fanouts predict, so a tree whose sibling subtrees branch alike takes two
passes.  A pipeline takes that source and returns one result per row; a
1-D state it hands the source stands for every row.  Both distributions
check their enumerated mass at run time.  Sampled runs reduce to five
integer tallies, and :mod:`qauthsim.cli` turns each tally pair into rate
fields through :func:`wilson_interval`.
"""

from __future__ import annotations

import itertools
import math
import operator

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
    """Outcome source that follows one scripted branch per row.

    ``scripts`` holds one script per row.  Each measurement is one
    ``qsim.measure_*`` call over every row (a 1-D state is first repeated
    into one row per script), and it returns the rows' outcomes as a list.
    At its measurement ``i``, row ``r`` takes live option ``scripts[r][i]``
    (or the first live option beyond its script's end) and multiplies
    ``probability[r]`` by its probability.  A script may name an option its
    row does not have: the row then takes its first live option and
    ``branch[r]`` is False, for the row is no branch of the tree.
    ``taken[r]`` is the row's path and ``fanouts[r]`` the number of live
    options at each of its depths, both tuples: together they are what the
    enumeration needs to find the row's unexplored siblings.  ``roots[r]``
    is the root the row's branch grows from, which
    :func:`enumerate_branches` sets (None on a bare source).

    A measurement selects in array steps over the kernel's (rows, outcomes)
    probabilities, with the scripts held as one zero-padded array.  The four
    per-row lists are filled in place once per pass, by :meth:`finish`, so
    a list read at ``__init__`` sees them.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        rows, width = len(scripts), max(map(len, scripts), default=0)
        columns = list(itertools.zip_longest(*scripts, fillvalue=0))  # one per depth
        self._scripts = np.array(columns, dtype=np.intp).reshape(width, rows).T
        self._indexes, self._counts = [], []
        self._probability, self._branch = np.ones(rows), np.ones(rows, dtype=bool)
        self.roots = [None] * rows
        self.taken = [()] * rows
        self.fanouts = [()] * rows
        self.probability = [1.0] * rows
        self.branch = [True] * rows

    def _select(self, probs: np.ndarray) -> np.ndarray:
        """Each row's scripted live outcome, given the rows' (rows, outcomes)
        probabilities."""
        depth = len(self._indexes)  # every row is measured alike
        ranks = (probs > qsim.ZERO_PROB).cumsum(axis=1)  # a live option's rank, from 1
        counts = ranks[:, -1]
        padded = depth < self._scripts.shape[1]
        index = self._scripts[:, depth] if padded else np.zeros_like(counts)
        over = index >= counts  # a script named an option its row does not have
        if over.any():
            self._branch &= ~over
            index = np.where(over, 0, index)
        picks = (ranks > index[:, None]).argmax(axis=1)
        self._indexes.append(index)
        self._counts.append(counts)
        self._probability = self._probability * probs[np.arange(len(probs)), picks]
        return picks

    def finish(self) -> None:
        """Fill ``taken``, ``fanouts``, ``probability`` and ``branch`` with
        each row's path, live counts, probability and flag, in place."""
        for paths, columns in ((self.taken, self._indexes), (self.fanouts, self._counts)):
            if columns:
                paths[:] = zip(*map(np.ndarray.tolist, columns))
        self.probability[:] = self._probability.tolist()
        self.branch[:] = self._branch.tolist()

    def _measure(self, measure, state, *qubits):
        if state.amps.ndim == 1:  # a 1-D state stands for every row
            state = qsim.StateVector(state.n_qubits, state.amps[None].repeat(len(self.scripts), 0))
        return measure(state, *qubits, self._select)

    def measure_z(self, state, q):
        return self._measure(qsim.measure_z, state, q)

    def measure_x(self, state, q):
        return self._measure(qsim.measure_x, state, q)

    def measure_bell(self, state, q1, q2):
        return self._measure(qsim.measure_bell, state, q1, q2)


def enumerate_branches(pipeline, roots=(None,)):
    """Yield (result, probability) over every measurement branch of ``pipeline``.

    ``pipeline`` is a callable that takes a :class:`BranchSource` with one
    row per script and returns one result per row; it must measure every
    row alike and be deterministic given the outcomes each row receives.
    It runs once per pass.  The first pass has one row per entry of
    ``roots``, each with an empty script; a pipeline reads each row's root
    from ``source.roots``.  Past the last nonzero option of its script, a
    row stands for its path's prefixes: at each such depth, every live
    option no earlier script covered is one the next pass takes, each
    followed by every tail the row's own fanouts below that depth predict.
    A row whose script names an option the tree lacks is no branch and is
    dropped; one that finds more options than its script was predicted
    from leaves them to the next pass.  The passes end when one finds no
    option left, so a tree whose sibling subtrees branch alike takes two.
    The leaves are then yielded root by root, each root's in depth-first
    path order; a leaf reached twice is a ValueError.  Each root's
    probabilities sum to 1 (zero-probability branches are never entered).
    """
    leaves = []
    # (root index, script, the fanouts the script was predicted from) per row
    rows = [(r, (), ()) for r in range(len(roots))]
    while rows:
        source = BranchSource([script for _, script, _ in rows])
        source.roots = [roots[r] for r, _, _ in rows]
        results = pipeline(source)
        source.finish()
        if len(results) != len(rows):
            raise ValueError(f"a pipeline returned {len(results)} results for {len(rows)} rows")
        scripts = []
        for (r, script, predicted), path, fanouts, branch, result, p in zip(
            rows, source.taken, source.fanouts, source.branch, results, source.probability
        ):
            if not branch:
                continue
            leaves.append(((r, path), result, p))
            if fanouts == predicted:  # its prediction missed no option
                continue
            start = len(script)  # the row stands for its prefix past its last nonzero option
            while start and not script[start - 1]:
                start -= 1
            for depth in range(start, len(path)):
                # Options before ``first`` are scripted: predicted, or the one the row took.
                first = predicted[depth] if depth < len(predicted) else 1
                scripts += [
                    (r, path[:depth] + (k,) + tail, fanouts)
                    for k in range(first, fanouts[depth])
                    for tail in itertools.product(*map(range, fanouts[depth + 1:]))
                ]
        rows = scripts
    leaves.sort(key=lambda leaf: leaf[0])
    keys = [key for key, _, _ in leaves]
    if any(map(operator.eq, keys, keys[1:])):
        raise ValueError("an enumeration reached a branch twice")
    for _, result, p in leaves:
        yield result, p


def _check_mass(dist: dict) -> None:
    """Refuse an enumerated distribution whose mass is NaN or off 1 by over ``MASS_TOL``."""
    mass = sum(dist.values())
    if not abs(1.0 - mass) <= MASS_TOL:
        raise ValueError(f"enumerated probability mass is {mass!r}, not 1")


def _validate_plan(state: qsim.StateVector, plan) -> None:
    seen = set()
    for qubits, basis in plan:
        if not isinstance(basis, Basis):
            raise ValueError(f"a measurement plan's basis must be a Basis, got {basis!r}")
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
    per-measurement outcomes in plan order.  Raises ValueError when the
    enumerated mass is not 1 within ``MASS_TOL``.
    """
    _validate_plan(state, plan)

    def pipeline(source):
        current, rows = state, [()] * len(source.roots)
        for qubits, basis in plan:
            measure = {Basis.Z: source.measure_z, Basis.X: source.measure_x,
                       Basis.BELL: source.measure_bell}[basis]
            outcomes, current = measure(current, *qubits)
            rows = [row + (outcome,) for row, outcome in zip(rows, outcomes)]
        return rows

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
