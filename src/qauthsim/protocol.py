"""Three-party authentication protocol as an explicit phase state machine.

Charlie (the center) prepares two three-qubit entangled states per round and
sends one qubit pair each to Alice and Bob, with decoy qubits mixed into the
transmitted sequences (P1, P2).  After the decoy checks (S1, S2) the chosen
party encodes the round key as a Pauli on her first qubit (E1), everyone
measures (E2), and the announcements are verified against the shared key
(E3).  The center's strategy acts in P2, before anything is sent:
:func:`p2_transmit` is the only code that turns a StrategyId into an attack,
and the PreMeasure attack measures the parties as E2 does.  Both walks fix
their order of turns in code: Charlie, Alice, Bob in the attack, and
Alice, Bob, Charlie in E2.

Every state a round's measurements see lies in a small fixed tree per
strategy and direction, so a round is tabulated once per process as one
:class:`_RoundTable` (:func:`_round_table`): the strategy's P2 levels from
the fresh state (:func:`_p2_tree`), then E2's levels from each P2 leaf with
each key's Pauli applied (E1), each level's outcome probabilities and
live children built by the qsim kernels (:func:`_levels`).  The sampler
walks it (:func:`_walk`), each outcome picked by ``qsim._pick`` with the
draw the kernels' measurement would have taken, and the oracle sums it.

Every phase from P2 on takes one round type, a :class:`Wave`: one or more
rows, each one round of one run.  It holds the rows' records, streams and
node indices into the table, no amplitudes.  Sampled runs execute in
waves of up to ``WAVE_SIZE`` rows (:func:`run_batch`): the next rounds of
every run of a batch that has not aborted, as many per run as the
config's :func:`abort_probability` says it will reach.  Round i of a run
draws only from its own stream, ``PCG64((run seed, i))``, in the order its
run alone would draw, so a run's transcript does not depend on the batch
or wave it is in; :func:`run_protocol` is the batch of one.  P1 and the
S1/S2 decoy checks stay per row, since they touch only that row's decoys
and stream.  Per-row inputs (the key codes, the draws, the
``Wave.in_transit`` entries) are lists in row order, read only for the
rows that stay.

A round has one record, the :class:`RoundRecord` that P1 creates and the
later phases fill in; :func:`run_batch` yields that same object.  It keeps the
round's decoys as flat lists in row order, Alice's d then Bob's d: each
one's slot in its owner's sequence, basis coin, prepared bit, current
eigenstate label and, once checked, its S1/S2 outcome.  The protocol
qubits fill the slots no decoy holds, and their joint state is a node of
the round table.  Decoys are never entangled with anything, and P1 prepares
each in a Z or X eigenstate.  The only thing that ever touches a decoy is
a Z or X measurement (the S1/S2 checks, or an intercepting adversary),
which leaves an eigenstate again, so a label (0 for |0>, 1 for |1>, 2 for
|+>, 3 for |->) is its whole state.  The outcome probabilities of
measuring each label in Z or X are tabulated once, at import, by the qsim
kernels themselves, and so is the draw at which qsim's selection rule
turns from outcome 0 to outcome 1: a decoy measurement compares one draw
with one table entry.  A row's two checks take their draws in one batch,
the stream of one draw per decoy.  A record is read through its own
fields alone: a decoy's mismatch is ``measured[i] != prepared[i]``.  The
protocol qubits an intercept measures in transit, always on the fresh
state, are its P2 levels of the round table.

Every draw is read off raw 64-bit PCG64 words, as the values numpy's
Generator would draw from the same words (``random``, ``integers``,
``permutation``).  A round's come from a :class:`_RowStream`, which
takes them in one order, the 32-bit draws and then the 64-bit draws, and
refuses any other.  :func:`_row_streams` reads one block of words per
row, sized for the config by :func:`_draw_plan`, and converts the whole
wave's blocks at once.  The first row seeds its ``PCG64(key)`` through
numpy; the other rows' starts come in one pass of :func:`_seed_states`, a
restatement of numpy's SeedSequence that tier-1 checks against numpy, and
each is set on that same PCG64 in turn.  A sampled report's run seeds and
keys come from :func:`_master_chunks`, a run's keys as one byte of key
code a round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qsim
from .qsim import BellLabel, PauliLabel, StateVector


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
TRANSIT = (A1, A2, B1, B2)  # the protocol qubits in transit, in sequence order


# A decoy is stored as its eigenstate label 2 * basis coin + bit, with basis
# coin 0 for Z and 1 for X: label 0 is |0>, 1 is |1>, 2 is |+> and 3 is |->.
_DECOY_KETS = ("0", "1", "+", "-")

# _DECOY_PROBS[label][coin]: the outcome probabilities of measuring decoy
# ``label`` in basis ``coin``, computed once by the Z and X kernels behind
# qsim.measure_z and qsim.measure_x.
_DECOY_PROBS = tuple(
    tuple(kernel(qsim.init_product([ket]).amps, 1, 0)[0]
          for kernel in (qsim._z_kernel, qsim._x_kernel))
    for ket in _DECOY_KETS
)


# _DECOY_CUT[label][coin]: measuring decoy ``label`` in basis ``coin`` with
# draw u gives the bit int(u >= cut), the outcome qsim._pick selects.
_DECOY_CUT = tuple(tuple(map(qsim._cut, row)) for row in _DECOY_PROBS)


@functools.lru_cache
def abort_probability(strategy, d: int, threshold: float) -> float:
    """The chance that one round under ``strategy`` aborts in S1/S2, with
    d decoys per sequence checked against ``threshold``.

    0 unless an intercept disturbs the decoys.  Under InterceptResend one
    decoy is enumerated through ``_DECOY_PROBS`` (its prepared label, Eve's
    basis coin and outcome, the check in the prepared basis) for q, the
    chance its check misses P1's bit (1/4).  A sequence with m of its d
    checks missing fails :func:`s_check`'s test ``m / d <= threshold``
    with binomial(d, q) probability; a round aborts unless both pass.
    """
    if strategy is not adversary.StrategyId.INTERCEPT_RESEND or not d:
        return 0.0
    q = sum(
        _DECOY_PROBS[label][coin][bit] * _DECOY_PROBS[2 * coin + bit][label // 2][1 - label % 2]
        for label in range(4)
        for coin in (0, 1)
        for bit in (0, 1)
    ) / 8  # each label with chance 1/4, each of Eve's coins with chance 1/2
    # Each binomial term in logs, since comb(d, m) overflows a float from d ~ 1030.
    log_q, log_r = math.log(q), math.log1p(-q)
    fail = sum(
        math.exp(math.lgamma(d + 1) - math.lgamma(m + 1) - math.lgamma(d - m + 1)
                 + m * log_q + (d - m) * log_r)
        for m in range(d + 1)
        if not m / d <= threshold
    )
    return 1.0 - (1.0 - fail) ** 2


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
        if not _is_number(self.rounds, int) or not 1 <= self.rounds < 2**64:
            raise FieldError(
                "rounds", f"rounds must be a positive integer below 2**64, got {self.rounds!r}"
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
class RoundRecord:
    """The one record of a round, from P1 on.

    P1 creates it with the round's decoys as flat lists in row order,
    Alice's d then Bob's d, each sequence's in rising slot: ``positions``
    are their slots in the owner's sequence of d + 2, the owner's two
    protocol qubits filling the other two in order; ``coins`` their basis
    coins (0 Z, 1 X); ``prepared`` P1's bits; ``labels`` their current
    eigenstate labels, which each measurement replaces; and ``measured``
    the S1/S2 outcomes, None until :func:`s_check` runs.

    The later phases fill in the rest: the public announcements ``c``,
    ``a`` and ``b`` (None after an abort), the ``decision`` (None until the
    round is decided, so for good on a row dropped past its run's abort)
    and the phase it ``aborted_in``.  ``eve`` is the round's EveState under
    PreMeasure, aborted rounds included, and None otherwise;
    ``inferred_key`` is the key the center read off the announcement, None
    where the round aborted or ``eve`` is None.
    """

    positions: list
    coins: list
    prepared: list
    labels: list
    measured: "list | None" = None
    c: "tuple[int, int] | None" = None
    a: "BellLabel | None" = None
    b: "BellLabel | None" = None
    decision: "Decision | None" = None
    aborted_in: "PhaseId | None" = None
    eve: "adversary.EveState | None" = None
    inferred_key: "PauliLabel | None" = None


@dataclass
class Transcript:
    """A run's result (:func:`run_protocol`): its decided records in order, and its decision."""

    rounds: list
    decision: Decision


# |G> x |G> over the six protocol qubits, the state P1 leaves every row
# in: read-only, the one root of every round table.
_FRESH_STATE = qsim.init_product(["0"] * PROTOCOL_QUBITS)
_FRESH_STATE = qsim.prepare_ghz_like(_FRESH_STATE, C1, A1, B1)
_FRESH_STATE = qsim.prepare_ghz_like(_FRESH_STATE, C2, A2, B2)
_FRESH_STATE.amps.setflags(write=False)


# Rows per wave in run_batch, and runs per chunk of _master_chunks.
WAVE_SIZE = 128

# A round key is stored as its code 2 * phase bit + parity bit, its index
# here; a Bell outcome's index is its label's in _BELLS, the kernels' order.
_KEYS = tuple(PauliLabel)
_BELLS = tuple(BellLabel)

# The walks of a round, each a tuple of levels (kernels, qubits).  A level
# of two kernels is an intercept's: a two-way level, whose basis coin (0 Z,
# 1 X) picks the kernel that measures a node.
_Z, _X, _BELL = qsim._z_kernel, qsim._x_kernel, qsim._bell_kernel
_PREMEASURE_PLAN = (((_Z,), (C1,)), ((_Z,), (C2,)), ((_BELL,), (A1, A2)), ((_BELL,), (B1, B2)))
_TRANSIT_PLAN = tuple(((_Z, _X), (q,)) for q in TRANSIT)
_E2_PLAN = (((_BELL,), (A1, A2)), ((_BELL,), (B1, B2)), ((_Z,), (C1,)), ((_Z,), (C2,)))


def _level(probs: np.ndarray) -> tuple:
    """(probs, children) of one tree level, both read-only.

    Row ``C * n + c`` of ``probs`` holds the chances of the outcomes of
    node n measured by the level's kernel c, of C.  ``children`` has the
    same shape: the node of the next level each outcome leads to, the live
    entries (above ``qsim.ZERO_PROB``) numbered in C order, or -1 for a
    dead one.
    """
    live = probs > qsim.ZERO_PROB
    children = np.full(probs.shape, -1, dtype=np.int32)
    children[live] = np.arange(np.count_nonzero(live))
    probs.setflags(write=False)
    children.setflags(write=False)
    return probs, children


def _levels(amps: np.ndarray, plan, leaves: bool = True) -> tuple:
    """(levels, leaves): ``plan`` applied level by level to the root
    states, the rows of ``amps``.

    Each level is one kernel call per kernel over all of its nodes, which
    also checks every node's mass, and ``levels[k]`` is its
    :func:`_level`.  A live outcome's post-state is the kernel's
    projection, the next level's node; ``leaves`` holds the last level's,
    one row per child, unless ``leaves`` is False (then None).
    """
    levels = []
    for k, (kernels, qubits) in enumerate(plan):
        measured = [kernel(amps, PROTOCOL_QUBITS, *qubits) for kernel in kernels]
        probs = np.stack([p for p, _ in measured], 1)  # (nodes, kernels, outcomes)
        levels.append(_level(probs.reshape(-1, probs.shape[2])))
        if k + 1 == len(plan) and not leaves:
            return tuple(levels), None
        children = levels[-1][1].reshape(probs.shape)
        post = np.empty((np.count_nonzero(children >= 0), amps.shape[1]))
        for c, (p, project) in enumerate(measured):
            for i, live in enumerate((children[:, c] >= 0).T):
                # A dead outcome's root is floored here and its row not kept.
                root = np.sqrt(np.maximum(p[:, i:i + 1], qsim.ZERO_PROB))
                post[children[live, c, i]] = project(i, root)[live]
        amps = post
    return tuple(levels), amps


@functools.cache
def _p2_tree(strategy) -> tuple:
    """(levels, leaves) of the walk ``strategy`` makes in P2, from the fresh
    state, which nothing touches before it: PreMeasure measures the six
    protocol qubits, Charlie's pair first, then Alice's and Bob's; an
    intercept measures ``TRANSIT`` in the bases its coins pick.  Honest
    walks no level, and its one leaf is the fresh state.
    """
    plan = {
        adversary.StrategyId.PRE_MEASURE: _PREMEASURE_PLAN,
        adversary.StrategyId.INTERCEPT_RESEND: _TRANSIT_PLAN,
    }.get(strategy, ())
    return _levels(_FRESH_STATE.amps[None], plan)


# P2 leaves whose E2 trees one _levels call builds: its states then peak at
# about a quarter megabyte under InterceptResend, whose first wave may reach
# dozens of leaves, and a report's peak memory stays near the parent's.
_LEAVES_PER_BUILD = 4


class _RoundTable:
    """The round of one strategy and direction as one tree: P2's levels
    (:func:`_p2_tree`), then E2's.  The sampler walks it and the oracle
    sums it.

    E1 enters as E2's roots: P2 leaf L with key code k applied to the
    authenticating party's first qubit is root ``roots[L] + k`` of ``e2``,
    the levels of E2's measurements (Alice's pair, Bob's pair, then C1 and
    C2) over every root built so far.  A leaf's four roots and their trees
    are built the first time a walk reaches it (:meth:`e2_roots`) and
    appended to ``e2``; no post-state below the P2 leaves is kept.
    """

    def __init__(self, strategy, direction: Role):
        if direction not in (Role.ALICE, Role.BOB):
            raise ValueError("direction must be Alice or Bob")
        self.qubit = A1 if direction is Role.ALICE else B1
        self.p2, self.leaves = _p2_tree(strategy)
        self.roots = np.full(len(self.leaves), -1, dtype=np.intp)
        self.e2 = ()

    def e2_roots(self, leaves) -> list:
        """Each P2 leaf's first E2 root (key code 0), building the trees of
        the leaves no walk reached before."""
        first = self.roots[leaves].tolist()
        if -1 in first:
            new = sorted({leaf for leaf, root in zip(leaves, first) if root < 0})
            self.roots[new] = (len(self.e2[0][0]) if self.e2 else 0) + 4 * np.arange(len(new))
            # Each level's probabilities: the table's so far, then each build's.
            stacks = [[probs] for probs, _ in self.e2] or [[] for _ in _E2_PLAN]
            for start in range(0, len(new), _LEAVES_PER_BUILD):
                chunk = new[start:start + _LEAVES_PER_BUILD]
                keyed = qsim.apply_pauli(StateVector(PROTOCOL_QUBITS, self.leaves[np.repeat(chunk, 4)]),
                                         self.qubit, list(_KEYS) * len(chunk))
                for stack, (probs, _) in zip(stacks, _levels(keyed.amps, _E2_PLAN, leaves=False)[0]):
                    stack.append(probs)
            self.e2 = tuple(_level(np.concatenate(stack)) for stack in stacks)
            first = self.roots[leaves].tolist()
        return first


@functools.cache
def _round_table(strategy, direction: Role) -> _RoundTable:
    """The one :class:`_RoundTable` of ``strategy`` and ``direction`` per process."""
    return _RoundTable(strategy, direction)


def _walk(levels, nodes: list, draws, coins=None) -> tuple:
    """Walk each row from its node in ``nodes`` down ``levels``.

    At level k, row r takes the outcome its draw ``draws[r][k]`` picks by
    ``qsim._pick`` from its node's probabilities in basis ``coins[r][k]``
    of a two-way level (the level's one kernel without ``coins``).  A walk
    that reaches a dead child raises ValueError.  Returns the nodes reached
    below the last level, and each level's outcomes, as lists in row order.
    """
    outcomes, columns = [], list(zip(*draws))
    for k, (probs, children) in enumerate(levels):
        rows = nodes if coins is None else [2 * node + row[k] for node, row in zip(nodes, coins)]
        picks = list(map(qsim._pick, probs.take(rows, 0).tolist(), columns[k]))
        nodes = list(map(children.item, rows, picks))
        if -1 in nodes:
            raise ValueError("a walk reached an outcome of probability at most ZERO_PROB")
        outcomes.append(picks)
    return nodes, outcomes


class Wave:
    """One or more rows, each one round of one run.  It holds no
    amplitudes: a row's state is a node of its round's table.

    ``rows[r]`` is row r's RoundRecord from P1 and ``streams[r]`` its
    :class:`_RowStream`; a row's decoy lists are touched only by its own
    checks and an intercepting adversary.  ``leaves[r]`` is the P2 leaf of
    :func:`_p2_tree` the row's state is once its strategy's walk has run:
    the fresh state, 0, until then, and PreMeasure walks in P2.

    ``in_transit`` holds an intercept's measurements of protocol qubits in
    transit (none if empty), one (basis coins, draws) pair of lists per row
    in ``TRANSIT`` order: a sequence's protocol qubits fill its free slots
    in order, so every row meets them in that order.  :func:`run_batch`
    walks them after S1/S2 for the rows it keeps: the checks read only
    decoys and an aborted or dropped row's state is never read, so every
    outcome is the one walking them in P2 would give.
    """

    def __init__(self, rows: list, streams: list):
        self.rows, self.streams = rows, streams
        self.leaves = [0] * len(rows)
        self.in_transit: list = []


def _halves_of(words) -> list:
    """The 32-bit halves of 64-bit ``words``, low half first (a row each for a 2-D block)."""
    return np.asarray(words, "<u8").view("<u4").tolist()


def _draws_of(words) -> list:
    """Each word's random() draw: its top 53 bits over 2**53."""
    return ((np.asarray(words) >> 11) * 2.0**-53).tolist()


@functools.lru_cache
def _shuffle_steps(n: int) -> tuple:
    """Fisher-Yates over n slots: i from n - 1 down to 1, each with the least all-ones mask >= i."""
    return tuple((i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1))


class _RowStream:
    """One row's draws, read off the raw 64-bit words of ``PCG64(key)``
    as numpy's Generator reads them: ``draws`` gives random(), (w >> 11) *
    2**-53 of the next word; ``coins`` integers(0, 2), the top bit of the
    next 32-bit half; ``perm`` permutation(n), swapping each Fisher-Yates
    i with the first half whose masked value is at most i.  A round's
    32-bit draws come first and its 64-bit draws from the word after the
    last half, the order :func:`_draw_plan` sizes a block for; any other
    raises ValueError.

    ``_halves`` holds the halves of the first words of ``_words`` and
    ``_draws`` the draws of its words from ``_w0`` on; a draw past either
    converts more.  ``_words`` starts as the block :func:`_row_streams`
    read; a read past it seeds ``PCG64(key)`` again and jumps it past the
    words held, so each word is read once however often a row refills.
    """

    __slots__ = ("key", "_words", "_halves", "_h", "_draws", "_w0", "_u")

    def __init__(self, key, words=(), halves=(), draws=(), w0=0):
        self.key, self._words, self._w0 = key, np.asarray(words, np.uint64), w0
        self._halves, self._draws = list(halves), list(draws)
        self._h = 0  # the next half; an odd one is a word's high half
        self._u = None  # the next 64-bit draw's word, None before the first

    def _raw(self, lo: int, hi: int):
        if hi > len(self._words):
            held = len(self._words)
            more = np.random.PCG64(self.key).advance(held).random_raw(hi - held)
            self._words = np.concatenate((self._words, more))
        return self._words[lo:hi]

    def _need_halves(self, end: int) -> None:
        short, w = end - len(self._halves), len(self._halves) // 2
        if short > 0:
            self._halves += _halves_of(self._raw(w, w + max((short + 1) // 2, 32)))

    def perm(self, n: int) -> list:
        if self._u is not None:
            raise ValueError("a 32-bit draw after a 64-bit one")
        slots = list(range(n))
        halves, k = self._halves, self._h
        end = len(halves)
        for i, mask in _shuffle_steps(n):
            j = n
            while j > i:
                if k == end:
                    self._need_halves(k + 1)  # extends ``halves`` in place
                    end = len(halves)
                j = halves[k] & mask
                k += 1
            slots[i], slots[j] = slots[j], slots[i]
        self._h = k
        return slots

    def coins(self, n: int) -> list:
        if self._u is not None:
            raise ValueError("a 32-bit draw after a 64-bit one")
        k = self._h
        self._need_halves(k + n)
        self._h = k + n
        return [half >> 31 for half in self._halves[k:k + n]]

    def draws(self, n: int) -> list:
        w = (self._h + 1) // 2 if self._u is None else self._u
        i, end = w - self._w0, self._w0 + len(self._draws)
        if i < 0:
            raise ValueError(f"a draw at word {w}, before the block's first draw {self._w0}")
        if w + n > end:
            self._draws += _draws_of(self._raw(end, max(w + n, end + 32)))
        self._u = w + n
        return self._draws[i:i + n]


@functools.lru_cache
def _draw_plan(strategy, d: int) -> tuple:
    """What :func:`_row_streams` reads of a round's stream up front under
    ``strategy`` with d decoys per sequence: (words converted to halves,
    first word converted to a draw, words read).

    A round's 32-bit draws all come first: P1's two permutations of d + 2
    slots and 4d coins (none at d = 0), then an intercept's 2d + 4 coins.
    Permutation step i takes 2**i.bit_length() / (i + 1) halves on
    average; the expected number plus 8 are converted.  The draws start at
    the word after the last half, so not before ``least`` halves, and
    number an intercept's 2d + 4, a pre-measurement's 4, S1/S2's 2d and
    E2's 4.  :class:`_RowStream` checks this order as it draws: a 32-bit
    draw after a 64-bit one, or a draw before the first word converted to
    draws, raises ValueError.
    """
    intercept = 2 * d + 4 if strategy is adversary.StrategyId.INTERCEPT_RESEND else 0
    steps = range(1, d + 2) if d else range(0)
    least = 2 * len(steps) + 4 * d + intercept
    expected = 2 * sum(2 ** i.bit_length() / (i + 1) for i in steps) + 4 * d + intercept
    halves_words = math.ceil(expected / 2) + (4 if d else 0)
    draws = intercept + (4 if strategy is adversary.StrategyId.PRE_MEASURE else 0) + 2 * d + 4
    return halves_words, (least + 1) // 2, halves_words + draws


def _hash_steps(init: int, mult: int, n: int) -> tuple:
    """The (xor, multiplier) constants of n SeedSequence hash steps: step k
    xors init * mult**k and multiplies by init * mult**(k + 1), mod 2**32."""
    consts = [init * mult**k & 0xFFFFFFFF for k in range(n + 1)]
    return tuple(zip(consts, consts[1:]))


# numpy's SeedSequence constants, in call order: 4 pool words then 12
# mixes, and 8 state words; its mix multipliers, the right one as 2**32
# minus it so that a lane never borrows; PCG64's LCG multiplier.
_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 2**32 - 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_states(keys: list) -> list:
    """The starting (state, inc) of ``PCG64(key)`` for each (run seed,
    round) in ``keys``, all keys hashed at once.

    This restates numpy's SeedSequence and PCG64 seeding.  A key's entropy
    is its seed's 32-bit words, low first, then its round's.  A seed is
    below 2**64 (:func:`_check_seed`) and so is a round
    (:class:`ProtocolConfig` refuses rounds >= 2**64), so that is at most
    4 words, and the pool of 4 pads with zeros.  The hash runs on Python
    ints that hold one 64-bit lane per key: each 32 x 32-bit product stays
    in its lane, and a mask clears what a >> 16 brings in from the next.
    The 8 state words give each key's (initstate, initseq), which go
    through PCG64's two seeding LCG steps.  tests/test_draws.py checks
    every lane against numpy's own seeding.
    """
    if not keys:
        return []
    n = len(keys)
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")
    m32, m16 = 0xFFFFFFFF * ones, 0xFFFF * ones

    def hashmix(lanes: int, step: tuple) -> int:
        lanes = (lanes ^ step[0] * ones) * step[1] & m32
        return lanes ^ (lanes >> 16 & m16)

    # A key's entropy words as one int, its seed's then its round's.
    entropy = b"".join((s | i << (64 if s >> 32 else 32)).to_bytes(16, "little") for s, i in keys)
    words = np.frombuffer(entropy, "<u4").reshape(n, 4).T.astype("<u8")
    steps = iter(_POOL_STEPS)
    pool = [hashmix(int.from_bytes(w.tobytes(), "little"), next(steps)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_L * pool[dst] & m32) + _MIX_R * hashmix(pool[src], next(steps)) & m32
                pool[dst] = mixed ^ (mixed >> 16 & m16)
    state = [hashmix(pool[k % 4], step) for k, step in enumerate(_STATE_STEPS)]
    state64 = b"".join((lo | hi << 32).to_bytes(8 * n, "little")
                       for lo, hi in zip(state[::2], state[1::2]))
    mask, starts = 2**128 - 1, []
    for s_hi, s_lo, q_hi, q_lo in np.frombuffer(state64, "<u8").reshape(4, n).T.tolist():
        inc = (q_hi << 65 | q_lo << 1 | 1) & mask
        starts.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & mask, inc))
    return starts


def _row_streams(keys: list, plan: tuple) -> list:
    """One :class:`_RowStream` per (run seed, round) in ``keys`` on
    ``PCG64(key)``, each with the block of words ``plan`` reads, the whole
    wave's blocks converted at once.

    The first row's ``PCG64(key)`` is seeded through numpy and reads its
    block; every later row's start comes from :func:`_seed_states`, set on
    that same PCG64 before it reads the row's block.
    """
    halves_words, w0, words = plan
    reader = np.random.PCG64(keys[0])
    rows = [reader.random_raw(words)]
    for state, inc in _seed_states(keys[1:]):
        reader.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        rows.append(reader.random_raw(words))
    block = np.array(rows)
    halves, draws = _halves_of(block[:, :halves_words]), _draws_of(block[:, w0:])
    return [_RowStream(*row, w0) for row in zip(keys, block, halves, draws)]


def _master_chunks(seed: int, rounds: int, runs: int):
    """The run seeds and round keys of ``runs`` runs from the master stream
    ``PCG64(seed)``, as (seeds, keys) chunks of at most WAVE_SIZE runs; a
    run's keys are one ``bytes`` of key codes, one byte a round.

    They are the values numpy's Generator draws as integers(0, 2**63), then
    integers(0, 4, size=rounds), per run: a seed is a word w as w >> 1 and
    a key the top two bits of a 32-bit half, a word's low half first, and a
    half one run's keys leave pending is the next run's first.  Each chunk
    reads the words it may need and drops those it used.
    """
    master = np.random.PCG64(seed)
    raw, pending = master.random_raw(0), b""
    for start in range(0, runs, WAVE_SIZE):
        seeds, keys = [], []  # the last chunk's are not held while this one is read
        chunk = min(WAVE_SIZE, runs - start)
        most = chunk * (1 + (rounds + 1) // 2)  # the words these runs read at most
        raw = np.concatenate((raw, master.random_raw(max(0, most - len(raw)))))
        tops, w = (np.asarray(raw, "<u8").view("<u4") >> 30).astype(np.uint8), 0
        for _ in range(chunk):
            seeds.append(int(raw[w]) >> 1)
            fresh, h = rounds - len(pending), 2 * w + 2
            keys.append(pending + tops[h:h + fresh].tobytes())
            w += 1 + (fresh + 1) // 2
            pending = tops[2 * w - 1:2 * w].tobytes() if fresh % 2 else b""
        raw = raw[w:]
        del tops  # not held while the caller runs this chunk
        yield seeds, keys


def p1_prepare(config: ProtocolConfig, stream: "_RowStream | None") -> RoundRecord:
    """Create a round's record with its decoys prepared; the entangled
    triples every row starts from are the wave's fresh state.

    Draw order from ``stream`` is fixed (Alice's slot permutation, then her
    d basis coins and d bit coins; then the same for Bob) so identical
    streams give identical records.  The first d slots of a permutation
    carry decoys, whose basis and bit coins go to them in rising slot
    order; each decoy's label is 2 * basis coin + bit coin.  ``stream`` may
    be None when ``decoys_per_sequence`` is 0, since P1 then draws nothing.
    """
    d = config.decoys_per_sequence
    positions, coins, bits = [], [], []
    for _ in range(2 if d else 0):  # Alice's sequence, then Bob's
        positions += sorted(stream.perm(d + 2)[:d])
        drawn = stream.coins(2 * d)  # d basis coins, then d bit coins
        coins += drawn[:d]
        bits += drawn[d:]
    return RoundRecord(positions, coins, bits, [2 * c + b for c, b in zip(coins, bits)])


def p2_transmit(wave: Wave, strategy):
    """Let the center's strategy act on the wave, then hand the sequences
    to their receivers over an ideal channel.

    This is the one place where a StrategyId becomes an attack.  It runs
    once per wave, so each round meets it once, before anything leaves
    Charlie's lab.  PreMeasure walks the six protocol qubits' measurements
    to each row's P2 leaf with draws from the row's stream and returns one
    EveState per row; InterceptResend measures every transmitted qubit with
    coins and draws from the row streams, its protocol-qubit measurements
    waiting in the wave's ``in_transit``; Honest does nothing.  Returns
    None unless the strategy records EveStates; an unknown strategy raises
    before the wave is touched.
    """
    if strategy is adversary.StrategyId.PRE_MEASURE:
        return adversary.hook_premeasure(wave)
    if strategy is adversary.StrategyId.INTERCEPT_RESEND:
        adversary.hook_intercept_resend(wave)
    elif strategy is not adversary.StrategyId.HONEST:
        raise ValueError(f"unknown strategy {strategy!r}")
    return None


def _measure_decoys(row: RoundRecord, coins: list, draws: list) -> list:
    """Measure each of the row's decoys in its basis in ``coins`` (0 Z, 1 X)
    with its draw in ``draws``, both in row order.

    A decoy's bit is int(draw >= ``_DECOY_CUT[label][coin]``), the outcome
    qsim's selection rule picks from its label's probabilities, and it
    collapses to label 2 * coin + bit.  Returns the bits.
    """
    bits = [1 if u >= _DECOY_CUT[label][coin] else 0
            for label, coin, u in zip(row.labels, coins, draws)]
    row.labels = [2 * coin + bit for coin, bit in zip(coins, bits)]
    return bits


def s_check(row: RoundRecord, draws: list, threshold: float) -> "PhaseId | None":
    """S1 then S2: measure each of the row's decoys in its prepared basis
    and compare the outcome with P1's bit.

    ``draws`` holds one uniform draw per decoy, in row order, and is
    checked to fit before anything is measured.  Sets the row's
    ``measured`` bits and collapsed labels.  Returns the phase of the
    first sequence whose mismatch rate over its d decoys is above
    ``threshold``, or None when both pass (always when d is 0).
    """
    n = len(row.labels)
    if len(draws) != n:
        raise ValueError(f"got {len(draws)} draws for {n} decoys")
    row.measured = _measure_decoys(row, row.coins, draws)
    d = n // 2
    wrong = [m != p for m, p in zip(row.measured, row.prepared)]
    for phase, owned in ((PhaseId.S1, wrong[:d]), (PhaseId.S2, wrong[d:])):
        if d and not sum(owned) / d <= threshold:
            return phase
    return None


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


def run_batch(config: ProtocolConfig, seeds, keys, strategy):
    """Execute one run of ``config`` per seed, in waves of (run, round) rows.

    ``seeds[r]`` and ``keys[r]`` (a ``bytes`` of one key code per round,
    the index of its PauliLabel in ``_KEYS``) belong to run r;
    ``config.seed`` is not read.  A wave holds at most ``WAVE_SIZE`` rows:
    each live run (the first ``WAVE_SIZE`` of them) adds its next k rounds,
    run after run, rounds rising.  k is max(1, ``WAVE_SIZE`` // live runs),
    capped at the expected run length: int(1 / p), at least 1, for the
    round's :func:`abort_probability` p, or ``config.rounds`` when p is 0.
    So a batch that cannot abort fills whole waves from the start, and a
    run is seldom given rounds past its abort.  Round i of run r draws from
    its own stream seeded by (seeds[r], i), in the order its run alone
    would, so a run's rows do not depend on the batch or wave it is in.
    A run ends at its first abort, and its later rows in that wave are
    dropped before E1, their records left undecided.  Each kept row walks
    the round table of ``strategy`` and the direction
    (:func:`_round_table`) from its P2 leaf and key with E2's four draws,
    so no wave calls a measurement kernel.  As each wave ends, this
    generator yields (run, round, record) for every row the wave prepared,
    in row order, and it keeps no record past that wave.  An unknown
    ``strategy`` raises ValueError before any round is prepared.
    """
    if not isinstance(strategy, adversary.StrategyId):
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(keys) != len(seeds):
        raise ValueError(f"got {len(keys)} key lists for {len(seeds)} seeds")
    for seed in seeds:
        _check_seed(seed)
    for run_keys in keys:
        if not isinstance(run_keys, bytes):
            raise ValueError(f"a run's keys must be bytes of key codes, got {run_keys!r}")
        if len(run_keys) != config.rounds:
            raise ValueError(f"got {len(run_keys)} keys for {config.rounds} rounds")
        if max(run_keys) >= len(_KEYS):
            raise ValueError(f"key codes must lie below {len(_KEYS)}, got {max(run_keys)}")

    following, ended = [0] * len(seeds), set()  # each run's next round; the runs that aborted
    live = list(range(len(seeds)))  # runs with rounds left and no abort
    d, threshold = config.decoys_per_sequence, config.decoy_error_threshold
    p = abort_probability(strategy, d, threshold)
    cap = max(1, int(1 / p)) if p else config.rounds
    plan = _draw_plan(strategy, d)
    table = _round_table(strategy, config.direction)

    while live:
        k = min(max(1, WAVE_SIZE // len(live)), cap)
        pairs = [  # (run, round) per row
            (r, i)
            for r in live[:WAVE_SIZE]
            for i in range(following[r], config.rounds)[:k]
        ]
        streams = _row_streams([(seeds[r], i) for r, i in pairs], plan)
        rows = [p1_prepare(config, stream) for stream in streams]
        wave = Wave(rows, streams)
        for row, eve in zip(rows, p2_transmit(wave, strategy) or ()):
            row.eve = eve

        kept = []
        for j, ((r, _), row, stream) in enumerate(zip(pairs, rows, streams)):
            if r in ended:
                continue  # a later round of a run that aborted in this wave
            phase = s_check(row, stream.draws(2 * d), threshold)
            if phase is None:
                kept.append(j)
                continue
            row.decision, row.aborted_in = Decision.ABORT, phase
            ended.add(r)

        if kept:
            if wave.in_transit:  # each kept row's P2 leaf is its in-transit walk's
                coins, draws = zip(*(wave.in_transit[j] for j in kept))
                leaves, _ = _walk(table.p2, [0] * len(kept), draws, coins)
            else:
                leaves = [wave.leaves[j] for j in kept]
            codes = [keys[r][i] for r, i in (pairs[j] for j in kept)]
            # e2_roots builds any tree a leaf lacks, so it runs before table.e2 is read.
            roots = [root + code for root, code in zip(table.e2_roots(leaves), codes)]
            _, (alice, bob, c1, c2) = _walk(table.e2, roots, [streams[j].draws(4) for j in kept])
            for j, code, a, b, c in zip(kept, codes, alice, bob, zip(c1, c2)):
                row = rows[j]
                row.c, row.a, row.b = c, _BELLS[a], _BELLS[b]
                if row.eve is not None:
                    announced = row.a if config.direction is Role.ALICE else row.b
                    row.inferred_key = adversary.infer_key(row.eve, announced, config.direction)
                row.decision = e3_verify(row.a, row.b, c, _KEYS[code])

        for (r, i), row in zip(pairs, rows):
            following[r] += row.decision is not None  # None for a row dropped past its run's abort
            yield r, i, row
        del rows, wave, streams  # not held while the next wave is prepared
        live = [r for r in live if following[r] < config.rounds and r not in ended]


def run_protocol(config: ProtocolConfig, keys, strategy) -> Transcript:
    """Execute a full run: P1 through E3 for each round.

    ``keys`` holds one PauliLabel per round, checked and converted once to
    the key codes :func:`run_batch` takes.  This is :func:`run_batch` with
    one run, so round ``i`` reads the stream ``PCG64((config.seed, i))``.
    Returns the run's Transcript: its decided records, in round order, and
    as its decision the last that is not Accept, else Accept.
    """
    for k in keys:
        if not isinstance(k, PauliLabel):
            raise ValueError(f"keys must be PauliLabel values, got {k!r}")
    codes = bytes(2 * k.phase_bit + k.parity_bit for k in keys)
    rounds = [row for _, _, row in run_batch(config, [config.seed], [codes], strategy)
              if row.decision is not None]
    rejected = [row.decision for row in rounds if row.decision is not Decision.ACCEPT]
    return Transcript(rounds, rejected[-1] if rejected else Decision.ACCEPT)


# The adversary module imports its protocol names from this one, so it is
# imported last, once every name it needs exists.  P2 and run_protocol reach
# it through this module global at call time.
from . import adversary
