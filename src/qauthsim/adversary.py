"""Attack strategies of the center; :func:`qauthsim.protocol.p2_transmit`
runs the one a StrategyId names at transmission (P2).  Both hooks take only
the round's :class:`qauthsim.protocol.Wave`, whose rows are the rounds'
RoundRecords from P1 and whose streams are their draws.

The interesting one is :func:`hook_premeasure`: the center measures every
protocol qubit before anything is transmitted (Z on his own pair, then Bell
on each party's pair, an order fixed in code), leaves the decoys alone, and
XORs the party's announcement against his early Bell label to read off the
round key.  His measurements are a walk down the P2 levels of the round
table (:func:`qauthsim.protocol._p2_tree`), so each row's state after them
is one of its 16 leaves.  His C qubits collapsed when he measured them, so
E2's own Z measurements announce his early c outcomes.
:func:`hook_intercept_resend` is the detectable baseline: measure
everything in transit, decoys included, in a random basis, by table
lookups: the decoys here, the protocol qubits in ``run_batch`` from the
coins and draws left in ``in_transit``, one pair per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .protocol import _BELLS, Role, Wave, _measure_decoys, _p2_tree, _walk
from .qsim import BellLabel, PauliLabel


class StrategyId(Enum):
    HONEST = "Honest"
    PRE_MEASURE = "PreMeasure"
    INTERCEPT_RESEND = "InterceptResend"


@dataclass
class EveState:
    """Charlie's early outcomes for one round of one run.

    The swap constraint m_pre XOR b_pre = (0, c1 XOR c2) holds for every
    branch.  The C qubits collapsed when he first measured them, and
    neither E1's Pauli nor the parties' Bell measurements touch them, so
    E2's own Z measurements return ``c_pre``, and E3 verifies the bits he
    first measured.
    ``tests/test_oracle.py::test_premeasure_leaves_e2_measuring_the_early_center_bits``
    checks this on every enumerated branch.
    """

    c_pre: tuple
    m_pre: BellLabel
    b_pre: BellLabel


def hook_premeasure(wave: Wave) -> list:
    """Measure all six protocol qubits before transmission.

    Z on C1 and C2, then Bell on (A1, A2) and on (B1, B2): E2's party walk
    made early with Charlie's turn first, each row with four draws from its
    stream, walked down the P2 levels of the round table to the leaf that
    becomes the row's state.  The measurements act on disjoint qubits, so
    the order of turns cannot change the joint outcome statistics.  Decoy
    qubits are never touched.  Returns one EveState per row of the wave.
    """
    levels, _ = _p2_tree(StrategyId.PRE_MEASURE)
    draws = [stream.draws(4) for stream in wave.streams]
    wave.leaves, (c1, c2, m, b) = _walk(levels, wave.leaves, draws)
    return [EveState(c, _BELLS[i], _BELLS[j]) for c, i, j in zip(zip(c1, c2), m, b)]


def infer_key(eve: EveState, announced: BellLabel, direction: Role = Role.ALICE) -> PauliLabel:
    """Read the round key off a party's announcement.

    The announced Bell label is the early label shifted by the key's Pauli,
    so the key is their XOR.  ``direction`` picks which early label to use:
    m_pre when Alice encodes, b_pre when Bob does.
    """
    if eve is None:
        raise ValueError("no early outcomes to infer from")
    reference = eve.m_pre if direction is Role.ALICE else eve.b_pre
    return PauliLabel((announced ^ reference).value)


def hook_intercept_resend(wave: Wave) -> None:
    """Measure every transmitted qubit in a uniformly random basis from
    {Z, X} and forward the collapsed eigenstate.

    Each row's two sequences, Alice's d + 2 slots then Bob's, go out as one
    stream of 2d + 4 qubits, each with its own pre-drawn basis coin (0 Z,
    1 X) and uniform draw from the row's stream in ``wave.streams``.  A
    decoy takes the coin and draw of its slot in the stream and is measured
    the way the S1/S2 checks measure it, by the ``_DECOY_CUT`` table.  The
    four slots no decoy holds carry the protocol qubits in
    ``protocol.TRANSIT`` order (A1, A2, B1, B2); their coins and draws go to
    the wave's ``in_transit`` as one (coins, draws) pair per row, in row
    order: what is left of the row's drawn lists once the decoy slots are
    deleted, for ``run_batch`` to walk to a leaf of the intercept's P2
    levels (:func:`qauthsim.protocol._p2_tree`).
    Charlie's own C qubits never travel, so they are left alone.
    """
    wave.in_transit = []
    for row, stream in zip(wave.rows, wave.streams):
        d = len(row.positions) // 2
        total = 2 * d + 4
        bases = stream.coins(total)
        randomness = stream.draws(total)
        decoy_slots = row.positions[:d] + [d + 2 + pos for pos in row.positions[d:]]
        _measure_decoys(row, [bases[i] for i in decoy_slots], [randomness[i] for i in decoy_slots])
        for i in reversed(decoy_slots):  # rising, so each deletion leaves the rest in place
            del bases[i], randomness[i]
        wave.in_transit.append((bases, randomness))
