"""Attack strategies of the center; :func:`qauthsim.protocol.p2_transmit`
runs the one a StrategyId names at transmission (P2).  Both hooks take
only ``(wave, source)``: the round's :class:`qauthsim.protocol.Wave`, whose
rows are the rounds' RoundRecords from P1, and its outcome source.

The interesting one is :func:`hook_premeasure`: the center measures every
protocol qubit before anything is transmitted (Z on his own pair, then Bell
on each party's pair, an order fixed in code), leaves the decoys alone, and
later replays his early c outcomes and XORs the party's announcement
against his early Bell label to read off the round key.
:func:`hook_intercept_resend` is the detectable baseline: measure
everything in transit, decoys included, in a random basis, leaving the
protocol qubits' coins and draws in ``in_transit``, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .protocol import Role, Wave, _measure_decoys, _measure_parties
from .qsim import BellLabel, PauliLabel


class StrategyId(Enum):
    HONEST = "Honest"
    PRE_MEASURE = "PreMeasure"
    INTERCEPT_RESEND = "InterceptResend"


@dataclass
class EveState:
    """Charlie's early outcomes for one round of one run.

    The swap constraint m_pre XOR b_pre = (0, c1 XOR c2) holds for every
    branch.  He announces ``c_pre`` verbatim in E3: the C qubits collapsed
    when he first measured them, so a fresh honest measurement would return
    the same bits anyway.
    """

    c_pre: tuple
    m_pre: BellLabel
    b_pre: BellLabel


def hook_premeasure(wave: Wave, source) -> list:
    """Measure all six protocol qubits before transmission.

    Z on C1 and C2, then Bell on (A1, A2) and on (B1, B2): the party walk
    of the honest E2 measurement, made early with Charlie's turn first.
    The measurements act on disjoint qubits, so the order of turns cannot
    change the joint outcome statistics.  Decoy qubits are never touched.
    Returns one EveState per row of the wave.
    """
    return [EveState(c, a, b) for a, b, c in _measure_parties(wave, source, ("c", "a", "b"))]


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


def hook_intercept_resend(wave: Wave, source) -> None:
    """Measure every transmitted qubit in a uniformly random basis from
    {Z, X} and forward the collapsed eigenstate.

    Each row's two sequences, Alice's d + 2 slots then Bob's, go out as one
    stream of 2d + 4 qubits, each with its own pre-drawn basis coin (0 Z,
    1 X) and uniform draw from the row's stream in ``source.streams``.  A
    decoy takes the coin and draw of its slot in the stream and is measured
    the way the S1/S2 checks measure it, by the ``_DECOY_CUT`` table.  The
    four slots no decoy holds carry the protocol qubits in
    ``protocol.TRANSIT`` order (A1, A2, B1, B2); their coins and draws go to
    the wave's ``in_transit`` as one (coins, draws) pair per row, in row
    order: what is left of the row's drawn lists once the decoy slots are
    deleted.  Charlie's own C qubits never travel, so they are left alone.
    """
    wave.in_transit = []
    for row, stream in zip(wave.rows, source.streams):
        d = len(row.positions) // 2
        total = 2 * d + 4
        bases = stream.coins(total)
        randomness = stream.draws(total)
        decoy_slots = row.positions[:d] + [d + 2 + pos for pos in row.positions[d:]]
        _measure_decoys(row, [bases[i] for i in decoy_slots], [randomness[i] for i in decoy_slots])
        for i in reversed(decoy_slots):  # rising, so each deletion leaves the rest in place
            del bases[i], randomness[i]
        wave.in_transit.append((bases, randomness))
