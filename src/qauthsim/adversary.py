"""Attack strategies of the center; :func:`qauthsim.protocol.p2_transmit`
runs the one a StrategyId names at transmission (P2).

The interesting one is :func:`hook_premeasure`: the center measures every
protocol qubit before anything is transmitted (Z on his own pair, Bell on
each party's pair), leaves the decoys alone, and later replays his early c
outcomes and XORs the party's announcement against his early Bell label to
read off the round key.  :func:`hook_intercept_resend` is the detectable
baseline: measure everything in transit, decoys included, in a random basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .protocol import Role, Wave, _measure_decoy, _measure_parties
from .qsim import BellLabel, PauliLabel


class StrategyId(Enum):
    HONEST = "Honest"
    PRE_MEASURE = "PreMeasure"
    INTERCEPT_RESEND = "InterceptResend"


@dataclass
class EveState:
    """Charlie's early outcomes for one round.

    The swap constraint m_pre XOR b_pre = (0, c1 XOR c2) holds for every
    branch; ``inferred_key`` stays None until a party's announcement has
    been observed.
    """

    c_pre: tuple
    m_pre: BellLabel
    b_pre: BellLabel
    inferred_key: "PauliLabel | None" = None


@dataclass
class AdversaryReport:
    """Per-run summary: one EveState and one inferred key per round (None
    where the strategy records nothing)."""

    strategy: StrategyId
    eve_states: list
    inferred_keys: list


def hook_premeasure(register, source, order=("c", "a", "b")) -> EveState:
    """Measure all six protocol qubits before transmission.

    Z on C1 and C2, Bell on (A1, A2) and on (B1, B2): the party walk of
    the honest E2 measurement, made early.  The measurements act on
    disjoint qubits, so ``order`` (a permutation of "c", "a", "b") cannot
    change the joint outcome statistics.  Decoy qubits are never touched.
    ``register`` is a RoundRegister or a Wave; on a wave the returned
    EveState holds the rows' outcome lists, which the caller splits per row.
    """
    a, b, c = _measure_parties(register, source, order)
    return EveState(c, a, b)


def infer_key(eve: EveState, announced: BellLabel, direction: Role = Role.ALICE) -> PauliLabel:
    """Read the round key off a party's announcement.

    The announced Bell label is the early label shifted by the key's Pauli,
    so the key is their XOR.  ``direction`` picks which early label to use:
    m_pre when Alice encodes, b_pre when Bob does.
    """
    if eve is None:
        raise ValueError("no early outcomes to infer from")
    reference = eve.m_pre if direction is Role.ALICE else eve.b_pre
    key = PauliLabel((announced ^ reference).value)
    eve.inferred_key = key
    return key


def forge_c(eve: EveState) -> tuple:
    """Replay the early c outcomes verbatim.

    The C qubits collapsed when they were first measured, so a fresh honest
    measurement would return the same bits anyway.
    """
    if eve is None:
        raise ValueError("no early outcomes to replay")
    return eve.c_pre


def hook_intercept_resend(wave: Wave, rngs: list) -> None:
    """Measure every transmitted qubit in a uniformly random basis from
    {Z, X} and forward the collapsed eigenstate.

    Each row walks both of its sequences in transmission order; protocol
    qubits and decoys alike, each with its own pre-drawn basis coin (0 Z,
    1 X) and uniform draw from the row's generator in ``rngs``.  Decoys are
    measured here, the way the S1/S2 checks measure them, by their
    eigenstate label's outcome table.  Every row meets the protocol qubits
    in the same order (A1, A2, B1, B2); their measurements go to the wave's
    ``in_transit`` list, one entry per qubit for the whole wave.  Charlie's
    own C qubits never travel, so they are left alone.
    """
    coins: dict = {}
    draws: dict = {}
    for row, rng in zip(wave.rows, rngs):
        total = len(row.alice_seq) + len(row.bob_seq)
        bases = rng.integers(0, 2, size=total).tolist()
        randomness = rng.random(size=total).tolist()
        slots = itertools.chain(row.alice_seq, row.bob_seq)
        for (kind, idx), coin, draw in zip(slots, bases, randomness):
            if kind == "q":
                coins.setdefault(idx, []).append(coin)
                draws.setdefault(idx, []).append(draw)
            else:
                _measure_decoy(row, idx, coin, draw)
    wave.in_transit = [(q, coins[q], draws[q]) for q in coins]
