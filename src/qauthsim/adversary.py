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

import numpy as np

from . import qsim
from .protocol import Role, RoundRegister, _measure_decoy, _measure_parties
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


def hook_premeasure(register: RoundRegister, source, order=("c", "a", "b")) -> EveState:
    """Measure all six protocol qubits before transmission.

    Z on C1 and C2, Bell on (A1, A2) and on (B1, B2): the party walk of
    the honest E2 measurement, made early.  The measurements act on
    disjoint qubits, so ``order`` (a permutation of "c", "a", "b") cannot
    change the joint outcome statistics.  Decoy qubits are never touched.
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


def hook_intercept_resend(register: RoundRegister, rng: np.random.Generator) -> None:
    """Measure every transmitted qubit in a uniformly random basis from
    {Z, X} and forward the collapsed eigenstate.

    Walks both sequences in transmission order; protocol qubits and decoys
    alike, each with its own pre-drawn basis coin (0 Z, 1 X) and uniform
    draw.  Decoys are measured the way the S1/S2 checks measure them, by
    their eigenstate label's outcome table.  Charlie's own C qubits never
    travel, so they are left alone.
    """
    total = len(register.alice_seq) + len(register.bob_seq)
    bases = rng.integers(0, 2, size=total).tolist()
    draws = rng.random(size=total).tolist()
    slots = itertools.chain(register.alice_seq, register.bob_seq)
    for (kind, idx), coin, randomness in zip(slots, bases, draws):
        if kind == "q":
            measure = qsim.measure_z if coin == 0 else qsim.measure_x
            _, register.state = measure(register.state, idx, randomness)
        else:
            _measure_decoy(register, idx, coin, randomness)
