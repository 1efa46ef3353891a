"""Tests for the two center-side eavesdropping strategies.

The pre-measurement strategy must be invisible: it fixes every announcement
before transmission without touching a single decoy.  The intercept-resend
baseline must disturb decoys at the textbook rate of 1/4 per intercepted
qubit.
"""

import copy

import numpy as np
import pytest

import reference

from qauthsim import oracle, qsim
from qauthsim.adversary import (
    EveState,
    StrategyId,
    hook_intercept_resend,
    hook_premeasure,
    infer_key,
)
from qauthsim.protocol import (
    A1,
    A2,
    B1,
    B2,
    C1,
    C2,
    TRANSIT,
    ProtocolConfig,
    Role,
    SampleSource,
    Wave,
    _RowStream,
    _measure_in_bases,
    _measure_parties,
    p1_prepare,
    s_check,
)
from qauthsim.qsim import Basis, BellLabel, PauliLabel


# A decoy is stored as its eigenstate label 2 * basis coin + bit (Z 0, X 1).
DECOY_KETS = ("0", "1", "+", "-")


def row_stream(seed):
    """The program's stream for one row on PCG64(seed): it draws what
    ``np.random.default_rng(seed)`` draws."""
    return _RowStream(np.random.PCG64(seed))


def fresh_register(decoys=0, seed=0):
    config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
    rng = row_stream(seed) if decoys else None
    return p1_prepare(config, rng)


def test_strategy_ids():
    assert StrategyId.HONEST.value == "Honest"
    assert StrategyId.PRE_MEASURE.value == "PreMeasure"
    assert StrategyId.INTERCEPT_RESEND.value == "InterceptResend"


# ---------------------------------------------------------------------------
# pre-measurement


def test_premeasure_outcomes_satisfy_swap_constraint():
    rng = row_stream(0)
    for _ in range(100):
        (eve,) = hook_premeasure(Wave([fresh_register()]), SampleSource([rng]))
        c1, c2 = eve.c_pre
        assert eve.m_pre.phase_bit ^ eve.b_pre.phase_bit == 0
        assert eve.m_pre.parity_bit ^ eve.b_pre.parity_bit == c1 ^ c2


def test_premeasure_pins_every_later_measurement():
    # After the hook, re-measuring the same observables is deterministic.
    rng = row_stream(1)
    for _ in range(20):
        wave = Wave([fresh_register()])
        (eve,) = hook_premeasure(wave, SampleSource([rng]))
        state = wave.state
        probs = {o: p for o, p, _ in qsim.bell_outcomes(state, A1, A2)}
        (label,), state = qsim.measure_bell(state, A1, A2, rng.draws(1))
        assert label is eve.m_pre
        assert probs[label] == pytest.approx(1.0)
        probs = {o: p for o, p, _ in qsim.bell_outcomes(state, B1, B2)}
        (label,), state = qsim.measure_bell(state, B1, B2, rng.draws(1))
        assert label is eve.b_pre
        assert probs[label] == pytest.approx(1.0)
        for qubit, expected in ((C1, eve.c_pre[0]), (C2, eve.c_pre[1])):
            probs = {o: p for o, p, _ in qsim.z_outcomes(state, qubit)}
            (bit,), state = qsim.measure_z(state, qubit, rng.draws(1))
            assert bit == expected
            assert probs[bit] == pytest.approx(1.0)


def test_premeasure_order_invariant_support():
    # the hook's walk takes the turns c, a, b; in any order the constraint
    # between outcomes is the same, since the observables commute.
    rng = row_stream(2)
    for order in (("c", "a", "b"), ("a", "b", "c"), ("b", "c", "a")):
        for _ in range(30):
            wave = Wave([fresh_register()])
            [(m, b, (c1, c2))] = _measure_parties(wave, SampleSource([rng]), order)
            assert (m.phase_bit ^ b.phase_bit, m.parity_bit ^ b.parity_bit) == (0, c1 ^ c2)


def test_premeasure_never_touches_decoys():
    rng = row_stream(3)
    for _ in range(25):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=3), rng)
        before = list(register.labels)
        hook_premeasure(Wave([register]), SampleSource([rng]))
        assert register.labels == before


def test_infer_key_frozen_examples():
    eve = EveState((0, 0), BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
    assert infer_key(eve, BellLabel.PHI_PLUS) is PauliLabel.I
    eve = EveState((0, 0), BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
    assert infer_key(eve, BellLabel.PSI_MINUS) is PauliLabel.IY


def test_infer_key_all_sixteen_cases():
    for reference_label in BellLabel:
        for announced in BellLabel:
            expected = PauliLabel.from_bits(
                reference_label.phase_bit ^ announced.phase_bit,
                reference_label.parity_bit ^ announced.parity_bit,
            )
            eve = EveState((0, 0), reference_label, BellLabel.PHI_PLUS)
            assert infer_key(eve, announced, Role.ALICE) is expected
            eve = EveState((0, 0), BellLabel.PHI_PLUS, reference_label)
            assert infer_key(eve, announced, Role.BOB) is expected


def test_infer_key_requires_state():
    with pytest.raises(ValueError):
        infer_key(None, BellLabel.PHI_PLUS)


def test_premeasure_then_encode_recovers_every_key():
    rng = row_stream(4)
    for key in PauliLabel:
        for direction in (Role.ALICE, Role.BOB):
            for _ in range(25):
                wave = Wave([fresh_register()])
                source = SampleSource([rng])
                (eve,) = hook_premeasure(wave, source)
                qubit = A1 if direction is Role.ALICE else B1
                wave.state = qsim.apply_pauli(wave.state, qubit, key)
                pair = (A1, A2) if direction is Role.ALICE else (B1, B2)
                (announced,), wave.state = source.measure_bell(wave.state, *pair)
                assert infer_key(eve, announced, direction) is key


# ---------------------------------------------------------------------------
# intercept-resend


def per_decoy_mismatch_probability(basis, bit):
    """Brute-force oracle: Eve measures a decoy in a random basis and
    forwards the collapsed qubit; the owner remeasures in the prepared basis.

    Averages the mismatch probability over Eve's two equiprobable bases.
    """
    prepared = {
        (Basis.Z, 0): "0",
        (Basis.Z, 1): "1",
        (Basis.X, 0): "+",
        (Basis.X, 1): "-",
    }[(basis, bit)]
    owner_outcomes = qsim.z_outcomes if basis is Basis.Z else qsim.x_outcomes
    total = 0.0
    for eve_outcomes in (qsim.z_outcomes, qsim.x_outcomes):
        state = qsim.init_product([prepared])
        for _, p_eve, post in eve_outcomes(state, 0):
            if post is None:
                continue
            for owner_bit, p_owner, _ in owner_outcomes(post, 0):
                if owner_bit != bit:
                    total += 0.5 * p_eve * p_owner
    return total


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
@pytest.mark.parametrize("bit", [0, 1])
def test_intercept_resend_single_decoy_mismatch_is_one_quarter(basis, bit):
    assert per_decoy_mismatch_probability(basis, bit) == pytest.approx(0.25)


def test_intercept_resend_touches_decoys():
    rng = row_stream(6)
    changed = 0
    total = 0
    for _ in range(50):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
        before = list(register.labels)
        hook_intercept_resend(Wave([register]), SampleSource([rng]))
        for prior, label in zip(before, register.labels):
            total += 1
            if prior != label:
                changed += 1
    # Wrong-basis interception (probability 1/2) always changes the state.
    assert changed >= total * 0.3


def test_intercept_resend_empirical_mismatch_rate():
    rng = row_stream(7)
    mismatches = 0
    checked = 0
    for _ in range(2000):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=1), rng)
        hook_intercept_resend(Wave([register]), SampleSource([rng]))
        for coin, label, prepared in zip(register.coins, register.labels, register.prepared):
            measure = qsim.measure_x if coin else qsim.measure_z
            state = qsim.init_product([DECOY_KETS[label]])
            (bit,), _ = measure(state, 0, rng.draws(1))
            checked += 1
            mismatches += int(bit != prepared)
    rate = mismatches / checked
    sigma = np.sqrt(0.25 * 0.75 / checked)
    assert abs(rate - 0.25) < 5 * sigma


def test_intercepted_decoys_are_checked_from_the_labels_eve_left():
    # Eve measures the decoys in the row's lists, changing only their
    # labels; S1/S2 then read each one's outcome from the label she left.
    rng = row_stream(8)
    disturbed = 0
    for _ in range(50):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
        sent = copy.deepcopy(register)
        hook_intercept_resend(Wave([register]), SampleSource([rng]))
        assert (register.positions, register.coins, register.prepared) == (
            sent.positions, sent.coins, sent.prepared
        )
        assert register.measured is None
        left = list(register.labels)
        disturbed += sum(label != 2 * coin + bit
                         for coin, bit, label in zip(sent.coins, sent.prepared, left))
        twin = copy.deepcopy(rng)
        s_check(register, rng.draws(4), 0.0)
        for coin, label, measured in zip(register.coins, left, register.measured):
            measure = qsim.measure_x if coin else qsim.measure_z
            (bit,), _ = measure(qsim.init_product([DECOY_KETS[label]]), 0, twin.draws(1))
            assert measured == bit
    assert disturbed


@pytest.mark.parametrize("decoys,expected", [(1, 0.4375), (2, 0.68359375)])
def test_intercept_resend_detection_rate(decoys, expected):
    # Per-decoy survival is 3/4 independently, so a round with 2*decoys
    # checks passes with (3/4)^(2*decoys).
    from qauthsim.protocol import Decision, run_protocol

    trials = 3000
    detected = 0
    for seed in range(trials):
        config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
        transcript = run_protocol(config, [PauliLabel.I], StrategyId.INTERCEPT_RESEND)
        detected += transcript.decision is Decision.ABORT
    rate = detected / trials
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) < 5 * sigma


@pytest.mark.parametrize("decoys", [0, 1, 3])
def test_intercept_resend_still_forwards_protocol_qubits(decoys):
    # The attack measures the travelling protocol qubits too, in transit
    # order: the coins and draws of the slots no decoy holds, Alice's
    # sequence then Bob's.  Applied the way run_batch applies them, they
    # leave a definite product of the measured eigenstates, still
    # normalized.
    rng, twin = row_stream(8), np.random.default_rng(8)
    register = fresh_register(decoys, seed=decoys)
    prepared = list(register.labels)
    wave = Wave([register])
    hook_intercept_resend(wave, SampleSource([rng]))
    [(coins, draws)] = wave.in_transit
    total = 2 * decoys + 4
    bases, randomness = twin.integers(0, 2, size=total), twin.random(size=total)
    owners = [register.positions[:decoys], register.positions[decoys:]]
    free = [
        offset + slot
        for offset, taken in zip((0, decoys + 2), owners)
        for slot in range(decoys + 2)
        if slot not in taken
    ]
    assert coins == bases[free].tolist() and draws == randomness[free].tolist()
    # Each decoy was measured with the coin and draw of its own slot.
    slots = owners[0] + [decoys + 2 + slot for slot in owners[1]]
    for label, slot, left in zip(prepared, slots, register.labels):
        measure = qsim.measure_x if bases[slot] else qsim.measure_z
        (bit,), _ = measure(qsim.init_product([DECOY_KETS[label]]), 0, [float(randomness[slot])])
        assert left == 2 * bases[slot] + bit
    assert list(TRANSIT) == [A1, A2, B1, B2]
    assert len(coins) == len(draws) == len(TRANSIT)
    state = wave.state
    for q, coin, draw in zip(TRANSIT, coins, draws):
        state = _measure_in_bases(state, q, [coin], [draw])
    assert reference.norm(state) == pytest.approx(1.0)
