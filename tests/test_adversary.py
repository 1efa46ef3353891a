"""Tests for the two center-side eavesdropping strategies.

The pre-measurement strategy must be invisible: it fixes every announcement
before transmission without touching a single decoy.  The intercept-resend
baseline must disturb decoys at the textbook rate of 1/4 per intercepted
qubit.
"""

import numpy as np
import pytest
from sampling import SingleStateSource

from qauthsim import oracle, qsim
from qauthsim.adversary import (
    EveState,
    StrategyId,
    forge_c,
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
    ProtocolConfig,
    Role,
    Wave,
    _measure_in_bases,
    p1_prepare,
)
from qauthsim.qsim import Basis, BellLabel, PauliLabel


# A decoy is stored as its eigenstate label 2 * basis coin + bit (Z 0, X 1).
DECOY_KETS = ("0", "1", "+", "-")


def fresh_register(decoys=0, seed=0):
    config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
    rng = np.random.default_rng(seed) if decoys else None
    return p1_prepare(config, rng)


def test_strategy_ids():
    assert StrategyId.HONEST.value == "Honest"
    assert StrategyId.PRE_MEASURE.value == "PreMeasure"
    assert StrategyId.INTERCEPT_RESEND.value == "InterceptResend"


# ---------------------------------------------------------------------------
# pre-measurement


def test_premeasure_outcomes_satisfy_swap_constraint():
    rng = np.random.default_rng(0)
    for _ in range(100):
        register = fresh_register()
        eve = hook_premeasure(register, SingleStateSource(rng))
        c1, c2 = eve.c_pre
        assert eve.m_pre.phase_bit ^ eve.b_pre.phase_bit == 0
        assert eve.m_pre.parity_bit ^ eve.b_pre.parity_bit == c1 ^ c2


def test_premeasure_pins_every_later_measurement():
    # After the hook, re-measuring the same observables is deterministic.
    rng = np.random.default_rng(1)
    for _ in range(20):
        register = fresh_register()
        eve = hook_premeasure(register, SingleStateSource(rng))
        state = register.state
        probs = {o: p for o, p, _ in qsim.bell_outcomes(state, A1, A2)}
        label, state = qsim.measure_bell(state, A1, A2, rng.random())
        assert label is eve.m_pre
        assert probs[label] == pytest.approx(1.0)
        probs = {o: p for o, p, _ in qsim.bell_outcomes(state, B1, B2)}
        label, state = qsim.measure_bell(state, B1, B2, rng.random())
        assert label is eve.b_pre
        assert probs[label] == pytest.approx(1.0)
        for qubit, expected in ((C1, eve.c_pre[0]), (C2, eve.c_pre[1])):
            probs = {o: p for o, p, _ in qsim.z_outcomes(state, qubit)}
            bit, state = qsim.measure_z(state, qubit, rng.random())
            assert bit == expected
            assert probs[bit] == pytest.approx(1.0)


def test_premeasure_order_invariant_support():
    # the hook may measure the three subsystems in any order; the constraint
    # between outcomes cannot depend on it, since the observables commute.
    rng = np.random.default_rng(2)
    for order in (("c", "a", "b"), ("a", "b", "c"), ("b", "c", "a")):
        for _ in range(30):
            register = fresh_register()
            eve = hook_premeasure(register, SingleStateSource(rng), order=order)
            c1, c2 = eve.c_pre
            assert (eve.m_pre.phase_bit ^ eve.b_pre.phase_bit,
                    eve.m_pre.parity_bit ^ eve.b_pre.parity_bit) == (0, c1 ^ c2)


def test_premeasure_rejects_bad_order():
    register = fresh_register()
    source = SingleStateSource(np.random.default_rng(0))
    with pytest.raises(ValueError):
        hook_premeasure(register, source, order=("c", "c", "a"))


def test_premeasure_never_touches_decoys():
    rng = np.random.default_rng(3)
    for _ in range(25):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=3), rng)
        before = list(register.decoy_states)
        hook_premeasure(register, SingleStateSource(rng))
        assert register.decoy_states == before


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
            assert eve.inferred_key is expected
            eve = EveState((0, 0), BellLabel.PHI_PLUS, reference_label)
            assert infer_key(eve, announced, Role.BOB) is expected


def test_infer_key_requires_state():
    with pytest.raises(ValueError):
        infer_key(None, BellLabel.PHI_PLUS)


def test_forge_c_replays_the_premeasured_bits():
    eve = EveState((1, 0), BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
    assert forge_c(eve) == (1, 0)
    with pytest.raises(ValueError):
        forge_c(None)


def test_premeasure_then_encode_recovers_every_key():
    rng = np.random.default_rng(4)
    for key in PauliLabel:
        for direction in (Role.ALICE, Role.BOB):
            for _ in range(25):
                register = fresh_register()
                source = SingleStateSource(rng)
                eve = hook_premeasure(register, source)
                qubit = A1 if direction is Role.ALICE else B1
                register.state = qsim.apply_pauli(register.state, qubit, key)
                pair = (A1, A2) if direction is Role.ALICE else (B1, B2)
                announced, register.state = source.measure_bell(register.state, *pair)
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
    rng = np.random.default_rng(6)
    changed = 0
    total = 0
    for _ in range(50):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
        before = list(register.decoy_states)
        hook_intercept_resend(Wave(register.state, [register], []), [rng])
        for prior, label in zip(before, register.decoy_states):
            total += 1
            if prior != label:
                changed += 1
    # Wrong-basis interception (probability 1/2) always changes the state.
    assert changed >= total * 0.3


def test_intercept_resend_empirical_mismatch_rate():
    rng = np.random.default_rng(7)
    mismatches = 0
    checked = 0
    for _ in range(2000):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=1), rng)
        hook_intercept_resend(Wave(register.state, [register], []), [rng])
        for idx, meta in enumerate(register.decoy_meta):
            measure = qsim.measure_z if meta.basis is Basis.Z else qsim.measure_x
            state = qsim.init_product([DECOY_KETS[register.decoy_states[idx]]])
            bit, _ = measure(state, 0, rng.random())
            checked += 1
            mismatches += int(bit != meta.prepared)
    rate = mismatches / checked
    sigma = np.sqrt(0.25 * 0.75 / checked)
    assert abs(rate - 0.25) < 5 * sigma


@pytest.mark.parametrize("decoys,expected", [(1, 0.4375), (2, 0.68359375)])
def test_intercept_resend_detection_rate(decoys, expected):
    # Per-decoy survival is 3/4 independently, so a round with 2*decoys
    # checks passes with (3/4)^(2*decoys).
    from qauthsim.protocol import Decision, run_protocol

    trials = 3000
    detected = 0
    for seed in range(trials):
        config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
        _, decision, _ = run_protocol(config, [PauliLabel.I], StrategyId.INTERCEPT_RESEND)
        detected += decision is Decision.ABORT
    rate = detected / trials
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) < 5 * sigma


def test_intercept_resend_still_forwards_protocol_qubits():
    # The attack measures the travelling protocol qubits too, in transit
    # order; applied the way run_batch applies them, they leave a definite
    # product of the measured eigenstates, still normalized.
    rng = np.random.default_rng(8)
    register = fresh_register()
    wave = Wave(register.state, [register], [])
    hook_intercept_resend(wave, [rng])
    assert [q for q, _, _ in wave.in_transit] == [A1, A2, B1, B2]
    state = wave.state
    for q, coins, draws in wave.in_transit:
        state = _measure_in_bases(state, q, coins, draws)
    assert state.norm() == pytest.approx(1.0)
