"""Tests for the protocol state machine: phases P1 through E3 and full runs."""

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import reference

from qauthsim import oracle, protocol, qsim
from qauthsim.adversary import EveState, StrategyId
from qauthsim.protocol import (
    A1,
    A2,
    B1,
    B2,
    C1,
    C2,
    PROTOCOL_QUBITS,
    WAVE_SIZE,
    Decision,
    DecoyRecord,
    PhaseId,
    ProtocolConfig,
    Role,
    SampleSource,
    Wave,
    _measure_decoy,
    e1_encode,
    e2_measure,
    e3_verify,
    p1_prepare,
    p2_transmit,
    run_batch,
    run_protocol,
    s_check,
)
from qauthsim.qsim import Basis, BellLabel, PauliLabel


# A decoy is stored as its eigenstate label 2 * basis coin + bit (Z 0, X 1).
DECOY_KETS = ("0", "1", "+", "-")


def fresh_register(decoys=0, seed=0):
    config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
    rng = np.random.default_rng(seed) if decoys else None
    return p1_prepare(config, rng)


def decoys_of(*sequences):
    """The decoy records in the sequences' slots, in slot order."""
    return [slot for seq in sequences for slot in seq if isinstance(slot, DecoyRecord)]


def decoy_state(label):
    """The single-qubit state a decoy label stands for."""
    return qsim.init_product([DECOY_KETS[label]])


# ---------------------------------------------------------------------------
# configuration validation


def test_config_defaults():
    config = ProtocolConfig()
    assert config.rounds == 1
    assert config.decoys_per_sequence == 0
    assert config.decoy_error_threshold == 0.0
    assert config.direction is Role.ALICE
    assert config.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rounds": 0},
        {"rounds": -3},
        {"rounds": 1.5},
        {"decoys_per_sequence": -1},
        {"decoy_error_threshold": -0.1},
        {"decoy_error_threshold": 1.5},
        {"direction": Role.CHARLIE},
        {"seed": -1},
        {"seed": 2**64},
        {"rounds": True},
        {"decoy_error_threshold": "0.5"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(protocol.FieldError) as excinfo:
        ProtocolConfig(**kwargs)
    assert [excinfo.value.key] == list(kwargs)


# ---------------------------------------------------------------------------
# P1: preparation


def test_p1_without_decoys_builds_double_triple():
    register = fresh_register()
    state = Wave([register]).state
    assert state.n_qubits == PROTOCOL_QUBITS
    assert register.alice_seq == [A1, A2]
    assert register.bob_seq == [B1, B2]
    # Independent reconstruction: the three-qubit resource state has
    # amplitude 1/2 on 001, 010, 100, 111; the register holds two copies.
    triple = np.zeros(8, dtype=complex)
    triple[[0b001, 0b010, 0b100, 0b111]] = 0.5
    expected = np.kron(triple, triple)
    assert np.allclose(state.amps, expected)


def test_p1_decoy_structure():
    register = fresh_register(decoys=2, seed=5)
    assert len(decoys_of(register.alice_seq, register.bob_seq)) == 4
    owners = [m.owner for m in decoys_of(register.alice_seq, register.bob_seq)]
    assert owners.count(Role.ALICE) == 2
    assert owners.count(Role.BOB) == 2
    for seq, owner, qubits in (
        (register.alice_seq, Role.ALICE, (A1, A2)),
        (register.bob_seq, Role.BOB, (B1, B2)),
    ):
        assert len(seq) == 4
        sent_qubits = [slot for slot in seq if not isinstance(slot, DecoyRecord)]
        assert sent_qubits == list(qubits)
        for pos, meta in enumerate(seq):
            if isinstance(meta, DecoyRecord):
                assert meta.owner is owner
                assert meta.position == pos
                assert meta.measured is None
                label = meta.label
                assert label == 2 * (meta.basis is Basis.X) + meta.prepared
                expected = reference.KET[
                    {
                        (Basis.Z, 0): "0",
                        (Basis.Z, 1): "1",
                        (Basis.X, 0): "+",
                        (Basis.X, 1): "-",
                    }[(meta.basis, meta.prepared)]
                ]
                assert np.allclose(decoy_state(label).amps, expected)


@pytest.mark.parametrize("decoys", [1, 2, 5, 16])
def test_p1_decoy_slot_layout(decoys):
    # Each sequence carries its owner's two protocol qubits in order and d
    # decoy records, each in the slot its position names.
    rng = np.random.default_rng(decoys)
    for _ in range(20):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=decoys), rng)
        for owner, seq, qubits in (
            (Role.ALICE, register.alice_seq, [A1, A2]),
            (Role.BOB, register.bob_seq, [B1, B2]),
        ):
            assert len(seq) == decoys + 2
            assert [slot for slot in seq if type(slot) is int] == qubits
            metas = decoys_of(seq)
            assert len(metas) == decoys
            assert all(m.owner is owner for m in metas)
            positions = [m.position for m in metas]
            assert positions == sorted(set(positions))
            assert all(seq[m.position] is m for m in metas)


def test_p1_is_deterministic_per_stream():
    first = p1_prepare(ProtocolConfig(decoys_per_sequence=3), np.random.default_rng(11))
    second = p1_prepare(ProtocolConfig(decoys_per_sequence=3), np.random.default_rng(11))
    assert first.alice_seq == second.alice_seq
    assert first.bob_seq == second.bob_seq


def test_p1_decoy_positions_cover_all_slots():
    seen = set()
    rng = np.random.default_rng(23)
    for _ in range(200):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=1), rng)
        for meta in decoys_of(register.alice_seq, register.bob_seq):
            seen.add((meta.owner, meta.position, meta.basis, meta.prepared))
    # 1 decoy in 3 slots, 2 bases, 2 bits, both owners: all 24 combinations.
    assert len(seen) == 24


def test_p1_charlie_qubit_is_unbiased():
    state = Wave([fresh_register()]).state
    dist = oracle.outcome_distribution(state, [((C1,), Basis.Z)])
    assert dist[(0,)] == pytest.approx(0.5)
    assert dist[(1,)] == pytest.approx(0.5)


def test_waves_start_from_the_read_only_fresh_state():
    fresh = protocol._FRESH_STATE
    assert Wave([fresh_register()]).state is fresh
    assert not fresh.amps.flags.writeable
    rows = [fresh_register(), fresh_register(decoys=2, seed=3), fresh_register(decoys=1)]
    wave = Wave(rows)
    assert wave.rows is rows
    assert wave.state.amps.shape == (3, 2**PROTOCOL_QUBITS)
    for amps in wave.state.amps:
        assert np.array_equal(amps, fresh.amps)
    before = fresh.amps.copy()
    config = ProtocolConfig(rounds=6, decoys_per_sequence=2, seed=12)
    for strategy in StrategyId:
        run_protocol(config, [PauliLabel.X] * 6, strategy)
        run_batch(config, [1, 2, 3], [[PauliLabel.X] * 6] * 3, strategy)
    assert protocol._FRESH_STATE is fresh
    assert np.array_equal(fresh.amps, before)


# ---------------------------------------------------------------------------
# P2: transmission


def test_p2_honest_returns_none_and_leaves_state_alone():
    register = fresh_register(decoys=2, seed=1)
    wave = Wave([register])
    before = wave.state.amps.copy()
    decoys = [d.label for d in decoys_of(register.alice_seq, register.bob_seq)]
    source = SampleSource([np.random.default_rng(0)])
    assert p2_transmit(wave, StrategyId.HONEST, source) is None
    assert np.array_equal(wave.state.amps, before)
    assert [d.label for d in decoys_of(register.alice_seq, register.bob_seq)] == decoys


def test_p2_premeasure_returns_eve_state():
    wave = Wave([fresh_register()])
    source = SampleSource([np.random.default_rng(3)])
    (eve,) = p2_transmit(wave, StrategyId.PRE_MEASURE, source)
    assert isinstance(eve, EveState)
    assert eve.m_pre ^ eve.b_pre is BellLabel.from_bits(0, eve.c_pre[0] ^ eve.c_pre[1])


def test_p2_intercept_resend_returns_none():
    register = fresh_register(decoys=2, seed=1)
    rng = np.random.default_rng(4)
    wave = Wave([register])
    assert p2_transmit(wave, StrategyId.INTERCEPT_RESEND, SampleSource([rng])) is None


@pytest.mark.parametrize("strategy", ["PreMeasure", None, Decision.ACCEPT])
def test_p2_unknown_strategy_raises_before_touching_the_register(strategy):
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"register.{name} read")

    with pytest.raises(ValueError):
        p2_transmit(Untouchable(), strategy, Untouchable())


@pytest.mark.parametrize("strategy", list(StrategyId))
def test_run_protocol_runs_p2_once_per_round_before_any_decoy_check(monkeypatch, strategy):
    # One P2 call per wave, which every round's row meets once, before any
    # of its decoys is measured: round 0 alone, then, while no round
    # aborts, rounds 1-2 as one wave and round 3.
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=9)
    calls, rows = [], []
    original = protocol.p2_transmit

    def counted(wave, *args):
        for register in wave.rows:
            decoys = decoys_of(register.alice_seq, register.bob_seq)
            assert all(meta.measured is None for meta in decoys)
            rows.append(decoys)
        calls.append(len(wave.rows))
        return original(wave, *args)

    monkeypatch.setattr(protocol, "p2_transmit", counted)
    transcript = run_protocol(config, [PauliLabel.X] * 4, strategy)
    assert calls == [1, 2, 1][: len(calls)]
    assert sum(calls) >= len(transcript.rounds)
    assert [r.decoys for r in transcript.rounds] == rows[: len(transcript.rounds)]


@pytest.mark.parametrize("strategy", list(StrategyId))
def test_round_records_hold_the_decoys_in_their_sequences(monkeypatch, strategy):
    # Every RoundRecord.decoys entry is the very record in its slot of its
    # row's sequences, Alice's then Bob's in rising position, aborted rounds
    # included.  Rows are found by their (seed, round) streams, since a run
    # that aborts leaves its later rows in the wave prepared but unrecorded.
    rows = {}
    original = protocol.p1_prepare

    def recorded(config, rng):
        row = original(config, rng)
        rows[tuple(rng.bit_generator.seed_seq.entropy)] = row
        return row

    monkeypatch.setattr(protocol, "p1_prepare", recorded)
    config = ProtocolConfig(rounds=4, decoys_per_sequence=3, seed=2)
    seeds = [5, 6, 7, 8]
    runs = run_batch(config, seeds, [[PauliLabel.Z] * 4] * 4, strategy)
    for seed, transcript in zip(seeds, runs):
        for i, rec in enumerate(transcript.rounds):
            row = rows[seed, i]
            expected = decoys_of(row.alice_seq, row.bob_seq)
            assert [id(d) for d in rec.decoys] == [id(d) for d in expected]
            for d in rec.decoys:
                seq = row.alice_seq if d.owner is Role.ALICE else row.bob_seq
                assert seq[d.position] is d


# ---------------------------------------------------------------------------
# S1/S2: decoy checks


def check_both(register, threshold, rng):
    """S1 then S2 on every decoy of the register: (total mismatches, both pass)."""
    results = [
        s_check(seq, decoys_of(seq), threshold, rng)
        for seq in (register.alice_seq, register.bob_seq)
    ]
    return sum(m for m, _ in results), all(ok for _, ok in results)


def test_s_check_honest_run_sees_no_errors():
    rng = np.random.default_rng(3)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    mismatches, ok = check_both(register, 0.0, rng)
    assert mismatches == 0
    assert ok
    for meta in decoys_of(register.alice_seq, register.bob_seq):
        assert meta.measured == meta.prepared


def test_s_check_flags_tampered_decoys():
    rng = np.random.default_rng(4)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
    # Flip every decoy to the orthogonal state of its own basis (the label's
    # bit).  Every check must then fail.
    decoys = decoys_of(register.alice_seq, register.bob_seq)
    for meta in decoys:
        meta.label ^= 1
    mismatches, ok = check_both(register, 0.0, rng)
    assert mismatches == len(decoys) == 4
    assert not ok


def test_s_check_threshold_tolerates_partial_errors():
    rng = np.random.default_rng(5)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    seq = register.alice_seq
    decoys = decoys_of(seq)
    decoys[0].label ^= 1
    mismatches, ok = s_check(seq, decoys, 0.25, rng)
    assert mismatches == 1
    assert ok
    # Checking in its own basis leaves the first decoy flipped: the same
    # single mismatch in 4 fails just below a 1/4 threshold.
    assert s_check(seq, decoys, np.nextafter(0.25, 0.0), rng) == (1, False)
    other = fresh_register(decoys=2, seed=5).alice_seq
    mismatches, strict = s_check(other, decoys_of(other)[:1], 0.0, rng)
    assert mismatches == 0
    assert strict


def test_s_check_empty_announcement_passes():
    register = fresh_register()
    mismatches, ok = s_check(register.alice_seq, [], 0.0, np.random.default_rng(0))
    assert mismatches == 0
    assert ok


def test_s_check_rejects_a_record_not_in_this_sequence():
    register = fresh_register(decoys=1, seed=0)
    [alice], [bob] = decoys_of(register.alice_seq), decoys_of(register.bob_seq)
    with pytest.raises(ValueError):
        s_check(register.alice_seq, [bob], 0.0, np.random.default_rng(0))
    # Records are checked before any decoy is measured or any draw taken:
    # Bob's record, an equal copy of Alice's, and one past the sequence's end.
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    for stray in (bob, replace(alice), replace(alice, position=99)):
        with pytest.raises(ValueError):
            s_check(register.alice_seq, [alice, stray], 0.0, rng)
    assert rng.bit_generator.state == before
    assert alice.measured is None


@pytest.mark.parametrize(
    "announced",
    [("alice_seq", []), ("alice_seq", [3]), ("bob_seq", [1, 0, 3]), ("bob_seq", range(4))],
)
def test_s_check_draws_once_per_announced_decoy(announced):
    side, indices = announced
    config = ProtocolConfig(decoys_per_sequence=4)
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    register = p1_prepare(config, rng)
    untouched = p1_prepare(config, twin)
    seq = getattr(register, side)
    s_check(seq, [decoys_of(seq)[i] for i in indices], 0.0, rng)
    # The batched draw is the stream of one scalar draw per decoy, in
    # announcement order, and the bits are those the kernels give for it.
    for idx in indices:
        meta = decoys_of(getattr(untouched, side))[idx]
        measure = qsim.measure_z if meta.basis is Basis.Z else qsim.measure_x
        (bit,), _ = measure(decoy_state(meta.label), 0, [twin.random()])
        assert decoys_of(seq)[idx].measured == bit
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# decoy measurement: label outcome tables against the qsim kernels

KERNELS = {Basis.Z: qsim.measure_z, Basis.X: qsim.measure_x}
DRAWS = [
    0.0,
    0.25,
    0.5 - 2**-53,
    0.5,
    float(np.nextafter(0.5, 0.0)),
    float(np.nextafter(0.5, 1.0)),
    float(np.nextafter(1.0, 0.0)),
]
# The four states P1 prepares, as (basis, bit); their index is the label.
PREPARED = [(Basis.Z, 0), (Basis.Z, 1), (Basis.X, 0), (Basis.X, 1)]


def decoy_record(label):
    return DecoyRecord(Role.ALICE, 0, Basis.Z, 0, label)


def refuse_kernels(monkeypatch):
    def refuse(*args):
        raise AssertionError("a decoy reached a qsim kernel")

    monkeypatch.setattr(qsim, "measure_z", refuse)
    monkeypatch.setattr(qsim, "measure_x", refuse)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
@pytest.mark.parametrize("key", PREPARED)
def test_template_table_matches_the_kernel(monkeypatch, key, basis):
    # Each prepared label, measured in Z or X, gives the bit the kernel gives
    # for the same draw and collapses to a label for the kernel's post-state.
    label = PREPARED.index(key)
    expected = [KERNELS[basis](decoy_state(label), 0, [draw]) for draw in DRAWS]
    refuse_kernels(monkeypatch)
    coin = int(basis is Basis.X)
    for draw, ((bit,), post) in zip(DRAWS, expected):
        decoy = decoy_record(label)
        assert _measure_decoy(decoy, coin, draw) == bit
        assert decoy.label == 2 * coin + bit
        assert qsim.same_state(decoy_state(decoy.label), post)
    with pytest.raises(ValueError):
        _measure_decoy(decoy_record(label), coin, 1.0)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_intercepted_decoy_matches_the_kernel(basis):
    # Every history a decoy can have: prepared, intercepted in ``basis``,
    # then checked in its prepared basis.  Real states through the kernels
    # and labels through _measure_decoy pick the same bits for every draw.
    coin = int(basis is Basis.X)
    for label, (prepared, _) in enumerate(PREPARED):
        check_coin = int(prepared is Basis.X)
        for first in DRAWS:
            (bit,), state = KERNELS[basis](decoy_state(label), 0, [first])
            decoy = decoy_record(label)
            assert _measure_decoy(decoy, coin, first) == bit
            for second in DRAWS:
                (checked,), _ = KERNELS[prepared](state, 0, [second])
                replay = decoy_record(decoy.label)
                assert _measure_decoy(replay, check_coin, second) == checked


# ---------------------------------------------------------------------------
# E1: key encoding


def test_e1_identity_key_is_a_no_op():
    wave = Wave([fresh_register()])
    before = wave.state.amps.copy()
    e1_encode(wave, [PauliLabel.I], Role.ALICE)
    assert np.array_equal(wave.state.amps, before)


@pytest.mark.parametrize("direction,qubit", [(Role.ALICE, A1), (Role.BOB, B1)])
def test_e1_applies_key_to_first_qubit(direction, qubit):
    wave = Wave([fresh_register()])
    expected = qsim.apply_pauli(wave.state.copy(), qubit, PauliLabel.X)
    e1_encode(wave, [PauliLabel.X], direction)
    assert np.allclose(wave.state.amps, expected.amps)


def test_e1_rejects_charlie():
    with pytest.raises(ValueError):
        e1_encode(Wave([fresh_register()]), [PauliLabel.X], Role.CHARLIE)


# ---------------------------------------------------------------------------
# E2: measurement


def test_e2_outcomes_satisfy_round_correlation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        [(a, b, c)] = e2_measure(Wave([fresh_register()]), SampleSource([rng]))
        assert isinstance(a, BellLabel)
        assert isinstance(b, BellLabel)
        assert a.phase_bit ^ b.phase_bit == 0
        assert a.parity_bit ^ b.parity_bit == c[0] ^ c[1]


def test_e2_rejects_bad_order():
    wave = Wave([fresh_register()])
    with pytest.raises(ValueError):
        e2_measure(wave, SampleSource([np.random.default_rng(0)]), order=("a", "a", "b"))


def test_e2_order_does_not_change_joint_distribution():
    plans = {}
    for order in (("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")):
        counts = {}
        rng = np.random.default_rng(7)
        for _ in range(400):
            [(a, b, c)] = e2_measure(Wave([fresh_register()]), SampleSource([rng]), order=order)
            counts[(c, a, b)] = counts.get((c, a, b), 0) + 1
        plans[order] = counts
    supports = [frozenset(counts) for counts in plans.values()]
    assert supports[0] == supports[1] == supports[2]


# ---------------------------------------------------------------------------
# E3: verification


def test_e3_frozen_examples():
    # Same Bell results with agreeing center bits: identity key.
    assert e3_verify(BellLabel.PSI_PLUS, BellLabel.PSI_PLUS, (0, 0), PauliLabel.I) is Decision.ACCEPT
    # Parity differs once more than the center bits explain: bit-flip key.
    assert e3_verify(BellLabel.PHI_PLUS, BellLabel.PSI_PLUS, (1, 1), PauliLabel.X) is Decision.ACCEPT


def test_e3_accepts_exactly_one_key_per_announcement():
    for a in BellLabel:
        for b in BellLabel:
            for c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                verdicts = [e3_verify(a, b, c, key) for key in PauliLabel]
                assert verdicts.count(Decision.ACCEPT) == 1


def test_e3_requires_all_announcements():
    with pytest.raises(ValueError):
        e3_verify(None, BellLabel.PHI_PLUS, (0, 0), PauliLabel.I)
    with pytest.raises(ValueError):
        e3_verify(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS, None, PauliLabel.I)


def test_e3_accepts_every_honest_branch_for_the_true_key():
    for key in PauliLabel:
        dist = oracle.exact_transcript_distribution(StrategyId.HONEST, key)
        for (c, a, b), prob in dist.items():
            if prob <= 1e-12:
                continue
            assert e3_verify(a, b, c, key) is Decision.ACCEPT
            for wrong in PauliLabel:
                if wrong is not key:
                    assert e3_verify(a, b, c, wrong) is Decision.REJECT


# ---------------------------------------------------------------------------
# full runs


def test_run_protocol_honest_accepts():
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=8)
    keys = [PauliLabel.I, PauliLabel.X, PauliLabel.Z, PauliLabel.IY]
    transcript = run_protocol(config, keys, StrategyId.HONEST)
    assert transcript.decision is Decision.ACCEPT
    assert transcript.decoy_error_rate == 0.0
    assert len(transcript.rounds) == 4
    for record in transcript.rounds:
        assert record.decision is Decision.ACCEPT
        assert record.decoy_error_rate == 0.0
        assert record.aborted_in is None
    assert [record.eve for record in transcript.rounds] == [None] * 4
    assert [record.inferred_key for record in transcript.rounds] == [None] * 4


def test_run_protocol_direction_bob():
    config = ProtocolConfig(rounds=3, decoys_per_sequence=1, direction=Role.BOB, seed=9)
    keys = [PauliLabel.Z] * 3
    assert run_protocol(config, keys, StrategyId.HONEST).decision is Decision.ACCEPT


def test_run_protocol_is_deterministic():
    config = ProtocolConfig(rounds=5, decoys_per_sequence=3, seed=10)
    keys = [PauliLabel.X] * 5
    first = run_protocol(config, keys, StrategyId.HONEST)
    second = run_protocol(config, keys, StrategyId.HONEST)
    assert first == second
    assert first.decision is second.decision


def test_run_protocol_seed_changes_transcript():
    keys = [PauliLabel.X] * 5
    a = run_protocol(ProtocolConfig(rounds=5, seed=1), keys, StrategyId.HONEST)
    b = run_protocol(ProtocolConfig(rounds=5, seed=2), keys, StrategyId.HONEST)
    records_a = [(r.c, r.a, r.b) for r in a.rounds]
    records_b = [(r.c, r.a, r.b) for r in b.rounds]
    assert records_a != records_b


def test_run_protocol_validates_keys():
    config = ProtocolConfig(rounds=2)
    with pytest.raises(ValueError):
        run_protocol(config, [PauliLabel.I], StrategyId.HONEST)
    with pytest.raises(ValueError):
        run_protocol(config, [PauliLabel.I, "X"], StrategyId.HONEST)


def test_run_protocol_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        run_protocol(ProtocolConfig(), [PauliLabel.I], "Eavesdrop")


def test_run_protocol_aborts_on_intercept_resend():
    # With 8 decoys per sequence a resend round survives with probability
    # (3/4)^16, so a handful of rounds all but guarantees an abort.
    config = ProtocolConfig(rounds=10, decoys_per_sequence=8, seed=12)
    keys = [PauliLabel.I] * 10
    transcript = run_protocol(config, keys, StrategyId.INTERCEPT_RESEND)
    assert transcript.decision is Decision.ABORT
    assert len(transcript.rounds) < 10
    last = transcript.rounds[-1]
    assert last.decision is Decision.ABORT
    assert last.aborted_in in (PhaseId.S1, PhaseId.S2)
    assert last.c is None and last.a is None and last.b is None
    assert last.decoy_error_rate > 0.0
    assert transcript.decoy_error_rate > 0.0


def test_run_protocol_abort_stops_at_first_failed_round():
    config = ProtocolConfig(rounds=6, decoys_per_sequence=8, seed=13)
    keys = [PauliLabel.Z] * 6
    transcript = run_protocol(config, keys, StrategyId.INTERCEPT_RESEND)
    assert transcript.decision is Decision.ABORT
    aborted = [r for r in transcript.rounds if r.decision is Decision.ABORT]
    assert len(aborted) == 1
    assert transcript.rounds[-1] is aborted[0]
    assert aborted[0].inferred_key is None


def test_run_protocol_premeasure_round_records():
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=14)
    keys = [PauliLabel.IY, PauliLabel.I, PauliLabel.X, PauliLabel.Z]
    transcript = run_protocol(config, keys, StrategyId.PRE_MEASURE)
    assert transcript.decision is Decision.ACCEPT
    assert [record.inferred_key for record in transcript.rounds] == keys
    for record in transcript.rounds:
        assert record.decoy_error_rate == 0.0
        assert record.c == record.eve.c_pre


# ---------------------------------------------------------------------------
# run_batch: waves of many runs


def run_lines(transcript):
    """A run as text, in the transcript-digest format plus the run's totals."""
    lines = [f"decision={transcript.decision.value} rate={transcript.decoy_error_rate!r}"]
    for i, rec in enumerate(transcript.rounds):
        decoys_text = ",".join(
            f"{d.owner.value[0]}{d.position}{d.basis.value}{d.prepared}{d.measured}"
            for d in rec.decoys
        )
        lines.append(
            f"{i} {rec.decision.value} {rec.aborted_in} c={rec.c} a={rec.a} b={rec.b} "
            f"rate={rec.decoy_error_rate!r} eve={rec.eve} "
            f"guess={rec.inferred_key} [{decoys_text}]"
        )
    return lines


BATCH_CASES = [
    (strategy, rounds, decoys, threshold, direction)
    for strategy in StrategyId
    for rounds, decoys, threshold in (
        (1, 0, 0.0), (1, 1, 0.0), (4, 1, 0.5), (4, 4, 0.0), (4, 4, 0.5)
    )
    for direction in (Role.ALICE, Role.BOB)
] + [(StrategyId.INTERCEPT_RESEND, 12, 1, 0.0, Role.ALICE)]


@pytest.mark.parametrize(
    "strategy, rounds, decoys, threshold, direction",
    BATCH_CASES,
    ids=[f"{c[0].value}-{c[1]}x{c[2]}-t{c[3]}-{c[4].value}" for c in BATCH_CASES],
)
def test_run_batch_equals_one_run_at_a_time(
    monkeypatch, strategy, rounds, decoys, threshold, direction
):
    config = ProtocolConfig(
        rounds=rounds,
        decoys_per_sequence=decoys,
        decoy_error_threshold=threshold,
        direction=direction,
    )
    rng = np.random.default_rng(rounds * 100 + decoys)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=12)]
    keys = [[list(PauliLabel)[int(k)] for k in rng.integers(0, 4, size=rounds)] for _ in seeds]
    shapes = []

    def encode(wave, *args):
        shapes.append(wave.state.amps.shape)
        return e1_encode(wave, *args)

    monkeypatch.setattr(protocol, "e1_encode", encode)
    batched = run_batch(config, seeds, keys, strategy)
    alone = [
        run_protocol(replace(config, seed=seed), run_keys, strategy)
        for seed, run_keys in zip(seeds, keys)
    ]
    assert [run_lines(run) for run in batched] == [run_lines(run) for run in alone]
    if strategy is StrategyId.INTERCEPT_RESEND and rounds > 1:
        # some row leaves the waves after round 1
        assert any(t.decision is Decision.ABORT and len(t.rounds) > 1 for t in alone)
    if rounds == 12:
        # some wave of several rows shrinks to one, which stays a batch: a
        # run alone whose round 0 passes then has rounds 1-2 in one wave,
        # left with one row when its round 1 passes and its round 2 aborts
        assert any(len(t.rounds) == 3 and t.decision is Decision.ABORT for t in alone)
        assert (1, 2**PROTOCOL_QUBITS) in shapes


def record_waves(monkeypatch):
    """Spy on run_batch's waves: returns the list that gets one list of
    (seed, round) pairs per wave, its rows in order, read off the streams
    p1_prepare is handed."""
    waves, pending = [], []
    real_prepare, real_wave = protocol.p1_prepare, protocol.Wave

    def prepare(config, rng):
        pending.append(tuple(rng.bit_generator.seed_seq.entropy))
        return real_prepare(config, rng)

    class SpiedWave(real_wave):
        def __init__(self, rows):
            assert len(rows) == len(pending)
            waves.append(pending[:])
            pending.clear()
            super().__init__(rows)

    monkeypatch.setattr(protocol, "p1_prepare", prepare)
    monkeypatch.setattr(protocol, "Wave", SpiedWave)
    return waves


REFERENCE_CASES = [
    (strategy, rounds, decoys, direction, runs)
    for strategy, rounds, decoys, direction in (
        (StrategyId.INTERCEPT_RESEND, 12, 1, Role.ALICE),
        (StrategyId.PRE_MEASURE, 16, 16, Role.ALICE),
        (StrategyId.PRE_MEASURE, 16, 16, Role.BOB),
        (StrategyId.HONEST, 4, 4, Role.BOB),
    )
    for runs in (1, 3, 64)
]


@pytest.mark.parametrize(
    "strategy, rounds, decoys, direction, runs",
    REFERENCE_CASES,
    ids=[f"{c[0].value}-{c[1]}x{c[2]}-{c[3].value}-{c[4]}runs" for c in REFERENCE_CASES],
)
def test_run_batch_equals_the_one_round_at_a_time_reference(
    monkeypatch, strategy, rounds, decoys, direction, runs
):
    config = ProtocolConfig(rounds=rounds, decoys_per_sequence=decoys, direction=direction)
    rng = np.random.default_rng(runs * 1000 + rounds)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=runs)]
    keys = [[list(PauliLabel)[int(k)] for k in rng.integers(0, 4, size=rounds)] for _ in seeds]
    waves = record_waves(monkeypatch)
    batched = run_batch(config, seeds, keys, strategy)
    monkeypatch.undo()
    alone = [
        reference.run_one_round_at_a_time(config, seed, run_keys, strategy)
        for seed, run_keys in zip(seeds, keys)
    ]
    assert [run_lines(run) for run in batched] == [run_lines(run) for run in alone]
    # The first wave holds round 0 of every run (k = 1).  A batch that
    # never aborts then gives its runs several rounds a wave (k > 1) when
    # WAVE_SIZE // runs allows it, and one round a wave when it does not.
    assert waves[0] == [(seed, 0) for seed in seeds]
    ks = [max(Counter(seed for seed, _ in wave).values()) for wave in waves]
    if strategy is not StrategyId.INTERCEPT_RESEND:
        assert (max(ks) > 1) == (WAVE_SIZE // runs > 1)
    else:
        # some run aborts inside a speculative window: rows of its later
        # rounds were prepared in the same wave and dropped
        recorded = sum(len(run.rounds) for run in batched)
        assert sum(map(len, waves)) > recorded


@pytest.mark.parametrize(
    "strategy, rounds, decoys, runs, sizes",
    [
        (StrategyId.PRE_MEASURE, 16, 16, 3, [3, 12, 33]),
        (StrategyId.HONEST, 200, 0, 1, [1, 2, 4, 8, 16, 32, 64, 64, 9]),
        (StrategyId.HONEST, 3, 0, 100, [64, 64, 64, 36, 36, 36]),
    ],
)
def test_waves_are_filled_with_the_next_rounds_of_the_live_runs(
    monkeypatch, strategy, rounds, decoys, runs, sizes
):
    config = ProtocolConfig(rounds=rounds, decoys_per_sequence=decoys)
    seeds = list(range(100, 100 + runs))
    waves = record_waves(monkeypatch)
    run_batch(config, seeds, [[PauliLabel.X] * rounds] * runs, strategy)
    assert [len(wave) for wave in waves] == sizes
    assert all(len(wave) <= WAVE_SIZE for wave in waves)
    for wave in waves:  # run-major, rounds rising within a run
        assert wave == sorted(wave, key=lambda row: (seeds.index(row[0]), row[1]))
    rows = [row for wave in waves for row in wave]
    assert sorted(rows) == sorted((seed, i) for seed in seeds for i in range(rounds))


@pytest.mark.parametrize("rounds, decoys, runs", [(12, 1, 12), (16, 4, 3), (16, 4, 64)])
def test_an_aborting_run_prepares_at_most_k_minus_one_rows_past_its_abort(
    monkeypatch, rounds, decoys, runs
):
    # A wave gives each run k of its rounds, at most (checked + 1) //
    # (aborts + 1) over the rows checked so far: 1 in the first wave.  A run
    # that aborts has at most k - 1 rows past its abort, all in the wave of
    # its aborted round.
    config = ProtocolConfig(rounds=rounds, decoys_per_sequence=decoys)
    seeds = list(range(500, 500 + runs))
    waves = record_waves(monkeypatch)
    keys = [[PauliLabel.I] * rounds] * runs
    transcripts = run_batch(config, seeds, keys, StrategyId.INTERCEPT_RESEND)
    last = {seed: len(run.rounds) - 1 for seed, run in zip(seeds, transcripts)}
    aborts = {(seed, last[seed]) for seed, run in zip(seeds, transcripts)
              if run.decision is Decision.ABORT}
    checked = aborted = 0
    for wave in waves:
        k = max(Counter(seed for seed, _ in wave).values())
        assert k <= (checked + 1) // (aborted + 1)
        met = [(seed, i) for seed, i in wave if i <= last[seed]]
        ended = [row for row in met if row in aborts]
        checked, aborted = checked + len(met), aborted + len(ended)
        for seed, i in ended:
            assert sum(s == seed and j > i for s, j in wave) <= k - 1
        assert all((seed, last[seed]) in ended for seed, i in wave if i > last[seed])
    rows = [row for wave in waves for row in wave]
    past = [(seed, i) for seed, i in rows if i > last[seed]]
    assert len(set(rows)) == len(rows)
    assert len(rows) - len(past) == sum(len(run.rounds) for run in transcripts)


def test_run_batch_validates_every_run():
    config = ProtocolConfig(rounds=2)
    keys = [PauliLabel.I, PauliLabel.X]
    with pytest.raises(protocol.FieldError):
        run_batch(config, [1, 2**64], [keys, keys], StrategyId.HONEST)
    with pytest.raises(ValueError):
        run_batch(config, [1, 2], [keys, keys[:1]], StrategyId.HONEST)
    with pytest.raises(ValueError):
        run_batch(config, [1, 2], [keys], StrategyId.HONEST)
    assert run_batch(config, [], [], StrategyId.HONEST) == []


# sha256 over rate.hex() of every run's decoy_error_rate and then every one
# of its rounds', one line per run, for run_batch of RATE_SEEDS at each
# (rounds, decoys, threshold) shape and strategy.  Recorded when the rates
# were stored fields that run_batch summed from s_check's mismatch counts.
RATE_SHAPES = ((1, 1, 0.0), (4, 4, 0.5), (16, 16, 0.0))
RATE_SEEDS = tuple(range(300, 312))
RATES_DIGEST = "055b0993b6ae64703ebff250bad0c1b9146a048b25ddcf323af78a0ce258cfcf"


def test_decoy_error_rates_match_recorded_digest():
    alphabet = list(PauliLabel)
    lines = []
    for strategy in StrategyId:
        for rounds, decoys, threshold in RATE_SHAPES:
            config = ProtocolConfig(
                rounds=rounds, decoys_per_sequence=decoys, decoy_error_threshold=threshold
            )
            keys = [
                [alphabet[int(j)] for j in np.random.default_rng(seed).integers(0, 4, size=rounds)]
                for seed in RATE_SEEDS
            ]
            for transcript in run_batch(config, list(RATE_SEEDS), keys, strategy):
                rates = [transcript.decoy_error_rate] + [
                    record.decoy_error_rate for record in transcript.rounds
                ]
                lines.append(" ".join(rate.hex() for rate in rates))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RATES_DIGEST


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
def test_round_records_carry_what_the_strategy_recorded(direction):
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, direction=direction)
    seeds = [21, 22, 23]
    keys = [[PauliLabel.IY, PauliLabel.Z, PauliLabel.I, PauliLabel.X]] * 3
    for transcript, run_keys in zip(
        run_batch(config, seeds, keys, StrategyId.PRE_MEASURE), keys
    ):
        for record, key in zip(transcript.rounds, run_keys):
            assert isinstance(record.eve, EveState)
            assert record.c == record.eve.c_pre
            assert record.inferred_key is key
    for strategy in (StrategyId.HONEST, StrategyId.INTERCEPT_RESEND):
        for transcript in run_batch(config, seeds, keys, strategy):
            for record in transcript.rounds:
                assert record.eve is None and record.inferred_key is None
