"""Tests for the protocol state machine: phases P1 through E3 and full runs."""

import hashlib
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

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
    _DECOY_CUT,
    _DECOY_PROBS,
    Decision,
    DecoyRecord,
    PhaseId,
    ProtocolConfig,
    Role,
    RoundRecord,
    SampleSource,
    Wave,
    _RowStream,
    _measure_decoys,
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


def row_stream(seed):
    """The program's stream for one row on PCG64(seed): it draws what
    ``np.random.default_rng(seed)`` draws."""
    return _RowStream(np.random.PCG64(seed))


def fresh_register(decoys=0, seed=0):
    config = ProtocolConfig(rounds=1, decoys_per_sequence=decoys, seed=seed)
    rng = row_stream(seed) if decoys else None
    return p1_prepare(config, rng)


def sequences(register):
    """Alice's and Bob's sequences rebuilt from the register's positions:
    each slot holds a protocol qubit's index, or ("decoy", i) for the
    decoy at row index i; the protocol qubits fill the free slots in order."""
    d = len(register.positions) // 2
    rebuilt = []
    for first, qubits in ((0, [A1, A2]), (d, [B1, B2])):
        seq = [None] * (d + 2)
        for i in range(first, first + d):
            assert seq[register.positions[i]] is None
            seq[register.positions[i]] = ("decoy", i)
        free = iter(qubits)
        rebuilt.append([next(free) if slot is None else slot for slot in seq])
    return rebuilt


def mismatches(register, owned=slice(None)):
    """Checked decoys of the register (in ``owned``) whose outcome differs from P1's bit."""
    return sum(m != p for m, p in zip(register.measured[owned], register.prepared[owned]))


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
    assert register == RoundRecord([], [], [], [])
    assert sequences(register) == [[A1, A2], [B1, B2]]
    # Independent reconstruction: the three-qubit resource state has
    # amplitude 1/2 on 001, 010, 100, 111; the register holds two copies.
    triple = np.zeros(8, dtype=complex)
    triple[[0b001, 0b010, 0b100, 0b111]] = 0.5
    expected = np.kron(triple, triple)
    assert np.allclose(state.amps, expected)


@pytest.mark.parametrize("decoys", [0, 2])
def test_p1_record_refuses_to_report_unchecked_decoys(decoys):
    # Until S1/S2 measure them the decoys have no outcomes to report, with
    # or without decoys in the round.
    record = fresh_register(decoys)
    with pytest.raises(ValueError, match="never checked"):
        record.decoys
    with pytest.raises(ValueError, match="never checked"):
        record.decoy_error_rate


def test_p1_decoy_structure():
    register = fresh_register(decoys=2, seed=5)
    for values in (register.positions, register.coins, register.prepared, register.labels):
        assert len(values) == 4  # Alice's two decoys, then Bob's two
    assert register.measured is None
    for seq, qubits in zip(sequences(register), ((A1, A2), (B1, B2))):
        assert len(seq) == 4
        sent_qubits = [slot for slot in seq if type(slot) is int]
        assert sent_qubits == list(qubits)
        for pos, slot in enumerate(seq):
            if type(slot) is tuple:
                i = slot[1]
                assert register.positions[i] == pos
                basis = (Basis.Z, Basis.X)[register.coins[i]]
                label = register.labels[i]
                assert label == 2 * (basis is Basis.X) + register.prepared[i]
                expected = reference.KET[
                    {
                        (Basis.Z, 0): "0",
                        (Basis.Z, 1): "1",
                        (Basis.X, 0): "+",
                        (Basis.X, 1): "-",
                    }[(basis, register.prepared[i])]
                ]
                assert np.allclose(decoy_state(label).amps, expected)


@pytest.mark.parametrize("decoys", [1, 2, 5, 16])
def test_p1_decoy_slot_layout(decoys):
    # Each sequence carries its owner's two protocol qubits in order and d
    # decoys, each in the slot its position names.
    rng = row_stream(decoys)
    for _ in range(20):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=decoys), rng)
        assert len(register.positions) == 2 * decoys
        for seq, qubits, owned in zip(
            sequences(register), ([A1, A2], [B1, B2]), (range(decoys), range(decoys, 2 * decoys))
        ):
            assert len(seq) == decoys + 2
            assert [slot for slot in seq if type(slot) is int] == qubits
            positions = [register.positions[i] for i in owned]
            assert positions == sorted(set(positions))
            assert all(seq[register.positions[i]] == ("decoy", i) for i in owned)


def test_p1_is_deterministic_per_stream():
    first = p1_prepare(ProtocolConfig(decoys_per_sequence=3), row_stream(11))
    second = p1_prepare(ProtocolConfig(decoys_per_sequence=3), row_stream(11))
    assert first == second


def test_p1_decoy_positions_cover_all_slots():
    seen = set()
    rng = row_stream(23)
    for _ in range(200):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=1), rng)
        for owner, pos, coin, bit in zip(
            (Role.ALICE, Role.BOB), register.positions, register.coins, register.prepared
        ):
            seen.add((owner, pos, coin, bit))
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
    decoys = list(register.labels)
    source = SampleSource([row_stream(0)])
    assert p2_transmit(wave, StrategyId.HONEST, source) is None
    assert np.array_equal(wave.state.amps, before)
    assert register.labels == decoys


def test_p2_premeasure_returns_eve_state():
    wave = Wave([fresh_register()])
    source = SampleSource([row_stream(3)])
    (eve,) = p2_transmit(wave, StrategyId.PRE_MEASURE, source)
    assert isinstance(eve, EveState)
    assert eve.m_pre ^ eve.b_pre is BellLabel.from_bits(0, eve.c_pre[0] ^ eve.c_pre[1])


def test_p2_intercept_resend_returns_none():
    register = fresh_register(decoys=2, seed=1)
    rng = row_stream(4)
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
    # of its decoys is measured: all four rounds in one wave when no round
    # can abort, and one round a wave under InterceptResend, whose rounds
    # here abort with probability 0.68 (cap 1).
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=9)
    calls, rows = [], []
    original = protocol.p2_transmit

    def counted(wave, *args):
        for register in wave.rows:
            assert register.measured is None
            rows.append(register)
        calls.append(len(wave.rows))
        return original(wave, *args)

    monkeypatch.setattr(protocol, "p2_transmit", counted)
    transcript = run_protocol(config, [PauliLabel.X] * 4, strategy)
    if strategy is StrategyId.INTERCEPT_RESEND:
        assert calls == [1] * len(calls)
    else:
        assert calls == [4]
    assert sum(calls) >= len(transcript.rounds)
    # P1's records are the transcript's, the same objects
    assert list(map(id, transcript.rounds)) == list(map(id, rows[: len(transcript.rounds)]))


@pytest.mark.parametrize("strategy", list(StrategyId))
def test_round_records_hold_the_decoys_in_their_sequences(monkeypatch, strategy):
    # Every RoundRecord.decoys entry equals its row's lists at its index,
    # Alice's then Bob's in rising position, each in a slot of its owner's
    # sequence, aborted rounds included.  Rows are found by their (seed,
    # round) streams, since a run that aborts leaves its later rows in the
    # wave prepared but unrecorded.
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
            assert rec is row
            expected = [
                DecoyRecord(Role.ALICE if j < 3 else Role.BOB, *fields)
                for j, fields in enumerate(zip(
                    row.positions, [(Basis.Z, Basis.X)[c] for c in row.coins],
                    row.prepared, row.labels, row.measured,
                ))
            ]
            assert rec.decoys == expected
            for j, decoy in enumerate(rec.decoys):
                seq = sequences(row)[decoy.owner is Role.BOB]
                assert seq[decoy.position] == ("decoy", j)


# ---------------------------------------------------------------------------
# S1/S2: decoy checks


def check_both(register, threshold, rng):
    """S1 then S2 on every decoy of the register, with one batch of draws as
    run_batch takes them: (total mismatches, both pass)."""
    phase = s_check(register, rng.draws(len(register.labels)), threshold)
    return mismatches(register), phase is None


def test_s_check_honest_run_sees_no_errors():
    rng = row_stream(3)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    mismatched, ok = check_both(register, 0.0, rng)
    assert mismatched == 0
    assert ok
    assert register.measured == register.prepared


def test_s_check_flags_tampered_decoys():
    rng = row_stream(4)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
    # Flip every decoy to the orthogonal state of its own basis (the label's
    # bit).  Every check must then fail.
    register.labels = [label ^ 1 for label in register.labels]
    mismatched, ok = check_both(register, 0.0, rng)
    assert mismatched == len(register.labels) == 4
    assert not ok


def test_s_check_threshold_tolerates_partial_errors():
    rng = row_stream(5)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    register.labels[0] ^= 1  # Alice's first decoy
    assert s_check(register, rng.draws(8), 0.25) is None
    assert mismatches(register, slice(0, 4)) == 1
    # Checking in its own basis leaves the first decoy flipped: the same
    # single mismatch in 4 fails S1 just below a 1/4 threshold.
    below = np.nextafter(0.25, 0.0)
    assert s_check(register, rng.draws(8), below) is PhaseId.S1
    assert mismatches(register, slice(0, 4)) == 1
    # The same flip in Bob's sequence fails S2, after S1 passes.
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    register.labels[4] ^= 1
    assert s_check(register, rng.draws(8), below) is PhaseId.S2
    assert s_check(register, rng.draws(8), 0.25) is None
    other = fresh_register(decoys=2, seed=5)
    strict = s_check(other, rng.draws(4), 0.0)
    assert mismatches(other) == 0
    assert strict is None


def test_s_check_empty_announcement_passes():
    register = fresh_register()
    assert s_check(register, [], 0.0) is None
    assert register.measured == []


@pytest.mark.parametrize("draws", [0, 1, 3])
def test_s_check_rejects_draws_not_one_per_decoy(draws):
    # The draws are checked before any decoy is measured.
    register = fresh_register(decoys=1, seed=0)
    labels = list(register.labels)
    with pytest.raises(ValueError):
        s_check(register, [0.5] * draws, 0.0)
    assert register.measured is None
    assert register.labels == labels


@pytest.mark.parametrize("decoys", [0, 1, 4, 16])
@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.INTERCEPT_RESEND])
def test_s_check_draws_once_per_announced_decoy(decoys, strategy):
    config = ProtocolConfig(decoys_per_sequence=decoys)
    rng, twin = row_stream(31), row_stream(31)
    register = p1_prepare(config, rng)
    untouched = p1_prepare(config, twin)
    for row, stream in ((register, rng), (untouched, twin)):
        p2_transmit(Wave([row]), strategy, SampleSource([stream]))
    s_check(register, rng.draws(2 * decoys), 0.0)
    # The batched draw is the stream of one scalar draw per decoy, in row
    # order, and the bits are those the kernels give for it.
    for i, (label, coin) in enumerate(zip(untouched.labels, untouched.coins)):
        measure = qsim.measure_x if coin else qsim.measure_z
        (bit,), _ = measure(decoy_state(label), 0, twin.draws(1))
        assert register.measured[i] == bit
    assert rng.draws(4) == twin.draws(4)  # both streams stand at the same word


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


def measure_one(label, coin, draw):
    """One decoy of ``label`` measured in basis ``coin`` by the protocol's
    table: (bit, collapsed label)."""
    row = RoundRecord([0], [0], [0], [label])
    (bit,) = _measure_decoys(row, [coin], [draw])
    return bit, row.labels[0]


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
        got, collapsed = measure_one(label, coin, draw)
        assert got == bit
        assert collapsed == 2 * coin + bit
        assert reference.same_state(decoy_state(collapsed), post)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_intercepted_decoy_matches_the_kernel(basis):
    # Every history a decoy can have: prepared, intercepted in ``basis``,
    # then checked in its prepared basis.  Real states through the kernels
    # and labels through the table pick the same bits for every draw.
    coin = int(basis is Basis.X)
    for label, (prepared, _) in enumerate(PREPARED):
        check_coin = int(prepared is Basis.X)
        for first in DRAWS:
            (bit,), state = KERNELS[basis](decoy_state(label), 0, [first])
            got, left = measure_one(label, coin, first)
            assert got == bit
            for second in DRAWS:
                (checked,), _ = KERNELS[prepared](state, 0, [second])
                assert measure_one(left, check_coin, second)[0] == checked


def test_decoy_cuts_follow_the_kernels_selection_rule():
    # Every (label, coin) cell: the table's cut selects the outcome
    # qsim._pick selects from the cell's probabilities, at and around p0.
    for label, row in enumerate(_DECOY_PROBS):
        for coin, probs in enumerate(row):
            p0 = probs[0]
            draws = [0.0, np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0), 0.5, 1.0 - 2**-53]
            for u in (float(u) for u in draws):
                if 0.0 <= u < 1.0:
                    assert int(u >= _DECOY_CUT[label][coin]) == qsim._pick(probs, u)
            with pytest.raises(ValueError):
                qsim._pick(probs, 1.0)  # _pick keeps its range check


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
    expected = qsim.apply_pauli(reference.copy_state(wave.state), qubit, PauliLabel.X)
    e1_encode(wave, [PauliLabel.X], direction)
    assert np.allclose(wave.state.amps, expected.amps)


def test_e1_rejects_charlie():
    with pytest.raises(ValueError):
        e1_encode(Wave([fresh_register()]), [PauliLabel.X], Role.CHARLIE)


# ---------------------------------------------------------------------------
# E2: measurement


def test_e2_outcomes_satisfy_round_correlation():
    rng = row_stream(6)
    for _ in range(50):
        [(a, b, c)] = e2_measure(Wave([fresh_register()]), SampleSource([rng]))
        assert isinstance(a, BellLabel)
        assert isinstance(b, BellLabel)
        assert a.phase_bit ^ b.phase_bit == 0
        assert a.parity_bit ^ b.parity_bit == c[0] ^ c[1]


def test_e2_order_does_not_change_joint_distribution():
    # E2's walk takes the parties' turns a, b, c; any other order gives the
    # same support.
    plans = {}
    for order in (("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")):
        counts = {}
        rng = row_stream(7)
        for _ in range(400):
            wave, source = Wave([fresh_register()]), SampleSource([rng])
            [(a, b, c)] = protocol._measure_parties(wave, source, order)
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


def test_run_batch_rejects_an_unknown_strategy_before_any_round():
    # An unhashable one too: the strategy is checked before the memoised
    # abort probability is looked up, and before any round is prepared.
    for strategy in ("Eavesdrop", ["Eavesdrop"]):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_batch(ProtocolConfig(), [], [], strategy)


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
# abort_probability: the exact per-round abort chance that sizes the waves


@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
@pytest.mark.parametrize("decoys, threshold", [(0, 0.0), (1, 0.0), (16, 0.25)])
def test_abort_probability_is_zero_when_no_decoy_is_disturbed(strategy, decoys, threshold):
    for p in (
        protocol.abort_probability(strategy, decoys, threshold),
        protocol.abort_probability(StrategyId.INTERCEPT_RESEND, 0, threshold),
    ):
        assert p == 0.0 and type(p) is float


def test_abort_probability_under_intercept_resend():
    # Each decoy's check misses P1's bit with probability 1/4, so at
    # threshold 0 a round passes only if all 2d decoys match.
    ir = StrategyId.INTERCEPT_RESEND
    assert abs(protocol.abort_probability(ir, 1, 0.0) - 7 / 16) <= 1e-15
    assert abs(protocol.abort_probability(ir, 4, 0.0) - (1 - (3 / 4) ** 8)) <= 1e-15
    for decoys in (1, 4, 16):  # every mismatch count passes threshold 1
        assert protocol.abort_probability(ir, decoys, 1.0) == 0.0


@pytest.mark.parametrize("decoys, threshold", [(3, 1 / 3), (16, 0.25), (1100, 0.25)])
def test_abort_probability_matches_exact_rationals(decoys, threshold):
    # The binomial sum in exact arithmetic at q = 1/4, over integers (one
    # term is comb(d, m) 3^(d - m) / 4^d); at 1100 decoys comb(d, m) no
    # longer fits a float.
    fail = Fraction(sum(
        math.comb(decoys, m) * 3 ** (decoys - m)
        for m in range(decoys + 1)
        if not m / decoys <= threshold
    ), 4**decoys)
    expected = 1 - (1 - fail) ** 2
    p = protocol.abort_probability(StrategyId.INTERCEPT_RESEND, decoys, threshold)
    assert abs(p - float(expected)) <= 1e-12


def test_run_batch_runs_a_round_of_many_decoys():
    config = ProtocolConfig(decoys_per_sequence=1100)
    (transcript,) = run_batch(config, [1], [[PauliLabel.I]], StrategyId.INTERCEPT_RESEND)
    assert transcript.decision is Decision.ABORT


@pytest.mark.parametrize("decoys", [1, 2, 4])
@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_abort_probability_matches_sampled_rounds(monkeypatch, decoys, threshold):
    config = ProtocolConfig(decoys_per_sequence=decoys, decoy_error_threshold=threshold)
    runs = 4000
    seeds = list(range(7000, 7000 + runs))
    transcripts = run_batch(config, seeds, [[PauliLabel.I]] * runs, StrategyId.INTERCEPT_RESEND)
    aborts = sum(t.decision is Decision.ABORT for t in transcripts)
    monkeypatch.setattr(oracle, "_WILSON_Z", 5.0)
    low, high = oracle.wilson_interval(aborts, runs)
    assert low <= protocol.abort_probability(StrategyId.INTERCEPT_RESEND, decoys, threshold) <= high


def test_abort_probability_is_memoised():
    args = (StrategyId.INTERCEPT_RESEND, 3, 1 / 3)
    first = protocol.abort_probability(*args)
    hits = protocol.abort_probability.cache_info().hits
    assert protocol.abort_probability(*args) is first
    assert protocol.abort_probability.cache_info().hits == hits + 1


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


# The InterceptResend cases at threshold 1/4 can land a sequence's
# mismatch rate exactly on the threshold, where the check still passes.
REFERENCE_CASES = [
    (strategy, rounds, decoys, threshold, direction, runs)
    for strategy, rounds, decoys, threshold, direction in (
        (StrategyId.INTERCEPT_RESEND, 12, 1, 0.0, Role.ALICE),
        (StrategyId.INTERCEPT_RESEND, 4, 4, 0.25, Role.ALICE),
        (StrategyId.INTERCEPT_RESEND, 16, 16, 0.25, Role.BOB),
        (StrategyId.PRE_MEASURE, 16, 16, 0.0, Role.ALICE),
        (StrategyId.PRE_MEASURE, 16, 16, 0.0, Role.BOB),
        (StrategyId.HONEST, 4, 4, 0.0, Role.BOB),
    )
    for runs in (1, 3, 64)
]


def wave_cap(strategy, rounds, decoys, threshold):
    """The most rounds run_batch gives one run in a wave: about the expected
    run length 1 / p for the round's abort probability p, all its rounds
    when p is 0."""
    p = protocol.abort_probability(strategy, decoys, threshold)
    return max(1, int(1 / p)) if p else rounds


def reference_case_id(case):
    strategy, rounds, decoys, threshold, direction, runs = case
    shape = f"{strategy.value}-{rounds}x{decoys}"
    if threshold:
        shape += f"-t{threshold}"
    return f"{shape}-{direction.value}-{runs}runs"


@pytest.mark.parametrize(
    "strategy, rounds, decoys, threshold, direction, runs",
    REFERENCE_CASES,
    ids=[reference_case_id(c) for c in REFERENCE_CASES],
)
def test_run_batch_equals_the_one_round_at_a_time_reference(
    monkeypatch, strategy, rounds, decoys, threshold, direction, runs
):
    config = ProtocolConfig(
        rounds=rounds,
        decoys_per_sequence=decoys,
        decoy_error_threshold=threshold,
        direction=direction,
    )
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
    # Each wave gives its runs at most k rounds each: max(1, WAVE_SIZE //
    # live runs), capped by the config alone, so the first wave holds the
    # first k rounds of every run.  A batch that never aborts gives its runs
    # several rounds a wave (k > 1) when WAVE_SIZE // runs allows it, and
    # one round a wave when it does not.
    cap = wave_cap(strategy, rounds, decoys, threshold)
    k = min(max(1, WAVE_SIZE // runs), cap)
    assert waves[0] == [(seed, i) for seed in seeds for i in range(k)]
    ks = [max(Counter(seed for seed, _ in wave).values()) for wave in waves]
    for wave, wave_k in zip(waves, ks):
        assert wave_k <= min(max(1, WAVE_SIZE // len({seed for seed, _ in wave})), cap)
    if strategy is not StrategyId.INTERCEPT_RESEND:
        assert (max(ks) > 1) == (WAVE_SIZE // runs > 1)
    elif not threshold:
        # An aborting run has at most cap - 1 rows prepared past its abort.
        # With several runs some run aborts inside a speculative window, so
        # rows of its later rounds were prepared in the same wave and
        # dropped; the run alone aborts in round 1, the last row of its
        # first two-round wave.
        recorded = sum(len(run.rounds) for run in batched)
        dropped = sum(map(len, waves)) - recorded
        aborted = sum(run.decision is Decision.ABORT for run in batched)
        assert dropped <= (cap - 1) * aborted
        assert (dropped > 0) == (runs > 1)
    elif runs == WAVE_SIZE:
        # some sequence's mismatch rate lands on the threshold and passes
        assert any(
            rec.aborted_in is None and threshold in sequence_rates(rec)
            for run in batched
            for rec in run.rounds
        )


def sequence_rates(record):
    """Alice's and Bob's decoy mismatch rates in a round record."""
    return [
        sum(d.measured != d.prepared for d in owned) / len(owned)
        for owner in (Role.ALICE, Role.BOB)
        for owned in [[d for d in record.decoys if d.owner is owner]]
    ]


@pytest.mark.parametrize(
    "strategy, rounds, decoys, runs, sizes",
    [
        (StrategyId.PRE_MEASURE, 16, 16, 3, [48]),
        (StrategyId.HONEST, 200, 0, 1, [64, 64, 64, 8]),
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


def test_rows_dropped_past_an_abort_stay_undecided(monkeypatch):
    # P1's record is the round's only record: a row prepared past its run's
    # abort keeps decision None and is in no transcript, and every record a
    # transcript holds is decided.  One decoy per sequence at threshold 0
    # aborts a round with probability 7/16, so runs get two rounds a wave.
    prepared = []
    original = protocol.p1_prepare

    def recorded(config, rng):
        prepared.append(original(config, rng))
        return prepared[-1]

    monkeypatch.setattr(protocol, "p1_prepare", recorded)
    config = ProtocolConfig(rounds=16, decoys_per_sequence=1)
    master = np.random.default_rng(5)  # three runs, drawn as the cli draws them
    seeds, keys = [], []
    for _ in range(3):
        seeds.append(int(master.integers(0, 2**63)))
        keys.append([list(PauliLabel)[int(k)] for k in master.integers(0, 4, size=16)])
    transcripts = run_batch(config, seeds, keys, StrategyId.INTERCEPT_RESEND)
    held = {id(rec) for t in transcripts for rec in t.rounds}
    assert all(rec.decision is not None for t in transcripts for rec in t.rounds)
    dropped = [rec for rec in prepared if id(rec) not in held]
    assert dropped  # the batch did prepare rows past some run's abort
    for rec in dropped:
        assert rec.decision is None and rec.aborted_in is None
        assert rec.c is rec.a is rec.b is rec.inferred_key is None
        assert rec.measured is None  # never checked
        with pytest.raises(ValueError, match="never checked"):
            rec.decoys
        with pytest.raises(ValueError, match="never checked"):
            rec.decoy_error_rate


@pytest.mark.parametrize(
    "rounds, decoys, runs, cap", [(12, 1, 12, 2), (16, 4, 3, 1), (16, 4, 64, 1)]
)
def test_an_aborting_run_prepares_at_most_k_minus_one_rows_past_its_abort(
    monkeypatch, rounds, decoys, runs, cap
):
    # A wave gives each run k of its rounds, at most the config's cap: 2 for
    # one decoy per sequence (abort probability 7/16), 1 for four (0.90).  A
    # run that aborts has at most k - 1 rows past its abort, all in the wave
    # of its aborted round.
    assert wave_cap(StrategyId.INTERCEPT_RESEND, rounds, decoys, 0.0) == cap
    config = ProtocolConfig(rounds=rounds, decoys_per_sequence=decoys)
    seeds = list(range(500, 500 + runs))
    waves = record_waves(monkeypatch)
    keys = [[PauliLabel.I] * rounds] * runs
    transcripts = run_batch(config, seeds, keys, StrategyId.INTERCEPT_RESEND)
    last = {seed: len(run.rounds) - 1 for seed, run in zip(seeds, transcripts)}
    aborts = {(seed, last[seed]) for seed, run in zip(seeds, transcripts)
              if run.decision is Decision.ABORT}
    for wave in waves:
        k = max(Counter(seed for seed, _ in wave).values())
        assert k <= cap
        ended = [row for row in wave if row in aborts]
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
