"""Tests for the protocol state machine: phases P1 through E3 and full runs."""

from dataclasses import replace

import numpy as np
import pytest

import reference
from sampling import SingleStateSource

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
    Decision,
    DecoyRecord,
    PhaseId,
    ProtocolConfig,
    Role,
    RoundRegister,
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
    assert register.state.n_qubits == PROTOCOL_QUBITS
    assert register.decoy_states == []
    assert register.decoy_meta == []
    assert register.alice_seq == [("q", A1), ("q", A2)]
    assert register.bob_seq == [("q", B1), ("q", B2)]
    # Independent reconstruction: the three-qubit resource state has
    # amplitude 1/2 on 001, 010, 100, 111; the register holds two copies.
    triple = np.zeros(8, dtype=complex)
    triple[[0b001, 0b010, 0b100, 0b111]] = 0.5
    expected = np.kron(triple, triple)
    assert np.allclose(register.state.amps, expected)


def test_p1_decoy_structure():
    register = fresh_register(decoys=2, seed=5)
    assert len(register.decoy_meta) == 4
    assert len(register.decoy_states) == 4
    owners = [m.owner for m in register.decoy_meta]
    assert owners.count(Role.ALICE) == 2
    assert owners.count(Role.BOB) == 2
    for seq, owner, qubits in (
        (register.alice_seq, Role.ALICE, (A1, A2)),
        (register.bob_seq, Role.BOB, (B1, B2)),
    ):
        assert len(seq) == 4
        sent_qubits = [payload for kind, payload in seq if kind == "q"]
        assert sent_qubits == list(qubits)
        for pos, (kind, payload) in enumerate(seq):
            if kind == "d":
                meta = register.decoy_meta[payload]
                assert meta.owner is owner
                assert meta.position == pos
                assert meta.measured is None
                label = register.decoy_states[payload]
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
def test_p1_decoy_index_layout(decoys):
    # run_protocol checks Alice's decoys as [0, d) and Bob's as [d, 2d).
    rng = np.random.default_rng(decoys)
    for _ in range(20):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=decoys), rng)
        for owner, seq, indices in (
            (Role.ALICE, register.alice_seq, range(decoys)),
            (Role.BOB, register.bob_seq, range(decoys, 2 * decoys)),
        ):
            metas = [register.decoy_meta[i] for i in indices]
            assert all(m.owner is owner for m in metas)
            positions = [m.position for m in metas]
            assert positions == sorted(set(positions))
            assert [seq[m.position] for m in metas] == [("d", i) for i in indices]
        assert len(register.decoy_meta) == 2 * decoys


def test_p1_is_deterministic_per_stream():
    first = p1_prepare(ProtocolConfig(decoys_per_sequence=3), np.random.default_rng(11))
    second = p1_prepare(ProtocolConfig(decoys_per_sequence=3), np.random.default_rng(11))
    assert first.alice_seq == second.alice_seq
    assert first.bob_seq == second.bob_seq
    assert first.decoy_meta == second.decoy_meta
    assert np.array_equal(first.state.amps, second.state.amps)


def test_p1_decoy_positions_cover_all_slots():
    seen = set()
    rng = np.random.default_rng(23)
    for _ in range(200):
        register = p1_prepare(ProtocolConfig(decoys_per_sequence=1), rng)
        for meta in register.decoy_meta:
            seen.add((meta.owner, meta.position, meta.basis, meta.prepared))
    # 1 decoy in 3 slots, 2 bases, 2 bits, both owners: all 24 combinations.
    assert len(seen) == 24


def test_p1_charlie_qubit_is_unbiased():
    register = fresh_register()
    dist = oracle.outcome_distribution(register.state, [((C1,), Basis.Z)])
    assert dist[(0,)] == pytest.approx(0.5)
    assert dist[(1,)] == pytest.approx(0.5)


def test_p1_registers_share_the_read_only_fresh_state():
    first, second = fresh_register(), fresh_register(decoys=2, seed=3)
    assert first.state.amps is second.state.amps is protocol._FRESH_STATE.amps
    assert not first.state.amps.flags.writeable
    before = first.state.amps.copy()
    config = ProtocolConfig(rounds=6, decoys_per_sequence=2, seed=12)
    for strategy in StrategyId:
        run_protocol(config, [PauliLabel.X] * 6, strategy)
    assert protocol._FRESH_STATE.amps is first.state.amps
    assert np.array_equal(first.state.amps, before)


# ---------------------------------------------------------------------------
# P2: transmission


def test_p2_honest_returns_none_and_leaves_state_alone():
    register = fresh_register(decoys=2, seed=1)
    before = register.state.amps.copy()
    decoys = list(register.decoy_states)
    source = SingleStateSource(np.random.default_rng(0))
    assert p2_transmit(register, StrategyId.HONEST, source, source.rng) is None
    assert np.array_equal(register.state.amps, before)
    assert register.decoy_states == decoys


def test_p2_premeasure_returns_eve_state():
    register = fresh_register()
    source = SingleStateSource(np.random.default_rng(3))
    eve = p2_transmit(register, StrategyId.PRE_MEASURE, source, None)
    assert isinstance(eve, EveState)
    assert eve.m_pre ^ eve.b_pre is BellLabel.from_bits(0, eve.c_pre[0] ^ eve.c_pre[1])


def test_p2_intercept_resend_returns_none():
    register = fresh_register(decoys=2, seed=1)
    rng = np.random.default_rng(4)
    wave = Wave(register.state, [register], [])
    assert p2_transmit(wave, StrategyId.INTERCEPT_RESEND, SampleSource([rng]), [rng]) is None


@pytest.mark.parametrize("strategy", ["PreMeasure", None, Decision.ACCEPT])
def test_p2_unknown_strategy_raises_before_touching_the_register(strategy):
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"register.{name} read")

    with pytest.raises(ValueError):
        p2_transmit(Untouchable(), strategy, Untouchable(), Untouchable())


@pytest.mark.parametrize("strategy", list(StrategyId))
def test_run_protocol_runs_p2_once_per_round_before_any_decoy_check(monkeypatch, strategy):
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=9)
    calls = []
    original = protocol.p2_transmit

    def counted(wave, *args):
        (register,) = wave.rows  # run_protocol is a batch of one run
        assert all(meta.measured is None for meta in register.decoy_meta)
        calls.append(register)
        return original(wave, *args)

    monkeypatch.setattr(protocol, "p2_transmit", counted)
    transcript, _, _ = run_protocol(config, [PauliLabel.X] * 4, strategy)
    assert len(calls) == len(transcript.rounds)
    assert [r.decoys for r in transcript.rounds] == [reg.decoy_meta for reg in calls]


# ---------------------------------------------------------------------------
# S1/S2: decoy checks


def test_s_check_honest_run_sees_no_errors():
    rng = np.random.default_rng(3)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=4), rng)
    mismatches, ok = s_check(register, range(len(register.decoy_meta)), 0.0, rng)
    assert mismatches == 0
    assert ok
    for meta in register.decoy_meta:
        assert meta.measured == meta.prepared


def test_s_check_flags_tampered_decoys():
    rng = np.random.default_rng(4)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
    # Flip every decoy to the orthogonal state of its own basis (the label's
    # bit).  Every check must then fail.
    for idx in range(len(register.decoy_meta)):
        register.decoy_states[idx] ^= 1
    mismatches, ok = s_check(register, range(len(register.decoy_meta)), 0.0, rng)
    assert mismatches == len(register.decoy_meta) == 4
    assert not ok


def test_s_check_threshold_tolerates_partial_errors():
    rng = np.random.default_rng(5)
    register = p1_prepare(ProtocolConfig(decoys_per_sequence=2), rng)
    register.decoy_states[0] ^= 1
    mismatches, ok = s_check(register, range(4), 0.25, rng)
    assert mismatches == 1
    assert ok
    # Checking in its own basis leaves decoy 0 flipped: the same single
    # mismatch in 4 fails just below a 1/4 threshold.
    assert s_check(register, range(4), np.nextafter(0.25, 0.0), rng) == (1, False)
    mismatches, strict = s_check(fresh_register(decoys=2, seed=5), [0], 0.0, rng)
    assert mismatches == 0
    assert strict


def test_s_check_empty_announcement_passes():
    register = fresh_register()
    mismatches, ok = s_check(register, [], 0.0, np.random.default_rng(0))
    assert mismatches == 0
    assert ok


def test_s_check_rejects_unknown_index():
    register = fresh_register(decoys=1, seed=0)
    with pytest.raises(ValueError):
        s_check(register, [99], 0.0, np.random.default_rng(0))
    # Indices are validated before any decoy is measured or any draw taken.
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        s_check(register, [0, 99], 0.0, rng)
    assert rng.bit_generator.state == before
    assert register.decoy_meta[0].measured is None


@pytest.mark.parametrize("announced", [[], [3], [5, 0, 7], range(8)])
def test_s_check_draws_once_per_announced_decoy(announced):
    config = ProtocolConfig(decoys_per_sequence=4)
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    register = p1_prepare(config, rng)
    untouched = p1_prepare(config, twin)
    s_check(register, announced, 0.0, rng)
    # The batched draw is the stream of one scalar draw per decoy, in
    # announcement order, and the bits are those the kernels give for it.
    for idx in announced:
        meta = untouched.decoy_meta[idx]
        measure = qsim.measure_z if meta.basis is Basis.Z else qsim.measure_x
        bit, _ = measure(decoy_state(untouched.decoy_states[idx]), 0, twin.random())
        assert register.decoy_meta[idx].measured == bit
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


def decoy_register(label):
    meta = DecoyRecord(Role.ALICE, 0, Basis.Z, 0)
    return RoundRegister(None, [label], [meta], [("d", 0)], [])


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
    expected = [KERNELS[basis](decoy_state(label), 0, draw) for draw in DRAWS]
    refuse_kernels(monkeypatch)
    coin = int(basis is Basis.X)
    for draw, (bit, post) in zip(DRAWS, expected):
        register = decoy_register(label)
        assert _measure_decoy(register, 0, coin, draw) == bit
        assert register.decoy_states[0] == 2 * coin + bit
        assert qsim.same_state(decoy_state(register.decoy_states[0]), post)
    with pytest.raises(ValueError):
        _measure_decoy(decoy_register(label), 0, coin, 1.0)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_intercepted_decoy_matches_the_kernel(basis):
    # Every history a decoy can have: prepared, intercepted in ``basis``,
    # then checked in its prepared basis.  Real states through the kernels
    # and labels through _measure_decoy pick the same bits for every draw.
    coin = int(basis is Basis.X)
    for label, (prepared, _) in enumerate(PREPARED):
        check_coin = int(prepared is Basis.X)
        for first in DRAWS:
            bit, state = KERNELS[basis](decoy_state(label), 0, first)
            register = decoy_register(label)
            assert _measure_decoy(register, 0, coin, first) == bit
            for second in DRAWS:
                checked, _ = KERNELS[prepared](state, 0, second)
                replay = decoy_register(register.decoy_states[0])
                assert _measure_decoy(replay, 0, check_coin, second) == checked


# ---------------------------------------------------------------------------
# E1: key encoding


def test_e1_identity_key_is_a_no_op():
    register = fresh_register()
    before = register.state.amps.copy()
    e1_encode(register, PauliLabel.I, Role.ALICE)
    assert np.array_equal(register.state.amps, before)


@pytest.mark.parametrize("direction,qubit", [(Role.ALICE, A1), (Role.BOB, B1)])
def test_e1_applies_key_to_first_qubit(direction, qubit):
    register = fresh_register()
    expected = qsim.apply_pauli(register.state.copy(), qubit, PauliLabel.X)
    e1_encode(register, PauliLabel.X, direction)
    assert np.allclose(register.state.amps, expected.amps)


def test_e1_rejects_charlie():
    with pytest.raises(ValueError):
        e1_encode(fresh_register(), PauliLabel.X, Role.CHARLIE)


# ---------------------------------------------------------------------------
# E2: measurement


def test_e2_outcomes_satisfy_round_correlation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        register = fresh_register()
        a, b, c = e2_measure(register, SingleStateSource(rng))
        assert isinstance(a, BellLabel)
        assert isinstance(b, BellLabel)
        assert a.phase_bit ^ b.phase_bit == 0
        assert a.parity_bit ^ b.parity_bit == c[0] ^ c[1]


def test_e2_rejects_bad_order():
    register = fresh_register()
    with pytest.raises(ValueError):
        e2_measure(register, SingleStateSource(np.random.default_rng(0)), order=("a", "a", "b"))


def test_e2_order_does_not_change_joint_distribution():
    plans = {}
    for order in (("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")):
        counts = {}
        rng = np.random.default_rng(7)
        for _ in range(400):
            register = fresh_register()
            a, b, c = e2_measure(register, SingleStateSource(rng), order=order)
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
    transcript, decision, report = run_protocol(config, keys, StrategyId.HONEST)
    assert decision is Decision.ACCEPT
    assert transcript.decision is Decision.ACCEPT
    assert transcript.decoy_error_rate == 0.0
    assert len(transcript.rounds) == 4
    for record in transcript.rounds:
        assert record.decision is Decision.ACCEPT
        assert record.decoy_error_rate == 0.0
        assert record.aborted_in is None
    assert report.strategy is StrategyId.HONEST
    assert report.eve_states == [None] * 4
    assert report.inferred_keys == [None] * 4


def test_run_protocol_direction_bob():
    config = ProtocolConfig(rounds=3, decoys_per_sequence=1, direction=Role.BOB, seed=9)
    keys = [PauliLabel.Z] * 3
    _, decision, _ = run_protocol(config, keys, StrategyId.HONEST)
    assert decision is Decision.ACCEPT


def test_run_protocol_is_deterministic():
    config = ProtocolConfig(rounds=5, decoys_per_sequence=3, seed=10)
    keys = [PauliLabel.X] * 5
    first = run_protocol(config, keys, StrategyId.HONEST)
    second = run_protocol(config, keys, StrategyId.HONEST)
    assert first[0] == second[0]
    assert first[1] is second[1]


def test_run_protocol_seed_changes_transcript():
    keys = [PauliLabel.X] * 5
    a = run_protocol(ProtocolConfig(rounds=5, seed=1), keys, StrategyId.HONEST)
    b = run_protocol(ProtocolConfig(rounds=5, seed=2), keys, StrategyId.HONEST)
    records_a = [(r.c, r.a, r.b) for r in a[0].rounds]
    records_b = [(r.c, r.a, r.b) for r in b[0].rounds]
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
    transcript, decision, _ = run_protocol(config, keys, StrategyId.INTERCEPT_RESEND)
    assert decision is Decision.ABORT
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
    transcript, decision, report = run_protocol(config, keys, StrategyId.INTERCEPT_RESEND)
    assert decision is Decision.ABORT
    aborted = [r for r in transcript.rounds if r.decision is Decision.ABORT]
    assert len(aborted) == 1
    assert transcript.rounds[-1] is aborted[0]
    assert len(report.inferred_keys) == len(transcript.rounds)


def test_run_protocol_premeasure_round_records():
    config = ProtocolConfig(rounds=4, decoys_per_sequence=2, seed=14)
    keys = [PauliLabel.IY, PauliLabel.I, PauliLabel.X, PauliLabel.Z]
    transcript, decision, report = run_protocol(config, keys, StrategyId.PRE_MEASURE)
    assert decision is Decision.ACCEPT
    assert report.inferred_keys == keys
    for record, eve in zip(transcript.rounds, report.eve_states):
        assert record.decoy_error_rate == 0.0
        assert record.c == eve.c_pre


# ---------------------------------------------------------------------------
# run_batch: waves of many runs


def run_lines(transcript, decision, report):
    """A run as text, in the transcript-digest format plus the run's totals."""
    lines = [f"decision={decision.value} rate={transcript.decoy_error_rate!r}"]
    for i, rec in enumerate(transcript.rounds):
        decoys_text = ",".join(
            f"{d.owner.value[0]}{d.position}{d.basis.value}{d.prepared}{d.measured}"
            for d in rec.decoys
        )
        lines.append(
            f"{i} {rec.decision.value} {rec.aborted_in} c={rec.c} a={rec.a} b={rec.b} "
            f"rate={rec.decoy_error_rate!r} eve={report.eve_states[i]} "
            f"guess={report.inferred_keys[i]} [{decoys_text}]"
        )
    return lines


BATCH_CASES = [
    (strategy, rounds, decoys, threshold, direction)
    for strategy in StrategyId
    for rounds, decoys, threshold in (
        (1, 0, 0.0), (1, 1, 0.0), (4, 1, 0.5), (4, 4, 0.0), (4, 4, 0.5)
    )
    for direction in (Role.ALICE, Role.BOB)
]


@pytest.mark.parametrize(
    "strategy, rounds, decoys, threshold, direction",
    BATCH_CASES,
    ids=[f"{c[0].value}-{c[1]}x{c[2]}-t{c[3]}-{c[4].value}" for c in BATCH_CASES],
)
def test_run_batch_equals_one_run_at_a_time(strategy, rounds, decoys, threshold, direction):
    config = ProtocolConfig(
        rounds=rounds,
        decoys_per_sequence=decoys,
        decoy_error_threshold=threshold,
        direction=direction,
    )
    rng = np.random.default_rng(rounds * 100 + decoys)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=12)]
    keys = [[list(PauliLabel)[int(k)] for k in rng.integers(0, 4, size=rounds)] for _ in seeds]
    batched = run_batch(config, seeds, keys, strategy)
    alone = [
        run_protocol(replace(config, seed=seed), run_keys, strategy)
        for seed, run_keys in zip(seeds, keys)
    ]
    assert [run_lines(*run) for run in batched] == [run_lines(*run) for run in alone]
    if strategy is StrategyId.INTERCEPT_RESEND and rounds > 1:
        # some row leaves the waves after round 1
        assert any(d is Decision.ABORT and len(t.rounds) > 1 for t, d, _ in alone)


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
