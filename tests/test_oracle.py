"""Tests for the analysis oracle: branch enumeration, the swapping tables,
exact transcript distributions, and the statistics helpers."""

import hashlib
import itertools

import numpy as np
import pytest
import reference

from qauthsim import oracle, protocol, qsim
from qauthsim.adversary import StrategyId
from qauthsim.oracle import (
    BranchSource,
    enumerate_branches,
    exact_transcript_distribution,
    pauli_bell_map,
    sampled_rates,
    swap_table,
    tv_distance,
    wilson_interval,
)
from qauthsim.protocol import ProtocolConfig, Role, run_protocol
from qauthsim.qsim import Basis, BellLabel, PauliLabel


# ---------------------------------------------------------------------------
# branch enumeration


def test_enumerate_pipeline_without_measurements():
    branches = list(enumerate_branches(lambda source: "done"))
    assert branches == [("done", 1.0)]


def test_enumerate_single_qubit_split():
    def pipeline(source):
        (bit,), _ = source.measure_z(qsim.init_product(["+"]), 0)
        return bit

    branches = dict(enumerate_branches(pipeline))
    assert set(branches) == {0, 1}
    assert branches[0] == pytest.approx(0.5)
    assert branches[1] == pytest.approx(0.5)


def test_enumerate_skips_dead_branches():
    def pipeline(source):
        (bit,), _ = source.measure_z(qsim.init_product(["0"]), 0)
        return bit

    assert list(enumerate_branches(pipeline)) == [(0, 1.0)]


def test_enumerate_nested_probabilities_sum_to_one():
    def pipeline(source):
        state = qsim.init_product(["+", "0", "+"])
        state = qsim.apply_cnot(state, 0, 1)
        (b0,), state = source.measure_z(state, 0)
        (b1,), state = source.measure_x(state, 1)
        (b2,), state = source.measure_z(state, 2)
        return (b0, b1, b2)

    branches = list(enumerate_branches(pipeline))
    assert sum(p for _, p in branches) == pytest.approx(1.0, abs=1e-12)
    outcomes = [result for result, _ in branches]
    assert len(outcomes) == len(set(outcomes))


def test_enumerate_matches_outcome_distribution():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        state = qsim.StateVector(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        state = qsim.StateVector(n, state.amps / reference.norm(state))
        qubits = list(rng.permutation(n)[:2])

        def pipeline(source, state=state, qubits=qubits):
            (b0,), post = source.measure_z(state, qubits[0])
            (b1,), _ = source.measure_x(post, qubits[1])
            return (b0,), (b1,)

        enumerated = {}
        for (z_bit, x_bit), prob in enumerate_branches(pipeline):
            enumerated[z_bit + x_bit] = enumerated.get(z_bit + x_bit, 0.0) + prob
        expected = reference.joint_distribution(
            state.amps,
            [reference.z_projectors(qubits[0], n), reference.x_projectors(qubits[1], n)],
        )
        for key, prob in expected.items():
            assert enumerated.get(key, 0.0) == pytest.approx(prob, abs=1e-9)


@pytest.mark.parametrize(
    "plan",
    [
        [((0,), Basis.BELL)],
        [((0, 1), Basis.Z)],
        [((2,), Basis.X)],
        [((0,), Basis.Z), ((0, 1), Basis.BELL)],
    ],
)
def test_outcome_distribution_rejects_bad_plans_before_measuring(monkeypatch, plan):
    def refuse(script):
        raise AssertionError("enumerated a bad plan")

    monkeypatch.setattr(oracle, "BranchSource", refuse)
    with pytest.raises(ValueError):
        oracle.outcome_distribution(qsim.init_product(["0", "0"]), plan)


def test_outcome_distribution_runs_on_enumerate_branches(monkeypatch):
    paths = []

    class Recording(BranchSource):
        def __init__(self, script):
            super().__init__(script)
            paths.append(self.taken)

    monkeypatch.setattr(oracle, "BranchSource", Recording)
    plan = [((0,), Basis.Z), ((1,), Basis.Z)]
    dist = oracle.outcome_distribution(reference.bell_pair(BellLabel.PHI_PLUS), plan)
    assert dist == {
        (0, 0): pytest.approx(0.5),
        (0, 1): 0.0,
        (1, 0): 0.0,
        (1, 1): pytest.approx(0.5),
    }
    # One pass per live leaf: the second Z has a single live outcome.
    assert paths == [[0, 0], [1, 0]]


def test_branch_source_records_its_path():
    def pipeline(source):
        state = qsim.init_product(["+", "+"])
        (b0,), state = source.measure_z(state, 0)
        (b1,), state = source.measure_z(state, 1)
        return (b0, b1)

    source = BranchSource([1, 0])
    result = pipeline(source)
    assert result == (1, 0)
    assert source.taken == [1, 0]
    assert source.counts == [2, 2]
    assert source.probability == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# swapping tables


def test_swap_table_identity_inputs():
    joint = swap_table(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
    live = {pair: p for pair, p in joint.items() if p > 1e-12}
    assert set(live) == {(label, label) for label in BellLabel}
    for prob in live.values():
        assert prob == pytest.approx(0.25, abs=1e-12)


def test_swap_table_mixed_inputs():
    joint = swap_table(BellLabel.PSI_PLUS, BellLabel.PHI_PLUS)
    live = {pair for pair, p in joint.items() if p > 1e-12}
    assert live == {
        (p, q) for p in BellLabel for q in BellLabel
        if (p.phase_bit ^ q.phase_bit, p.parity_bit ^ q.parity_bit) == (0, 1)
    }


def test_swap_table_joints_are_pinned():
    # Every joint probability of the 16 tables, bit for bit: a change to the
    # enumerator or the kernels must not move a single one.
    lines = [
        f"{m} {n} {p} {q} {v.hex()}"
        for m in BellLabel
        for n in BellLabel
        for (p, q), v in swap_table(m, n).items()
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "8870334805dd41c3319bfe67f42d65b01398f999ade0fcf1554d7696f4b57519"


def _outcome_lines(kind, qubits, outcomes):
    for outcome, p, post in outcomes:
        amps = "None" if post is None else " ".join(
            float(v).hex() for v in np.concatenate([post.amps.real, post.amps.imag])
        )
        yield f"{kind} {qubits} {outcome} {p.hex()} {amps}"


def test_kernel_and_exact_distribution_arithmetic_is_pinned():
    # Bit for bit, so that a 1-ulp change in any kernel fails here even when
    # no sampled outcome or rounded report moves: every probability and
    # post-state amplitude of the three outcome lists on seeded random
    # states of 1-6 qubits (every qubit, every ordered pair), and every cell
    # of the 16 exact transcript distributions.
    rng = np.random.default_rng(8)
    kernel_lines = []
    for n in range(1, 7):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = qsim.StateVector(n, amps / np.linalg.norm(amps))
        for q in range(n):
            kernel_lines += _outcome_lines("Z", (q,), qsim.z_outcomes(state, q))
            kernel_lines += _outcome_lines("X", (q,), qsim.x_outcomes(state, q))
        for q1, q2 in itertools.permutations(range(n), 2):
            kernel_lines += _outcome_lines("Bell", (q1, q2), qsim.bell_outcomes(state, q1, q2))
    exact_lines = [
        f"{strategy.value} {key} {direction.value} {cell} {p.hex()}"
        for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE)
        for key in PauliLabel
        for direction in (Role.ALICE, Role.BOB)
        for cell, p in exact_transcript_distribution(strategy, key, direction).items()
    ]
    digests = [
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for lines in (kernel_lines, exact_lines)
    ]
    assert digests == [
        "efe2a18fbed0c1be5db62307eadb7dde5195ec8d65c6cd9c9cffe4490392bc28",
        "35e2712dffc35e19e28e93e7dfa030ec4060b45399413bd75586b4086074e945",
    ]


def test_all_sixteen_swap_tables():
    for m in BellLabel:
        for n in BellLabel:
            joint = swap_table(m, n)
            live = {pair: p for pair, p in joint.items() if p > 1e-12}
            assert len(live) == 4
            assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
            target = (m.phase_bit ^ n.phase_bit, m.parity_bit ^ n.parity_bit)
            for (p, q), prob in live.items():
                assert abs(prob - 0.25) <= 1e-12
                assert (p.phase_bit ^ q.phase_bit, p.parity_bit ^ q.parity_bit) == target


def test_pauli_bell_map_frozen_rows():
    assert pauli_bell_map(PauliLabel.I, BellLabel.PSI_MINUS) is BellLabel.PSI_MINUS
    assert pauli_bell_map(PauliLabel.X, BellLabel.PHI_PLUS) is BellLabel.PSI_PLUS
    assert pauli_bell_map(PauliLabel.Z, BellLabel.PHI_PLUS) is BellLabel.PHI_MINUS
    assert pauli_bell_map(PauliLabel.IY, BellLabel.PHI_PLUS) is BellLabel.PSI_MINUS


def test_pauli_bell_map_matches_simulator():
    # Apply the Pauli to the first qubit of a labelled pair and remeasure:
    # exactly one outcome survives and it matches the table.
    for p in PauliLabel:
        for m in BellLabel:
            state = reference.bell_pair(m)
            state = qsim.apply_pauli(state, 0, p)
            live = [
                (label, prob)
                for label, prob, _ in qsim.bell_outcomes(state, 0, 1)
                if prob > 1e-12
            ]
            assert len(live) == 1
            label, prob = live[0]
            assert prob == pytest.approx(1.0, abs=1e-12)
            assert label is pauli_bell_map(p, m)


# ---------------------------------------------------------------------------
# exact transcript distributions


def honest_support(key):
    return {
        ((c1, c2), a, b)
        for c1 in (0, 1)
        for c2 in (0, 1)
        for a in BellLabel
        for b in BellLabel
        if (a.phase_bit ^ b.phase_bit, a.parity_bit ^ b.parity_bit)
        == (key.phase_bit, key.parity_bit ^ c1 ^ c2)
    }


def test_exact_distribution_honest_identity_key():
    dist = exact_transcript_distribution(StrategyId.HONEST, PauliLabel.I)
    assert len(dist) == 64
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    live = {cell for cell, p in dist.items() if p > 1e-12}
    assert live == honest_support(PauliLabel.I)
    for cell in live:
        assert dist[cell] == pytest.approx(1 / 16, abs=1e-12)


@pytest.mark.parametrize("key", list(PauliLabel))
def test_exact_distribution_support_shifts_with_key(key):
    dist = exact_transcript_distribution(StrategyId.HONEST, key)
    live = {cell for cell, p in dist.items() if p > 1e-12}
    assert live == honest_support(key)


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("key", list(PauliLabel))
def test_premeasure_distribution_matches_honest(key, direction):
    honest = exact_transcript_distribution(StrategyId.HONEST, key, direction)
    attacked = exact_transcript_distribution(StrategyId.PRE_MEASURE, key, direction)
    assert tv_distance(honest, attacked) <= 1e-12


def test_exact_distribution_rejects_sampled_only_strategy():
    with pytest.raises(ValueError):
        exact_transcript_distribution(StrategyId.INTERCEPT_RESEND, PauliLabel.I)


@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
@pytest.mark.parametrize("key", ["X", BellLabel.PSI_PLUS, None])
def test_exact_distribution_rejects_non_pauli_keys_before_enumerating(
    monkeypatch, strategy, key
):
    def refuse(script):
        raise AssertionError("enumerated with a bad key")

    monkeypatch.setattr(oracle, "BranchSource", refuse)
    with pytest.raises(ValueError):
        exact_transcript_distribution(strategy, key)


def test_exact_distribution_runs_p2_once_per_leaf(monkeypatch):
    calls, leaves = [], []
    original = protocol.p2_transmit

    def counted(wave, strategy, source):
        calls.append(strategy)
        return original(wave, strategy, source)

    def counting_enumerate(pipeline):
        for result, probability in enumerate_branches(pipeline):
            leaves.append(result)
            yield result, probability

    monkeypatch.setattr(protocol, "p2_transmit", counted)
    monkeypatch.setattr(oracle, "enumerate_branches", counting_enumerate)
    for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE):
        calls.clear()
        leaves.clear()
        exact_transcript_distribution(strategy, PauliLabel.Z)
        assert leaves
        assert calls == [strategy] * len(leaves)


def test_exact_distributions_prepare_one_p1_row_and_leave_it_alone(monkeypatch):
    rows = []
    original = protocol.p1_prepare

    def recorded(config, rng):
        rows.append(original(config, rng))
        return rows[-1]

    monkeypatch.setattr(protocol, "p1_prepare", recorded)
    for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE):
        for key in PauliLabel:
            for direction in (Role.ALICE, Role.BOB):
                exact_transcript_distribution(strategy, key, direction)
    assert len(rows) == 16  # one per distribution, not one per leaf
    for row in rows:
        assert row == protocol.RoundRecord([], [], [], [])


class RecordedSource:
    """Wraps an outcome source and keeps every outcome it returns."""

    def __init__(self, source):
        self.source = source
        self.returned = []

    def __getattr__(self, name):
        method = getattr(self.source, name)

        def recorded(*args):
            outcome, post = method(*args)
            self.returned.append(outcome)
            return outcome, post

        return recorded


@pytest.mark.parametrize(
    "make_source",
    [lambda: BranchSource([1, 1]), lambda: protocol.SampleSource([protocol._RowStream(np.random.PCG64(5))])],
    ids=["BranchSource", "SampleSource"],
)
def test_both_sources_return_one_outcome_per_row_as_a_list(make_source):
    source = RecordedSource(make_source())
    wave = protocol.Wave([protocol.p1_prepare(ProtocolConfig(), None)])
    [(a, b, (c1, c2))] = protocol.e2_measure(wave, source)
    assert source.returned == [[a], [b], [c1], [c2]]
    assert all(type(outcome) is list for outcome in source.returned)


def _hexed(dist):
    return {cell: p.hex() for cell, p in dist.items()}


# The orders of the parties' turns the program fixes: the PreMeasure
# attack's walk in P2, and E2's.
HOOK_ORDER, MEASURE_ORDER = ("c", "a", "b"), ("a", "b", "c")


def exact_with_orders(strategy, key, direction, hook_order, measure_order):
    """The exact transcript map of a round whose two party walks take their
    turns in the given orders.

    It is exact_transcript_distribution's pipeline with P2 and E2 made by
    protocol._measure_parties directly, enumerated by whatever
    ``oracle.enumerate_branches`` is at call time.
    """
    row = protocol.p1_prepare(ProtocolConfig(direction=direction), None)

    def pipeline(source):
        wave = protocol.Wave([row])
        c_pre = None
        if strategy is StrategyId.PRE_MEASURE:
            [(_, _, c_pre)] = protocol._measure_parties(wave, source, hook_order)
        protocol.e1_encode(wave, [key], direction)
        [(a, b, c)] = protocol._measure_parties(wave, source, measure_order)
        return (c if c_pre is None else c_pre), a, b

    cells = dict.fromkeys(oracle._CELLS, 0.0)
    for cell, probability in oracle.enumerate_branches(pipeline):
        cells[cell] += probability
    return cells


def test_exact_distribution_order_invariance():
    baseline = exact_transcript_distribution(StrategyId.PRE_MEASURE, PauliLabel.X)
    orders = [("c", "a", "b"), ("a", "c", "b"), ("b", "a", "c"), ("c", "b", "a")]
    for order in orders:
        permuted = exact_with_orders(
            StrategyId.PRE_MEASURE, PauliLabel.X, Role.ALICE, order, MEASURE_ORDER
        )
        assert tv_distance(baseline, permuted) <= 1e-12
    honest = exact_transcript_distribution(StrategyId.HONEST, PauliLabel.X)
    for order in orders[1:]:
        permuted = exact_with_orders(
            StrategyId.HONEST, PauliLabel.X, Role.ALICE, HOOK_ORDER, order
        )
        assert tv_distance(honest, permuted) <= 1e-12


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("key", list(PauliLabel))
@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
def test_exact_with_orders_at_the_fixed_orders_is_the_program(strategy, key, direction):
    # Bit for bit, so the order-permuted maps below are the program's maps
    # with only the orders changed.
    program = exact_transcript_distribution(strategy, key, direction)
    local = exact_with_orders(strategy, key, direction, HOOK_ORDER, MEASURE_ORDER)
    assert _hexed(local) == _hexed(program)


ORDERS = list(itertools.permutations(("a", "b", "c")))
EXACT_COMBINATIONS = list(
    itertools.product(
        (StrategyId.HONEST, StrategyId.PRE_MEASURE),
        PauliLabel,
        (Role.ALICE, Role.BOB),
        ORDERS,  # hook orders
        ORDERS,  # measure orders
    )
)


def test_reused_outcome_lists_give_bitwise_equal_distributions(monkeypatch):
    assert len(EXACT_COMBINATIONS) == 576
    fast = [_hexed(exact_with_orders(*combo)) for combo in EXACT_COMBINATIONS]
    monkeypatch.setattr(oracle, "enumerate_branches", reference.enumerate_branches_from_scratch)
    slow = [_hexed(exact_with_orders(*combo)) for combo in EXACT_COMBINATIONS]
    assert fast == slow


def _record_enumeration(monkeypatch, strategy, key, direction):
    """Run one exact enumeration; return its outcome-list calls and leaf paths."""
    paths = []
    calls = []

    class RecordingBranchSource(BranchSource):
        def __init__(self, script):
            super().__init__(script)
            paths.append(self.taken)

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(oracle, "BranchSource", RecordingBranchSource)
    for name in ("z_outcomes", "x_outcomes", "bell_outcomes"):
        monkeypatch.setattr(qsim, name, counting(getattr(qsim, name)))
    exact_transcript_distribution(strategy, key, direction)
    return calls, paths


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
def test_each_outcome_list_is_computed_once(monkeypatch, strategy, direction):
    calls, paths = _record_enumeration(monkeypatch, strategy, PauliLabel.IY, direction)
    prefixes = {tuple(taken[:k]) for taken in paths for k in range(len(taken))}
    assert len(calls) == len(prefixes)
    assert len(calls) < sum(len(taken) for taken in paths)


def _with_last_leaf(enumerate_branches, reweigh):
    def enumerate_with_last_leaf_reweighed(pipeline):
        leaves = list(enumerate_branches(pipeline))
        result, p = leaves[-1]
        leaves[-1] = (result, reweigh(p))
        return iter(leaves)

    return enumerate_with_last_leaf_reweighed


@pytest.mark.parametrize(
    "reweigh",
    [lambda p: 0.0, lambda p: p / 2, lambda p: p - 1e-11, lambda p: p + 1e-11],
    ids=["dropped", "halved", "minus-1e-11", "plus-1e-11"],
)
def test_exact_distribution_checks_the_enumerated_mass(monkeypatch, reweigh):
    monkeypatch.setattr(
        oracle, "enumerate_branches", _with_last_leaf(oracle.enumerate_branches, reweigh)
    )
    with pytest.raises(ValueError, match="probability mass"):
        exact_transcript_distribution(StrategyId.PRE_MEASURE, PauliLabel.X)


def test_exact_distribution_admits_rounding_in_the_mass(monkeypatch):
    monkeypatch.setattr(
        oracle,
        "enumerate_branches",
        _with_last_leaf(oracle.enumerate_branches, lambda p: p + 1e-13),
    )
    dist = exact_transcript_distribution(StrategyId.PRE_MEASURE, PauliLabel.X)
    assert sum(dist.values()) == pytest.approx(1.0, abs=oracle.MASS_TOL)


def test_verification_rule_is_the_unique_affine_fit():
    # Consider every rule of the form
    #   guess = (a XOR b) XOR (p0 XOR pc*(c1 XOR c2), q0 XOR qc*(c1 XOR c2)).
    # Exactly one choice of coefficients accepts every honest branch for
    # every key, and it is the one e3 uses: (0, 0, 0, 1).
    fits = []
    supports = {key: honest_support(key) for key in PauliLabel}
    for p0 in (0, 1):
        for pc in (0, 1):
            for q0 in (0, 1):
                for qc in (0, 1):
                    ok = True
                    for key, support in supports.items():
                        for (c1, c2), a, b in support:
                            parity_shift = c1 ^ c2
                            guess = PauliLabel.from_bits(
                                a.phase_bit ^ b.phase_bit ^ p0 ^ (pc & parity_shift),
                                a.parity_bit ^ b.parity_bit ^ q0 ^ (qc & parity_shift),
                            )
                            if guess is not key:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        fits.append((p0, pc, q0, qc))
    assert fits == [(0, 0, 0, 1)]


# ---------------------------------------------------------------------------
# statistics helpers


def test_tv_distance_basics():
    d = {"a": 0.5, "b": 0.5}
    assert tv_distance(d, dict(d)) == 0.0
    assert tv_distance({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}) == pytest.approx(1.0)
    uniform = {c: 0.25 for c in "abcd"}
    point = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}
    assert tv_distance(uniform, point) == pytest.approx(0.75)


def test_tv_distance_requires_matching_spaces():
    with pytest.raises(ValueError):
        tv_distance({"a": 1.0}, {"b": 1.0})


def test_wilson_interval_frozen_values():
    assert wilson_interval(50, 100) == pytest.approx(
        (0.4038315303659956, 0.5961684696340044), abs=1e-12
    )
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-15)
    assert high == pytest.approx(0.03699349820698568, abs=1e-12)
    low, high = wilson_interval(100, 100)
    assert low == pytest.approx(0.9630065017930143, abs=1e-12)
    assert high == 1.0


def test_wilson_interval_properties():
    rng = np.random.default_rng(10)
    for _ in range(100):
        trials = int(rng.integers(1, 10000))
        successes = int(rng.integers(0, trials + 1))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0
        assert low <= successes / trials <= high
    narrow = wilson_interval(400, 1000)
    wide = wilson_interval(40, 100)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_wilson_interval_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)


def test_sampled_rates_requires_data():
    with pytest.raises(ValueError):
        sampled_rates(trials=0, accepted=0, detected=0, guesses=0, hits=0)


def test_sampled_rates_counts():
    # Four rounds: two accepted with the key recovered, one detected without
    # a guess, one rejected with a wrong guess.
    rates = sampled_rates(trials=4, accepted=2, detected=1, guesses=3, hits=2)
    assert rates.accept.rate == pytest.approx(0.5)
    assert rates.accept.trials == 4
    assert rates.detection.rate == pytest.approx(0.25)
    assert rates.key_recovery.rate == pytest.approx(2 / 3)
    assert rates.key_recovery.trials == 3
    low, high = wilson_interval(2, 4)
    assert rates.accept.low == pytest.approx(low)
    assert rates.accept.high == pytest.approx(high)


def test_sampled_rates_without_inference():
    rates = sampled_rates(trials=3, accepted=3, detected=0, guesses=0, hits=0)
    assert rates.key_recovery is None
    assert rates.accept.rate == 1.0


def test_sampled_rounds_match_exact_distribution():
    # 100k honest rounds with the identity key; every cell of the empirical
    # distribution sits within 5 binomial standard errors of the exact one.
    exact = exact_transcript_distribution(StrategyId.HONEST, PauliLabel.I)
    counts = {cell: 0 for cell in exact}
    total = 100_000
    rounds_per_run = 200
    keys = [PauliLabel.I] * rounds_per_run
    for seed in range(total // rounds_per_run):
        config = ProtocolConfig(rounds=rounds_per_run, seed=seed)
        transcript = run_protocol(config, keys, StrategyId.HONEST)
        for record in transcript.rounds:
            counts[(record.c, record.a, record.b)] += 1
    for cell, prob in exact.items():
        sigma = np.sqrt(prob * (1 - prob) / total)
        observed = counts[cell] / total
        assert abs(observed - prob) <= max(5 * sigma, 1e-12), cell
