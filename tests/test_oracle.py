"""Tests for the analysis oracle: branch enumeration, the swapping tables,
exact transcript distributions, and the statistics helpers."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import reference

from qauthsim import oracle, protocol, qsim
from qauthsim.adversary import EveState, StrategyId, infer_key
from qauthsim.oracle import (
    BranchSource,
    enumerate_branches,
    exact_transcript_distribution,
    pauli_bell_map,
    swap_table,
    tv_distance,
    wilson_interval,
)
from qauthsim.protocol import (
    A1, A2, B1, B2, C1, C2, Decision, ProtocolConfig, Role, e3_verify, run_protocol,
)
from qauthsim.qsim import Basis, BellLabel, PauliLabel


# ---------------------------------------------------------------------------
# branch enumeration


def test_enumerate_pipeline_without_measurements():
    branches = list(enumerate_branches(lambda source: ["done"]))
    assert branches == [("done", 1.0)]


def test_enumerate_single_qubit_split():
    def pipeline(source):
        bits, _ = source.measure_z(qsim.init_product(["+"]), 0)
        return bits

    branches = dict(enumerate_branches(pipeline))
    assert set(branches) == {0, 1}
    assert branches[0] == pytest.approx(0.5)
    assert branches[1] == pytest.approx(0.5)


def test_enumerate_skips_dead_branches():
    def pipeline(source):
        bits, _ = source.measure_z(qsim.init_product(["0"]), 0)
        return bits

    assert list(enumerate_branches(pipeline)) == [(0, 1.0)]


def test_enumerate_nested_probabilities_sum_to_one():
    def pipeline(source):
        state = qsim.init_product(["+", "0", "+"])
        state = qsim.apply_cnot(state, 0, 1)
        b0, state = source.measure_z(state, 0)
        b1, state = source.measure_x(state, 1)
        b2, state = source.measure_z(state, 2)
        return list(zip(b0, b1, b2))

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
            b0, post = source.measure_z(state, qubits[0])
            b1, _ = source.measure_x(post, qubits[1])
            return [((z,), (x,)) for z, x in zip(b0, b1)]

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
        [((0,), "Z")],  # a basis's name is not a Basis
        [((0,), Basis.Z), ((1,), None)],
        [((True,), Basis.Z)],  # a bool is not qubit 1
        [((0.0,), Basis.Z)],
        [(("0",), Basis.Z)],
        [(0, Basis.Z)],  # an entry's qubits are a tuple
        [([0], Basis.Z)],
        [((0,), Basis.Z, 1)],
        [[(0,), Basis.Z]],
    ],
)
def test_outcome_distribution_rejects_bad_plans_before_measuring(monkeypatch, plan):
    def refuse(script):
        raise AssertionError("enumerated a bad plan")

    monkeypatch.setattr(oracle, "BranchSource", refuse)
    with pytest.raises(ValueError):
        oracle.outcome_distribution(qsim.init_product(["0", "0"]), plan)


def test_outcome_distribution_takes_numpy_integer_qubits():
    state = qsim.init_product(["+", "0"])
    plan = [((np.int64(1),), Basis.Z), ((np.intp(0),), Basis.X)]
    assert _hexed(oracle.outcome_distribution(state, plan)) == _hexed(
        oracle.outcome_distribution(state, [((1,), Basis.Z), ((0,), Basis.X)]))


def test_outcome_distribution_checks_the_enumerated_mass():
    # A state 1e-8 off its norm passes the kernels' MEASURE_NORM_TOL (1e-6),
    # but the mass of its distribution, about 1 + 2e-8, is not 1 within
    # MASS_TOL: outcome_distribution refuses it as exact_transcript_distribution
    # refuses its maps.
    state = qsim.StateVector(1, qsim.init_product(["+"]).amps * (1 + 1e-8))
    qsim.measure_z(state, 0, [0.5])
    with pytest.raises(ValueError, match="enumerated probability mass is .*, not 1"):
        oracle.outcome_distribution(state, [((0,), Basis.Z)])


def test_outcome_distribution_takes_one_state(monkeypatch):
    # A batch of |00> and |11> is two states, not one: refused before
    # anything is enumerated, not read off row 0.  A one-row batch is its
    # row, bit for bit, though a pass of its branches holds three rows.
    two_rows = qsim.StateVector(2, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    plan = [((0,), Basis.Z), ((1,), Basis.Z)]
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "BranchSource", lambda scripts: pytest.fail("enumerated"))
        with pytest.raises(ValueError, match="takes one state, got 2 rows"):
            oracle.outcome_distribution(two_rows, [((0,), Basis.Z)])
    state = qsim.init_product(["+", "-"])
    one_row = qsim.StateVector(2, state.amps[None])
    assert _hexed(oracle.outcome_distribution(one_row, plan)) == _hexed(
        oracle.outcome_distribution(state, plan))


def test_outcome_distribution_runs_on_enumerate_branches(monkeypatch):
    paths = []

    class Recording(BranchSource):
        def __init__(self, scripts):
            super().__init__(scripts)
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
    # One row per live leaf: the second Z has a single live outcome.
    assert [list(path) for taken in paths for path in taken] == [[0, 0], [1, 0]]


def test_branch_source_records_its_path():
    # The four lists are the ones __init__ made, filled in place as each
    # measurement runs: a tracer that keeps them at __init__ reads the paths.
    def pipeline(source):
        state = qsim.init_product(["+", "+"])
        b0, state = source.measure_z(state, 0)
        b1, state = source.measure_z(state, 1)
        return list(zip(b0, b1))

    source = BranchSource([[1, 0]])
    made = source.roots, source.taken, source.fanouts, source.probability
    [result] = pipeline(source)
    assert result == (1, 0)
    assert source.taken == [(1, 0)]
    assert source.fanouts == [(2, 2)]
    assert source.probability == [pytest.approx(0.25)]
    assert source.roots == [None]
    kept = source.roots, source.taken, source.fanouts, source.probability
    assert all(a is b for a, b in zip(made, kept))


def test_selection_matches_the_per_row_rule_bitwise():
    # BranchSource._select against reference.ListSelect, the same rule row
    # by row.  The probabilities mix exact zeros, ZERO_PROB itself (not
    # live) and the next float above it (live), and some scripts end early.
    rng = np.random.default_rng(31)
    edge = [0.0, qsim.ZERO_PROB, float(np.nextafter(qsim.ZERO_PROB, 1.0))]
    for _ in range(300):
        rows, k, depths = int(rng.integers(1, 8)), int(rng.choice([2, 4])), int(rng.integers(1, 5))
        levels = []
        for _ in range(depths):
            probs = rng.random((rows, k))
            probs[rng.random((rows, k)) < 0.4] = 0.0
            spots = rng.random((rows, k)) < 0.3
            probs[spots] = rng.choice(edge, size=spots.sum())
            probs[np.arange(rows), rng.integers(0, k, size=rows)] = rng.random(rows) + 0.1
            levels.append(probs)
        live = np.array([(probs > qsim.ZERO_PROB).sum(axis=1) for probs in levels]).T
        scripts = [
            tuple(int(rng.integers(n)) for n in counts[:rng.integers(0, depths + 1)])
            for counts in live
        ]
        source, ref = BranchSource(scripts), reference.ListSelect(scripts)
        for probs in levels:
            assert source._select(probs) == ref.select(probs.tolist())
        assert source.taken == ref.taken
        assert source.fanouts == ref.fanouts
        assert [p.hex() for p in source.probability] == [p.hex() for p in ref.probability]


@pytest.mark.parametrize("script", [(1,), (0, 2), (-1,)])
def test_a_script_that_names_an_option_its_node_lacks_is_an_error(script):
    # |0+> measured in Z: qubit 0 has one live outcome and qubit 1 two, so
    # no node has option 2, the first has no option 1, and none has -1.
    def pipeline(source):
        state = qsim.init_product(["0", "+"])
        b0, state = source.measure_z(state, 0)
        b1, state = source.measure_z(state, 1)
        return list(zip(b0, b1))

    assert pipeline(BranchSource([(0, 1)])) == [(0, 1)]
    with pytest.raises(ValueError, match="names option"):
        pipeline(BranchSource([script]))


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
    # post-state amplitude of every Z, X and Bell outcome, read off the
    # kernels by reference.outcome_list (each state a one-row batch), on
    # seeded random states of 1-6 qubits (every qubit, every ordered
    # pair), and every cell of the 16 exact transcript distributions.
    rng = np.random.default_rng(8)
    kernel_lines = []
    for n in range(1, 7):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = qsim.StateVector(n, amps / np.linalg.norm(amps))
        for q in range(n):
            kernel_lines += _outcome_lines("Z", (q,), reference.outcome_list(Basis.Z, state, q))
            kernel_lines += _outcome_lines("X", (q,), reference.outcome_list(Basis.X, state, q))
        for q1, q2 in itertools.permutations(range(n), 2):
            pair = reference.outcome_list(Basis.BELL, state, q1, q2)
            kernel_lines += _outcome_lines("Bell", (q1, q2), pair)
    maps = {
        (strategy, direction): exact_transcript_distribution(strategy, direction)
        for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE)
        for direction in (Role.ALICE, Role.BOB)
    }
    exact_lines = [
        f"{strategy.value} {key} {direction.value} {cell} {p.hex()}"
        for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE)
        for key in PauliLabel
        for direction in (Role.ALICE, Role.BOB)
        for cell, p in maps[strategy, direction][key].items()
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
                for label, prob, _ in reference.outcome_list(Basis.BELL, state, 0, 1)
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
    dist = exact_transcript_distribution(StrategyId.HONEST)[PauliLabel.I]
    assert len(dist) == 64
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    live = {cell for cell, p in dist.items() if p > 1e-12}
    assert live == honest_support(PauliLabel.I)
    for cell in live:
        assert dist[cell] == pytest.approx(1 / 16, abs=1e-12)


@pytest.mark.parametrize("key", list(PauliLabel))
def test_exact_distribution_support_shifts_with_key(key):
    dist = exact_transcript_distribution(StrategyId.HONEST)[key]
    live = {cell for cell, p in dist.items() if p > 1e-12}
    assert live == honest_support(key)


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("key", list(PauliLabel))
def test_premeasure_distribution_matches_honest(key, direction):
    honest = exact_transcript_distribution(StrategyId.HONEST, direction)[key]
    attacked = exact_transcript_distribution(StrategyId.PRE_MEASURE, direction)[key]
    assert tv_distance(honest, attacked) <= 1e-12


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
def test_premeasure_leaves_e2_measuring_the_early_center_bits(direction):
    # Under PreMeasure the announced c is E2's own Z outcome, as under
    # Honest: Charlie's early Z measurement collapsed C1 and C2, and neither
    # E1's Pauli nor the parties' Bell measurements touch them.  So on every
    # path of the round table E2's c is the early c_pre, and no E2
    # measurement branches: each key's round is P2's 16 paths, with mass 1.
    table = protocol._round_table(StrategyId.PRE_MEASURE, direction)
    roots = table.e2_roots(range(len(table.leaves)))
    leaves, mass = Counter(), dict.fromkeys(PauliLabel, 0.0)
    for code, key in enumerate(PauliLabel):
        for (c1, c2, _, _), leaf, p in oracle._paths(table.p2, 0, 1.0):
            [((_, _, e1, e2), _, q)] = oracle._paths(table.e2, roots[leaf] + code, p)
            assert (e1, e2) == (c1, c2), key
            leaves[key] += 1
            mass[key] += q
    assert leaves == dict.fromkeys(PauliLabel, 16)
    for key, total in mass.items():
        assert abs(1.0 - total) <= oracle.MASS_TOL, key


def test_exact_maps_are_the_exact_arithmetic_maps():
    # reference.exact_round_in_fractions walks the round in Fractions with
    # its own matrices, so the P2 stage the keys share is checked against
    # arithmetic that shares no code with the enumerator or the kernels.
    tolerance = Fraction(1, 2**54)
    for direction in (Role.ALICE, Role.BOB):
        program = {
            strategy: exact_transcript_distribution(strategy, direction)
            for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE)
        }
        for key in PauliLabel:
            honest = reference.exact_round_in_fractions(StrategyId.HONEST, key, direction)
            attacked = reference.exact_round_in_fractions(StrategyId.PRE_MEASURE, key, direction)
            assert attacked == honest
            assert sum(honest.values()) == 1
            assert sum(1 for p in honest.values() if p) == 16
            for strategy, exact in (
                (StrategyId.HONEST, honest),
                (StrategyId.PRE_MEASURE, attacked),
            ):
                cells = program[strategy][key]
                assert list(cells) == list(exact)
                for cell, p in cells.items():
                    assert abs(Fraction(p) - exact[cell]) <= tolerance, (strategy, key, cell)


def test_the_papers_numbers_are_exact_fractions():
    # In the exact arithmetic of tests/reference.py: PreMeasure recovers
    # every key in both directions with probability exactly 1 (the mass of
    # the leaves where infer_key reads the key off the announcement), an
    # intercepted decoy's check misses P1's bit with probability exactly
    # 1/4, and so one decoy per sequence at threshold 0 catches a round with
    # probability exactly 1 - (3/4)^2 = 7/16.
    for direction in (Role.ALICE, Role.BOB):
        for key in PauliLabel:
            recovered = Fraction(0)
            leaves = reference.round_leaves_in_fractions(StrategyId.PRE_MEASURE, key, direction)
            for (c1, c2, m_pre, b_pre), (a, b, _, _), p in leaves:
                announced = a if direction is Role.ALICE else b
                if infer_key(EveState((c1, c2), m_pre, b_pre), announced, direction) is key:
                    recovered += p
            assert recovered == 1, (key, direction)
    miss = reference.decoy_miss_in_fractions()
    assert miss == Fraction(1, 4)
    caught = 1 - (1 - miss) ** 2  # a sequence fails when its one check misses
    assert caught == Fraction(7, 16)
    p = protocol.abort_probability(StrategyId.INTERCEPT_RESEND, 1, 0.0)
    assert abs(p - float(caught)) <= 1e-15


def test_intercept_resend_numbers_are_exact_fractions():
    # In the exact arithmetic of tests/reference.py, Eve measures A1, A2,
    # B1 and B2 before the key, each in Z or X with chance 1/2.  A
    # decoy-free round then accepts with probability exactly 9/32, and its
    # transcript map has mass exactly 1 on all 64 cells, exactly 23/32 from
    # Honest's in total variation.  Every key in both directions gives the
    # same numbers; one key and direction keeps the test near a second.
    key, direction = PauliLabel.X, Role.BOB
    honest = reference.exact_round_in_fractions(StrategyId.HONEST, key, direction)
    attacked = reference.exact_round_in_fractions(StrategyId.INTERCEPT_RESEND, key, direction)
    assert sum(attacked.values()) == 1
    assert sum(1 for p in attacked.values() if p) == 64
    assert sum(abs(attacked[cell] - honest[cell]) for cell in honest) / 2 == Fraction(23, 32)
    accepted = sum(
        p for (c, a, b), p in attacked.items() if e3_verify(a, b, c, key) is Decision.ACCEPT
    )
    assert accepted == Fraction(9, 32)


def test_exact_distribution_rejects_sampled_only_strategy():
    with pytest.raises(ValueError):
        exact_transcript_distribution(StrategyId.INTERCEPT_RESEND)


@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
@pytest.mark.parametrize("direction", ["Alice", Role.CHARLIE, None])
def test_exact_distribution_rejects_bad_directions_before_enumerating(
    monkeypatch, strategy, direction
):
    def refuse(*args):
        raise AssertionError("built or summed a table with a bad direction")

    monkeypatch.setattr(protocol, "_round_table", refuse)
    with pytest.raises(ValueError):
        exact_transcript_distribution(strategy, direction)


def test_exact_distributions_prepare_no_p1_row_and_build_each_table_once(monkeypatch):
    # A decoy-free round's table grows from the fresh state, so an exact
    # call prepares no P1 record, and its tables are built once per process:
    # a second call sums the same table to the same bits.
    rows = []
    original = protocol.p1_prepare

    def recorded(config, rng):
        rows.append(original(config, rng))
        return rows[-1]

    monkeypatch.setattr(protocol, "p1_prepare", recorded)
    for strategy in (StrategyId.HONEST, StrategyId.PRE_MEASURE):
        for direction in (Role.ALICE, Role.BOB):
            first = exact_transcript_distribution(strategy, direction)
            table = protocol._round_table(strategy, direction)
            e2 = table.e2
            again = exact_transcript_distribution(strategy, direction)
            assert protocol._round_table(strategy, direction) is table and table.e2 is e2
            assert {k: _hexed(v) for k, v in again.items()} == {k: _hexed(v) for k, v in first.items()}
    assert rows == []


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


def test_branch_source_returns_one_outcome_per_row_as_a_list():
    source = RecordedSource(BranchSource([[1, 1]]))
    [a], state = source.measure_bell(protocol._FRESH_STATE, A1, A2)
    [b], state = source.measure_bell(state, B1, B2)
    [c1], state = source.measure_z(state, C1)
    [c2], state = source.measure_z(state, C2)
    assert source.returned == [[a], [b], [c1], [c2]]
    assert all(type(outcome) is list for outcome in source.returned)
    assert a.phase_bit == b.phase_bit and a.parity_bit ^ b.parity_bit == c1 ^ c2


def _hexed(dist):
    return {cell: p.hex() for cell, p in dist.items()}


# The orders of the parties' turns the program fixes: the PreMeasure
# attack's walk in P2, and E2's.
HOOK_ORDER, MEASURE_ORDER = ("c", "a", "b"), ("a", "b", "c")


def exact_pipeline(strategy, key, direction, hook_order=HOOK_ORDER, measure_order=MEASURE_ORDER):
    """A decoy-free round for one key as an enumeration pipeline on qsim's
    measurements alone, none of the round table: under PreMeasure the
    parties measured early in ``hook_order``, the key's Pauli on A1 or B1,
    then the parties in ``measure_order``.  A row's result is its cell
    ((c1, c2), a, b), with Charlie's early c under PreMeasure."""

    def walk(source, state, order):
        got = {}
        for party in order:
            if party == "c":
                got["c1"], state = source.measure_z(state, C1)
                got["c2"], state = source.measure_z(state, C2)
            else:
                got[party], state = source.measure_bell(state, *{"a": (A1, A2), "b": (B1, B2)}[party])
        return got, state

    def pipeline(source):
        state, c_pre = protocol._FRESH_STATE, [None] * len(source.roots)
        if strategy is StrategyId.PRE_MEASURE:
            early, state = walk(source, state, hook_order)
            c_pre = list(zip(early["c1"], early["c2"]))
        state = qsim.apply_pauli(state, A1 if direction is Role.ALICE else B1, key)
        got, _ = walk(source, state, measure_order)
        return [
            ((c if pre is None else pre), a, b)
            for pre, a, b, c in zip(c_pre, got["a"], got["b"], zip(got["c1"], got["c2"]))
        ]

    return pipeline


def exact_with_orders(strategy, key, direction, hook_order, measure_order):
    """The exact transcript map of one key's round whose two party walks
    take their turns in the given orders: :func:`exact_pipeline` summed by
    whatever ``oracle.enumerate_branches`` is at call time."""
    pipeline = exact_pipeline(strategy, key, direction, hook_order, measure_order)
    cells = dict.fromkeys(oracle._CELLS, 0.0)
    for cell, probability in oracle.enumerate_branches(pipeline):
        cells[cell] += probability
    return cells


def test_exact_distribution_order_invariance():
    baseline = exact_transcript_distribution(StrategyId.PRE_MEASURE)[PauliLabel.X]
    orders = [("c", "a", "b"), ("a", "c", "b"), ("b", "a", "c"), ("c", "b", "a")]
    for order in orders:
        permuted = exact_with_orders(
            StrategyId.PRE_MEASURE, PauliLabel.X, Role.ALICE, order, MEASURE_ORDER
        )
        assert tv_distance(baseline, permuted) <= 1e-12
    honest = exact_transcript_distribution(StrategyId.HONEST)[PauliLabel.X]
    for order in orders[1:]:
        permuted = exact_with_orders(
            StrategyId.HONEST, PauliLabel.X, Role.ALICE, HOOK_ORDER, order
        )
        assert tv_distance(honest, permuted) <= 1e-12


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("key", list(PauliLabel))
@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
def test_exact_with_orders_at_the_fixed_orders_is_the_program(strategy, key, direction):
    # Bit for bit: the table sum is the pass enumerator's sum of qsim's
    # measurements at the program's orders, so the order-permuted maps below
    # are the program's maps with only the orders changed.
    program = exact_transcript_distribution(strategy, direction)[key]
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


def test_pass_wise_enumeration_gives_the_depth_first_maps_bitwise(monkeypatch):
    # Every map of every strategy, key, direction and pair of orders, bit for
    # bit, against reference.enumerate_branches_depth_first: a one-row walk
    # on reference.outcome_list, the kernels' outcomes of one state,
    # that shares no code with oracle.BranchSource.
    assert len(EXACT_COMBINATIONS) == 576
    passes = [_hexed(exact_with_orders(*combo)) for combo in EXACT_COMBINATIONS]
    monkeypatch.setattr(oracle, "enumerate_branches", reference.enumerate_branches_depth_first)
    walked = [_hexed(exact_with_orders(*combo)) for combo in EXACT_COMBINATIONS]
    assert passes == walked


def table_leaves(strategy, direction):
    """(key, cell, probability in hex) of every leaf the exact sum adds, in
    its order."""
    table = protocol._round_table(strategy, direction)
    roots = table.e2_roots(range(len(table.leaves)))
    return [
        (key, ((c1, c2), protocol._BELLS[a], protocol._BELLS[b]), q.hex())
        for code, key in enumerate(PauliLabel)
        for _, leaf, p in oracle._paths(table.p2, 0, 1.0)
        for (a, b, c1, c2), _, q in oracle._paths(table.e2, roots[leaf] + code, p)
    ]


@pytest.mark.parametrize("direction", [Role.ALICE, Role.BOB])
@pytest.mark.parametrize("strategy", [StrategyId.HONEST, StrategyId.PRE_MEASURE])
def test_an_exact_round_is_a_sum_over_its_table_with_no_kernel_call(
    monkeypatch, strategy, direction
):
    # Once its table is built, an exact round enumerates nothing and calls
    # no kernel: it sums the table's 16 leaves per key in depth-first order.
    # They are the leaves of a one-row depth-first walk of the same round
    # on qsim's kernels, one state at a time, in the same order and with
    # the same bits.
    leaves = table_leaves(strategy, direction)
    calls = []

    def refuse(*args):
        raise AssertionError("an exact round ran the pass enumerator")

    monkeypatch.setattr(oracle, "BranchSource", refuse)
    for name in ("_measure", "_z_kernel", "_x_kernel", "_bell_kernel", "apply_pauli"):
        real = getattr(qsim, name)
        monkeypatch.setattr(qsim, name, lambda *args, real=real: calls.append(1) or real(*args))
    maps = exact_transcript_distribution(strategy, direction)
    assert calls == []
    assert Counter(key for key, _, _ in leaves) == {key: 16 for key in PauliLabel}
    for key in PauliLabel:
        summed = dict.fromkeys(oracle._CELLS, 0.0)
        for leaf_key, cell, p in leaves:
            if leaf_key is key:
                summed[cell] += float.fromhex(p)
        assert _hexed(summed) == _hexed(maps[key])
    monkeypatch.undo()
    walked = [
        (key, cell, p.hex())
        for key in PauliLabel
        for cell, p in reference.enumerate_branches_depth_first(
            exact_pipeline(strategy, key, direction))
    ]
    assert walked == leaves


def _plan_pipeline(states, plan):
    """A pipeline that measures ``plan`` on each row's root state.

    ``states`` maps a root to its amplitudes and ``plan`` lists (qubits,
    Basis) entries.  A row's result is its root and its outcomes.
    """
    n = len(next(iter(states.values()))).bit_length() - 1

    def pipeline(source):
        amps = [states[root] for root in source.roots]
        state = qsim.StateVector(n, amps[0] if len(amps) == 1 else np.array(amps))
        rows = [(root,) for root in source.roots]
        for qubits, basis in plan:
            measure = {Basis.Z: source.measure_z, Basis.X: source.measure_x,
                       Basis.BELL: source.measure_bell}[basis]
            outcomes, state = measure(state, *qubits)
            rows = [row + (outcome,) for row, outcome in zip(rows, outcomes)]
        return rows

    return pipeline


def _enumerated(monkeypatch, states, plan):
    """The oracle's and the depth-first walk's leaves, probabilities in hex,
    and the oracle's passes."""
    passes = []

    class Recording(BranchSource):
        def __init__(self, scripts):
            super().__init__(scripts)
            passes.append(self)

    pipeline = _plan_pipeline(states, plan)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "BranchSource", Recording)
        leaves = [(r, p.hex()) for r, p in enumerate_branches(pipeline, tuple(states))]
    walked = [
        (r, p.hex()) for r, p in reference.enumerate_branches_depth_first(pipeline, tuple(states))
    ]
    return leaves, walked, passes


SQRT3 = np.sqrt(1 / 3)
ZZ = [((0,), Basis.Z), ((1,), Basis.Z)]


def test_a_pass_scripts_each_unexplored_sibling_of_its_rows(monkeypatch):
    # (|00> + |01> + |10>)/sqrt(3): the first path is (0, 0) with fanouts
    # (2, 2), so the second pass takes both of its siblings, (1,) and (0, 1);
    # the path (1, 0) has fanouts (2, 1) and leaves nothing past its script.
    state = np.array([SQRT3, SQRT3, SQRT3, 0.0])
    leaves, walked, passes = _enumerated(monkeypatch, {"s": state}, ZZ)
    assert leaves == walked
    assert [result for result, _ in leaves] == [("s", 0, 0), ("s", 0, 1), ("s", 1, 0)]
    assert [source.scripts for source in passes] == [[()], [(1,), (0, 1)]]


def test_a_sibling_found_below_a_script_takes_another_pass(monkeypatch):
    # (|00> + |10> + |11>)/sqrt(3): the first path's fanouts are (2, 1), so
    # the second pass scripts (1,) alone and finds that |1.> has two
    # outcomes; the third takes the one below it.
    state = np.array([SQRT3, 0.0, SQRT3, SQRT3])
    leaves, walked, passes = _enumerated(monkeypatch, {"s": state}, ZZ)
    assert leaves == walked
    assert [result for result, _ in leaves] == [("s", 0, 0), ("s", 1, 0), ("s", 1, 1)]
    assert [source.scripts for source in passes] == [[()], [(1,)], [(1, 1)]]


def test_sparse_random_trees_enumerate_as_the_depth_first_walk_bitwise(monkeypatch):
    # Sparse states give trees whose subtrees differ in fanout.  X
    # measurements are in: a batch row gets its one-row bits in every
    # basis, so the one-row walk reproduces a pass's X rows too.
    rng = np.random.default_rng(29)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        states = {}
        for root in range(int(rng.integers(1, 4))):
            amps = rng.normal(size=2**n)
            amps[rng.random(2**n) < rng.uniform(0.3, 0.85)] = 0.0
            amps[rng.integers(2**n)] = 1.0  # never the zero vector
            states[root] = amps / np.linalg.norm(amps)
        qubits, plan = list(rng.permutation(n)), []
        while qubits:
            if len(qubits) >= 2 and rng.random() < 0.5:
                plan.append(((int(qubits.pop()), int(qubits.pop())), Basis.BELL))
            else:
                plan.append(((int(qubits.pop()),), (Basis.Z, Basis.X)[int(rng.integers(2))]))
        leaves, walked, _ = _enumerated(monkeypatch, states, plan)
        assert leaves == walked


def test_a_pipeline_that_strays_from_its_scripts_is_an_error():
    # A pipeline that is not deterministic: after the first pass it measures
    # one qubit instead of two, so the second pass's row scripted (0, 1)
    # ends at path (0,).
    calls = []

    def pipeline(source):
        calls.append(source)
        state = qsim.init_product(["+", "+"])
        bits, state = source.measure_z(state, 0)
        if len(calls) == 1:
            source.measure_z(state, 1)
        return bits

    with pytest.raises(ValueError, match=r"scripted \(0, 1\) took path \(0,\).*not deterministic"):
        list(enumerate_branches(pipeline))


def _with_last_leaf(enumerate_branches, reweigh):
    """Wrap an enumerator so that every enumeration it makes has its last
    leaf's probability reweighed."""

    def enumerate_with_last_leaf_reweighed(pipeline, *roots):
        leaves = list(enumerate_branches(pipeline, *roots))
        result, p = leaves[-1]
        leaves[-1] = (result, reweigh(p))
        return iter(leaves)

    return enumerate_with_last_leaf_reweighed


def _with_every_leaf(enumerate_branches, reweigh):
    """Wrap an enumerator so that every leaf it yields is reweighed."""

    def enumerate_with_every_leaf_reweighed(pipeline, *roots):
        return ((result, reweigh(p)) for result, p in enumerate_branches(pipeline, *roots))

    return enumerate_with_every_leaf_reweighed


def reweighed_table(monkeypatch, reweigh, every):
    """Swap the PreMeasure Alice table's first P2 level, Charlie's Z on C1
    at about 1/2 each, for one whose last live probability (every live one,
    with ``every``) is reweighed: each key's mass moves by what it moves."""
    table = protocol._round_table(StrategyId.PRE_MEASURE, Role.ALICE)
    probs, _ = table.p2[0]
    assert probs[0].tolist() == pytest.approx([0.5, 0.5])
    probs = probs.copy()
    for i in (0, 1) if every else (1,):
        probs[0, i] = reweigh(probs[0, i])
    monkeypatch.setattr(table, "p2", (protocol._level(probs), *table.p2[1:]))


@pytest.mark.parametrize(
    "reweigh",
    [lambda p: 0.0, lambda p: p / 2, lambda p: p - 1e-11, lambda p: p + 1e-11],
    ids=["dropped", "halved", "minus-1e-11", "plus-1e-11"],
)
def test_exact_distribution_checks_the_enumerated_mass(monkeypatch, reweigh):
    reweighed_table(monkeypatch, reweigh, every=False)
    with pytest.raises(ValueError, match="probability mass"):
        exact_transcript_distribution(StrategyId.PRE_MEASURE)


def test_exact_distribution_admits_rounding_in_the_mass(monkeypatch):
    # Both of C1's outcomes gain 1e-14: 2e-14 in all per key, inside MASS_TOL.
    reweighed_table(monkeypatch, lambda p: p + 1e-14, every=True)
    maps = exact_transcript_distribution(StrategyId.PRE_MEASURE)
    for dist in maps.values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=oracle.MASS_TOL)
        assert sum(dist.values()) != 1.0


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


def test_sampled_rounds_match_exact_distribution():
    # 100k honest rounds with the identity key; every cell of the empirical
    # distribution sits within 5 binomial standard errors of the exact one.
    exact = exact_transcript_distribution(StrategyId.HONEST)[PauliLabel.I]
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


# The 0.999 quantile of chi-squared with 60 degrees of freedom (64 live
# cells less 4 keys): 99.607, scipy.stats.chi2.ppf(0.999, 60), hard-coded
# because CI installs no scipy.
CHI2_60_999 = 99.61


@pytest.mark.parametrize(
    "strategy, direction, first_seed",
    [
        (StrategyId.HONEST, Role.ALICE, 1000),
        (StrategyId.HONEST, Role.BOB, 1064),
        (StrategyId.PRE_MEASURE, Role.ALICE, 1128),
        (StrategyId.PRE_MEASURE, Role.BOB, 1192),
    ],
    ids=["Honest-Alice", "Honest-Bob", "PreMeasure-Alice", "PreMeasure-Bob"],
)
def test_sampled_transcripts_fit_the_exact_honest_maps(strategy, direction, first_seed):
    # The sampler's own path, P2's early walk included, against the exact
    # Honest maps: 64 runs of 100 rounds at d = 2, keys cycling, each case
    # on its own 64 seeds.  The (key, cell) counts fit the 64 live cells,
    # and no round lands outside the honest support.
    honest = exact_transcript_distribution(StrategyId.HONEST, direction)
    alphabet = list(PauliLabel)
    rounds, runs = 100, 64
    keys = [alphabet[i % 4] for i in range(rounds)]
    seeds = range(first_seed, first_seed + runs)
    config = ProtocolConfig(rounds=rounds, decoys_per_sequence=2, direction=direction)
    counts = Counter()
    codes = reference.key_codes(keys)
    for _, i, row in protocol.run_batch(config, seeds, [codes] * runs, strategy):
        assert row.decision is not None  # neither strategy disturbs a decoy
        counts[keys[i], (row.c, row.a, row.b)] += 1
    assert sum(counts.values()) == runs * rounds
    per_key = runs * rounds // 4  # each run's 100 rounds cycle the 4 keys
    live = {(key, cell) for key, cells in honest.items() for cell, p in cells.items() if p > 1e-12}
    assert len(live) == 64
    assert set(counts) <= live
    chi2 = sum(
        (counts[key, cell] - per_key * honest[key][cell]) ** 2 / (per_key * honest[key][cell])
        for key, cell in live
    )
    assert chi2 <= CHI2_60_999
