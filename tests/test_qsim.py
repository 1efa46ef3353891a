"""Tests for the state-vector core.

Expected values below were worked out by hand (4- and 8-amplitude
expansions); anything larger is cross-checked against the kron/projector
reference in reference.py, which shares no code with the package.
"""

import itertools

import numpy as np
import pytest

import reference
from qauthsim import oracle, qsim
from qauthsim.qsim import Basis, BellLabel, PauliLabel

SQ2 = 1.0 / np.sqrt(2.0)


def outcome_probability(outcomes, outcome):
    """Probability of ``outcome`` in a ``*_outcomes`` list."""
    return next(p for o, p, _ in outcomes if o == outcome)


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return qsim.StateVector(n, amps)


def test_init_product_basis_states():
    np.testing.assert_allclose(qsim.init_product(["0"]).amps, [1, 0])
    np.testing.assert_allclose(qsim.init_product(["+"]).amps, [SQ2, SQ2])
    np.testing.assert_allclose(qsim.init_product(["0", "-"]).amps, [SQ2, -SQ2, 0, 0])


def test_init_product_matches_reference():
    rng = np.random.default_rng(42)
    tags = list("01+-")
    for _ in range(20):
        chosen = [tags[i] for i in rng.integers(0, 4, size=rng.integers(1, 5))]
        got = qsim.init_product(chosen)
        np.testing.assert_allclose(got.amps, reference.product_state(chosen), atol=1e-12)


def test_init_product_rejects_bad_input():
    with pytest.raises(ValueError):
        qsim.init_product([])
    with pytest.raises(ValueError):
        qsim.init_product(["0", "up"])


class TestLabels:
    def test_bell_label_bits(self):
        assert BellLabel.PHI_PLUS.value == (0, 0)
        assert BellLabel.PSI_PLUS.value == (0, 1)
        assert BellLabel.PHI_MINUS.value == (1, 0)
        assert BellLabel.PSI_MINUS.value == (1, 1)

    def test_pauli_label_bits(self):
        assert PauliLabel.I.value == (0, 0)
        assert PauliLabel.X.value == (0, 1)
        assert PauliLabel.Z.value == (1, 0)
        assert PauliLabel.IY.value == (1, 1)

    def test_xor_closure(self):
        for a, b in itertools.product(BellLabel, repeat=2):
            assert isinstance(a ^ b, BellLabel)
        for p, m in itertools.product(PauliLabel, BellLabel):
            out = m ^ p
            assert isinstance(out, BellLabel)
            assert out.value == (
                m.phase_bit ^ p.phase_bit,
                m.parity_bit ^ p.parity_bit,
            )

    def test_label_names(self):
        assert str(BellLabel.PHI_MINUS) == "Phi-"
        assert str(PauliLabel.IY) == "iY"


class TestGates:
    def test_pauli_on_basis_states(self):
        zero = qsim.init_product(["0"])
        np.testing.assert_allclose(qsim.apply_pauli(zero, 0, PauliLabel.X).amps, [0, 1])
        np.testing.assert_allclose(qsim.apply_pauli(zero, 0, PauliLabel.I).amps, [1, 0])
        np.testing.assert_allclose(
            qsim.apply_pauli(zero, 0, PauliLabel.IY).amps, [0, -1]
        )

    @pytest.mark.parametrize("label", ["X", BellLabel.PSI_PLUS, None])
    def test_pauli_rejects_anything_but_a_pauli_label(self, label):
        with pytest.raises(ValueError):
            qsim.apply_pauli(qsim.init_product(["0"]), 0, label)

    def test_z_turns_phi_plus_into_phi_minus(self):
        state = qsim.apply_pauli(qsim.bell_pair(BellLabel.PHI_PLUS), 0, PauliLabel.Z)
        assert qsim.same_state(state, qsim.bell_pair(BellLabel.PHI_MINUS))

    def test_hadamard_basis_action(self):
        np.testing.assert_allclose(
            qsim.apply_hadamard(qsim.init_product(["0"]), 0).amps, [SQ2, SQ2]
        )
        np.testing.assert_allclose(
            qsim.apply_hadamard(qsim.init_product(["+"]), 0).amps, [1, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            qsim.apply_hadamard(qsim.init_product(["1"]), 0).amps, [SQ2, -SQ2]
        )

    def test_cnot_basis_action(self):
        np.testing.assert_allclose(
            qsim.apply_cnot(qsim.init_product(["1", "0"]), 0, 1).amps, [0, 0, 0, 1]
        )
        np.testing.assert_allclose(
            qsim.apply_cnot(qsim.init_product(["0", "0"]), 0, 1).amps, [1, 0, 0, 0]
        )

    def test_cnot_builds_phi_plus(self):
        plus_zero = qsim.init_product(["+", "0"])
        got = qsim.apply_cnot(plus_zero, 0, 1)
        np.testing.assert_allclose(got.amps, [SQ2, 0, 0, SQ2])

    def test_gates_match_reference_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            q = int(rng.integers(0, n))
            name = ["I", "X", "Z", "iY"][rng.integers(0, 4)]
            got = qsim.apply_pauli(state, q, PauliLabel.from_bits(*reference_bits(name)))
            want = reference.embed(reference.PAULI[name], [q], n) @ state.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)
            got_h = qsim.apply_hadamard(state, q)
            np.testing.assert_allclose(
                got_h.amps, reference.embed(reference.H, [q], n) @ state.amps, atol=1e-12
            )
            if n >= 2:
                c, t = rng.choice(n, size=2, replace=False)
                got_cx = qsim.apply_cnot(state, int(c), int(t))
                want_cx = reference.embed(reference.CNOT, [int(c), int(t)], n) @ state.amps
                np.testing.assert_allclose(got_cx.amps, want_cx, atol=1e-12)

    def test_index_validation(self):
        state = qsim.init_product(["0", "0"])
        with pytest.raises(ValueError):
            qsim.apply_pauli(state, 2, PauliLabel.X)
        with pytest.raises(ValueError):
            qsim.apply_hadamard(state, -1)
        with pytest.raises(ValueError):
            qsim.apply_cnot(state, 1, 1)


def reference_bits(name):
    return {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "iY": (1, 1)}[name]


class TestMeasureZ:
    def test_eigenstate_is_deterministic(self):
        one = qsim.init_product(["1"])
        for r in (0.0, 0.3, 0.999):
            bit, post = qsim.measure_z(one, 0, r)
            assert bit == 1
            assert outcome_probability(qsim.z_outcomes(one, 0), bit) == pytest.approx(1.0)
            assert qsim.same_state(post, one)

    def test_plus_splits_on_half(self):
        plus = qsim.init_product(["+"])
        bit, _ = qsim.measure_z(plus, 0, 0.49)
        assert bit == 0
        assert outcome_probability(qsim.z_outcomes(plus, 0), bit) == pytest.approx(0.5)
        bit, _ = qsim.measure_z(plus, 0, 0.51)
        assert bit == 1

    def test_ghz_center_zero_leaves_psi_plus(self):
        ghz = qsim.prepare_ghz_like(qsim.init_product(["0"] * 3), 0, 1, 2)
        bit, post = qsim.measure_z(ghz, 0, 0.25)
        assert bit == 0
        assert outcome_probability(qsim.z_outcomes(ghz, 0), bit) == pytest.approx(0.5)
        want = np.zeros(8, dtype=complex)
        want[0b001] = SQ2
        want[0b010] = SQ2
        np.testing.assert_allclose(post.amps, want, atol=1e-12)

    def test_repeat_measurement_is_stable(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng, 3)
            q = int(rng.integers(0, 3))
            bit, post = qsim.measure_z(state, q, rng.random())
            again, _ = qsim.measure_z(post, q, rng.random())
            assert again == bit
            p = outcome_probability(qsim.z_outcomes(post, q), again)
            assert p == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalised_state(self):
        bad = qsim.StateVector(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            qsim.measure_z(bad, 0, 0.5)

    def test_rejects_randomness_outside_unit_interval(self):
        state = qsim.init_product(["0"])
        with pytest.raises(ValueError):
            qsim.measure_z(state, 0, 1.0)
        with pytest.raises(ValueError):
            qsim.measure_z(state, 0, -0.1)


class TestMeasureX:
    def test_plus_is_eigenstate(self):
        plus = qsim.init_product(["+"])
        bit, post = qsim.measure_x(plus, 0, 0.7)
        assert bit == 0
        assert outcome_probability(qsim.x_outcomes(plus, 0), bit) == pytest.approx(1.0)
        assert qsim.same_state(post, plus)

    def test_zero_splits_evenly(self):
        zero = qsim.init_product(["0"])
        bit, post = qsim.measure_x(zero, 0, 0.2)
        assert bit == 0
        assert outcome_probability(qsim.x_outcomes(zero, 0), bit) == pytest.approx(0.5)
        assert qsim.same_state(post, qsim.init_product(["+"]))
        bit, post = qsim.measure_x(zero, 0, 0.9)
        assert bit == 1
        assert qsim.same_state(post, qsim.init_product(["-"]))


class TestMeasureBell:
    def test_bell_pairs_are_eigenstates(self):
        for label in BellLabel:
            state = qsim.bell_pair(label)
            got, post = qsim.measure_bell(state, 0, 1, 0.77)
            assert got is label
            assert outcome_probability(qsim.bell_outcomes(state, 0, 1), got) == pytest.approx(1.0)
            assert qsim.same_state(post, state)

    def test_zero_zero_splits_between_phi_states(self):
        state = qsim.init_product(["0", "0"])
        outcomes = qsim.bell_outcomes(state, 0, 1)
        label, _ = qsim.measure_bell(state, 0, 1, 0.25)
        assert label is BellLabel.PHI_PLUS
        assert outcome_probability(outcomes, label) == pytest.approx(0.5)
        label, _ = qsim.measure_bell(state, 0, 1, 0.75)
        assert label is BellLabel.PHI_MINUS
        assert outcome_probability(outcomes, label) == pytest.approx(0.5)

    def test_pauli_x_shifts_psi_minus_to_phi_minus(self):
        state = qsim.apply_pauli(qsim.bell_pair(BellLabel.PSI_MINUS), 1, PauliLabel.X)
        label, _ = qsim.measure_bell(state, 0, 1, 0.5)
        assert label is BellLabel.PHI_MINUS
        assert outcome_probability(qsim.bell_outcomes(state, 0, 1), label) == pytest.approx(1.0)

    def test_pauli_action_is_label_xor(self):
        for start, pauli in itertools.product(BellLabel, PauliLabel):
            for q in (0, 1):
                state = qsim.apply_pauli(qsim.bell_pair(start), q, pauli)
                label, _ = qsim.measure_bell(state, 0, 1, 0.5)
                assert label is start ^ pauli
                p = outcome_probability(qsim.bell_outcomes(state, 0, 1), label)
                assert p == pytest.approx(1.0)

    def test_rejects_equal_indices(self):
        state = qsim.init_product(["0", "0"])
        with pytest.raises(ValueError):
            qsim.measure_bell(state, 1, 1, 0.5)


OUTCOMES = {Basis.Z: qsim.z_outcomes, Basis.X: qsim.x_outcomes, Basis.BELL: qsim.bell_outcomes}
MEASURE = {Basis.Z: qsim.measure_z, Basis.X: qsim.measure_x, Basis.BELL: qsim.measure_bell}


def dense_cases(n):
    """(basis, qubits, outcomes, dense projectors) for every single-qubit
    measurement and every ordered Bell pair on ``n`` qubits."""
    cases = []
    for q in range(n):
        cases.append((Basis.Z, (q,), [0, 1], reference.z_projectors(q, n)))
        cases.append((Basis.X, (q,), [0, 1], reference.x_projectors(q, n)))
    for q1, q2 in itertools.permutations(range(n), 2):
        projectors = reference.bell_projectors(q1, q2, n)
        cases.append((Basis.BELL, (q1, q2), list(BellLabel), projectors))
    return cases


def frozen_random_state(seed, n):
    state = random_state(np.random.default_rng(seed), n)
    state.amps.setflags(write=False)  # any in-place write by a kernel raises
    return state, state.amps.copy()


class TestKernelsAgainstDenseProjectors:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_outcome_lists(self, n):
        state, before = frozen_random_state(600 + n, n)
        for basis, qubits, outcomes, projectors in dense_cases(n):
            got = OUTCOMES[basis](state, *qubits)
            assert [entry[0] for entry in got] == outcomes
            for (_, p, post), proj in zip(got, projectors):
                projected = proj @ before
                want_p = float(np.vdot(projected, projected).real)
                assert p == pytest.approx(want_p, abs=1e-12)
                np.testing.assert_allclose(
                    post.amps, projected / np.sqrt(want_p), atol=1e-12
                )
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sampling_lands_on_every_outcome(self, n):
        state, before = frozen_random_state(700 + n, n)
        for basis, qubits, outcomes, projectors in dense_cases(n):
            acc = 0.0
            for outcome, proj in zip(outcomes, projectors):
                projected = proj @ before
                want_p = float(np.vdot(projected, projected).real)
                got, post = MEASURE[basis](state, *qubits, acc + want_p / 2)
                acc += want_p
                assert got == outcome
                p = outcome_probability(OUTCOMES[basis](state, *qubits), got)
                assert p == pytest.approx(want_p, abs=1e-12)
                np.testing.assert_allclose(
                    post.amps, projected / np.sqrt(want_p), atol=1e-12
                )
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("n", (1, 3))
    def test_dead_outcomes_carry_no_state(self, n):
        # Eigenstates of each measurement, embedded at the last qubits of an
        # n-qubit register whose other qubits hold |+>.
        rest = ["+"] * (n - 1)
        for basis, tag, live in ((Basis.Z, "1", 1), (Basis.X, "-", 1), (Basis.X, "+", 0)):
            state = qsim.init_product(rest + [tag])
            got = OUTCOMES[basis](state, n - 1)
            assert [post is None for _, _, post in got] == [b != live for b in (0, 1)]
            assert got[live][1] == pytest.approx(1.0, abs=1e-12)
            assert qsim.same_state(got[live][2], state)
            for r in (0.0, 0.5, 0.999999):
                bit, post = MEASURE[basis](state, n - 1, r)
                assert bit == live
                assert qsim.same_state(post, state)
        if n < 2:
            return
        for label in BellLabel:
            pair = qsim.bell_pair(label)
            state = qsim.StateVector(n, np.kron(qsim.init_product(rest[:-1]).amps, pair.amps))
            got = qsim.bell_outcomes(state, n - 2, n - 1)
            assert [post is None for _, _, post in got] == [m is not label for m in BellLabel]
            for r in (0.0, 0.5, 0.999999):
                got_label, post = qsim.measure_bell(state, n - 2, n - 1, r)
                assert got_label is label
                assert qsim.same_state(post, state)


class TestOutcomeDistribution:
    """Joint distributions of measurement plans over the qsim kernels, as
    enumerated by ``oracle.outcome_distribution``."""

    def test_phi_plus_correlations(self):
        dist = oracle.outcome_distribution(
            qsim.bell_pair(BellLabel.PHI_PLUS), [((0,), Basis.Z), ((1,), Basis.Z)]
        )
        assert dist[(0, 0)] == pytest.approx(0.5)
        assert dist[(1, 1)] == pytest.approx(0.5)
        assert dist[(0, 1)] == 0.0
        assert dist[(1, 0)] == 0.0

    def test_single_qubit_point_mass(self):
        dist = oracle.outcome_distribution(qsim.init_product(["0"]), [((0,), Basis.Z)])
        assert dist == {(0,): pytest.approx(1.0), (1,): 0.0}

    def test_double_ghz_support(self):
        state = qsim.init_product(["0"] * 6)
        state = qsim.prepare_ghz_like(state, 0, 1, 2)
        state = qsim.prepare_ghz_like(state, 3, 4, 5)
        plan = [
            ((0,), Basis.Z),
            ((3,), Basis.Z),
            ((1, 4), Basis.BELL),
            ((2, 5), Basis.BELL),
        ]
        dist = oracle.outcome_distribution(state, plan)
        assert len(dist) == 64
        live = {k: v for k, v in dist.items() if v > 1e-12}
        assert len(live) == 16
        for (c1, c2, a, b), p in live.items():
            assert p == pytest.approx(1 / 16, abs=1e-12)
            assert a.phase_bit ^ b.phase_bit == 0
            assert a.parity_bit ^ b.parity_bit == c1 ^ c2

    def test_matches_projector_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            qubits = list(rng.permutation(n))
            plan = []
            projector_lists = []
            while qubits:
                if len(qubits) >= 2 and rng.random() < 0.4:
                    q1, q2 = int(qubits.pop()), int(qubits.pop())
                    plan.append(((q1, q2), Basis.BELL))
                    projector_lists.append(reference.bell_projectors(q1, q2, n))
                else:
                    q = int(qubits.pop())
                    basis = Basis.Z if rng.random() < 0.5 else Basis.X
                    plan.append(((q,), basis))
                    projector_lists.append(
                        reference.z_projectors(q, n)
                        if basis is Basis.Z
                        else reference.x_projectors(q, n)
                    )
            got = oracle.outcome_distribution(state, plan)
            want = reference.joint_distribution(state.amps, projector_lists)
            bell_space = list(BellLabel)
            for key, p in got.items():
                idx = tuple(
                    bell_space.index(o) if isinstance(o, BellLabel) else o for o in key
                )
                assert p == pytest.approx(want[idx], abs=1e-10)

    def test_order_invariance(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 4)
        plan = [((0,), Basis.Z), ((1, 3), Basis.BELL), ((2,), Basis.X)]
        base = oracle.outcome_distribution(state, plan)
        for perm in itertools.permutations(range(3)):
            shuffled = [plan[i] for i in perm]
            dist = oracle.outcome_distribution(state, shuffled)
            for key, p in dist.items():
                assert p == pytest.approx(base[tuple(key[perm.index(i)] for i in range(3))], abs=1e-10)

    def test_rejects_overlapping_plan(self):
        state = qsim.init_product(["0", "0"])
        with pytest.raises(ValueError):
            oracle.outcome_distribution(state, [((0,), Basis.Z), ((0, 1), Basis.BELL)])


class TestPrepareGhz:
    def test_amplitudes(self):
        state = qsim.prepare_ghz_like(qsim.init_product(["0"] * 3), 0, 1, 2)
        want = np.zeros(8, dtype=complex)
        for idx in (0b001, 0b010, 0b100, 0b111):
            want[idx] = 0.5
        np.testing.assert_allclose(state.amps, want, atol=1e-12)

    def test_center_outcomes_select_bell_pair(self):
        state = qsim.prepare_ghz_like(qsim.init_product(["0"] * 3), 0, 1, 2)
        for bit, want in ((0, BellLabel.PSI_PLUS), (1, BellLabel.PHI_PLUS)):
            _, post = qsim.measure_z(state, 0, 0.25 if bit == 0 else 0.75)
            label, _ = qsim.measure_bell(post, 1, 2, 0.5)
            assert label is want
            assert outcome_probability(qsim.bell_outcomes(post, 1, 2), label) == pytest.approx(1.0)

    def test_works_on_scrambled_indices(self):
        state = qsim.prepare_ghz_like(qsim.init_product(["0"] * 4), 2, 0, 3)
        dist = oracle.outcome_distribution(
            state, [((2,), Basis.Z), ((0, 3), Basis.BELL)]
        )
        assert dist[(0, BellLabel.PSI_PLUS)] == pytest.approx(0.5)
        assert dist[(1, BellLabel.PHI_PLUS)] == pytest.approx(0.5)

    def test_rejects_occupied_qubits(self):
        with pytest.raises(ValueError):
            qsim.prepare_ghz_like(qsim.init_product(["0", "1", "0"]), 0, 1, 2)
        with pytest.raises(ValueError):
            qsim.prepare_ghz_like(qsim.init_product(["0"] * 3), 0, 0, 2)


class TestInvariants:
    def test_gates_preserve_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            for _ in range(10):
                kind = rng.integers(0, 3)
                if kind == 0:
                    state = qsim.apply_pauli(
                        state, int(rng.integers(0, n)), list(PauliLabel)[rng.integers(0, 4)]
                    )
                elif kind == 1:
                    state = qsim.apply_hadamard(state, int(rng.integers(0, n)))
                elif n >= 2:
                    c, t = rng.choice(n, size=2, replace=False)
                    state = qsim.apply_cnot(state, int(c), int(t))
            assert abs(state.norm() - 1.0) <= 1e-10

    def test_involutions(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng, 3)
            q = int(rng.integers(0, 3))
            for label in (PauliLabel.I, PauliLabel.X, PauliLabel.Z):
                twice = qsim.apply_pauli(qsim.apply_pauli(state, q, label), q, label)
                np.testing.assert_allclose(twice.amps, state.amps, atol=1e-10)
            twice_h = qsim.apply_hadamard(qsim.apply_hadamard(state, q), q)
            np.testing.assert_allclose(twice_h.amps, state.amps, atol=1e-10)
            twice_iy = qsim.apply_pauli(
                qsim.apply_pauli(state, q, PauliLabel.IY), q, PauliLabel.IY
            )
            # iY squared is -identity: same ray, negated amplitudes
            assert qsim.same_state(twice_iy, state)
            np.testing.assert_allclose(twice_iy.amps, -state.amps, atol=1e-10)

    def test_measurement_records_match_born_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            q = int(rng.integers(0, n))
            dist = oracle.outcome_distribution(state, [((q,), Basis.Z)])
            bit, _ = qsim.measure_z(state, q, rng.random())
            p = outcome_probability(qsim.z_outcomes(state, q), bit)
            assert p == pytest.approx(dist[(bit,)], abs=1e-10)

    def test_distribution_completeness(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            state = random_state(rng, n)
            q1, q2, q3 = (int(q) for q in rng.choice(n, size=3, replace=False))
            plan = [((q1,), Basis.Z), ((q2, q3), Basis.BELL)]
            dist = oracle.outcome_distribution(state, plan)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_sampling_agrees_with_outcome_lists(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng, 3)
            r = rng.random()
            options = qsim.z_outcomes(state, 1)
            acc = 0.0
            want = None
            for bit, p, post in options:
                acc += p
                if post is not None and want is None and r < acc:
                    want = bit
            got, _ = qsim.measure_z(state, 1, r)
            assert got == want

    def test_same_state_is_phase_blind(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 2)
        rotated = qsim.StateVector(2, state.amps * np.exp(1j * 0.83))
        assert qsim.same_state(state, rotated)
        other = random_state(rng, 2)
        assert not qsim.same_state(state, other)


# ---------------------------------------------------------------------------
# batches: a leading row axis


BATCH_MEASURES = [(qsim.measure_z, 1), (qsim.measure_x, 1), (qsim.measure_bell, 2)]


def random_batch(rng, n, rows):
    amps = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def test_batched_measurements_match_each_row_alone():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        amps = random_batch(rng, n, 9)
        for measure, arity in BATCH_MEASURES:
            if arity > n:
                continue
            qubits = [int(q) for q in rng.choice(n, size=arity, replace=False)]
            draws = rng.random(size=len(amps)).tolist()
            outcomes, post = measure(qsim.StateVector(n, amps), *qubits, draws)
            assert post.amps.shape == amps.shape
            for row, draw, outcome, row_post in zip(amps, draws, outcomes, post.amps):
                alone, alone_post = measure(qsim.StateVector(n, row.copy()), *qubits, draw)
                assert outcome == alone
                np.testing.assert_allclose(row_post, alone_post.amps, rtol=0, atol=1e-12)


def test_batched_measurement_refuses_one_unnormalised_row():
    amps = random_batch(np.random.default_rng(32), 3, 5)
    amps[2] *= 1.01
    for measure, arity in BATCH_MEASURES:
        with pytest.raises(ValueError):
            measure(qsim.StateVector(3, amps), *range(arity), [0.5] * 5)


def test_batched_measurement_takes_one_draw_per_row():
    amps = random_batch(np.random.default_rng(33), 2, 3)
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, 0.5)
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, [0.5, 1.0, 0.5])


def test_pauli_takes_one_label_per_row():
    rng = np.random.default_rng(34)
    amps = random_batch(rng, 3, 6)
    labels = [list(PauliLabel)[int(k)] for k in rng.integers(0, 4, size=6)]
    got = qsim.apply_pauli(qsim.StateVector(3, amps), 1, labels)
    for row, label, row_got in zip(amps, labels, got.amps):
        expected = qsim.apply_pauli(qsim.StateVector(3, row.copy()), 1, label)
        assert np.array_equal(row_got, expected.amps)
    with pytest.raises(ValueError):
        qsim.apply_pauli(qsim.StateVector(3, amps), 1, labels[:5])
