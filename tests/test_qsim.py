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


def outcome_probability(outcome, basis, state, *qubits):
    """Probability of ``outcome`` in ``state``'s :func:`reference.outcome_list`."""
    return next(p for o, p, _ in reference.outcome_list(basis, state, *qubits) if o == outcome)


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


@pytest.mark.parametrize("shape", [(3,), (1, 2, 4), (2, 8)], ids=["short-1d", "3d", "wrong-width"])
def test_state_vector_refuses_a_shape_that_is_not_one_state_or_a_batch(shape):
    # Two qubits take (4,) or (rows, 4) amplitudes; anything else is refused.
    with pytest.raises(ValueError, match=r"expected \(4,\) or \(rows, 4\) for 2 qubits"):
        qsim.StateVector(2, np.zeros(shape))


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

    def test_labels_hash_by_identity(self):
        # Members are singletons, so a label's hash is the C object hash,
        # and a label built from its bits finds the same dict entry.
        for label in (*BellLabel, *PauliLabel):
            assert hash(label) == object.__hash__(label)
            cells = {((0, 1), label): label}
            assert cells[((0, 1), type(label).from_bits(*label.value))] is label


class TestGates:
    def test_pauli_on_basis_states(self):
        zero = qsim.init_product(["0"])
        np.testing.assert_allclose(qsim.apply_pauli(zero, 0, PauliLabel.X).amps, [0, 1])
        np.testing.assert_allclose(qsim.apply_pauli(zero, 0, PauliLabel.I).amps, [1, 0])
        np.testing.assert_allclose(
            qsim.apply_pauli(zero, 0, PauliLabel.IY).amps, [0, -1]
        )

    @pytest.mark.parametrize("label", ["X", BellLabel.PSI_PLUS, None, [BellLabel.PSI_PLUS]])
    def test_pauli_rejects_anything_but_a_pauli_label(self, label):
        with pytest.raises(ValueError):
            qsim.apply_pauli(qsim.init_product(["0"]), 0, label)

    def test_z_turns_phi_plus_into_phi_minus(self):
        state = qsim.apply_pauli(reference.bell_pair(BellLabel.PHI_PLUS), 0, PauliLabel.Z)
        assert reference.same_state(state, reference.bell_pair(BellLabel.PHI_MINUS))

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
            (bit,), post = qsim.measure_z(one, 0, [r])
            assert bit == 1
            assert outcome_probability(bit, Basis.Z, one, 0) == pytest.approx(1.0)
            assert reference.same_state(post, one)

    def test_plus_splits_on_half(self):
        plus = qsim.init_product(["+"])
        (bit,), _ = qsim.measure_z(plus, 0, [0.49])
        assert bit == 0
        assert outcome_probability(bit, Basis.Z, plus, 0) == pytest.approx(0.5)
        (bit,), _ = qsim.measure_z(plus, 0, [0.51])
        assert bit == 1

    def test_ghz_center_zero_leaves_psi_plus(self):
        ghz = qsim.prepare_ghz_like(qsim.init_product(["0"] * 3), 0, 1, 2)
        (bit,), post = qsim.measure_z(ghz, 0, [0.25])
        assert bit == 0
        assert outcome_probability(bit, Basis.Z, ghz, 0) == pytest.approx(0.5)
        want = np.zeros(8, dtype=complex)
        want[0b001] = SQ2
        want[0b010] = SQ2
        np.testing.assert_allclose(post.amps, want, atol=1e-12)

    def test_repeat_measurement_is_stable(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng, 3)
            q = int(rng.integers(0, 3))
            (bit,), post = qsim.measure_z(state, q, [rng.random()])
            (again,), _ = qsim.measure_z(post, q, [rng.random()])
            assert again == bit
            p = outcome_probability(again, Basis.Z, post, q)
            assert p == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalised_state(self):
        bad = qsim.StateVector(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            qsim.measure_z(bad, 0, [0.5])

    def test_rejects_randomness_outside_unit_interval(self):
        state = qsim.init_product(["0"])
        with pytest.raises(ValueError):
            qsim.measure_z(state, 0, [1.0])
        with pytest.raises(ValueError):
            qsim.measure_z(state, 0, [-0.1])

    def test_rejects_a_qubit_index_that_is_no_integer(self):
        # True would pass a range check as qubit 1; a float or a string
        # would reach numpy as a TypeError.  Numpy integers are indices.
        state = qsim.init_product(["0", "+"])
        for q in (True, np.bool_(False), 1.0, "1", None):
            with pytest.raises(ValueError, match="not an integer"):
                qsim.measure_z(state, q, [0.5])
            with pytest.raises(ValueError, match="not an integer"):
                qsim.apply_hadamard(state, q)
        (bit,), _ = qsim.measure_z(state, np.int64(0), [0.5])
        assert bit == 0


class TestMeasureX:
    def test_plus_is_eigenstate(self):
        plus = qsim.init_product(["+"])
        (bit,), post = qsim.measure_x(plus, 0, [0.7])
        assert bit == 0
        assert outcome_probability(bit, Basis.X, plus, 0) == pytest.approx(1.0)
        assert reference.same_state(post, plus)

    def test_zero_splits_evenly(self):
        zero = qsim.init_product(["0"])
        (bit,), post = qsim.measure_x(zero, 0, [0.2])
        assert bit == 0
        assert outcome_probability(bit, Basis.X, zero, 0) == pytest.approx(0.5)
        assert reference.same_state(post, qsim.init_product(["+"]))
        (bit,), post = qsim.measure_x(zero, 0, [0.9])
        assert bit == 1
        assert reference.same_state(post, qsim.init_product(["-"]))


class TestMeasureBell:
    def test_bell_pairs_are_eigenstates(self):
        for label in BellLabel:
            state = reference.bell_pair(label)
            (got,), post = qsim.measure_bell(state, 0, 1, [0.77])
            assert got is label
            assert outcome_probability(got, Basis.BELL, state, 0, 1) == pytest.approx(1.0)
            assert reference.same_state(post, state)

    def test_zero_zero_splits_between_phi_states(self):
        state = qsim.init_product(["0", "0"])
        (label,), _ = qsim.measure_bell(state, 0, 1, [0.25])
        assert label is BellLabel.PHI_PLUS
        assert outcome_probability(label, Basis.BELL, state, 0, 1) == pytest.approx(0.5)
        (label,), _ = qsim.measure_bell(state, 0, 1, [0.75])
        assert label is BellLabel.PHI_MINUS
        assert outcome_probability(label, Basis.BELL, state, 0, 1) == pytest.approx(0.5)

    def test_pauli_x_shifts_psi_minus_to_phi_minus(self):
        state = qsim.apply_pauli(reference.bell_pair(BellLabel.PSI_MINUS), 1, PauliLabel.X)
        (label,), _ = qsim.measure_bell(state, 0, 1, [0.5])
        assert label is BellLabel.PHI_MINUS
        assert outcome_probability(label, Basis.BELL, state, 0, 1) == pytest.approx(1.0)

    def test_pauli_action_is_label_xor(self):
        for start, pauli in itertools.product(BellLabel, PauliLabel):
            for q in (0, 1):
                state = qsim.apply_pauli(reference.bell_pair(start), q, pauli)
                (label,), _ = qsim.measure_bell(state, 0, 1, [0.5])
                assert label is start ^ pauli
                p = outcome_probability(label, Basis.BELL, state, 0, 1)
                assert p == pytest.approx(1.0)

    def test_rejects_equal_indices(self):
        state = qsim.init_product(["0", "0"])
        with pytest.raises(ValueError):
            qsim.measure_bell(state, 1, 1, [0.5])


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
            got = reference.outcome_list(basis, state, *qubits)
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
                (got,), post = MEASURE[basis](state, *qubits, [acc + want_p / 2])
                acc += want_p
                assert got == outcome
                p = outcome_probability(got, basis, state, *qubits)
                assert p == pytest.approx(want_p, abs=1e-12)
                np.testing.assert_allclose(
                    post.amps, projected / np.sqrt(want_p), atol=1e-12
                )
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("n", (1, 3))
    def test_dead_outcomes_carry_no_state(self, n):
        # Eigenstates of each measurement, embedded at the last qubits of an
        # n-qubit register whose other qubits hold |+>.  Every other outcome
        # is dead, at most ZERO_PROB, and no draw selects it.
        rest = ["+"] * (n - 1)
        for basis, tag, live in ((Basis.Z, "1", 1), (Basis.X, "-", 1), (Basis.X, "+", 0)):
            state = qsim.init_product(rest + [tag])
            got = reference.outcome_list(basis, state, n - 1)
            assert [p <= qsim.ZERO_PROB for _, p, _ in got] == [b != live for b in (0, 1)]
            assert got[live][1] == pytest.approx(1.0, abs=1e-12)
            for r in (0.0, 0.5, 0.999999):
                (bit,), post = MEASURE[basis](state, n - 1, [r])
                assert bit == live
                assert reference.same_state(post, state)
        if n < 2:
            return
        for label in BellLabel:
            pair = reference.bell_pair(label)
            state = qsim.StateVector(n, np.kron(qsim.init_product(rest[:-1]).amps, pair.amps))
            got = reference.outcome_list(Basis.BELL, state, n - 2, n - 1)
            assert [p <= qsim.ZERO_PROB for _, p, _ in got] == [m is not label for m in BellLabel]
            for r in (0.0, 0.5, 0.999999):
                (got_label,), post = qsim.measure_bell(state, n - 2, n - 1, [r])
                assert got_label is label
                assert reference.same_state(post, state)


class TestOutcomeDistribution:
    """Joint distributions of measurement plans over the qsim kernels, as
    enumerated by ``oracle.outcome_distribution``."""

    def test_phi_plus_correlations(self):
        dist = oracle.outcome_distribution(
            reference.bell_pair(BellLabel.PHI_PLUS), [((0,), Basis.Z), ((1,), Basis.Z)]
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
            _, post = qsim.measure_z(state, 0, [0.25 if bit == 0 else 0.75])
            (label,), _ = qsim.measure_bell(post, 1, 2, [0.5])
            assert label is want
            assert outcome_probability(label, Basis.BELL, post, 1, 2) == pytest.approx(1.0)

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
        rows = np.stack([qsim.init_product(tags).amps for tags in ("000", "010", "000")])
        with pytest.raises(ValueError, match="must be in"):
            qsim.prepare_ghz_like(qsim.StateVector(3, rows), 0, 1, 2)
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
            assert abs(reference.norm(state) - 1.0) <= 1e-10

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
            assert reference.same_state(twice_iy, state)
            np.testing.assert_allclose(twice_iy.amps, -state.amps, atol=1e-10)

    def test_measurement_records_match_born_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            q = int(rng.integers(0, n))
            dist = oracle.outcome_distribution(state, [((q,), Basis.Z)])
            (bit,), _ = qsim.measure_z(state, q, [rng.random()])
            p = outcome_probability(bit, Basis.Z, state, q)
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
            options = reference.outcome_list(Basis.Z, state, 1)
            acc = 0.0
            want = None
            for bit, p, post in options:
                acc += p
                if post is not None and want is None and r < acc:
                    want = bit
            (got,), _ = qsim.measure_z(state, 1, [r])
            assert got == want

    def test_same_state_is_phase_blind(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 2)
        rotated = qsim.StateVector(2, state.amps * np.exp(1j * 0.83))
        assert reference.same_state(state, rotated)
        other = random_state(rng, 2)
        assert not reference.same_state(state, other)


# ---------------------------------------------------------------------------
# batches: a leading row axis


BATCH_MEASURES = [(qsim.measure_z, 1), (qsim.measure_x, 1), (qsim.measure_bell, 2)]


def random_batch(rng, n, rows):
    amps = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def real_rows(amps):
    """The real part of each row of ``amps``, renormalised: a float64 batch."""
    return amps.real / np.linalg.norm(amps.real, axis=1, keepdims=True)


def test_batched_measurements_match_each_row_alone():
    # A complex batch and a float64 one; each output keeps its input's dtype.
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        amps = random_batch(rng, n, 9)
        for measure, arity in BATCH_MEASURES:
            if arity > n:
                continue
            qubits = [int(q) for q in rng.choice(n, size=arity, replace=False)]
            draws = rng.random(size=len(amps)).tolist()
            for batch in (amps, real_rows(amps)):
                outcomes, post = measure(qsim.StateVector(n, batch), *qubits, draws)
                assert post.amps.shape == batch.shape
                assert post.amps.dtype == batch.dtype
                for row, draw, outcome, row_post in zip(batch, draws, outcomes, post.amps):
                    (alone,), alone_post = measure(
                        qsim.StateVector(n, row.copy()), *qubits, [draw]
                    )
                    assert outcome == alone
                    assert alone_post.amps.dtype == batch.dtype
                    np.testing.assert_allclose(row_post, alone_post.amps, rtol=0, atol=1e-12)


def test_batched_measurement_refuses_one_unnormalised_row():
    amps = random_batch(np.random.default_rng(32), 3, 5)
    amps[2] *= 1.01
    for measure, arity in BATCH_MEASURES:
        with pytest.raises(ValueError):
            measure(qsim.StateVector(3, amps), *range(arity), [0.5] * 5)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nan_mass_is_refused(value):
    # NaN compares false to everything, so a bare "worst > tol" would let it
    # through, and an infinite amplitude times a zero mask is NaN; every
    # measurement must refuse both, on one state or in any row, before a
    # reduction warns.
    bad = qsim.init_product(["+", "0", "-"]).amps.copy()
    bad[3] = value
    for measure, arity in BATCH_MEASURES:
        with pytest.raises(ValueError, match="refusing to measure"):
            measure(qsim.StateVector(3, bad), *range(arity), [0.5])
    good = random_batch(np.random.default_rng(35), 3, 4)
    for row in (0, 1, 3):
        amps = good.copy()
        amps[row] = bad
        for measure, arity in BATCH_MEASURES:
            with pytest.raises(ValueError, match="refusing to measure"):
                measure(qsim.StateVector(3, amps), *range(arity), [0.5] * 4)


def test_batched_measurement_takes_one_draw_per_row():
    amps = random_batch(np.random.default_rng(33), 2, 3)
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, 0.5)
    with pytest.raises(ValueError):
        qsim.measure_z(qsim.StateVector(2, amps), 0, [0.5, 1.0, 0.5])
    for draws in (0.5, [0.5, 0.5], (0.5,)):
        with pytest.raises(ValueError):
            qsim.measure_z(qsim.StateVector(2, amps[0]), 0, draws)
    # Draws only: a callable that would pick each row's outcome is refused
    # for a batch and a single state alike.
    for measure, arity in BATCH_MEASURES:
        for state in (qsim.StateVector(2, amps), qsim.StateVector(2, amps[0])):
            with pytest.raises(ValueError, match="one draw per row"):
                measure(state, *range(arity), lambda probs: [0] * len(probs))


def test_batch_probabilities_are_one_array_of_the_rows_one_row_arrays():
    # A batch's kernel probabilities are one (rows, outcomes) float64
    # array, and each row is bitwise its state's own, measured as a one-row
    # batch, in every basis.
    rng = np.random.default_rng(38)
    kernels = [(qsim._z_kernel, 1), (qsim._x_kernel, 1), (qsim._bell_kernel, 2)]
    for _ in range(40):
        n, rows = int(rng.integers(2, 7)), int(rng.integers(1, 8))
        complex_amps = random_batch(rng, n, rows)
        for amps in (complex_amps, real_rows(complex_amps)):
            for kernel, arity in kernels:
                qubits = [int(q) for q in rng.permutation(n)[:arity]]
                probs, _ = kernel(amps, n, *qubits)
                assert type(probs) is np.ndarray
                assert probs.dtype == np.float64
                assert probs.shape == (rows, 2 * arity)
                for r in range(rows):
                    alone, _ = kernel(amps[r:r + 1], n, *qubits)
                    assert alone.shape == (1, 2 * arity)
                    assert alone.tobytes() == probs[r:r + 1].tobytes()


@pytest.mark.parametrize("rows", [1, 2, 128, 600])
@pytest.mark.parametrize("kernel, arity", [(qsim._z_kernel, 1), (qsim._x_kernel, 1),
                                           (qsim._bell_kernel, 2)],
                         ids=["Z", "X", "Bell"])
def test_every_kernel_gives_a_batch_row_its_one_row_bits(kernel, arity, rows):
    # One reduction rule for every kernel, at any batch size: a batch's
    # flipped amplitudes are C-contiguous, so each row's stacked matmul or
    # sum adds its terms in the order the row measured alone, as a one-row
    # batch, adds them, for real and complex states of the protocol's six
    # qubits alike.  Its probabilities and its projected post-state are
    # bitwise the same in any batch.
    rng = np.random.default_rng(rows + arity)
    complex_amps = random_batch(rng, 6, rows)
    for amps in (complex_amps, real_rows(complex_amps)):
        assert qsim._flip(amps, qsim._flip_perm(6, 2)).flags.c_contiguous
        for _ in range(3):
            qubits = [int(q) for q in rng.permutation(6)[:arity]]
            probs, project = kernel(amps, 6, *qubits)
            picks = rng.integers(0, 2 * arity, size=rows)
            roots = np.sqrt(probs[np.arange(rows), picks])[:, None]
            post = project(picks, roots)
            for r in range(rows):
                alone, alone_project = kernel(amps[r:r + 1], 6, *qubits)
                assert alone.tobytes() == probs[r:r + 1].tobytes()
                assert alone_project(picks[r:r + 1], roots[r:r + 1]).tobytes() == post[r:r + 1].tobytes()


# Each measurement and gate on a state, with one draw or label for its one
# row.
ONE_ROW_CALLS = {
    "measure_z": lambda s, u, label: qsim.measure_z(s, 2, [u]),
    "measure_x": lambda s, u, label: qsim.measure_x(s, 0, [u]),
    "measure_bell": lambda s, u, label: qsim.measure_bell(s, 3, 1, [u]),
    "pauli": lambda s, u, label: ([], qsim.apply_pauli(s, 1, label)),
    "pauli-list": lambda s, u, label: ([], qsim.apply_pauli(s, 1, [label])),
    "hadamard": lambda s, u, label: ([], qsim.apply_hadamard(s, 2)),
    "cnot": lambda s, u, label: ([], qsim.apply_cnot(s, 3, 0)),
    "ghz": lambda s, u, label: ([], qsim.prepare_ghz_like(s, 3, 0, 2)),
}


@pytest.mark.parametrize("call", sorted(ONE_ROW_CALLS))
def test_a_1d_state_is_a_one_row_batch(call):
    # A 1-D state goes in and comes out 1-D, and its outcome and post-state
    # are bitwise row 0's of the same state passed as a (1, 2^n) batch.
    rng = np.random.default_rng(39)
    apply = ONE_ROW_CALLS[call]
    for _ in range(20):
        complex_amps = _ghz_ready_batch(rng, 1) if call == "ghz" else random_batch(rng, 4, 1)
        u, label = float(rng.random()), list(PauliLabel)[int(rng.integers(4))]
        for amps in (complex_amps, real_rows(complex_amps)):
            outcomes, post = apply(qsim.StateVector(4, amps[0].copy()), u, label)
            batch_outcomes, batch_post = apply(qsim.StateVector(4, amps), u, label)
            assert post.amps.shape == (16,)
            assert batch_post.amps.shape == (1, 16)
            assert outcomes == batch_outcomes
            assert post.amps.dtype == amps.dtype
            assert post.amps.tobytes() == batch_post.amps[0].tobytes()


def _ghz_ready_batch(rng, rows):
    """Rows of 4 qubits with qubits 0, 2 and 3 in |0> and qubit 1 random."""
    amps = np.zeros((rows, 16), dtype=complex)
    amps[:, [0b0000, 0b0100]] = random_batch(rng, 1, rows)
    return amps


# Each gate as (state, labels) -> state; only the Pauli with a label list
# reads them.  The batch gets one label per row, and each row's reference
# gets its bare label, so the list path is checked against the single-label
# path.
BATCH_GATES = {
    "pauli": lambda s, labels: qsim.apply_pauli(s, 1, PauliLabel.IY),
    "pauli-list": lambda s, labels: qsim.apply_pauli(s, 1, labels),
    "hadamard": lambda s, labels: qsim.apply_hadamard(s, 1),
    "cnot": lambda s, labels: qsim.apply_cnot(s, 1, 3),
    "ghz": lambda s, labels: qsim.prepare_ghz_like(s, 3, 0, 2),
}


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
@pytest.mark.parametrize("gate", sorted(BATCH_GATES))
def test_pauli_takes_one_label_per_row(gate, rows):
    # Every gate acts on each row of a batch as on that row alone, on a
    # complex batch and a float64 one, and keeps its input's dtype.
    rng = np.random.default_rng(34)
    amps = _ghz_ready_batch(rng, rows) if gate == "ghz" else random_batch(rng, 4, rows)
    labels = [list(PauliLabel)[int(k)] for k in rng.integers(0, 4, size=rows)]
    apply = BATCH_GATES[gate]
    for batch in (amps, real_rows(amps)):
        got = apply(qsim.StateVector(4, batch), labels)
        assert got.amps.shape == batch.shape
        assert got.amps.dtype == batch.dtype
        for row, label, row_got in zip(batch, labels, got.amps):
            expected = apply(qsim.StateVector(4, row.copy()), label)
            assert expected.amps.dtype == batch.dtype
            assert np.array_equal(row_got, expected.amps)
    if gate == "pauli-list":
        wrong_lengths = [labels + labels[:1]] + ([labels[:-1]] if rows > 1 else [])
        for wrong in wrong_lengths:
            with pytest.raises(ValueError):
                qsim.apply_pauli(qsim.StateVector(4, amps), 1, wrong)
