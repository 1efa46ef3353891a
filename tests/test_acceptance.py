"""Acceptance checks.

One test per headline claim, each printing a single pass/fail line (run
with ``pytest -s`` to see them).  Together they pin down the package's
core guarantees:

1. the pre-measurement strategy leaves the public transcript distribution
   exactly unchanged,
2. it recovers the round key every single time,
3. it never disturbs a decoy,
4. honest runs always verify and wrong keys never do,
5. the swapping and Pauli-relabelling tables are correct,
6. intercept-resend is caught at the textbook 7/16 rate, and
7. the simulator keeps states normalized and distributions stochastic on
   random workloads.
"""

import time

import numpy as np
import pytest

import reference

from qauthsim import oracle, protocol, qsim
from qauthsim.adversary import EveState, StrategyId, infer_key
from qauthsim.oracle import (
    enumerate_branches,
    exact_transcript_distribution,
    pauli_bell_map,
    swap_table,
    tv_distance,
    wilson_interval,
)
from qauthsim.protocol import (
    A1,
    A2,
    B1,
    B2,
    C1,
    C2,
    Decision,
    ProtocolConfig,
    Role,
    e3_verify,
    run_protocol,
)
from qauthsim.qsim import Basis, BellLabel, PauliLabel


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_transcripts_are_indistinguishable():
    start = time.perf_counter()
    worst = 0.0
    for direction in (Role.ALICE, Role.BOB):
        honest = exact_transcript_distribution(StrategyId.HONEST, direction)
        attacked = exact_transcript_distribution(StrategyId.PRE_MEASURE, direction)
        for key in PauliLabel:
            worst = max(worst, tv_distance(honest[key], attacked[key]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"max TV distance {worst:.3e} (limit 1e-12) in {elapsed:.3f}s (limit 1s)")
    assert ok


def test_criterion_2_key_recovery_is_certain():
    # Exact: every enumeration branch, every key, both directions, each
    # branch a round measured by qsim's kernels through the enumerator:
    # Charlie's early Z on C1 and C2 and Bell on both pairs, the key's
    # Pauli, then Alice's and Bob's Bell measurements.
    branches_ok = True
    n_branches = 0
    for key in PauliLabel:
        for direction in (Role.ALICE, Role.BOB):

            def pipeline(source, key=key, direction=direction):
                c1, state = source.measure_z(protocol._FRESH_STATE, C1)
                c2, state = source.measure_z(state, C2)
                m, state = source.measure_bell(state, A1, A2)
                b, state = source.measure_bell(state, B1, B2)
                state = qsim.apply_pauli(state, A1 if direction is Role.ALICE else B1, key)
                alice, state = source.measure_bell(state, A1, A2)
                bob, state = source.measure_bell(state, B1, B2)
                announced = alice if direction is Role.ALICE else bob
                return [
                    infer_key(EveState(c, early_m, early_b), party, direction) is key
                    for c, early_m, early_b, party in zip(zip(c1, c2), m, b, announced)
                ]

            total = 0.0
            for hit, prob in enumerate_branches(pipeline):
                n_branches += 1
                total += prob
                branches_ok = branches_ok and hit
            branches_ok = branches_ok and abs(total - 1.0) <= 1e-12

    # Sampled: ten thousand attacked rounds with random keys.
    master = np.random.default_rng(2024)
    alphabet = list(PauliLabel)
    guesses = hits = 0
    for _ in range(100):
        keys = [alphabet[int(i)] for i in master.integers(0, 4, size=100)]
        config = ProtocolConfig(
            rounds=100, decoys_per_sequence=1, seed=int(master.integers(0, 2**63))
        )
        transcript = run_protocol(config, keys, StrategyId.PRE_MEASURE)
        for record, key in zip(transcript.rounds, keys):
            if record.inferred_key is not None:
                guesses += 1
                hits += record.inferred_key is key
    sampled_ok = guesses >= 10_000 and hits == guesses
    ok = branches_ok and sampled_ok
    report(
        2,
        ok,
        f"{n_branches} enumerated branches all recover the key; sampled rate "
        f"{hits / guesses} over {guesses} rounds",
    )
    assert ok


def test_criterion_3_decoys_are_never_disturbed():
    total_rounds = 0
    clean = True
    for decoys in range(9):
        for run in range(10):
            config = ProtocolConfig(
                rounds=125, decoys_per_sequence=decoys, seed=1000 * decoys + run
            )
            keys = [PauliLabel.Z] * 125
            transcript = run_protocol(config, keys, StrategyId.PRE_MEASURE)
            total_rounds += len(transcript.rounds)
            clean = clean and transcript.decision is Decision.ACCEPT
            for record in transcript.rounds:
                clean = clean and reference.decoy_error_rate([record]) == 0.0
    ok = clean and total_rounds >= 10_000
    report(
        3,
        ok,
        f"{total_rounds} attacked rounds across decoy counts 0..8, "
        f"every decoy error rate exactly 0.0",
    )
    assert ok


def test_criterion_4_honest_verification_is_sound():
    accept_ok = True
    reject_ok = True
    for key, dist in exact_transcript_distribution(StrategyId.HONEST).items():
        accept_mass = sum(
            p
            for (c, a, b), p in dist.items()
            if e3_verify(a, b, c, key) is Decision.ACCEPT
        )
        accept_ok = accept_ok and abs(accept_mass - 1.0) <= 1e-12
        for (c, a, b), p in dist.items():
            if p <= 1e-12:
                continue
            for wrong in PauliLabel:
                if wrong is not key:
                    reject_ok = reject_ok and e3_verify(a, b, c, wrong) is Decision.REJECT
    ok = accept_ok and reject_ok
    report(
        4,
        ok,
        "honest accept probability 1.0 for every key; every wrong key rejected "
        "on every branch",
    )
    assert ok


def test_criterion_5_tables_match_the_simulator():
    swap_ok = True
    for m in BellLabel:
        for n in BellLabel:
            joint = swap_table(m, n)
            live = {pair: p for pair, p in joint.items() if p > 1e-12}
            swap_ok = swap_ok and len(live) == 4
            target = (m.phase_bit ^ n.phase_bit, m.parity_bit ^ n.parity_bit)
            for (p, q), prob in live.items():
                swap_ok = swap_ok and abs(prob - 0.25) <= 1e-12
                swap_ok = swap_ok and (
                    (p.phase_bit ^ q.phase_bit, p.parity_bit ^ q.parity_bit) == target
                )
    pauli_ok = True
    for p in PauliLabel:
        for m in BellLabel:
            state = qsim.apply_pauli(reference.bell_pair(m), 0, p)
            live = [
                (label, prob)
                for label, prob, _ in reference.outcome_list(Basis.BELL, state, 0, 1)
                if prob > 1e-12
            ]
            pauli_ok = pauli_ok and len(live) == 1
            pauli_ok = pauli_ok and live[0][0] is pauli_bell_map(p, m)
            pauli_ok = pauli_ok and abs(live[0][1] - 1.0) <= 1e-12
    ok = swap_ok and pauli_ok
    report(5, ok, "16 swapping tables and 16 relabelling entries verified at 1e-12")
    assert ok


def test_criterion_6_intercept_resend_is_detected():
    trials = 100_000
    start = time.perf_counter()
    detected = 0
    for seed in range(trials):
        config = ProtocolConfig(rounds=1, decoys_per_sequence=1, seed=seed)
        transcript = run_protocol(config, [PauliLabel.I], StrategyId.INTERCEPT_RESEND)
        detected += transcript.decision is Decision.ABORT
    elapsed = time.perf_counter() - start
    low, high = wilson_interval(detected, trials)
    ok = low <= 0.4375 <= high and elapsed < 30.0
    report(
        6,
        ok,
        f"detection rate {detected / trials:.4f} over {trials} runs, Wilson 95% "
        f"[{low:.4f}, {high:.4f}] covers 0.4375, in {elapsed:.1f}s (limit 30s)",
    )
    assert ok


def test_criterion_7_simulator_stays_consistent_on_random_workloads():
    rng = np.random.default_rng(77)
    tags = ["0", "1", "+", "-"]
    worst_norm = 0.0
    worst_sum = 0.0
    sequences = 1000
    for _ in range(sequences):
        n = int(rng.integers(1, 11))
        state = qsim.init_product([tags[int(t)] for t in rng.integers(0, 4, size=n)])
        for _ in range(int(rng.integers(5, 26))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                q = int(rng.integers(0, n))
                state = qsim.apply_pauli(state, q, list(PauliLabel)[int(rng.integers(0, 4))])
            elif kind == 1:
                state = qsim.apply_hadamard(state, int(rng.integers(0, n)))
            elif n >= 2:
                control, target = (int(q) for q in rng.permutation(n)[:2])
                state = qsim.apply_cnot(state, control, target)
        worst_norm = max(worst_norm, abs(reference.norm(state) - 1.0))

        free = list(rng.permutation(n))
        plan = []
        while free and len(plan) < 3:
            if len(free) >= 2 and rng.random() < 0.5:
                plan.append(((int(free.pop()), int(free.pop())), Basis.BELL))
            else:
                basis = Basis.Z if rng.random() < 0.5 else Basis.X
                plan.append(((int(free.pop()),), basis))
        dist = oracle.outcome_distribution(state, plan)
        worst_sum = max(worst_sum, abs(sum(dist.values()) - 1.0))
    ok = worst_norm <= 1e-10 and worst_sum <= 1e-10
    report(
        7,
        ok,
        f"{sequences} random sequences: worst norm deviation {worst_norm:.2e}, "
        f"worst distribution mass deviation {worst_sum:.2e} (limits 1e-10)",
    )
    assert ok
