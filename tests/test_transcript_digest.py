"""Sampled transcripts are pinned to fixed seeds.

Each sampling measurement takes exactly one uniform draw, in program order,
so a given (seed, keys, strategy) must always produce the same transcript.
The digests below were recorded from the rotate-and-project measurement
kernels that preceded the projector-based ones; any change to a kernel's
outcome selection or to the draw order shows up here as a digest mismatch.
"""

import hashlib

import numpy as np
import pytest

import reference

from qauthsim.adversary import StrategyId
from qauthsim.protocol import ProtocolConfig, Role, run_protocol
from qauthsim.qsim import PauliLabel

SEEDS = (3, 17, 2024, 5, 8, 13, 21, 34)

# (strategy, rounds, decoys_per_sequence, direction) -> sha256 over SEEDS
DIGESTS = {
    (StrategyId.PRE_MEASURE, 16, 16, Role.ALICE): (
        "644ba9d928116afae71a382f15c442e6ed2b24357a9a6b9b3293991249f31268"
    ),
    (StrategyId.INTERCEPT_RESEND, 1, 1, Role.ALICE): (
        "fb17e9628fa3819e2aa7ef0f6596c67a957c6686f81d0afa8f8f922c096f6815"
    ),
    (StrategyId.HONEST, 4, 4, Role.BOB): (
        "a728afc2108074c8d60762ff7311d45eb168592aa55a6081fca12d6271c77bbe"
    ),
    # No decoys: P1 draws nothing, and a round's first draw is its
    # intercept's coins or its first measurement.  Recorded at commit a5ddecc.
    (StrategyId.INTERCEPT_RESEND, 4, 0, Role.BOB): (
        "5f3796d408eb5dfc3bf177a0c2599b7f4c76b5ddcfe1413cc4c6749d592d8984"
    ),
    (StrategyId.HONEST, 3, 0, Role.ALICE): (
        "f612d27ae99c851d42b3e630854ffbff3dc38966abe6826ec6ce301133a1948b"
    ),
}


def transcript_lines(strategy, rounds, decoys, direction, seed):
    """One text line per round: decision, announcements, measured decoys."""
    alphabet = list(PauliLabel)
    key_rng = np.random.default_rng(seed)
    keys = [alphabet[int(j)] for j in key_rng.integers(0, 4, size=rounds)]
    config = ProtocolConfig(
        rounds=rounds,
        decoys_per_sequence=decoys,
        decoy_error_threshold=0.0,
        direction=direction,
        seed=seed,
    )
    transcript = run_protocol(config, keys, strategy)
    lines = [f"seed={seed} decision={transcript.decision.value}"]
    for i, rec in enumerate(transcript.rounds):
        lines.append(
            f"{i} {rec.decision.value} {rec.aborted_in} c={rec.c} "
            f"a={rec.a} b={rec.b} guess={rec.inferred_key} [{reference.decoy_text(rec)}]"
        )
    return lines


def digest(strategy, rounds, decoys, direction):
    text = "\n".join(
        line
        for seed in SEEDS
        for line in transcript_lines(strategy, rounds, decoys, direction, seed)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "case", list(DIGESTS), ids=lambda case: f"{case[0].value}-{case[1]}x{case[2]}"
)
def test_sampled_transcripts_match_recorded_digest(case):
    assert digest(*case) == DIGESTS[case]
