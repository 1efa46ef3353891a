"""The draw layer is pinned to numpy's Generator.

Every draw the program makes is read off raw PCG64 words by
``protocol._RowStream`` (one per round, seeded by (run seed, round)) and
``protocol._master_chunks`` (the master stream of a sampled report).  The
digests below were recorded at commit a5ddecc, before that layer existed, from
numpy 2.4.6's ``Generator``: ``default_rng((seed, i))`` drawing in the order
a round draws (P1's ``permutation`` and ``integers(0, 2)`` coins, an
intercept's ``integers(0, 2)`` coins and ``random`` draws, a
pre-measurement's four ``random()``, S1/S2's ``random(size=2d)``, E2's four
``random()``), then P1 once more, whose 32-bit draws take the half the first
P1 left pending; and ``default_rng(seed)`` drawing ``integers(0, 2**63)`` and
``integers(0, 4, size=rounds)`` per run.

The row digests pin numpy's own lines, drawn through
``reference.GeneratorStream`` from whichever numpy runs the tests.  A
program stream draws in one order only, a round's 32-bit draws and then its
64-bit draws, so its lines are checked against numpy's line for line
without the second P1, which it refuses with ValueError; so does a draw
before the first word its block converted to draws.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

import reference

from qauthsim import protocol
from qauthsim.adversary import StrategyId
from qauthsim.protocol import ProtocolConfig, p1_prepare

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)
PAIRS = [(seed, i) for seed in EDGE_SEEDS for i in (0, 1, 2**32 - 1)]


def _hexes(draws) -> str:
    return ",".join(float(u).hex() for u in draws)


def row_lines(make_stream, strategy, decoys, pairs=PAIRS, again=True) -> list:
    """One line per (seed, round) pair: every draw a round makes under
    ``strategy`` with ``decoys`` per sequence, in its order, from the
    stream ``make_stream(pair)``, then with ``again`` a second P1."""
    config = ProtocolConfig(decoys_per_sequence=decoys)
    lines = []
    for pair in pairs:
        stream = make_stream(pair)
        record = p1_prepare(config, stream)
        parts = [f"{pair} P1 {record.positions} {record.coins} {record.prepared}"]
        if strategy is StrategyId.INTERCEPT_RESEND:
            total = 2 * decoys + 4
            parts.append(f"coins {stream.coins(total)} draws {_hexes(stream.draws(total))}")
        if strategy is StrategyId.PRE_MEASURE:
            parts.append(f"premeasure {_hexes(stream.draws(1)[0] for _ in range(4))}")
        parts.append(f"s_check {_hexes(stream.draws(2 * decoys))}")
        parts.append(f"e2 {_hexes(stream.draws(1)[0] for _ in range(4))}")
        if again:
            second = p1_prepare(config, stream)
            parts.append(f"again {second.positions} {second.coins} {second.prepared}")
        lines.append(" ".join(parts))
    return lines


def numpy_stream(pair):
    """numpy's own Generator for ``pair``, behind the row stream's methods."""
    return reference.GeneratorStream(np.random.default_rng(pair))


def master_lines(seed, rounds, runs=130) -> list:
    """One line per run of the master stream: its seed, then its keys."""
    return [
        f"{run_seed} {' '.join(map(str, keys))}"
        for seeds, chunk_keys in protocol._master_chunks(seed, rounds, runs)
        for run_seed, keys in zip(seeds, chunk_keys)
    ]


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (strategy, decoys) -> sha256 of row_lines over PAIRS.
ROW_DIGESTS = {
    (StrategyId.HONEST, 0): (
        "c332bf95edbeb9fe207dcd6c46af5006f581f58a538dd1f8c3b5abc66bf32702"
    ),
    (StrategyId.HONEST, 1): (
        "2fb71ded5480cbba7d6fbcf51160320cf7f99e296f5755a15786fc8dd56828d5"
    ),
    (StrategyId.HONEST, 16): (
        "2ad814813579fd9a9671fdd6661e8cbfdf9fd51d02160c1a43d8822fb4aa2b53"
    ),
    (StrategyId.PRE_MEASURE, 0): (
        "669e76a7cd0bef0e1494e9a7cb83cefd30c0c33c55a7656e3cceae30fd5e9b7f"
    ),
    (StrategyId.PRE_MEASURE, 1): (
        "3e05e240ab0b35c770551da78bb42d2a25c86472eb57ef8257b3194768c841d4"
    ),
    (StrategyId.PRE_MEASURE, 16): (
        "64ef1be76385830b65dc28332f0d50460a5e2b1347abe48cb7650cd5c7acc7a3"
    ),
    (StrategyId.INTERCEPT_RESEND, 0): (
        "68db1260738b14a3698ab13747314c992f39c4f2d8170eff4f054805275be5f3"
    ),
    (StrategyId.INTERCEPT_RESEND, 1): (
        "3971f679c026b058be2bc9d1142fa073ade419e155a922ff881e10b866d32147"
    ),
    (StrategyId.INTERCEPT_RESEND, 16): (
        "2dd3ec7718c29fb83aa1e6a34c8583b06c2008d3978bdda259c28e51527ada1c"
    ),
}
# 1100 decoys per sequence: P1 alone takes 6602 halves and more with its
# rejections, so a row reads well past any small block.
LARGE_PAIRS = [(0, 0), (2**64 - 1, 2**32 - 1)]
LARGE_DIGEST = "28bcb0db94f1ec2d64996b6e55b073340eb6ce47bc13b37a61deb7bec4a3314b"
# (master seed, rounds) -> sha256 of master_lines: 130 runs cross a
# boundary between chunks of WAVE_SIZE runs, and odd rounds leave a half
# pending from run to run.
MASTER_DIGESTS = {
    (0, 1): "25ac41e2f11873d30a80dab293e73ad2272283f0b0713fce8310f3df50a0b7ac",
    (0, 3): "4ae8a35a515181ae06cfcd0bf7a81d43f27f5ddf37177e28027b4798898e4134",
    (0, 16): "50be3f68927bc3a438f6359a1e76f40b4b47450eb128e166f775ee5b1d54b1eb",
    (2**64 - 1, 1): "19160db2e5316f495c69689f4a98dd2e1e20bb6d9d63390dd8333e6cc11f26bb",
    (2**64 - 1, 3): "ae8822185e663bf17b2ccdfe9540ef1e82fddf7c71559d73da210a326c4bab1a",
    (2**64 - 1, 16): "36e501541b23c58bb8343feea3bbe5d48cb5f86f2795fcb847d6a1b4c18db395",
}


def planned(strategy, decoys):
    """The streams run_batch builds: one block per row, sized for the config."""
    plan = protocol._draw_plan(strategy, decoys)
    return lambda pair: protocol._row_streams([pair], plan)[0]


def mid_wave(strategy, decoys):
    """The same, for the middle row of a 3-row wave whose other keys fill
    every entropy word, so its start comes from the wave's lane hash."""
    plan = protocol._draw_plan(strategy, decoys)
    around = [(2**64 - 1, 2**32), (2**32, 2**64 - 1)]
    return lambda pair: protocol._row_streams([around[0], pair, around[1]], plan)[1]


def tiny_block(pair):
    """A two-word block, one word of halves: most draws read past it."""
    return protocol._row_streams([pair], (1, 0, 2))[0]


def no_block(pair):
    """No block at all: every draw reads on from a fresh ``PCG64(pair)``."""
    return protocol._RowStream(pair)


STREAMS = ["planned", "mid_wave", "tiny_block", "no_block"]


def factory(stream, strategy, decoys):
    make = globals()[stream]
    return make(strategy, decoys) if stream in ("planned", "mid_wave") else make


def check_against_numpy(make_stream, strategy, decoys, pairs=PAIRS):
    """The program's lines from ``make_stream`` are numpy's without the
    second P1, and each of its streams then refuses that P1 (at d = 0 P1
    draws nothing, so there is nothing to refuse)."""
    streams = []

    def kept(pair):
        streams.append(make_stream(pair))
        return streams[-1]

    expected = row_lines(numpy_stream, strategy, decoys, pairs, again=False)
    assert row_lines(kept, strategy, decoys, pairs, again=False) == expected
    config = ProtocolConfig(decoys_per_sequence=decoys)
    for stream in streams:
        if decoys:
            with pytest.raises(ValueError, match="32-bit draw after a 64-bit one"):
                p1_prepare(config, stream)


@pytest.mark.parametrize("case", list(ROW_DIGESTS), ids=lambda c: f"{c[0].value}-{c[1]}")
def test_numpy_row_lines_give_the_recorded_digests(case):
    assert _sha(row_lines(numpy_stream, *case)) == ROW_DIGESTS[case]


def test_numpy_row_lines_past_any_block_give_the_recorded_digest():
    lines = row_lines(numpy_stream, StrategyId.INTERCEPT_RESEND, 1100, LARGE_PAIRS)
    assert _sha(lines) == LARGE_DIGEST


@pytest.mark.parametrize("case", list(ROW_DIGESTS), ids=lambda c: f"{c[0].value}-{c[1]}")
@pytest.mark.parametrize("stream", STREAMS)
def test_row_draws_match_numpy(case, stream):
    strategy, decoys = case
    check_against_numpy(factory(stream, strategy, decoys), strategy, decoys)


@pytest.mark.parametrize("stream", STREAMS)
def test_draws_past_the_block_read_on_from_the_same_stream(stream):
    strategy = StrategyId.INTERCEPT_RESEND
    check_against_numpy(factory(stream, strategy, 1100), strategy, 1100, LARGE_PAIRS)


def test_a_draw_before_the_blocks_first_draw_is_refused():
    # A block whose first converted draw is word 8: on these keys P1 at one
    # decoy per sequence takes 8 to 10 halves, so the round's first draw is
    # word 4 or 5, which the block never converted.
    config = ProtocolConfig(decoys_per_sequence=1)
    for pair in PAIRS:
        stream = protocol._row_streams([pair], (0, 8, 12))[0]
        p1_prepare(config, stream)
        with pytest.raises(ValueError, match="before the block's first draw"):
            stream.draws(1)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("draw", ["coins", "perm"])
def test_a_32_bit_draw_after_a_64_bit_one_is_refused(stream, draw):
    # A round's draws up to its intercept's first random() draw, then one
    # more 32-bit draw.  The planned block holds halves past the ones the
    # round took, so the refusal does not rest on a conversion past it.
    make = factory(stream, StrategyId.INTERCEPT_RESEND, 1)
    for pair in PAIRS:
        row = make(pair)
        p1_prepare(ProtocolConfig(decoys_per_sequence=1), row)
        row.coins(6)
        row.draws(1)
        with pytest.raises(ValueError, match="32-bit draw after a 64-bit one"):
            getattr(row, draw)(3)


# Seeds and rounds at each entropy-word boundary: one word, the largest
# one word, two words, the largest two.
EDGE_WORDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
EDGE_KEYS = [(seed, i) for seed in EDGE_WORDS for i in EDGE_WORDS]


@pytest.mark.parametrize("size", [1, 2, 3, 64])
def test_wave_seeding_matches_numpy(size):
    # A wave of ``size`` rows from each edge key on, wrapping round the 25,
    # so every key sits in every lane of the small waves and beside each
    # kind of neighbour.  A row's start (state, inc) and its words, in the
    # block and read past it, are numpy's for PCG64(key).
    n = 24
    for start in range(len(EDGE_KEYS)):
        keys = [EDGE_KEYS[(start + j) % len(EDGE_KEYS)] for j in range(size)]
        streams = protocol._row_streams(keys, (0, 0, n))
        for key, (state, inc), stream in zip(keys, protocol._seed_states(keys), streams):
            numpy_stream = np.random.PCG64(key)
            assert numpy_stream.state["state"] == {"state": state, "inc": inc}
            assert stream._raw(0, 2 * n).tolist() == numpy_stream.random_raw(2 * n).tolist()


def test_waves_in_threads_read_their_own_rows():
    # A wave reads every row's block through its own PCG64, its state set
    # per row.  Six threads on a short switch interval each build waves of
    # their own keys; every row must still hold its own key's words.
    n, waves = 8, 200
    expected = {key: np.random.PCG64(key).random_raw(n).tolist() for key in EDGE_KEYS}
    wrong = []

    def build(offset):
        for w in range(waves):
            keys = [EDGE_KEYS[(offset + w + j) % len(EDGE_KEYS)] for j in range(5)]
            for key, stream in zip(keys, protocol._row_streams(keys, (0, 0, n))):
                if stream._raw(0, n).tolist() != expected[key]:
                    wrong.append(key)

    threads = [threading.Thread(target=build, args=(t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("case", list(MASTER_DIGESTS), ids=lambda c: f"seed{c[0]}-r{c[1]}")
def test_master_stream_matches_numpy(case):
    assert _sha(master_lines(*case)) == MASTER_DIGESTS[case]


# The start of a row's draws under InterceptResend at one decoy per
# sequence, seed 2**64 - 1 and round 2**32 - 1, as the Generator drew them.
FIRST_P1 = ([1, 2], [1, 1], [1, 1])
FIRST_COINS = [1, 1, 0, 1, 1, 1]
FIRST_DRAWS = "0x1.666f8382919b6p-2,0x1.d5e7fe2fa7c82p-2"


def test_first_row_draws_spelled_out():
    stream = planned(StrategyId.INTERCEPT_RESEND, 1)((2**64 - 1, 2**32 - 1))
    record = p1_prepare(ProtocolConfig(decoys_per_sequence=1), stream)
    assert (record.positions, record.coins, record.prepared) == FIRST_P1
    assert stream.coins(6) == FIRST_COINS
    assert _hexes(stream.draws(2)) == FIRST_DRAWS
