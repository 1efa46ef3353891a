"""Tests for the command-line harness: config parsing, report rendering,
determinism, and exit codes."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference

from qauthsim import __version__, adversary, cli, oracle, protocol, qsim
from qauthsim.adversary import StrategyId
from qauthsim.cli import (
    WAVE_SIZE,
    ConfigError,
    RunConfig,
    build_report,
    load_config,
    main,
    render_csv,
    render_json,
    render_tables,
    _twelve,
)
from qauthsim.protocol import Decision, ProtocolConfig, Role
from qauthsim.qsim import PauliLabel


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_gives_defaults(tmp_path):
    config = load_config(write_config(tmp_path, ""))
    assert config.rounds == 16
    assert config.decoys_per_sequence == 4
    assert config.decoy_error_threshold == 0.0
    assert config.direction is Role.ALICE
    assert config.seed == 0
    assert config.strategy is StrategyId.HONEST
    assert config.mode == "sampled"
    assert config.samples == 10000
    assert config.output_path is None
    assert config.format == "json"


def test_config_parses_all_fields(tmp_path):
    text = """
# experiment setup
rounds = 3
decoys_per_sequence = 1   # per travelling sequence
decoy_error_threshold = 0.25
direction = Bob
seed = 42
strategy = InterceptResend
mode = sampled
samples = 123
output_path = out/report.csv
format = csv
"""
    config = load_config(write_config(tmp_path, text))
    assert config.rounds == 3
    assert config.decoys_per_sequence == 1
    assert config.decoy_error_threshold == 0.25
    assert config.direction is Role.BOB
    assert config.seed == 42
    assert config.strategy is StrategyId.INTERCEPT_RESEND
    assert config.mode == "sampled"
    assert config.samples == 123
    assert config.output_path == "out/report.csv"
    assert config.format == "csv"


def test_unknown_key_is_reported_with_line(tmp_path):
    path = write_config(tmp_path, "rounds = 2\nshots = 5\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert "shots" in message
    assert ":2" in message


def test_byte_order_mark_is_skipped_only_at_the_start(tmp_path):
    text = "rounds = 2\nsamples = 5\n"
    plain = load_config(write_config(tmp_path, text))
    assert load_config(write_config(tmp_path, "\ufeff" + text, "bom.cfg")) == plain
    path = write_config(tmp_path, "rounds = 2\n\ufeffsamples = 5\n", "late.cfg")
    with pytest.raises(ConfigError, match=r"late\.cfg:2: unknown key '\\ufeffsamples'"):
        load_config(path)


def test_duplicate_key_is_an_error(tmp_path):
    path = write_config(tmp_path, "rounds = 2\nrounds = 3\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "duplicate" in str(excinfo.value)
    assert ":2" in str(excinfo.value)


def test_bad_value_is_reported_with_line_and_key(tmp_path):
    path = write_config(tmp_path, "\nrounds = many\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert "rounds" in message
    assert ":2" in message


def test_line_without_assignment_is_an_error(tmp_path):
    path = write_config(tmp_path, "rounds\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize(
    "line",
    [
        "rounds = 0",
        "samples = 0",
        "decoy_error_threshold = 1.5",
        "direction = Charlie",
        "strategy = Replay",
        "mode = approximate",
        "format = xml",
        "seed = -1",
    ],
)
def test_out_of_range_values_are_rejected(tmp_path, line):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, line + "\n"))


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        ("# runs\nrounds = 0\n", "rounds", 2),
        ("samples = 1\nrounds = 100000000000000000000\n", "rounds", 2),
        ("mode = sampled\n\nsamples = 0\n", "samples", 3),
        ("seed = 18446744073709551616\n", "seed", 1),
        ("mode = exact\nrounds = 2\nstrategy = InterceptResend\n", "strategy", 3),
        ("strategy = InterceptResend\nmode = exact\n", "strategy", 1),
        ("rounds = 2\nseed = -1\n", "seed", 2),
        ("decoys_per_sequence = -1\n", "decoys_per_sequence", 1),
        ("\ndecoy_error_threshold = 1.5\n", "decoy_error_threshold", 2),
        ("direction = Charlie\n", "direction", 1),
        ("\ndirection = Eve\n", "direction", 2),
        ("strategy = Replay\n", "strategy", 1),
        ("# mode\nmode = approximate\n", "mode", 2),
        ("format = xml\n", "format", 1),
        ("rounds = 1\noutput_path =\n", "output_path", 2),
    ],
)
def test_validation_errors_name_the_key_and_line(tmp_path, text, key, lineno):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}:{lineno}: {key}: ")
    if key == "direction":
        assert "Alice or Bob" in message
    if key == "strategy" and "Replay" in text:
        assert all(s.value in message for s in StrategyId)


def test_samples_zero_is_valid_in_exact_mode(tmp_path):
    config = load_config(write_config(tmp_path, "samples = 0\nmode = exact\n"))
    assert config.samples == 0


def test_exact_mode_rejects_intercept_resend(tmp_path):
    path = write_config(tmp_path, "mode = exact\nstrategy = InterceptResend\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_config_validates_directly():
    with pytest.raises(ValueError):
        RunConfig(mode="exact", strategy=StrategyId.INTERCEPT_RESEND)
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(strategy="Honest")
    with pytest.raises(protocol.FieldError) as excinfo:
        RunConfig(mode="exact", samples=-3)
    assert excinfo.value.key == "samples"


@pytest.mark.parametrize("path", [5, 0.5, b"report.json", Path("report.json"), ""])
def test_run_config_refuses_an_output_path_that_is_not_a_non_empty_string(path):
    # Refused when the config is made, so cmd_run never hands Path() a
    # value it cannot take.
    with pytest.raises(protocol.FieldError) as excinfo:
        RunConfig(output_path=path)
    assert excinfo.value.key == "output_path"
    with pytest.raises(protocol.FieldError):
        replace(RunConfig(), output_path=path)
    assert RunConfig(output_path="report.json").output_path == "report.json"


# ---------------------------------------------------------------------------
# reports


def small_sampled_config(**overrides):
    settings = dict(rounds=2, decoys_per_sequence=1, samples=20, seed=3)
    settings.update(overrides)
    return RunConfig(**settings)


def test_sampled_report_shape():
    report = build_report(small_sampled_config(strategy=StrategyId.PRE_MEASURE))
    assert report["tool"] == "qauthsim"
    assert report["version"] == __version__
    assert report["config"]["strategy"] == "PreMeasure"
    (row,) = report["results"]
    assert row["rounds_executed"] == 40
    assert row["accept_rate"] == 1.0
    assert row["detection_rate"] == 0.0
    assert row["key_recovery_rate"] == 1.0
    assert row["key_recovery_trials"] == 40
    assert row["tv_distance_vs_honest"] is None


def test_sampled_honest_report_has_no_recovery_rate():
    report = build_report(small_sampled_config())
    (row,) = report["results"]
    assert row["key_recovery_rate"] is None
    assert row["accept_rate"] == 1.0


def test_exact_report_shape():
    report = build_report(RunConfig(mode="exact", strategy=StrategyId.PRE_MEASURE))
    rows = report["results"]
    assert [row["key"] for row in rows] == ["I", "X", "Z", "iY"]
    for row in rows:
        assert row["mode"] == "exact"
        assert row["tv_distance_vs_honest"] <= 1e-12
        assert row["accept_probability"] == 1.0
        assert row["support_size"] == 16
        assert row["samples"] is None


@pytest.mark.parametrize(
    "strategy, calls",
    [(StrategyId.HONEST, 1), (StrategyId.PRE_MEASURE, 2)],
)
def test_exact_report_enumerates_the_honest_baseline_once(monkeypatch, strategy, calls):
    # One call gives all four keys' maps, so a report makes one call per
    # strategy it reads: its own, and Honest for the baseline.
    seen = []
    real = oracle.exact_transcript_distribution

    def counting(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "exact_transcript_distribution", counting)
    report = build_report(RunConfig(mode="exact", strategy=strategy))
    assert len(seen) == calls
    assert seen.count(StrategyId.HONEST) == 1
    for row in report["results"]:
        assert row["tv_distance_vs_honest"] <= 1e-12
        assert row["support_size"] == 16


def spy_tallies(monkeypatch):
    """Return a list that gains, per sampled report, the tallies the report
    hands ``oracle.wilson_interval``: (trials, accepted, detected, key
    guesses, key hits), with 0 guesses and hits when no key was guessed."""
    real_results, real_wilson = cli._sampled_results, oracle.wilson_interval
    calls, tallies = [], []

    def wilson(successes, trials):
        calls.append((successes, trials))
        return real_wilson(successes, trials)

    def results(config):
        calls.clear()
        rows = real_results(config)
        (accepted, trials), (detected, detection_trials), *recovery = calls
        assert detection_trials == trials
        hits, guesses = recovery[0] if recovery else (0, 0)
        tallies.append((trials, accepted, detected, guesses, hits))
        return rows

    monkeypatch.setattr(oracle, "wilson_interval", wilson)
    monkeypatch.setattr(cli, "_sampled_results", results)
    return tallies


def record_sampled_runs(monkeypatch, fixed):
    """Run every sample of a sampled report on ``fixed`` (seed included) with
    the report's own keys; return the runs and the tallies handed to
    ``oracle.wilson_interval``."""
    real_run = protocol.run_batch
    runs = []

    def run(config, seeds, keys, strategy):
        rows = []
        for row in real_run(fixed, [fixed.seed] * len(seeds), keys, strategy):
            rows.append(row)
            yield row
        runs.extend(reference.gather_transcripts(rows, len(seeds)))

    monkeypatch.setattr(protocol, "run_batch", run)
    return runs, spy_tallies(monkeypatch)


def garble_key_guesses(monkeypatch):
    """Make every sampled run guess no key in its first round and a wrong
    key in its second, so a PreMeasure report counts fewer guesses than
    rounds and fewer hits than guesses."""
    real_run = protocol.run_batch

    def run(config, seeds, keys, strategy):
        for r, i, record in real_run(config, seeds, keys, strategy):
            if record.decision is not None and i == 0:
                record.inferred_key = None
            elif record.decision is not None and i == 1:
                record.inferred_key = next(k for k in PauliLabel if k is not protocol._KEYS[keys[r][1]])
            yield r, i, record

    monkeypatch.setattr(protocol, "run_batch", run)


@pytest.mark.parametrize(
    "strategy, garbled",
    [(strategy, False) for strategy in StrategyId] + [(StrategyId.PRE_MEASURE, True)],
    ids=[strategy.value for strategy in StrategyId] + ["PreMeasure-garbled"],
)
def test_sampled_rate_fields_follow_their_tallies(monkeypatch, strategy, garbled):
    # Each rate, its Wilson band and its trials are the report's own tallies
    # read through oracle.wilson_interval at 12 digits.  Key recovery is
    # reported only when the strategy guessed a key, out of the rounds it
    # guessed in: under PreMeasure, every round unless garbled.
    wilson = oracle.wilson_interval
    tallies = spy_tallies(monkeypatch)
    if garbled:
        garble_key_guesses(monkeypatch)
    config = small_sampled_config(strategy=strategy, rounds=4, samples=40)
    (row,) = build_report(config)["results"]
    [(trials, accepted, detected, guesses, hits)] = tallies
    rates = {"accept": (accepted, trials), "detection": (detected, trials)}
    recovery = [row[f"key_recovery_{field}"] for field in ("rate", "low", "high", "trials")]
    if strategy is not StrategyId.PRE_MEASURE:
        assert guesses == 0
        assert recovery == [None] * 4
    else:
        assert trials == 4 * 40
        assert (guesses, hits) == ((3 * 40, 2 * 40) if garbled else (trials, trials))
        rates["key_recovery"] = (hits, guesses)
    for prefix, (tally, n) in rates.items():
        assert row[f"{prefix}_trials"] == n
        successes = round(row[f"{prefix}_rate"] * n)
        assert successes == tally
        low, high = wilson(successes, n)
        assert row[f"{prefix}_rate"] == _twelve(successes / n)
        assert row[f"{prefix}_low"] == _twelve(low)
        assert row[f"{prefix}_high"] == _twelve(high)


def test_sampled_tallies_honest_and_premeasure(monkeypatch):
    fixed = ProtocolConfig(rounds=3, decoys_per_sequence=1, seed=15)
    runs, tallies = record_sampled_runs(monkeypatch, fixed)
    config = RunConfig(rounds=3, decoys_per_sequence=1, samples=2)
    (row,) = build_report(config)["results"]
    # (trials, accepted, detected, key guesses, key hits)
    assert tallies == [(6, 6, 0, 0, 0)]
    assert row["key_recovery_rate"] is None
    assert row["rounds_executed"] == row["accept_trials"] == 6
    assert row["accept_rate"] == 1.0
    assert row["detection_rate"] == 0.0

    (row,) = build_report(replace(config, strategy=StrategyId.PRE_MEASURE))["results"]
    assert len(runs) == 4
    assert tallies[1:] == [(6, 6, 0, 6, 6)]
    assert row["key_recovery_rate"] == 1.0
    assert row["key_recovery_trials"] == 6
    assert row["accept_rate"] == 1.0
    assert row["detection_rate"] == 0.0


def test_sampled_tallies_mark_aborts(monkeypatch):
    fixed = ProtocolConfig(rounds=8, decoys_per_sequence=8, seed=16)
    runs, tallies = record_sampled_runs(monkeypatch, fixed)
    config = RunConfig(
        rounds=8, decoys_per_sequence=8, samples=1, strategy=StrategyId.INTERCEPT_RESEND
    )
    (row,) = build_report(config)["results"]
    (transcript,) = runs
    assert transcript.decision is Decision.ABORT
    assert transcript.rounds[-1].decision is Decision.ABORT
    executed = len(transcript.rounds)
    accepted = sum(r.decision is Decision.ACCEPT for r in transcript.rounds)
    assert tallies == [(executed, accepted, 1, 0, 0)]
    assert row["rounds_executed"] == row["detection_trials"] == executed
    assert row["key_recovery_rate"] is None


def test_sampled_memory_does_not_grow_with_samples(monkeypatch):
    # Every sample yields the rows of one prebuilt 16-round run, so the
    # report's own bookkeeping is all that could grow with ``samples``.
    fixed = ProtocolConfig(rounds=16, decoys_per_sequence=4, seed=1)
    prebuilt = protocol.run_protocol(fixed, [PauliLabel.I] * 16, StrategyId.PRE_MEASURE)
    monkeypatch.setattr(
        protocol, "run_batch", lambda config, seeds, keys, strategy: (
            (r, i, record) for r in range(len(seeds)) for i, record in enumerate(prebuilt.rounds)
        )
    )

    def peak(samples):
        config = RunConfig(rounds=16, samples=samples, strategy=StrategyId.PRE_MEASURE)
        tracemalloc.start()
        try:
            build_report(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)  # warm any lazily built caches
    small, large = peak(500), peak(5000)
    assert large - small < 4096, (small, large)
    # A chunk's words and halves are freed before the next chunk is read,
    # so 8 chunks peak near 1 and not near 2 (1.8x if they were held).
    one, eight = peak(WAVE_SIZE), peak(8 * WAVE_SIZE)
    assert eight <= 1.25 * one, (one, eight)


@pytest.mark.parametrize(
    "settings",
    [dict(strategy=StrategyId.HONEST), dict(strategy=StrategyId.PRE_MEASURE),
     dict(strategy=StrategyId.INTERCEPT_RESEND, decoys_per_sequence=1),
     dict(mode="exact"), dict(mode="exact", strategy=StrategyId.PRE_MEASURE)],
    ids=["Honest", "PreMeasure", "InterceptResend", "exact-Honest", "exact-PreMeasure"],
)
def test_a_report_leaves_no_cyclic_garbage(settings):
    # cli freezes the import heap on the premise that a report's objects
    # are freed by reference counting alone: a record, wave, stream or
    # source that pointed back at its owner would wait for a collection.
    # The sampled configs run three waves each.  render_json's indent
    # encoder makes a cycle of its own, outside build_report.
    config = RunConfig(**{"rounds": 16, "decoys_per_sequence": 4, "samples": 20, "seed": 3,
                          **settings})
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        build_report(config)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_sampled_memory_is_bounded_by_the_wave_size():
    # Unstubbed: every run goes through protocol.run_batch, one chunk of at
    # most WAVE_SIZE runs at a time, so 8 chunks peak like 2.
    def peak(samples):
        config = RunConfig(rounds=1, decoys_per_sequence=0, samples=samples)
        tracemalloc.start()
        try:
            build_report(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * WAVE_SIZE)  # warm any lazily built caches
    small, large = peak(2 * WAVE_SIZE), peak(8 * WAVE_SIZE)
    assert abs(large - small) < 64 * 1024, (small, large)


def test_sampled_memory_does_not_grow_with_rounds():
    # Unstubbed: run_batch yields each wave's rows as the wave ends and the
    # report folds them into its tallies, so no run's records are held past
    # their wave.  2 runs of 2048 rounds take 32 waves of 128 rows and peak
    # like 2 runs of 256; what grows is the chunk's keys, 8 bytes a round.
    def peak(rounds):
        config = RunConfig(rounds=rounds, decoys_per_sequence=0, samples=2)
        tracemalloc.start()
        try:
            build_report(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # warm any lazily built caches
    short, long = peak(256), peak(2048)
    assert long <= 1.25 * short, (short, long)


# No wave calls a measurement kernel: a kept row walks its round table
# (protocol._round_table) from its P2 leaf, and PreMeasure's hook walks the
# table's P2 levels.  The tables are built once per process, each build one
# protocol._levels call: the strategy's P2 tree when its round table is
# first made, before any wave, and E2's trees once for each P2 leaf a wave
# first reaches (one leaf under Honest, up to 16 under PreMeasure and 196
# in-transit leaves under InterceptResend), protocol._LEAVES_PER_BUILD
# leaves a call at most.


@pytest.mark.parametrize(
    "strategy, rounds, decoys, samples",
    [(StrategyId.HONEST, 16, 4, 3), (StrategyId.PRE_MEASURE, 16, 16, 3),
     (StrategyId.INTERCEPT_RESEND, 1, 4, 160)],
)
def test_kernel_calls_per_wave_follow_the_walks(monkeypatch, strategy, rounds, decoys, samples):
    protocol._p2_tree.cache_clear()  # so this report builds its tables
    protocol._round_table.cache_clear()
    waves = [Counter()]  # per wave: its rows, rows kept, kernel calls and builds; [0] before any
    seeded, recorded = [], []  # (run seed, round) of each stream seeded and each round recorded
    reached, building = set(), []  # the P2 leaves E2 was walked from; set inside e2_roots

    def spy(owner, name, count):  # count each call, then make it
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: count(*args) or real(*args, **kw))

    def batch(config, seeds, keys, strategy, real=protocol.run_batch):
        for r, i, record in real(config, seeds, keys, strategy):
            if record.decision is not None:
                recorded.append((seeds[r], i))
            yield r, i, record

    def roots(table, leaves, real=protocol._RoundTable.e2_roots):
        waves[-1].update(kept=len(leaves), new=len(set(leaves) - reached))
        reached.update(leaves)
        building.append(True)
        try:
            return real(table, leaves)
        finally:
            building.pop()

    monkeypatch.setattr(protocol, "run_batch", batch)
    spy(protocol, "_row_streams",
        lambda keys, plan: seeded.extend(keys) or waves.append(Counter(rows=len(keys))))
    def kernel_call(*args):
        if not building:
            waves[-1].update(calls=1)

    for name in ("_measure", "_z_kernel", "_x_kernel", "_bell_kernel", "apply_pauli"):
        spy(qsim, name, kernel_call)
    spy(protocol, "_levels", lambda amps, plan: waves[-1].update(builds=1))
    monkeypatch.setattr(protocol._RoundTable, "e2_roots", roots)
    build_report(RunConfig(rounds=rounds, decoys_per_sequence=decoys, samples=samples,
                           strategy=strategy))
    assert waves.pop(0) == Counter(builds=1)  # the P2 tree
    assert sum(wave["new"] for wave in waves) == len(reached) >= 1
    for wave in waves:
        assert wave["calls"] == 0
        assert wave["builds"] == -(-wave["new"] // protocol._LEAVES_PER_BUILD)
    if strategy is StrategyId.INTERCEPT_RESEND:
        # One round a run, so each chunk of at most WAVE_SIZE runs is one wave.
        sizes = [min(WAVE_SIZE, samples - s) for s in range(0, samples, WAVE_SIZE)]
        assert any(wave["kept"] for wave in waves)
    else:
        # No round can abort, so a run's k is all its rounds: one wave.
        assert protocol.abort_probability(strategy, decoys, 0.0) == 0.0
        sizes = [samples * rounds]
        builds = -(-len(reached) // protocol._LEAVES_PER_BUILD)
        assert waves == [Counter(rows=sizes[0], kept=sizes[0], new=len(reached), builds=builds)]
        assert (len(reached) == 1) == (strategy is StrategyId.HONEST)
    assert [wave["rows"] for wave in waves] == sizes
    # Each row seeds its own stream once: no round is seeded twice, and
    # every row is recorded (no run here has a round past an abort), so
    # the streams seeded are the rounds recorded, sum(sizes) of them.
    assert len(set(seeded)) == len(seeded) == sum(sizes)
    assert sorted(seeded) == sorted(recorded)


def test_sampled_intercepts_make_no_x_measurement(monkeypatch):
    # An intercept draws an X coin for about half of what it measures, but a
    # sampled run reads decoys off _DECOY_CUT and the in-transit protocol
    # qubits off the round table, whose E2 trees are all built here before
    # the spies (once per process): neither a report nor a one-row run
    # calls the X kernel.  The coins are those the intercept's walk of its
    # P2 levels (protocol._walk, bound in adversary) is handed.
    table = protocol._round_table(StrategyId.INTERCEPT_RESEND, Role.ALICE)
    table.e2_roots(range(len(table.leaves)))
    calls, coins = [], []
    for name in ("measure_x", "_x_kernel"):
        real = getattr(qsim, name)
        monkeypatch.setattr(qsim, name, lambda *args, real=real: calls.append(1) or real(*args))
    walk = adversary._walk
    assert walk is protocol._walk

    def spied(levels, nodes, draws, row_coins=None):
        coins.extend(coin for row in row_coins or () for coin in row)
        return walk(levels, nodes, draws, row_coins)

    monkeypatch.setattr(adversary, "_walk", spied)

    report = build_report(RunConfig(rounds=4, decoys_per_sequence=0, samples=20,
                                    strategy=StrategyId.INTERCEPT_RESEND))
    assert report["results"][0]["rounds_executed"] == 80 and 1 in coins
    del coins[:]
    config = ProtocolConfig(rounds=1, seed=3)
    transcript = protocol.run_protocol(config, [PauliLabel.X], StrategyId.INTERCEPT_RESEND)
    assert len(transcript.rounds) == 1 and 1 in coins
    assert calls == []


@pytest.mark.parametrize("decoys, samples", [(4, 160), (1, 64)])
def test_rows_prepared_past_an_abort_are_bounded_by_the_cap(monkeypatch, decoys, samples):
    # run_batch gives each live run at most k = max(1, int(1 / p)) rows a
    # wave, p being abort_probability.  A run that does not abort in a wave
    # has every row of it recorded; the wave it aborts in is its last and
    # drops at most its k - 1 rows after the aborting one.  So rows
    # prepared <= rounds recorded + (k - 1) x runs, equal when k = 1.  The
    # engine yields every row it prepares, and the ones it dropped are the
    # rows it yields undecided.
    config = RunConfig(rounds=16, decoys_per_sequence=decoys, samples=samples, seed=5,
                       strategy=StrategyId.INTERCEPT_RESEND)
    prepared, recorded, yielded = [], [], []
    real_prepare, real_batch = protocol.p1_prepare, protocol.run_batch

    def batch(config, seeds, keys, strategy):
        rows = []
        for row in real_batch(config, seeds, keys, strategy):
            rows.append(row)
            yield row
        recorded.extend(len(run.rounds) for run in reference.gather_transcripts(rows, len(seeds)))
        yielded.extend(rows)

    monkeypatch.setattr(protocol, "p1_prepare",
                        lambda *args: prepared.append(1) or real_prepare(*args))
    monkeypatch.setattr(protocol, "run_batch", batch)
    build_report(config)
    p = protocol.abort_probability(config.strategy, decoys, config.decoy_error_threshold)
    k = max(1, int(1 / p))
    bound = sum(recorded) + (k - 1) * samples
    assert len(recorded) == samples
    if k == 1:
        assert len(prepared) == bound
    else:
        assert sum(recorded) <= len(prepared) < bound
    assert len(yielded) == len(prepared)
    undecided = [record for _, _, record in yielded if record.decision is None]
    assert len(undecided) == len(prepared) - sum(recorded)


def run_python(script, cwd=None):
    """Last word a fresh interpreter prints running ``script``, with this
    checkout's ``src`` first on its path."""
    src = str(Path(protocol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         cwd=cwd, capture_output=True, text=True, check=True)
    return run.stdout.split()[-1]


def test_a_process_that_seeds_no_stream_never_imports_numpy_random():
    # Loading numpy.random costs an exact-mode process about 5 MB of peak
    # RSS, so only code that seeds a stream may import it.
    def loads_numpy_random(code):
        return run_python(f"import sys\n{code}\nprint('numpy.random' in sys.modules)") == "True"

    if loads_numpy_random("import numpy"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not loads_numpy_random(
        "from qauthsim.adversary import StrategyId\n"
        "from qauthsim.cli import RunConfig, build_report\n"
        "build_report(RunConfig(mode='exact', strategy=StrategyId.PRE_MEASURE))"
    )


def test_the_import_heap_is_frozen_once_per_process(tmp_path):
    # Importing cli freezes everything loaded so far, numpy included, so a
    # full collection skips it.  Afterwards the frozen count can only fall,
    # as reference counting frees frozen objects (the first report's lazy
    # numpy.random import frees a few); a freeze per report would raise it
    # by that report's objects.
    write_config(tmp_path, "rounds = 2\nsamples = 5\nstrategy = InterceptResend\n")
    script = (
        "import gc, numpy\n"
        "loaded = len(gc.get_objects())\n"
        "from qauthsim import cli\n"
        "frozen = gc.get_freeze_count()\n"
        "assert frozen >= loaded, (frozen, loaded)\n"
        "for _ in range(2):\n"
        "    assert cli.main(['run', '--config', 'run.cfg', '--output', 'run.json']) == 0\n"
        "    assert gc.get_freeze_count() <= frozen, (gc.get_freeze_count(), frozen)\n"
        "    frozen = gc.get_freeze_count()\n"
        "print('ok')\n"
    )
    assert run_python(script, cwd=tmp_path) == "ok"


def test_sampled_tallies_cross_a_chunk_boundary(monkeypatch):
    # WAVE_SIZE + 1 samples take two run_batch calls; the tallies must be
    # those of every run executed alone on the master draws numpy's
    # Generator makes.  With 3 rounds each run's keys leave a half of the
    # master stream pending for the next run's, across the chunk too.
    calls = []
    real_run = protocol.run_batch

    def run(*args):
        calls.append(len(args[1]))
        return real_run(*args)

    for rounds in (2, 3):
        config = RunConfig(
            rounds=rounds, decoys_per_sequence=1, samples=WAVE_SIZE + 1, seed=21,
            strategy=StrategyId.INTERCEPT_RESEND,
        )
        master = np.random.default_rng(config.seed)
        expected = [0, 0, 0, 0, 0]
        for _ in range(config.samples):
            seed = int(master.integers(0, 2**63))
            keys = [list(PauliLabel)[int(j)] for j in master.integers(0, 4, size=config.rounds)]
            run_config = ProtocolConfig(rounds=rounds, decoys_per_sequence=1, seed=seed)
            transcript = protocol.run_protocol(run_config, keys, config.strategy)
            for record, key in zip(transcript.rounds, keys):
                guess = record.inferred_key
                expected[0] += 1
                expected[1] += record.decision is Decision.ACCEPT
                expected[2] += record.decision is Decision.ABORT
                expected[3] += guess is not None
                expected[4] += guess is not None and guess is key
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "run_batch", run)
            tallies = spy_tallies(patch)
            build_report(config)
        assert calls == [WAVE_SIZE, 1]
        assert tallies == [tuple(expected)]


# Two reports of each benchmark workload's shape, one rendered as CSV; the
# sha256 of each was recorded before sampled runs went through waves.
REPORT_PINS = [
    ("json", dict(strategy=StrategyId.PRE_MEASURE, rounds=16, decoys_per_sequence=16,
                  samples=3, direction=Role.ALICE, seed=4101),
     "42d667bbc624e9d06e8080a079e816e1f534313cb74afcf95b3eecd38c157d77"),
    ("csv", dict(strategy=StrategyId.PRE_MEASURE, rounds=16, decoys_per_sequence=16,
                 samples=3, direction=Role.BOB, seed=4102),
     "f40a5aac1fc51feba513f917187821aa55a6cbe608f211bdadbc64837c783708"),
    ("json", dict(strategy=StrategyId.INTERCEPT_RESEND, rounds=1, decoys_per_sequence=1,
                  samples=160, seed=4103),
     "7f9f4e12a5441bcd6026b53e99f3a00139656d73079af66c57be280a0bb4ce8b"),
    ("json", dict(strategy=StrategyId.INTERCEPT_RESEND, rounds=1, decoys_per_sequence=1,
                  samples=160, seed=4104),
     "821179bf5d28a91ab20215f01ccb4ca4c150db15be9c56e876dbee4f06395188"),
    ("json", dict(mode="exact", strategy=StrategyId.HONEST, direction=Role.ALICE, seed=4105),
     "9a8956ead336f7332f2e8b5388ee1b6643b3fccb207b53d4cd68de90890719ce"),
    ("json", dict(mode="exact", strategy=StrategyId.PRE_MEASURE, direction=Role.BOB, seed=4106),
     "9716ca054942d10f80440324fc7030249510f43719cb916dea3278f12ebf2a94"),
]


def test_report_bytes_are_pinned():
    digests = []
    for fmt, fields, _ in REPORT_PINS:
        report = build_report(RunConfig(format=fmt, **fields))
        text = render_json(report) if fmt == "json" else render_csv(report)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == [digest for _, _, digest in REPORT_PINS]


# The benchmark's three report shapes, field for field as its workloads
# write them: the first 12 configs of seeds 41 and 42 of each, 72 reports.
# A config's seed is the next getrandbits(63) of random.Random("<shape>:<seed>").
WORKLOAD_SHAPES = {
    "premeasure-decoys": lambda i: dict(
        strategy=StrategyId.PRE_MEASURE, rounds=16, decoys_per_sequence=16,
        samples=3, direction=(Role.ALICE, Role.BOB)[i % 2],
    ),
    "intercept-short": lambda i: dict(
        strategy=StrategyId.INTERCEPT_RESEND, rounds=1, decoys_per_sequence=1,
        samples=160, direction=Role.ALICE,
    ),
    "exact-tv": lambda i: dict(
        mode="exact",
        strategy=(StrategyId.HONEST, StrategyId.PRE_MEASURE, StrategyId.PRE_MEASURE)[i % 3],
        direction=(Role.ALICE, Role.ALICE, Role.BOB, Role.BOB, Role.ALICE, Role.BOB)[i % 6],
    ),
}
# sha256 over the JSON then the CSV rendering of each shape's 24 reports;
# recorded before per-row inputs were kept in row order.
WORKLOAD_DIGESTS = {
    "premeasure-decoys": "73d7a35626519246c79739abdbf4df98893680126c26588e1f0547b4957f1e54",
    "intercept-short": "c8b6864e02a631671b8dbf41970ad7a0a98371480dd1f45121fc0f4ee5978acf",
    "exact-tv": "ba1f546feff6fea80cb1ae624da4da729550f580749cb5ca492d1833cad3976f",
}


@pytest.mark.parametrize("shape", list(WORKLOAD_SHAPES))
def test_workload_reports_are_pinned(shape):
    digest = hashlib.sha256()
    for run_seed in (41, 42):
        rng = random.Random(f"{shape}:{run_seed}")
        for i in range(12):
            fields = WORKLOAD_SHAPES[shape](i)
            report = build_report(RunConfig(seed=rng.getrandbits(63), **fields))
            digest.update(render_json(report).encode())
            digest.update(render_csv(report).encode())
    assert digest.hexdigest() == WORKLOAD_DIGESTS[shape]


# Multi-round InterceptResend reports, the traffic in which the cap on the
# rounds a run adds to a wave decides how many rows are prepared past an
# abort: the CLI defaults (k = 1) at two sample counts, and one decoy per
# sequence at threshold 0 (k = 2).  sha256 over the JSON then the CSV
# rendering at seeds 41 and 42, recorded at commit d192625, while k was
# still capped by the aborts the batch had seen so far.
INTERCEPT_ROUNDS_SHAPES = {
    "defaults-5": (
        dict(samples=5),
        "e09ea52f7b81b6c6b648118aeade1b311e7254d29765e9b46cfebccf6fb89148",
    ),
    "defaults-300": (
        dict(samples=300),
        "137450e38eb2c70d9a68510a7b38e46dcf022e9f3a18d577f3e8a6188a3ecd28",
    ),
    "16x1-t0-64": (
        dict(rounds=16, decoys_per_sequence=1, decoy_error_threshold=0.0, samples=64),
        "317cf89bcc11653b8f0eee8004e7143815812a5090a4f583596e538eaf008981",
    ),
}


@pytest.mark.parametrize("shape", list(INTERCEPT_ROUNDS_SHAPES))
def test_multi_round_intercept_reports_are_pinned(shape):
    fields, expected = INTERCEPT_ROUNDS_SHAPES[shape]
    digest = hashlib.sha256()
    for seed in (41, 42):
        report = build_report(RunConfig(strategy=StrategyId.INTERCEPT_RESEND, seed=seed, **fields))
        digest.update(render_json(report).encode())
        digest.update(render_csv(report).encode())
    assert digest.hexdigest() == expected


def test_json_rendering_round_trips():
    report = build_report(small_sampled_config())
    text = render_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_csv_rendering():
    report = build_report(RunConfig(mode="exact", strategy=StrategyId.HONEST))
    text = render_csv(report)
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert f"# qauthsim {__version__}" in comments
    assert "# strategy = Honest" in comments
    header = lines[len(comments)]
    assert header.startswith("strategy,mode,key,samples,")
    rows = lines[len(comments) + 1 :]
    assert len(rows) == 4
    assert rows[0].startswith("Honest,exact,I,,")


def test_reports_are_reproducible():
    config = small_sampled_config(strategy=StrategyId.INTERCEPT_RESEND)
    first = render_json(build_report(config))
    second = render_json(build_report(config))
    assert first == second


def test_tables_rendering_is_stable():
    text = render_tables()
    assert text == render_tables()
    assert "M=Phi+ N=Phi+" in text
    assert "  P=Phi+ Q=Phi+  0.2500" in text
    assert "  X  on Phi+ -> Psi+" in text
    assert "  iY on Phi+ -> Psi-" in text
    # 16 tables of 4 rows plus the 16-entry Pauli map.
    assert text.count("0.2500") == 64
    assert text.count(" -> ") == 16


def test_tables_rendering_is_pinned():
    # The rendered tables byte for byte: a change to the enumerator or the
    # kernels must not move a printed digit.
    digest = hashlib.sha256(render_tables().encode()).hexdigest()
    assert digest == "828289943a6b7f27f816e720cb642e2ec90fefcb3ac10063f5a3d035fc1a8a10"


# ---------------------------------------------------------------------------
# entry point


def run_main(args):
    return main(list(args))


def test_main_tables_prints_tables(capsys):
    assert run_main(["tables"]) == 0
    out = capsys.readouterr().out
    assert out == render_tables()


def test_main_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_main_run_writes_report_and_summary(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "rounds = 2\ndecoys_per_sequence = 1\nsamples = 10\nstrategy = PreMeasure\n",
    )
    out_path = tmp_path / "report.json"
    assert run_main(["run", "--config", str(config), "--output", str(out_path)]) == 0
    summary = capsys.readouterr().out
    assert "strategy=PreMeasure" in summary
    assert "mode=sampled" in summary
    assert "key_recovery_rate=1.0" in summary
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["results"][0]["key_recovery_rate"] == 1.0


def test_main_run_is_byte_identical(tmp_path):
    config = write_config(tmp_path, "samples = 15\nrounds = 2\nseed = 9\n")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_main(["run", "--config", str(config), "--output", str(first)]) == 0
    assert run_main(["run", "--config", str(config), "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_main_output_path_from_config(tmp_path, capsys):
    out_path = tmp_path / "from_config.json"
    config = write_config(
        tmp_path, f"samples = 5\nrounds = 1\noutput_path = {out_path}\n"
    )
    assert run_main(["run", "--config", str(config)]) == 0
    assert out_path.exists()
    assert str(out_path) in capsys.readouterr().out


def test_main_calls_in_one_process_share_no_state(tmp_path, capsys):
    # The parser is built once per process: what one call parses must not
    # reach the next.
    from_config = tmp_path / "from_config.json"
    config = write_config(tmp_path, f"samples = 5\nrounds = 1\noutput_path = {from_config}\n")
    given = tmp_path / "given.json"
    assert run_main(["run", "--config", str(config), "--output", str(given)]) == 0
    assert given.exists() and not from_config.exists()
    assert run_main(["run", "--config", str(config)]) == 0
    assert from_config.read_bytes() == given.read_bytes()
    capsys.readouterr()
    bad = write_config(tmp_path, "shots = 5\n", name="bad.cfg")
    assert run_main(["run", "--config", str(bad), "--output", str(given)]) == 2
    assert "shots" in capsys.readouterr().err
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "text, extra, named",
    [("output_path =\n", [], "output_path"), ("", ["--output", ""], "--output")],
)
def test_main_refuses_an_empty_report_path(tmp_path, monkeypatch, capsys, text, extra, named):
    config = write_config(tmp_path, "samples = 5\nrounds = 1\n" + text)
    monkeypatch.chdir(tmp_path)
    assert run_main(["run", "--config", str(config), *extra]) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("report.*"))


def test_main_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "shots = 5\n")
    assert run_main(["run", "--config", str(config)]) == 2
    assert "shots" in capsys.readouterr().err


def test_main_missing_config_exit_code(tmp_path):
    assert run_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"rounds = 2 # \xff\n")
    with pytest.raises(ConfigError, match="latin.cfg"):
        load_config(path)
    assert run_main(["run", "--config", str(path)]) == 2
    assert "latin.cfg" in capsys.readouterr().err


def test_main_write_failure_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "samples = 5\nrounds = 1\n")
    target = tmp_path / "no_such_dir" / "report.json"
    assert run_main(["run", "--config", str(config), "--output", str(target)]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_main_exact_run_summary(tmp_path, capsys):
    config = write_config(tmp_path, "mode = exact\nstrategy = PreMeasure\nformat = csv\n")
    out_path = tmp_path / "exact.csv"
    assert run_main(["run", "--config", str(config), "--output", str(out_path)]) == 0
    summary = capsys.readouterr().out
    assert "mode=exact" in summary
    assert f" keys={len(PauliLabel)} " in summary  # one result row per key
    assert "min_accept_probability=1.0" in summary
    text = out_path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 + 10 + 4  # comments, header, one row per key
