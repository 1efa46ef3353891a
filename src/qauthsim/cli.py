"""Command-line harness.

Two subcommands: ``tables`` prints the oracle's entanglement-swapping and
Pauli-on-Bell tables; ``run`` loads a line-oriented ``key = value`` config,
executes a sampled or exact experiment, writes a JSON or CSV report, and
prints a one-line summary.  A :class:`RunConfig` is the ProtocolConfig
its runs execute, plus the fields that pick the strategy, mode and report.
A sampled run draws its runs' seeds and keys from the master stream one
chunk of at most ``WAVE_SIZE`` runs at a time, executes each chunk through
:func:`qauthsim.protocol.run_batch` in waves of at most ``WAVE_SIZE``
(run, round) rows, and folds each wave's rows into five integer tallies as
the wave ends.  So it holds one wave's records, never a run's, and one
chunk's keys at one byte per round per run, whatever ``samples`` is.  An
exact run sums its strategy's round table for all four keys' transcript
distributions, and Honest's too for the baseline under PreMeasure; each
table is built once per process.
Reports are deterministic: identical configs produce byte-identical files
(reals at 12 significant digits, no timestamps).  Every draw is read off
the raw words of a PCG64 bit generator by code fixed in
:mod:`qauthsim.protocol`, so a report depends on numpy only through its
stable SeedSequence seeding and PCG64 stream.  A wave seeds its first
row through numpy and the others with the protocol module's restatement
of SeedSequence, which tier-1 checks against numpy's.  Importing this
module freezes the heap loaded so far (the interpreter's, numpy's and
qauthsim's) out of the cycle collector's reach, so a process that makes
report after report no longer re-walks it in every full collection; a
report's only reference cycle, json's indent encoder, is still collected.

Exit codes: 0 success, 2 configuration error, 3 report I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__, oracle, protocol
from .adversary import StrategyId
from .protocol import WAVE_SIZE, Decision, FieldError, ProtocolConfig, Role, _is_number
from .qsim import BellLabel, PauliLabel


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


@dataclass
class RunConfig(ProtocolConfig):
    """Everything one ``run`` invocation needs.

    A RunConfig is the ProtocolConfig its runs execute, with its own
    defaults for ``rounds`` and ``decoys_per_sequence``; the fields it adds
    select the strategy, sampled-vs-exact mode, and report shape.
    """

    rounds: int = 16
    decoys_per_sequence: int = 4
    strategy: StrategyId = StrategyId.HONEST
    mode: str = "sampled"
    samples: int = 10000
    output_path: "str | None" = None
    format: str = "json"

    def __post_init__(self) -> None:
        super().__post_init__()  # validates the protocol-side fields
        if not isinstance(self.strategy, StrategyId):
            names = ", ".join(s.value for s in StrategyId)
            raise FieldError(
                "strategy", f"strategy must be one of {names}, got {self.strategy!r}"
            )
        if self.mode not in ("sampled", "exact"):
            raise FieldError(
                "mode", f"mode must be 'sampled' or 'exact', got {self.mode!r}"
            )
        least = 1 if self.mode == "sampled" else 0
        if not _is_number(self.samples, int) or self.samples < least:
            raise FieldError(
                "samples",
                f"{self.mode} mode needs samples >= {least}, got {self.samples!r}",
            )
        if self.mode == "exact" and self.strategy not in oracle.EXACT_STRATEGIES:
            raise FieldError(
                "strategy",
                "exact mode enumerates Honest and PreMeasure only; "
                "InterceptResend is sampled"
            )
        if self.output_path == "":
            raise FieldError("output_path", "the report path must not be empty")
        if self.format not in ("json", "csv"):
            raise FieldError(
                "format", f"format must be 'json' or 'csv', got {self.format!r}"
            )


def _member(enum):
    """Parser giving the member whose value the text is; any other text
    stays text, for the config classes to reject with the accepted names."""
    members = {m.value: m for m in enum}
    return lambda text: members.get(text, text)


# Type conversion only: every range and choice rule lives in the config
# classes, whose FieldError names the key.
_FIELD_PARSERS = {
    "rounds": int,
    "decoys_per_sequence": int,
    "decoy_error_threshold": float,
    "direction": _member(Role),
    "seed": int,
    "strategy": _member(StrategyId),
    "mode": str,
    "samples": int,
    "output_path": str,
    "format": str,
}


def load_config(path) -> RunConfig:
    """Parse a ``key = value`` UTF-8 config file ('#' starts a comment); a
    byte-order mark at the start of the file is skipped.

    Unknown keys, duplicate keys, and out-of-range values are errors,
    reported with the key name and line number.  The range rules live in
    the config classes; their FieldError names the key whose line is cited.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
        lines[key] = lineno
    try:
        return RunConfig(**values)
    except FieldError as exc:
        raise ConfigError(f"{path}:{lines[exc.key]}: {exc.key}: {exc}") from exc


# Every report row has these fields, in this order; a row sets the ones it has.
_CSV_COLUMNS = [
    "strategy",
    "mode",
    "key",
    "samples",
    "rounds_executed",
    "accept_rate",
    "accept_low",
    "accept_high",
    "accept_trials",
    "detection_rate",
    "detection_low",
    "detection_high",
    "detection_trials",
    "key_recovery_rate",
    "key_recovery_low",
    "key_recovery_high",
    "key_recovery_trials",
    "tv_distance_vs_honest",
    "accept_probability",
    "support_size",
]


def _twelve(x: float) -> float:
    """Round to 12 significant digits (the report serialization contract)."""
    return float(f"{x:.12g}")


def _rate_fields(prefix: str, successes: int, trials: int) -> dict:
    """A rate, its Wilson 95% band and its trials, as report fields."""
    low, high = oracle.wilson_interval(successes, trials)
    return {
        f"{prefix}_rate": _twelve(successes / trials),
        f"{prefix}_low": _twelve(low),
        f"{prefix}_high": _twelve(high),
        f"{prefix}_trials": trials,
    }


def _sampled_results(config: RunConfig) -> list:
    trials = accepted = detected = guesses = hits = 0
    for seeds, keys in protocol._master_chunks(config.seed, config.rounds, config.samples):
        for r, i, record in protocol.run_batch(config, seeds, keys, config.strategy):
            trials += record.decision is not None  # None: dropped past its run's abort
            accepted += record.decision is Decision.ACCEPT
            detected += record.decision is Decision.ABORT
            if record.inferred_key is not None:
                guesses += 1
                hits += record.inferred_key is protocol._KEYS[keys[r][i]]
        del seeds, keys  # not held while the next chunk is read
    row = dict.fromkeys(_CSV_COLUMNS)
    row.update(
        strategy=config.strategy.value,
        mode="sampled",
        samples=config.samples,
        rounds_executed=trials,
        **_rate_fields("accept", accepted, trials),
        **_rate_fields("detection", detected, trials),
    )
    if guesses:
        row.update(_rate_fields("key_recovery", hits, guesses))
    return [row]


def _exact_results(config: RunConfig) -> list:
    maps = oracle.exact_transcript_distribution(config.strategy, config.direction)
    honest = (
        maps
        if config.strategy is StrategyId.HONEST
        else oracle.exact_transcript_distribution(StrategyId.HONEST, config.direction)
    )
    rows = []
    for key, dist in maps.items():
        # Cells only ever gain positive leaf probabilities, so skipping the
        # exact zeros leaves the sum bitwise unchanged.
        accept = sum(
            p
            for (c, a, b), p in dist.items()
            if p != 0.0 and protocol.e3_verify(a, b, c, key) is Decision.ACCEPT
        )
        row = dict.fromkeys(_CSV_COLUMNS)
        row.update(
            strategy=config.strategy.value,
            mode="exact",
            key=str(key),
            tv_distance_vs_honest=_twelve(oracle.tv_distance(dist, honest[key])),
            accept_probability=_twelve(accept),
            support_size=sum(1 for p in dist.values() if p > 1e-12),
        )
        rows.append(row)
    return rows


def _config_echo(config: RunConfig) -> dict:
    return {
        "rounds": config.rounds,
        "decoys_per_sequence": config.decoys_per_sequence,
        "decoy_error_threshold": _twelve(config.decoy_error_threshold),
        "direction": config.direction.value,
        "seed": config.seed,
        "strategy": config.strategy.value,
        "mode": config.mode,
        "samples": config.samples,
        "format": config.format,
    }


def build_report(config: RunConfig) -> dict:
    results = (
        _sampled_results(config) if config.mode == "sampled" else _exact_results(config)
    )
    return {
        "tool": "qauthsim",
        "version": __version__,
        "config": _config_echo(config),
        "results": results,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# {report['tool']} {report['version']}\n")
    for key, value in report["config"].items():
        buf.write(f"# {key} = {value}\n")
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report["results"]:
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in _CSV_COLUMNS})
    return buf.getvalue()


def render_tables() -> str:
    """The 16 swap tables and the 16-entry Pauli-on-Bell map, fixed order."""
    lines = [
        "Entanglement swapping tables",
        "inputs: M on (A1,B1), N on (A2,B2); outputs: P on (A1,A2), Q on (B1,B2)",
        "",
    ]
    for m in BellLabel:
        for n in BellLabel:
            lines.append(f"M={m} N={n}")
            for (p, q), prob in oracle.swap_table(m, n).items():
                if prob > 1e-12:
                    lines.append(f"  P={p} Q={q}  {prob:.4f}")
    lines.append("")
    lines.append("Pauli action on Bell labels")
    for p in PauliLabel:
        for m in BellLabel:
            lines.append(f"  {str(p):<2} on {m} -> {oracle.pauli_bell_map(p, m)}")
    return "\n".join(lines) + "\n"


def _summary_line(report: dict, path) -> str:
    config = report["config"]
    rows = report["results"]
    parts = [f"strategy={config['strategy']}", f"mode={config['mode']}"]
    if config["mode"] == "sampled":
        row = rows[0]
        parts += [
            f"samples={row['samples']}",
            f"rounds_executed={row['rounds_executed']}",
            f"accept_rate={row['accept_rate']}",
            f"detection_rate={row['detection_rate']}",
        ]
        if row["key_recovery_rate"] is not None:
            parts.append(f"key_recovery_rate={row['key_recovery_rate']}")
    else:
        parts += [
            f"keys={len(rows)}",
            f"max_tv_vs_honest={max(r['tv_distance_vs_honest'] for r in rows)}",
            f"min_accept_probability={min(r['accept_probability'] for r in rows)}",
        ]
    parts.append(f"report={path}")
    return " ".join(parts)


def cmd_tables(out=None) -> int:
    (out or sys.stdout).write(render_tables())
    return 0


def cmd_run(config: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    report = build_report(config)
    text = render_json(report) if config.format == "json" else render_csv(report)
    path = config.output_path or f"report.{config.format}"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write report to {path}: {exc}", file=err)
        return 3
    print(_summary_line(report, path), file=out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state on it, and building it costs more than a report's rendering."""
    parser = argparse.ArgumentParser(
        prog="qauthsim",
        description="Simulate a three-party quantum authentication protocol "
        "and the center's eavesdropping strategies.",
    )
    parser.add_argument(
        "--version", action="version", version=f"qauthsim {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "tables", help="print the entanglement-swapping and Pauli-Bell tables"
    )
    run_parser = subparsers.add_parser(
        "run", help="execute a configured experiment and write a report"
    )
    run_parser.add_argument(
        "--config", required=True, help="path to a 'key = value' config file"
    )
    run_parser.add_argument(
        "--output", help="report path (overrides output_path from the config)"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "tables":
        return cmd_tables()
    try:
        config = load_config(args.config)
        if args.output is not None:
            config = replace(config, output_path=args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FieldError as exc:  # only --output is checked outside load_config
        print(f"error: --output: {exc}", file=sys.stderr)
        return 2
    return cmd_run(config)


# The import heap (interpreter, numpy, qauthsim) lives as long as the
# process, so freeze it: a full collection then walks only what was made
# since, at unchanged thresholds.  Once, here: a freeze per report would
# make each earlier report's not yet collected json encoder cycle permanent.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
