"""The benchmark's workloads: config generation from a seed, and report checks.

Every config the program sees is generated here from the benchmark seed; the
program receives only the config files.  Each workload fixes the report
shape; the samples per report are sized so one report takes tens of
milliseconds at the seed commit, which keeps a ``--seconds`` run at a few
hundred reports and its tail percentile at p95.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

KEY_NAMES = ("I", "X", "Z", "iY")

# Expected InterceptResend detection rate with one decoy per sequence:
# each decoy is disturbed with probability 1/4, so 1 - (3/4)^2.
INTERCEPT_DETECTION = 0.4375
# The run-level detection check uses a z = 5 Wilson band, so a correct
# program fails it with probability below 1e-6 per run.
DETECTION_Z = 5.0


def render_config(cfg: dict) -> str:
    """``key = value`` text in the program's config format."""
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def wilson_interval(successes: int, trials: int, z: float) -> tuple:
    """Wilson score interval, written independently of the program's own."""
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    return center - half, center + half


class Workload:
    """One report shape.  Subclasses set ``base`` and the checks."""

    name = ""
    base: dict = {}

    def vary(self, index: int) -> dict:
        """Fields that change from report to report besides the seed."""
        return {}

    def configs(self, seed: int):
        """The report configs of the run with ``seed``, without end."""
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            yield {**self.base, **self.vary(i), "seed": rng.getrandbits(63)}

    def minimal(self) -> dict:
        """The smallest report of this workload's shape (for set-up timing)."""
        cfg = {**self.base, **self.vary(0), "seed": 1}
        if cfg["mode"] == "sampled":
            cfg["samples"] = 1
        return cfg

    def tally(self, report: dict) -> Counter:
        """Counts a correct report adds to its run's totals.

        ``rounds`` is the protocol rounds the report covers.
        """
        return Counter(rounds=sum(row["rounds_executed"] for row in report["results"]))

    def check(self, cfg: dict, report: dict) -> list:
        """Problems with one report; an empty list means it is correct."""
        problems = []
        if report.get("tool") != "qauthsim":
            problems.append("report does not name the tool")
        echo = report.get("config", {})
        for key in ("strategy", "mode", "direction", "seed", "rounds", "decoys_per_sequence"):
            if key in cfg and echo.get(key) != cfg[key]:
                problems.append(f"config echo {key}={echo.get(key)!r}, sent {cfg[key]!r}")
        return problems + self.check_results(cfg, report["results"])

    def check_results(self, cfg: dict, rows: list) -> list:
        raise NotImplementedError

    def check_run(self, totals: Counter) -> list:
        """Checks on the summed tallies of a run's correct reports."""
        return []


class PremeasureDecoys(Workload):
    name = "premeasure-decoys"
    base = {
        "mode": "sampled",
        "strategy": "PreMeasure",
        "rounds": 16,
        "decoys_per_sequence": 16,
        "decoy_error_threshold": 0.0,
        "samples": 3,
        "format": "json",
    }

    def vary(self, index: int) -> dict:
        return {"direction": ("Alice", "Bob")[index % 2]}

    def check_results(self, cfg: dict, rows: list) -> list:
        if len(rows) != 1:
            return [f"{len(rows)} result rows, expected 1"]
        row = rows[0]
        problems = []
        want = {
            "rounds_executed": cfg["samples"] * cfg["rounds"],
            "accept_rate": 1.0,
            "detection_rate": 0.0,
            "key_recovery_rate": 1.0,
        }
        for key, value in want.items():
            if row[key] != value:
                problems.append(f"{key}={row[key]!r}, expected {value!r}")
        return problems


class InterceptShort(Workload):
    name = "intercept-short"
    base = {
        "mode": "sampled",
        "strategy": "InterceptResend",
        "rounds": 1,
        "decoys_per_sequence": 1,
        "decoy_error_threshold": 0.0,
        "direction": "Alice",
        "samples": 160,
        "format": "json",
    }

    def check_results(self, cfg: dict, rows: list) -> list:
        if len(rows) != 1:
            return [f"{len(rows)} result rows, expected 1"]
        row = rows[0]
        problems = []
        if row["rounds_executed"] != cfg["samples"]:
            problems.append(
                f"rounds_executed={row['rounds_executed']}, expected {cfg['samples']}"
            )
        if row["detection_trials"] != row["rounds_executed"]:
            problems.append("detection_trials differs from rounds_executed")
        if row["key_recovery_rate"] is not None:
            problems.append("InterceptResend reported a key recovery rate")
        return problems

    def tally(self, report: dict) -> Counter:
        row = report["results"][0]
        return super().tally(report) + Counter(
            detected=round(row["detection_rate"] * row["detection_trials"]),
            trials=row["detection_trials"],
        )

    def check_run(self, totals: Counter) -> list:
        detected, trials = totals["detected"], totals["trials"]
        if not trials:
            return ["no correct report to check the detection rate on"]
        low, high = wilson_interval(detected, trials, DETECTION_Z)
        if not low <= INTERCEPT_DETECTION <= high:
            return [
                f"aggregate detection rate {detected / trials:.5f} over {trials} "
                f"rounds: z={DETECTION_Z} band [{low:.5f}, {high:.5f}] "
                f"misses {INTERCEPT_DETECTION}"
            ]
        return []


class ExactTv(Workload):
    name = "exact-tv"
    base = {"mode": "exact", "format": "json"}
    # Honest and PreMeasure reports take different times.  With equal
    # weights the median would fall on the boundary between the two modes
    # and jump between them from run to run, so PreMeasure, the attack under
    # study, appears twice per cycle.
    CYCLE = (
        ("Honest", "Alice"),
        ("PreMeasure", "Alice"),
        ("PreMeasure", "Bob"),
        ("Honest", "Bob"),
        ("PreMeasure", "Alice"),
        ("PreMeasure", "Bob"),
    )

    def vary(self, index: int) -> dict:
        strategy, direction = self.CYCLE[index % len(self.CYCLE)]
        return {"strategy": strategy, "direction": direction}

    def tally(self, report: dict) -> Counter:
        # Each key row is the exact distribution of one protocol round.
        return Counter(rounds=len(report["results"]))

    def check_results(self, cfg: dict, rows: list) -> list:
        keys = [row["key"] for row in rows]
        if keys != list(KEY_NAMES):
            return [f"key rows {keys}, expected {list(KEY_NAMES)}"]
        problems = []
        for row in rows:
            if not row["tv_distance_vs_honest"] <= 1e-12:
                problems.append(f"key {row['key']}: tv {row['tv_distance_vs_honest']!r}")
            if not abs(row["accept_probability"] - 1.0) <= 1e-12:
                problems.append(f"key {row['key']}: accept {row['accept_probability']!r}")
            if row["support_size"] != 16:
                problems.append(f"key {row['key']}: support {row['support_size']!r}")
        return problems


WORKLOADS = {w.name: w for w in (PremeasureDecoys(), InterceptShort(), ExactTv())}
