"""qauthsim benchmark: a closed loop of ``qauthsim run`` reports.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload premeasure-decoys --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client, one process, one thread: the benchmark writes a config file
generated from ``--seed``, calls the public entry point
``cli.main(["run", "--config", ..., "--output", ...])``, waits for the
report, checks it, and only then sends the next one.  Each report is timed
from config read to file written.

``--trace 0`` reports the end-to-end metrics (see README.md).  ``--trace 1``
runs a fixed list of reports with every public function of the five
qauthsim modules wrapped in a span, runs the same list again untraced,
requires byte-identical reports, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, render_config

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
FIRST_REPORT = Path(__file__).resolve().parent / "first_report.py"

# Pin every BLAS/OpenMP pool to one thread before numpy loads, so one
# workload uses one core of a small machine and nothing is oversubscribed.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The host's speed changes by up to 1.6x over minutes on a shared machine
# (other tenants on the same cores), and one run sits inside one such
# period.  A fixed calibration loop timed between reports tracks that speed,
# and every time is reported at the speed where the loop takes
# CALIBRATION_REF_S (about its time on a quiet 2-core 2.1 GHz Xeon).
CALIBRATION_REF_S = 2.0e-3

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_LAUNCHES = 7
SETUP_TIMEOUT_S = 60

# Reports in the traced run per --seconds of run length.  Fixed per
# workload, so a traced run does the same work (and its counts repeat
# exactly) for a given seed and length; sized so that the traced and the
# untraced pass together take about --seconds at the seed commit on a
# 2-core x86 machine.
TRACE_REPORTS_PER_S = {
    "premeasure-decoys": 7.0,
    "intercept-short": 8.0,
    "exact-tv": 12.0,
}

# Tail percentiles considered, highest first; the tail reported is the
# highest one with at least TAIL_BEYOND reports above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_program():
    """Import qauthsim from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qauthsim" / "cli.py").is_file():
        print(f"benchmark: no program at {src / 'qauthsim'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import qauthsim
    from qauthsim import adversary, cli, oracle, protocol, qsim

    if Path(qauthsim.__file__).resolve().parent != (src / "qauthsim").resolve():
        print(f"benchmark: imported qauthsim from {qauthsim.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return {"qsim": qsim, "protocol": protocol, "adversary": adversary, "oracle": oracle, "cli": cli}


class Client:
    """Sends one report at a time through ``cli.main`` and checks it."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.devnull = open(os.devnull, "w")
        self.problems: list = []

    def close(self) -> None:
        self.devnull.close()

    def run(self, index: int, cfg: dict):
        """Run one report; return (seconds, report text or None)."""
        config_path = self.workdir / f"{index}.cfg"
        report_path = self.workdir / f"{index}.json"
        config_path.write_text(render_config(cfg), encoding="utf-8")
        argv = ["run", "--config", str(config_path), "--output", str(report_path)]
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.devnull):
                code = self.cli.main(argv)
        except Exception:
            self.problems.append(f"report {index}: cli.main raised\n{traceback.format_exc()}")
        finally:
            elapsed = time.perf_counter() - t0
            config_path.unlink()
        if code != 0:
            if code is not None:
                self.problems.append(f"report {index}: cli.main returned {code}")
            return elapsed, None
        text = report_path.read_text(encoding="utf-8")
        report_path.unlink()
        return elapsed, text

    def check(self, index: int, cfg: dict, text: str):
        """Parsed report, or None after recording what is wrong with it."""
        try:
            report = json.loads(text)
            problems = self.workload.check(cfg, report)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if problems:
            self.problems.append(f"report {index}: " + "; ".join(problems))
            return None
        return report


def tail_percentile(times: list):
    """(percentile, value) for the highest ladder step with enough beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def calibration_loop(vec) -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    the two kinds of work a report does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(300):
        vec[::-1] * vec
    return time.perf_counter() - t0


def calibrated(times: list, calibration: list) -> list:
    """Each time scaled to reference speed by the mean of the calibration
    loop times taken just before and just after it."""
    return [
        t * CALIBRATION_REF_S * 2.0 / (before + after)
        for t, before, after in zip(times, calibration, calibration[1:])
    ]


def measure_setup(workload, vec) -> tuple:
    """Wall times of fresh interpreters each producing a minimal report, and
    the calibration loop times around them (one more than launches)."""
    workdir = OUT_DIR / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "minimal.cfg"
    config_path.write_text(render_config(workload.minimal()), encoding="utf-8")
    cmd = [sys.executable, str(FIRST_REPORT), str(ROOT / "src"), str(config_path), str(workdir / "minimal.json")]

    def calibrate() -> float:
        return statistics.median(calibration_loop(vec) for _ in range(5))

    times, calibration = [], [calibrate()]
    try:
        for _ in range(SETUP_LAUNCHES):
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=pinned_env())
            # A blocking wait, not wait(timeout=...), which polls in
            # sleeps of up to 50 ms and would quantise the time.
            timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise subprocess.CalledProcessError(code, cmd)
            calibration.append(calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times, calibration


def end_to_end(workload, seed: int, seconds: float, modules: dict, workdir: Path):
    import numpy as np

    vec = np.ones(64, dtype=np.complex128)
    setup_times, setup_calibration = measure_setup(workload, vec)
    client = Client(modules["cli"], workload, workdir)
    times = []
    totals = Counter()
    first_cfg = first_text = None
    try:
        # Lazy set-up inside the program (cached masks, the fresh register
        # template) is paid by setup_s; let it finish before timing.
        client.run(-1, workload.minimal())
        calibration = [calibration_loop(vec)]
        for index, cfg in enumerate(workload.configs(seed)):
            if sum(times) >= seconds:
                break
            elapsed, text = client.run(index, cfg)
            calibration.append(calibration_loop(vec))
            times.append(elapsed)
            if index == 0:
                first_cfg, first_text = cfg, text
            report = client.check(index, cfg, text) if text is not None else None
            if report is not None:
                totals += workload.tally(report)
        # Determinism: the first config, sent again, gives the same bytes.
        _, again = client.run(len(times), first_cfg)
        attempted = len(times) + 1
        problems = client.problems + workload.check_run(totals)
        if again is None or again != first_text:
            problems.append("re-running the first config gave a different report")
    finally:
        client.close()
    scaled = calibrated(times, calibration)
    pct, tail = tail_percentile(scaled)
    metrics = {
        "setup_s": statistics.median(calibrated(setup_times, setup_calibration)),
        "rounds_per_s": totals["rounds"] / sum(scaled),
        "report_p50_ms": statistics.median(scaled) * 1e3,
        "report_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_tail = tail_percentile(times)[1]
    notes = {
        "setup_s": f"wall {statistics.median(setup_times):.6g}, median of {len(setup_times)} launches",
        "rounds_per_s": f"wall {totals['rounds'] / sum(times):.6g}",
        "report_p50_ms": f"wall {statistics.median(times) * 1e3:.6g}",
        "report_tail_ms": f"wall {wall_tail * 1e3:.6g}, p{pct:g} of {len(times)} reports",
        "calibration": (
            f"calibration loop median {statistics.median(calibration) * 1e3:.4g} ms "
            f"(reference {CALIBRATION_REF_S * 1e3:g} ms) over {len(calibration)} runs"
        ),
    }
    return metrics, notes, attempted, problems


def traced(workload, seed: int, seconds: float, modules: dict, workdir: Path):
    from tracer import METRIC_UNITS, Tracer

    count = max(2, round(seconds * TRACE_REPORTS_PER_S[workload.name]))
    configs = list(itertools.islice(workload.configs(seed), count))
    client = Client(modules["cli"], workload, workdir)
    tracer = Tracer(modules)
    try:
        # The traced pass runs first, in a fresh process, so that lazy
        # set-up inside the program shows in its spans (qsim.prep_self_s).
        traced_texts, traced_time = [], 0.0
        tracer.install()
        try:
            for i, cfg in enumerate(configs):
                tracer.report_id = i
                elapsed, text = client.run(i, cfg)
                traced_texts.append(text)
                traced_time += elapsed
        finally:
            tracer.uninstall()
            tracer.report_id = -1
        plain_texts, plain_time = [], 0.0
        for i, cfg in enumerate(configs):
            elapsed, text = client.run(len(configs) + i, cfg)
            plain_texts.append(text)
            plain_time += elapsed
        reports = [
            client.check(i, cfg, text)
            for i, (cfg, text) in enumerate(zip(configs, traced_texts))
            if text is not None
        ]
        totals = sum((workload.tally(r) for r in reports if r is not None), Counter())
        problems = client.problems + workload.check_run(totals)
        differ = sum(t != p for t, p in zip(traced_texts, plain_texts))
        if differ:
            problems.append(f"{differ} traced reports differ from the untraced ones")
    finally:
        client.close()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_time / plain_time - 1.0
    units = {**METRIC_UNITS, "trace.overhead_frac": "ratio"}
    notes = {"trace.overhead_frac": f"{len(configs)} reports traced, then the same untraced"}
    return metrics, units, notes, 2 * len(configs), problems


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    modules = import_program()
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, units, notes, attempted, problems = traced(
                workload, args.seed, args.seconds, modules, workdir
            )
        else:
            metrics, notes, attempted, problems = end_to_end(
                workload, args.seed, args.seconds, modules, workdir
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = len(problems)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>16.6g} {units[name]}{note}")
    if "calibration" in notes:
        print(f"  {notes['calibration']}")
    print(f"  {'failed_frac':<42} {failed / attempted:>16.6g} ratio  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
