"""Spans around calls into the five qauthsim modules, recorded from outside.

:class:`Tracer` replaces every public function of ``qsim``, ``protocol``,
``adversary``, ``oracle`` and ``cli`` with a timing wrapper at every module
attribute that names it.  That covers calls made through a module attribute
(``protocol`` calls ``qsim.measure_z``) and calls through a name bound by
``from ... import`` (``oracle`` binds ``hook_premeasure`` and ``forge_c``).
Calls a module makes to its own functions go through its globals, which are
the same attributes, so nested calls become child spans.

Spans (name, start, end, parent, report id, qubit count of the first
argument) are kept in compact arrays and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

MEASURE = ("qsim.measure_z", "qsim.measure_x", "qsim.measure_bell")
OUTCOMES = ("qsim.z_outcomes", "qsim.x_outcomes", "qsim.bell_outcomes")
GATES = ("qsim.apply_pauli", "qsim.apply_hadamard", "qsim.apply_cnot")
PREP = ("qsim.init_product", "qsim.prepare_ghz_like")
STATS = (
    "oracle.collect_round_stats",
    "oracle.sampled_rates",
    "oracle.wilson_interval",
    "oracle.tv_distance",
)
PROTOCOL_PHASES = ("p1_prepare", "s_check", "e1_encode", "e2_measure", "e3_verify", "run_protocol")

# Per-layer metrics: name -> unit.  Times are summed self times over the
# traced reports; counts are totals over the same reports.
METRIC_UNITS = {
    "qsim.q1.measure_calls": "count",
    "qsim.q1.measure_self_s": "s",
    "qsim.q6.measure_calls": "count",
    "qsim.q6.measure_self_s": "s",
    "qsim.outcomes_calls": "count",
    "qsim.outcomes_self_s": "s",
    "qsim.gate_calls": "count",
    "qsim.gate_self_s": "s",
    "qsim.prep_self_s": "s",
    "qsim.amp_bytes_computed": "B",
    **{f"protocol.{phase}.self_s": "s" for phase in PROTOCOL_PHASES},
    "protocol.decoys_checked": "count",
    "protocol.rounds_started": "count",
    "protocol.rounds_completed": "count",
    "protocol.round_yield": "ratio",
    "adversary.hook_premeasure.calls": "count",
    "adversary.hook_premeasure.self_s": "s",
    "adversary.hook_intercept_resend.calls": "count",
    "adversary.hook_intercept_resend.self_s": "s",
    "adversary.infer_key.calls": "count",
    "oracle.exact_distribution.calls": "count",
    "oracle.exact_distribution.self_s": "s",
    "oracle.leaves": "count",
    "oracle.outcome_lists": "count",
    "oracle.tree_nodes": "count",
    "oracle.recompute_ratio": "ratio",
    "oracle.stats.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.build_report.self_s": "s",
    "cli.render.self_s": "s",
    "cli.report_bytes": "B",
    "cli.main.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs, records and removes the wrappers; one instance per run."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.qubits = array("b")
        self.start = array("d")
        self.end = array("d")
        self.report_id = -1
        self._stack = [-1]
        self._patched: list = []
        self._branch_paths: list = []  # (enclosing span, BranchSource.taken)
        self.counts = {
            "decoys_checked": 0,
            "rounds_started": 0,
            "rounds_completed": 0,
            "report_bytes": 0,
        }

    # -- installation ---------------------------------------------------

    def _public_functions(self) -> dict:
        found = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    # A generator function returns before its body runs;
                    # its work shows up in the caller that iterates it.
                    and not inspect.isgeneratorfunction(obj)
                ):
                    found[obj] = f"{layer}.{attr}"
        return found

    def install(self) -> None:
        after = {
            "protocol.s_check": self._after_s_check,
            "protocol.run_protocol": self._after_run_protocol,
            "cli.render_json": self._after_render,
            "cli.render_csv": self._after_render,
        }
        wrappers = {
            fn: self._wrap(name, fn, after.get(name))
            for fn, name in self._public_functions().items()
        }
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        oracle = self.modules["oracle"]
        self._patch(oracle, "BranchSource", self._recording_branch_source(oracle.BranchSource))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, after):
        nid = self._name_id(name)
        names, parents, reports = self.name, self.parent, self.report
        qubits, starts, ends, stack = self.qubits, self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            reports.append(tracer.report_id)
            qubits.append(getattr(args[0], "n_qubits", 0) if args else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _recording_branch_source(self, base):
        paths, stack = self._branch_paths, self._stack

        class RecordingBranchSource(base):
            def __init__(self, script):
                super().__init__(script)
                paths.append((stack[-1], self.taken))

        return RecordingBranchSource

    def _after_s_check(self, args, result) -> None:
        self.counts["decoys_checked"] += len(args[1])

    def _after_run_protocol(self, args, result) -> None:
        rounds = result[0].rounds
        self.counts["rounds_started"] += len(rounds)
        self.counts["rounds_completed"] += sum(r.aborted_in is None for r in rounds)

    def _after_render(self, args, result) -> None:
        self.counts["report_bytes"] += len(result.encode("utf-8"))

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "report": np.frombuffer(self.report, dtype=np.int32),
            "qubits": np.frombuffer(self.qubits, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every span, and the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metric values, keyed as in METRIC_UNITS."""
        a = self.arrays()
        name, parent, qubits = a["name"], a["parent"], a["qubits"]
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        self_time = duration - covered

        def ids(names) -> np.ndarray:
            return np.array([self._name_ids.get(n, -1) for n in names])

        def select(names, extra=None) -> np.ndarray:
            mask = np.isin(name, ids(names))
            return mask if extra is None else mask & extra

        def self_s(names, extra=None) -> float:
            return float(self_time[select(names, extra)].sum())

        def calls(names, extra=None) -> int:
            return int(select(names, extra).sum())

        is_qsim = np.zeros(n_names, dtype=bool)
        is_qsim[[i for i, n in enumerate(self.names) if n.startswith("qsim.")]] = True
        state_input = is_qsim[name] & (qubits > 0)
        amp_bytes = int((16 * (2 ** qubits[state_input].astype(np.int64))).sum())

        # Outcome lists handed to the enumeration: outermost *_outcomes
        # calls with an exact_transcript_distribution span above them.
        is_outcome = np.isin(name, ids(OUTCOMES))
        outermost = is_outcome & ~np.where(child, is_outcome[np.maximum(parent, 0)], False)
        is_exact = name == self._name_ids.get("oracle.exact_transcript_distribution", -1)
        under_exact = np.zeros(len(name), dtype=bool)
        cursor = parent.copy()
        while (cursor >= 0).any():
            live = cursor >= 0
            under_exact[live] |= is_exact[cursor[live]]
            cursor[live] = parent[cursor[live]]
        outcome_lists = int((outermost & under_exact).sum())

        nodes = set()
        for span, taken in self._branch_paths:
            nodes.update((span, tuple(taken[:k])) for k in range(len(taken)))

        q1, q6 = qubits == 1, qubits == 6
        started, completed = self.counts["rounds_started"], self.counts["rounds_completed"]
        values = {
            "qsim.q1.measure_calls": calls(MEASURE, q1),
            "qsim.q1.measure_self_s": self_s(MEASURE, q1),
            "qsim.q6.measure_calls": calls(MEASURE, q6),
            "qsim.q6.measure_self_s": self_s(MEASURE, q6),
            "qsim.outcomes_calls": calls(OUTCOMES),
            "qsim.outcomes_self_s": self_s(OUTCOMES),
            "qsim.gate_calls": calls(GATES),
            "qsim.gate_self_s": self_s(GATES),
            "qsim.prep_self_s": self_s(PREP),
            "qsim.amp_bytes_computed": amp_bytes,
            **{
                f"protocol.{phase}.self_s": self_s([f"protocol.{phase}"])
                for phase in PROTOCOL_PHASES
            },
            "protocol.decoys_checked": self.counts["decoys_checked"],
            "protocol.rounds_started": started,
            "protocol.rounds_completed": completed,
            "protocol.round_yield": _ratio(completed, started),
            "adversary.hook_premeasure.calls": calls(["adversary.hook_premeasure"]),
            "adversary.hook_premeasure.self_s": self_s(["adversary.hook_premeasure"]),
            "adversary.hook_intercept_resend.calls": calls(["adversary.hook_intercept_resend"]),
            "adversary.hook_intercept_resend.self_s": self_s(["adversary.hook_intercept_resend"]),
            "adversary.infer_key.calls": calls(["adversary.infer_key"]),
            "oracle.exact_distribution.calls": calls(["oracle.exact_transcript_distribution"]),
            "oracle.exact_distribution.self_s": self_s(["oracle.exact_transcript_distribution"]),
            "oracle.leaves": len(self._branch_paths),
            "oracle.outcome_lists": outcome_lists,
            "oracle.tree_nodes": len(nodes),
            "oracle.recompute_ratio": _ratio(len(nodes), outcome_lists),
            "oracle.stats.self_s": self_s(STATS),
            "cli.load_config.self_s": self_s(["cli.load_config"]),
            "cli.build_report.self_s": self_s(["cli.build_report"]),
            "cli.render.self_s": self_s(["cli.render_json", "cli.render_csv"]),
            "cli.report_bytes": self.counts["report_bytes"],
            "cli.main.self_s": self_s(["cli.main", "cli.cmd_run"]),
        }
        return values
