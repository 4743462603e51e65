"""Spans around the package's public calls, patched from outside.

`Tracer.install` replaces each traced function under the name its caller
looks it up by (for example `enqode.cli.simulate_noisy`, which `cli` bound
at import), and `uninstall` puts the originals back; no program file
changes. A span is (id, name, start, end, parent, op, extra). Spans stay
in memory until `write`. Spans opened on a worker thread with nothing open
on that thread take the main thread's open span (the `compare` call that
submitted the work) as their parent.

`derive` turns the spans into the per-layer metrics. A metric comes from
the workload's timed operations when they reach that layer, else from its
set-up, else from the tour: one traced `compare-n7` set-up and operation
that the traced run adds for workloads that never reach the remaining
layers. The `ns_per_pass_*` figures come from probe circuits of one gate
kind each.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import stats
from enqode import baseline, cli, dataio, pipeline, simulator, symbolic
from enqode.circuit import Circuit, GateKind


def _k(args, kwargs, result):
    return {"k": result.k}


def _optimizer(args, kwargs, result):
    return {"iterations": result.iterations, "gradient_evals": result.gradient_evals}


def _compiled(args, kwargs, result):
    return {"two_qubit": result.metrics.two_qubit_physical}


def _routed(args, kwargs, result):
    return {"swaps": sum(g.kind is GateKind.SWAP for g in result.circuit.gates)}


def _noisy(args, kwargs, result):
    circuit, theta = args[0], args[1]
    return {"gates": len(circuit.gates), "baseline": theta is None}


# (owner, attribute, span name, extra-fields callback)
TRACED = [
    (pipeline, "cluster", "pipeline.cluster", _k),
    (pipeline, "train_offline", "pipeline.train_offline", None),
    (pipeline, "embed_online", "pipeline.embed_online", None),
    (pipeline, "minimize", "optimizer.minimize", _optimizer),
    (symbolic.OverlapModel, "loss_and_grad", "symbolic.loss_and_grad", None),
    (cli, "main", "cli.main", None),
    (cli, "_compare_one", "cli.compare_one", None),
    (cli, "embed_online", "pipeline.embed_online", None),
    (cli, "compile_exact", "baseline.compile_exact", _compiled),
    (cli, "simulate_ideal", "simulator.simulate_ideal", None),
    (cli, "simulate_noisy", "simulator.simulate_noisy", _noisy),
    (cli, "build_report", "report.build", None),
    (cli, "render_report_svgs", "plots.render", None),
    (dataio, "load_dataset", "dataio.load_dataset", None),
    (baseline, "synthesize_exact", "baseline.synthesize", None),
    (baseline, "lower_to_basis", "baseline.lower", None),
    (baseline, "route_linear", "baseline.route", _routed),
    (simulator, "simulate_noisy", "simulator.simulate_noisy", _noisy),
    (simulator.DensityMatrix, "validate", "simulator.density_check", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None  # operation id stamped on every span
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, original, name, extra):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                fields = extra(args, kwargs, result) if extra and result is not None else None
                self.spans.append((span_id, name, start, end, parent, self.op, fields))
        return traced

    def install(self) -> None:
        for owner, attr, name, extra in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, op, fields in self.spans:
                doc = {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                doc.update(fields or {})
                fh.write(json.dumps(doc) + "\n")


# --------------------------------------------------------------- derive


def _phase(op) -> str:
    if isinstance(op, int):
        return "loop"
    return str(op).split("-")[0]  # setup-<r>, tour-<...>, probe-<kind>


def _covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total, reach = 0.0, start
    for c_start, c_end in sorted((max(s, start), min(e, end)) for s, e in children):
        if c_end > reach:
            total += c_end - max(c_start, reach)
            reach = c_end
    return total


class _Spans:
    def __init__(self, spans):
        self.by_name: dict[str, list] = {}
        self.children: dict[int, list] = {}
        for span in spans:
            self.by_name.setdefault(span[1], []).append(span)
            if span[4] is not None:
                self.children.setdefault(span[4], []).append(span)

    def pick(self, name: str) -> list:
        """Spans of one name from the first phase that has any."""
        spans = self.by_name.get(name, [])
        for phase in ("loop", "setup", "tour"):
            chosen = [s for s in spans if _phase(s[5]) == phase]
            if chosen:
                return chosen
        raise KeyError(f"no '{name}' span in the traced run")

    def durations(self, name: str, scale: float) -> float:
        return stats.median([(s[3] - s[2]) * scale for s in self.pick(name)])

    def field(self, name: str, key: str) -> float:
        return stats.median([s[6][key] for s in self.pick(name)])

    def per_op(self, name: str, value) -> float:
        """Median over operations of the summed value of their spans."""
        totals: dict = {}
        for span in self.pick(name):
            totals[span[5]] = totals.get(span[5], 0.0) + value(span)
        return stats.median(totals.values())

    def per_parent(self, child: str, parent: str, scale: float) -> float:
        totals = []
        for span in self.pick(parent):
            kids = [s for s in self.children.get(span[0], []) if s[1] == child]
            totals.append(sum(s[3] - s[2] for s in kids) * scale)
        return stats.median(totals)

    def self_time(self, name: str, scale: float) -> float:
        values = []
        for span in self.pick(name):
            kids = [(s[2], s[3]) for s in self.children.get(span[0], [])]
            values.append((span[3] - span[2] - _covered(span[2], span[3], kids)) * scale)
        return stats.median(values)

    def ns_per_pass(self, kind: str) -> float:
        values = []
        for span in self.by_name["simulator.simulate_noisy"]:
            if span[5] == f"probe-{kind}":
                checks = sum(s[3] - s[2] for s in self.children.get(span[0], []))
                values.append((span[3] - span[2] - checks) * 1e9 / span[6]["gates"])
        return stats.median(values)


def _unit(name: str) -> str:
    if name.startswith("simulator.ns_per_pass"):
        return "ns"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("overlap", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def derive(spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, named as in BENCHMARK.json, with its unit."""
    t = _Spans(s for s in spans if _phase(s[5]) != "probe")
    probes = _Spans(s for s in spans if _phase(s[5]) == "probe")
    noisy = t.pick("simulator.simulate_noisy")
    dur = lambda s: s[3] - s[2]

    def noisy_ms(is_baseline):
        return stats.median([dur(s) * 1e3 for s in noisy if s[6]["baseline"] is is_baseline])

    overlap = []
    for main in t.pick("cli.main"):
        work = [dur(s) for s in t.children.get(main[0], []) if s[1] == "cli.compare_one"]
        overlap.append(sum(work) / dur(main))

    values = {
        "pipeline.cluster_ms": t.durations("pipeline.cluster", 1e3),
        "pipeline.cluster_k": t.field("pipeline.cluster", "k"),
        "pipeline.train_offline_ms": t.durations("pipeline.train_offline", 1e3),
        "pipeline.embed_online_ms": t.durations("pipeline.embed_online", 1e3),
        "symbolic.loss_and_grad_us": t.durations("symbolic.loss_and_grad", 1e6),
        "symbolic.loss_and_grad_calls": t.per_op("symbolic.loss_and_grad", lambda s: 1),
        "optimizer.minimize_ms": t.durations("optimizer.minimize", 1e3),
        "optimizer.self_ms": t.self_time("optimizer.minimize", 1e3),
        "optimizer.iterations": t.field("optimizer.minimize", "iterations"),
        "optimizer.gradient_evals": t.field("optimizer.minimize", "gradient_evals"),
        "baseline.synthesize_ms": t.durations("baseline.synthesize", 1e3),
        "baseline.lower_ms": t.per_parent("baseline.lower", "baseline.compile_exact", 1e3),
        "baseline.route_ms": t.durations("baseline.route", 1e3),
        "baseline.two_qubit_gates": t.field("baseline.compile_exact", "two_qubit"),
        "baseline.swaps_inserted": t.field("baseline.route", "swaps"),
        "simulator.noisy_baseline_ms": noisy_ms(True),
        "simulator.noisy_ansatz_ms": noisy_ms(False),
        "simulator.simulate_ideal_ms": t.durations("simulator.simulate_ideal", 1e3),
        "simulator.gate_passes": t.per_op("simulator.simulate_noisy", lambda s: s[6]["gates"]),
        "simulator.density_check_ms": t.durations("simulator.density_check", 1e3),
        "simulator.ns_per_pass_1q": probes.ns_per_pass("1q"),
        "simulator.ns_per_pass_2q": probes.ns_per_pass("2q"),
        "simulator.ns_per_pass_rz": probes.ns_per_pass("rz"),
        "cli.jobs_overlap": stats.median(overlap),
        "cli.compare_self_ms": t.self_time("cli.main", 1e3),
        "dataio.load_dataset_ms": t.durations("dataio.load_dataset", 1e3),
        "report.build_ms": t.durations("report.build", 1e3),
        "plots.render_ms": t.durations("plots.render", 1e3),
    }
    return {name: (value, _unit(name)) for name, value in values.items()}


def probe_circuits(num_qubits: int = 7, gates: int = 210):
    """One circuit per gate kind the noisy simulator distinguishes: SX
    (one-qubit channel), CX on chain neighbours (two-qubit channel) and RZ
    (diagonal, no channel)."""
    circuits = {"1q": Circuit(num_qubits), "2q": Circuit(num_qubits), "rz": Circuit(num_qubits)}
    for i in range(gates):
        circuits["1q"].sx(i % num_qubits)
        circuits["2q"].cx(i % (num_qubits - 1), i % (num_qubits - 1) + 1)
        circuits["rz"].rz(i % num_qubits, angle=0.1 * (i + 1))
    return circuits


def run_probes(tracer: Tracer, repeats: int = 3) -> None:
    noise = simulator.NoiseModel()
    for kind, circuit in probe_circuits().items():
        tracer.op = f"probe-{kind}"
        for _ in range(repeats):
            simulator.simulate_noisy(circuit, None, noise)
    tracer.op = None
