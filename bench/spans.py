"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public callables of the program from outside: each one
is replaced, by identity, in its owner and in every ``sys.modules`` entry
that bound it (so ``from x import f`` call sites are covered too).  A call
through a wrapper records a span ``(id, parent, layer, start, end, op,
pid)`` in memory while tracing is enabled.  The workload installs the
wrappers only around traced operations and removes them afterwards, so
its untraced operations run the program as shipped.

Campaign workers are forked: they inherit the wrappers, start with an
empty span list (``os.register_at_fork``), and append their spans,
counters and lifetime to ``<trace_dir>/spans-<pid>.jsonl`` when their
outermost flush-point call (``detect_segmented``, ``classify``, ...)
returns, because forked workers leave through ``os._exit`` and never run
``atexit``.  :func:`layer_metrics` merges those files with the parent's
spans.  A span's self time is its duration minus the spans it directly
caused in the same process.

Counters come from return values (dispatch stats, store hits, stage
steps) and are recorded in the process that did the work.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, trace_dir) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = False
        self.op = None
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.counters: Counter = Counter()
        self.phases: List[tuple] = []
        self._phase_depth = 0
        self._next_id = 0
        self._base_depth = 0
        self._fork_t = None
        self._patches: List[tuple] = []
        self._wrapped: Dict[int, tuple] = {}
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counters = Counter()
        self.phases = []
        self._base_depth = len(self.stack)
        self._fork_t = clock()

    def flush(self) -> None:
        """Append this (forked) process's spans, counters and lifetime to
        its span file, then forget them."""
        if not (self.spans or self.counters):
            return
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span"] + span) + "\n")
            fh.write(json.dumps(["counters", dict(self.counters)]) + "\n")
            fh.write(json.dumps(["proc", self.pid, self._fork_t, clock(), self.op]) + "\n")
        self.spans = []
        self.counters = Counter()

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        on_result: Optional[Callable] = None,
        flush: bool = False,
        phase: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute holding a
        plain function) with a recording wrapper.

        ``on_result(tracer, span, result, args, kwargs)`` may add counters
        or span attributes.  ``flush`` marks a call after whose outermost
        return a forked process writes its span file.  ``phase`` records
        an inclusive timer instead of a span: phases do not nest, take no
        self time, and are not layers.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = (
            self._phase_wrapper(original, layer)
            if phase
            else self._span_wrapper(original, layer, on_result, flush)
        )
        self._replace(original, wrapper, owner, attr)

    def _replace(self, original, wrapper, owner, attr) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if isinstance(owner, type):
            return
        self._wrapped[id(wrapper)] = (wrapper, original)
        self._rebind({id(original): (original, wrapper)}, skip=owner)

    @staticmethod
    def _rebind(replacements, skip=None) -> None:
        """In every loaded module, replace each value whose id is a key of
        ``replacements`` (``id -> (old, new)``) by its new value."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or module is skip:
                continue
            for name, value in list(namespace.items()):
                pair = replacements.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, name, pair[1])

    def uninstall(self) -> None:
        """Restore every wrapped callable, including names that modules
        imported after the wrappers went in."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._rebind(self._wrapped)
        self._patches.clear()
        self._wrapped.clear()

    def _span_wrapper(self, fn, layer, on_result, flush):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer._next_id += 1
            span = [
                f"{tracer.pid}-{tracer._next_id}", parent, layer,
                clock(), None, tracer.op, tracer.pid, {},
            ]
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                tracer.stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                on_result(tracer, span, result, args, kwargs)
            if (
                flush
                and tracer.pid != tracer.root_pid
                and len(tracer.stack) == tracer._base_depth
            ):
                tracer.flush()
            return result

        return traced

    def _phase_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled or tracer._phase_depth:
                return fn(*args, **kwargs)
            tracer._phase_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._phase_depth -= 1
                tracer.phases.append((name, start, clock(), tracer.op))

        return timed

    # ------------------------------------------------------------------
    def collect(self):
        """All spans, counters and worker lifetimes: this process's plus
        every flushed span file."""
        spans = [list(span) for span in self.spans]
        counters = Counter(self.counters)
        procs: Dict[int, list] = {}
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                kind, *body = json.loads(line)
                if kind == "span":
                    spans.append(body)
                elif kind == "counters":
                    counters.update(body[0])
                else:
                    pid, start, end, op = body
                    known = procs.get(pid)
                    procs[pid] = [start, end if known is None else max(end, known[1]), op]
        return spans, counters, procs


# ----------------------------------------------------------------------
# The repo's layers
# ----------------------------------------------------------------------
#: Span layers: each reports ``<layer>.calls`` and ``<layer>.self_s``.
SPAN_LAYERS = (
    "snn.currents",
    "snn.kbatched",
    "snn.forward",
    "snn.run",
    "faults.campaign",
    "faults.golden",
    "faults.parallel",
    "faults.store",
    "faults.catalog",
    "autograd.backward",
    "autograd.optim",
    "core.stage",
    "core.probe",
    "core.activation",
    "training.step",
    "datasets",
)
#: Counter metrics, each ``(name, unit)``.
COUNTERS = (
    ("snn.events.zero_slices", "count"),
    ("snn.events.event_blocks", "count"),
    ("snn.events.dense_blocks", "count"),
    ("snn.events.fallbacks", "count"),
    ("faults.campaign.fault_segments", "count"),
    ("faults.parallel.retries", "count"),
    ("faults.store.hits", "count"),
    ("faults.store.writes", "count"),
    ("core.stage.steps", "count"),
    ("core.stage.growths", "count"),
    ("core.probe.rungs", "count"),
    ("core.guard.restarts", "count"),
)
PHASES = (
    ("phase.train_s", "network"),
    ("phase.generate_s", "generation"),
    ("phase.label_s", "classification"),
    ("phase.verify_s", "detection"),
)
#: Derived metrics, each ``(name, unit)``.
DERIVED = (
    ("faults.campaign.us_per_fault_segment", "us"),
    ("faults.parallel.idle_core_s", "s"),
    ("faults.store.hit_ratio", "fraction"),
    ("untraced_s", "s"),
    ("trace_overhead_frac", "fraction"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(dict(COUNTERS))
    units.update({name: "s" for name, _ in PHASES})
    units.update(dict(DERIVED))
    return units


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_dispatch(tracer, span, result, args, kwargs):
    dispatch = getattr(result, "dispatch", None) or {}
    for field in ("zero_slices", "event_blocks", "dense_blocks", "fallbacks"):
        tracer.counters[f"snn.events.{field}"] += int(dispatch.get(field, 0))


def _count_segmented(tracer, span, result, args, kwargs):
    stimulus = _arg(args, kwargs, 1, "stimulus")
    faults = _arg(args, kwargs, 2, "faults")
    tracer.counters["faults.campaign.fault_segments"] += len(faults) * stimulus.num_segments
    _count_dispatch(tracer, span, result, args, kwargs)


def _count_detect(tracer, span, result, args, kwargs):
    tracer.counters["faults.campaign.fault_segments"] += len(_arg(args, kwargs, 2, "faults"))
    _count_dispatch(tracer, span, result, args, kwargs)


def _count_classify(tracer, span, result, args, kwargs):
    tracer.counters["faults.campaign.fault_segments"] += len(_arg(args, kwargs, 3, "faults"))


def _note_health(tracer, span, result, args, kwargs):
    health = getattr(result, "health", None)
    if health is not None:
        span[7]["workers"] = int(health.workers)
        tracer.counters["faults.parallel.retries"] += int(health.retries)


def _count_get(tracer, span, result, args, kwargs):
    tracer.counters["faults.store.hits" if result is not None else "faults.store.misses"] += 1


def _count_put(tracer, span, result, args, kwargs):
    tracer.counters["faults.store.writes"] += int(bool(result))


def _count_stage(tracer, span, result, args, kwargs):
    tracer.counters["core.stage.steps"] += int(result.steps_run)
    tracer.counters["core.stage.growths"] += int(result.growths)
    tracer.counters["core.guard.restarts"] += int(result.restarts)
    if kwargs.get("stage_label") == "probe":
        tracer.counters["core.probe.rungs"] += 1


def _classes_defining(module, attr):
    return [
        cls for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and attr in cls.__dict__
    ]


def install_repo_layers(tracer: Tracer) -> None:
    """Wrap the public callables that make up each of the repo's layers."""
    mod = importlib.import_module
    layers = mod("repro.snn.layers")
    events = mod("repro.snn.events")
    network = mod("repro.snn.network")
    simulator = mod("repro.faults.simulator")
    segmented = mod("repro.faults.segmented")
    parallel = mod("repro.faults.parallel")
    store = mod("repro.faults.store")
    catalog = mod("repro.faults.catalog")
    tensor = mod("repro.autograd.tensor")
    optim = mod("repro.autograd.optim")
    stage = mod("repro.core.stage")
    duration = mod("repro.core.duration")
    generator = mod("repro.core.generator")
    trainer = mod("repro.training.trainer")
    benchmarks = mod("repro.experiments.benchmarks")
    datasets = mod("repro.datasets.base")
    pipeline = mod("repro.experiments.pipeline")

    for attr in ("sequence_currents", "synapse_splice_currents"):
        for cls in _classes_defining(layers, attr):
            tracer.wrap(cls, attr, "snn.currents")
    for attr in ("dense_block", "kbatched_block", "stacked_block"):
        tracer.wrap(events.EventDispatch, attr, "snn.currents")
    for attr in ("run_sequence_kbatched_fused", "run_sequence_fused"):
        for cls in _classes_defining(layers, attr):
            tracer.wrap(cls, attr, "snn.kbatched")
    tracer.wrap(network.SNN, "forward_fused", "snn.forward")
    tracer.wrap(network.SNN, "forward", "snn.forward")
    for attr in ("run_modules", "run_spiking_layers", "run"):
        tracer.wrap(network.SNN, attr, "snn.run")

    sim = simulator.FaultSimulator
    tracer.wrap(sim, "detect_segmented", "faults.campaign", _count_segmented, flush=True)
    tracer.wrap(sim, "detect", "faults.campaign", _count_detect, flush=True)
    tracer.wrap(sim, "classify", "faults.campaign", _count_classify, flush=True)
    tracer.wrap(sim, "accuracy_drops", "faults.campaign")
    tracer.wrap(segmented.GoldenSegmentRunner, "run_segment", "faults.golden")
    for attr in ("parallel_detect_segmented", "parallel_detect", "parallel_classify"):
        tracer.wrap(parallel, attr, "faults.parallel", _note_health)
    tracer.wrap(store.CoverageStore, "get", "faults.store", _count_get)
    tracer.wrap(store.CoverageStore, "put", "faults.store")
    tracer.wrap(store.CoverageStore, "put_bytes", "faults.store", _count_put)
    tracer.wrap(store.CoverageStore, "has", "faults.store")
    for attr in ("lookup_group", "stage_group", "load_golden", "store_golden"):
        tracer.wrap(store.StoreSession, attr, "faults.store")
    tracer.wrap(catalog, "build_catalog", "faults.catalog")
    tracer.wrap(catalog, "validate_faults", "faults.catalog")

    tracer.wrap(tensor.Tensor, "backward", "autograd.backward")
    tracer.wrap(optim.Adam, "step", "autograd.optim")
    tracer.wrap(stage, "run_stage", "core.stage", _count_stage)
    tracer.wrap(duration, "find_minimum_duration", "core.probe")
    tracer.wrap(generator.TestGenerator, "activation_sets", "core.activation")
    tracer.wrap(trainer.Trainer, "train_batch", "training.step")
    tracer.wrap(benchmarks.BenchmarkDefinition, "make_dataset", "datasets")
    tracer.wrap(datasets.SpikingDataset, "subset", "datasets")
    for name, attr in PHASES:
        tracer.wrap(pipeline.ExperimentPipeline, attr, name, phase=True)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans) -> Dict[str, float]:
    """Self time per span id: duration minus the durations of its direct
    children in the same process."""
    child_time: Dict[str, float] = defaultdict(float)
    pid_of = {span[0]: span[6] for span in spans}
    for sid, parent, _layer, start, end, _op, pid, *_ in spans:
        if parent is not None and pid_of.get(parent) == pid:
            child_time[parent] += end - start
    return {span[0]: (span[4] - span[3]) - child_time[span[0]] for span in spans}


def layer_metrics(
    tracer: Tracer, op_walls: Dict[int, float], untraced_walls: Dict[int, float]
):
    """Per-layer metrics over the traced ops, each a mean per traced op,
    plus the share of wall time the spans cover in each process.

    ``op_walls`` maps each traced op id to its wall time; ``untraced_walls``
    maps op ids to the wall time of the same operation, on the same input,
    run with no wrappers installed.  ``trace_overhead_frac`` is the median
    over those pairs of traced / untraced wall time, minus 1.  A
    forked worker's lifetime outside its campaign spans (process start-up,
    heartbeat) is counted as ``faults.parallel`` self time: the worker
    exists only because that layer forked it.
    """
    import statistics

    spans, counters, procs = tracer.collect()
    spans = [span for span in spans if span[5] in op_walls]
    procs = {pid: proc for pid, proc in procs.items() if proc[2] in op_walls}
    n_ops = max(len(op_walls), 1)
    root = tracer.root_pid
    selfs = self_times(spans)
    pid_of = {span[0]: span[6] for span in spans}
    layer_of = {span[0]: span[2] for span in spans}
    values: Dict[str, float] = defaultdict(float)
    for span in spans:
        values[f"{span[2]}.calls"] += 1
        values[f"{span[2]}.self_s"] += selfs[span[0]]
    for name, _ in COUNTERS:
        values[name] = float(counters.get(name, 0))
    for name, start, end, op in tracer.phases:
        if op in op_walls:
            values[name] += end - start

    # Wall time covered by each process's outermost spans.
    root_cover: Dict[int, float] = defaultdict(float)
    worker_cover: Dict[int, float] = defaultdict(float)
    campaign_s = 0.0
    for sid, parent, layer, start, end, op, pid, _attrs in spans:
        if pid == root and parent is None:
            root_cover[op] += end - start
        elif pid != root and pid_of.get(parent) != pid:
            worker_cover[pid] += end - start
        if layer == "faults.campaign" and layer_of.get(parent) != "faults.campaign":
            campaign_s += end - start
    worker_busy = {pid: end - start for pid, (start, end, _op) in procs.items()}
    values["faults.parallel.self_s"] += sum(
        busy - worker_cover[pid] for pid, busy in worker_busy.items()
    )
    idle = 0.0
    for sid, parent, layer, start, end, op, pid, attrs in spans:
        workers = attrs.get("workers", 1)
        if pid == root and layer == "faults.parallel" and workers > 1:
            busy = sum(
                worker_busy[child] for child, proc in procs.items() if start <= proc[0] <= end
            )
            idle += workers * (end - start) - busy

    out = {name: values.get(name, 0.0) / n_ops for name in metric_units()}
    segments = counters.get("faults.campaign.fault_segments", 0)
    out["faults.campaign.us_per_fault_segment"] = 1e6 * campaign_s / segments if segments else 0.0
    out["faults.parallel.idle_core_s"] = idle / n_ops
    hits = counters.get("faults.store.hits", 0)
    lookups = hits + counters.get("faults.store.misses", 0)
    out["faults.store.hit_ratio"] = hits / lookups if lookups else 0.0
    untraced = sum(wall - root_cover[op] for op, wall in op_walls.items())
    out["untraced_s"] = untraced / n_ops
    ratios = [op_walls[op] / untraced_walls[op] for op in op_walls if op in untraced_walls]
    out["trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    wall = sum(op_walls.values())
    coverage = {
        "workload_process": 1.0 - untraced / wall if wall else 0.0,
        "workers_in_campaign_spans": {
            str(pid): worker_cover[pid] / busy if busy > 0 else 1.0
            for pid, busy in worker_busy.items()
        },
    }
    return out, coverage
