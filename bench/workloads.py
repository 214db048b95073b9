"""The benchmark's workloads; one run of one workload per process.

``run.py`` starts this file in a pinned environment (one BLAS thread, no
``REPRO_*`` variables, ``TMPDIR`` inside the work directory) and reads the
JSON it writes to ``--result``.  A run:

1. sets up (fixture, dataset and catalog load plus a small warm-up), and
   times ``SETUP_REPEATS`` set-ups in all, the rest between operations;
2. runs operations closed-loop with one client: the next operation starts
   when the previous one returns, until the operations' own wall time
   reaches ``--seconds`` (input preparation, checks and clean-up run
   between operations and are not timed);
3. checks every operation's output against an independent oracle or a
   repeat, outside the timed region.

Every input comes from ``--seed``.  With ``--trace 1`` every operation
runs twice on the same input: once under the span tracer (``spans.py``)
and once with no wrappers installed, which gives the tracing overhead.

    PYTHONPATH=src python bench/workloads.py --workload verify --seed 0 \\
        --seconds 20 --work /some/dir --result out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from fixture import PIPELINE_SEED, load_network  # noqa: E402
from spans import Tracer, install_repo_layers, layer_metrics  # noqa: E402

from repro.core.coverage import verify_coverage  # noqa: E402
from repro.core.generator import TestGenerator  # noqa: E402
from repro.core.testset import TestStimulus  # noqa: E402
from repro.experiments.benchmarks import get_benchmark  # noqa: E402
from repro.experiments.pipeline import ExperimentPipeline  # noqa: E402
from repro.faults.catalog import build_catalog  # noqa: E402
from repro.faults.simulator import FaultSimulator  # noqa: E402
from repro.faults.store import CoverageStore  # noqa: E402
from repro.utils.seeding import SeedSequenceFactory  # noqa: E402

clock = time.perf_counter
#: Campaign worker processes: the pipeline's parallel path on a 2-core box.
WORKERS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 7
#: A run stops early after this many failed operations.
MAX_FAILURES = 3


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _stimulus(dataset, count, rng, input_shape) -> TestStimulus:
    """``count`` dataset test samples, drawn by ``rng``, as test chunks."""
    inputs, _ = dataset.subset(count, "test", rng)
    return TestStimulus(
        chunks=[inputs[:, k : k + 1] for k in range(count)], input_shape=input_shape
    )


def _expect_equal(what, actual, expected) -> None:
    if not np.array_equal(actual, expected):
        diff = int(np.sum(np.asarray(actual) != np.asarray(expected)))
        raise CheckFailed(f"{what}: {diff} entries differ from the oracle")


class Workload:
    """One workload.  Subclasses define ``setup()`` (timed, repeated),
    and per operation ``prepare(index)`` (untimed input), ``run(input)``
    (timed), ``check(index, input, output)`` (raises :class:`CheckFailed`),
    ``digest(output)`` and ``details(output)``; ``cleanup(input)`` runs
    after every operation."""

    name = ""

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.work = work
        self.seeds = SeedSequenceFactory(seed)

    def cleanup(self, inp) -> None:
        pass


class Verify(Workload):
    """The paper's final campaign as the pipeline runs it: a cold
    ``verify_coverage`` over the full nmnist-small catalog with exact
    metrics, sharded over ``WORKERS`` processes, no store.  Each operation
    verifies a fresh two-sample test (96 steps with the sleep gap)."""

    name = "verify"
    chunks = 2
    #: Each operation checks every 200th fault against the oracle, at an
    #: offset that changes per operation.
    oracle_stride = 200

    def setup(self):
        self.definition, self.network = load_network("nmnist")
        self.config = self.definition.fault_config
        self.dataset = self.definition.make_dataset()
        catalog = build_catalog(self.network, self.config, self.seeds.rng("catalog"))
        self.faults = catalog.faults[:: 20 if self.quick else 1]
        warm = _stimulus(self.dataset, 1, self.seeds.rng("warm-up"), self.network.input_shape)
        verify_coverage(
            self.network, warm, self.faults[:200], self.config,
            workers=WORKERS, exact_metrics=True, store=None,
        )

    def prepare(self, index):
        return _stimulus(
            self.dataset, self.chunks, self.seeds.rng(f"verify-op{index}"),
            self.network.input_shape,
        )

    def run(self, stimulus):
        detection, _ = verify_coverage(
            self.network, stimulus, self.faults, self.config,
            workers=WORKERS, exact_metrics=True, store=None,
        )
        return detection

    def check(self, index, stimulus, detection):
        offset = (index * 41) % self.oracle_stride
        subset = list(range(offset, len(self.faults), self.oracle_stride))
        oracle = FaultSimulator(
            self.network, self.config, fused=False, synapse_batch=1, neuron_splice=False
        ).detect(stimulus.assembled(), [self.faults[i] for i in subset])
        _expect_equal("detected", detection.detected[subset], oracle.detected)
        _expect_equal("output_l1", detection.output_l1[subset], oracle.output_l1)
        _expect_equal(
            "class_count_diff", detection.class_count_diff[subset], oracle.class_count_diff
        )

    def digest(self, detection):
        return _digest(detection.detected, detection.output_l1, detection.class_count_diff)

    def details(self, detection):
        return {"detected_frac": float(detection.detected.mean())}


class Generate(Workload):
    """One full Fig. 2 run on the biggest network (ibm-small): the
    T_in,min probe ladder from the shipped ``t_in_start``, stage 1 and
    stage 2 per iteration, activation bookkeeping.  The steps per probe
    rung and per stage, and the iteration count, are cut so that one run
    takes seconds; ``generate_shares.py`` shows that the cut run spends
    its time across layers as the shipped one does.  The time limit is
    raised so it never fires."""

    name = "generate"
    budget = dict(probe_steps=10, steps_stage1=16, max_iterations=3)
    quick_budget = dict(probe_steps=2, steps_stage1=4, max_iterations=1)

    def setup(self):
        self.definition, self.network = load_network("ibm")
        self.config = dataclasses.replace(
            self.definition.testgen_config, time_limit_s=1e9,
            **(self.quick_budget if self.quick else self.budget),
        )
        warm = dataclasses.replace(
            self.config, probe_steps=1, steps_stage1=2, max_iterations=1
        )
        TestGenerator(self.network, warm, self.seeds.rng("warm-up")).generate()

    def prepare(self, index):
        return self.seeds.rng(f"generate-op{index}")

    def run(self, rng):
        return TestGenerator(self.network, self.config, rng).generate()

    def check(self, index, rng, result):
        chunks = result.stimulus.chunks
        for k, chunk in enumerate(chunks):
            if not np.all((chunk == 0.0) | (chunk == 1.0)):
                raise CheckFailed(f"chunk {k} is not binary")
        threshold = self.config.activation_threshold
        union = None
        for chunk in chunks:
            fired = [
                rec[:, 0, :].sum(axis=0) >= threshold
                for rec in self.network.run_spiking_layers(chunk)
            ]
            union = fired if union is None else [u | f for u, f in zip(union, fired)]
        for layer, (mine, theirs) in enumerate(zip(union, result.activated_per_layer)):
            _expect_equal(f"activated layer {layer}", theirs, mine)

    def digest(self, result):
        return _digest(
            *[chunk.astype(np.uint8) for chunk in result.stimulus.chunks],
            *result.activated_per_layer,
        )

    def details(self, result):
        return {
            "test_steps": int(result.stimulus.duration_steps),
            "activated_frac": float(result.activated_fraction),
            "t_in_min": int(result.t_in_min),
        }


class Reverify(Workload):
    """Differential re-verification through the coverage store.  One
    operation is a session with a fresh store: a cold populate of a
    two-chunk test (writes), then three appends of one chunk, each
    re-verified warm (reads beside writes).  Serial, fault dropping on,
    over every 4th fault of the nmnist-small catalog."""

    name = "reverify"
    base = 2
    appends = 3
    oracle_stride = 20

    def setup(self):
        self.definition, self.network = load_network("nmnist")
        self.config = self.definition.fault_config
        self.dataset = self.definition.make_dataset()
        catalog = build_catalog(self.network, self.config, self.seeds.rng("catalog"))
        self.faults = catalog.faults[:: 40 if self.quick else 4]
        warm = _stimulus(self.dataset, 2, self.seeds.rng("warm-up"), self.network.input_shape)
        store = self.work / "store-warm-up"
        shutil.rmtree(store, ignore_errors=True)
        try:
            for count in (1, 2):
                verify_coverage(
                    self.network, TestStimulus(warm.chunks[:count], warm.input_shape),
                    self.faults[:100], self.config, workers=1, store=str(store),
                )
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def prepare(self, index):
        stimulus = _stimulus(
            self.dataset, self.base + self.appends, self.seeds.rng(f"reverify-op{index}"),
            self.network.input_shape,
        )
        store = self.work / f"store-{index}"
        shutil.rmtree(store, ignore_errors=True)
        return stimulus, store

    def run(self, inp):
        stimulus, root = inp
        store = CoverageStore(root)
        times = []
        for count in range(self.base, self.base + self.appends + 1):
            start = clock()
            detection, _ = verify_coverage(
                self.network, TestStimulus(stimulus.chunks[:count], stimulus.input_shape),
                self.faults, self.config, workers=1, store=store,
            )
            times.append(clock() - start)
        return detection, times, store

    def check(self, index, inp, out):
        stimulus = inp[0]
        detection = out[0]
        offset = index % self.oracle_stride
        subset = list(range(offset, len(self.faults), self.oracle_stride))
        cold, _ = verify_coverage(
            self.network, stimulus, [self.faults[i] for i in subset], self.config,
            workers=1, store=None,
        )
        _expect_equal("warm detected", detection.detected[subset], cold.detected)

    def cleanup(self, inp):
        shutil.rmtree(inp[1], ignore_errors=True)

    def digest(self, out):
        return _digest(out[0].detected)

    def details(self, out):
        detection, times, store = out
        return {
            "populate_s": times[0],
            "reverify_s": times[1:],
            "store_mb": store.stat()["bytes"] / 2**20,
            "detected_frac": float(detection.detected.mean()),
        }


class PipelineTiny(Workload):
    """One pass of ``ExperimentPipeline`` for nmnist, ibm and shd at tiny
    scale in a fresh results directory: train, generate, label, verify,
    coverage.  The pipeline seed stays at 0 whatever ``--seed`` is: the
    pass costs 11-22 s across pipeline seeds 0-4 on a 2-core x86 box,
    because the generated test's length depends on the seed, and that
    spread would hide any change in speed."""

    name = "pipeline-tiny"

    def setup(self):
        names = ("shd",) if self.quick else ("nmnist", "ibm", "shd")
        self.definitions = [get_benchmark(name, "tiny") for name in names]
        for definition in self.definitions:
            definition.make_dataset()
        self._first_digest = None

    def prepare(self, index):
        results = self.work / f"results-{index}"
        shutil.rmtree(results, ignore_errors=True)
        return results

    def run(self, results):
        outputs = []
        for definition in self.definitions:
            pipeline = ExperimentPipeline(
                definition, results_dir=results, seed=PIPELINE_SEED, workers=WORKERS
            )
            pipeline.network()
            generation = pipeline.generation()
            classification = pipeline.classification()
            detection = pipeline.detection()
            pipeline.coverage()
            outputs.append((generation, classification, detection))
        return outputs

    def check(self, index, results, outputs):
        digest = self.digest(outputs)
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            raise CheckFailed("pass differs from the run's first pass")

    def cleanup(self, results):
        shutil.rmtree(results, ignore_errors=True)

    def digest(self, outputs):
        arrays = []
        for generation, classification, detection in outputs:
            arrays += [chunk.astype(np.uint8) for chunk in generation.stimulus.chunks]
            arrays += [classification.critical, detection.detected]
        return _digest(*arrays)

    def details(self, outputs):
        detected = sum(int(out[2].detected.sum()) for out in outputs)
        total = sum(len(out[2].faults) for out in outputs)
        return {
            "fault_coverage": detected / total,
            "test_steps": [int(out[0].stimulus.duration_steps) for out in outputs],
        }


WORKLOADS = {cls.name: cls for cls in (Verify, Generate, Reverify, PipelineTiny)}


def _peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


def _blas_config() -> dict:
    """numpy's BLAS: name, version and build configuration."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.26 prints only
        return {}
    return {key: blas[key] for key in ("name", "version", "openblas configuration") if key in blas}


def run_operation(workload: Workload, index: int, tracer=None) -> dict:
    """Prepare, run (timed), check and clean up operation ``index``.  With
    a ``tracer`` the span wrappers are in place during the timed run only."""
    record = {"index": index, "traced": tracer is not None}
    inp = workload.prepare(index)
    try:
        if tracer is not None:
            install_repo_layers(tracer)
            tracer.op = index
            tracer.enabled = True
        start = clock()
        try:
            out = workload.run(inp)
        finally:
            record["wall_s"] = clock() - start
            if tracer is not None:
                tracer.enabled = False
                tracer.uninstall()
        workload.check(index, inp, out)
        record["digest"] = workload.digest(out)
        record.update(workload.details(out))
        record["ok"] = True
    except Exception:  # noqa: BLE001 - an operation's failure is data
        record["ok"] = False
        record["error"] = traceback.format_exc()
    finally:
        workload.cleanup(inp)
    return record


def _timed_setup(workload: Workload) -> float:
    start = clock()
    workload.setup()
    return clock() - start


def run_workload(workload: Workload, seconds: float, tracer=None) -> dict:
    """Set up, run closed-loop for ``seconds`` of operation time, check.

    The first set-up prepares the workload; the other ``SETUP_REPEATS - 1``
    set up throwaway copies between operations, spread in proportion to
    the operation time so far.  Contention on a shared machine comes in
    bursts of a few seconds: over five minutes of ``reverify`` set-ups on
    a 2-core x86 VM, medians of seven back-to-back set-ups had an
    interquartile spread of 0.37 of their median, medians of seven spread
    over 28 s one of 0.08.

    With a ``tracer`` every operation runs twice on the same input, once
    traced and once with no wrappers installed, in alternating order; the
    pairs give the tracing overhead."""
    def spare():
        return type(workload)(workload.seed, workload.quick, workload.work)

    setup_s = [_timed_setup(workload)]
    ops = []
    measured = 0.0
    index = 0
    while (not ops or measured < seconds) and sum(not op["ok"] for op in ops) < MAX_FAILURES:
        if tracer is None:
            tracers = [None]
        else:
            tracers = [None, tracer] if index % 2 == 0 else [tracer, None]
        for op_tracer in tracers:
            record = run_operation(workload, index, op_tracer)
            measured += record["wall_s"]
            ops.append(record)
        index += 1
        due = 1 + math.ceil((SETUP_REPEATS - 1) * min(measured / seconds, 1.0))
        while len(setup_s) < due:
            setup_s.append(_timed_setup(spare()))
    while len(setup_s) < SETUP_REPEATS:  # the run stopped on failures
        setup_s.append(_timed_setup(spare()))

    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "quick": workload.quick,
        "workers": WORKERS,
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": _peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_config(),
        "cpu_count": os.cpu_count(),
    }
    if tracer is not None:
        walls = {True: {}, False: {}}
        for op in ops:
            if op["ok"]:
                walls[op["traced"]][op["index"]] = op["wall_s"]
        result["per_layer"], result["trace_coverage"] = layer_metrics(
            tracer, walls[True], walls[False]
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.work / "trace") if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.quick, args.work)
    result = run_workload(workload, args.seconds, tracer)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
