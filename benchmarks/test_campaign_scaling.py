"""Campaign-scaling bench: batched-vs-sequential and serial-vs-parallel.

Times the full-catalog detection campaign of the ``nmnist-small``
benchmark network three ways:

1. sequential reference — ``synapse_batch=1`` (one reversible injection
   per synapse fault), no neuron splicing;
2. batched single worker — K-batched synapse faults plus neuron splicing;
3. parallel — the batched simulator sharded across 2 worker processes.

The batched single-worker campaign must be at least 2x faster than the
sequential reference (the acceptance bar for the batched synapse path),
and every variant must produce bit-identical results.  All timings are
recorded to ``results/campaign_scaling.json`` alongside the hardware
context pytest-benchmark already captures.

Quick mode (``REPRO_SCALING_QUICK=1``, used by the CI smoke job) shrinks
the stimulus and subsamples the catalog so the bench finishes in seconds;
the speedup floor is only asserted in full mode, since a subsampled
campaign under-utilises the batched paths.
"""

import json
import os
import time
import tracemalloc

import numpy as np
from conftest import run_once

from repro.core.testset import TestStimulus
from repro.experiments.benchmarks import get_benchmark
from repro.faults.catalog import build_catalog
from repro.faults.parallel import parallel_detect, parallel_detect_segmented
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore
from repro.snn.builder import build_network

QUICK = os.environ.get("REPRO_SCALING_QUICK") == "1"


def _campaign_setup():
    definition = get_benchmark("nmnist", "small")
    network = build_network(definition.spec, np.random.default_rng(0))
    catalog = build_catalog(
        network, definition.fault_config, rng=np.random.default_rng(7)
    )
    faults = list(catalog.neuron_faults) + list(catalog.synapse_faults)
    steps = 12 if QUICK else 48
    if QUICK:
        faults = faults[:: max(1, len(faults) // 400)]
    rng = np.random.default_rng(1)
    stimulus = (
        rng.random((steps, 1) + definition.spec.input_shape) > 0.7
    ).astype(float)
    return definition, network, faults, stimulus


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_campaign_scaling(benchmark, results_dir):
    definition, network, faults, stimulus = _campaign_setup()
    synapse_only = [f for f in faults if not f.is_neuron]

    sequential = FaultSimulator(
        network, definition.fault_config,
        synapse_batch=1, neuron_splice=False,
    )
    batched = FaultSimulator(network, definition.fault_config)

    # Full catalog, sequential reference vs batched single worker.
    reference, t_sequential = _timed(lambda: sequential.detect(stimulus, faults))
    fast, t_batched = run_once(
        benchmark, lambda: _timed(lambda: batched.detect(stimulus, faults))
    )

    # Synapse faults alone: isolates the K-batched weight-lifting path.
    _, t_syn_sequential = _timed(lambda: sequential.detect(stimulus, synapse_only))
    _, t_syn_batched = _timed(lambda: batched.detect(stimulus, synapse_only))

    # Parallel engine on top of the batched simulator.
    par, t_parallel = _timed(
        lambda: parallel_detect(batched, stimulus, faults, workers=2)
    )

    assert np.array_equal(reference.detected, fast.detected)
    assert np.array_equal(reference.output_l1, fast.output_l1)
    assert np.array_equal(reference.detected, par.detected)
    assert np.array_equal(reference.output_l1, par.output_l1)

    payload = {
        "benchmark": definition.cache_key,
        "quick_mode": QUICK,
        "faults": len(faults),
        "synapse_faults": len(synapse_only),
        "stimulus_steps": int(stimulus.shape[0]),
        "sequential_s": t_sequential,
        "batched_s": t_batched,
        "parallel_2_workers_s": t_parallel,
        "synapse_sequential_s": t_syn_sequential,
        "synapse_batched_s": t_syn_batched,
        "batched_speedup": t_sequential / t_batched,
        "synapse_batched_speedup": t_syn_sequential / t_syn_batched,
        "parallel_speedup": t_sequential / t_parallel,
        "cpu_count": os.cpu_count(),
    }
    with open(results_dir / "campaign_scaling.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"\nfull catalog ({len(faults)} faults, {stimulus.shape[0]} steps): "
        f"sequential {t_sequential:.2f}s, batched {t_batched:.2f}s "
        f"({payload['batched_speedup']:.2f}x), "
        f"parallel(2) {t_parallel:.2f}s ({payload['parallel_speedup']:.2f}x)"
        f"\nsynapse path alone: {t_syn_sequential:.2f}s -> {t_syn_batched:.2f}s "
        f"({payload['synapse_batched_speedup']:.2f}x)"
    )

    if not QUICK:
        # Acceptance bar: the batched synapse path (single worker) beats
        # the sequential reference by >= 2x on the full catalog.
        assert payload["batched_speedup"] >= 2.0, payload
        assert payload["synapse_batched_speedup"] >= 2.0, payload


def _traced(fn):
    """Run ``fn`` and return (result, wall seconds, tracemalloc peak bytes).

    tracemalloc tracks numpy buffer allocations, so the peak captures the
    campaign's working set — the assembled stimulus, golden caches, and
    batch tensors — without OS-level noise from other tests."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_segmented_detection(results_dir):
    """Segment-wise campaign vs the assembled reference on a multi-chunk
    test: the ``detected`` mask must be bit-identical, the segmented
    engine must be >= 1.5x faster (fault dropping + divergence exit), and
    its peak memory must be lower (it never materializes ``assembled()``
    or full-duration golden activations)."""
    definition, network, faults, _ = _campaign_setup()
    chunk_steps = [3, 3, 2] if QUICK else [8] * 6
    rng = np.random.default_rng(2)
    stimulus = TestStimulus(
        chunks=[
            (rng.random((d, 1) + definition.spec.input_shape) > 0.7).astype(float)
            for d in chunk_steps
        ],
        input_shape=definition.spec.input_shape,
    )
    simulator = FaultSimulator(network, definition.fault_config)

    assembled_input = stimulus.assembled()
    reference, t_assembled, mem_assembled = _traced(
        lambda: parallel_detect(simulator, assembled_input, faults, workers=1)
    )
    del assembled_input
    segmented, t_segmented, mem_segmented = _traced(
        lambda: parallel_detect_segmented(simulator, stimulus, faults, workers=1)
    )

    assert np.array_equal(reference.detected, segmented.detected)

    payload = {
        "benchmark": definition.cache_key,
        "quick_mode": QUICK,
        "faults": len(faults),
        "chunks": len(chunk_steps),
        "test_steps": stimulus.duration_steps,
        "assembled_s": t_assembled,
        "segmented_s": t_segmented,
        "segmented_speedup": t_assembled / t_segmented,
        "assembled_peak_mb": mem_assembled / 1e6,
        "segmented_peak_mb": mem_segmented / 1e6,
        "peak_memory_ratio": mem_segmented / mem_assembled,
        "detected": int(segmented.detected.sum()),
        "cpu_count": os.cpu_count(),
    }
    with open(results_dir / "campaign_segmented.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"\nsegmented campaign ({len(faults)} faults, "
        f"{stimulus.duration_steps} steps in {len(chunk_steps)} chunks): "
        f"assembled {t_assembled:.2f}s / {payload['assembled_peak_mb']:.0f}MB, "
        f"segmented {t_segmented:.2f}s / {payload['segmented_peak_mb']:.0f}MB "
        f"({payload['segmented_speedup']:.2f}x faster, "
        f"{payload['peak_memory_ratio']:.2f}x memory)"
    )

    if not QUICK:
        assert payload["segmented_speedup"] >= 1.5, payload
        assert payload["peak_memory_ratio"] < 1.0, payload


def _peak_rss_reset():
    """Reset the parent's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb():
    """Parent peak RSS in MB since the last reset (``VmHWM``), or None."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _rss_traced(fn):
    resettable = _peak_rss_reset()
    result, elapsed = _timed(fn)
    return result, elapsed, (_peak_rss_mb() if resettable else None)


def test_fused_campaign(results_dir):
    """One-BLAS-call fused batches vs the PR 5 segmented engine (per-step
    kernels) on the nmnist-small full catalog, both over the same 2
    supervised workers.  Emits ``results/campaign_fused.json`` with one
    row per mode including parent peak RSS, and — in full mode — asserts
    the fused campaign clears the 2x acceptance bar.  All modes must stay
    bit-identical."""
    definition, network, faults, _ = _campaign_setup()
    chunk_steps = [3, 3, 2] if QUICK else [8] * 6
    rng = np.random.default_rng(4)
    stimulus = TestStimulus(
        chunks=[
            (rng.random((d, 1) + definition.spec.input_shape) > 0.7).astype(float)
            for d in chunk_steps
        ],
        input_shape=definition.spec.input_shape,
    )
    workers = 2

    # PR 5 baseline: unfused per-step kernels.
    baseline_sim = FaultSimulator(network, definition.fault_config, fused=False)
    reference, t_baseline, rss_baseline = _rss_traced(
        lambda: parallel_detect_segmented(
            baseline_sim, stimulus, faults, workers=workers
        )
    )

    simulator = FaultSimulator(network, definition.fault_config, fused=True)
    result, elapsed, rss = _rss_traced(
        lambda: parallel_detect_segmented(simulator, stimulus, faults, workers=workers)
    )
    assert np.array_equal(reference.detected, result.detected)
    rows = [
        {
            "mode": "fused",
            "seconds": elapsed,
            "speedup_vs_baseline": t_baseline / elapsed,
            "throughput_faults_per_s": len(faults) / elapsed,
            "parent_peak_rss_mb": rss,
        }
    ]

    payload = {
        "benchmark": definition.cache_key,
        "quick_mode": QUICK,
        "faults": len(faults),
        "test_steps": stimulus.duration_steps,
        "chunks": len(chunk_steps),
        "workers": workers,
        "baseline": {
            "mode": "segmented-unfused",
            "seconds": t_baseline,
            "throughput_faults_per_s": len(faults) / t_baseline,
            "parent_peak_rss_mb": rss_baseline,
        },
        "modes": rows,
        "cpu_count": os.cpu_count(),
    }
    with open(results_dir / "campaign_fused.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    summary = ", ".join(
        f"{row['seconds']:.2f}s ({row['speedup_vs_baseline']:.2f}x)" for row in rows
    )
    print(
        f"\nfused campaign ({len(faults)} faults, "
        f"{stimulus.duration_steps} steps, {workers} workers): "
        f"baseline {t_baseline:.2f}s; fused {summary}"
    )

    if not QUICK:
        # Acceptance bar: fused >= 2x the PR 5 segmented engine on the
        # full catalog.
        assert rows[0]["speedup_vs_baseline"] >= 2.0, payload


def test_incremental_verify(tmp_path, results_dir):
    """Differential re-verification through the coverage store: append one
    iteration chunk to an already-verified test and re-verify.  The warm
    run only pays for the affected suffix — the previously-final segment
    (whose sleep flag flipped) plus the appended one — so on a long test
    it must be at least 5x faster than the cold full re-run, with a
    bit-identical detection mask.  Emits ``results/campaign_incremental.json``."""
    definition, network, faults, _ = _campaign_setup()
    chunk_steps = [2, 2, 2] if QUICK else [4] * 12
    rng = np.random.default_rng(5)

    def _stim(steps):
        return TestStimulus(
            chunks=[
                (rng.random((d, 1) + definition.spec.input_shape) > 0.7).astype(float)
                for d in steps
            ],
            input_shape=definition.spec.input_shape,
        )

    base = _stim(chunk_steps)
    appended = TestStimulus(
        chunks=list(base.chunks) + list(_stim([chunk_steps[-1]]).chunks),
        input_shape=definition.spec.input_shape,
    )
    simulator = FaultSimulator(network, definition.fault_config)
    store = CoverageStore(tmp_path / "store")

    # Verify the base test once, populating the store.
    _, t_populate = _timed(
        lambda: simulator.detect_segmented(base, faults, store=store)
    )
    # Cold full re-verify of the appended test vs warm differential re-run.
    cold, t_cold = _timed(lambda: simulator.detect_segmented(appended, faults))
    warm, t_warm = _timed(
        lambda: simulator.detect_segmented(appended, faults, store=store)
    )

    assert np.array_equal(cold.detected, warm.detected)
    assert np.array_equal(cold.output_l1, warm.output_l1)
    assert np.array_equal(cold.class_count_diff, warm.class_count_diff)

    payload = {
        "benchmark": definition.cache_key,
        "quick_mode": QUICK,
        "faults": len(faults),
        "base_segments": base.num_segments,
        "appended_segments": appended.num_segments,
        "test_steps": appended.duration_steps,
        "populate_s": t_populate,
        "cold_reverify_s": t_cold,
        "incremental_reverify_s": t_warm,
        "incremental_speedup": t_cold / t_warm,
        "store_records": store.stat()["records"],
        "store_bytes": store.stat()["bytes"],
        "store_hits": store.hits,
        "store_writes": store.writes,
        "cpu_count": os.cpu_count(),
    }
    with open(results_dir / "campaign_incremental.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"\nincremental verify ({len(faults)} faults, "
        f"{base.num_segments}+1 segments): populate {t_populate:.2f}s, "
        f"cold re-verify {t_cold:.2f}s, incremental {t_warm:.2f}s "
        f"({payload['incremental_speedup']:.2f}x)"
    )

    if not QUICK:
        # Acceptance bar: appending one iteration costs O(new segments) —
        # 2 of 13 segments recompute, so >= 5x over the cold re-verify.
        assert payload["incremental_speedup"] >= 5.0, payload
