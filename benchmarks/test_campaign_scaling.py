"""Campaign-scaling bench: production-vs-oracle and serial-vs-parallel.

Times the full-catalog detection campaign of the ``nmnist-small``
benchmark network three ways:

1. sequential reference — the per-step oracle (``fused=False``: one
   reversible injection per synapse fault, no neuron splicing);
2. batched single worker — the production engine (K-batched synapse
   faults, neuron and synapse splicing, fused kernels);
3. parallel — the production simulator sharded across 2 worker processes.

On synapse faults alone the batched single-worker campaign must be at
least 2x faster than the oracle's one-injection-per-fault path (the
acceptance bar for the batched synapse path), and every variant must
produce bit-identical results.  All timings are recorded to
``results/campaign_scaling.json`` alongside the hardware context
pytest-benchmark already captures.

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

    sequential = FaultSimulator(network, definition.fault_config, fused=False)
    batched = FaultSimulator(network, definition.fault_config)

    # Full catalog, the oracle vs the production engine, one worker each.
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
        # the oracle's one-injection-per-fault path by >= 2x.
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
