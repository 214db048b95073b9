"""Differential suite: the segment-wise campaign must be *exactly* equal
to the assembled campaign.

The reference is ``FaultSimulator.detect(stimulus.assembled(), faults)``.
Every combination of the segmented engine's optimisations — fault dropping
(``drop_detected``), divergence-bounded propagation (``divergence_exit``),
batch compaction (``compact_batches``) — and worker counts is compared
with ``np.array_equal`` (no tolerances) on the ``detected`` mask.  With
fault dropping off, ``output_l1`` and ``class_count_diff`` must also be
bit-identical, which is what the Fig. 9 exact-metrics path relies on.

The suite also pins the one physically subtle requirement: segments
include the sleep gap, and a saturated neuron fires *during sleep* while
the fault-free network stays silent — an engine that skipped sleep
simulation (or zeroed membrane state between segments) would miss those
detections.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.testset import TestStimulus
from repro.errors import TestGenerationError
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig, NeuronFault, NeuronFaultKind
from repro.faults.parallel import (
    fork_available,
    parallel_detect_segmented,
)
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
    RecurrentSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters


def _mixed_net():
    spec = NetworkSpec(
        name="mixed",
        input_shape=(2, 6, 6),
        layers=(
            ConvSpec(out_channels=3, kernel=3, padding=1),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=8),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(0))


def _recurrent_net():
    spec = NetworkSpec(
        name="recurrent",
        input_shape=(10,),
        layers=(RecurrentSpec(out_features=7), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.85, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(3))


def _mixed_faults(net, config, per_kind=40):
    catalog = build_catalog(net, config)
    neuron = catalog.neuron_faults[:: max(1, len(catalog.neuron_faults) // per_kind)]
    synapse = catalog.synapse_faults[:: max(1, len(catalog.synapse_faults) // per_kind)]
    return [
        fault
        for pair in itertools.zip_longest(neuron, synapse)
        for fault in pair
        if fault is not None
    ]


def _stimulus(input_shape, chunk_durations, rng, density=0.4):
    chunks = [
        (rng.random((d, 1) + input_shape) < density).astype(float)
        for d in chunk_durations
    ]
    return TestStimulus(chunks=chunks, input_shape=input_shape)


@pytest.fixture(scope="module")
def mixed_campaign():
    net = _mixed_net()
    config = FaultModelConfig()
    faults = _mixed_faults(net, config)
    stimulus = _stimulus((2, 6, 6), [4, 3, 5], np.random.default_rng(1))
    simulator = FaultSimulator(net, config)
    return {
        "net": net,
        "config": config,
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": simulator.detect(stimulus.assembled(), faults),
    }


@pytest.fixture(scope="module")
def recurrent_campaign():
    net = _recurrent_net()
    config = FaultModelConfig()
    faults = _mixed_faults(net, config, per_kind=30)
    stimulus = _stimulus((10,), [5, 4], np.random.default_rng(2))
    simulator = FaultSimulator(net, config)
    return {
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": simulator.detect(stimulus.assembled(), faults),
    }


# ----------------------------------------------------------------------
# Segment API on TestStimulus
# ----------------------------------------------------------------------
class TestSegmentAPI:
    def test_segments_concatenate_to_assembled(self, mixed_campaign):
        stimulus = mixed_campaign["stimulus"]
        joined = np.concatenate(list(stimulus.iter_segments()), axis=0)
        assert np.array_equal(joined, stimulus.assembled())

    def test_segment_durations_sum_to_total(self, mixed_campaign):
        stimulus = mixed_campaign["stimulus"]
        assert stimulus.num_segments == len(stimulus.chunks)
        assert sum(stimulus.segment_durations) == stimulus.duration_steps
        for idx, duration in enumerate(stimulus.segment_durations):
            assert stimulus.segment(idx).shape[0] == duration

    def test_non_final_segments_end_in_sleep(self, mixed_campaign):
        stimulus = mixed_campaign["stimulus"]
        for idx in range(stimulus.num_segments - 1):
            seg = stimulus.segment(idx)
            assert not seg[seg.shape[0] // 2 :].any()

    def test_segment_index_bounds_checked(self, mixed_campaign):
        stimulus = mixed_campaign["stimulus"]
        with pytest.raises(TestGenerationError):
            stimulus.segment(stimulus.num_segments)
        with pytest.raises(TestGenerationError):
            stimulus.segment(-1)


# ----------------------------------------------------------------------
# Fixed-grid differential: every optimisation combo, serial
# ----------------------------------------------------------------------
OPTION_GRID = list(itertools.product([False, True], repeat=3))


@pytest.mark.parametrize("drop,div,comp", OPTION_GRID)
def test_segmented_detected_matches_assembled(mixed_campaign, drop, div, comp):
    result = mixed_campaign["simulator"].detect_segmented(
        mixed_campaign["stimulus"],
        mixed_campaign["faults"],
        drop_detected=drop,
        divergence_exit=div,
        compact_batches=comp,
    )
    assert np.array_equal(result.detected, mixed_campaign["reference"].detected)


@pytest.mark.parametrize("drop,div,comp", OPTION_GRID)
def test_segmented_recurrent_matches_assembled(recurrent_campaign, drop, div, comp):
    result = recurrent_campaign["simulator"].detect_segmented(
        recurrent_campaign["stimulus"],
        recurrent_campaign["faults"],
        drop_detected=drop,
        divergence_exit=div,
        compact_batches=comp,
    )
    assert np.array_equal(result.detected, recurrent_campaign["reference"].detected)


@pytest.mark.parametrize("div,comp", list(itertools.product([False, True], repeat=2)))
def test_exact_metrics_without_dropping(mixed_campaign, div, comp):
    """With fault dropping off, every fault is simulated over the whole
    test, so the accumulated metrics are bit-identical to the assembled
    campaign (spike trains are 0/1 so the per-segment partial sums are
    exact integers in float64)."""
    result = mixed_campaign["simulator"].detect_segmented(
        mixed_campaign["stimulus"],
        mixed_campaign["faults"],
        drop_detected=False,
        divergence_exit=div,
        compact_batches=comp,
    )
    reference = mixed_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


def test_sequential_synapse_path_matches(mixed_campaign):
    """synapse_batch=1 / no splice exercises the one-at-a-time group
    kinds, which share nothing with the K-batched paths."""
    simulator = FaultSimulator(
        mixed_campaign["net"],
        mixed_campaign["config"],
        neuron_batch=1,
        synapse_batch=1,
        neuron_splice=False,
    )
    result = simulator.detect_segmented(
        mixed_campaign["stimulus"], mixed_campaign["faults"], drop_detected=False
    )
    reference = mixed_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)


# ----------------------------------------------------------------------
# Parallel frontend
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
@pytest.mark.parametrize("drop", [False, True])
def test_parallel_segmented_matches_assembled(mixed_campaign, drop):
    result = parallel_detect_segmented(
        mixed_campaign["simulator"],
        mixed_campaign["stimulus"],
        mixed_campaign["faults"],
        workers=4,
        drop_detected=drop,
    )
    reference = mixed_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    if not drop:
        assert np.array_equal(result.output_l1, reference.output_l1)
        assert np.array_equal(result.class_count_diff, reference.class_count_diff)


def test_facade_detect_segmented(mixed_campaign):
    from repro.faults.parallel import ParallelFaultSimulator

    facade = ParallelFaultSimulator(
        mixed_campaign["net"], mixed_campaign["config"], workers=1
    )
    result = facade.detect_segmented(
        mixed_campaign["stimulus"], mixed_campaign["faults"]
    )
    assert np.array_equal(result.detected, mixed_campaign["reference"].detected)


# ----------------------------------------------------------------------
# Sleep-window detection: saturated neuron firing during the sleep gap
# ----------------------------------------------------------------------
def test_saturated_neuron_detected_during_sleep_only():
    """A saturated output neuron whose fault-free twin also fires on every
    *driven* step differs from golden only during the sleep half of a
    segment.  An engine that skipped sleep simulation, or truncated
    segments at the chunk boundary, would call this fault undetected."""
    spec = NetworkSpec(
        name="sleep",
        input_shape=(6,),
        layers=(DenseSpec(out_features=4),),
        lif=LIFParameters(threshold=0.05, leak=0.9, refractory_steps=0),
    )
    net = build_network(spec, np.random.default_rng(7))
    # Strongly positive weights + all-ones input: every neuron fires on
    # every driven step, so driven behaviour of a saturated neuron is
    # indistinguishable from golden.
    weight = net.spiking_modules[0].weight.data
    weight[:] = np.abs(weight) + 1.0
    chunks = [np.ones((4, 1, 6)), np.ones((3, 1, 6))]
    stimulus = TestStimulus(chunks=chunks, input_shape=(6,))
    simulator = FaultSimulator(net, FaultModelConfig())
    fault = NeuronFault(module_index=0, neuron_index=0, kind=NeuronFaultKind.SATURATED)

    golden = net.run_modules(stimulus.assembled())[-1]
    sleep = slice(4, 8)  # the sleep half of segment 0
    assert golden[:4, 0, :].all(), "golden must fire on every driven step"
    assert not golden[sleep, 0, 0].any(), "golden must be silent during sleep"

    reference = simulator.detect(stimulus.assembled(), [fault])
    assert reference.detected[0], "sanity: assembled campaign detects it"
    for drop, div, comp in OPTION_GRID:
        result = simulator.detect_segmented(
            stimulus,
            [fault],
            drop_detected=drop,
            divergence_exit=div,
            compact_batches=comp,
        )
        assert result.detected[0], (drop, div, comp)


# ----------------------------------------------------------------------
# Progress: per-(fault, segment) ticks, monotone, completes
# ----------------------------------------------------------------------
def test_progress_ticks_per_fault_segment(mixed_campaign):
    calls = []
    mixed_campaign["simulator"].detect_segmented(
        mixed_campaign["stimulus"],
        mixed_campaign["faults"],
        progress=lambda done, total: calls.append((done, total)),
    )
    n = len(mixed_campaign["faults"])
    total = n * mixed_campaign["stimulus"].num_segments
    assert calls, "progress never fired"
    assert calls[-1] == (total, total)
    dones = [done for done, _ in calls]
    assert dones == sorted(dones), "completion must be monotone"
    assert all(t == total for _, t in calls)


def test_parallel_progress_counts_segments(mixed_campaign):
    calls = []
    parallel_detect_segmented(
        mixed_campaign["simulator"],
        mixed_campaign["stimulus"],
        mixed_campaign["faults"],
        workers=1,
        progress=lambda done, total: calls.append((done, total)),
    )
    n = len(mixed_campaign["faults"])
    total = n * mixed_campaign["stimulus"].num_segments
    assert calls and calls[-1] == (total, total)
    dones = [done for done, _ in calls]
    assert dones == sorted(dones)


# ----------------------------------------------------------------------
# Hypothesis: random catalogs, chunk layouts, and option combos
# ----------------------------------------------------------------------
_NETS = {
    "dense": lambda: build_network(
        NetworkSpec(
            name="h-dense",
            input_shape=(8,),
            layers=(DenseSpec(out_features=6), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(11),
    ),
    "conv": lambda: build_network(
        NetworkSpec(
            name="h-conv",
            input_shape=(1, 5, 5),
            layers=(
                ConvSpec(out_channels=2, kernel=3, padding=1),
                FlattenSpec(),
                DenseSpec(out_features=3),
            ),
            lif=LIFParameters(leak=0.9),
        ),
        np.random.default_rng(12),
    ),
    "recurrent": lambda: build_network(
        NetworkSpec(
            name="h-rec",
            input_shape=(8,),
            layers=(RecurrentSpec(out_features=5), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.85, refractory_steps=1),
        ),
        np.random.default_rng(13),
    ),
}
_CACHE = {}


def _cached(kind):
    if kind not in _CACHE:
        net = _NETS[kind]()
        config = FaultModelConfig()
        catalog = build_catalog(net, config)
        _CACHE[kind] = (net, config, catalog)
    return _CACHE[kind]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(_NETS)),
    chunk_durations=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    n_faults=st.integers(1, 25),
    drop=st.booleans(),
    div=st.booleans(),
    comp=st.booleans(),
    workers=st.sampled_from([1, 4]),
)
def test_property_segmented_equals_assembled(
    kind, chunk_durations, seed, n_faults, drop, div, comp, workers
):
    net, config, catalog = _cached(kind)
    rng = np.random.default_rng(seed)
    all_faults = catalog.neuron_faults + catalog.synapse_faults
    picks = rng.choice(len(all_faults), size=min(n_faults, len(all_faults)), replace=False)
    faults = [all_faults[i] for i in sorted(picks)]
    stimulus = _stimulus(net.input_shape, chunk_durations, rng, density=0.5)
    simulator = FaultSimulator(net, config)
    reference = simulator.detect(stimulus.assembled(), faults)
    if workers > 1 and not fork_available():
        workers = 1
    result = parallel_detect_segmented(
        simulator,
        stimulus,
        faults,
        workers=workers,
        drop_detected=drop,
        divergence_exit=div,
        compact_batches=comp,
    )
    assert np.array_equal(result.detected, reference.detected)
    if not drop:
        assert np.array_equal(result.output_l1, reference.output_l1)
        assert np.array_equal(result.class_count_diff, reference.class_count_diff)


# ----------------------------------------------------------------------
# Pooled-resolution splice: conv -> pool -> conv -> pool -> dense
# ----------------------------------------------------------------------
def _pooled_net():
    spec = NetworkSpec(
        name="pooled",
        input_shape=(2, 6, 6),
        layers=(
            ConvSpec(out_channels=3, kernel=3, padding=1, weight_scale=4.0),
            PoolSpec(3),
            ConvSpec(out_channels=4, kernel=3, padding=1, weight_scale=4.0),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(21))


@pytest.fixture(scope="module")
def pooled_campaign():
    from repro.faults.catalog import _neuron_variants

    net = _pooled_net()
    config = FaultModelConfig()
    # Chunks 4, 3, 5 give segments [0, 8), [8, 14), [14, 19); the
    # transient window [6, 11) straddles the first boundary.
    stimulus = _stimulus((2, 6, 6), [4, 3, 5], np.random.default_rng(5), density=0.5)
    faults = []
    for module_index in (0, 2):  # both conv layers feed a pool
        count = net.modules[module_index].neuron_count
        for kind in NeuronFaultKind:
            for variant in _neuron_variants(kind, config):
                for n, window in enumerate((None, (6, 11))):
                    neuron = (7 * len(faults) + 3 * n) % count
                    faults.append(NeuronFault(
                        module_index=module_index, neuron_index=neuron,
                        kind=kind, window=window, **variant,
                    ))
    oracle = FaultSimulator(net, config, fused=False, synapse_batch=1, neuron_splice=False)
    return {
        "net": net,
        "config": config,
        "faults": faults,
        "stimulus": stimulus,
        "reference": oracle.detect(stimulus.assembled(), faults),
    }


def test_pooled_splice_rows_enter_after_the_pool(pooled_campaign, monkeypatch):
    """Every splice-style group of a pool-feeding conv takes the pooled
    path, and the campaign still matches the per-step oracle."""
    from repro.faults.segmented import _FaultGroup

    entries = []
    materialize = _FaultGroup._splice_materialize

    def spy(self, *args):
        entries.append((self.kind, self.entry))
        return materialize(self, *args)

    monkeypatch.setattr(_FaultGroup, "_splice_materialize", spy)
    simulator = FaultSimulator(pooled_campaign["net"], pooled_campaign["config"])
    result = simulator.detect_segmented(
        pooled_campaign["stimulus"], pooled_campaign["faults"], drop_detected=False
    )
    assert {kind for kind, _ in entries} == {"splice", "delay"}
    assert all(entry == 1 for _, entry in entries)
    reference = pooled_campaign["reference"]
    assert 0 < reference.detected.sum() < len(pooled_campaign["faults"])
    assert np.array_equal(result.detected, reference.detected)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("drop", [False, True])
def test_pooled_splice_matches_per_step_oracle(pooled_campaign, drop, workers):
    if workers > 1 and not fork_available():
        pytest.skip("fork start method unavailable")
    simulator = FaultSimulator(pooled_campaign["net"], pooled_campaign["config"])
    result = parallel_detect_segmented(
        simulator,
        pooled_campaign["stimulus"],
        pooled_campaign["faults"],
        workers=workers,
        drop_detected=drop,
    )
    reference = pooled_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    if not drop:
        # With dropping on, the metrics stop at first detection by design.
        assert np.array_equal(result.output_l1, reference.output_l1)
        assert np.array_equal(result.class_count_diff, reference.class_count_diff)
