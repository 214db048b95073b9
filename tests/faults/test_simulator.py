"""Tests for fault-simulation campaigns: detection, classification,
coverage breakdown, and the layer-skip optimisation's correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultModelError
from repro.faults.catalog import build_catalog
from repro.faults.injector import inject
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.core.testset import TestStimulus
from repro.faults import parallel, segmented
from repro.faults.simulator import (
    FaultSimulator,
    _perturbed_neuron_arrays,
    _perturbed_neuron_scalars,
)
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import MODE_DEAD, MODE_SATURATED, LIFParameters


def _net(seed=0, sizes=(8, 6, 4)):
    layers = tuple(DenseSpec(out_features=s) for s in sizes)
    spec = NetworkSpec(
        name="sim",
        input_shape=(10,),
        layers=layers,
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(seed))


def _stimulus(seed=1, steps=12, density=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, 1, 10)) < density).astype(float)


def _dataset(seed=2, steps=12, samples=6):
    rng = np.random.default_rng(seed)
    inputs = (rng.random((steps, samples, 10)) < 0.5).astype(float)
    labels = rng.integers(0, 4, size=samples)
    return inputs, labels


class TestDetect:
    def test_saturated_output_neuron_always_detected(self):
        net = _net()
        sim = FaultSimulator(net)
        fault = NeuronFault(2, 0, NeuronFaultKind.SATURATED)
        result = sim.detect(_stimulus(), [fault])
        assert result.detected[0]
        assert result.output_l1[0] > 0

    def test_zero_stimulus_detects_only_saturation(self):
        net = _net()
        sim = FaultSimulator(net)
        faults = [
            NeuronFault(0, 0, NeuronFaultKind.DEAD),
            NeuronFault(2, 1, NeuronFaultKind.SATURATED),
            SynapseFault(0, 0, 0, SynapseFaultKind.SATURATED_POSITIVE),
        ]
        zeros = np.zeros((10, 1, 10))
        result = sim.detect(zeros, faults)
        # With no input spikes, dead neurons and synapse faults are silent;
        # a saturated neuron fires regardless and must be detected.
        assert not result.detected[0]
        assert result.detected[1]
        assert not result.detected[2]

    def test_layer_skip_matches_full_simulation(self):
        net = _net()
        sim = FaultSimulator(net)
        stim = _stimulus()
        catalog = build_catalog(net)
        subset = catalog.faults[:: max(1, len(catalog.faults) // 50)]
        result = sim.detect(stim, subset)
        golden = net.run(stim)[:, 0, :]
        for fault, fast_detected in zip(subset, result.detected):
            with inject(net, fault, sim.config):
                full = net.run(stim)[:, 0, :]  # full re-simulation, no skip
            assert (np.abs(full - golden).sum() > 0) == fast_detected, fault.describe()

    def test_class_count_diff_shape(self):
        net = _net()
        sim = FaultSimulator(net)
        result = sim.detect(_stimulus(), [NeuronFault(2, 0, NeuronFaultKind.SATURATED)])
        assert result.class_count_diff.shape == (1, 4)

    def test_network_restored_after_campaign(self):
        net = _net()
        before = {k: v.copy() for k, v in net.state_dict().items()}
        sim = FaultSimulator(net)
        catalog = build_catalog(net)
        sim.detect(_stimulus(), catalog.faults[:40])
        after = net.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key])
        for module in net.spiking_modules:
            assert not module.mode.any()

    def test_rejects_batched_stimulus(self):
        sim = FaultSimulator(_net())
        with pytest.raises(FaultModelError):
            sim.detect(np.zeros((5, 2, 10)), [])

    def test_rejects_inconsistent_shapes(self):
        """A stimulus of no time step raises a typed error on both
        engines, as a batched one does."""
        fault = [NeuronFault(2, 0, NeuronFaultKind.SATURATED)]
        for fused in (True, False):
            sim = FaultSimulator(_net(), fused=fused)
            for faults in (fault, []):
                with pytest.raises(FaultModelError, match="at least one time step"):
                    sim.detect(np.zeros((0, 1, 10)), faults)
            with pytest.raises(FaultModelError, match="at least one time step"):
                parallel.parallel_detect(sim, np.zeros((0, 1, 10)), fault, workers=2)

    def test_detection_rate_empty(self):
        sim = FaultSimulator(_net())
        result = sim.detect(_stimulus(), [])
        assert result.detection_rate() == 0.0

    def test_progress_callback_invoked(self):
        net = _net()
        sim = FaultSimulator(net)
        calls = []
        faults = [NeuronFault(0, 0, NeuronFaultKind.DEAD)] * 1000
        sim.detect(_stimulus(), faults, progress=lambda done, total: calls.append(done))
        assert len(calls) == 1
        assert calls[0] >= 1000

    def test_progress_fires_on_completion_of_short_campaign(self):
        """Campaigns shorter than the reporting interval still get exactly
        one final progress(n, n) call."""
        net = _net()
        sim = FaultSimulator(net)
        calls = []
        faults = [NeuronFault(0, 0, NeuronFaultKind.DEAD)] * 5
        sim.detect(
            _stimulus(), faults, progress=lambda done, total: calls.append((done, total))
        )
        assert calls == [(5, 5)]

    def test_progress_reports_boundaries_then_completion(self):
        net = _net()
        sim = FaultSimulator(net)
        calls = []
        faults = [NeuronFault(0, 0, NeuronFaultKind.DEAD)] * 1500
        sim.detect(
            _stimulus(), faults, progress=lambda done, total: calls.append((done, total))
        )
        # One interval-boundary report, one completion report, no duplicate
        # when the boundary and the end coincide.
        assert calls[-1] == (1500, 1500)
        assert len(calls) == 2
        assert calls[0][0] >= 1000

    def test_progress_completion_in_classify(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        calls = []
        faults = [
            NeuronFault(0, 0, NeuronFaultKind.DEAD),
            SynapseFault(0, 0, 0, SynapseFaultKind.DEAD),
        ]
        sim.classify(
            inputs, labels, faults,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(2, 2)]


class TestClassify:
    def test_output_dead_neuron_usually_critical(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        # Killing an output neuron that wins for some sample flips top-1.
        golden_preds = net.predict(inputs)
        winner = int(np.bincount(golden_preds, minlength=4).argmax())
        fault = NeuronFault(2, winner, NeuronFaultKind.DEAD)
        result = sim.classify(inputs, labels, [fault])
        assert result.critical[0]

    def test_accuracy_drop_sign(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        golden_preds = net.predict(inputs)
        winner = int(np.bincount(golden_preds, minlength=4).argmax())
        result = sim.classify(inputs, labels, [NeuronFault(2, winner, NeuronFaultKind.DEAD)])
        # Drop can be negative if the fault "fixes" predictions, but for a
        # dead winning neuron with these labels it should not be hugely so.
        assert -1.0 <= result.accuracy_drop[0] <= 1.0

    def test_benign_for_identity_perturbation(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        # A dead fault on an already-zero weight changes nothing.
        net.modules[0].weight.data.reshape(-1)[0] = 0.0
        fault = SynapseFault(0, 0, 0, SynapseFaultKind.DEAD)
        result = sim.classify(inputs, labels, [fault])
        assert not result.critical[0]

    def test_counts(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        catalog = build_catalog(net, FaultModelConfig(synapse_kinds=()))
        result = sim.classify(inputs, labels, catalog.faults)
        assert result.critical_count + result.benign_count == len(catalog.faults)

    def test_rejects_inconsistent_shapes(self):
        """Labels that do not match the sample axis, and campaigns over
        no time step or no sample, raise a typed error on both engines."""
        fault = [NeuronFault(2, 0, NeuronFaultKind.SATURATED)]
        for fused in (True, False):
            sim = FaultSimulator(_net(), fused=fused)
            with pytest.raises(FaultModelError):
                sim.classify(np.zeros((5, 3, 10)), np.zeros(4, dtype=int), [])
            with pytest.raises(FaultModelError, match="at least one time step"):
                sim.classify(np.zeros((0, 3, 10)), np.zeros(3, dtype=int), fault)
            with pytest.raises(FaultModelError, match="at least one time step"):
                sim.classify(np.zeros((5, 0, 10)), np.zeros(0, dtype=int), fault)
            with pytest.raises(FaultModelError, match="at least one time step"):
                parallel.parallel_classify(
                    sim, np.zeros((0, 3, 10)), np.zeros(3, dtype=int), fault,
                    workers=2,
                )

    def test_classification_layer_skip_consistency(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        catalog = build_catalog(net)
        subset = catalog.faults[:: max(1, len(catalog.faults) // 30)]
        result = sim.classify(inputs, labels, subset)
        golden_preds = net.predict(inputs)
        for fault, is_critical in zip(subset, result.critical):
            with inject(net, fault, sim.config):
                preds = net.predict(inputs)
            assert bool(np.any(preds != golden_preds)) == is_critical, fault.describe()


class TestCoverage:
    def _results(self):
        net = _net()
        sim = FaultSimulator(net)
        inputs, labels = _dataset()
        catalog = build_catalog(
            net, FaultModelConfig(synapse_sample_fraction=0.2), rng=np.random.default_rng(3)
        )
        detection = sim.detect(_stimulus(), catalog.faults)
        classification = sim.classify(inputs, labels, catalog.faults)
        return detection, classification

    def test_breakdown_fields_in_range(self):
        detection, classification = self._results()
        coverage = FaultSimulator.coverage(detection, classification)
        for _, value in coverage.rows():
            assert 0.0 <= value <= 1.0
        assert 0.0 <= coverage.fc_overall <= 1.0

    def test_counts_sum_to_total(self):
        detection, classification = self._results()
        coverage = FaultSimulator.coverage(detection, classification)
        assert sum(coverage.counts.values()) == len(detection.faults)

    def test_mismatched_lists_rejected(self):
        detection, classification = self._results()
        classification.faults = classification.faults[:-1]
        with pytest.raises(FaultModelError):
            FaultSimulator.coverage(detection, classification)

    def test_empty_class_reports_full_coverage(self):
        # No benign faults at all -> benign FC defined as 1.0 (vacuous).
        net = _net()
        sim = FaultSimulator(net)
        fault = NeuronFault(2, 0, NeuronFaultKind.SATURATED)
        detection = sim.detect(_stimulus(), [fault])
        inputs, labels = _dataset()
        classification = sim.classify(inputs, labels, [fault])
        coverage = FaultSimulator.coverage(detection, classification)
        assert coverage.fc_overall == 1.0


class TestEngines:
    """The simulator has two engines: production (``fused=True``) and the
    per-step oracle (``fused=False``); no other combination builds."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(fused=False, synapse_batch=2),
            dict(fused=False, neuron_splice=True),
            dict(fused=True, neuron_splice=False),
            dict(neuron_splice=False),
        ],
    )
    def test_other_combinations_are_rejected(self, options):
        with pytest.raises(FaultModelError, match="two engines"):
            FaultSimulator(_net(), **options)

    def test_both_spellings_build_one_oracle(self):
        """``fused=False`` alone and the benchmark's full spelling run the
        same engine, byte for byte, in every flat campaign."""
        net = _net()
        config = FaultModelConfig(synapse_sample_fraction=0.3)
        faults = build_catalog(net, config, rng=np.random.default_rng(4)).faults
        inputs, labels = _dataset()
        short = FaultSimulator(net, config, fused=False)
        full = FaultSimulator(
            net, config, fused=False, synapse_batch=1, neuron_splice=False
        )
        assert short.synapse_batch == full.synapse_batch == 1
        results = [
            (
                sim.detect(_stimulus(), faults),
                sim.classify(inputs, labels, faults),
                sim.accuracy_drops(inputs, labels, faults),
            )
            for sim in (short, full)
        ]
        (d1, c1, a1), (d2, c2, a2) = results
        for field in ("detected", "output_l1", "class_count_diff"):
            assert getattr(d1, field).tobytes() == getattr(d2, field).tobytes()
        assert c1.critical.tobytes() == c2.critical.tobytes()
        assert c1.accuracy_drop.tobytes() == c2.accuracy_drop.tobytes()
        assert a1.tobytes() == a2.tobytes()
        assert d1.detected.any() and c1.critical.any()

    def test_segment_engine_refuses_the_oracle_before_any_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the segment engine")

        monkeypatch.setattr(parallel, "_launch", forbidden)
        monkeypatch.setattr(parallel, "resolve_workers", forbidden)
        monkeypatch.setattr(segmented, "stimulus_chain", forbidden)
        monkeypatch.setattr(segmented, "_FaultGroup", forbidden)
        oracle = FaultSimulator(_net(), fused=False)
        stimulus = TestStimulus(
            chunks=[_stimulus(steps=4), _stimulus(seed=3, steps=3)], input_shape=(10,)
        )
        faults = [NeuronFault(2, 0, NeuronFaultKind.SATURATED)]
        with pytest.raises(FaultModelError, match="production engine"):
            oracle.detect_segmented(stimulus, faults)
        with pytest.raises(FaultModelError, match="production engine"):
            segmented.SegmentedDetectionCampaign(oracle, stimulus, faults)
        with pytest.raises(FaultModelError, match="production engine"):
            parallel.parallel_detect_segmented(oracle, stimulus, faults, workers=2)


def _apply_per_fault(fault, idx, threshold, leak, refractory, mode, config):
    """The per-fault update :func:`_apply_neuron_kinds` replaced."""
    kind = fault.kind
    if kind is NeuronFaultKind.DEAD:
        mode[idx] = MODE_DEAD
    elif kind is NeuronFaultKind.SATURATED:
        mode[idx] = MODE_SATURATED
    elif kind is NeuronFaultKind.TIMING_THRESHOLD:
        threshold[idx] *= config.timing_threshold_factor
    elif kind is NeuronFaultKind.TIMING_LEAK:
        leak[idx] *= config.timing_leak_factor
    elif kind is NeuronFaultKind.TIMING_REFRACTORY:
        refractory[idx] += config.timing_refractory_extra
    elif kind is NeuronFaultKind.PARAM_THRESHOLD:
        threshold[idx] = threshold[idx] * fault.scale + fault.offset
    elif kind is NeuronFaultKind.PARAM_LEAK:
        leak[idx] = leak[idx] * fault.scale + fault.offset
    else:
        refractory[idx] = max(
            0, int(np.rint(refractory[idx] * fault.scale + fault.offset))
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
def test_kind_batched_neuron_parameters_equal_per_fault_ones(seed, count):
    rng = np.random.default_rng(seed)
    module = _net().modules[1]
    module.threshold = rng.uniform(0.5, 2.0, module.neuron_shape)
    module.leak = rng.uniform(0.5, 1.0, module.neuron_shape)
    module.refractory_steps = rng.integers(0, 4, module.neuron_shape)
    config = FaultModelConfig(timing_threshold_factor=1.3, timing_leak_factor=0.7)
    kinds = [kind for kind in NeuronFaultKind if kind is not NeuronFaultKind.DELAY]
    group = []
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        magnitudes = (
            {"scale": float(rng.uniform(-1.5, 2.5)), "offset": float(rng.uniform(-2, 2))}
            if kind.is_parametric else {}
        )
        group.append(NeuronFault(
            1, int(rng.integers(module.neuron_count)), kind, **magnitudes
        ))
    shape = module.neuron_shape
    want = [
        np.broadcast_to(array, (count,) + shape).copy()
        for array in (module.threshold, module.leak, module.refractory_steps, module.mode)
    ]
    for row, fault in enumerate(group):
        idx = (row,) + tuple(np.unravel_index(fault.neuron_index, shape))
        _apply_per_fault(fault, idx, *want, config)
    got = _perturbed_neuron_arrays(module, group, config)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    neuron_idx, *scalars = _perturbed_neuron_scalars(module, group, config)
    rows = np.arange(count)
    for mine, theirs in zip(scalars, want):
        theirs = theirs.reshape(count, -1)[rows, neuron_idx]
        assert mine.tobytes() == theirs.astype(mine.dtype).tobytes()
