"""Property-based tests (hypothesis) on core data structures and
invariants that must hold for arbitrary inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import Tensor
from repro.autograd import functional as F
from repro.core.testset import TestStimulus
from repro.faults.bitflip import bitflip_value, int8_scale
from repro.faults.model import (
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.faults.simulator import (
    ClassificationResult,
    DetectionResult,
    FaultSimulator,
)
from repro.snn.neuron import LIFState, lif_step_numpy


# ----------------------------------------------------------------------
# LIF dynamics invariants
# ----------------------------------------------------------------------
@st.composite
def lif_trace(draw):
    steps = draw(st.integers(min_value=1, max_value=20))
    currents = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=steps,
            max_size=steps,
        )
    )
    leak = draw(st.floats(min_value=0.1, max_value=1.0))
    threshold = draw(st.floats(min_value=0.1, max_value=3.0))
    refrac = draw(st.integers(min_value=0, max_value=4))
    return currents, leak, threshold, refrac


def _simulate(currents, leak, threshold, refrac):
    theta = np.full((1,), threshold)
    lk = np.full((1,), leak)
    rf = np.full((1,), refrac, dtype=np.int64)
    state = LIFState.zeros_numpy((1, 1))
    return [float(lif_step_numpy(np.array([[c]]), state, theta, lk, rf)[0, 0]) for c in currents]


class TestLIFProperties:
    @given(lif_trace())
    @settings(max_examples=150, deadline=None)
    def test_spikes_are_binary(self, trace):
        spikes = _simulate(*trace)
        assert set(spikes).issubset({0.0, 1.0})

    @given(lif_trace())
    @settings(max_examples=150, deadline=None)
    def test_refractory_gap_enforced(self, trace):
        currents, leak, threshold, refrac = trace
        spikes = _simulate(currents, leak, threshold, refrac)
        fire_times = [t for t, s in enumerate(spikes) if s == 1.0]
        for a, b in zip(fire_times, fire_times[1:]):
            assert b - a > refrac

    @given(lif_trace())
    @settings(max_examples=100, deadline=None)
    def test_no_input_no_spikes(self, trace):
        _, leak, threshold, refrac = trace
        spikes = _simulate([0.0] * 10, leak, threshold, refrac)
        assert sum(spikes) == 0.0


# ----------------------------------------------------------------------
# Test-stimulus assembly invariants (Eqs. 7-8)
# ----------------------------------------------------------------------
@st.composite
def chunk_durations(draw):
    return draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))


class TestStimulusProperties:
    @given(chunk_durations())
    @settings(max_examples=100, deadline=None)
    def test_eq8_duration(self, durations):
        chunks = [np.ones((d, 1, 3)) for d in durations]
        stim = TestStimulus(chunks=chunks, input_shape=(3,))
        expected = sum(2 * d for d in durations[:-1]) + durations[-1]
        assert stim.duration_steps == expected
        assert stim.assembled().shape[0] == expected

    @given(chunk_durations())
    @settings(max_examples=100, deadline=None)
    def test_sleep_gaps_are_silent(self, durations):
        rng = np.random.default_rng(0)
        chunks = [(rng.random((d, 1, 3)) > 0.5).astype(float) for d in durations]
        stim = TestStimulus(chunks=chunks, input_shape=(3,))
        assembled = stim.assembled()
        cursor = 0
        for chunk in chunks[:-1]:
            cursor += chunk.shape[0]
            gap = assembled[cursor : cursor + chunk.shape[0]]
            assert gap.sum() == 0.0
            cursor += chunk.shape[0]

    @given(chunk_durations())
    @settings(max_examples=50, deadline=None)
    def test_assembled_preserves_chunk_content(self, durations):
        rng = np.random.default_rng(1)
        chunks = [(rng.random((d, 1, 3)) > 0.5).astype(float) for d in durations]
        stim = TestStimulus(chunks=chunks, input_shape=(3,))
        assembled = stim.assembled()
        cursor = 0
        for i, chunk in enumerate(chunks):
            assert np.array_equal(assembled[cursor : cursor + chunk.shape[0]], chunk)
            cursor += chunk.shape[0] * (2 if i < len(chunks) - 1 else 1)


# ----------------------------------------------------------------------
# Campaign-level invariants: FaultSimulator.coverage()
# ----------------------------------------------------------------------
@st.composite
def campaign_outcome(draw):
    """An arbitrary (detection, classification) result pair over a mixed
    neuron/synapse fault list, with finite accuracy drops."""
    n = draw(st.integers(min_value=0, max_value=40))
    is_neuron = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    detected = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    critical = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    drops = np.array(
        draw(
            st.lists(
                st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    faults = [
        NeuronFault(0, i, NeuronFaultKind.DEAD)
        if neuron
        else SynapseFault(0, 0, i, SynapseFaultKind.DEAD)
        for i, neuron in enumerate(is_neuron)
    ]
    detection = DetectionResult(
        faults=faults,
        detected=detected,
        output_l1=detected.astype(float),
        class_count_diff=np.zeros((n, 4)),
        wall_time=0.0,
    )
    classification = ClassificationResult(
        faults=list(faults),
        critical=critical,
        accuracy_drop=drops,
        nominal_accuracy=1.0,
        wall_time=0.0,
    )
    return detection, classification


class TestCoverageProperties:
    @given(campaign_outcome())
    @settings(max_examples=200, deadline=None)
    def test_rates_in_unit_interval(self, outcome):
        detection, classification = outcome
        coverage = FaultSimulator.coverage(detection, classification)
        for _, value in coverage.rows():
            assert 0.0 <= value <= 1.0
        assert 0.0 <= coverage.fc_overall <= 1.0

    @given(campaign_outcome())
    @settings(max_examples=200, deadline=None)
    def test_counts_partition_catalog(self, outcome):
        detection, classification = outcome
        coverage = FaultSimulator.coverage(detection, classification)
        assert sum(coverage.counts.values()) == len(detection.faults)
        assert all(count >= 0 for count in coverage.counts.values())

    @given(campaign_outcome())
    @settings(max_examples=200, deadline=None)
    def test_empty_classes_report_vacuous_full_coverage(self, outcome):
        detection, classification = outcome
        coverage = FaultSimulator.coverage(detection, classification)
        labels = {
            "critical_neuron": coverage.fc_critical_neuron,
            "benign_neuron": coverage.fc_benign_neuron,
            "critical_synapse": coverage.fc_critical_synapse,
            "benign_synapse": coverage.fc_benign_synapse,
        }
        for key, rate in labels.items():
            if coverage.counts[key] == 0:
                assert rate == 1.0

    @given(campaign_outcome())
    @settings(max_examples=200, deadline=None)
    def test_overall_rate_is_detected_fraction(self, outcome):
        detection, classification = outcome
        coverage = FaultSimulator.coverage(detection, classification)
        n = len(detection.faults)
        if n == 0:
            assert coverage.fc_overall == 1.0
        else:
            assert coverage.fc_overall == float(detection.detected.sum() / n)

    @given(campaign_outcome())
    @settings(max_examples=200, deadline=None)
    def test_max_drop_is_max_over_undetected_critical(self, outcome):
        detection, classification = outcome
        coverage = FaultSimulator.coverage(detection, classification)
        is_neuron = np.array([f.is_neuron for f in detection.faults], dtype=bool)
        escapes = ~detection.detected & classification.critical
        drops = classification.accuracy_drop
        for mask, value in (
            (escapes & is_neuron, coverage.max_drop_undetected_neuron),
            (escapes & ~is_neuron, coverage.max_drop_undetected_synapse),
        ):
            expected = max(drops[mask].tolist(), default=0.0)
            assert value == expected


# ----------------------------------------------------------------------
# Quantisation / STE / Gumbel properties
# ----------------------------------------------------------------------
class TestNumericProperties:
    @given(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitflip_changes_or_preserves_within_scale(self, value, bit):
        weights = np.array([value, 1.0, -1.0])
        scale = int8_scale(weights)
        flipped = bitflip_value(value, bit, scale)
        # The perturbation magnitude is exactly 2^bit quantisation steps
        # (or the sign-bit two's-complement jump), never more than 256 steps.
        assert abs(flipped - np.clip(round(value / scale), -128, 127) * scale) <= 256 * scale

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_ste_output_binary(self, values):
        out = F.ste_binarize(Tensor(np.array(values)))
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    @given(
        st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=20),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_gumbel_softmax_in_unit_interval(self, values, tau):
        out = F.gumbel_softmax(
            Tensor(np.array(values)), tau, np.random.default_rng(0)
        )
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    @given(st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_softmax_is_distribution(self, values):
        out = F.softmax(Tensor(np.array([values])))
        assert np.all(out.data >= 0.0)
        assert np.isclose(out.data.sum(), 1.0)
