"""Chaos scenario: a crash mid-campaign while a *transient* fault's
activity window straddles the segment boundary a store record carries
state across.

The extended fault families carry more per-group state across segment
boundaries than the classic catalog: windowed faults swap parameters
mid-segment, and DELAY faults carry a golden-trace history buffer
(``grp.hist``) so the shifted spike train stays exact across the cut.
A resume that rebuilt any of that state wrong — re-running the window
from its start, or zero-filling the delay history — would still
complete, just with silently different detections.  So the scenario
crashes at coverage-store writes whose record carries state across a
boundary *inside* the [5, 16) window (segments span [0,8)/[8,14)/[14,19)),
re-runs against the same store, and requires the resumed campaign to be
bit-identical to the per-step oracle.
"""

import numpy as np
import pytest

from repro.core.checkpoint import deserialize_checkpoint
from repro.core.testset import TestStimulus
from repro.errors import ChaosError
from repro.faults.catalog import build_catalog
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFaultKind,
)
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters
from repro.utils import chaos

WINDOW = (5, 16)  # straddles both internal segment boundaries


@pytest.fixture(scope="module")
def transient_campaign():
    spec = NetworkSpec(
        name="transient-chaos",
        input_shape=(12,),
        layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    net = build_network(spec, np.random.default_rng(0))
    config = FaultModelConfig(
        neuron_kinds=tuple(NeuronFaultKind),
        bitflip_bits=(0, 6),
        transient_windows=(WINDOW,),
        transient_neuron_kinds=(
            NeuronFaultKind.DEAD,
            NeuronFaultKind.SATURATED,
            NeuronFaultKind.PARAM_THRESHOLD,
            NeuronFaultKind.DELAY,
        ),
        transient_synapse_kinds=(SynapseFaultKind.DEAD, SynapseFaultKind.BITFLIP),
    )
    catalog = build_catalog(net, config)
    transient = [f for f in catalog.faults if f.window is not None]
    permanent = [f for f in catalog.faults if f.window is None]
    faults = (transient[::2] + permanent[::5])[:70]
    assert any(
        isinstance(f, NeuronFault) and f.kind is NeuronFaultKind.DELAY
        for f in faults
    ), "the scenario must exercise the delay-history buffer"
    rng = np.random.default_rng(1)
    chunks = [(rng.random((d, 1, 12)) > 0.5).astype(float) for d in (4, 3, 5)]
    stimulus = TestStimulus(chunks=chunks, input_shape=(12,))
    simulator = FaultSimulator(net, config)
    reference = FaultSimulator(
        net, config, fused=False, synapse_batch=1, neuron_splice=False
    ).detect(stimulus.assembled(), faults)
    windowed_detected = [
        bool(det)
        for fault, det in zip(faults, reference.detected)
        if fault.window is not None
    ]
    assert any(windowed_detected), "some transient fault must be detectable"
    return {
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": reference,
    }


class _WriteLog(CoverageStore):
    """A store that remembers the meta of every record it writes."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.metas = []

    def put_bytes(self, key, payload):
        written = super().put_bytes(key, payload)
        if written:
            self.metas.append(deserialize_checkpoint(payload)[1])
        return written


def _carried_writes(campaign, drop, root):
    """Strike keys that fail the write right after a group record that
    carries state across a segment boundary (steps 8 and 14, both inside
    the window), in write order: the re-run must restore that state."""
    log = _WriteLog(root)
    campaign["simulator"].detect_segmented(
        campaign["stimulus"], campaign["faults"], drop_detected=drop, store=log
    )
    keys = [
        key + 1 for key, meta in enumerate(log.metas)
        if meta["kind"] == "cov-group" and meta["has_state"]
    ]
    assert len(keys) >= 5, "campaign too small to crash inside the window"
    return keys


def _detect(campaign, drop, store):
    return campaign["simulator"].detect_segmented(
        campaign["stimulus"], campaign["faults"], drop_detected=drop, store=store
    )


def _assert_resumed(campaign, drop, result):
    reference = campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    if drop:
        # Dropping ends each fault's metrics at its first detection, so
        # they are pinned against an uninterrupted dropping run instead.
        reference = _detect(campaign, True, None)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


@pytest.mark.parametrize("strike_at", [2, 4])
@pytest.mark.parametrize("drop", [False, True])
def test_crash_inside_transient_window_resumes_bit_identical(
    transient_campaign, tmp_path, strike_at, drop
):
    """Crash right after the ``strike_at``-th carried-state record."""
    keys = _carried_writes(transient_campaign, drop, tmp_path / "log")
    root = tmp_path / "store"
    spec = f"raise@store-write:{keys[strike_at]}"
    with chaos.installed(chaos.ChaosPolicy.parse(spec)):
        with pytest.raises(ChaosError):
            _detect(transient_campaign, drop, CoverageStore(root))
    _assert_resumed(
        transient_campaign, drop, _detect(transient_campaign, drop, CoverageStore(root))
    )


def test_double_crash_then_resume(transient_campaign, tmp_path):
    """Two successive crashes — the second during the re-run — must still
    converge to the exact reference: the re-run writes each record it
    finishes, so the third run resumes past both crash points."""
    keys = _carried_writes(transient_campaign, False, tmp_path / "log")
    # The re-run writes only the records the first run left missing, in
    # the same order, and its counter restarts at 0: its strike at
    # ``keys[4] - keys[2]`` lands on the uninterrupted run's ``keys[4]``.
    strikes = (keys[2], keys[4] - keys[2])
    root = tmp_path / "store"
    for key in strikes:
        with chaos.installed(chaos.ChaosPolicy.parse(f"raise@store-write:{key}")):
            with pytest.raises(ChaosError):
                _detect(transient_campaign, False, CoverageStore(root))
    _assert_resumed(
        transient_campaign, False, _detect(transient_campaign, False, CoverageStore(root))
    )
