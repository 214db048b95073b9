"""Splice mini-LIFs are fed the oracle's currents, bit for bit.

A splice row simulates one faulty neuron alone and compares its spike
train with the golden one, so the currents its mini-LIF integrates must be
the very products the golden run and the per-step oracle compute: the
module's full product at that neuron, not a gathered or column-sliced
GEMM that may round differently in the last bit.  A last-bit difference
only shows when a potential lands within an ulp of threshold, so the
second test puts it there on purpose.
"""

import numpy as np
import pytest

from repro.faults import segmented
from repro.faults import simulator as simulator_module
from repro.faults.injector import synapse_fault_value
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.faults.simulator import FaultSimulator
from repro.snn.layers import ConvLIF

from tests.faults.test_footprint_packing import WINDOW, packing_net, packing_stimulus

CONV2, DENSE1, DENSE2 = 2, 5, 6  # conv behind a pool, then both dense layers


def _golden_inputs(net, stimulus):
    """Per-step (oracle path) input of every module."""
    outputs = net.run_modules(stimulus, fused=False)
    return [stimulus] + outputs[:-1]


def _per_step_currents(module, x, weight=None):
    """``(T, n)`` currents of the per-step oracle: one product per step,
    with ``weight`` (default: the module's) in place."""
    saved = module.weight.data
    if weight is not None:
        module.weight.data = weight
    try:
        if isinstance(module, ConvLIF):
            rows = [module._conv_numpy(x[t]).reshape(-1) for t in range(len(x))]
        else:
            rows = [(x[t] @ module.weight.data)[0] for t in range(len(x))]
    finally:
        module.weight.data = saved
    return np.stack(rows)


@pytest.fixture
def fed(monkeypatch):
    """Every current array a splice mini-LIF scans, in call order."""
    calls = []
    for owner in (segmented, simulator_module):
        real = owner.lif_scan_numpy

        def spy(currents, *args, _real=real):
            calls.append(np.array(currents))
            return _real(currents, *args)

        monkeypatch.setattr(owner, "lif_scan_numpy", spy)
    return calls


def _campaign_traces(fed, net, config, stimulus, fault):
    """The currents fed to the fault's mini-LIF by the segment-wise and
    the flat engine, each as one ``(T,)`` trace."""
    simulator = FaultSimulator(net, config)
    traces = []
    for run in (
        lambda: simulator.detect_segmented(stimulus, [fault], drop_detected=False),
        lambda: simulator.detect(stimulus.assembled(), [fault]),
    ):
        fed.clear()
        run()
        assert fed, "the fault must take a splice path"
        traces.append(np.concatenate(fed).reshape(-1))
    return traces


@pytest.mark.parametrize("module_index", [CONV2, DENSE1, DENSE2])
def test_neuron_splice_currents_equal_the_per_step_product(fed, module_index):
    net, config, stimulus = packing_net(), FaultModelConfig(), packing_stimulus()
    module = net.modules[module_index]
    x = _golden_inputs(net, stimulus.assembled())[module_index]
    expected = _per_step_currents(module, x)
    for neuron in range(0, module.neuron_count, max(1, module.neuron_count // 12)):
        for window in (None, WINDOW):
            fault = NeuronFault(
                module_index=module_index, neuron_index=neuron,
                kind=NeuronFaultKind.TIMING_LEAK, window=window,
            )
            for trace in _campaign_traces(fed, net, config, stimulus, fault):
                assert np.array_equal(trace, expected[:, neuron])


@pytest.mark.parametrize("module_index", [DENSE1, DENSE2])
def test_synapse_splice_currents_equal_the_faulty_per_step_product(fed, module_index):
    net, config, stimulus = packing_net(), FaultModelConfig(), packing_stimulus()
    module = net.modules[module_index]
    x = _golden_inputs(net, stimulus.assembled())[module_index]
    nominal = _per_step_currents(module, x)
    weights = module.weight.data
    offset = np.arange(len(x))
    inside = (offset >= WINDOW[0]) & (offset < WINDOW[1])
    for widx in range(0, weights.size, max(1, weights.size // 10)):
        for kind in (SynapseFaultKind.SATURATED_POSITIVE, SynapseFaultKind.DEAD):
            for window in (None, WINDOW):
                fault = SynapseFault(
                    module_index=module_index, parameter_index=0,
                    weight_index=widx, kind=kind, window=window,
                )
                faulty = weights.copy()
                faulty.reshape(-1)[widx] = synapse_fault_value(weights, fault, config)
                target = widx % module.out_features
                expected = _per_step_currents(module, x, faulty)[:, target]
                if window is not None:
                    expected = np.where(inside, expected, nominal[:, target])
                for trace in _campaign_traces(fed, net, config, stimulus, fault):
                    assert np.array_equal(trace, expected)


def _first_rise(currents):
    """First step whose current is positive after only exact zeros (the
    potential there is exactly that current), or ``None``."""
    positive = np.flatnonzero(currents > 0)
    if positive.size and not np.any(currents[: positive[0]]):
        return int(positive[0])
    return None


@pytest.mark.parametrize("nudge", [False, True])
@pytest.mark.parametrize("path", ["neuron", "synapse"])
@pytest.mark.parametrize("module_index", [DENSE1, DENSE2])
def test_threshold_at_the_full_product_current_matches_the_oracle(
    module_index, path, nudge
):
    """Each neuron's threshold is set to exactly (or one ulp above) the
    full-product current its faulty copy integrates at one step, where the
    potential equals that current.  A splice row fed a current one ulp
    off would fire where the oracle does not, or the other way round."""
    net, config, stimulus = packing_net(), FaultModelConfig(), packing_stimulus()
    module = net.modules[module_index]
    x = _golden_inputs(net, stimulus.assembled())[module_index]
    nominal = _per_step_currents(module, x)
    weights = module.weight.data
    faults = []
    for neuron in range(module.out_features):
        if path == "neuron":
            fault = NeuronFault(
                module_index=module_index, neuron_index=neuron,
                kind=NeuronFaultKind.TIMING_LEAK,
            )
            currents = nominal[:, neuron]
        else:
            source = int(np.argmax(np.abs(x).sum(axis=(0, 1)) * np.abs(weights[:, neuron])))
            fault = SynapseFault(
                module_index=module_index, parameter_index=0,
                weight_index=source * module.out_features + neuron,
                kind=SynapseFaultKind.SATURATED_POSITIVE,
            )
            faulty = weights.copy()
            faulty.reshape(-1)[fault.weight_index] = synapse_fault_value(
                weights, fault, config
            )
            currents = _per_step_currents(module, x, faulty)[:, neuron]
        t0 = _first_rise(currents)
        if t0 is None:
            continue
        level = currents[t0]
        module.threshold[neuron] = np.nextafter(level, np.inf) if nudge else level
        faults.append(fault)
    assert len(faults) >= 2, "too few neurons reach a threshold cleanly"
    # Batch 1 everywhere: a dense GEMM may round a row differently by the
    # batch's row count, and the golden run multiplies one row at a time.
    oracle = FaultSimulator(
        net, config, fused=False, neuron_batch=1, synapse_batch=1, neuron_splice=False
    ).detect(stimulus.assembled(), faults)
    simulator = FaultSimulator(net, config)
    for fault_index, fault in enumerate(faults):
        # One fault per campaign: a splice group of one row.
        for result in (
            simulator.detect_segmented(stimulus, [fault], drop_detected=False),
            simulator.detect(stimulus.assembled(), [fault]),
        ):
            assert result.detected[0] == oracle.detected[fault_index]
            assert result.output_l1[0] == oracle.output_l1[fault_index]
            assert np.array_equal(
                result.class_count_diff[0], oracle.class_count_diff[fault_index]
            )
