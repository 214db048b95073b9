"""Batched fault simulation must agree exactly with sequential per-fault
injection, on every layer type.

Neuron faults batch along the batch axis (parameter arrays per row),
synapse faults batch by lifting weight tensors to a ``(K, ...)`` leading
axis, and eligible neuron faults are spliced into the cached golden layer
output without re-running the faulty module.  All three fast paths are
compared here against the per-step oracle (``fused=False``: one reversible
``inject`` per synapse fault, a full module re-run per neuron fault) and
against one-at-a-time ``inject`` with exact equality."""

import numpy as np
import pytest

from repro.faults.catalog import build_catalog
from repro.faults.injector import inject
from repro.faults.model import FaultModelConfig, NeuronFaultKind
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


def _conv_net():
    spec = NetworkSpec(
        name="conv",
        input_shape=(2, 8, 8),
        layers=(
            ConvSpec(out_channels=4, kernel=3, padding=1),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=10),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(0))


def _rec_net():
    spec = NetworkSpec(
        name="rec",
        input_shape=(10,),
        layers=(RecurrentSpec(out_features=8), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(1))


@pytest.mark.parametrize("net_factory,input_shape", [(_conv_net, (2, 8, 8)), (_rec_net, (10,))])
@pytest.mark.parametrize("neuron_batch", [1, 4, 16])
def test_detect_matches_sequential(net_factory, input_shape, neuron_batch):
    net = net_factory()
    config = FaultModelConfig(synapse_kinds=())
    catalog = build_catalog(net, config)
    faults = catalog.neuron_faults[:: max(1, len(catalog.neuron_faults) // 40)]
    stim = (np.random.default_rng(2).random((10, 1) + input_shape) > 0.6).astype(float)

    simulator = FaultSimulator(net, config, neuron_batch=neuron_batch)
    result = simulator.detect(stim, faults)

    golden = net.run(stim)[:, 0, :]
    for fault, detected, l1 in zip(faults, result.detected, result.output_l1):
        with inject(net, fault, config):
            out = net.run(stim)[:, 0, :]
        expected = np.abs(out - golden).sum()
        assert expected == pytest.approx(l1), fault.describe()
        assert (expected > 0) == detected


@pytest.mark.parametrize("neuron_batch", [1, 8])
def test_classify_matches_sequential(neuron_batch):
    net = _conv_net()
    config = FaultModelConfig(synapse_kinds=())
    catalog = build_catalog(net, config)
    faults = catalog.neuron_faults[:: max(1, len(catalog.neuron_faults) // 30)]
    rng = np.random.default_rng(3)
    inputs = (rng.random((10, 6, 2, 8, 8)) > 0.6).astype(float)
    labels = rng.integers(0, 4, size=6)

    simulator = FaultSimulator(net, config, neuron_batch=neuron_batch)
    result = simulator.classify(inputs, labels, faults)

    golden_preds = net.predict(inputs)
    for fault, critical, drop in zip(faults, result.critical, result.accuracy_drop):
        with inject(net, fault, config):
            preds = net.predict(inputs)
        assert bool(np.any(preds != golden_preds)) == critical, fault.describe()
        expected_drop = result.nominal_accuracy - float((preds == labels).mean())
        assert drop == pytest.approx(expected_drop), fault.describe()


def _synapse_faults(net, per_module=12):
    catalog = build_catalog(net, FaultModelConfig(neuron_kinds=()))
    return catalog.synapse_faults[
        :: max(1, len(catalog.synapse_faults) // (per_module * len(net.modules)))
    ]


@pytest.mark.parametrize(
    "net_factory,input_shape", [(_conv_net, (2, 8, 8)), (_rec_net, (10,))]
)
@pytest.mark.parametrize("synapse_batch", [4, 16])
def test_synapse_detect_matches_sequential(net_factory, input_shape, synapse_batch):
    """K-batched synapse campaigns equal the oracle's one-at-a-time
    inject path, field by field, with no tolerance."""
    net = net_factory()
    config = FaultModelConfig(neuron_kinds=())
    faults = _synapse_faults(net)
    assert faults, "catalog produced no synapse faults"
    stim = (np.random.default_rng(5).random((10, 1) + input_shape) > 0.6).astype(float)

    sequential = FaultSimulator(net, config, fused=False).detect(stim, faults)
    batched = FaultSimulator(net, config, synapse_batch=synapse_batch).detect(
        stim, faults
    )
    assert np.array_equal(sequential.detected, batched.detected)
    assert np.array_equal(sequential.output_l1, batched.output_l1)
    assert np.array_equal(sequential.class_count_diff, batched.class_count_diff)

    golden = net.run(stim)[:, 0, :]
    for fault, detected, l1 in zip(faults, batched.detected, batched.output_l1):
        with inject(net, fault, config):
            out = net.run(stim)[:, 0, :]
        expected = np.abs(out - golden).sum()
        assert expected == l1, fault.describe()
        assert (expected > 0) == detected, fault.describe()


def test_synapse_classify_matches_sequential():
    """Batched synapse classification reproduces the sequential labels and
    accuracy drops exactly."""
    net = _conv_net()
    config = FaultModelConfig(neuron_kinds=())
    faults = _synapse_faults(net)
    rng = np.random.default_rng(6)
    inputs = (rng.random((10, 6, 2, 8, 8)) > 0.6).astype(float)
    labels = rng.integers(0, 4, size=6)

    sequential = FaultSimulator(net, config, fused=False).classify(
        inputs, labels, faults
    )
    batched = FaultSimulator(net, config, synapse_batch=8).classify(
        inputs, labels, faults
    )
    assert np.array_equal(sequential.critical, batched.critical)
    assert sequential.accuracy_drop.tobytes() == batched.accuracy_drop.tobytes()
    assert sequential.nominal_accuracy == batched.nominal_accuracy
    assert np.isfinite(batched.accuracy_drop).all()


def _dense_net():
    spec = NetworkSpec(
        name="dense",
        input_shape=(10,),
        layers=(DenseSpec(out_features=8), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(2))


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize(
    "net_factory,input_shape",
    [(_dense_net, (10,)), (_conv_net, (2, 8, 8)), (_rec_net, (10,))],
)
def test_accuracy_drops_equal_batched_classify(net_factory, input_shape, fused):
    """``accuracy_drops`` batches its faults through the classify loop;
    every drop equals the one-fault-per-pass drop byte for byte, and the
    production engine's drops equal the oracle's."""
    net = net_factory()
    config = FaultModelConfig(synapse_sample_fraction=0.3)
    catalog = build_catalog(net, config, rng=np.random.default_rng(7))
    faults = catalog.faults[:: max(1, len(catalog.faults) // 40)]
    rng = np.random.default_rng(8)
    inputs = (rng.random((10, 5) + input_shape) > 0.6).astype(float)
    labels = rng.integers(0, 4, size=5)

    simulator = FaultSimulator(net, config, fused=fused)
    drops = simulator.accuracy_drops(inputs, labels, faults)
    classified = simulator.classify(inputs, labels, faults)
    one_per_pass = np.array(
        [simulator.classify(inputs, labels, [f]).accuracy_drop[0] for f in faults]
    )
    oracle = FaultSimulator(net, config, fused=False).accuracy_drops(
        inputs, labels, faults
    )
    assert drops.tobytes() == classified.accuracy_drop.tobytes()
    assert drops.tobytes() == one_per_pass.tobytes()
    assert drops.tobytes() == oracle.tobytes()
    assert classified.critical.any() and np.any(drops != 0.0)


@pytest.mark.parametrize(
    "net_factory,input_shape", [(_conv_net, (2, 8, 8)), (_rec_net, (10,))]
)
def test_neuron_splice_matches_full_rerun(net_factory, input_shape):
    """The splice path (simulate only the faulty neuron, patch the cached
    golden layer output) equals the oracle's full faulty-module re-run
    exactly."""
    net = net_factory()
    config = FaultModelConfig(synapse_kinds=())
    catalog = build_catalog(net, config)
    faults = catalog.neuron_faults[:: max(1, len(catalog.neuron_faults) // 50)]
    stim = (np.random.default_rng(7).random((10, 1) + input_shape) > 0.6).astype(float)

    full = FaultSimulator(net, config, fused=False).detect(stim, faults)
    spliced = FaultSimulator(net, config, neuron_splice=True).detect(stim, faults)
    assert np.array_equal(full.detected, spliced.detected)
    assert np.array_equal(full.output_l1, spliced.output_l1)
    assert np.array_equal(full.class_count_diff, spliced.class_count_diff)

    rng = np.random.default_rng(8)
    inputs = (rng.random((10, 4) + input_shape) > 0.6).astype(float)
    labels = rng.integers(0, 4, size=4)
    full_cls = FaultSimulator(net, config, fused=False).classify(
        inputs, labels, faults
    )
    spliced_cls = FaultSimulator(net, config, neuron_splice=True).classify(
        inputs, labels, faults
    )
    assert np.array_equal(full_cls.critical, spliced_cls.critical)
    assert np.array_equal(full_cls.accuracy_drop, spliced_cls.accuracy_drop)


def test_weights_restored_after_batched_synapse_campaign():
    net = _conv_net()
    config = FaultModelConfig(neuron_kinds=())
    before = {k: v.copy() for k, v in net.state_dict().items()}
    FaultSimulator(net, config, synapse_batch=8).detect(
        (np.random.default_rng(9).random((8, 1, 2, 8, 8)) > 0.6).astype(float),
        _synapse_faults(net),
    )
    after = net.state_dict()
    for key in before:
        assert np.array_equal(before[key], after[key])


def test_timing_faults_batched_exactly():
    """Timing-variation faults perturb per-neuron parameter arrays; the
    batched expansion must perturb exactly one row per fault."""
    net = _rec_net()
    config = FaultModelConfig(
        neuron_kinds=(
            NeuronFaultKind.TIMING_THRESHOLD,
            NeuronFaultKind.TIMING_LEAK,
            NeuronFaultKind.TIMING_REFRACTORY,
        ),
        synapse_kinds=(),
    )
    catalog = build_catalog(net, config)
    stim = (np.random.default_rng(4).random((12, 1, 10)) > 0.4).astype(float)
    simulator = FaultSimulator(net, config, neuron_batch=8)
    result = simulator.detect(stim, catalog.neuron_faults)
    golden = net.run(stim)[:, 0, :]
    for fault, detected in zip(catalog.neuron_faults, result.detected):
        with inject(net, fault, config):
            out = net.run(stim)[:, 0, :]
        assert (np.abs(out - golden).sum() > 0) == detected, fault.describe()
    # Parameter arrays fully restored after the batched campaign.
    for module in net.spiking_modules:
        assert np.allclose(module.threshold, module.params.threshold)
        assert np.allclose(module.leak, module.params.leak)
        assert np.all(module.refractory_steps == module.params.refractory_steps)
