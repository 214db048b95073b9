"""Differential suite: parallel campaigns must be *exactly* equal to the
serial sequential reference.

The reference is the per-step oracle one fault at a time
(``fused=False, neuron_batch=1``).  Every (workers, neuron_batch)
combination is compared field-by-field with ``np.array_equal`` — no
tolerances — on a mixed neuron+synapse catalog, so process sharding,
batch-axis batching, K-batched synapse passes, and neuron splicing are all
pinned to the reference at once.
"""

import itertools

import numpy as np
import pytest

from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import (
    fork_available,
    parallel_classify,
    parallel_detect,
    resolve_workers,
    shard_bounds,
)
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
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


def _mixed_faults(net, config, per_kind=40):
    """Interleaved neuron+synapse subset, so every shard sees both kinds."""
    catalog = build_catalog(net, config)
    neuron = catalog.neuron_faults[:: max(1, len(catalog.neuron_faults) // per_kind)]
    synapse = catalog.synapse_faults[:: max(1, len(catalog.synapse_faults) // per_kind)]
    return [
        fault
        for pair in itertools.zip_longest(neuron, synapse)
        for fault in pair
        if fault is not None
    ]


@pytest.fixture(scope="module")
def campaign():
    net = _mixed_net()
    config = FaultModelConfig()
    faults = _mixed_faults(net, config)
    rng = np.random.default_rng(1)
    stimulus = (rng.random((8, 1, 2, 6, 6)) > 0.6).astype(float)
    inputs = (rng.random((8, 5, 2, 6, 6)) > 0.6).astype(float)
    labels = rng.integers(0, 4, size=5)
    reference = FaultSimulator(net, config, fused=False, neuron_batch=1)
    return {
        "net": net,
        "config": config,
        "faults": faults,
        "stimulus": stimulus,
        "inputs": inputs,
        "labels": labels,
        "detect_ref": reference.detect(stimulus, faults),
        "classify_ref": reference.classify(inputs, labels, faults),
    }


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("neuron_batch", [1, 3, 16])
def test_parallel_detect_exactly_matches_serial(campaign, workers, neuron_batch):
    simulator = FaultSimulator(
        campaign["net"], campaign["config"], neuron_batch=neuron_batch
    )
    result = parallel_detect(
        simulator, campaign["stimulus"], campaign["faults"], workers=workers
    )
    reference = campaign["detect_ref"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("neuron_batch", [1, 3, 16])
def test_parallel_classify_exactly_matches_serial(campaign, workers, neuron_batch):
    simulator = FaultSimulator(
        campaign["net"], campaign["config"], neuron_batch=neuron_batch
    )
    result = parallel_classify(
        simulator,
        campaign["inputs"],
        campaign["labels"],
        campaign["faults"],
        workers=workers,
    )
    reference = campaign["classify_ref"]
    assert np.array_equal(result.critical, reference.critical)
    assert np.array_equal(result.accuracy_drop, reference.accuracy_drop)
    assert result.nominal_accuracy == reference.nominal_accuracy


def test_parallel_progress_aggregates_to_completion(campaign):
    simulator = FaultSimulator(campaign["net"], campaign["config"])
    calls = []
    parallel_detect(
        simulator,
        campaign["stimulus"],
        campaign["faults"],
        workers=2,
        progress=lambda done, total: calls.append((done, total)),
    )
    n = len(campaign["faults"])
    assert calls, "progress never fired"
    assert calls[-1] == (n, n)
    dones = [done for done, _ in calls]
    assert dones == sorted(dones)
    assert all(total == n for _, total in calls)


def test_network_untouched_by_parallel_campaign(campaign):
    """Workers mutate copy-on-write pages, never the parent's network."""
    net = campaign["net"]
    before = {k: v.copy() for k, v in net.state_dict().items()}
    simulator = FaultSimulator(net, campaign["config"])
    parallel_detect(simulator, campaign["stimulus"], campaign["faults"], workers=2)
    after = net.state_dict()
    for key in before:
        assert np.array_equal(before[key], after[key])
    for module in net.spiking_modules:
        assert not module.mode.any()


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_workers(None) == 6

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_bad_env_rejected(self, monkeypatch):
        from repro.errors import FaultModelError

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(FaultModelError):
            resolve_workers(None)


class TestShardBounds:
    def test_partition_is_exact_and_ordered(self):
        for n, workers in [(1, 1), (7, 2), (100, 4), (5, 16)]:
            bounds = shard_bounds(n, workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            assert all(hi > lo for lo, hi in bounds)

    def test_empty_catalog(self):
        assert shard_bounds(0, 4) == []

    def test_fork_probe_is_boolean(self):
        assert isinstance(fork_available(), bool)
