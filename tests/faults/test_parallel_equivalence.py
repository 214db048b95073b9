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
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import (
    fork_available,
    parallel_classify,
    parallel_detect,
    parallel_detect_segmented,
    resolve_workers,
    shard_bounds,
)
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore
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
        """One interleaved slice per worker: together the slices hold
        every fault once, their starts ascend from 0, and their sizes
        differ by at most one."""
        for n, workers in [(1, 1), (7, 2), (100, 4), (5, 16)]:
            shards = shard_bounds(n, workers)
            assert len(shards) == min(n, workers)
            assert [start for start, _, _ in shards] == list(range(len(shards)))
            held = sorted(i for shard in shards for i in range(*shard))
            assert held == list(range(n))
            sizes = [len(range(*shard)) for shard in shards]
            assert min(sizes) > 0 and max(sizes) - min(sizes) <= 1

    def test_empty_catalog(self):
        assert shard_bounds(0, 4) == []

    def test_fork_probe_is_boolean(self):
        assert isinstance(fork_available(), bool)


# ----------------------------------------------------------------------
# Partitions of segment-wise campaigns
# ----------------------------------------------------------------------
PARTITION_NETS = {
    "dense": ((12,), (DenseSpec(out_features=10), DenseSpec(out_features=4))),
    "conv-pool-conv": ((2, 6, 6), (
        ConvSpec(out_channels=3, kernel=3, padding=1),
        PoolSpec(2),
        ConvSpec(out_channels=3, kernel=3, padding=1),
        FlattenSpec(),
        DenseSpec(out_features=4),
    )),
    "recurrent": ((10,), (RecurrentSpec(out_features=7), DenseSpec(out_features=4))),
}

_FIELDS = ("detected", "output_l1", "class_count_diff")


@pytest.fixture(scope="module")
def partition_campaigns():
    """Per net: a mixed fault list, a three-chunk test and the serial
    segment-wise results with fault dropping on and off."""
    campaigns = {}
    for seed, (name, (input_shape, layers)) in enumerate(PARTITION_NETS.items()):
        spec = NetworkSpec(
            name=f"partition-{name}", input_shape=input_shape, layers=layers,
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        )
        net = build_network(spec, np.random.default_rng(seed))
        config = FaultModelConfig()
        faults = _mixed_faults(net, config, per_kind=30)
        rng = np.random.default_rng(10 + seed)
        stimulus = TestStimulus(
            chunks=[
                (rng.random((d, 1) + input_shape) < 0.45).astype(float) for d in (4, 3, 5)
            ],
            input_shape=input_shape,
        )
        simulator = FaultSimulator(net, config)
        campaigns[name] = dict(
            simulator=simulator, faults=faults, stimulus=stimulus,
            serial={
                drop: simulator.detect_segmented(stimulus, faults, drop_detected=drop)
                for drop in (True, False)
            },
        )
    return campaigns


def _contiguous_blocks(n, blocks):
    """The contiguous ``[lo, hi)`` blocks earlier versions cut, as slices."""
    edges = np.linspace(0, n, blocks + 1, dtype=np.int64).tolist()
    return [(lo, hi, 1) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _assert_serial(serial, arrays):
    for name in _FIELDS:
        expected = getattr(serial, name)
        assert arrays[name].dtype == expected.dtype, name
        assert arrays[name].tobytes() == expected.tobytes(), name


@settings(
    max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    net=st.sampled_from(sorted(PARTITION_NETS)),
    drop=st.booleans(),
    with_store=st.booleans(),
    partition=st.one_of(
        st.tuples(st.just("interleaved"), st.integers(1, 4)),
        st.tuples(st.just("contiguous"), st.integers(1, 8)),
    ),
)
def test_any_partition_merges_to_the_serial_campaign(
    partition_campaigns, net, drop, with_store, partition
):
    """Each shard of a partition run as a campaign of its own, its fields
    written at the shard's slice, gives the serial campaign's arrays byte
    for byte: interleaved slices at 1-4 workers and contiguous blocks
    alike, with fault dropping on and off, with and without a coverage
    store (read back warm by a second pass)."""
    campaign = partition_campaigns[net]
    simulator, faults = campaign["simulator"], campaign["faults"]
    layout, count = partition
    shards = (
        shard_bounds(len(faults), count) if layout == "interleaved"
        else _contiguous_blocks(len(faults), count)
    )
    serial = campaign["serial"][drop]
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root) if with_store else None
        for _ in range(2 if with_store else 1):
            merged = {name: np.zeros_like(getattr(serial, name)) for name in _FIELDS}
            for shard in shards:
                part = simulator.detect_segmented(
                    campaign["stimulus"], faults[slice(*shard)],
                    drop_detected=drop, store=store,
                )
                for name in _FIELDS:
                    merged[name][slice(*shard)] = getattr(part, name)
            _assert_serial(serial, merged)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("net", sorted(PARTITION_NETS))
def test_pooled_interleaved_shards_match_serial(
    partition_campaigns, tmp_path, net, workers
):
    """The supervised pool over one interleaved shard per worker: the
    serial arrays with dropping and no store, and with exact metrics
    against a store."""
    campaign = partition_campaigns[net]
    for drop, store in ((True, None), (False, CoverageStore(tmp_path / "store"))):
        result = parallel_detect_segmented(
            campaign["simulator"], campaign["stimulus"], campaign["faults"],
            workers=workers, drop_detected=drop, store=store,
        )
        assert result.health.workers == workers
        _assert_serial(campaign["serial"][drop], {
            name: getattr(result, name) for name in _FIELDS
        })
