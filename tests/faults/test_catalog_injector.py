"""Tests for fault catalog enumeration and reversible injection."""

import numpy as np
import pytest

from repro.errors import FaultModelError, InjectionError
from repro.faults.catalog import build_catalog, validate_faults
from repro.faults.injector import inject
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.snn.builder import DenseSpec, NetworkSpec, RecurrentSpec, build_network
from repro.snn.neuron import LIFParameters, MODE_DEAD, MODE_SATURATED


def _net(seed=0):
    spec = NetworkSpec(
        name="t",
        input_shape=(6,),
        layers=(DenseSpec(out_features=5), DenseSpec(out_features=3)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(seed))


def _rec_net():
    spec = NetworkSpec(
        name="r",
        input_shape=(4,),
        layers=(RecurrentSpec(out_features=4), DenseSpec(out_features=2)),
    )
    return build_network(spec, np.random.default_rng(0))


class TestCatalog:
    def test_exhaustive_counts(self):
        net = _net()
        catalog = build_catalog(net)
        # 8 neurons x 5 kinds
        assert len(catalog.neuron_faults) == 8 * 5
        # (30 + 15) weights x 4 kinds
        assert len(catalog.synapse_faults) == 45 * 4
        assert len(catalog) == 40 + 180

    def test_recurrent_weights_included(self):
        catalog = build_catalog(_rec_net())
        recurrent = [f for f in catalog.synapse_faults if f.parameter_index == 1]
        assert len(recurrent) == 16 * 4

    def test_sampling_reduces_count(self):
        config = FaultModelConfig(synapse_sample_fraction=0.5)
        catalog = build_catalog(_net(), config, rng=np.random.default_rng(0))
        exhaustive = build_catalog(_net())
        assert len(catalog.synapse_faults) < len(exhaustive.synapse_faults)
        assert len(catalog.neuron_faults) == len(exhaustive.neuron_faults)

    def test_sampling_deterministic(self):
        config = FaultModelConfig(synapse_sample_fraction=0.3)
        a = build_catalog(_net(), config, rng=np.random.default_rng(7))
        b = build_catalog(_net(), config, rng=np.random.default_rng(7))
        assert a.synapse_faults == b.synapse_faults

    def test_sampling_requires_rng(self):
        config = FaultModelConfig(synapse_sample_fraction=0.5)
        with pytest.raises(Exception):
            build_catalog(_net(), config)

    def test_bitflip_fixed_bit(self):
        config = FaultModelConfig(
            synapse_kinds=(SynapseFaultKind.BITFLIP,), bitflip_bit=3
        )
        catalog = build_catalog(_net(), config)
        assert all(f.bit == 3 for f in catalog.synapse_faults)

    def test_bitflip_random_bits(self):
        config = FaultModelConfig(
            synapse_kinds=(SynapseFaultKind.BITFLIP,), bitflip_bit=None
        )
        catalog = build_catalog(_net(), config, rng=np.random.default_rng(1))
        bits = {f.bit for f in catalog.synapse_faults}
        assert len(bits) > 1

    def test_kind_filtering(self):
        config = FaultModelConfig(
            neuron_kinds=(NeuronFaultKind.DEAD,),
            synapse_kinds=(),
        )
        catalog = build_catalog(_net(), config)
        assert len(catalog.neuron_faults) == 8
        assert not catalog.synapse_faults

    def test_summary(self):
        assert "neuron faults" in build_catalog(_net()).summary()


class TestNeuronInjection:
    def test_dead_sets_mode_and_restores(self):
        net = _net()
        module = net.modules[0]
        fault = NeuronFault(0, 2, NeuronFaultKind.DEAD)
        with inject(net, fault, FaultModelConfig()):
            assert module.mode[2] == MODE_DEAD
        assert module.mode[2] == 0

    def test_saturated_sets_mode(self):
        net = _net()
        fault = NeuronFault(0, 1, NeuronFaultKind.SATURATED)
        with inject(net, fault, FaultModelConfig()):
            assert net.modules[0].mode[1] == MODE_SATURATED

    def test_timing_threshold_scales(self):
        net = _net()
        config = FaultModelConfig(timing_threshold_factor=2.0)
        before = net.modules[0].threshold[3]
        with inject(net, NeuronFault(0, 3, NeuronFaultKind.TIMING_THRESHOLD), config):
            assert np.isclose(net.modules[0].threshold[3], before * 2.0)
        assert np.isclose(net.modules[0].threshold[3], before)

    def test_timing_leak_scales(self):
        net = _net()
        config = FaultModelConfig(timing_leak_factor=0.5)
        before = net.modules[0].leak[0]
        with inject(net, NeuronFault(0, 0, NeuronFaultKind.TIMING_LEAK), config):
            assert np.isclose(net.modules[0].leak[0], before * 0.5)
        assert np.isclose(net.modules[0].leak[0], before)

    def test_timing_refractory_adds(self):
        net = _net()
        config = FaultModelConfig(timing_refractory_extra=3)
        before = net.modules[0].refractory_steps[4]
        with inject(net, NeuronFault(0, 4, NeuronFaultKind.TIMING_REFRACTORY), config):
            assert net.modules[0].refractory_steps[4] == before + 3
        assert net.modules[0].refractory_steps[4] == before

    def test_restores_on_exception(self):
        net = _net()
        fault = NeuronFault(0, 2, NeuronFaultKind.DEAD)
        with pytest.raises(RuntimeError):
            with inject(net, fault, FaultModelConfig()):
                raise RuntimeError("boom")
        assert net.modules[0].mode[2] == 0

    def test_yields_module_index(self):
        net = _net()
        with inject(net, NeuronFault(1, 0, NeuronFaultKind.DEAD), FaultModelConfig()) as idx:
            assert idx == 1

    def test_rejects_out_of_range_module(self):
        net = _net()
        with pytest.raises(InjectionError):
            with inject(net, NeuronFault(9, 0, NeuronFaultKind.DEAD), FaultModelConfig()):
                pass


class TestSynapseInjection:
    def test_dead_zeroes_weight(self):
        net = _net()
        weights = net.modules[0].weight.data
        before = weights.reshape(-1)[4]
        assert before != 0.0
        with inject(net, SynapseFault(0, 0, 4, SynapseFaultKind.DEAD), FaultModelConfig()):
            assert weights.reshape(-1)[4] == 0.0
        assert weights.reshape(-1)[4] == before

    def test_saturated_positive_is_outlier(self):
        net = _net()
        config = FaultModelConfig(saturation_multiplier=2.0)
        weights = net.modules[0].weight.data
        peak = np.abs(weights).max()
        with inject(net, SynapseFault(0, 0, 0, SynapseFaultKind.SATURATED_POSITIVE), config):
            assert np.isclose(weights.reshape(-1)[0], 2.0 * peak)

    def test_saturated_negative(self):
        net = _net()
        config = FaultModelConfig(saturation_multiplier=2.0)
        weights = net.modules[0].weight.data
        peak = np.abs(weights).max()
        with inject(net, SynapseFault(0, 0, 1, SynapseFaultKind.SATURATED_NEGATIVE), config):
            assert np.isclose(weights.reshape(-1)[1], -2.0 * peak)

    def test_bitflip_changes_value(self):
        net = _net()
        weights = net.modules[0].weight.data
        before = weights.reshape(-1)[2]
        with inject(net, SynapseFault(0, 0, 2, SynapseFaultKind.BITFLIP, bit=6), FaultModelConfig()):
            assert weights.reshape(-1)[2] != before
        assert weights.reshape(-1)[2] == before

    def test_recurrent_weight_targetable(self):
        net = _rec_net()
        rec = net.modules[0].recurrent_weight.data
        before = rec.reshape(-1)[5]
        with inject(net, SynapseFault(0, 1, 5, SynapseFaultKind.DEAD), FaultModelConfig()):
            assert rec.reshape(-1)[5] == 0.0
        assert rec.reshape(-1)[5] == before

    def test_rejects_bad_weight_index(self):
        net = _net()
        with pytest.raises(InjectionError):
            with inject(net, SynapseFault(0, 0, 10_000, SynapseFaultKind.DEAD), FaultModelConfig()):
                pass

    def test_rejects_bad_parameter_index(self):
        net = _net()
        with pytest.raises(InjectionError):
            with inject(net, SynapseFault(0, 1, 0, SynapseFaultKind.DEAD), FaultModelConfig()):
                pass

    def test_rejects_non_spiking_module(self):
        from repro.snn.builder import ConvSpec, FlattenSpec, PoolSpec

        spec = NetworkSpec(
            name="c",
            input_shape=(1, 4, 4),
            layers=(ConvSpec(out_channels=2, kernel=3, padding=1), PoolSpec(2),
                    FlattenSpec(), DenseSpec(out_features=2)),
        )
        net = build_network(spec, np.random.default_rng(0))
        with pytest.raises(InjectionError):
            with inject(net, NeuronFault(1, 0, NeuronFaultKind.DEAD), FaultModelConfig()):
                pass


class TestValidateFaults:
    """A bad descriptor after thousands of good ones is reported with its
    own index and the message of its kind; later bad ones are not."""

    @pytest.mark.parametrize(
        "bad, problem",
        [
            (
                NeuronFault(module_index=7, neuron_index=0, kind=NeuronFaultKind.DEAD),
                "targets module 7, which is not a spiking module of this network",
            ),
            (
                NeuronFault(module_index=0, neuron_index=5, kind=NeuronFaultKind.DEAD),
                "targets neuron 5, but module 0 has 5 neurons",
            ),
            (
                SynapseFault(module_index=0, parameter_index=1, weight_index=0,
                             kind=SynapseFaultKind.DEAD),
                "targets parameter 1, but module 0 has 1 parameters",
            ),
            (
                SynapseFault(module_index=1, parameter_index=0, weight_index=15,
                             kind=SynapseFaultKind.DEAD),
                "targets weight 15, but the parameter holds 15 weights",
            ),
            (
                SynapseFault(module_index=0, parameter_index=0, weight_index=3,
                             kind=SynapseFaultKind.BITFLIP, bit=9),
                "flips bit 9, but the configured weight word is only 8 bits wide",
            ),
            (
                NeuronFault(module_index=1, neuron_index=2, kind=NeuronFaultKind.DEAD,
                            window=(40, 45)),
                "has window [40, 45), which never activates within the 40-step test",
            ),
        ],
    )
    def test_first_bad_descriptor_is_reported_with_its_index(self, bad, problem):
        net = _net()
        config = FaultModelConfig()
        good = build_catalog(net, config).faults * 15
        assert len(good) > 3000
        later = NeuronFault(module_index=9, neuron_index=0, kind=NeuronFaultKind.DEAD)
        faults = good + [bad] + good[:100] + [later]
        with pytest.raises(FaultModelError) as raised:
            validate_faults(net, faults, config=config, duration_steps=40)
        assert str(raised.value) == f"fault {len(good)} ({bad.describe()}) {problem}"
        validate_faults(net, good, config=config, duration_steps=40)
