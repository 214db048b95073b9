"""Tests for fault descriptors and bit-flip arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultModelError
from repro.faults.bitflip import (
    bitflip_value,
    flip_bit,
    int8_scale,
    quant_scale,
    quantize_code,
    quantize_int8,
)
from repro.faults.injector import synapse_fault_value, synapse_fault_values
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)


class TestDescriptors:
    def test_neuron_fault_describe(self):
        f = NeuronFault(2, 7, NeuronFaultKind.DEAD)
        assert "neuron[2][7]:dead" == f.describe()

    def test_neuron_fault_rejects_negative(self):
        with pytest.raises(FaultModelError):
            NeuronFault(-1, 0, NeuronFaultKind.DEAD)

    def test_timing_kinds_flagged(self):
        assert NeuronFaultKind.TIMING_LEAK.is_timing
        assert not NeuronFaultKind.DEAD.is_timing

    def test_synapse_fault_describe(self):
        f = SynapseFault(1, 0, 42, SynapseFaultKind.BITFLIP, bit=6)
        assert "synapse[1][p0][42]:bitflip:b6" == f.describe()

    def test_bitflip_requires_bit(self):
        with pytest.raises(FaultModelError):
            SynapseFault(0, 0, 0, SynapseFaultKind.BITFLIP)

    def test_bit_only_on_bitflip(self):
        with pytest.raises(FaultModelError):
            SynapseFault(0, 0, 0, SynapseFaultKind.DEAD, bit=3)

    def test_bit_range(self):
        # Descriptors accept any bit below the widest supported word
        # (32 bits); per-config word-width checks live in validate_faults.
        SynapseFault(0, 0, 0, SynapseFaultKind.BITFLIP, bit=31)
        with pytest.raises(FaultModelError):
            SynapseFault(0, 0, 0, SynapseFaultKind.BITFLIP, bit=32)
        with pytest.raises(FaultModelError):
            SynapseFault(0, 0, 0, SynapseFaultKind.BITFLIP, bit=-1)

    def test_parameter_index_restricted(self):
        with pytest.raises(FaultModelError):
            SynapseFault(0, 2, 0, SynapseFaultKind.DEAD)

    def test_descriptors_hashable(self):
        a = NeuronFault(0, 1, NeuronFaultKind.DEAD)
        b = NeuronFault(0, 1, NeuronFaultKind.DEAD)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_is_neuron_property(self):
        assert NeuronFault(0, 0, NeuronFaultKind.DEAD).is_neuron
        assert not SynapseFault(0, 0, 0, SynapseFaultKind.DEAD).is_neuron


class TestFaultModelConfig:
    def test_defaults_valid(self):
        FaultModelConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timing_threshold_factor": 0.0},
            {"timing_leak_factor": 1.5},
            {"timing_refractory_extra": -1},
            {"saturation_multiplier": 0.0},
            {"bitflip_bit": 9},
            {"neuron_sample_fraction": 0.0},
            {"synapse_sample_fraction": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(FaultModelError):
            FaultModelConfig(**kwargs)


class TestBitflip:
    def test_scale_maps_peak_to_127(self):
        w = np.array([0.5, -1.27, 0.1])
        assert np.isclose(int8_scale(w), 0.01)

    def test_scale_of_zero_weights(self):
        assert int8_scale(np.zeros(3)) > 0

    def test_quantize_round_trip(self):
        scale = 0.01
        assert quantize_int8(0.5, scale) == 50
        assert quantize_int8(-0.5, scale) == -50

    def test_quantize_clips(self):
        assert quantize_int8(100.0, 0.01) == 127
        assert quantize_int8(-100.0, 0.01) == -128

    def test_quantize_rejects_bad_scale(self):
        with pytest.raises(FaultModelError):
            quantize_int8(0.5, 0.0)

    def test_flip_lsb(self):
        assert flip_bit(0, 0) == 1
        assert flip_bit(1, 0) == 0

    def test_flip_sign_bit(self):
        assert flip_bit(0, 7) == -128
        assert flip_bit(-128, 7) == 0
        assert flip_bit(1, 7) == -127

    def test_flip_out_of_range(self):
        with pytest.raises(FaultModelError):
            flip_bit(0, 8)
        with pytest.raises(FaultModelError):
            flip_bit(200, 0)

    @given(st.integers(min_value=-128, max_value=127), st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_property_involution(self, code, bit):
        assert flip_bit(flip_bit(code, bit), bit) == code

    @given(st.integers(min_value=-128, max_value=127), st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_property_stays_int8(self, code, bit):
        assert -128 <= flip_bit(code, bit) <= 127

    def test_bitflip_value_high_bit_large_change(self):
        scale = 0.01
        original = 0.1  # code 10
        flipped = bitflip_value(original, 6, scale)  # code 10 ^ 64 = 74
        assert np.isclose(flipped, 0.74)


def _fault_value_per_fault(weights, fault, config):
    """The per-fault computation :func:`synapse_fault_values` replaced:
    the tensor's peak and quantization scales recomputed for each fault."""
    if fault.kind is SynapseFaultKind.DEAD:
        return 0.0
    if fault.kind is SynapseFaultKind.SATURATED_POSITIVE:
        return config.saturation_multiplier * float(np.abs(weights).max())
    if fault.kind is SynapseFaultKind.SATURATED_NEGATIVE:
        return -config.saturation_multiplier * float(np.abs(weights).max())
    bits = config.weight_bits
    value = bitflip_value(
        float(weights.reshape(-1)[fault.weight_index]), fault.bit,
        quant_scale(weights, bits), bits,
    )
    if config.datapath_bits is not None:
        grid = quant_scale(weights, config.datapath_bits)
        value = quantize_code(value, grid, config.datapath_bits) * grid
    return value


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    weight_bits=st.integers(2, 12),
    narrow=st.integers(0, 10),
    zero=st.booleans(),
)
def test_per_tensor_fault_values_equal_per_fault_ones(seed, size, weight_bits, narrow, zero):
    rng = np.random.default_rng(seed)
    weights = np.zeros((size, 3)) if zero else rng.normal(0.0, 2.0, (size, 3))
    datapath = weight_bits - narrow if narrow < weight_bits - 1 else None
    config = FaultModelConfig(weight_bits=weight_bits, datapath_bits=datapath, bitflip_bit=0)
    faults = []
    for _ in range(20):
        kind = list(SynapseFaultKind)[rng.integers(len(SynapseFaultKind))]
        bit = int(rng.integers(weight_bits)) if kind is SynapseFaultKind.BITFLIP else None
        faults.append(SynapseFault(0, 0, int(rng.integers(weights.size)), kind, bit=bit))
    got = synapse_fault_values(weights, faults, config)
    want = [_fault_value_per_fault(weights, fault, config) for fault in faults]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert [synapse_fault_value(weights, f, config) for f in faults] == got
