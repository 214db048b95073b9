"""Tests for on-chip test storage: bit-packing, golden signatures, and
loaded-artifact validation (corrupt stimuli and fault lists fail loudly)."""

import numpy as np
import pytest

from repro.core.storage import StoredTest, pack_stimulus, unpack_stimulus
from repro.core.testset import TestStimulus, validate_stimulus_chunks
from repro.errors import (
    ArtifactError,
    CheckpointError,
    FaultModelError,
    ReproError,
    TestGenerationError,
)
from repro.faults.catalog import build_catalog, validate_faults
from repro.faults.injector import inject
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)


def _stimulus(seed=0, shape=(6,)):
    rng = np.random.default_rng(seed)
    chunks = [
        (rng.random((5, 1) + shape) > 0.5).astype(float),
        (rng.random((7, 1) + shape) > 0.5).astype(float),
    ]
    return TestStimulus(chunks=chunks, input_shape=shape)


class TestPacking:
    def test_round_trip(self):
        stim = _stimulus()
        payloads, shapes = pack_stimulus(stim)
        restored = unpack_stimulus(payloads, shapes, stim.input_shape)
        for a, b in zip(stim.chunks, restored.chunks):
            assert np.array_equal(a, b)

    def test_packing_is_8x_smaller(self):
        stim = _stimulus()
        payloads, _ = pack_stimulus(stim)
        packed = sum(len(p) for p in payloads)
        raw_bits = sum(int(np.prod(c.shape)) for c in stim.chunks)
        assert packed <= raw_bits // 8 + len(stim.chunks)

    def test_conv_shaped_chunks(self):
        stim = _stimulus(shape=(2, 4, 4))
        payloads, shapes = pack_stimulus(stim)
        restored = unpack_stimulus(payloads, shapes, (2, 4, 4))
        assert restored.chunks[0].shape == (5, 1, 2, 4, 4)


class TestStoredTest:
    @pytest.fixture()
    def network(self, tiny_network):
        return tiny_network

    @pytest.fixture()
    def stored(self, network):
        rng = np.random.default_rng(1)
        chunks = [(rng.random((6, 1, 24)) > 0.5).astype(float) for _ in range(2)]
        stim = TestStimulus(chunks=chunks, input_shape=(24,))
        return StoredTest.build(network, stim)

    def test_healthy_device_passes(self, network, stored):
        assert stored.check(network, exact=True)
        assert stored.check(network, exact=False)

    def test_fault_fails_exact_check(self, network, stored):
        catalog = build_catalog(network)
        config = FaultModelConfig()
        # A saturated output neuron is always visible.
        fault = next(
            f for f in catalog.neuron_faults
            if f.module_index == network.spiking_indices[-1] and f.kind.value == "saturated"
        )
        with inject(network, fault, config):
            assert not stored.check(network, exact=True)
        assert stored.check(network, exact=True)  # restored afterwards

    def test_count_signature_detects_saturation(self, network, stored):
        catalog = build_catalog(network)
        fault = next(
            f for f in catalog.neuron_faults
            if f.module_index == network.spiking_indices[-1] and f.kind.value == "saturated"
        )
        with inject(network, fault, FaultModelConfig()):
            assert not stored.check(network, exact=False)

    def test_storage_accounting(self, stored):
        assert stored.storage_bytes >= sum(len(p) for p in stored.payloads)
        # Compact: well under the raw float64 stimulus size.
        raw = sum(int(np.prod(s)) * 8 for s in stored.shapes)
        assert stored.storage_bytes < raw / 8

    def test_save_load_round_trip(self, network, stored, tmp_path):
        path = str(tmp_path / "stored.npz")
        stored.save(path)
        loaded = StoredTest.load(path)
        assert loaded.golden_digest == stored.golden_digest
        assert np.array_equal(loaded.golden_counts, stored.golden_counts)
        assert loaded.check(network, exact=True)

    def test_load_rejects_empty(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        np.savez(path, nothing=np.zeros(1))
        with pytest.raises(TestGenerationError):
            StoredTest.load(path)

    def test_truncated_archive_raises_checkpoint_error(self, stored, tmp_path):
        path = tmp_path / "stored.npz"
        stored.save(str(path))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="stored.npz"):
            StoredTest.load(str(path))


class TestArtifactValidation:
    """Loaded artifacts are validated before use; every violation is a
    typed :class:`ReproError` subclass, not a silent garbage campaign."""

    def test_valid_chunks_pass(self):
        validate_stimulus_chunks(_stimulus().chunks, "test")

    def test_non_binary_chunk_rejected(self):
        chunks = _stimulus().chunks
        chunks[1][0, 0, 2] = 0.5
        with pytest.raises(ArtifactError, match="non-binary"):
            validate_stimulus_chunks(chunks, "test")

    def test_non_finite_chunk_rejected(self):
        chunks = _stimulus().chunks
        chunks[0][1, 0, 3] = np.nan
        with pytest.raises(ArtifactError, match="non-finite"):
            validate_stimulus_chunks(chunks, "test")

    def test_stimulus_load_rejects_corrupt_values(self, tmp_path):
        path = str(tmp_path / "stim.npz")
        bad = np.full((4, 1, 6), 3.0)  # uint8-representable but non-binary
        np.savez(path, chunk0=bad.astype(np.uint8))
        with pytest.raises(ArtifactError):
            TestStimulus.load(path, (6,))

    def test_stimulus_save_load_round_trip_validates_clean(self, tmp_path):
        stim = _stimulus()
        path = str(tmp_path / "stim.npz")
        stim.save(path)
        loaded = TestStimulus.load(path, stim.input_shape)
        for a, b in zip(stim.chunks, loaded.chunks):
            assert np.array_equal(a, b)

    def test_truncated_stimulus_archive_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "stim.npz"
        _stimulus().save(str(path))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="stim.npz"):
            TestStimulus.load(str(path), (6,))

    def test_torn_payload_rejected(self):
        stim = _stimulus()
        payloads, shapes = pack_stimulus(stim)
        torn = [payloads[0], payloads[1][:-2]]  # drop trailing bytes
        with pytest.raises(ArtifactError, match="torn"):
            unpack_stimulus(torn, shapes, stim.input_shape)

    def test_errors_are_typed(self):
        assert issubclass(ArtifactError, ReproError)
        assert issubclass(FaultModelError, ReproError)


class TestFaultDescriptorValidation:
    def test_catalog_is_valid_by_construction(self, tiny_network):
        catalog = build_catalog(tiny_network)
        validate_faults(tiny_network, catalog.faults)

    def test_bad_module_index_rejected(self, tiny_network):
        fault = NeuronFault(
            module_index=99, neuron_index=0, kind=NeuronFaultKind.DEAD
        )
        with pytest.raises(FaultModelError, match="module 99"):
            validate_faults(tiny_network, [fault])

    def test_out_of_range_neuron_rejected(self, tiny_network):
        module_index = int(tiny_network.spiking_indices[0])
        count = tiny_network.modules[module_index].neuron_count
        fault = NeuronFault(
            module_index=module_index, neuron_index=count, kind=NeuronFaultKind.DEAD
        )
        with pytest.raises(FaultModelError, match=f"{count} neurons"):
            validate_faults(tiny_network, [fault])

    def test_out_of_range_weight_rejected(self, tiny_network):
        module_index = int(tiny_network.spiking_indices[0])
        size = int(tiny_network.modules[module_index].parameters()[0].size)
        fault = SynapseFault(
            module_index=module_index,
            parameter_index=0,
            weight_index=size,
            kind=SynapseFaultKind.DEAD,
        )
        with pytest.raises(FaultModelError, match=f"{size} weights"):
            validate_faults(tiny_network, [fault])

    def test_out_of_range_parameter_rejected(self, tiny_network):
        # parameter_index 1 is legal for the descriptor (recurrent weight)
        # but DenseLIF modules expose a single parameter.
        module_index = int(tiny_network.spiking_indices[0])
        fault = SynapseFault(
            module_index=module_index,
            parameter_index=1,
            weight_index=0,
            kind=SynapseFaultKind.DEAD,
        )
        with pytest.raises(FaultModelError, match="parameter 1"):
            validate_faults(tiny_network, [fault])

    def test_out_of_range_bit_rejected(self, tiny_network):
        # bit 12 is a legal descriptor (below MAX_WEIGHT_BITS) but exceeds
        # the configured 8-bit word — a replayed catalog built under a
        # wider word must be rejected, not silently aliased mod 8.
        from repro.faults.model import FaultModelConfig

        module_index = int(tiny_network.spiking_indices[0])
        fault = SynapseFault(
            module_index=module_index,
            parameter_index=0,
            weight_index=0,
            kind=SynapseFaultKind.BITFLIP,
            bit=12,
        )
        validate_faults(tiny_network, [fault])  # no config: descriptor-only
        with pytest.raises(FaultModelError, match="only 8 bits wide"):
            validate_faults(
                tiny_network, [fault], config=FaultModelConfig(weight_bits=8)
            )
        validate_faults(
            tiny_network, [fault], config=FaultModelConfig(weight_bits=16)
        )

    def test_window_beyond_test_rejected(self, tiny_network):
        # A transient window starting at or after the test's end can never
        # activate — certainly a unit mismatch in a hand-built catalog.
        module_index = int(tiny_network.spiking_indices[0])
        fault = NeuronFault(
            module_index=module_index,
            neuron_index=0,
            kind=NeuronFaultKind.DEAD,
            window=(10, 14),
        )
        validate_faults(tiny_network, [fault])  # no duration: window unchecked
        with pytest.raises(FaultModelError, match="never activates"):
            validate_faults(tiny_network, [fault], duration_steps=10)
        validate_faults(tiny_network, [fault], duration_steps=11)

    def test_verify_coverage_rejects_mismatched_faults(self, tiny_network):
        from repro.core.coverage import verify_coverage

        stim = TestStimulus(
            chunks=[np.zeros((4, 1, 24))], input_shape=(24,)
        )
        fault = NeuronFault(
            module_index=99, neuron_index=0, kind=NeuronFaultKind.DEAD
        )
        with pytest.raises(FaultModelError):
            verify_coverage(tiny_network, stim, [fault])

    def test_verify_coverage_rejects_window_beyond_test(self, tiny_network):
        # The campaign entry point passes the stimulus duration through to
        # validate_faults, so a never-active transient fails fast instead
        # of silently counting as undetected for the whole campaign.
        from repro.core.coverage import verify_coverage

        stim = TestStimulus(chunks=[np.zeros((4, 1, 24))], input_shape=(24,))
        module_index = int(tiny_network.spiking_indices[0])
        fault = NeuronFault(
            module_index=module_index,
            neuron_index=0,
            kind=NeuronFaultKind.DEAD,
            window=(stim.duration_steps, stim.duration_steps + 4),
        )
        with pytest.raises(FaultModelError, match="never activates"):
            verify_coverage(tiny_network, stim, [fault])
