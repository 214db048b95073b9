"""Tests for test assembly (Eqs. 7-8), the generator loop, config
validation, and the final coverage verification."""

import numpy as np
import pytest

from repro.core import TestGenConfig, TestGenerator, TestStimulus, verify_coverage
from repro.errors import ConfigurationError, TestGenerationError
from repro.faults import FaultModelConfig, build_catalog
from repro.faults.simulator import FaultSimulator


def _chunk(duration, shape=(5,), value=1.0):
    chunk = np.zeros((duration, 1) + shape)
    chunk[0] = value
    return chunk


class TestTestStimulus:
    def test_duration_eq8(self):
        # T_test = 2*3 + 2*4 + 5 = 19
        stim = TestStimulus(chunks=[_chunk(3), _chunk(4), _chunk(5)], input_shape=(5,))
        assert stim.duration_steps == 19

    def test_single_chunk_no_sleep(self):
        stim = TestStimulus(chunks=[_chunk(7)], input_shape=(5,))
        assert stim.duration_steps == 7

    def test_assembled_matches_eq7(self):
        a, b = _chunk(2), _chunk(3)
        stim = TestStimulus(chunks=[a, b], input_shape=(5,))
        out = stim.assembled()
        assert out.shape == (2 + 2 + 3, 1, 5)
        assert np.array_equal(out[:2], a)
        assert np.all(out[2:4] == 0.0)  # sleep gap equal to chunk 1 length
        assert np.array_equal(out[4:], b)

    def test_duration_samples(self):
        stim = TestStimulus(chunks=[_chunk(10), _chunk(10)], input_shape=(5,))
        assert stim.duration_samples(10) == 3.0

    def test_duration_samples_validation(self):
        stim = TestStimulus(chunks=[_chunk(4)], input_shape=(5,))
        with pytest.raises(TestGenerationError):
            stim.duration_samples(0)

    def test_storage_bits(self):
        stim = TestStimulus(chunks=[_chunk(3), _chunk(4)], input_shape=(5,))
        assert stim.storage_bits() == (3 + 4) * 5

    def test_rejects_empty(self):
        with pytest.raises(TestGenerationError):
            TestStimulus(chunks=[], input_shape=(5,))

    def test_rejects_bad_chunk_shape(self):
        with pytest.raises(TestGenerationError):
            TestStimulus(chunks=[np.zeros((4, 2, 5))], input_shape=(5,))

    def test_save_load_round_trip(self, tmp_path):
        stim = TestStimulus(chunks=[_chunk(3), _chunk(4)], input_shape=(5,))
        path = str(tmp_path / "test.npz")
        stim.save(path)
        loaded = TestStimulus.load(path, (5,))
        assert len(loaded.chunks) == 2
        for a, b in zip(stim.chunks, loaded.chunks):
            assert np.array_equal(a, b)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_in_min": 0},
            {"t_in_start": 0},
            {"t_in_max": 2, "t_in_start": 4},
            {"td_min": -1},
            {"steps_stage1": 0},
            {"steps_stage2": 0},
            {"beta": 0},
            {"max_growths": -1},
            {"tau_min": 0.0},
            {"tau_min": 0.95},  # > tau_max
            {"tau_decay": 1.0},
            {"lr": 0.0},
            {"gumbel_noise": -1.0},
            {"stage2_constancy_weight": -1.0},
            {"time_limit_s": 0.0},
            {"max_iterations": 0},
            {"stall_iterations": 0},
            {"activation_threshold": 0},
            {"surrogate_slope": 0.0},
            {"probe_steps": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TestGenConfig(**kwargs)

    def test_stage2_default_half(self):
        assert TestGenConfig(steps_stage1=100).effective_steps_stage2 == 50
        assert TestGenConfig(steps_stage1=100, steps_stage2=7).effective_steps_stage2 == 7

    def test_td_min_rule(self):
        assert TestGenConfig().effective_td_min(40) == 4
        assert TestGenConfig().effective_td_min(5) == 2  # floor
        assert TestGenConfig(td_min=9).effective_td_min(40) == 9


class TestGeneratorEndToEnd:
    @pytest.fixture(scope="class")
    def generation(self, tiny_network):
        config = TestGenConfig(
            steps_stage1=60,
            probe_steps=100,
            max_iterations=5,
            time_limit_s=120,
            t_in_max=48,
        )
        generator = TestGenerator(tiny_network, config, rng=np.random.default_rng(7))
        return generator, generator.generate()

    def test_produces_chunks(self, generation):
        _, result = generation
        assert 1 <= result.num_chunks <= 5
        assert result.runtime_s > 0

    def test_activation_monotone_nondecreasing(self, generation):
        _, result = generation
        totals = [r.activated_total for r in result.iterations]
        assert totals == sorted(totals)

    def test_activation_beats_random_sample(self, generation, tiny_network, tiny_dataset):
        generator, result = generation
        sample, _ = tiny_dataset.sample(0)
        random_acts = generator.activation_sets(sample)
        random_fraction = sum(a.sum() for a in random_acts) / sum(a.size for a in random_acts)
        assert result.activated_fraction > random_fraction

    def test_activated_sets_consistent_with_stimulus(self, generation, tiny_network):
        generator, result = generation
        # Re-simulating every chunk must reproduce at least the recorded set.
        seen = [np.zeros_like(a) for a in result.activated_per_layer]
        for chunk in result.stimulus.chunks:
            for known, new in zip(seen, generator.activation_sets(chunk)):
                known |= new
        for recorded, replayed in zip(result.activated_per_layer, seen):
            assert np.array_equal(recorded, replayed)

    def test_surrogate_slope_restored(self, generation, tiny_network):
        for module in tiny_network.spiking_modules:
            assert module.surrogate_slope == module.params.surrogate_slope

    def test_stimulus_is_binary(self, generation):
        _, result = generation
        for chunk in result.stimulus.chunks:
            assert set(np.unique(chunk)).issubset({0.0, 1.0})

    def test_reports_have_diagnostics(self, generation):
        _, result = generation
        for report in result.iterations:
            assert report.duration >= 1
            assert np.isfinite(report.stage1_loss)

    def test_verify_coverage_runs(self, generation, tiny_network, tiny_dataset):
        _, result = generation
        fault_config = FaultModelConfig(synapse_sample_fraction=0.1)
        catalog = build_catalog(tiny_network, fault_config, rng=np.random.default_rng(0))
        detection, breakdown = verify_coverage(
            tiny_network, result.stimulus, catalog.faults, fault_config
        )
        assert breakdown is None
        assert detection.detected.shape == (len(catalog.faults),)
        assert detection.detection_rate() > 0.3

    def test_verify_coverage_with_labels(self, generation, tiny_network, tiny_dataset):
        _, result = generation
        fault_config = FaultModelConfig(synapse_sample_fraction=0.1)
        catalog = build_catalog(tiny_network, fault_config, rng=np.random.default_rng(0))
        simulator = FaultSimulator(tiny_network, fault_config)
        inputs, labels = tiny_dataset.subset(10, "test")
        classification = simulator.classify(inputs, labels, catalog.faults)
        detection, breakdown = verify_coverage(
            tiny_network, result.stimulus, catalog.faults, fault_config, classification
        )
        assert breakdown is not None
        assert breakdown.fc_critical_neuron >= breakdown.fc_benign_neuron * 0.5

    def test_time_limit_respected(self, tiny_network):
        config = TestGenConfig(
            steps_stage1=10_000, probe_steps=5, t_in_min=6, time_limit_s=1.0,
            max_iterations=50,
        )
        generator = TestGenerator(tiny_network, config, rng=np.random.default_rng(0))
        import time

        start = time.perf_counter()
        result = generator.generate()
        assert time.perf_counter() - start < 30.0
        assert result.num_chunks >= 1


class TestActivationMemo:
    """``activation_sets`` memoizes by stimulus content without holding a
    copy of each stimulus."""

    @staticmethod
    def _counting(generator, monkeypatch):
        calls = []
        run_modules = generator.network.run_modules

        def counted(*args, **kwargs):
            calls.append(1)
            return run_modules(*args, **kwargs)

        monkeypatch.setattr(generator.network, "run_modules", counted)
        return calls

    @staticmethod
    def _stimulus(network, seed, steps=12):
        rng = np.random.default_rng(seed)
        return (rng.random((steps, 1) + network.input_shape) < 0.3).astype(np.float64)

    def test_equal_stimuli_hit(self, tiny_network, monkeypatch):
        generator = TestGenerator(tiny_network, TestGenConfig())
        calls = self._counting(generator, monkeypatch)
        stimulus = self._stimulus(tiny_network, 0)
        first = generator.activation_sets(stimulus)
        again = generator.activation_sets(stimulus.copy())
        assert again is first
        assert len(calls) == 1
        # The fused bookkeeping agrees with the per-step network run.
        threshold = generator.config.activation_threshold
        oracle = [
            rec[:, 0, :].sum(axis=0) >= threshold
            for rec in tiny_network.run_spiking_layers(stimulus)
        ]
        assert all(np.array_equal(a, b) for a, b in zip(first, oracle))

    def test_one_spike_change_misses(self, tiny_network, monkeypatch):
        generator = TestGenerator(tiny_network, TestGenConfig())
        calls = self._counting(generator, monkeypatch)
        stimulus = self._stimulus(tiny_network, 1)
        generator.activation_sets(stimulus)
        flipped = stimulus.copy()
        flipped[3, 0, 5] = 1.0 - flipped[3, 0, 5]
        generator.activation_sets(flipped)
        assert len(calls) == 2

    def test_memo_stays_bounded(self, tiny_network):
        generator = TestGenerator(tiny_network, TestGenConfig())
        for seed in range(200):
            generator.activation_sets(self._stimulus(tiny_network, seed, steps=4))
            assert len(generator._activation_cache) <= 128
        # Keys carry a digest, not the stimulus bytes.
        for key in generator._activation_cache:
            assert sum(len(part) for part in key if isinstance(part, bytes)) <= 32
