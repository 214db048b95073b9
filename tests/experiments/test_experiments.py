"""Tests for benchmark definitions, the cached pipeline, and reports.

Pipeline tests run at tiny scale into a temp results dir; caching
behaviour is validated by re-instantiating pipelines.
"""

import json
import shutil

import numpy as np
import pytest

from repro.errors import ArtifactError, CheckpointError, ConfigurationError
from repro.experiments import (
    BENCHMARK_NAMES,
    ExperimentPipeline,
    get_benchmark,
    save_report,
    table1_report,
    table2_report,
)


class TestDefinitions:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("scale", ("tiny", "small", "full"))
    def test_all_definitions_construct(self, name, scale):
        definition = get_benchmark(name, scale)
        assert definition.name == name
        assert definition.scale == scale
        assert definition.cache_key == f"{name}-{scale}"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("mnist")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("nmnist", "huge")

    def test_dataset_matches_spec(self):
        for name in BENCHMARK_NAMES:
            definition = get_benchmark(name, "tiny")
            dataset = definition.make_dataset()
            assert tuple(dataset.input_shape) == tuple(definition.spec.input_shape)

    def test_full_scale_samples_more_faults(self):
        small = get_benchmark("nmnist", "small")
        full = get_benchmark("nmnist", "full")
        assert (
            full.fault_config.synapse_sample_fraction
            >= small.fault_config.synapse_sample_fraction
        )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    results = tmp_path_factory.mktemp("results")
    return ExperimentPipeline(get_benchmark("shd", "tiny"), results_dir=results, seed=0)


class TestPipeline:
    def test_network_trained_and_cached(self, pipeline):
        network = pipeline.network()
        assert (pipeline.cache_dir / "weights.npz").exists()
        assert (pipeline.cache_dir / "training.json").exists()
        # Second pipeline instance loads from cache, identical weights.
        clone = ExperimentPipeline(
            pipeline.definition, results_dir=pipeline.results_dir, seed=0
        )
        reloaded = clone.network()
        for a, b in zip(network.parameters(), reloaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_classification_cached(self, pipeline):
        first = pipeline.classification()
        assert (pipeline.cache_dir / "classification.npz").exists()
        clone = ExperimentPipeline(
            pipeline.definition, results_dir=pipeline.results_dir, seed=0
        )
        second = clone.classification()
        assert np.array_equal(first.critical, second.critical)

    def test_generation_cached(self, pipeline):
        first = pipeline.generation()
        clone = ExperimentPipeline(
            pipeline.definition, results_dir=pipeline.results_dir, seed=0
        )
        second = clone.generation()
        assert first.stimulus.duration_steps == second.stimulus.duration_steps
        assert first.runtime_s == second.runtime_s  # honest first-run time kept
        for a, b in zip(first.activated_per_layer, second.activated_per_layer):
            assert np.array_equal(a, b)

    def test_detection_and_coverage(self, pipeline):
        detection = pipeline.detection()
        assert detection.detected.shape[0] == len(pipeline.catalog())
        coverage = pipeline.coverage()
        assert 0.0 <= coverage.fc_overall <= 1.0
        assert not np.isnan(coverage.max_drop_undetected_neuron)

    def test_cached_detection_with_old_dispatch_layout_loads(self, pipeline):
        """A ``detection.npz`` whose dispatch vector has the older counter
        layout (8 global + 4 per-layer fields) still loads: the detection
        arrays come back and the dispatch stats read as ``None``."""
        detection = pipeline.detection()
        path = pipeline.cache_dir / "detection.npz"
        with np.load(path) as data:
            current = dict(data)

        def reload():
            return ExperimentPipeline(
                pipeline.definition, results_dir=pipeline.results_dir, seed=0
            ).detection()

        assert reload().dispatch == detection.dispatch
        old = dict(current)
        old["dispatch"] = np.ones(8 + 4 * len(current["dispatch_layers"]), np.int64)
        try:
            np.savez(path, **old)
            cached = reload()
        finally:
            np.savez(path, **current)
        assert cached.dispatch is None
        assert np.array_equal(cached.detected, detection.detected)
        assert np.array_equal(cached.output_l1, detection.output_l1)

    def test_detection_killed_at_store_write_resumes_from_the_store(
        self, pipeline, tmp_path
    ):
        """``detection()`` keeps no checkpoint: a run killed at a
        coverage-store write and re-run against the same store writes the
        same ``detection.npz`` arrays as an uninterrupted run."""
        from repro.errors import ChaosError
        from repro.faults.store import CoverageStore
        from repro.utils import chaos

        path = pipeline.cache_dir / "detection.npz"

        def detect(store_dir):
            if path.exists():
                path.unlink()
            ExperimentPipeline(
                pipeline.definition, results_dir=pipeline.results_dir, seed=0,
                workers=1, store_dir=store_dir,
            ).detection()
            with np.load(path) as data:
                return dict(data)

        reference = detect(tmp_path / "clean")
        writes = CoverageStore(tmp_path / "clean").stat()["records"]
        store_dir = tmp_path / "killed"
        spec = f"raise@store-write:{writes // 2}"
        with chaos.installed(chaos.ChaosPolicy.parse(spec)):
            with pytest.raises(ChaosError):
                detect(store_dir)
        assert not path.exists()
        resumed = detect(store_dir)
        for name in ("detected", "output_l1", "class_count_diff"):
            assert np.array_equal(resumed[name], reference[name]), name

    @pytest.mark.parametrize(
        "artifact, stage, error",
        [
            ("weights.npz", "network", ArtifactError),
            ("stimulus.npz", "generation", CheckpointError),
            ("activated.npz", "generation", ArtifactError),
            ("classification.npz", "classification", ArtifactError),
            ("detection.npz", "detection", ArtifactError),
        ],
    )
    def test_torn_cached_artifact_raises_typed_error(
        self, pipeline, tmp_path, artifact, stage, error
    ):
        """A truncated cached ``.npz`` raises a typed error naming the
        file instead of the raw ``zipfile.BadZipFile``."""
        pipeline.detection()
        pipeline.classification()
        shutil.copytree(
            pipeline.cache_dir, tmp_path / "cache" / pipeline.cache_dir.name
        )
        copy = ExperimentPipeline(pipeline.definition, results_dir=tmp_path, seed=0)
        path = copy.cache_dir / artifact
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(error, match=artifact):
            getattr(copy, stage)()

    def test_different_seed_different_cache(self, pipeline):
        other = ExperimentPipeline(
            pipeline.definition, results_dir=pipeline.results_dir, seed=1
        )
        assert other.cache_dir != pipeline.cache_dir


class TestReports:
    def test_table_reports_render(self, pipeline):
        pipelines = {"shd": pipeline}
        text1, payload1 = table1_report(pipelines)
        assert "Table I" in text1 and "shd" in payload1
        text2, payload2 = table2_report(pipelines)
        assert "Table II" in text2
        total = sum(
            payload2["shd"][k]
            for k in ("critical_neuron", "benign_neuron", "critical_synapse", "benign_synapse")
        )
        assert total == len(pipeline.catalog())

    def test_save_report(self, pipeline, tmp_path):
        save_report(tmp_path, "demo", "hello", {"x": 1.5})
        assert (tmp_path / "demo.txt").read_text() == "hello\n"
        with open(tmp_path / "demo.json") as fh:
            assert json.load(fh) == {"x": 1.5}
