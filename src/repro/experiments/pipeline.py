"""The shared, cached experiment pipeline.

Every table/figure needs some prefix of the same pipeline:

    dataset -> trained network -> fault catalog -> criticality labels
            -> generated test stimulus -> final detection campaign

Each stage is cached on disk under ``results/cache/<benchmark>-<scale>/``
so the per-table benchmark targets can share artifacts: the first bench
run pays the real cost (recorded in the cached metadata — those wall times
are what the tables report), later runs reuse the artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.autograd.schedule import StepDecay
from repro.core.checkpoint import atomic_npz_save
from repro.core.coverage import verify_coverage
from repro.core.generator import IterationReport, TestGenerationResult, TestGenerator
from repro.core.guard import GenerationHealth
from repro.core.testset import TestStimulus
from repro.datasets.base import SpikingDataset
from repro.errors import ArtifactError
from repro.experiments.benchmarks import BenchmarkDefinition
from repro.faults.catalog import FaultCatalog, build_catalog
from repro.faults.parallel import parallel_classify, resolve_workers
from repro.faults.simulator import (
    ClassificationResult,
    CoverageBreakdown,
    DetectionResult,
    FaultSimulator,
)
from repro.snn.builder import build_network
from repro.snn.events import DispatchStats
from repro.snn.layers import dispatch_layer_names
from repro.snn.network import SNN
from repro.training.trainer import Trainer, TrainingResult
from repro.utils.seeding import SeedSequenceFactory


def default_results_dir() -> Path:
    """Results root: $REPRO_RESULTS or ./results."""
    return Path(os.environ.get("REPRO_RESULTS", "results"))


def _load_npz(path: Path) -> Dict[str, np.ndarray]:
    """Every array of a cached ``.npz`` artifact.  A torn or unreadable
    archive raises :class:`~repro.errors.ArtifactError` naming the file."""
    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"cached artifact {path} is unreadable: {exc}") from exc


class ExperimentPipeline:
    """Runs and caches the pipeline stages for one benchmark definition.

    With ``resume=True``, labelling and test generation continue from
    their progress checkpoints (``*.progress.ckpt`` in the cache
    directory) instead of restarting; results are bit-identical to an
    uninterrupted run.  The progress checkpoint is removed once a stage's
    final artifact is written (the artifact itself then serves as the
    cache).  The detection campaign keeps no checkpoint: any re-run skips
    the (fault group, segment) work already in its coverage store, with or
    without ``resume``, and restarts from scratch when the store is off.
    """

    def __init__(
        self,
        definition: BenchmarkDefinition,
        results_dir: Optional[Path] = None,
        seed: int = 0,
        log=None,
        workers: Optional[int] = None,
        verbose: bool = False,
        resume: bool = False,
        fast_metrics: bool = False,
        fault_config=None,
        store_dir=None,
    ) -> None:
        self.definition = definition
        self.seed = seed
        self.verbose = verbose
        self.resume = resume
        # Optional fault-model override (CLI --fault-families etc.).  The
        # catalog, classification labels, and coverage all depend on it, so
        # an override gets its own cache namespace — benchmark artifacts
        # built under the definition's model are never mixed with it.
        self.fault_config = (
            fault_config if fault_config is not None else definition.fault_config
        )
        self._fault_suffix = ""
        if repr(self.fault_config) != repr(definition.fault_config):
            digest = hashlib.sha256(repr(self.fault_config).encode()).hexdigest()[:8]
            self._fault_suffix = f"-faults{digest}"
        # The detection campaign keeps exact metrics (no fault dropping)
        # because detection.npz feeds the Fig. 9 class_count_diff /
        # output_l1 reproduction.  ``fast_metrics`` opts into dropping
        # (exact ``detected``, partial metrics).
        self.fast_metrics = fast_metrics
        self.workers = resolve_workers(workers)
        self.seeds = SeedSequenceFactory(seed)
        self.results_dir = Path(results_dir) if results_dir is not None else default_results_dir()
        # Training does not depend on the fault model, so weights/metrics
        # stay in the base cache dir and are shared across overrides.
        self._train_cache_dir = (
            self.results_dir / "cache" / f"{definition.cache_key}-seed{seed}"
        )
        self.cache_dir = (
            self.results_dir / "cache"
            / f"{definition.cache_key}-seed{seed}{self._fault_suffix}"
        )
        self._train_cache_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Persistent coverage store for differential re-verification, and
        # the detection campaign's resume path.  ``None`` picks the shared
        # per-results-dir default, ``False`` disables the store, anything
        # else is a directory path.  The store needs no per-benchmark
        # namespace: every record key already folds in the network
        # weights, fault-model options, and stimulus chain.
        if store_dir is None:
            store_dir = self.results_dir / "cache" / "coverage_store"
        self.store_dir = None if store_dir is False else Path(store_dir)
        self.log = log or (lambda message: None)
        self._dataset: Optional[SpikingDataset] = None
        self._network: Optional[SNN] = None
        self._training: Optional[TrainingResult] = None
        self._catalog: Optional[FaultCatalog] = None
        self._classify_data = None

    # ------------------------------------------------------------------
    @staticmethod
    def _drop_progress(progress_ckpt: Path) -> None:
        """Remove a stage's progress checkpoint once its final artifact is
        written (the artifact is the durable cache from then on)."""
        try:
            progress_ckpt.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    def dataset(self) -> SpikingDataset:
        if self._dataset is None:
            self._dataset = self.definition.make_dataset()
        return self._dataset

    # ------------------------------------------------------------------
    def network(self) -> SNN:
        """The trained network, training once and caching weights."""
        if self._network is not None:
            return self._network
        network = build_network(self.definition.spec, self.seeds.rng("weights"))
        weights_path = self._train_cache_dir / "weights.npz"
        metrics_path = self._train_cache_dir / "training.json"
        if weights_path.exists() and metrics_path.exists():
            network.load(str(weights_path))
            with open(metrics_path) as fh:
                payload = json.load(fh)
            self._training = TrainingResult(**payload)
        else:
            self.log(f"[{self.definition.cache_key}] training ...")
            params = self.definition.training
            trainer = Trainer(
                network,
                self.dataset(),
                lr=params.lr,
                batch_size=params.batch_size,
                lr_schedule=StepDecay(params.lr, 0.5, params.lr_decay_period),
            )
            self._training = trainer.fit(params.epochs, self.seeds.rng("train"))
            network.save(str(weights_path))
            with open(metrics_path, "w") as fh:
                json.dump(asdict(self._training), fh)
            self.log(
                f"[{self.definition.cache_key}] trained: "
                f"test accuracy {self._training.test_accuracy:.2%}"
            )
        self._network = network
        return network

    def training_metrics(self) -> TrainingResult:
        self.network()
        return self._training

    # ------------------------------------------------------------------
    def catalog(self) -> FaultCatalog:
        """The fault catalog (deterministic, rebuilt per process)."""
        if self._catalog is None:
            self._catalog = build_catalog(
                self.network(), self.fault_config, self.seeds.rng("catalog")
            )
        return self._catalog

    # ------------------------------------------------------------------
    def classify_data(self):
        """The classification sample subset, drawn once per pipeline."""
        if self._classify_data is None:
            self._classify_data = self.dataset().subset(
                self.definition.classify_samples, "test"
            )
        return self._classify_data

    # ------------------------------------------------------------------
    def classification(self) -> ClassificationResult:
        """Criticality labels for the catalog (Table II campaign)."""
        catalog = self.catalog()
        path = self.cache_dir / "classification.npz"
        if path.exists():
            data = _load_npz(path)
            if data["critical"].shape[0] == len(catalog):
                return ClassificationResult(
                    faults=catalog.faults,
                    critical=data["critical"].astype(bool),
                    accuracy_drop=data["accuracy_drop"],
                    nominal_accuracy=float(data["nominal_accuracy"]),
                    wall_time=float(data["wall_time"]),
                )
        self.log(f"[{self.definition.cache_key}] labelling {len(catalog)} faults ...")
        inputs, labels = self.classify_data()
        simulator = FaultSimulator(self.network(), self.fault_config)
        progress_ckpt = self.cache_dir / "classification.progress.ckpt"
        result = parallel_classify(
            simulator,
            inputs,
            labels,
            catalog.faults,
            workers=self.workers,
            checkpoint_path=str(progress_ckpt),
            resume=self.resume,
        )
        atomic_npz_save(
            str(path),
            critical=result.critical,
            accuracy_drop=result.accuracy_drop,
            nominal_accuracy=np.float64(result.nominal_accuracy),
            wall_time=np.float64(result.wall_time),
        )
        self._drop_progress(progress_ckpt)
        self.log(
            f"[{self.definition.cache_key}] labelled: {result.critical_count} critical / "
            f"{result.benign_count} benign in {result.wall_time:.0f}s"
        )
        return result

    # ------------------------------------------------------------------
    def generation(self) -> TestGenerationResult:
        """The proposed algorithm's output (Table III rows 1-4)."""
        network = self.network()
        stim_path = self.cache_dir / "stimulus.npz"
        meta_path = self.cache_dir / "generation.json"
        acts_path = self.cache_dir / "activated.npz"
        if stim_path.exists() and meta_path.exists() and acts_path.exists():
            stimulus = TestStimulus.load(str(stim_path), network.input_shape)
            with open(meta_path) as fh:
                meta = json.load(fh)
            layers = _load_npz(acts_path)
            activated = [layers[k].astype(bool) for k in sorted(layers)]
            return TestGenerationResult(
                stimulus=stimulus,
                t_in_min=meta["t_in_min"],
                iterations=[IterationReport(**r) for r in meta["iterations"]],
                activated_fraction=meta["activated_fraction"],
                activated_per_layer=activated,
                runtime_s=meta["runtime_s"],
                timed_out=meta["timed_out"],
                health=GenerationHealth.from_meta(meta.get("health")),
            )
        self.log(f"[{self.definition.cache_key}] generating test ...")
        progress_ckpt = self.cache_dir / "generation.progress.ckpt"
        generator = TestGenerator(
            network,
            self.definition.testgen_config,
            self.seeds.rng("generate"),
            log=self.log,
            verbose=self.verbose,
            checkpoint_path=str(progress_ckpt),
            resume=self.resume,
        )
        result = generator.generate()
        result.stimulus.save(str(stim_path))
        with open(meta_path, "w") as fh:
            json.dump(
                {
                    "t_in_min": result.t_in_min,
                    "iterations": [asdict(r) for r in result.iterations],
                    "activated_fraction": result.activated_fraction,
                    "runtime_s": result.runtime_s,
                    "timed_out": result.timed_out,
                    "health": (
                        result.health.to_meta() if result.health is not None else None
                    ),
                },
                fh,
            )
        atomic_npz_save(
            str(acts_path),
            **{f"layer{idx:02d}": arr for idx, arr in enumerate(result.activated_per_layer)},
        )
        self._drop_progress(progress_ckpt)
        self.log(
            f"[{self.definition.cache_key}] generated {result.num_chunks} chunks in "
            f"{result.runtime_s:.0f}s, activation {result.activated_fraction:.2%}"
        )
        if result.health is not None and not result.health.clean:
            self.log(
                f"[{self.definition.cache_key}] generation health: "
                f"{result.health.summary()}"
            )
        return result

    # ------------------------------------------------------------------
    def detection(self) -> DetectionResult:
        """Final fault-simulation campaign on the generated stimulus
        (segment-wise with exact metrics by default; see ``__init__``).
        A re-run after a kill resumes through the coverage store."""
        catalog = self.catalog()
        path = self.cache_dir / "detection.npz"
        if path.exists():
            data = _load_npz(path)
            if data["detected"].shape[0] == len(catalog):
                dispatch = None
                if "dispatch" in data:
                    names = [str(name) for name in data["dispatch_layers"]]
                    vector = data["dispatch"]
                    # A vector in an older counter layout is dropped: the
                    # detection arrays are still valid.
                    if vector.size == DispatchStats.vector_size(len(names)):
                        dispatch = DispatchStats.from_vector(vector, names).as_dict()
                return DetectionResult(
                    faults=catalog.faults,
                    detected=data["detected"].astype(bool),
                    output_l1=data["output_l1"],
                    class_count_diff=data["class_count_diff"],
                    wall_time=float(data["wall_time"]),
                    dispatch=dispatch,
                )
        generation = self.generation()
        self.log(f"[{self.definition.cache_key}] verifying coverage ...")
        detection, _ = verify_coverage(
            self.network(),
            generation.stimulus,
            catalog.faults,
            self.fault_config,
            workers=self.workers,
            exact_metrics=not self.fast_metrics,
            store=None if self.store_dir is None else str(self.store_dir),
        )
        # The counter vector plus its layer-name legend round-trip the
        # dispatch stats through the cache without loading the network.
        names = dispatch_layer_names(self.network().modules)
        atomic_npz_save(
            str(path),
            detected=detection.detected,
            output_l1=detection.output_l1,
            class_count_diff=detection.class_count_diff,
            wall_time=np.float64(detection.wall_time),
            dispatch=DispatchStats.from_dict(detection.dispatch).to_vector(names),
            dispatch_layers=np.array(names),
        )
        self.log(
            f"[{self.definition.cache_key}] detection rate "
            f"{detection.detection_rate():.2%} in {detection.wall_time:.0f}s"
        )
        if self.verbose:
            self.log(
                f"[{self.definition.cache_key}] current dispatch: "
                f"{DispatchStats.from_dict(detection.dispatch).summary()}"
            )
        return detection

    # ------------------------------------------------------------------
    def campaign_bundle(self, path, kind: str = "verify"):
        """Write the self-contained campaign bundle ``repro submit`` sends
        to the campaign daemon (see :mod:`repro.service`).

        A ``verify`` bundle carries the trained network, the generated
        stimulus, and the fault catalog — the daemon re-runs the final
        coverage campaign on them; a ``generate`` bundle carries the
        network, the generation config, and the pipeline seed.
        """
        from repro.service.jobs import save_campaign_bundle

        if kind == "verify":
            payload = {
                "kind": "verify",
                "network": self.network(),
                "stimulus": self.generation().stimulus,
                "faults": self.catalog().faults,
                "fault_config": self.fault_config,
                "options": {"exact_metrics": not self.fast_metrics},
            }
        elif kind == "generate":
            payload = {
                "kind": "generate",
                "network": self.network(),
                "config": self.definition.testgen_config,
                "seed": self.seed,
            }
        else:
            raise ValueError(f"unknown bundle kind {kind!r}")
        return save_campaign_bundle(path, payload)

    # ------------------------------------------------------------------
    def coverage(self) -> CoverageBreakdown:
        """Table III coverage breakdown, with exact accuracy drops for the
        undetected critical faults."""
        detection = self.detection()
        return FaultSimulator.coverage(detection, self.classification())
