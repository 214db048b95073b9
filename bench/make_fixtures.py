"""Train the benchmark's network fixtures and write them as text.

Trains nmnist-small and ibm-small with each definition's recipe at
pipeline seed 0 (``ExperimentPipeline.network()``, which draws its
weight-init and shuffling streams from ``SeedSequenceFactory(0)``), then
writes ``bench/fixtures/<bench>-small.json`` (see ``fixture.py``).  Takes
a few minutes on a 2-core x86 box; the fixtures are committed, so the
benchmark never trains them itself.

    PYTHONPATH=src python bench/make_fixtures.py [nmnist ibm]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fixture import PIPELINE_SEED, encode, fixture_path  # noqa: E402

FIXTURE_BENCHES = ("nmnist", "ibm")


def make_fixture(bench: str, scale: str = "small") -> dict:
    from repro.experiments.benchmarks import get_benchmark
    from repro.experiments.pipeline import ExperimentPipeline

    work = tempfile.mkdtemp(prefix="bench-fixture-", dir=HERE)
    try:
        start = time.perf_counter()
        pipeline = ExperimentPipeline(
            get_benchmark(bench, scale), results_dir=work, seed=PIPELINE_SEED
        )
        network = pipeline.network()
        training = pipeline.training_metrics()
        document = encode(
            network.state_dict(),
            bench=bench,
            scale=scale,
            pipeline_seed=PIPELINE_SEED,
            train_accuracy=training.train_accuracy,
            test_accuracy=training.test_accuracy,
            train_s=round(time.perf_counter() - start, 1),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return document


def main(argv=None) -> int:
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benches", nargs="*", default=list(FIXTURE_BENCHES))
    args = parser.parse_args(argv)
    for bench in args.benches:
        document = make_fixture(bench)
        path = fixture_path(bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        print(
            f"{path.name}: test accuracy {document['test_accuracy']:.3f}, "
            f"trained in {document['train_s']} s, sha256 {document['sha256'][:12]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
