"""Final coverage verification — the single fault-simulation campaign of
the proposed flow (paper §IV-B: "fault simulation is circumvented during
test generation and is performed if needed only once for the final
optimized test input to verify its fault coverage")."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.testset import TestStimulus
from repro.faults.catalog import validate_faults
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import parallel_detect_segmented
from repro.faults.simulator import (
    ClassificationResult,
    CoverageBreakdown,
    DetectionResult,
    FaultSimulator,
)
from repro.snn.network import SNN


def verify_coverage(
    network: SNN,
    stimulus: TestStimulus,
    faults: Sequence,
    fault_config: Optional[FaultModelConfig] = None,
    classification: Optional[ClassificationResult] = None,
    progress=None,
    workers: Optional[int] = None,
    exact_metrics: bool = False,
    store=None,
):
    """Fault-simulate the test stimulus and report detection / coverage.

    The campaign runs segment-wise
    (:func:`~repro.faults.parallel.parallel_detect_segmented`): the test's
    chunk+sleep segments are simulated one at a time with fault dropping
    and divergence-bounded propagation, so ``assembled()`` is never
    materialized and peak memory is bounded by the longest chunk.  The
    ``detected`` mask — and therefore every coverage figure — is
    bit-identical to the assembled campaign.  Pass ``exact_metrics=True``
    to disable fault dropping so ``output_l1`` / ``class_count_diff`` are
    also bit-identical (the Fig. 9 path needs them).

    ``workers`` shards the campaign across supervised processes (``None``
    defers to ``$REPRO_WORKERS``; 1 runs serially in-process).  Returns
    the :class:`DetectionResult`; if ``classification`` labels are
    provided, also the Table-III-style :class:`CoverageBreakdown`.

    ``store`` (a :class:`~repro.faults.store.CoverageStore` or a directory
    path) makes the campaign *differential*: per-(fault-group, segment)
    outcomes and golden segment end-states from earlier runs are spliced
    in instead of recomputed, so re-verifying after appending an
    iteration, editing a chunk, or growing the catalog only pays for the
    affected suffix — with a bit-identical detection mask (see
    ``docs/COVERAGE_STORE.md``).  The store is also the resume path: a
    killed campaign re-run against the same store skips every (fault
    group, segment) it finished, and its ``dispatch`` counters then count
    only the work the re-run computed (see ``docs/RESILIENCE.md``).
    """
    validate_faults(
        network, faults, config=fault_config,
        duration_steps=stimulus.duration_steps,
    )
    simulator = FaultSimulator(network, fault_config)
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        from repro.faults.store import CoverageStore

        store = CoverageStore(store)
    detection = parallel_detect_segmented(
        simulator,
        stimulus,
        faults,
        workers=workers,
        progress=progress,
        drop_detected=not exact_metrics,
        store=store,
    )
    if classification is None:
        return detection, None
    breakdown = FaultSimulator.coverage(detection, classification)
    return detection, breakdown
