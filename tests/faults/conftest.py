"""Helpers shared by the fault-campaign differential suites."""

import numpy as np

from repro.faults.simulator import DetectionResult


def drop_on_reference(oracle, stimulus, faults) -> DetectionResult:
    """What a segment-wise campaign with fault dropping reports, derived
    from the per-step oracle's flat ``detect`` alone.

    Dropping ends a fault's metrics at the segment where it is first
    detected.  So the oracle runs on the assembled stimulus cut at the
    end of each segment, and each fault takes its metrics from the first
    cut at which it is detected, or from the full run if it never is.
    """
    assembled = stimulus.assembled()
    ends = np.cumsum(stimulus.segment_durations)
    runs = [oracle.detect(assembled[:end], faults) for end in ends]
    full = runs[-1]
    output_l1 = full.output_l1.copy()
    class_count_diff = full.class_count_diff.copy()
    settled = np.zeros(len(faults), dtype=bool)
    for run in runs:
        first = run.detected & ~settled
        output_l1[first] = run.output_l1[first]
        class_count_diff[first] = run.class_count_diff[first]
        settled |= run.detected
    return DetectionResult(
        faults=list(faults),
        detected=full.detected,
        output_l1=output_l1,
        class_count_diff=class_count_diff,
        wall_time=sum(run.wall_time for run in runs),
    )
