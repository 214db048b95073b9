"""Chaos scenario: a segment-wise campaign killed at a coverage-store
write resumes by re-running against the same store, with results
bit-identical to an uninterrupted run.

The ``store-write`` chaos site fires inside
:meth:`repro.faults.store.CoverageStore.put_bytes`, keyed by the store's
running write counter (every forked worker counts from its parent's
value).  A ``raise`` there fails the campaign before the record lands —
some groups finished, one group half-way through the test, later records
missing.  The re-run must splice every finished (fault group, segment)
back in, resume the half-finished group from its carried state, and
never re-detect or lose a fault.  Strikes are spread over all of the
campaign's writes, serial and pooled, with fault dropping on and off.
"""

import numpy as np
import pytest

from repro.core.testset import TestStimulus
from repro.errors import ChaosError
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import (
    fork_available,
    parallel_detect_segmented,
    shard_bounds,
)
from repro.faults.simulator import FaultSimulator
from repro.faults.store import GOLDEN_MAX_ENV, CoverageStore
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters
from repro.utils import chaos

#: Strike positions, as fractions of the writes a run makes.
SPREAD = (0.0, 0.35, 0.7, 1.0)


@pytest.fixture(scope="module")
def segment_campaign():
    spec = NetworkSpec(
        name="seg-chaos",
        input_shape=(12,),
        layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    net = build_network(spec, np.random.default_rng(0))
    config = FaultModelConfig()
    catalog = build_catalog(net, config)
    faults = (catalog.neuron_faults[::3] + catalog.synapse_faults[::7])[:60]
    rng = np.random.default_rng(1)
    chunks = [
        (rng.random((d, 1, 12)) > 0.6).astype(float) for d in (4, 3, 5)
    ]
    stimulus = TestStimulus(chunks=chunks, input_shape=(12,))
    oracle = FaultSimulator(
        net, config, fused=False, synapse_batch=1, neuron_splice=False
    ).detect(stimulus.assembled(), faults)
    return {
        "simulator": FaultSimulator(net, config),
        "faults": faults,
        "stimulus": stimulus,
        "oracle": oracle,
    }


def _run(campaign, workers, drop, store):
    return parallel_detect_segmented(
        campaign["simulator"],
        campaign["stimulus"],
        campaign["faults"],
        workers=workers,
        drop_detected=drop,
        store=store,
    )


def _strike_keys(campaign, workers, drop, root, monkeypatch):
    """Write keys spread over a worker's writes.  Serial: over every
    write of one uninterrupted run.  Pooled: each worker counts from 0,
    and races its siblings for the shared golden records, so the keys
    spread over the group-record writes of the busiest shard — a strike
    below that count always fires."""
    if workers == 1:
        store = CoverageStore(root)
        _run(campaign, 1, drop, store)
        writes = store.writes
    else:
        monkeypatch.setenv(GOLDEN_MAX_ENV, "0")  # count group records only
        writes = 0
        for lo, hi in shard_bounds(len(campaign["faults"]), workers):
            store = CoverageStore(root / f"shard{lo}")
            campaign["simulator"].detect_segmented(
                campaign["stimulus"], campaign["faults"][lo:hi],
                drop_detected=drop, store=store,
            )
            writes = max(writes, store.writes)
        monkeypatch.delenv(GOLDEN_MAX_ENV)
    assert writes >= 4, "campaign too small to crash mid-way"
    return sorted({round(f * (writes - 1)) for f in SPREAD})


def _assert_resumed(campaign, drop, result):
    oracle = campaign["oracle"]
    assert np.array_equal(result.detected, oracle.detected)
    if drop:
        # Dropping ends each fault's metrics at its first detection, so
        # they are pinned against an uninterrupted dropping run instead.
        oracle = _run(campaign, 1, True, None)
    assert np.array_equal(result.output_l1, oracle.output_l1)
    assert np.array_equal(result.class_count_diff, oracle.class_count_diff)


def _crash_then_rerun(campaign, workers, drop, key, root):
    with chaos.installed(chaos.ChaosPolicy.parse(f"raise@store-write:{key}")):
        with pytest.raises(ChaosError):
            _run(campaign, workers, drop, CoverageStore(root))
    # A fresh store object models a fresh process: the re-run sees only
    # what the killed run left on disk.
    store = CoverageStore(root)
    result = _run(campaign, workers, drop, store)
    _assert_resumed(campaign, drop, result)
    return store


@pytest.mark.parametrize("strike_at", [2, 5])
def test_mid_segment_crash_then_resume_is_bit_identical(
    segment_campaign, tmp_path, strike_at
):
    """A serial campaign with exact metrics, killed part-way through its
    first groups, re-runs to the oracle's arrays by splicing what the
    killed run stored."""
    store = _crash_then_rerun(
        segment_campaign, 1, False, strike_at, tmp_path / "store"
    )
    assert store.hits > 0, "the re-run must splice stored records"


def test_resume_with_dropping_still_exact_on_detection(
    segment_campaign, tmp_path, monkeypatch
):
    for key in _strike_keys(segment_campaign, 1, True, tmp_path / "count",
                            monkeypatch):
        _crash_then_rerun(segment_campaign, 1, True, key, tmp_path / f"s{key}")


@pytest.mark.parametrize(
    "workers, drop", [(1, False), (2, False), (2, True)]
)
def test_crash_anywhere_then_rerun_is_bit_identical(
    segment_campaign, tmp_path, monkeypatch, workers, drop
):
    if workers > 1 and not fork_available():
        pytest.skip("fork start method unavailable")
    for key in _strike_keys(segment_campaign, workers, drop,
                            tmp_path / "count", monkeypatch):
        _crash_then_rerun(
            segment_campaign, workers, drop, key, tmp_path / f"s{key}"
        )
