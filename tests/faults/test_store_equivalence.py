"""Differential suite for the persistent coverage store.

The store makes ``verify_coverage`` *differential*: a warm re-run against
a stimulus or catalog that changed splices cached per-(fault-group,
segment) outcomes for the unchanged prefix and recomputes only the
affected suffix.  The contract is absolute: a warm incremental run must
be **bit-identical** to a cold full run of the same engine configuration
— ``np.array_equal`` on the detection mask and, with identical engine
options, on ``output_l1`` / ``class_count_diff`` too.

Three edit scenarios are pinned, each serially and over 4 workers:

- **append** — a new iteration chunk is appended to the test.  The chain
  digest of the previously-final segment changes (its sleep flag flips),
  so only the last old segment and the new one recompute.
- **edit** — a mid-test chunk is replaced; everything from that segment
  on recomputes, the prefix comes from the store.
- **grow** — the fault catalog gains members.  Regrouped faults miss the
  per-group records, but the golden segment end-states are reused
  cross-run (they are keyed by network + stimulus alone).
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.core.testset import TestStimulus
from repro.faults import segmented
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import fork_available, parallel_detect_segmented
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore, StoreSession
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters


def _store_net():
    spec = NetworkSpec(
        name="store-mixed",
        input_shape=(2, 4, 4),
        layers=(
            ConvSpec(out_channels=2, kernel=3, padding=1),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=6),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(0))


def _interleaved_faults(catalog, per_kind, phase=0):
    neuron = catalog.neuron_faults[phase :: max(1, len(catalog.neuron_faults) // per_kind)]
    synapse = catalog.synapse_faults[phase :: max(1, len(catalog.synapse_faults) // per_kind)]
    return [
        fault
        for pair in itertools.zip_longest(neuron, synapse)
        for fault in pair
        if fault is not None
    ]


def _chunks(durations, rng, density=0.45):
    return [
        (rng.random((d, 1, 2, 4, 4)) < density).astype(float) for d in durations
    ]


@pytest.fixture(scope="module")
def campaign():
    net = _store_net()
    config = FaultModelConfig()
    catalog = build_catalog(net, config)
    faults = _interleaved_faults(catalog, per_kind=20)
    rng = np.random.default_rng(1)
    base = _chunks([3, 2, 4], rng)
    extra = _chunks([3], rng)[0]
    edited = list(base)
    edited[1] = _chunks([2], np.random.default_rng(9))[0]
    grown = faults + [
        f for f in _interleaved_faults(catalog, per_kind=12, phase=1)
        if f not in faults
    ]
    stimuli = {
        "append": TestStimulus(chunks=base + [extra], input_shape=(2, 4, 4)),
        "edit": TestStimulus(chunks=edited, input_shape=(2, 4, 4)),
        "grow": TestStimulus(chunks=base, input_shape=(2, 4, 4)),
    }
    return {
        "net": net,
        "config": config,
        "faults": faults,
        "grown": grown,
        "base": TestStimulus(chunks=base, input_shape=(2, 4, 4)),
        "stimuli": stimuli,
    }


ENGINES = [
    pytest.param("serial-fused", 1, id="serial-fused-f64"),
    pytest.param(
        "pool4-fused", 4, id="pool4-fused-f64",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]


def _run(campaign, stimulus, faults, *, workers, store, drop=True):
    simulator = FaultSimulator(campaign["net"], campaign["config"])
    if workers == 1:
        return simulator.detect_segmented(
            stimulus, faults, drop_detected=drop, store=store
        )
    return parallel_detect_segmented(
        simulator, stimulus, faults, workers=workers, drop_detected=drop,
        store=store,
    )


@pytest.mark.parametrize("name, workers", ENGINES)
def test_incremental_rerun_is_bit_identical_to_cold(campaign, tmp_path, name, workers):
    store = CoverageStore(tmp_path / name)
    engine = dict(workers=workers)
    faults = campaign["faults"]
    # Populate: the base test set's campaign runs once against the store.
    seeded = _run(campaign, campaign["base"], faults, store=store, **engine)
    cold_base = _run(campaign, campaign["base"], faults, store=None, **engine)
    assert np.array_equal(seeded.detected, cold_base.detected)
    assert np.array_equal(seeded.output_l1, cold_base.output_l1)
    assert np.array_equal(seeded.class_count_diff, cold_base.class_count_diff)
    for scenario, stimulus in campaign["stimuli"].items():
        scenario_faults = campaign["grown"] if scenario == "grow" else faults
        cold = _run(campaign, stimulus, scenario_faults, store=None, **engine)
        hits_before = store.hits
        records_before = store.stat()["records"]
        warm = _run(campaign, stimulus, scenario_faults, store=store, **engine)
        if workers == 1:
            assert store.hits > hits_before, (
                f"{scenario}: warm run never touched the store — the"
                " differential path was not exercised"
            )
        else:
            # Forked workers hit the store in their own processes, so the
            # parent's counters stay put; prove reuse on disk instead — a
            # warm run must add strictly fewer records than the same
            # campaign writes into an empty store.
            fresh = CoverageStore(tmp_path / f"{name}-{scenario}-fresh")
            _run(campaign, stimulus, scenario_faults, store=fresh, **engine)
            added = store.stat()["records"] - records_before
            assert added < fresh.stat()["records"], (
                f"{scenario}: warm run rewrote the full record set — the"
                " differential path was not exercised"
            )
        assert np.array_equal(warm.detected, cold.detected), scenario
        assert np.array_equal(warm.output_l1, cold.output_l1), scenario
        assert np.array_equal(warm.class_count_diff, cold.class_count_diff), scenario


def test_warm_rerun_of_unchanged_test_writes_nothing(campaign, tmp_path):
    store = CoverageStore(tmp_path / "idempotent")
    faults = campaign["faults"]
    first = _run(
        campaign, campaign["base"], faults,
        workers=1, store=store,
    )
    writes = store.writes
    again = _run(
        campaign, campaign["base"], faults,
        workers=1, store=store,
    )
    assert store.writes == writes, "identical re-run must be fully cached"
    assert np.array_equal(first.detected, again.detected)
    assert np.array_equal(first.output_l1, again.output_l1)
    assert np.array_equal(first.class_count_diff, again.class_count_diff)


def test_store_matches_assembled_reference(campaign, tmp_path):
    """Absolute anchor: warm differential results equal the assembled
    single-shot campaign, not merely each other."""
    store = CoverageStore(tmp_path / "anchor")
    faults = campaign["faults"]
    simulator = FaultSimulator(campaign["net"], campaign["config"])
    _run(
        campaign, campaign["base"], faults,
        workers=1, store=store,
    )
    stimulus = campaign["stimuli"]["append"]
    reference = simulator.detect(stimulus.assembled(), faults)
    warm = _run(
        campaign, stimulus, faults,
        workers=1, store=store,
    )
    assert np.array_equal(warm.detected, reference.detected)


def test_exact_metrics_mode_is_differential_too(campaign, tmp_path):
    """``drop_detected=False`` (the Fig. 9 exact-metrics path) keys its
    records separately and stays bit-identical warm-vs-cold."""
    store = CoverageStore(tmp_path / "exact")
    faults = campaign["faults"]
    engine = dict(workers=1)
    _run(campaign, campaign["base"], faults, store=store, drop=False, **engine)
    stimulus = campaign["stimuli"]["append"]
    cold = _run(campaign, stimulus, faults, store=None, drop=False, **engine)
    warm = _run(campaign, stimulus, faults, store=store, drop=False, **engine)
    assert np.array_equal(warm.detected, cold.detected)
    assert np.array_equal(warm.output_l1, cold.output_l1)
    assert np.array_equal(warm.class_count_diff, cold.class_count_diff)


def test_option_change_never_reuses_records(campaign, tmp_path):
    """Records written under one option fingerprint are invisible to a
    campaign running under another — a drop-mode flip re-verifies from
    scratch rather than splicing incompatible accumulators."""
    store = CoverageStore(tmp_path / "options")
    faults = campaign["faults"]
    engine = dict(workers=1)
    _run(campaign, campaign["base"], faults, store=store, drop=True, **engine)
    writes = store.writes
    cold = _run(campaign, campaign["base"], faults, store=None, drop=False, **engine)
    other = _run(campaign, campaign["base"], faults, store=store, drop=False, **engine)
    assert store.writes > writes, "changed options must write fresh records"
    assert np.array_equal(other.detected, cold.detected)
    assert np.array_equal(other.output_l1, cold.output_l1)
    assert np.array_equal(other.class_count_diff, cold.class_count_diff)


def _reread_golden_states(self, segment_index):
    """Reference seek read: every call reads, verifies and decodes the
    whole golden record again."""
    arrays, key = self._load_golden_record(segment_index)
    if arrays is None:
        return None
    return self._golden_states(arrays, key)


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.rec"))
    }


def test_golden_end_states_are_read_once_per_session(campaign, tmp_path, monkeypatch):
    """Every fault group that resumes mid-test seeks the golden runner to
    its resume segment.  A session reads that golden record's end states
    once and answers later seeks from memory: results and the store tree
    equal those of a run that re-reads the record for every group."""
    real = StoreSession._load_golden_record
    reads = []

    def counting(self, segment_index):
        reads.append(segment_index)
        return real(self, segment_index)

    monkeypatch.setattr(StoreSession, "_load_golden_record", counting)
    faults = campaign["faults"]
    stimulus = campaign["stimuli"]["append"]
    runs = {}
    for name, seek_read in (
        ("cached", StoreSession.load_golden_states),
        ("reread", _reread_golden_states),
    ):
        monkeypatch.setattr(StoreSession, "load_golden_states", seek_read)
        store = CoverageStore(tmp_path / name)
        _run(campaign, campaign["base"], faults, workers=1, store=store)
        reads.clear()
        warm = _run(campaign, stimulus, faults, workers=1, store=store)
        runs[name] = (warm, _tree(tmp_path / name), list(reads))
    (cached, cached_tree, cached_reads), (reread, reread_tree, reread_reads) = (
        runs["cached"], runs["reread"]
    )
    # The appended chunk changes the last old segment's chain, so groups
    # resume after segment 1; nothing but a seek reads its record.
    assert reread_reads.count(1) > 1, "too few resuming groups to compare"
    assert cached_reads.count(1) == 1
    assert len(cached_reads) == len(reread_reads) - reread_reads.count(1) + 1
    assert np.array_equal(cached.detected, reread.detected)
    assert cached.output_l1.tobytes() == reread.output_l1.tobytes()
    assert cached.class_count_diff.tobytes() == reread.class_count_diff.tobytes()
    assert cached_tree == reread_tree


def test_finished_campaign_is_freed_on_return(campaign, tmp_path, monkeypatch):
    """Fault groups hold no reference back to their campaign, so a
    finished campaign, its store session and its result arrays go as
    soon as ``detect_segmented`` returns, without the cyclic collector."""
    real_run = segmented.SegmentedDetectionCampaign.run
    refs = []

    def run(self):
        refs.extend((weakref.ref(self), weakref.ref(self.session)))
        return real_run(self)

    monkeypatch.setattr(segmented.SegmentedDetectionCampaign, "run", run)
    store = CoverageStore(tmp_path / "store")
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # cold, then warm against the records
            result = _run(
                campaign, campaign["base"], campaign["faults"], workers=1, store=store
            )
            assert result.detected.any()
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            refs.clear()
    finally:
        gc.enable()
