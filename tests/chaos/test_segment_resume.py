"""Chaos scenario: a segment-wise campaign killed mid-shard must resume
from its per-(fault-group, segment) partial checkpoint with results
bit-identical to an uninterrupted run.

The ``segment`` chaos site fires right after each partial checkpoint is
written, so a ``raise`` there models a crash at the worst possible moment
— state on disk, campaign torn down, fault groups half-finished.  Resume
must replay the golden reference up to the checkpointed segment and pick
up the surviving group state, never re-detecting or losing a fault.
"""

import hashlib

import numpy as np
import pytest

from repro.core.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.core.testset import TestStimulus
from repro.errors import ChaosError, CheckpointError
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import parallel_detect, parallel_detect_segmented
from repro.faults.simulator import FaultSimulator
from repro.faults.store import chain_to_array, stimulus_chain
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters
from repro.utils import chaos


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
    simulator = FaultSimulator(net, config)
    return {
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": simulator.detect(stimulus.assembled(), faults),
    }


@pytest.mark.parametrize("strike_at", [2, 5])
def test_mid_segment_crash_then_resume_is_bit_identical(
    segment_campaign, tmp_path, strike_at
):
    path = tmp_path / f"campaign-{strike_at}.ckpt"
    with chaos.installed(chaos.ChaosPolicy.parse(f"raise@segment:{strike_at}")):
        with pytest.raises(ChaosError):
            parallel_detect_segmented(
                segment_campaign["simulator"],
                segment_campaign["stimulus"],
                segment_campaign["faults"],
                workers=1,
                drop_detected=False,
                checkpoint_path=str(path),
                resume=False,
            )
    assert path.exists(), "partial checkpoint must survive the crash"
    result = parallel_detect_segmented(
        segment_campaign["simulator"],
        segment_campaign["stimulus"],
        segment_campaign["faults"],
        workers=1,
        drop_detected=False,
        checkpoint_path=str(path),
        resume=True,
    )
    reference = segment_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)
    assert result.health is not None
    resumed = result.health.resumed_shards >= 1 or any(
        "resuming mid-shard" in event for event in result.health.events
    )
    assert resumed, "health must report the mid-shard resume"


def test_resume_with_dropping_still_exact_on_detection(segment_campaign, tmp_path):
    path = tmp_path / "campaign-drop.ckpt"
    with chaos.installed(chaos.ChaosPolicy.parse("raise@segment:3")):
        with pytest.raises(ChaosError):
            parallel_detect_segmented(
                segment_campaign["simulator"],
                segment_campaign["stimulus"],
                segment_campaign["faults"],
                workers=1,
                checkpoint_path=str(path),
            )
    result = parallel_detect_segmented(
        segment_campaign["simulator"],
        segment_campaign["stimulus"],
        segment_campaign["faults"],
        workers=1,
        checkpoint_path=str(path),
        resume=True,
    )
    assert np.array_equal(result.detected, segment_campaign["reference"].detected)


def test_option_change_invalidates_checkpoint(segment_campaign, tmp_path):
    """The drop/divergence/compaction options are folded into the
    checkpoint fingerprint — resuming under different options must be
    rejected, not silently mix partial results from two engines."""
    path = tmp_path / "campaign-mismatch.ckpt"
    with chaos.installed(chaos.ChaosPolicy.parse("raise@segment:3")):
        with pytest.raises(ChaosError):
            parallel_detect_segmented(
                segment_campaign["simulator"],
                segment_campaign["stimulus"],
                segment_campaign["faults"],
                workers=1,
                drop_detected=False,
                checkpoint_path=str(path),
            )
    with pytest.raises(CheckpointError):
        parallel_detect_segmented(
            segment_campaign["simulator"],
            segment_campaign["stimulus"],
            segment_campaign["faults"],
            workers=1,
            drop_detected=True,
            checkpoint_path=str(path),
            resume=True,
        )


def test_partial_checkpoint_roundtrip(tmp_path):
    """The partial blob (arrays + meta) survives a save/load cycle with
    its ``p.``-prefixed arrays intact."""
    ckpt = CampaignCheckpoint(
        kind="detect-seg",
        fingerprint="abc",
        n_faults=4,
        bounds=[(0, 4)],
    )
    arrays = {"grp.active": np.array([True, False]), "res.l1": np.arange(3.0)}
    ckpt.set_partial(0, arrays, {"group": 0, "segment": 1, "ticks": 7})
    path = tmp_path / "partial.ckpt"
    ckpt.save(str(path))
    loaded = CampaignCheckpoint.load(str(path))
    assert loaded.partial_lo == 0
    assert loaded.partial_meta["segment"] == 1
    for name, array in arrays.items():
        assert np.array_equal(loaded.partial_arrays[name], array)
    loaded.clear_partial()
    loaded.save(str(path))
    again = CampaignCheckpoint.load(str(path))
    assert again.partial_lo is None and not again.partial_arrays


@pytest.mark.parametrize(
    "kind, old_extra",
    [
        ("detect", "dtype=float64,v=2"),
        ("detect-seg", "segmented:drop=1,div=1,comp=1,v=3"),
    ],
)
def test_checkpoint_with_older_fingerprint_is_rejected(
    segment_campaign, tmp_path, kind, old_extra
):
    """A checkpoint written before the dispatch counters dropped their
    event/fallback/sleep fields holds counter vectors of the old length
    (8 global + 4 per-layer fields).  Its fingerprint option string is
    older too, so resuming it fails with a typed ``CheckpointError``
    instead of merging a vector of the wrong length."""
    simulator = segment_campaign["simulator"]
    stimulus = segment_campaign["stimulus"]
    faults = segment_campaign["faults"]
    data = (stimulus.assembled(),) if kind == "detect" else tuple(stimulus.chunks)
    base = campaign_fingerprint(simulator.network, faults, *data)
    fingerprint = hashlib.sha256(f"{base}|{old_extra}".encode("ascii")).hexdigest()
    n = len(faults)
    half = n // 2
    checkpoint = CampaignCheckpoint(
        kind=kind, fingerprint=fingerprint, n_faults=n, bounds=[(0, half), (half, n)]
    )
    old_vector = np.zeros(8 + 4 * 2, dtype=np.int64)  # two spiking layers
    shard = (np.zeros(half, bool), np.zeros(half), np.zeros((half, 4)))
    if kind == "detect-seg":
        shard += (chain_to_array(stimulus_chain(stimulus)),)
    checkpoint.add(0, shard + (old_vector,))
    path = tmp_path / f"{kind}.ckpt"
    checkpoint.save(str(path))
    with pytest.raises(CheckpointError, match="different campaign"):
        if kind == "detect":
            parallel_detect(
                simulator, stimulus.assembled(), faults, workers=1,
                checkpoint_path=str(path), resume=True,
            )
        else:
            parallel_detect_segmented(
                simulator, stimulus, faults, workers=1,
                checkpoint_path=str(path), resume=True,
            )
