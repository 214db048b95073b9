"""Chaos scenarios: a crash at a coverage-store write, then a re-run
against the same store, on campaigns whose rows carry packed or delayed
state across segment boundaries.  Every resumed campaign must be
bit-identical to the per-step oracle.

- **Packed rows.**  conv1 rows of the conv -> pool -> conv -> pool net run
  conv2 several to a shared row; each row's own conv2 state goes into the
  records, and a resume must continue from it.
- **Channel-packed rows.**  Synapse faults on the conv layers of the same
  net share weight copies, one fault per filter; each row's own conv
  state, the golden exit state with its channel from the copy, goes into
  the records, and a resume must continue from it.
- **Delay history.**  A DELAY fault's output at the start of a segment is
  the tail of the previous one, carried in ``grp.hist``.  The delays here
  (6 steps) are longer than the sleep gaps (4 and 3 steps), and every
  delayed neuron fires within its delay of a segment end, so the carried
  tails hold spikes: a resume that zero-filled them would drop them.  The
  scenario runs on the packing net (its conv1 delay rows are packed) and
  on a two-layer dense net.
- **Reused slots.**  With dropping, a dropped row's downstream slot goes
  to a row that diverges later.  A crash at the write of a segment whose
  end dropped rows, or of the next one, whose new rows took their slots,
  resumes with a slot history of its own; its results and every record
  must equal the uninterrupted run's.
"""

import numpy as np
import pytest

from repro.core.checkpoint import deserialize_checkpoint
from repro.core.testset import TestStimulus
from repro.errors import ChaosError
from repro.faults import segmented
from repro.faults.model import FaultModelConfig, NeuronFault, NeuronFaultKind
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore, StoreSession
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters
from repro.utils import chaos

from tests.faults.test_footprint_packing import (
    WINDOW,
    _channel_faults,
    _packing_faults,
    _record_tree,
    packing_net,
    packing_stimulus,
)

DELAY = 6  # longer than both sleep gaps
BOUNDARIES = (8, 14)  # segments span [0, 8), [8, 14), [14, 19)


def _dense_net():
    spec = NetworkSpec(
        name="delay-chaos",
        input_shape=(12,),
        layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(0))


def _dense_stimulus():
    rng = np.random.default_rng(1)
    chunks = [(rng.random((d, 1, 12)) > 0.5).astype(float) for d in (4, 3, 5)]
    return TestStimulus(chunks=chunks, input_shape=(12,))


def _campaign(net, stimulus, faults):
    config = FaultModelConfig()
    oracle = FaultSimulator(
        net, config, fused=False, synapse_batch=1, neuron_splice=False
    ).detect(stimulus.assembled(), faults)
    return {
        "simulator": FaultSimulator(net, config),
        "stimulus": stimulus,
        "faults": faults,
        "oracle": oracle,
    }


def _delay_faults(net, stimulus, modules):
    """DELAY faults on every neuron of ``modules`` that fires within
    ``DELAY`` steps before a segment boundary, permanent and windowed."""
    outputs = net.run_modules(stimulus.assembled())
    faults = []
    for module_index in modules:
        trains = outputs[module_index].reshape(len(stimulus.assembled()), -1)
        near_end = np.zeros(trains.shape[1], dtype=bool)
        for end in BOUNDARIES:
            near_end |= trains[end - DELAY : end].any(axis=0)
        for neuron in np.flatnonzero(near_end):
            for window in (None, WINDOW):
                faults.append(NeuronFault(
                    module_index=module_index, neuron_index=int(neuron),
                    kind=NeuronFaultKind.DELAY, delay=DELAY, window=window,
                ))
    assert len(faults) >= 8, "too few neurons fire near a segment end"
    return faults


@pytest.fixture(scope="module", params=["packing", "dense"])
def delay_campaign(request):
    if request.param == "packing":
        net, stimulus, modules = packing_net(), packing_stimulus(), (0, 6)
    else:
        net, stimulus, modules = _dense_net(), _dense_stimulus(), (0, 1)
    return _campaign(net, stimulus, _delay_faults(net, stimulus, modules))


@pytest.fixture(scope="module")
def packed_campaign():
    net, stimulus = packing_net(), packing_stimulus()
    return _campaign(net, stimulus, _packing_faults(net, FaultModelConfig()))


@pytest.fixture(scope="module")
def channel_campaign():
    net, stimulus = packing_net(), packing_stimulus()
    return _campaign(net, stimulus, _channel_faults(net, FaultModelConfig()))


class _WriteLog(CoverageStore):
    """A store that remembers every record it writes."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.records = []

    def put_bytes(self, key, payload):
        written = super().put_bytes(key, payload)
        if written:
            self.records.append(deserialize_checkpoint(payload))
        return written


def _detect(campaign, drop, store):
    return campaign["simulator"].detect_segmented(
        campaign["stimulus"], campaign["faults"], drop_detected=drop, store=store
    )


def _carried_writes(campaign, drop, root, group_kind, module=None):
    """Chaos keys of the writes right after each record of a
    ``group_kind`` group (of ``module``, if given) that carries state
    across a segment boundary, plus those records."""
    log = _WriteLog(root)
    _detect(campaign, drop, log)
    keys, records = [], []
    # The last write has no write after it to crash at.
    for key, (arrays, meta) in enumerate(log.records[:-1]):
        if (
            meta["kind"] == "cov-group"
            and meta["has_state"]
            and meta["group_kind"] == group_kind
            and module in (None, meta["module"])
        ):
            keys.append(key + 1)
            records.append(arrays)
    assert keys, f"no carried {group_kind} record to crash after"
    return keys, records


def _crash_then_resume(campaign, drop, root, key):
    with chaos.installed(chaos.ChaosPolicy.parse(f"raise@store-write:{key}")):
        with pytest.raises(ChaosError):
            _detect(campaign, drop, CoverageStore(root))
    return _detect(campaign, drop, CoverageStore(root))


def _assert_resumed(campaign, drop, result):
    reference = campaign["oracle"]
    assert np.array_equal(result.detected, reference.detected)
    if drop:
        # Dropping ends each fault's metrics at its first detection, so
        # they are pinned against an uninterrupted dropping run instead.
        reference = _detect(campaign, True, None)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


@pytest.mark.parametrize("strike", [0, -1])
@pytest.mark.parametrize("drop", [False, True])
def test_crash_after_carried_delay_history_resumes_bit_identical(
    delay_campaign, tmp_path, drop, strike
):
    keys, records = _carried_writes(delay_campaign, drop, tmp_path / "log", "delay")
    assert any(arrays["grp.hist"].any() for arrays in records), (
        "the carried delay tails must hold spikes"
    )
    result = _crash_then_resume(delay_campaign, drop, tmp_path / "store", keys[strike])
    _assert_resumed(delay_campaign, drop, result)


@pytest.mark.parametrize("strike", [0, 2, -1])
@pytest.mark.parametrize("drop", [False, True])
def test_crash_after_carried_packed_state_resumes_bit_identical(
    packed_campaign, tmp_path, drop, strike
):
    keys, records = _carried_writes(
        packed_campaign, drop, tmp_path / "log", "splice", module=0
    )
    assert any("grp.d1.pot" in arrays for arrays in records), (
        "the records must carry conv2 state of packed rows"
    )
    result = _crash_then_resume(packed_campaign, drop, tmp_path / "store", keys[strike])
    _assert_resumed(packed_campaign, drop, result)


@pytest.mark.parametrize("strike", [0, 2, -1])
@pytest.mark.parametrize("drop", [False, True])
def test_crash_after_channel_packed_state_resumes_bit_identical(
    channel_campaign, tmp_path, drop, strike
):
    keys, records = _carried_writes(channel_campaign, drop, tmp_path / "log", "synapse_k")
    assert any(arrays["grp.diverged"].any() for arrays in records), (
        "the records must carry channel-packed rows that diverged"
    )
    result = _crash_then_resume(channel_campaign, drop, tmp_path / "store", keys[strike])
    _assert_resumed(channel_campaign, drop, result)


def _reused_slot_writes(campaign, root, monkeypatch):
    """The chaos keys of two record writes of an uninterrupted dropping run
    against a fresh store at ``root``: those of the first segment in which
    rows newly diverged into slots that rows dropped before had freed, and
    of the segment before it, whose end dropped them; plus the run's
    result."""
    real_take = segmented._RowStates.take
    real_step = segmented._FaultGroup.step
    real_stage = StoreSession.stage_group
    reused = [False]
    events = []  # (group id, segment) of each segment that reused slots
    writes = {}  # (group id, segment) -> chaos key of its record write

    def take(self, rows):
        slots = real_take(self, rows)
        issued = self.__dict__.setdefault("issued", set())
        reused[0] |= not issued.isdisjoint(slots.tolist())
        issued.update(slots.tolist())
        return slots

    def step(self, campaign_, segment_index, gseg):
        reused[0] = False
        real_step(self, campaign_, segment_index, gseg)
        if reused[0]:
            events.append((id(self), segment_index))

    def stage(self, campaign_, group, gdigest, segment_index):
        writes[id(group), segment_index] = self.store._write_count
        return real_stage(self, campaign_, group, gdigest, segment_index)

    with monkeypatch.context() as patch:
        patch.setattr(segmented._RowStates, "take", take)
        patch.setattr(segmented._FaultGroup, "step", step)
        patch.setattr(StoreSession, "stage_group", stage)
        result = _detect(campaign, True, CoverageStore(root))
    assert events, "no row diverged into a slot a dropped row had freed"
    group, segment = events[0]
    return {"dropping": writes[group, segment - 1], "reusing": writes[group, segment]}, result


@pytest.mark.parametrize("crash_at", ["dropping", "reusing"])
@pytest.mark.parametrize("which", ["packed", "channel"])
def test_crash_where_dropped_rows_slots_are_reused_resumes_bit_identical(
    request, tmp_path, monkeypatch, which, crash_at
):
    """The crash hits the write of a segment whose end dropped rows
    (``dropping``: the resumed run drops them and reuses their slots
    itself), or of the next segment, in which other rows newly diverged
    into the freed slots (``reusing``: the resumed run restores the held
    rows into slots of its own and grows them instead).  Either way its
    slot history differs from the uninterrupted run's; its results and
    every record must not."""
    campaign = request.getfixturevalue(f"{which}_campaign")
    keys, whole = _reused_slot_writes(campaign, tmp_path / "whole", monkeypatch)
    result = _crash_then_resume(campaign, True, tmp_path / "store", keys[crash_at])
    assert np.array_equal(result.detected, campaign["oracle"].detected)
    assert np.array_equal(result.detected, whole.detected)
    assert np.array_equal(result.output_l1, whole.output_l1)
    assert np.array_equal(result.class_count_diff, whole.class_count_diff)
    tree = _record_tree(CoverageStore(tmp_path / "store"))
    assert len(tree) > 10
    assert tree == _record_tree(CoverageStore(tmp_path / "whole"))
