"""Array-backed fault rows of the segment-wise engine.

The downstream LIF state of a group's diverged rows lives in one
potential / last-spike / refractory slab per stateful downstream module,
indexed by a per-row slot (:class:`repro.faults.segmented._RowStates`),
and a segment's metrics are accumulated once per batch
(:meth:`repro.faults.segmented.SegmentedDetectionCampaign.record`).  This
suite pins

- the slot contract: a dropped row's slot is reused, and growing the
  slabs keeps every held row's state bit for bit;
- that a group's carried state round-trips: ``export_arrays`` ->
  ``restore_arrays`` (into a fresh group) -> ``export_arrays`` is
  byte-identical after every segment, with rows diverged, dropped and
  re-seeded, on the packing net and on a recurrent -> dense net, with
  dropping on and off;
- that batched recording equals the per-row accumulation it replaced
  (kept below as the reference), bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testset import TestStimulus
from repro.faults import segmented
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import DenseSpec, NetworkSpec, RecurrentSpec, build_network
from repro.snn.neuron import LIFParameters, LIFState

from tests.faults.test_footprint_packing import (
    _packing_faults,
    packing_net,
    packing_stimulus,
)


def _recurrent_net():
    spec = NetworkSpec(
        name="row-state-rec",
        input_shape=(10,),
        layers=(RecurrentSpec(out_features=8), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(1))


def _recurrent_stimulus():
    rng = np.random.default_rng(4)
    chunks = [(rng.random((d, 1, 10)) > 0.5).astype(float) for d in (4, 3, 5)]
    return TestStimulus(chunks=chunks, input_shape=(10,))


# ----------------------------------------------------------------------
# The slot contract
# ----------------------------------------------------------------------
def _random_state(rng, slab, count):
    shape = (count,) + slab.potential.shape[1:]
    counters = rng.integers(0, 3, shape)
    return LIFState(
        potential=rng.normal(0.0, 1.0, shape),
        last_spike=(counters > 0).astype(float),
        refractory=counters.astype(np.int64),
    )


def _stateful(rows):
    return [dj for dj, slab in enumerate(rows.slabs) if slab is not None]


def test_dropped_rows_slots_are_reused():
    # pool, conv, pool, flatten, dense, dense: stateless and stateful.
    rows = segmented._RowStates(packing_net().modules[1:], 40)
    assert _stateful(rows) == [1, 4, 5]
    first = rows.take(np.arange(6))
    assert sorted(first.tolist()) == list(range(6))
    capacity = rows.capacity
    assert capacity == 6, "slabs follow the divergence front, not all rows"
    rows.give_back(np.array([1, 4]))
    assert rows.slot[1] == rows.slot[4] == -1
    again = rows.take(np.array([20, 30]))
    assert sorted(again.tolist()) == sorted(first[[1, 4]].tolist())
    assert rows.capacity == capacity
    assert (rows.slot >= 0).sum() == 6


def test_growth_keeps_held_rows_state_bit_for_bit():
    rng = np.random.default_rng(0)
    rows = segmented._RowStates(packing_net().modules[1:], 500)
    written = {}  # (row, dj) -> that row's state
    capacities = [0]
    next_row = 0
    for round_ in range(7):
        new = np.arange(next_row, next_row + 3 + 5 * round_)
        next_row += len(new)
        slots = rows.take(new)
        for dj in _stateful(rows):
            state = _random_state(rng, rows.slabs[dj], len(new))
            rows.scatter(dj, slots, state)
            for j, row in enumerate(new.tolist()):
                written[row, dj] = LIFState(
                    state.potential[j], state.last_spike[j], state.refractory[j]
                )
        held = np.flatnonzero(rows.slot >= 0)
        dropped = held[rng.random(len(held)) < 0.3]
        rows.give_back(dropped)
        if rows.capacity != capacities[-1]:
            assert rows.capacity >= 2 * capacities[-1]
            capacities.append(rows.capacity)
        held = np.flatnonzero(rows.slot >= 0)
        for dj in _stateful(rows):
            got = rows.gather(dj, rows.slot[held])
            for j, row in enumerate(held.tolist()):
                for name in ("potential", "last_spike", "refractory"):
                    mine = getattr(got, name)[j]
                    want = getattr(written[row, dj], name)
                    assert mine.dtype == want.dtype
                    assert mine.tobytes() == want.tobytes()
    assert len(capacities) >= 3, "the slabs never grew"
    assert capacities[-1] < 500


# ----------------------------------------------------------------------
# export -> restore -> export
# ----------------------------------------------------------------------
def _as_bytes(arrays):
    return {
        key: (value.dtype.str, value.shape, np.ascontiguousarray(value).tobytes())
        for key, value in arrays.items()
    }


@pytest.fixture(scope="module", params=["packing", "recurrent"])
def row_campaign(request):
    config = FaultModelConfig()
    if request.param == "packing":
        net, stimulus = packing_net(), packing_stimulus()
        faults = _packing_faults(net, config)
    else:
        net, stimulus = _recurrent_net(), _recurrent_stimulus()
        faults = build_catalog(net, config).faults
    return FaultSimulator(net, config), stimulus, faults


@pytest.mark.parametrize("drop", [False, True])
def test_carried_state_round_trips_byte_identically(row_campaign, monkeypatch, drop):
    simulator, stimulus, faults = row_campaign
    plain = simulator.detect_segmented(stimulus, faults, drop_detected=drop)
    real_step = segmented._FaultGroup.step
    held = {}  # (group, segment) -> the rows holding downstream state

    def step(self, campaign, segment_index, gseg):
        real_step(self, campaign, segment_index, gseg)
        exported = self.export_arrays()
        copy = {key: value.copy() for key, value in exported.items()}
        fresh = segmented._FaultGroup(
            campaign, self.kind, self.module_index, self.indices, window=self.window
        )
        fresh.restore_arrays(copy)
        assert _as_bytes(fresh.export_arrays()) == _as_bytes(exported)
        drows = exported.get("grp.drows", np.empty(0, dtype=np.int64))
        held[id(self), segment_index] = set(drows.tolist())

    monkeypatch.setattr(segmented._FaultGroup, "step", step)
    result = simulator.detect_segmented(stimulus, faults, drop_detected=drop)
    # The round trips touched nothing the campaign carries.
    assert np.array_equal(result.detected, plain.detected)
    assert np.array_equal(result.output_l1, plain.output_l1)
    assert np.array_equal(result.class_count_diff, plain.class_count_diff)

    seeded = dropped = False
    for (group, segment), rows in held.items():
        before = held.get((group, segment - 1), set())
        seeded |= bool(before) and bool(rows - before)
        dropped |= bool(before - rows)
    assert seeded, "no row diverged while others held state"
    assert dropped == drop, "rows leave the slabs exactly when dropped"


# ----------------------------------------------------------------------
# Batched recording
# ----------------------------------------------------------------------
def _record_per_row(campaign, fault_idx, outs, gseg):
    """The per-row accumulation the batched ``record`` replaced."""
    for j, fault in enumerate(fault_idx):
        out_flat = outs[:, j]
        diff = np.abs(out_flat - gseg.out_flat).sum()
        campaign.output_l1[fault] += diff
        campaign.counts_delta[fault] += out_flat.sum(axis=0) - gseg.counts
        if diff > 0:
            campaign.detected[fault] = True


def _accumulators(rng, faults, classes):
    return SimpleNamespace(
        detected=rng.random(faults) < 0.2,
        output_l1=rng.integers(0, 50, faults).astype(float),
        counts_delta=rng.integers(-9, 10, (faults, classes)).astype(float),
    )


@settings(max_examples=150, deadline=None)
@given(
    steps=st.integers(1, 12),
    classes=st.integers(1, 6),
    faults=st.integers(1, 40),
    top=st.sampled_from([1, 4]),  # spike trains, or pooled spike counts
    golden_rows=st.integers(0, 3),
    segments=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_recording_equals_per_row_accumulation(
    steps, classes, faults, top, golden_rows, segments, seed
):
    rng = np.random.default_rng(seed)
    batched = _accumulators(rng, faults, classes)
    per_row = SimpleNamespace(**{
        name: value.copy() for name, value in vars(batched).items()
    })
    for _ in range(segments):
        golden = rng.integers(0, top + 1, (steps, 1, classes)).astype(float)
        gseg = segmented._GoldenSegment(golden, [golden], [], [])
        count = int(rng.integers(1, faults + 1))
        fault_idx = rng.permutation(faults)[:count]
        outs = rng.integers(0, top + 1, (steps, count, classes)).astype(float)
        # Some rows reproduce the golden output exactly (no detection).
        outs[:, :golden_rows] = golden
        segmented.SegmentedDetectionCampaign.record(batched, fault_idx, outs, gseg)
        _record_per_row(per_row, fault_idx, outs, gseg)
    for name in ("detected", "output_l1", "counts_delta"):
        assert getattr(batched, name).tobytes() == getattr(per_row, name).tobytes(), name
