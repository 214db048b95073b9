"""Footprint packing: several campaign rows share one conv run, bit for bit.

A splice-style row (a neuron-splice or delay fault on one neuron) of a
conv layer that feeds a sum pool changes one cell of the next conv's
input, so it reaches only that cell's footprint.  Rows with disjoint
footprints share one input row and one LIF scan
(:meth:`repro.faults.segmented._FaultGroup._run_packed`).  This suite pins

- the lemma it rests on: currents (and LIF updates) of a shared row equal
  each member's alone, on every footprint, for conv layers; and K-batched
  weight copies that pack faults with distinct target neurons equal the
  per-step product, for dense layers;
- the engine against the per-step oracle on a conv -> pool -> conv ->
  pool -> dense -> dense net whose pooled grid is 6x6, so packs form;
- that packing changes no carried state: every coverage-store record is
  byte-identical whether the rows ran alone or in packs.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testset import TestStimulus
from repro.faults import segmented
from repro.faults.catalog import _neuron_variants, build_catalog
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.faults.parallel import fork_available, parallel_detect_segmented
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
    build_network,
)
from repro.snn.events import EventDispatch
from repro.snn.layers import ConvLIF, DenseLIF, SumPool, event_dispatch_context
from repro.snn.neuron import LIFParameters, LIFState
from tests.faults.conftest import drop_on_reference

WINDOW = (6, 11)  # segments span [0, 8), [8, 14), [14, 19)


# ----------------------------------------------------------------------
# The lemma
# ----------------------------------------------------------------------
@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    lo = max(kernel - 2 * padding, 1)
    return {
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "channels": draw(st.integers(1, 4)),
        "filters": draw(st.integers(1, 4)),
        "hw": (draw(st.integers(lo, lo + 8)), draw(st.integers(lo, lo + 8))),
        "steps": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _states(rng, count, shape):
    counters = rng.integers(0, 2, (count,) + shape)
    return LIFState(
        potential=rng.normal(0.2, 0.7, (count,) + shape),
        last_spike=counters.astype(float),
        refractory=counters.astype(np.int64),
    )


@settings(max_examples=120, deadline=None)
@given(case=conv_cases())
def test_conv_rows_with_disjoint_footprints_share_one_run(case):
    """Packed equals alone: one conv run over the golden input plus every
    member's single-cell delta, entered from the golden state plus every
    member's state on its footprint, gives each member's footprint
    currents, spikes and state exactly as its own run does; outside all
    footprints it gives the golden run."""
    rng = np.random.default_rng(case["seed"])
    conv = ConvLIF(
        case["channels"], case["filters"], case["hw"], case["kernel"],
        LIFParameters(leak=0.9, refractory_steps=1),
        stride=case["stride"], padding=case["padding"],
        rng=np.random.default_rng(case["seed"] + 1),
    )
    footprints = segmented._ConvFootprints(conv, None)
    steps, shape = case["steps"], conv.neuron_shape
    golden = rng.integers(0, 5, (steps, 1, case["channels"]) + case["hw"]).astype(float)
    cells = golden[0, 0].size
    # Random members with pairwise disjoint footprints.
    taken = np.zeros(footprints.mask.shape[1], dtype=bool)
    members = []
    for cell in rng.permutation(cells)[: rng.integers(1, 10)]:
        reach = footprints.mask[cell % footprints.locations]
        if not (reach & taken).any():
            members.append(int(cell))
            taken |= reach
    values = rng.integers(0, 5, (steps, len(members))).astype(float)
    golden_state = _states(rng, 1, shape)
    carried = _states(rng, len(members), shape)

    shared_in = golden.copy()
    shared_in.reshape(steps, -1)[:, members] = values
    shared_state = golden_state.copy()
    for j, cell in enumerate(members):
        reach = footprints.mask[cell % footprints.locations]
        for field in ("potential", "last_spike", "refractory"):
            into = getattr(shared_state, field).reshape(shape[0], -1)
            into[:, reach] = getattr(carried, field)[j].reshape(shape[0], -1)[:, reach]
    shared_currents = conv.sequence_currents(shared_in).reshape(steps, shape[0], -1)
    shared_out = conv.run_sequence_fused(shared_in, state=shared_state)
    shared_out = shared_out.reshape(steps, shape[0], -1)

    for j, cell in enumerate(members):
        reach = footprints.mask[cell % footprints.locations]
        alone_in = golden.copy()
        alone_in.reshape(steps, -1)[:, cell] = values[:, j]
        alone_state = LIFState(
            potential=carried.potential[j : j + 1].copy(),
            last_spike=carried.last_spike[j : j + 1].copy(),
            refractory=carried.refractory[j : j + 1].copy(),
        )
        currents = conv.sequence_currents(alone_in).reshape(steps, shape[0], -1)
        out = conv.run_sequence_fused(alone_in, state=alone_state)
        out = out.reshape(steps, shape[0], -1)
        assert np.array_equal(shared_currents[..., reach], currents[..., reach])
        assert np.array_equal(shared_out[..., reach], out[..., reach])
        for field in ("potential", "last_spike", "refractory"):
            shared = getattr(shared_state, field).reshape(shape[0], -1)[:, reach]
            alone = getattr(alone_state, field).reshape(shape[0], -1)[:, reach]
            assert np.array_equal(shared, alone)
    golden_currents = conv.sequence_currents(golden).reshape(steps, shape[0], -1)
    assert np.array_equal(shared_currents[..., ~taken], golden_currents[..., ~taken])


def _one_hot_tile(fp, loc, spikes, golden, base):
    """The tail input of packed rows as ``_footprint_tile`` built it before
    its deltas became int8: float64 deltas of every footprint slot summed
    into pooled cells by a float64 one-hot product."""
    m, slots, steps, channels = spikes.shape
    pos = fp.pos[loc]
    golden = golden.reshape(steps, channels, -1)
    delta = spikes - golden[:, :, pos].transpose(2, 3, 0, 1)
    delta = delta.transpose(0, 2, 3, 1).reshape(m, -1, slots)
    moved = np.matmul(delta, fp.onehot[loc].astype(float)).reshape(m, steps, -1)
    tile = base.reshape(steps, 1, -1) + moved.transpose(1, 0, 2)
    return tile.reshape((steps, m) + base.shape[2:])


@settings(max_examples=80, deadline=None)
@given(case=conv_cases(), pooled=st.booleans(), rows=st.integers(1, 12))
def test_footprint_tile_equals_the_one_hot_product(case, pooled, rows):
    """Each packed row's tail input, its footprint deltas scattered into
    the golden (pooled) conv output, is the one-hot product byte for byte,
    with a sum pool after the conv and without one."""
    rng = np.random.default_rng(case["seed"])
    conv = ConvLIF(
        case["channels"], case["filters"], case["hw"], case["kernel"],
        LIFParameters(leak=0.9, refractory_steps=1),
        stride=case["stride"], padding=case["padding"],
    )
    height, width = conv.neuron_shape[1:]
    window = 2 if pooled and height % 2 == 0 and width % 2 == 0 else None
    fp = segmented._ConvFootprints(conv, window)
    steps = case["steps"]
    golden = (rng.random((steps, 1) + conv.neuron_shape) < 0.4).astype(float)
    base = SumPool(window).run_sequence_fused(golden) if window else golden
    group = SimpleNamespace(
        packing=fp, cell_loc=rng.integers(0, fp.locations, rows),
        module_index=0, tail=3 if window else 2,
    )
    gseg = SimpleNamespace(outputs=[None, None, golden, base])
    spikes = rng.random((rows, fp.pos.shape[1], steps, fp.channels)) < 0.4
    members = np.arange(rows)
    tile = segmented._FaultGroup._footprint_tile(group, members, spikes, gseg)
    expected = _one_hot_tile(fp, group.cell_loc, spikes, golden, base)
    assert tile.dtype == expected.dtype and tile.shape == expected.shape
    assert tile.tobytes() == expected.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    size=st.tuples(st.integers(1, 40), st.integers(1, 12)),
    steps=st.integers(1, 6),
    count=st.integers(1, 24),
    events=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_faults_with_distinct_targets_share_one_weight_copy(
    size, steps, count, events, seed
):
    """``DenseLIF.synapse_splice_currents`` packs entries with distinct
    target neurons into one full weight copy; each entry's current equals
    the per-step product of the layer with that entry alone applied."""
    rng = np.random.default_rng(seed)
    in_features, out_features = size
    layer = DenseLIF(in_features, out_features, LIFParameters(), rng=rng)
    seq = rng.integers(0, 5, (steps, 1, in_features)).astype(float)
    weights = layer.weight.data
    entries = [
        (0, int(widx), float(rng.normal(0.0, 2.0)))
        for widx in rng.integers(0, weights.size, count)
    ]
    with event_dispatch_context([layer], EventDispatch() if events else None):
        got = layer.synapse_splice_currents(seq, entries)
    assert got.shape == (steps, 1, count)
    for k, (_pidx, widx, value) in enumerate(entries):
        faulty = weights.copy()
        faulty.reshape(-1)[widx] = value
        target = widx % out_features
        expected = np.array([(seq[t] @ faulty)[0, target] for t in range(steps)])
        assert np.array_equal(got[:, 0, k], expected)


# ----------------------------------------------------------------------
# The engine against the per-step oracle
# ----------------------------------------------------------------------
def packing_net():
    spec = NetworkSpec(
        name="packing",
        input_shape=(2, 12, 12),
        layers=(
            ConvSpec(out_channels=3, kernel=3, padding=1, weight_scale=4.0),
            PoolSpec(2),
            ConvSpec(out_channels=4, kernel=3, padding=1, weight_scale=4.0),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=10),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(3))


def packing_stimulus(seed=3, durations=(4, 3, 5), density=0.35):
    rng = np.random.default_rng(seed)
    chunks = [
        (rng.random((d, 1, 2, 12, 12)) < density).astype(float) for d in durations
    ]
    return TestStimulus(chunks=chunks, input_shape=(2, 12, 12))


def _packing_faults(net, config):
    """Every neuron-fault kind on conv1 (packed rows) and conv2, permanent
    and windowed across the first segment boundary, plus synapse faults."""
    faults = []
    for module_index, per_kind in ((0, 9), (2, 2)):
        count = net.modules[module_index].neuron_count
        for kind in NeuronFaultKind:
            for variant in _neuron_variants(kind, config):
                for window in (None, WINDOW):
                    for _ in range(per_kind):
                        neuron = (37 * len(faults) + 11) % count
                        faults.append(NeuronFault(
                            module_index=module_index, neuron_index=neuron,
                            kind=kind, window=window, **variant,
                        ))
    catalog = build_catalog(net, config, np.random.default_rng(2))
    return faults + catalog.synapse_faults[::40]


def _channel_faults(net, config, per_filter=2):
    """Synapse faults of every kind (bit-flips at two bits) on both conv
    layers, ``per_filter`` per filter and kind, permanent and windowed
    across the first segment boundary: channel-packed groups."""
    faults = []
    for module_index in (0, 2):
        weight = net.modules[module_index].weight.data
        taps = weight[0].size
        for kind in SynapseFaultKind:
            bits = (2, config.weight_bits - 1) if kind is SynapseFaultKind.BITFLIP else (None,)
            for bit in bits:
                for window in (None, WINDOW):
                    for f in range(len(weight)):
                        for _ in range(per_filter):
                            tap = (7 * len(faults) + 3) % taps
                            faults.append(SynapseFault(
                                module_index=module_index, parameter_index=0,
                                weight_index=f * taps + tap, kind=kind, bit=bit,
                                window=window,
                            ))
    return faults


@pytest.fixture(scope="module")
def packing_campaign():
    net = packing_net()
    config = FaultModelConfig()
    faults = _packing_faults(net, config)
    stimulus = packing_stimulus()
    oracle = FaultSimulator(net, config, fused=False).detect(stimulus.assembled(), faults)
    assert 0 < oracle.detected.sum() < len(faults)
    return {
        "net": net,
        "config": config,
        "faults": faults,
        "stimulus": stimulus,
        "oracle": oracle,
    }


def _alone(locations, conflict):
    """A packer that never packs: every row runs alone."""
    return np.arange(len(locations), dtype=np.int64)


def _assert_same(result, reference):
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


def _strided_net():
    """conv1 -> pool -> a stride-2 conv2 that feeds no pool -> dense."""
    spec = NetworkSpec(
        name="packing-strided",
        input_shape=(2, 12, 12),
        layers=(
            ConvSpec(out_channels=3, kernel=3, padding=1, weight_scale=4.0),
            PoolSpec(2),
            ConvSpec(out_channels=4, kernel=3, stride=2, padding=1, weight_scale=4.0),
            FlattenSpec(),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(3))


@pytest.fixture(scope="module")
def strided_campaign():
    net, config = _strided_net(), FaultModelConfig()
    faults = [f for f in _packing_faults(net, config) if f.module_index != 2]
    stimulus = packing_stimulus()
    oracle = FaultSimulator(net, config, fused=False).detect(stimulus.assembled(), faults)
    assert 0 < oracle.detected.sum() < len(faults)
    return {"net": net, "config": config, "faults": faults,
            "stimulus": stimulus, "oracle": oracle}


@pytest.mark.parametrize("net", ["packing", "strided"])
@pytest.mark.parametrize("drop", [True, False])
def test_packs_form_and_match_the_oracle(request, monkeypatch, net, drop):
    """Packs form and the packed campaign equals the oracle: its flat run
    with dropping off, the drop-on reference derived from it with
    dropping on."""
    campaign = request.getfixturevalue(f"{net}_campaign")
    packs = []
    real = segmented._first_fit

    def spy(locations, conflict):
        packed = real(locations, conflict)
        packs.append(np.bincount(packed))
        return packed

    monkeypatch.setattr(segmented, "_first_fit", spy)
    simulator = FaultSimulator(campaign["net"], campaign["config"])
    result = simulator.detect_segmented(
        campaign["stimulus"], campaign["faults"], drop_detected=drop
    )
    assert packs, "conv1 rows must take the packed path"
    assert max(int(sizes.max()) for sizes in packs) >= 2, "no pack formed"
    reference = campaign["oracle"]
    if drop:
        oracle = FaultSimulator(campaign["net"], campaign["config"], fused=False)
        reference = drop_on_reference(oracle, campaign["stimulus"], campaign["faults"])
    _assert_same(result, reference)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("drop", [False, True])
def test_packed_campaign_matches_per_step_oracle(
    packing_campaign, monkeypatch, drop, workers
):
    if workers > 1 and not fork_available():
        pytest.skip("fork start method unavailable")
    simulator = FaultSimulator(packing_campaign["net"], packing_campaign["config"])
    stimulus, faults = packing_campaign["stimulus"], packing_campaign["faults"]
    result = parallel_detect_segmented(
        simulator, stimulus, faults, workers=workers, drop_detected=drop
    )
    oracle = packing_campaign["oracle"]
    assert np.array_equal(result.detected, oracle.detected)
    if not drop:
        _assert_same(result, oracle)
        return
    # Dropping ends each fault's metrics at its first detection, so they
    # are pinned against the same dropping campaign with every row alone.
    monkeypatch.setattr(segmented, "_first_fit", _alone)
    _assert_same(result, simulator.detect_segmented(stimulus, faults, drop_detected=True))


def _record_tree(store: CoverageStore):
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in store._records()
    }


@pytest.mark.parametrize("drop", [False, True])
def test_packing_changes_no_record_byte(packing_campaign, monkeypatch, tmp_path, drop):
    """Every row's carried state (its downstream state included) and
    metrics are its own: the coverage-store records of a packed campaign
    (footprint-packed splice rows, channel-packed conv synapse rows)
    equal, byte for byte, those of the campaign with every row alone."""
    net, config = packing_campaign["net"], packing_campaign["config"]
    simulator = FaultSimulator(net, config)
    stimulus = packing_campaign["stimulus"]
    faults = packing_campaign["faults"] + _channel_faults(net, config)
    packed = CoverageStore(tmp_path / "packed")
    simulator.detect_segmented(stimulus, faults, drop_detected=drop, store=packed)
    monkeypatch.setattr(segmented, "_first_fit", _alone)
    alone = CoverageStore(tmp_path / "alone")
    simulator.detect_segmented(stimulus, faults, drop_detected=drop, store=alone)
    tree = _record_tree(packed)
    assert len(tree) > 10
    assert tree == _record_tree(alone)


def test_packed_rows_carry_their_own_downstream_state(packing_campaign, monkeypatch):
    """A packed row's exported downstream state is the golden exit state
    off its footprint, whatever it was packed with."""
    simulator = FaultSimulator(packing_campaign["net"], packing_campaign["config"])
    faults = [f for f in packing_campaign["faults"] if f.module_index == 0]
    exported = {}
    real_step = segmented._FaultGroup.step

    def step(self, campaign, segment_index, gseg):
        real_step(self, campaign, segment_index, gseg)
        arrays = self.export_arrays()
        if self.packing is not None and "grp.drows" in arrays:
            exported[(self.kind, self.window, segment_index)] = (
                arrays, gseg.exit_states[2], self.cell_loc.copy(), self.packing.mask,
            )

    monkeypatch.setattr(segmented._FaultGroup, "step", step)
    simulator.detect_segmented(
        packing_campaign["stimulus"], faults, drop_detected=False
    )
    assert exported
    for arrays, golden, locations, mask in exported.values():
        for row, state in zip(arrays["grp.drows"], arrays["grp.d1.pot"]):
            off = ~mask[locations[row]]
            expected = golden.potential[0].reshape(state.shape[0], -1)[:, off]
            assert np.array_equal(state.reshape(state.shape[0], -1)[:, off], expected)
