"""Channel packing: conv synapse faults on distinct filters share one
weight copy and one LIF scan, bit for bit; splice-style groups scan every
active row at once.

A synapse fault on kernel entry ``(f, c, i, j)`` of a conv layer changes
only output channel ``f``.  The segment-wise engine runs such faults
packed: faults on distinct filters write their entries into one weight
copy, and each leaves with the golden output and state, its own channel
in place (:meth:`repro.faults.segmented._FaultGroup._run_channels`).
This suite pins

- the lemma it rests on: a packed copy's channel ``f`` equals the own
  copy's, through the patch GEMM and through the LIF scan entered from
  mixed carried states;
- the packer's contract (``_first_fit``, shared with footprint packing);
- the engine against the per-step oracle on the packing net, with synapse
  faults of every kind on both conv layers, packed and (with the groups'
  ``channel`` cleared) one weight copy per row;
- that splice and dense synapse-splice groups wider than one 64-row batch,
  with a window edge inside a segment, match the oracle.

Record bytes are pinned in ``test_footprint_packing.py`` and crash/resume
in ``tests/chaos/test_packed_resume.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import functional as F
from repro.faults import segmented
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
from repro.snn.layers import ConvLIF
from repro.snn.neuron import LIFParameters, LIFState

from tests.faults.conftest import drop_on_reference
from tests.faults.test_footprint_packing import (
    WINDOW,
    _channel_faults,
    _record_tree,
    _states,
    _strided_net,
    packing_net,
    packing_stimulus,
)

DENSE1 = 5  # the packing net's first dense layer: 144 inputs, 10 neurons


# ----------------------------------------------------------------------
# The lemma
# ----------------------------------------------------------------------
@st.composite
def channel_cases(draw):
    kernel = draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    lo = max(kernel - 2 * padding, 1)
    return {
        "kernel": kernel,
        "stride": draw(st.integers(1, 2)),
        "padding": padding,
        "channels": draw(st.integers(1, 4)),
        "filters": draw(st.integers(1, 8)),
        "hw": (draw(st.integers(lo, lo + 8)), draw(st.integers(lo, lo + 8))),
        "steps": draw(st.integers(1, 5)),
        "binary": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=150, deadline=None)
@given(case=channel_cases())
def test_faults_on_distinct_filters_share_one_weight_copy(case):
    """One weight copy holding one faulty entry on each of several
    distinct filters gives, on each member's channel, exactly the patch
    GEMM and the LIF scan of the member's own copy, with the packed scan
    entered from the golden state plus every member's carried channel."""
    rng = np.random.default_rng(case["seed"])
    conv = ConvLIF(
        case["channels"], case["filters"], case["hw"], case["kernel"],
        LIFParameters(leak=0.9, refractory_steps=1),
        stride=case["stride"], padding=case["padding"],
        rng=np.random.default_rng(case["seed"] + 1),
    )
    weight, shape, steps = conv.weight.data, conv.neuron_shape, case["steps"]
    kernel, stride, padding = case["kernel"], case["stride"], case["padding"]
    high = 2 if case["binary"] else 5
    x = rng.integers(0, high, (steps, 1, case["channels"]) + case["hw"]).astype(float)
    members = rng.permutation(case["filters"])[: rng.integers(1, case["filters"] + 1)]
    owns, packed = [], weight.copy()
    for f in members:
        own = weight.copy()
        tap = rng.integers(0, weight[f].size)
        own[f].reshape(-1)[tap] = packed[f].reshape(-1)[tap] = rng.choice(
            [0.0, rng.normal(0.0, 3.0)]
        )
        owns.append(own)

    def gemm(w):
        flat = x.reshape((steps,) + x.shape[2:])
        return F.im2col_matmul(w.reshape(len(w), -1), flat, kernel, kernel, stride, padding)

    shared = gemm(packed)
    # The engine's form: the copies stacked, against one patch matrix.
    stack = np.stack([packed] + owns).reshape(len(owns) + 1, 1, len(weight), -1)
    stacked = F.im2col_matmul(stack, x[:, None], kernel, kernel, stride, padding)
    for j, (f, own) in enumerate(zip(members, owns)):
        alone = gemm(own)
        assert np.array_equal(shared[:, f], alone[:, f])
        assert np.array_equal(stacked[:, 0, 0, f], alone[:, f])
        assert np.array_equal(stacked[:, j + 1, 0, f], alone[:, f])

    golden_state = _states(rng, 1, shape)
    carried = _states(rng, len(members), shape)
    tile = golden_state.copy()
    for j, f in enumerate(members):
        for field in ("potential", "last_spike", "refractory"):
            getattr(tile, field)[0, f] = getattr(carried, field)[j, f]
    out = conv.run_sequence_kbatched_fused(x, [packed[None]], state=tile)
    for j, (f, own) in enumerate(zip(members, owns)):
        alone_state = LIFState(
            potential=carried.potential[j : j + 1].copy(),
            last_spike=carried.last_spike[j : j + 1].copy(),
            refractory=carried.refractory[j : j + 1].copy(),
        )
        alone = conv.run_sequence_kbatched_fused(x, [own[None]], state=alone_state)
        assert np.array_equal(out[:, 0, f], alone[:, 0, f])
        for field in ("potential", "last_spike", "refractory"):
            assert np.array_equal(
                getattr(tile, field)[0, f], getattr(alone_state, field)[0, f]
            )


# ----------------------------------------------------------------------
# The packer
# ----------------------------------------------------------------------
@st.composite
def packing_problems(draw):
    count = draw(st.integers(1, 12))
    locations = draw(st.lists(st.integers(0, count - 1), max_size=60))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)), max_size=40
    ))
    meets = np.eye(count, dtype=bool)
    for a, b in pairs:
        meets[a, b] = meets[b, a] = True
    return np.asarray(locations, dtype=np.int64), meets


def _bits(meets):
    return [sum(1 << int(b) for b in np.flatnonzero(row)) for row in meets]


@settings(max_examples=300, deadline=None)
@given(problem=packing_problems())
def test_first_fit_packs_each_row_into_the_lowest_pack_that_admits_it(problem):
    """No pack holds two rows whose locations conflict, and each row sits
    in the lowest pack that admits it given the rows before it."""
    locations, meets = problem
    packs = segmented._first_fit(locations, _bits(meets))
    assert packs.shape == locations.shape
    for j, (loc, pack) in enumerate(zip(locations, packs)):
        for q in range(pack + 1):
            earlier = locations[:j][packs[:j] == q]
            admits = not meets[earlier, loc].any()
            assert admits == (q == pack), (j, q, pack)


@settings(max_examples=200, deadline=None)
@given(locations=st.lists(st.integers(0, 7), max_size=80))
def test_first_fit_with_self_conflicts_counts_earlier_rows_at_the_location(locations):
    """When every location conflicts only with itself (filters), a row's
    pack is the number of earlier rows at its location."""
    locations = np.asarray(locations, dtype=np.int64)
    packs = segmented._first_fit(locations, [1 << f for f in range(8)])
    expected = [int(np.sum(locations[:j] == loc)) for j, loc in enumerate(locations)]
    assert packs.tolist() == expected


# ----------------------------------------------------------------------
# The engine against the per-step oracle
# ----------------------------------------------------------------------
def _oracle(net, config):
    return FaultSimulator(net, config, fused=False, synapse_batch=1, neuron_splice=False)


def _unpack_channels(monkeypatch):
    """Run conv synapse groups the per-row K-batched way, one weight copy
    per row at full resolution: every group's ``channel`` is cleared."""
    real = segmented._FaultGroup.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self.channel is not None:
            self.channel, self.entry = None, 0

    monkeypatch.setattr(segmented._FaultGroup, "__init__", init)


@pytest.fixture(scope="module")
def channel_campaign():
    net, config = packing_net(), FaultModelConfig()
    faults = _channel_faults(net, config)
    stimulus = packing_stimulus()
    oracle = _oracle(net, config)
    reference = {
        False: oracle.detect(stimulus.assembled(), faults),
        # Dropping ends each fault's metrics at its first detection.
        True: drop_on_reference(oracle, stimulus, faults),
    }
    assert 0 < reference[False].detected.sum() < len(faults)
    return {"net": net, "config": config, "faults": faults,
            "stimulus": stimulus, "reference": reference}


def _assert_same(result, reference):
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("drop", [False, True])
def test_channel_packed_campaign_matches_per_step_oracle(
    channel_campaign, monkeypatch, drop, workers, packed
):
    if workers > 1 and not fork_available():
        pytest.skip("fork start method unavailable")
    if not packed:
        _unpack_channels(monkeypatch)
    sizes = []
    real = segmented._first_fit

    def spy(locations, conflict):
        packs = real(locations, conflict)
        sizes.append(int(np.bincount(packs).max()))
        return packs

    monkeypatch.setattr(segmented, "_first_fit", spy)
    simulator = FaultSimulator(channel_campaign["net"], channel_campaign["config"])
    result = parallel_detect_segmented(
        simulator, channel_campaign["stimulus"], channel_campaign["faults"],
        workers=workers, drop_detected=drop,
    )
    _assert_same(result, channel_campaign["reference"][drop])
    if workers == 1:
        # Forked shards pack in their own processes, out of the spy's view.
        assert bool(sizes) == packed
        assert not packed or max(sizes) >= 2, "no pack formed"


@pytest.mark.parametrize("net", [packing_net, _strided_net], ids=["pooled", "strided"])
def test_channel_packs_match_the_oracle_with_and_without_a_pool(net):
    """Channel-packed rows leave at pooled resolution before a sum pool
    (the packing net) and at full resolution before a flatten (the
    strided net's stride-2 conv2)."""
    net, config, stimulus = net(), FaultModelConfig(), packing_stimulus()
    faults = _channel_faults(net, config)
    oracle = _oracle(net, config).detect(stimulus.assembled(), faults)
    assert 0 < oracle.detected.sum() < len(faults)
    result = FaultSimulator(net, config).detect_segmented(
        stimulus, faults, drop_detected=False
    )
    _assert_same(result, oracle)


@pytest.mark.parametrize("drop", [False, True])
def test_channel_packing_keeps_the_kbatched_records(
    channel_campaign, monkeypatch, tmp_path, drop
):
    """Every record a channel-packed campaign writes is the record of the
    per-row K-batched run (the groups' ``channel`` cleared), byte for
    byte: same group kind, same carried state."""
    campaign = channel_campaign
    simulator = FaultSimulator(campaign["net"], campaign["config"])
    trees = []
    for packed in (True, False):
        if not packed:
            _unpack_channels(monkeypatch)
        store = CoverageStore(tmp_path / f"packed{int(packed)}")
        simulator.detect_segmented(
            campaign["stimulus"], campaign["faults"], drop_detected=drop, store=store
        )
        trees.append(_record_tree(store))
    assert len(trees[0]) > 10
    assert trees[0] == trees[1]


# ----------------------------------------------------------------------
# Wide mini-LIFs
# ----------------------------------------------------------------------
def _wide_faults(net):
    """A windowed neuron-splice group on conv2 and a windowed dense
    synapse-splice group, each of more than one 64-row batch; ``WINDOW``
    opens and closes inside a segment."""
    conv2 = net.modules[2]
    faults = [
        NeuronFault(module_index=2, neuron_index=neuron, kind=kind, window=WINDOW)
        for kind in (NeuronFaultKind.DEAD, NeuronFaultKind.SATURATED)
        for neuron in range(0, conv2.neuron_count, 3)
    ]
    faults += [
        NeuronFault(module_index=2, neuron_index=neuron, window=WINDOW,
                    kind=NeuronFaultKind.PARAM_THRESHOLD, scale=0.5)
        for neuron in range(1, conv2.neuron_count, 5)
    ]
    weights = net.modules[DENSE1].weight.data.size
    faults += [
        SynapseFault(module_index=DENSE1, parameter_index=0, weight_index=widx,
                     kind=kind, window=WINDOW)
        for kind in (SynapseFaultKind.SATURATED_POSITIVE, SynapseFaultKind.DEAD)
        for widx in range(1, weights, 11)
    ]
    return faults


@pytest.mark.parametrize("drop", [False, True])
def test_wide_mini_lifs_match_the_oracle(monkeypatch, drop):
    net, config, stimulus = packing_net(), FaultModelConfig(), packing_stimulus()
    faults = _wide_faults(net)
    widths = {}
    real = segmented._FaultGroup._mini_lif

    def spy(self, rows, *args, **kwargs):
        widths[self.kind] = max(widths.get(self.kind, 0), len(rows))
        return real(self, rows, *args, **kwargs)

    monkeypatch.setattr(segmented._FaultGroup, "_mini_lif", spy)
    result = FaultSimulator(net, config).detect_segmented(
        stimulus, faults, drop_detected=drop
    )
    assert widths["splice"] > segmented._SPLICE_BATCH
    assert widths["synapse_splice"] > segmented._SPLICE_BATCH
    oracle = _oracle(net, config)
    reference = (
        drop_on_reference(oracle, stimulus, faults)
        if drop
        else oracle.detect(stimulus.assembled(), faults)
    )
    assert 0 < reference.detected.sum() < len(faults)
    _assert_same(result, reference)
