"""Differential suite for the extended fault families.

PR 5 proved the segmented engine exactly matches the assembled campaign
for the paper's classic catalog.  This suite extends the obligation to
the full extended model — parametric neuron faults, delay faults,
weight-memory bit-flips, and time-windowed transients — across every
way the production engine runs, against the per-step oracle:

1. **oracle**: ``FaultSimulator(fused=False)`` on the assembled stimulus
   (per-step kernels, one synapse fault per pass — the semantic
   reference implementation),
2. **flat**: the default (production) simulator on the assembled
   stimulus,
3. **process-parallel**: ``parallel_detect`` / ``parallel_detect_segmented``
   with 4 workers (the ``REPRO_WORKERS=4`` production path),
4. **segmented**: ``detect_segmented`` with fault dropping on and off
   (divergence-bounded propagation and batch compaction always on); with
   dropping on, the reference is the oracle run on the stimulus cut at
   each segment end (``drop_on_reference``).

All comparisons are ``np.array_equal`` — no tolerances.  The physically
subtle case is pinned explicitly: a transient fault whose activity window
straddles a segment boundary, where the segmented engine must swap the
faulty parameter mid-campaign while carrying LIF membrane state (and, for
DELAY faults, the golden trace history) across the boundary.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.faults.parallel import (
    fork_available,
    parallel_detect,
    parallel_detect_segmented,
)
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
    RecurrentSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters
from tests.faults.conftest import drop_on_reference

# Segment layout [4, 3, 5] -> segment spans [0, 8), [8, 14), [14, 19).
# The (5, 16) window straddles BOTH internal boundaries; (2, 9) straddles
# the first.  (The assembled test is 19 steps long.)
CHUNKS = [4, 3, 5]
STRADDLING = (5, 16)

EXTENDED = FaultModelConfig(
    neuron_kinds=tuple(NeuronFaultKind),
    bitflip_bits=(0, 3, 6),
    transient_windows=((2, 9), STRADDLING),
    transient_neuron_kinds=(
        NeuronFaultKind.DEAD,
        NeuronFaultKind.PARAM_THRESHOLD,
        NeuronFaultKind.DELAY,
    ),
    transient_synapse_kinds=(SynapseFaultKind.DEAD, SynapseFaultKind.BITFLIP),
)


def _mixed_net():
    spec = NetworkSpec(
        name="mixed",
        input_shape=(2, 6, 6),
        layers=(
            ConvSpec(out_channels=3, kernel=3, padding=1),
            PoolSpec(2),
            FlattenSpec(),
            DenseSpec(out_features=8),
            DenseSpec(out_features=4),
        ),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(0))


def _recurrent_net():
    spec = NetworkSpec(
        name="recurrent",
        input_shape=(10,),
        layers=(RecurrentSpec(out_features=7), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.85, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(3))


def _family(fault):
    """Coarse family label used for stratified catalog sampling."""
    if isinstance(fault, SynapseFault):
        kind = "bitflip" if fault.kind is SynapseFaultKind.BITFLIP else "synapse"
    elif fault.kind is NeuronFaultKind.DELAY:
        kind = "delay"
    elif fault.kind.is_parametric:
        kind = "parametric"
    else:
        kind = "neuron"
    return kind, fault.window is not None


def _stratified_faults(net, config, per_family=8):
    """A catalog subsample with every (family, transient?) cell populated."""
    catalog = build_catalog(net, config)
    groups = {}
    for fault in catalog.faults:
        groups.setdefault(_family(fault), []).append(fault)
    picked = []
    for key in sorted(groups):
        members = groups[key]
        stride = max(1, len(members) // per_family)
        picked.extend(members[::stride][:per_family])
    return picked


def _stimulus(input_shape, chunk_durations, rng, density=0.4):
    chunks = [
        (rng.random((d, 1) + input_shape) < density).astype(float)
        for d in chunk_durations
    ]
    return TestStimulus(chunks=chunks, input_shape=input_shape)


@pytest.fixture(scope="module")
def mixed_campaign():
    net = _mixed_net()
    faults = _stratified_faults(net, EXTENDED)
    stimulus = _stimulus((2, 6, 6), CHUNKS, np.random.default_rng(1))
    simulator = FaultSimulator(net, EXTENDED)
    return {
        "net": net,
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": simulator.detect(stimulus.assembled(), faults),
    }


@pytest.fixture(scope="module")
def recurrent_campaign():
    net = _recurrent_net()
    faults = _stratified_faults(net, EXTENDED, per_family=6)
    stimulus = _stimulus((10,), [5, 4], np.random.default_rng(2))
    simulator = FaultSimulator(net, EXTENDED)
    return {
        "net": net,
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
        "reference": simulator.detect(stimulus.assembled(), faults),
    }


def test_sample_covers_all_families(mixed_campaign):
    """The differential fixtures actually exercise every family — a
    regression guard against the sampler silently dropping one."""
    families = {_family(f) for f in mixed_campaign["faults"]}
    for kind in ("neuron", "parametric", "delay", "synapse", "bitflip"):
        assert (kind, False) in families or kind == "delay", kind
    # Transient variants of each configured transient kind:
    assert ("neuron", True) in families  # DEAD in a window
    assert ("parametric", True) in families
    assert ("delay", True) in families
    assert ("synapse", True) in families
    assert ("bitflip", True) in families
    bits = {f.bit for f in mixed_campaign["faults"]
            if isinstance(f, SynapseFault) and f.bit is not None}
    assert len(bits) > 1, "bitflip sample must cover multiple bit positions"


# ----------------------------------------------------------------------
# Engine 1: the oracle, one fault per pass, vs the flat production engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("campaign", ["mixed_campaign", "recurrent_campaign"])
def test_serial_matches_kbatched(campaign, request):
    data = request.getfixturevalue(campaign)
    serial = FaultSimulator(data["net"], EXTENDED, fused=False, neuron_batch=1)
    result = serial.detect(data["stimulus"].assembled(), data["faults"])
    reference = data["reference"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


# ----------------------------------------------------------------------
# Engine 4: segmented, dropping on and off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("campaign", ["mixed_campaign", "recurrent_campaign"])
def test_segmented_matches_assembled(campaign, request, drop):
    data = request.getfixturevalue(campaign)
    result = data["simulator"].detect_segmented(
        data["stimulus"], data["faults"], drop_detected=drop
    )
    assert np.array_equal(result.detected, data["reference"].detected)
    if not drop:
        assert np.array_equal(result.output_l1, data["reference"].output_l1)
        assert np.array_equal(
            result.class_count_diff, data["reference"].class_count_diff
        )


def test_segmented_sequential_path_matches(mixed_campaign):
    """``neuron_batch=1, synapse_batch=1``: the segment engine runs its
    module-re-running kinds one fault per batch (K-batches of one)."""
    serial = FaultSimulator(
        mixed_campaign["net"], EXTENDED, neuron_batch=1, synapse_batch=1
    )
    result = serial.detect_segmented(
        mixed_campaign["stimulus"], mixed_campaign["faults"], drop_detected=False
    )
    reference = mixed_campaign["reference"]
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)


# ----------------------------------------------------------------------
# Engine 3: process-parallel (REPRO_WORKERS=4)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
@pytest.mark.parametrize("campaign", ["mixed_campaign", "recurrent_campaign"])
def test_parallel_assembled_matches(campaign, request):
    data = request.getfixturevalue(campaign)
    result = parallel_detect(
        data["simulator"], data["stimulus"].assembled(), data["faults"], workers=4
    )
    assert np.array_equal(result.detected, data["reference"].detected)
    assert np.array_equal(result.output_l1, data["reference"].output_l1)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("campaign", ["mixed_campaign", "recurrent_campaign"])
def test_parallel_segmented_matches(campaign, request, drop):
    data = request.getfixturevalue(campaign)
    result = parallel_detect_segmented(
        data["simulator"], data["stimulus"], data["faults"],
        workers=4, drop_detected=drop,
    )
    assert np.array_equal(result.detected, data["reference"].detected)
    if not drop:
        assert np.array_equal(result.output_l1, data["reference"].output_l1)


# ----------------------------------------------------------------------
# Transient faults straddling a segment boundary
# ----------------------------------------------------------------------
def _straddling_faults(net):
    """One fault per family whose window crosses both internal segment
    boundaries of the CHUNKS layout."""
    last = int(net.spiking_indices[-1])
    first = int(net.spiking_indices[0])
    weights = net.modules[first].parameters()[0].data
    return [
        NeuronFault(last, 0, NeuronFaultKind.DEAD, window=STRADDLING),
        NeuronFault(last, 1, NeuronFaultKind.SATURATED, window=STRADDLING),
        NeuronFault(
            last, 2, NeuronFaultKind.PARAM_THRESHOLD, scale=4.0, window=STRADDLING
        ),
        NeuronFault(last, 3, NeuronFaultKind.DELAY, delay=2, window=STRADDLING),
        SynapseFault(first, 0, 0, SynapseFaultKind.DEAD, window=STRADDLING),
        SynapseFault(
            first, 0, min(1, weights.size - 1), SynapseFaultKind.BITFLIP,
            bit=6, window=STRADDLING,
        ),
    ]


@pytest.mark.parametrize("campaign", ["mixed_campaign", "recurrent_campaign"])
def test_straddling_window_segmented_exact(campaign, request):
    """A transient active across [5, 16) with segments [0,8)/[8,14)/[14,19):
    the segmented engine activates the fault mid-segment-0, keeps it live
    through all of segment 1, and deactivates it mid-segment-2 — while
    carrying membrane (and delay-history) state.  Must equal assembled."""
    data = request.getfixturevalue(campaign)
    faults = _straddling_faults(data["net"])
    reference = data["simulator"].detect(data["stimulus"].assembled(), faults)
    for drop in (False, True):
        result = data["simulator"].detect_segmented(
            data["stimulus"], faults, drop_detected=drop
        )
        assert np.array_equal(result.detected, reference.detected), drop


def test_straddling_window_is_load_bearing(mixed_campaign):
    """Sanity for the test above: the straddling window actually changes
    behaviour — a saturated transient is detected, and its detection
    differs from the permanent variant's output trace."""
    net = mixed_campaign["net"]
    last = int(net.spiking_indices[-1])
    windowed = NeuronFault(last, 1, NeuronFaultKind.SATURATED, window=STRADDLING)
    permanent = NeuronFault(last, 1, NeuronFaultKind.SATURATED)
    simulator = mixed_campaign["simulator"]
    assembled = mixed_campaign["stimulus"].assembled()
    both = simulator.detect(assembled, [windowed, permanent])
    assert both.detected[0], "transient saturation inside the test must detect"
    # The transient corrupts fewer steps than the permanent fault, so its
    # L1 divergence must be strictly smaller (19 driven+sleep steps vs 11).
    assert both.output_l1[0] < both.output_l1[1]


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_straddling_window_parallel_segmented(mixed_campaign):
    faults = _straddling_faults(mixed_campaign["net"])
    reference = mixed_campaign["simulator"].detect(
        mixed_campaign["stimulus"].assembled(), faults
    )
    result = parallel_detect_segmented(
        mixed_campaign["simulator"], mixed_campaign["stimulus"], faults,
        workers=4, drop_detected=True,
    )
    assert np.array_equal(result.detected, reference.detected)


# ----------------------------------------------------------------------
# The production engine (all-T stacked matmuls) vs the per-step oracle
# ----------------------------------------------------------------------
def _assert_detect_fields_equal(result, reference):
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


@pytest.fixture(scope="module")
def oracle_reference(mixed_campaign):
    """The per-step oracle — the semantic baseline the production engine
    must reproduce bit-for-bit."""
    oracle = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=False)
    return oracle.detect(
        mixed_campaign["stimulus"].assembled(), mixed_campaign["faults"]
    )


def test_fused_serial_matches_legacy(mixed_campaign, oracle_reference):
    fused = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=True)
    result = fused.detect(
        mixed_campaign["stimulus"].assembled(), mixed_campaign["faults"]
    )
    _assert_detect_fields_equal(result, oracle_reference)


def test_fused_segmented_matches_legacy(mixed_campaign, oracle_reference):
    fused = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=True)
    result = fused.detect_segmented(
        mixed_campaign["stimulus"], mixed_campaign["faults"], drop_detected=False
    )
    _assert_detect_fields_equal(result, oracle_reference)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_fused_parallel_matches_legacy(mixed_campaign, oracle_reference):
    fused = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=True)
    result = parallel_detect(
        fused, mixed_campaign["stimulus"].assembled(),
        mixed_campaign["faults"], workers=4,
    )
    _assert_detect_fields_equal(result, oracle_reference)


def test_fused_recurrent_matches_legacy(recurrent_campaign):
    """Recurrent layers cannot fuse the full matmul (the recurrent term
    feeds back per step) but still use the fused input-current stack —
    must stay bit-identical."""
    oracle = FaultSimulator(recurrent_campaign["net"], EXTENDED, fused=False)
    reference = oracle.detect(
        recurrent_campaign["stimulus"].assembled(), recurrent_campaign["faults"]
    )
    fused = FaultSimulator(recurrent_campaign["net"], EXTENDED, fused=True)
    result = fused.detect(
        recurrent_campaign["stimulus"].assembled(), recurrent_campaign["faults"]
    )
    _assert_detect_fields_equal(result, reference)


def test_straddling_window_flat_matches_oracle(mixed_campaign):
    """The production engine runs a transient's window [5, 16) as three
    pieces with LIF state carried across; it must swap parameters
    mid-sequence exactly as the per-step oracle does."""
    faults = _straddling_faults(mixed_campaign["net"])
    assembled = mixed_campaign["stimulus"].assembled()
    oracle = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=False)
    reference = oracle.detect(assembled, faults)
    fused = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=True)
    result = fused.detect(assembled, faults)
    _assert_detect_fields_equal(result, reference)


def test_synapse_splice_group_routing(mixed_campaign):
    """The segment engine must route dense-layer synapse faults
    (persistent and windowed) through the column-splice kind; conv-layer
    synapse faults keep the K-batched weight-stack kind."""
    from repro.faults.segmented import SegmentedDetectionCampaign

    fused = FaultSimulator(mixed_campaign["net"], EXTENDED, fused=True)
    campaign = SegmentedDetectionCampaign(
        fused, mixed_campaign["stimulus"], mixed_campaign["faults"]
    )
    kinds_by_module = {}
    for group in campaign.groups:
        kinds_by_module.setdefault(group.module_index, set()).add(group.kind)
    dense_synapse_windows = set()
    for fault in mixed_campaign["faults"]:
        if isinstance(fault, SynapseFault):
            module = mixed_campaign["net"].modules[fault.module_index]
            if type(module).__name__ == "DenseLIF":
                dense_synapse_windows.add(fault.window)
            else:
                assert "synapse_splice" not in kinds_by_module[fault.module_index]
            assert "synapse_splice" in kinds_by_module.get(fault.module_index, set()) \
                or type(module).__name__ != "DenseLIF"
    # Both persistent and windowed dense synapse faults took the splice path.
    assert None in dense_synapse_windows
    assert any(w is not None for w in dense_synapse_windows)


# ----------------------------------------------------------------------
# Hypothesis: random extended catalogs, chunk layouts, engines
# ----------------------------------------------------------------------
_NETS = {
    "dense": lambda: build_network(
        NetworkSpec(
            name="h-dense",
            input_shape=(8,),
            layers=(DenseSpec(out_features=6), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(11),
    ),
    "recurrent": lambda: build_network(
        NetworkSpec(
            name="h-rec",
            input_shape=(8,),
            layers=(RecurrentSpec(out_features=5), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.85, refractory_steps=1),
        ),
        np.random.default_rng(13),
    ),
    "conv": lambda: build_network(
        NetworkSpec(
            name="h-conv",
            input_shape=(1, 4, 4),
            layers=(
                ConvSpec(out_channels=2, kernel=2),
                FlattenSpec(),
                DenseSpec(out_features=3),
            ),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(17),
    ),
    "pooled": lambda: build_network(
        NetworkSpec(
            name="h-pooled",
            input_shape=(1, 6, 6),
            layers=(
                ConvSpec(out_channels=2, kernel=3, padding=1, weight_scale=4.0),
                PoolSpec(2),
                ConvSpec(out_channels=2, kernel=3, padding=1, weight_scale=4.0),
                FlattenSpec(),
                DenseSpec(out_features=3),
            ),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(19),
    ),
}
_CACHE = {}


def _cached(kind):
    if kind not in _CACHE:
        net = _NETS[kind]()
        catalog = build_catalog(net, EXTENDED)
        _CACHE[kind] = (net, catalog)
    return _CACHE[kind]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["dense", "pooled", "recurrent"]),
    chunk_durations=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    n_faults=st.integers(1, 20),
    drop=st.booleans(),
    workers=st.sampled_from([1, 4]),
)
def test_property_extended_engines_agree(
    kind, chunk_durations, seed, n_faults, drop, workers
):
    """The flat and the segment-wise production engine equal the per-step
    oracle in every metric, dropping on and off, on a dense, a
    conv→pool→conv and a recurrent net."""
    net, catalog = _cached(kind)
    rng = np.random.default_rng(seed)
    all_faults = catalog.faults
    picks = rng.choice(
        len(all_faults), size=min(n_faults, len(all_faults)), replace=False
    )
    faults = [all_faults[i] for i in sorted(picks)]
    stimulus = _stimulus(net.input_shape, chunk_durations, rng, density=0.5)
    simulator = FaultSimulator(net, EXTENDED)
    oracle = FaultSimulator(net, EXTENDED, fused=False)
    flat = oracle.detect(stimulus.assembled(), faults)
    _assert_detect_fields_equal(simulator.detect(stimulus.assembled(), faults), flat)
    if workers > 1 and not fork_available():
        workers = 1
    result = parallel_detect_segmented(
        simulator, stimulus, faults,
        workers=workers, drop_detected=drop,
    )
    reference = drop_on_reference(oracle, stimulus, faults) if drop else flat
    _assert_detect_fields_equal(result, reference)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(_NETS)),
    seed=st.integers(0, 2**16),
    n_faults=st.integers(1, 16),
    duration=st.integers(2, 14),
)
def test_property_fused_matches_legacy(kind, seed, n_faults, duration):
    """Fused one-BLAS-call batches equal the per-step oracle bit-for-bit
    on random dense/conv/pooled/recurrent catalogs."""
    net, catalog = _cached(kind)
    rng = np.random.default_rng(seed)
    all_faults = catalog.faults
    picks = rng.choice(
        len(all_faults), size=min(n_faults, len(all_faults)), replace=False
    )
    faults = [all_faults[i] for i in sorted(picks)]
    stimulus = (rng.random((duration, 1) + net.input_shape) < 0.5).astype(float)
    oracle = FaultSimulator(net, EXTENDED, fused=False)
    reference = oracle.detect(stimulus, faults)
    fused = FaultSimulator(net, EXTENDED, fused=True)
    result = fused.detect(stimulus, faults)
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)
