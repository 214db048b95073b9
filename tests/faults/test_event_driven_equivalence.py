"""Differential suite for the zero-skip current dispatch.

Every campaign engine attaches :class:`repro.snn.events.EventDispatch` to
its fused current kernels: all-zero blocks and all-zero time slices skip
their GEMMs and read exact zeros.  This suite pins the externally visible
contract against the per-step reference oracle (``fused=False``,
``synapse_batch=1``, ``neuron_splice=False``), which never skips a GEMM:

- ``detected`` masks, ``output_l1`` and ``class_count_diff`` are
  bit-identical to the oracle across density extremes — all-zero,
  all-ones, single-spike-per-step, alternating bursts and sparse noise —
  for dense, conv and recurrent topologies, in the flat, segmented,
  4-worker and store-warmed engines;
- a transient fault window whose edges cut through zero-skipped time
  slices stays exact;
- every scenario runs the default (fused) simulator, whose kernels the
  dispatcher lives in, as the CLI and the experiment pipeline do;
- dispatch counters count the work a run computes: a cold run with a
  coverage store reports the same counters as one without, and a re-run
  answered entirely from the store counts no dense blocks.
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
from repro.faults.store import CoverageStore
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    RecurrentSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters

# ----------------------------------------------------------------------
# Topologies and density-extreme stimuli
# ----------------------------------------------------------------------
_NETS = {
    "dense": lambda: build_network(
        NetworkSpec(
            name="ev-dense",
            input_shape=(8,),
            layers=(DenseSpec(out_features=6), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(21),
    ),
    "conv": lambda: build_network(
        NetworkSpec(
            name="ev-conv",
            input_shape=(1, 5, 5),
            layers=(
                ConvSpec(out_channels=2, kernel=3, padding=1),
                FlattenSpec(),
                DenseSpec(out_features=3),
            ),
            lif=LIFParameters(leak=0.9),
        ),
        np.random.default_rng(22),
    ),
    "recurrent": lambda: build_network(
        NetworkSpec(
            name="ev-rec",
            input_shape=(8,),
            layers=(RecurrentSpec(out_features=5), DenseSpec(out_features=3)),
            lif=LIFParameters(leak=0.85, refractory_steps=1),
        ),
        np.random.default_rng(23),
    ),
}
PATTERNS = ("zeros", "ones", "single", "bursts", "sparse")
_CACHE = {}


def _cached(kind):
    if kind not in _CACHE:
        net = _NETS[kind]()
        config = FaultModelConfig()
        catalog = build_catalog(net, config)
        pool = catalog.neuron_faults + catalog.synapse_faults
        faults = pool[:: max(1, len(pool) // 16)]
        _CACHE[kind] = (net, config, faults)
    return _CACHE[kind]


def _pattern_stimulus(pattern, input_shape, chunk_durations, seed=0):
    """Deterministic density-extreme stimuli, one spike layout per name."""
    size = int(np.prod(input_shape))
    rng = np.random.default_rng(seed)
    chunks = []
    t_abs = 0
    for duration in chunk_durations:
        block = np.zeros((duration, 1) + tuple(input_shape))
        flat = block.reshape(duration, size)
        if pattern == "ones":
            flat[:] = 1.0
        elif pattern == "single":
            for t in range(duration):
                flat[t, (t_abs + t) % size] = 1.0
        elif pattern == "bursts":
            flat[::2] = 1.0
        elif pattern == "sparse":
            flat[:] = (rng.random(flat.shape) < 0.08).astype(float)
        t_abs += duration
        chunks.append(block)
    return TestStimulus(chunks=chunks, input_shape=tuple(input_shape))


def _oracle(net, config):
    """The per-step reference engine: no fused kernels, no batching, no
    splicing, so no current block ever goes through the dispatcher."""
    return FaultSimulator(
        net, config, fused=False, synapse_batch=1, neuron_splice=False
    )


def _reference(kind, pattern, chunk_durations=(4, 3, 5)):
    net, config, faults = _cached(kind)
    stimulus = _pattern_stimulus(pattern, net.input_shape, chunk_durations)
    oracle = _oracle(net, config)
    return net, config, faults, stimulus, oracle.detect(stimulus.assembled(), faults)


def _assert_exact(result, reference):
    assert np.array_equal(result.detected, reference.detected)
    assert np.array_equal(result.output_l1, reference.output_l1)
    assert np.array_equal(result.class_count_diff, reference.class_count_diff)


# ----------------------------------------------------------------------
# Density extremes: flat and segmented engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(_NETS))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_flat_event_matches_dense(kind, pattern):
    net, config, faults, stimulus, reference = _reference(kind, pattern)
    result = FaultSimulator(net, config).detect(stimulus.assembled(), faults)
    _assert_exact(result, reference)
    assert result.dispatch["cells"] > 0


@pytest.mark.parametrize("kind", sorted(_NETS))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_segmented_event_matches_dense(kind, pattern):
    net, config, faults, stimulus, reference = _reference(kind, pattern)
    result = FaultSimulator(net, config).detect_segmented(
        stimulus, faults, drop_detected=False
    )
    _assert_exact(result, reference)
    assert result.dispatch["cells"] > 0


# ----------------------------------------------------------------------
# Transient window cutting through zero-skipped time slices
# ----------------------------------------------------------------------
STRADDLING = (5, 16)  # cuts through both segment boundaries of (4, 3, 5)


def _straddling_faults(net):
    last = int(net.spiking_indices[-1])
    first = int(net.spiking_indices[0])
    return [
        NeuronFault(last, 0, NeuronFaultKind.DEAD, window=STRADDLING),
        NeuronFault(last, 1, NeuronFaultKind.SATURATED, window=STRADDLING),
        SynapseFault(first, 0, 0, SynapseFaultKind.DEAD, window=STRADDLING),
    ]


def test_transient_straddles_zero_slices():
    """A transient active across [5, 16) splits each faulty run into
    three window pieces; the dispatcher skips zero slices *within* each
    piece, so the parameter swap mid-sequence must stay exact."""
    net, config, _, stimulus, _ = _reference("dense", "sparse")
    faults = _straddling_faults(net)
    assembled = stimulus.assembled()
    reference = _oracle(net, config).detect(assembled, faults)
    result = FaultSimulator(net, config).detect(assembled, faults)
    _assert_exact(result, reference)


# ----------------------------------------------------------------------
# Parallel and store-warmed engines
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_parallel_event_matches_dense():
    net, config, faults, stimulus, reference = _reference("dense", "sparse")
    simulator = FaultSimulator(net, config)
    flat = parallel_detect(simulator, stimulus.assembled(), faults, workers=4)
    _assert_exact(flat, reference)
    assert flat.dispatch is not None
    seg = parallel_detect_segmented(
        simulator, stimulus, faults, workers=4, drop_detected=False
    )
    _assert_exact(seg, reference)
    assert seg.dispatch is not None


def test_store_warm_event_matches_dense(tmp_path):
    net, config, faults, stimulus, reference = _reference("dense", "sparse")
    simulator = FaultSimulator(net, config)
    store = CoverageStore(tmp_path / "ev")
    cold = simulator.detect_segmented(
        stimulus, faults, drop_detected=False, store=store
    )
    warm = simulator.detect_segmented(
        stimulus, faults, drop_detected=False, store=store
    )
    _assert_exact(cold, reference)
    _assert_exact(warm, reference)
    assert store.hits > 0, "the warm run must splice stored records"


# ----------------------------------------------------------------------
# Dispatch counters
# ----------------------------------------------------------------------
def test_counters_pick_expected_tiers():
    net, config, faults, stimulus, _ = _reference("dense", "sparse")
    result = FaultSimulator(net, config).detect(stimulus.assembled(), faults)
    dispatch = result.dispatch
    assert dispatch["dense_blocks"] > 0
    # The assembled stimulus carries sleep gaps: all-zero time slices.
    assert dispatch["zero_slices"] > 0
    assert 0.0 < dispatch["density"] < 1.0
    assert set(dispatch["layers"]), "per-layer counters must be populated"


def test_counters_zero_input_takes_zero_tier():
    net, config, faults, stimulus, _ = _reference("dense", "zeros")
    result = FaultSimulator(net, config).detect(stimulus.assembled(), faults)
    assert result.dispatch["zero_blocks"] > 0


# ----------------------------------------------------------------------
# Store runs: dispatch counters count the work each run computes
# ----------------------------------------------------------------------
def test_cold_store_run_reports_same_dispatch(tmp_path):
    """Writing store records adds no counted work: a cold run with a
    store reports the same dispatch dict as one without."""
    net, config, faults, stimulus, reference = _reference("dense", "sparse")
    simulator = FaultSimulator(net, config)
    plain = simulator.detect_segmented(stimulus, faults, drop_detected=False)
    cold = simulator.detect_segmented(
        stimulus, faults, drop_detected=False,
        store=CoverageStore(tmp_path / "ev-cold"),
    )
    _assert_exact(cold, reference)
    assert cold.dispatch == plain.dispatch
    assert plain.dispatch["dense_blocks"] > 0


def test_full_hit_rerun_reports_no_dense_blocks(tmp_path):
    """A re-run in which every group is a full store hit computes no
    faulty rows, so it counts no dense current blocks — resumed and
    warm runs count only the work they ran."""
    net, config, faults, stimulus, reference = _reference("dense", "sparse")
    simulator = FaultSimulator(net, config)
    store = CoverageStore(tmp_path / "ev-warm")
    simulator.detect_segmented(stimulus, faults, drop_detected=False, store=store)
    writes = store.writes
    warm = simulator.detect_segmented(
        stimulus, faults, drop_detected=False, store=store
    )
    _assert_exact(warm, reference)
    assert store.writes == writes, "every group must be a full hit"
    assert warm.dispatch["dense_blocks"] == 0


# ----------------------------------------------------------------------
# Hypothesis: random layouts and fault subsets across the engines
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(_NETS)),
    pattern=st.sampled_from(PATTERNS),
    chunk_durations=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    n_faults=st.integers(1, 12),
    segmented=st.booleans(),
)
def test_property_event_matches_dense(
    kind, pattern, chunk_durations, seed, n_faults, segmented
):
    net, config, catalog_faults = _cached(kind)
    rng = np.random.default_rng(seed)
    picks = rng.choice(
        len(catalog_faults), size=min(n_faults, len(catalog_faults)), replace=False
    )
    faults = [catalog_faults[i] for i in sorted(picks)]
    stimulus = _pattern_stimulus(pattern, net.input_shape, chunk_durations, seed=seed)
    reference = _oracle(net, config).detect(stimulus.assembled(), faults)
    simulator = FaultSimulator(net, config)
    if segmented:
        result = simulator.detect_segmented(stimulus, faults, drop_detected=False)
    else:
        result = simulator.detect(stimulus.assembled(), faults)
    _assert_exact(result, reference)
