"""``lif_scan_numpy`` against a loop of ``lif_step_numpy``, bit for bit.

Every splice mini-LIF of the campaign engines runs its window pieces
through one scan instead of a per-step loop, so the scan must equal the
loop exactly for per-row ``(K, 1)`` parameter columns: both reset modes,
refractory periods 0-3, dead and saturated modes, and a state carried in
(and out, split at any step) of each call.

The second half pins the in-place recursion that production scans take
(``repro.autograd.fused.lean_lif_scan``), in ``lif_scan_numpy`` and in
the recurrent layers' fused kernels, byte for byte against the scans it
replaced, on special thresholds and currents, mixed dtypes and carried
states whose ``last_spike`` and ``refractory`` disagree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.layers import RecurrentLIF
from repro.snn.neuron import (
    MODE_DEAD,
    MODE_NOMINAL,
    MODE_SATURATED,
    LIFParameters,
    LIFState,
    lean_scan_fits,
    lif_scan_numpy,
    lif_step_numpy,
)


def _assert_state_equal(a: LIFState, b: LIFState) -> None:
    for left, right in (
        (a.potential, b.potential),
        (a.last_spike, b.last_spike),
        (a.refractory, b.refractory),
    ):
        left, right = np.asarray(left), np.asarray(right)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)


@st.composite
def scan_cases(draw):
    rows = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    # "plain": refractory 1 everywhere, no modes, entry counters <= 1 (the
    # scan's fast path); "mixed": any refractory 0-3 and any modes.
    profile = draw(st.sampled_from(["plain", "mixed"]))
    reset_mode = draw(st.sampled_from(["zero", "subtract"]))
    split = draw(st.integers(0, steps))
    rng = np.random.default_rng(seed)
    threshold = rng.uniform(0.4, 1.6, (rows, 1))
    leak = rng.uniform(0.5, 1.0, (rows, 1))
    if profile == "plain":
        refractory = np.ones((rows, 1), dtype=np.int64)
        mode = np.full((rows, 1), MODE_NOMINAL, dtype=np.int8)
        counters = rng.integers(0, 2, (rows, 1))
    else:
        refractory = rng.integers(0, 4, (rows, 1))
        mode = rng.choice(
            np.array([MODE_NOMINAL, MODE_DEAD, MODE_SATURATED], dtype=np.int8),
            (rows, 1),
        )
        counters = rng.integers(0, 4, (rows, 1))
    state = LIFState(
        potential=rng.normal(0.3, 0.8, (rows, 1)),
        last_spike=(counters > 0).astype(float),
        refractory=counters.astype(np.int64),
    )
    # Currents of both signs, some exactly zero.
    currents = rng.normal(0.4, 0.9, (steps, rows, 1))
    currents[rng.random(currents.shape) < 0.2] = 0.0
    return currents, state, (threshold, leak, refractory, mode), reset_mode, split


@settings(max_examples=200, deadline=None)
@given(case=scan_cases())
def test_scan_equals_step_loop(case):
    currents, state, params, reset_mode, _ = case
    looped = state.copy()
    expected = np.stack(
        [lif_step_numpy(c, looped, *params, reset_mode) for c in currents]
    )
    scanned = state.copy()
    out = lif_scan_numpy(currents, scanned, *params, reset_mode)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)
    _assert_state_equal(scanned, looped)


@settings(max_examples=100, deadline=None)
@given(case=scan_cases())
def test_scan_split_with_carried_state_equals_one_loop(case):
    currents, state, params, reset_mode, split = case
    looped = state.copy()
    expected = np.stack(
        [lif_step_numpy(c, looped, *params, reset_mode) for c in currents]
    )
    carried = state.copy()
    pieces = [
        lif_scan_numpy(currents[a:b], carried, *params, reset_mode)
        for a, b in ((0, split), (split, len(currents)))
        if b > a
    ]
    assert np.array_equal(np.concatenate(pieces), expected)
    _assert_state_equal(carried, looped)


# -- the lean in-place recursion ------------------------------------------
#
# Where ``lean_scan_fits`` holds, ``lif_scan_numpy`` and the recurrent
# layers' fused kernels run ``repro.autograd.fused.lean_lif_scan``.  The
# scans they replaced are kept below as references; the lean scans must
# match them and the ``lif_step_numpy`` loop byte for byte (``tobytes``,
# so zero signs count), dtypes and shapes included.


def _allocating_scan(currents, state, threshold, leak, refractory_steps,
                     mode=None, reset_mode="zero"):
    """``lif_scan_numpy`` before the lean recursion: an allocating
    refractory-1 loop beside the general one."""
    out = np.empty_like(currents)
    dtype = currents.dtype
    zero = dtype.type(0.0)
    one = dtype.type(1.0)
    has_mode = mode is not None and bool(mode.any())
    if has_mode:
        dead = mode == MODE_DEAD
        saturated = mode == MODE_SATURATED
    plain_refractory = (
        not has_mode
        and np.all(refractory_steps == 1)
        and not np.any(state.refractory > 1)
    )
    subtract = reset_mode != "zero"
    potential = state.potential
    last = state.last_spike
    refractory = state.refractory
    if plain_refractory:
        active = (refractory == 0).astype(dtype)
        for t in range(currents.shape[0]):
            retained = (
                potential - last * threshold if subtract
                else potential * (one - last)
            )
            potential = retained * leak + currents[t] * active
            spikes = (potential >= threshold).astype(dtype) * active
            out[t] = spikes
            last = spikes
            active = one - spikes
        refractory = (last > 0.0).astype(refractory.dtype)
    else:
        for t in range(currents.shape[0]):
            active = (refractory == 0).astype(dtype)
            retained = (
                potential - last * threshold if subtract
                else potential * (one - last)
            )
            potential = retained * leak + currents[t] * active
            spikes = (potential >= threshold).astype(dtype) * active
            if has_mode:
                spikes = np.where(dead, zero, spikes)
                spikes = np.where(saturated, one, spikes)
            out[t] = spikes
            last = spikes
            refractory = np.where(
                spikes > 0.0, refractory_steps, np.maximum(refractory - 1, 0)
            )
    state.potential = potential
    state.last_spike = last
    state.refractory = refractory
    return out


def _step_loop(currents, state, *params):
    out = np.empty_like(currents)
    for t, current in enumerate(currents):
        out[t] = lif_step_numpy(current, state, *params)
    return out


def _bytes(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _assert_same(out, state, ref_out, ref_state):
    assert _bytes(out) == _bytes(ref_out)
    for name in ("potential", "last_spike", "refractory"):
        assert _bytes(getattr(state, name)) == _bytes(getattr(ref_state, name)), name


def _states(state):
    return [np.asarray(getattr(state, name)) for name in ("potential", "last_spike", "refractory")]


def _assert_untouched(originals, copies, state, out):
    """The caller's arrays hold what they held; the carried state shares
    no memory with the spikes handed out."""
    for before, after in zip(copies, originals):
        assert _bytes(after) == _bytes(before)
    assert not np.shares_memory(np.asarray(state.last_spike), out)


@st.composite
def lean_cases(draw):
    rows = draw(st.integers(1, 5))
    width = draw(st.integers(1, 4))
    steps = draw(st.sampled_from([0, 1, 2, 3, 5, 9, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # "lean": every condition of the lean recursion holds; "general": at
    # least one fails (subtract reset, refractory 0-3, a fault mode, or a
    # threshold that is 0, negative, infinite or NaN).
    lean = draw(st.booleans())
    breaks = set() if lean else set(draw(st.lists(
        st.sampled_from(["subtract", "refractory", "mode", "threshold"]),
        min_size=1, unique=True,
    )))
    shape = (rows, 1) if draw(st.booleans()) else (width,)  # per-row columns
    threshold = rng.uniform(0.3, 1.5, shape)
    if "threshold" in breaks:
        special = np.array([0.0, -0.0, -0.4, np.inf, -np.inf, np.nan])
        hit = rng.random(shape) < 0.5
        hit.flat[0] = True
        threshold[hit] = rng.choice(special, shape)[hit]
    leak = rng.uniform(0.4, 1.0, shape)
    refractory = np.ones(shape, dtype=np.int64)
    if "refractory" in breaks:
        refractory = rng.integers(0, 4, shape)
        refractory.flat[0] = rng.choice([0, 2, 3])
    mode = np.full(shape, MODE_NOMINAL, dtype=np.int8)
    if "mode" in breaks:
        mode = rng.choice(
            np.array([MODE_NOMINAL, MODE_DEAD, MODE_SATURATED], dtype=np.int8), shape
        )
        mode.flat[0] = MODE_SATURATED
    reset_mode = "subtract" if "subtract" in breaks else "zero"
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    currents = rng.normal(0.4, 1.0, (steps, rows, width)).astype(dtype)
    currents[rng.random(currents.shape) < 0.2] = 0.0
    if draw(st.booleans()):
        special = np.array([np.inf, -np.inf, np.nan, -0.0], dtype=dtype)
        hit = rng.random(currents.shape) < 0.1
        currents[hit] = rng.choice(special, currents.shape)[hit]
    # Carried state: at rest, as a scan leaves it, or built by a caller
    # with ``last_spike`` and ``refractory`` disagreeing.
    carried = draw(st.sampled_from(["rest", "scanned", "disagree"]))
    counters = rng.integers(0, 2, (rows, width))
    potential = rng.normal(0.3, 0.8, (rows, width))
    if carried == "rest":
        counters[:] = 0
        potential[:] = 0.0
    fired = counters > 0
    if carried == "disagree":
        fired = rng.random((rows, width)) < 0.5
    if "refractory" in breaks:
        counters = rng.integers(0, 4, (rows, width))
    state_dtype = draw(st.sampled_from([np.float64, dtype]))
    state = LIFState(
        potential=potential.astype(state_dtype),
        last_spike=fired.astype(state_dtype),
        refractory=counters.astype(np.int64),
    )
    split = draw(st.integers(0, steps))
    params = (threshold, leak, refractory, mode)
    return currents, state, params, reset_mode, split, lean


def _copy(state):
    return LIFState(*[a.copy() for a in _states(state)])


@settings(max_examples=300, deadline=None)
@given(case=lean_cases())
def test_lean_scan_matches_the_allocating_scan_and_the_step_loop(case):
    currents, state, params, reset_mode, _, lean = case
    if len(currents):
        assert lean_scan_fits(currents, state, *params, reset_mode) == lean
    ref_state = _copy(state)
    ref_out = _allocating_scan(currents, ref_state, *params, reset_mode)
    step_state = _copy(state)
    step_out = _step_loop(currents, step_state, *params, reset_mode)
    originals = _states(state)
    copies = [a.copy() for a in originals]
    out = lif_scan_numpy(currents, state, *params, reset_mode)
    _assert_untouched(originals, copies, state, out)
    _assert_same(out, state, step_out, step_state)
    if len(currents):
        # With no step, the allocating refractory-1 loop rebound
        # ``refractory`` to ``last_spike > 0``; the step loop (and the
        # lean scan) leave the state as it is.
        _assert_same(out, state, ref_out, ref_state)


@settings(max_examples=150, deadline=None)
@given(case=lean_cases())
def test_lean_scan_split_at_any_step_matches_one_scan(case):
    currents, state, params, reset_mode, split, _ = case
    whole_state = _copy(state)
    whole = _allocating_scan(currents, whole_state, *params, reset_mode)
    pieces = [
        lif_scan_numpy(currents[a:b], state, *params, reset_mode)
        for a, b in ((0, split), (split, len(currents)))
    ]
    out = np.concatenate(pieces)
    assert _bytes(out) == _bytes(whole)
    if len(currents):
        _assert_same(out, state, whole, whole_state)


def _recurrent_reference(module, seq, state):
    """``RecurrentLIF.run_sequence_fused`` before the lean recursion."""
    w_in, w_rec = module.weight.data, module.recurrent_weight.data
    ff = seq @ w_in
    out = np.empty_like(ff)
    previous = np.asarray(state.last_spike)
    for t in range(seq.shape[0]):
        current = ff[t] + previous @ w_rec
        previous = module._lif_numpy(current, state)
        out[t] = previous
    return out


def _kbatched_reference(module, seq, stacks, state):
    """``RecurrentLIF.run_sequence_kbatched_fused`` before the lean
    recursion."""
    w_in, w_rec = stacks
    k = w_in.shape[0]
    steps, s = seq.shape[:2]
    n = module.out_features
    ff = np.matmul(seq[:, None], w_in)
    out = np.empty((steps, k * s, n), dtype=seq.dtype)
    previous = np.asarray(state.last_spike).reshape(k, s, n)
    for t in range(steps):
        current = ff[t] + np.matmul(previous, w_rec)
        spikes = module._lif_numpy(current.reshape(k * s, n), state)
        previous = spikes.reshape(k, s, n)
        out[t] = spikes
    return out


@st.composite
def recurrent_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    lean = draw(st.booleans())
    breaks = set() if lean else set(draw(st.lists(
        st.sampled_from(["subtract", "refractory", "mode", "threshold"]),
        min_size=1, unique=True,
    )))
    params = LIFParameters(
        leak=0.9, refractory_steps=1,
        reset_mode="subtract" if "subtract" in breaks else "zero",
    )
    module = RecurrentLIF(4, n, params, rng=rng, recurrent_scale=2.0)
    module.threshold = rng.uniform(0.3, 1.5, n)
    module.leak = rng.uniform(0.4, 1.0, n)
    if "threshold" in breaks:
        module.threshold[rng.integers(0, n)] = rng.choice([0.0, -0.5, np.inf, np.nan])
    if "refractory" in breaks:
        module.refractory_steps = rng.integers(0, 4, n)
        module.refractory_steps[0] = rng.choice([0, 2, 3])
    if "mode" in breaks:
        module.mode = rng.choice(np.array([MODE_DEAD, MODE_SATURATED], dtype=np.int8), n)
    steps = draw(st.sampled_from([0, 1, 2, 7, 30]))
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    seq = (rng.random((steps, s, 4)) < 0.5).astype(float)
    batch = k * s
    fired = rng.random((batch, n)) < 0.4
    counters = fired.astype(np.int64)
    if draw(st.booleans()):  # a caller-built state that disagrees
        counters = (rng.random((batch, n)) < 0.4).astype(np.int64)
    if "refractory" in breaks:
        counters = rng.integers(0, 4, (batch, n))
    state = LIFState(
        potential=rng.normal(0.3, 0.8, (batch, n)),
        last_spike=fired.astype(float),
        refractory=counters,
    )
    w_in = module.weight.data + rng.normal(0.0, 0.3, (k,) + module.weight.shape)
    w_rec = module.recurrent_weight.data + rng.normal(0.0, 0.3, (k, n, n))
    split = draw(st.integers(0, steps))
    return module, seq, state, (w_in, w_rec), split, lean


@settings(max_examples=120, deadline=None)
@given(case=recurrent_cases())
def test_recurrent_fused_matches_the_per_step_loop(case):
    module, seq, state, _, split, lean = case
    s = seq.shape[1]
    state = LIFState(*[a[:s] for a in _states(state)])
    if len(seq):
        assert module._lean_fits(seq @ module.weight.data, state) == lean
    ref_state = _copy(state)
    ref_out = _recurrent_reference(module, seq, ref_state)
    originals = _states(state)
    copies = [a.copy() for a in originals]
    pieces = [
        module.run_sequence_fused(seq[a:b], state=state)
        for a, b in ((0, split), (split, len(seq)))
    ]
    _assert_untouched(originals, copies, state, pieces[-1])
    _assert_same(np.concatenate(pieces), state, ref_out, ref_state)


@settings(max_examples=120, deadline=None)
@given(case=recurrent_cases())
def test_recurrent_kbatched_matches_the_per_step_loop(case):
    module, seq, state, stacks, split, _ = case
    ref_state = _copy(state)
    ref_out = _kbatched_reference(module, seq, stacks, ref_state)
    originals = _states(state)
    copies = [a.copy() for a in originals]
    pieces = [
        module.run_sequence_kbatched_fused(seq[a:b], stacks, state=state)
        for a, b in ((0, split), (split, len(seq)))
    ]
    _assert_untouched(originals, copies, state, pieces[-1])
    _assert_same(np.concatenate(pieces), state, ref_out, ref_state)


def test_a_one_element_scan_keeps_the_general_nan_signs():
    """An infinite current fires the neuron; its refractory step makes the
    potential NaN (``inf * 0``), and a NaN current meets it on the next
    step.  Which NaN the sum carries depends on operand order, and numpy
    runs an in-place add on a one-element array as a reduction that may
    swap the operands, so the lean scan must not add in place over its
    first operand."""
    currents = np.array([np.inf, 0.0, np.nan, 0.3]).reshape(4, 1, 1)
    params = (np.array([0.9]), np.array([0.95]), np.array([1]), None)
    looped = LIFState.zeros_numpy((1, 1))
    expected = _step_loop(currents, looped, *params)
    scanned = LIFState.zeros_numpy((1, 1))
    assert lean_scan_fits(currents, scanned, *params)
    out = lif_scan_numpy(currents, scanned, *params)
    _assert_same(out, scanned, expected, looped)
