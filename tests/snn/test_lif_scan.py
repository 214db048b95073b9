"""``lif_scan_numpy`` against a loop of ``lif_step_numpy``, bit for bit.

Every splice mini-LIF of the campaign engines runs its window pieces
through one scan instead of a per-step loop, so the scan must equal the
loop exactly for per-row ``(K, 1)`` parameter columns: both reset modes,
refractory periods 0-3, dead and saturated modes, and a state carried in
(and out, split at any step) of each call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.neuron import (
    MODE_DEAD,
    MODE_NOMINAL,
    MODE_SATURATED,
    LIFState,
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
