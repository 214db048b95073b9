"""Byte pins for the slice-add sum pooling.

``SumPool.run_sequence_fused`` and ``SumPool.forward_sequence_fused`` sum
each ``window``x``window`` block with ``window^2`` strided slice adds, and
the autograd pool is one tape node whose backward writes the gradient into
the ``window^2`` strided slots.  The formulation they replace — a 7-D
``reshape`` plus a sum over the two window axes, forward and on the tape —
is kept below as the reference.  Every comparison is on ``tobytes()``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import Tensor
from repro.snn.layers import SumPool


def _reference_pool(seq, window):
    """The reshape-sum, on an array or on the tape (two nodes)."""
    steps, batch, channels, height, width = seq.shape
    return seq.reshape(
        steps, batch, channels, height // window, window, width // window, window
    ).sum(axis=(4, 6))


@st.composite
def pool_cases(draw):
    window = draw(st.integers(1, 3))
    shape = (
        draw(st.integers(1, 6)),  # T
        draw(st.integers(1, 3)),  # batch
        draw(st.integers(1, 4)),  # channels
        window * draw(st.integers(1, 3)),
        window * draw(st.integers(1, 3)),
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Spike counts: what a pool receives from a spiking layer.
    counts = rng.integers(0, 4, size=shape).astype(dtype)
    return window, counts, rng


@settings(max_examples=150, deadline=None)
@given(case=pool_cases())
def test_slice_add_pool_matches_reshape_sum(case):
    window, counts, rng = case
    pool = SumPool(window)
    reference = _reference_pool(counts, window)
    assert pool.run_sequence_fused(counts).tobytes() == reference.tobytes()

    seq = Tensor(counts, requires_grad=True, dtype=counts.dtype)
    out = pool.forward_sequence_fused(seq)
    assert out.data.tobytes() == reference.tobytes()
    # One tape node between the input and the pooled output.
    assert out._parents == (seq,)
    assert out._topological_order() == [seq, out]

    grad = rng.normal(size=reference.shape).astype(counts.dtype)
    grad[rng.random(grad.shape) < 0.3] = -0.0
    out.backward(grad)
    ref_seq = Tensor(counts, requires_grad=True, dtype=counts.dtype)
    _reference_pool(ref_seq, window).backward(grad)
    assert seq.grad.tobytes() == ref_seq.grad.tobytes()
