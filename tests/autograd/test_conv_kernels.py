"""Bitwise pins for the strided-copy conv kernels.

:func:`repro.autograd.functional.im2col` builds the patch matrix with
``kh*kw`` strided block copies, and the ``conv2d`` input gradient folds it
back with ``kh*kw`` strided slice-adds.  Both replace an index-array
formulation (one fancy-index gather forward, one ``np.bincount``
scatter-add backward) that is kept below as the reference.  Every
comparison is ``np.array_equal`` plus a dtype check — no tolerances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor


def _gather_indices(channels, kh, kw, out_h, out_w, stride):
    i0 = np.tile(np.repeat(np.arange(kh), kw), channels)
    j0 = np.tile(np.arange(kw), kh * channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j


def _reference_cols(x, kh, kw, stride, padding):
    """Fancy-index gather over the ``np.pad``-ded input."""
    _, channels, height, width = x.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    x_pad = np.pad(x, pad) if padding else x
    k, i, j = _gather_indices(channels, kh, kw, out_h, out_w, stride)
    return x_pad[:, k, i, j]


def _reference_input_grad(grad_cols, x_shape, kh, kw, stride, padding):
    """One ``np.bincount`` scatter-add over the whole batch (float64)."""
    batch, channels, height, width = x_shape
    hp, wp = height + 2 * padding, width + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    k, i, j = _gather_indices(channels, kh, kw, out_h, out_w, stride)
    flat = (k * hp + i) * wp + j
    image = channels * hp * wp
    offsets = (np.arange(batch) * image).reshape(batch, 1, 1)
    gx_pad = np.bincount(
        (flat + offsets).ravel(), weights=grad_cols.ravel(), minlength=batch * image
    ).reshape(batch, channels, hp, wp)
    if padding:
        return gx_pad[:, :, padding:hp - padding, padding:wp - padding]
    return gx_pad


@st.composite
def conv_cases(draw):
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    # Non-square inputs at least one kernel wide after padding.
    height = draw(st.integers(max(1, kh - 2 * padding), 7))
    width = draw(st.integers(max(1, kw - 2 * padding), 7))
    return {
        "batch": draw(st.integers(1, 5)),
        "channels": draw(st.integers(1, 4)),
        # At least two filters: a single-filter product is a matrix-vector
        # call whose BLAS kernel sums in a different order than the GEMM
        # every multi-filter conv (all shipped networks) goes through.
        "filters": draw(st.integers(2, 4)),
        "hw": (height, width),
        "kernel": (kh, kw),
        "stride": stride,
        "padding": padding,
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _inputs(case):
    rng = np.random.default_rng(case["seed"])
    kh, kw = case["kernel"]
    x = rng.standard_normal(
        (case["batch"], case["channels"]) + case["hw"]
    ).astype(case["dtype"])
    w = rng.standard_normal(
        (case["filters"], case["channels"], kh, kw)
    ).astype(case["dtype"])
    return rng, x, w


@settings(max_examples=120, deadline=None)
@given(case=conv_cases())
def test_im2col_equals_fancy_index_gather(case):
    _, x, _ = _inputs(case)
    kh, kw = case["kernel"]
    cols = F.im2col(x, kh, kw, case["stride"], case["padding"])
    reference = _reference_cols(x, kh, kw, case["stride"], case["padding"])
    assert cols.flags.c_contiguous
    assert cols.dtype == x.dtype
    assert cols.shape == reference.shape
    assert np.array_equal(cols, reference)


@settings(max_examples=120, deadline=None)
@given(case=conv_cases())
def test_conv2d_forward_equals_gather_matmul(case):
    _, x, w = _inputs(case)
    kh, kw = case["kernel"]
    stride, padding = case["stride"], case["padding"]
    dtype = case["dtype"]
    out = F.conv2d(
        Tensor(x, dtype=dtype), Tensor(w, dtype=dtype), stride=stride, padding=padding
    )
    cols = _reference_cols(x, kh, kw, stride, padding)
    reference = np.matmul(w.reshape(case["filters"], -1), cols)
    assert out.data.dtype == x.dtype
    assert np.array_equal(out.data.reshape(reference.shape), reference)


@settings(max_examples=120, deadline=None)
@given(case=conv_cases())
def test_conv2d_gradients_equal_reference(case):
    rng, x, w = _inputs(case)
    stride, padding = case["stride"], case["padding"]
    kh, kw = case["kernel"]
    xt = Tensor(x, requires_grad=True, dtype=case["dtype"])
    wt = Tensor(w, requires_grad=True, dtype=case["dtype"])
    out = F.conv2d(xt, wt, stride=stride, padding=padding)
    grad = rng.standard_normal(out.shape).astype(case["dtype"])
    out.backward(grad)
    grad_flat = grad.reshape(x.shape[0], case["filters"], -1)
    cols = _reference_cols(x, kh, kw, stride, padding)
    reference_gw = np.einsum("bfl,bkl->fk", grad_flat, cols)
    assert np.array_equal(wt.grad, reference_gw.reshape(w.shape))
    grad_cols = np.matmul(w.reshape(case["filters"], -1).T, grad_flat)
    reference = _reference_input_grad(grad_cols, x.shape, kh, kw, stride, padding)
    # The col2im accumulates in float64 whatever the input dtype.
    assert reference.dtype == np.float64
    assert np.array_equal(F._col2im(grad_cols, x.shape, kh, kw, stride, padding), reference)
    assert np.array_equal(xt.grad, reference.astype(xt.grad.dtype))
