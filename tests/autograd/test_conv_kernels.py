"""Bitwise pins for the strided-copy conv kernels.

:func:`repro.autograd.functional.im2col` builds the patch matrix with
``kh*kw`` strided block copies, and the ``conv2d`` input gradient folds it
back with ``kh*kw`` strided slice-adds.  Both replace an index-array
formulation (one fancy-index gather forward, one ``np.bincount``
scatter-add backward) that is kept below as the reference.  Every
comparison is ``np.array_equal`` plus a dtype check — no tolerances.

:func:`repro.autograd.functional.im2col_matmul`, which the campaign conv
kernels use, builds and multiplies the patches one cache-sized block at
a time; it must equal the one-shot product byte for byte, and no patch
matrix a campaign builds may exceed its budget.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    PoolSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters


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


# ----------------------------------------------------------------------
# Blocked patch GEMMs
# ----------------------------------------------------------------------
def _rows_per_block(channels, kh, kw, out_hw, dtype):
    """Rows (``x[n]`` slices) per block of :func:`F.im2col_matmul`."""
    row_bytes = channels * kh * kw * out_hw[0] * out_hw[1] * np.dtype(dtype).itemsize
    return max(1, F.PATCH_BLOCK_BYTES // row_bytes)


@st.composite
def blocked_cases(draw):
    case = draw(conv_cases())
    case["stack"] = draw(st.sampled_from([None, 1, 3]))  # K of a (K, 1, F, C*kh*kw) stack
    case["rows"] = draw(st.integers(1, 6))  # rows per block the scaled budget allows
    case["batch_of"] = draw(st.sampled_from(["1", "b-1", "b", "b+1", "3b+1"]))
    case["slack"] = draw(st.floats(0.0, 0.99))  # budget remainder below one more row
    return case


@settings(max_examples=150, deadline=None)
@given(case=blocked_cases())
def test_im2col_matmul_equals_one_shot_product(case):
    """The helper equals the one-shot ``np.matmul(w, F.im2col(x))`` byte
    for byte.  The budget is scaled down so that block edges fall at
    small batch sizes: ``b`` rows per block, batches 1, b-1, b, b+1 and
    3b+1."""
    rng = np.random.default_rng(case["seed"])
    kh, kw = case["kernel"]
    stride, padding, dtype = case["stride"], case["padding"], case["dtype"]
    b = case["rows"]
    batch = {"1": 1, "b-1": max(1, b - 1), "b": b, "b+1": b + 1, "3b+1": 3 * b + 1}[
        case["batch_of"]
    ]
    x = rng.standard_normal((batch, case["channels"]) + case["hw"]).astype(dtype)
    w = rng.standard_normal(
        (case["filters"], case["channels"] * kh * kw)
    ).astype(dtype)
    if case["stack"] is not None:
        w = rng.standard_normal((case["stack"], 1) + w.shape).astype(dtype)
    cols = F.im2col(x, kh, kw, stride, padding)
    reference = np.matmul(w, cols)
    row_bytes = cols[0].nbytes
    budget = b * row_bytes + int(case["slack"] * row_bytes)
    with mock.patch.object(F, "PATCH_BLOCK_BYTES", budget):
        out = F.im2col_matmul(w, x, kh, kw, stride, padding)
    assert out.dtype == reference.dtype == np.dtype(dtype)
    assert out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stack", [None, 4])
def test_im2col_matmul_at_the_shipped_budget(dtype, stack):
    """The shipped budget on the nmnist-small conv2 geometry: 6 input
    channels at 8x8, 3x3 kernel, padding 1, batches around its block
    size, with a ``(K, 1, F, C*kh*kw)`` stack over a ``(T, 1, S)`` lead as
    the K-batched kernels pass it."""
    rng = np.random.default_rng(7)
    b = _rows_per_block(6, 3, 3, (8, 8), dtype)
    for batch in (1, b - 1, b, b + 1, 3 * b + 1):
        x = (rng.random((batch, 6, 8, 8)) < 0.3).astype(dtype)
        w = rng.standard_normal((8, 54)).astype(dtype)
        if stack is not None:
            x = x[:, None, None]  # (T, 1, S=1, C, H, W)
            w = rng.standard_normal((stack, 1, 8, 54)).astype(dtype)
        cols = F.im2col(x.reshape((-1, 6, 8, 8)), 3, 3, 1, 1)
        reference = np.matmul(w, cols.reshape(x.shape[:-3] + cols.shape[1:]))
        out = F.im2col_matmul(w, x, 3, 3, 1, 1)
        assert out.dtype == reference.dtype
        assert out.tobytes() == reference.tobytes()


def test_campaign_patch_matrices_stay_within_budget(monkeypatch):
    """Every patch matrix a conv splice campaign builds fits the block
    budget.  Unblocked, conv2's downstream propagation of one conv1
    splice batch over a 48-step segment builds 56 MB of patches in one
    call, and the golden conv1 pass 1.8 MB."""
    net = build_network(
        NetworkSpec(
            name="patch-budget",
            input_shape=(2, 16, 16),
            layers=(
                ConvSpec(out_channels=4, kernel=3, padding=1, weight_scale=4.0),
                PoolSpec(2),
                ConvSpec(out_channels=4, kernel=3, padding=1, weight_scale=4.0),
                PoolSpec(2),
                FlattenSpec(),
                DenseSpec(out_features=10),
            ),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(0),
    )
    config = FaultModelConfig()
    catalog = build_catalog(net, config, np.random.default_rng(1))
    conv1 = [f for f in catalog.faults if f.module_index == 0]
    conv2 = [f for f in catalog.faults if f.module_index == 2]
    faults = conv1[::4] + conv2[::8]
    rng = np.random.default_rng(2)
    stimulus = TestStimulus(
        chunks=[(rng.random((24, 1, 2, 16, 16)) < 0.2).astype(float) for _ in range(2)],
        input_shape=(2, 16, 16),
    )
    sizes = []
    real = F.im2col

    def recording(x, *args, **kwargs):
        cols = real(x, *args, **kwargs)
        sizes.append(cols.nbytes)
        return cols

    monkeypatch.setattr(F, "im2col", recording)
    FaultSimulator(net, config).detect_segmented(stimulus, faults, drop_detected=False)
    assert len(sizes) > 10
    assert max(sizes) <= F.PATCH_BLOCK_BYTES
