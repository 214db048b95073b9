"""Differentiable building blocks used by the SNN simulator and the
test-generation algorithm.

Contents
--------
- :func:`spike` — Heaviside firing with a surrogate gradient (the SLAYER
  trick that makes BPTT through spiking neurons possible).
- :func:`gumbel_softmax` — binary-concrete relaxation (Eq. 17 of the paper)
  used to optimise the binary test input.
- :func:`ste_binarize` — straight-through estimator (Eq. 18).
- :func:`linear`, :func:`conv2d`, :func:`sum_pool2d` — layer primitives.
- :func:`softmax`, :func:`cross_entropy` — training-time classification
  loss on output spike counts.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.autograd.tensor import Tensor

SURROGATES = ("fast_sigmoid", "arctan", "exponential")


def _surrogate_derivative(x: np.ndarray, kind: str, slope: float) -> np.ndarray:
    """Pseudo-derivative of the Heaviside step evaluated at ``x``.

    ``x`` is the membrane potential minus the threshold; the derivative
    peaks at ``x == 0`` and decays with ``|x|`` at a rate set by ``slope``.
    """
    if kind == "fast_sigmoid":
        # ``1.0 / (1.0 + slope * |x|) ** 2`` in place after the first
        # product, which fixes the dtype: the same floats, fewer buffers.
        d = np.asarray(slope * np.abs(x))
        d += 1.0
        d *= d
        return np.divide(1.0, d, out=d)
    if kind == "arctan":
        return 1.0 / (1.0 + (np.pi * slope * x / 2.0) ** 2)
    if kind == "exponential":
        return np.exp(-slope * np.abs(x))
    raise ConfigurationError(f"unknown surrogate '{kind}', expected one of {SURROGATES}")


def spike(
    potential_minus_threshold: Tensor,
    surrogate: str = "fast_sigmoid",
    slope: float = 5.0,
) -> Tensor:
    """Fire a spike where the membrane potential exceeds the threshold.

    Forward: ``Heaviside(x >= 0)``.  Backward: the surrogate derivative —
    gradient ``grad * rho(x)`` flows to the potential even though the true
    derivative is zero almost everywhere.
    """
    if surrogate not in SURROGATES:
        raise ConfigurationError(
            f"unknown surrogate '{surrogate}', expected one of {SURROGATES}"
        )
    x = potential_minus_threshold
    data = (x.data >= 0.0).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * _surrogate_derivative(x.data, surrogate, slope), owned=True)

    return x._make(data, (x,), backward, "spike")


#: Clamp bound (in units of the logistic scale) for the Gumbel noise.  A
#: logistic draw is ``log(u / (1 - u))`` for uniform ``u``; any
#: non-degenerate float64 ``u`` keeps ``|log(u/(1-u))|`` below ~37, so a
#: bound of 745 (the float64 exp-overflow boundary) is reached *only* by
#: degenerate draws (``u`` exactly 0 or 1, yielding ±Inf) — clamping is
#: bit-identical on every non-degenerate draw.
_LOGISTIC_BOUND = 745.0


def gumbel_softmax(
    logits: Tensor,
    tau: float,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> Tensor:
    """Binary-concrete relaxation of Bernoulli sampling (paper Eq. 17).

    For two-state (spike / no-spike) variables the Gumbel-Softmax reduces to
    ``sigmoid((logits + G) / tau)`` where ``G`` is logistic noise (the
    difference of two Gumbel samples).  As ``tau -> 0`` the output
    approaches binary values.

    Parameters
    ----------
    logits:
        Real-valued tensor ``I_real`` being optimised.
    tau:
        Temperature; must be positive.
    rng:
        Source of the logistic noise (kept out of the tape).
    noise_scale:
        Scale of the logistic noise; 0 disables stochasticity, which is
        useful for deterministic tests.
    """
    if tau <= 0.0:
        raise ConfigurationError(f"gumbel_softmax temperature must be > 0, got {tau}")
    if noise_scale > 0:
        noise = rng.logistic(loc=0.0, scale=noise_scale, size=logits.shape)
        # A degenerate uniform draw (u == 0 or 1) makes the logistic
        # inverse-CDF produce ±Inf, which poisons the whole tape through
        # logits + noise.  Clamp to a bound only infinities can reach, so
        # non-degenerate draws pass through bit-identically.
        bound = _LOGISTIC_BOUND * noise_scale
        np.clip(noise, -bound, bound, out=noise)
    else:
        noise = 0.0
    return ((logits + noise) * (1.0 / tau)).sigmoid()


def ste_binarize(soft: Tensor, threshold: float = 0.5) -> Tensor:
    """Straight-through estimator (paper Eq. 18).

    Forward: hard-threshold ``soft`` at ``threshold`` producing a binary
    spike tensor.  Backward: identity — the incoming gradient is passed to
    ``soft`` unchanged, as if no binarisation happened.
    """
    data = (soft.data > threshold).astype(soft.data.dtype)

    def backward(grad: np.ndarray) -> None:
        soft._accumulate(grad)

    return soft._make(data, (soft,), backward, "ste")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight (+ bias)`` with ``weight`` of shape (in, out)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def _conv_out_hw(height: int, width: int, kh: int, kw: int, stride: int, padding: int):
    return (
        (height + 2 * padding - kh) // stride + 1,
        (width + 2 * padding - kw) // stride + 1,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Patch matrix of a ``(B, C, H, W)`` array: C-contiguous
    ``(B, C*kh*kw, out_h*out_w)`` in the input dtype.

    Row ``(c*kh + i)*kw + j`` holds kernel tap ``(c, i, j)`` at every
    output position.  The input is zero-padded into one buffer, then each
    of the ``kh*kw`` taps is one strided block copy — no index arrays, and
    BLAS receives a contiguous operand.  Every entry is a plain copy of an
    input value, so the matrix equals an index gather exactly.
    """
    batch, channels, height, width = x.shape
    out_h, out_w = _conv_out_hw(height, width, kh, kw, stride, padding)
    if padding:
        x_pad = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding), dtype=x.dtype
        )
        x_pad[:, :, padding:padding + height, padding:padding + width] = x
    else:
        x_pad = x
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=x.dtype)
    h_span = stride * (out_h - 1) + 1
    w_span = stride * (out_w - 1) + 1
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x_pad[:, :, i:i + h_span:stride, j:j + w_span:stride]
    return cols.reshape(batch, channels * kh * kw, out_h * out_w)


#: Patch-matrix bytes one block of :func:`im2col_matmul` builds, so the
#: GEMMs read patches that are still in cache.  On a Xeon with 2 MiB of
#: L2 per core, 0.5-1 MiB blocks ran fastest; one-shot patch matrices of
#: campaign batches run to ~100 MB, spill to memory, and past glibc's
#: 32 MiB mmap threshold are mapped afresh on every call
#: (docs/PERFORMANCE.md, "Campaign patch matrices").
PATCH_BLOCK_BYTES = 1 << 20


def im2col_matmul(
    weights: np.ndarray,
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """``np.matmul(weights, im2col(x))`` for ``x`` of shape
    ``(N, *lead, C, H, W)``, built one cache-sized block at a time.

    The patch matrices of consecutive ``x[a:b]`` blocks, at most
    :data:`PATCH_BLOCK_BYTES` but never less than one ``x[n]``, are built
    and multiplied in turn, each product written into one preallocated
    output.  ``weights`` is ``(F, C*kh*kw)`` or a stack that broadcasts
    against ``lead`` without spanning ``N``, e.g. ``(K, 1, F, C*kh*kw)``.
    Every GEMM slice keeps its ``(F, C*kh*kw) @ (C*kh*kw, L)`` shape and
    operands, and stacked matmuls evaluate slices independently, so the
    result equals the one-shot product bit for bit.
    """
    channels, height, width = x.shape[-3:]
    out_h, out_w = _conv_out_hw(height, width, kh, kw, stride, padding)
    taps, positions = channels * kh * kw, out_h * out_w
    batch = np.broadcast_shapes(weights.shape[:-2], x.shape[:-3])
    out = np.empty(
        batch + (weights.shape[-2], positions),
        dtype=np.result_type(weights.dtype, x.dtype),
    )
    # The output axis that x's first axis maps to.
    head = (slice(None),) * (len(batch) - (x.ndim - 3))
    slice_bytes = math.prod(x.shape[1:-3]) * taps * positions * x.itemsize
    step = max(1, PATCH_BLOCK_BYTES // slice_bytes)
    for a in range(0, x.shape[0], step):
        block = x[a:a + step]
        # One expression, so each block's patches are freed before the
        # next block's are allocated and the allocator hands back the
        # same, still cached, memory.
        np.matmul(
            weights,
            im2col(
                block.reshape((-1, channels, height, width)), kh, kw, stride, padding
            ).reshape(block.shape[:-3] + (taps, positions)),
            out=out[head + (slice(a, a + step),)],
        )
    return out


def _tap_span(size: int, out_size: int, tap: int, stride: int, padding: int):
    """Output positions ``o0..o1`` (inclusive) whose tap ``tap`` lands
    inside an unpadded axis of ``size``, and the input index of ``o0``."""
    o0 = max(0, -((tap - padding) // stride))
    o1 = min(out_size - 1, (size - 1 + padding - tap) // stride)
    return o0, o1, o0 * stride + tap - padding


def _col2im(
    grad_cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum ``(B, C*kh*kw, L)`` patch gradients
    back onto the ``(B, C, H, W)`` input, accumulating in float64.

    Each pixel sums its taps in ``(i, j)``-ascending order starting from
    zero, as a sequential scatter-add over the patch matrix would, so the
    result does not depend on batch size or input dtype.  Taps that land
    in the zero padding are never added: each tap adds only its interior
    block, so no padded buffer is built and cropped."""
    batch, channels, height, width = x_shape
    out_h, out_w = _conv_out_hw(height, width, kh, kw, stride, padding)
    taps = grad_cols.reshape(batch, channels, kh, kw, out_h, out_w)
    gx = np.zeros((batch, channels, height, width), dtype=np.float64)
    for i in range(kh):
        y0, y1, r0 = _tap_span(height, out_h, i, stride, padding)
        if y1 < y0:
            continue
        rows = slice(r0, r0 + stride * (y1 - y0) + 1, stride)
        for j in range(kw):
            x0, x1, c0 = _tap_span(width, out_w, j, stride, padding)
            if x1 < x0:
                continue
            cols = slice(c0, c0 + stride * (x1 - x0) + 1, stride)
            gx[:, :, rows, cols] += taps[:, :, i, j, y0:y1 + 1, x0:x1 + 1]
    return gx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution via im2col.

    Parameters
    ----------
    x:
        Input of shape ``(B, C, H, W)``.
    weight:
        Kernel of shape ``(F, C, kh, kw)``.
    bias:
        Optional per-filter bias of shape ``(F,)``.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (B, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d kernel expects (F, C, kh, kw), got {weight.shape}")
    batch, channels, height, width = x.shape
    filters, wc, kh, kw = weight.shape
    if wc != channels:
        raise ShapeError(f"kernel channels {wc} != input channels {channels}")

    out_h, out_w = _conv_out_hw(height, width, kh, kw, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"conv2d output would be empty for input {x.shape}, kernel {weight.shape}"
        )

    cols = im2col(x.data, kh, kw, stride, padding)  # (B, C*kh*kw, out_h*out_w)
    w_mat = weight.data.reshape(filters, -1)
    # matmul (BLAS) rather than einsum: each batch slice is the same GEMM
    # regardless of batch size, so the fused (T*B)-batched call and the
    # per-step call produce bit-identical slices.
    out = np.matmul(w_mat, cols).reshape(batch, filters, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, filters, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch, filters, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=(0, 2)), owned=True)
        if weight.requires_grad:
            # einsum's reduction order follows its operands' memory
            # layout.  Patches go in batch-innermost, the layout this
            # gradient has always been reduced in, so trained weights do
            # not depend on how the forward pass laid out its operands.
            batch_inner = np.empty(cols.shape[1:] + (batch,), dtype=cols.dtype)
            batch_inner[...] = cols.transpose(1, 2, 0)
            gw = np.einsum("bfl,bkl->fk", grad_flat, batch_inner.transpose(2, 0, 1))
            weight._accumulate(gw.reshape(weight.shape), owned=True)
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, grad_flat)
            x._accumulate(
                _col2im(grad_cols, x.shape, kh, kw, stride, padding), owned=True
            )

    return x._make(out, parents, backward, "conv2d")


def sum_pool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping sum pooling over ``window``×``window`` blocks.

    Sum pooling (rather than max) is the standard choice in spiking
    networks — it just merges spike counts, which hardware implements by
    wiring several synapses to one downstream neuron.
    """
    if x.ndim != 4:
        raise ShapeError(f"sum_pool2d expects (B, C, H, W), got {x.shape}")
    batch, channels, height, width = x.shape
    if height % window or width % window:
        raise ShapeError(
            f"sum_pool2d window {window} does not divide spatial dims {height}x{width}"
        )
    oh, ow = height // window, width // window
    data = x.data.reshape(batch, channels, oh, window, ow, window).sum(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        g = np.repeat(np.repeat(grad, window, axis=2), window, axis=3)
        x._accumulate(g, owned=True)

    return x._make(data, (x,), backward, "sum_pool2d")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax built from primitive ops."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (B, K) and integer ``labels``."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, K) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} != ({logits.shape[0]},)"
        )
    logp = log_softmax(logits, axis=1)
    picked = logp[np.arange(logits.shape[0]), labels]
    return -picked.mean()
