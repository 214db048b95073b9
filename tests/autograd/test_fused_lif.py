"""Gradient correctness of the fused BPTT kernels (repro.autograd.fused).

Three lines of evidence:

1. **Equality with the elementary tape** — the fused kernel must
   reproduce the spikes and the float64 input (and recurrent-weight)
   gradients that the per-step ``lif_step_tensor`` tape produces, for
   both reset modes, nonzero refractory periods, and recurrent feedback.
   The comparison is ``np.array_equal``: every value is equal, but the
   sign of a zero gradient entry may differ, because the tape and the
   scan meet a zero adjoint through different expressions.  This is the
   property the test-generation differential tests build on.
2. **Byte equality with the reference scans** — the pre-optimisation
   forward and backward scans are kept below as ``_reference_forward`` /
   ``_reference_backward``.  The production kernels must match them byte
   for byte (``tobytes()``, so zero signs count) across reset modes,
   refractory periods 0-2, per-neuron thresholds including 0 and
   negative values, float64/float32, and feed-forward and recurrent
   layers, under upstream gradients holding the signed zeros that hinge
   losses produce.
3. **Central-difference gradcheck in soft mode** — with the Heaviside
   replaced by a sigmoid the kernel is a true differentiable function, so
   numerical differentiation validates the hand-written BPTT recursion
   itself (not just its agreement with another implementation).
"""

import itertools

import numpy as np
import pytest

from repro.autograd import fused
from repro.autograd.functional import SURROGATES
from repro.autograd.tensor import Tensor, stack
from repro.snn.neuron import LIFState, lif_step_tensor

N = 9  # neurons per layer in these tests


def _params(n=N, threshold=1.0, leak=0.9, refractory=1):
    th = np.full((1, n), threshold)
    lk = np.full((1, n), leak)
    rf = np.full((1, n), refractory, dtype=np.int64)
    return th, lk, rf


def _random_currents(steps, n=N, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(steps, 1, n))


def _elementary(currents, th, lk, rf, reset_mode, w_rec=None, slope=5.0):
    """Per-step elementary-tape reference; returns (spike stack, input grad,
    w_rec grad) after backward on a composite loss."""
    steps = currents.shape[0]
    xt = Tensor(currents, requires_grad=True)
    wr = Tensor(w_rec, requires_grad=True) if w_rec is not None else None
    state = LIFState.zeros_tensor(currents.shape[1:])
    spikes = []
    for t in range(steps):
        current = xt[t]
        if wr is not None:
            current = current + state.last_spike @ wr
        spikes.append(
            lif_step_tensor(current, state, th, lk, rf, "fast_sigmoid", slope, reset_mode)
        )
    out = stack(spikes, axis=0)
    loss = out.mean() + (out * out).sum() * 0.05 + out[1:].sum() * 0.25
    loss.backward()
    return out.data.copy(), xt.grad.copy(), None if wr is None else wr.grad.copy()


def _fused(currents, th, lk, rf, reset_mode, w_rec=None, slope=5.0):
    xt = Tensor(currents, requires_grad=True)
    if w_rec is None:
        out = fused.lif_sequence(
            xt, th, lk, rf, surrogate_slope=slope, reset_mode=reset_mode
        )
        wr = None
    else:
        wr = Tensor(w_rec, requires_grad=True)
        out = fused.recurrent_lif_sequence(
            xt, wr, th, lk, rf, surrogate_slope=slope, reset_mode=reset_mode
        )
    loss = out.mean() + (out * out).sum() * 0.05 + out[1:].sum() * 0.25
    loss.backward()
    return out.data.copy(), xt.grad.copy(), None if wr is None else wr.grad.copy()


@pytest.mark.parametrize("reset_mode", ["zero", "subtract"])
@pytest.mark.parametrize("refractory", [0, 1, 2])
def test_fused_matches_elementary_bitwise(reset_mode, refractory):
    th, lk, rf = _params(refractory=refractory)
    currents = _random_currents(steps=11, seed=42)
    spikes_e, grad_e, _ = _elementary(currents, th, lk, rf, reset_mode)
    spikes_f, grad_f, _ = _fused(currents, th, lk, rf, reset_mode)
    assert np.array_equal(spikes_e, spikes_f)
    assert np.array_equal(grad_e, grad_f)  # exact values, not allclose


@pytest.mark.parametrize("reset_mode", ["zero", "subtract"])
def test_fused_recurrent_matches_elementary(reset_mode):
    rng = np.random.default_rng(7)
    w_rec = rng.normal(0.0, 0.4, size=(N, N))
    th, lk, rf = _params(refractory=1)
    currents = _random_currents(steps=9, seed=3)
    spikes_e, grad_e, wg_e = _elementary(currents, th, lk, rf, reset_mode, w_rec=w_rec)
    spikes_f, grad_f, wg_f = _fused(currents, th, lk, rf, reset_mode, w_rec=w_rec)
    assert np.array_equal(spikes_e, spikes_f)
    assert np.array_equal(grad_e, grad_f)
    # The recurrent weight gradient sums T outer products; the fused scan
    # accumulates them in descending-t order like the reversed tape, so it
    # is bitwise too.
    assert np.array_equal(wg_e, wg_f)


def test_fused_heterogeneous_parameters():
    """Per-neuron thresholds/leaks/refractory mix, not just uniform fills
    (exercises the generic scan, not the refractory-1 fast path)."""
    rng = np.random.default_rng(11)
    th = rng.uniform(0.6, 1.4, size=(1, N))
    lk = rng.uniform(0.7, 0.99, size=(1, N))
    rf = rng.integers(0, 4, size=(1, N))
    currents = _random_currents(steps=10, seed=13)
    for reset_mode in ("zero", "subtract"):
        spikes_e, grad_e, _ = _elementary(currents, th, lk, rf, reset_mode)
        spikes_f, grad_f, _ = _fused(currents, th, lk, rf, reset_mode)
        assert np.array_equal(spikes_e, spikes_f)
        assert np.array_equal(grad_e, grad_f)


def _reference_forward(c, threshold, leak, refractory_steps, reset_mode, w_rec=None):
    """The forward scan before the lean refractory-1 path (hard spikes)."""
    dtype = c.dtype
    steps = c.shape[0]
    th = np.asarray(threshold, dtype=dtype)
    lk = np.asarray(leak, dtype=dtype)
    spikes = np.empty_like(c)
    potentials = np.empty_like(c)
    xs = np.empty_like(c)
    actives = np.empty_like(c)
    u = np.zeros(c.shape[1:], dtype=dtype)
    s = np.zeros(c.shape[1:], dtype=dtype)
    r = np.zeros(c.shape[1:], dtype=np.int64)
    refr = np.asarray(refractory_steps)
    if steps and refr.size and (refr == 1).all():
        actives[0] = 1.0
        for t in range(steps):
            active = actives[t]
            if reset_mode == "zero":
                retained = u * active
            else:
                retained = u - s * th
            current = c[t] if w_rec is None else c[t] + s @ w_rec
            u = potentials[t]
            np.multiply(retained, lk, out=u)
            u += current * active
            x = xs[t]
            np.subtract(u, th, out=x)
            s = spikes[t]
            np.multiply(x >= 0.0, active, out=s, casting="unsafe")
            if t + 1 < steps:
                np.subtract(1.0, s, out=actives[t + 1])
        return spikes, potentials, xs, actives, th, lk
    for t in range(steps):
        active = actives[t]
        np.copyto(active, r == 0, casting="unsafe")
        if reset_mode == "zero":
            retained = u * (1.0 - s)
        else:
            retained = u - s * th
        current = c[t] if w_rec is None else c[t] + s @ w_rec
        u = potentials[t]
        np.multiply(retained, lk, out=u)
        u += current * active
        x = xs[t]
        np.subtract(u, th, out=x)
        s = spikes[t]
        np.multiply(x >= 0.0, active, out=s, casting="unsafe")
        r = np.where(s > 0.0, refractory_steps, np.maximum(r - 1, 0))
    return spikes, potentials, xs, actives, th, lk


def _reference_surrogate(x, kind, slope):
    """The surrogate derivatives before the in-place fast_sigmoid."""
    if kind == "fast_sigmoid":
        return 1.0 / (1.0 + slope * np.abs(x)) ** 2
    if kind == "arctan":
        return 1.0 / (1.0 + (np.pi * slope * x / 2.0) ** 2)
    return np.exp(-slope * np.abs(x))


def _reference_backward(grad, spikes, potentials, xs, actives, th, lk, reset_mode,
                        surrogate, slope, w_rec=None):
    """The BPTT scan before the lean path; returns (grad_currents, grad_w_rec)."""
    steps = grad.shape[0]
    gc = np.empty_like(grad)
    gw = np.zeros_like(w_rec) if w_rec is not None else None
    rhos = _reference_surrogate(xs, surrogate, slope)
    one_minus_s = 1.0 - spikes if reset_mode == "zero" else None
    gu = reset_carry = rec_carry = None
    for t in range(steps - 1, -1, -1):
        gs_total = grad[t]
        if reset_carry is not None:
            gs_total = gs_total + reset_carry
        if rec_carry is not None:
            gs_total = gs_total + rec_carry
        spike_term = (gs_total * actives[t]) * rhos[t]
        gu_total = spike_term if gu is None else gu + spike_term
        gcur = gc[t]
        np.multiply(gu_total, actives[t], out=gcur)
        if gw is not None and t > 0:
            gw += spikes[t - 1].T @ gcur
        if t > 0:
            glk = gu_total * lk
            if reset_mode == "zero":
                gu = glk * one_minus_s[t - 1]
                reset_carry = -(glk * potentials[t - 1])
            else:
                gu = glk
                reset_carry = -(glk * th)
            if w_rec is not None:
                rec_carry = gcur @ w_rec.T
    return gc, gw


def _scan_case(seed, reset_mode, refractory, thresholds, dtype, recurrent):
    rng = np.random.default_rng(seed)
    steps, batch, n = int(rng.integers(1, 25)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
    currents = rng.normal(0.2, 2.0, size=(steps, batch, n))
    currents[rng.random(currents.shape) < 0.1] = 0.0
    currents[rng.random(currents.shape) < 0.05] = -0.0
    if thresholds == "uniform":
        th = np.full((1, n), 1.0)
    elif thresholds == "per-neuron":
        th = rng.uniform(0.3, 1.5, size=(1, n))
    else:
        th = rng.choice([0.0, -0.0, -0.5, 0.8, 1.0], size=(1, n))
        th[0, 0] = rng.choice([0.0, -0.5])
    lk = rng.uniform(0.5, 0.99, size=(1, n))
    rf = np.full((1, n), refractory, dtype=np.int64)
    # Upstream gradients as hinge losses leave them: signed zeros, and
    # neurons whose whole adjoint is zero.
    seed_grad = rng.normal(size=currents.shape)
    draw = rng.random(seed_grad.shape)
    seed_grad[draw < 0.3] = -0.0
    seed_grad[(draw >= 0.3) & (draw < 0.4)] = 0.0
    seed_grad[:, :, : n // 2] = -0.0
    w_rec = rng.normal(0.0, 0.6, size=(n, n)).astype(dtype) if recurrent else None
    surrogate = SURROGATES[seed % len(SURROGATES)]
    return (currents.astype(dtype), th, lk, rf, seed_grad.astype(dtype), w_rec, surrogate)


@pytest.mark.parametrize(
    "reset_mode,refractory,thresholds,dtype,recurrent",
    list(itertools.product(
        ["zero", "subtract"], [0, 1, 2], ["uniform", "per-neuron", "nonpositive"],
        [np.float64, np.float32], [False, True],
    )),
)
def test_scans_match_reference_bytes(reset_mode, refractory, thresholds, dtype, recurrent):
    for seed in range(8):
        currents, th, lk, rf, seed_grad, w_rec, surrogate = _scan_case(
            seed, reset_mode, refractory, thresholds, dtype, recurrent
        )
        saved = _reference_forward(currents, th, lk, rf, reset_mode, w_rec=w_rec)
        ref_gc, ref_gw = _reference_backward(
            seed_grad, *saved, reset_mode, surrogate, 5.0, w_rec=w_rec
        )
        xt = Tensor(currents, requires_grad=True, dtype=dtype)
        if w_rec is None:
            out = fused.lif_sequence(
                xt, th, lk, rf, surrogate=surrogate, reset_mode=reset_mode
            )
        else:
            wt = Tensor(w_rec, requires_grad=True, dtype=dtype)
            out = fused.recurrent_lif_sequence(
                xt, wt, th, lk, rf, surrogate=surrogate, reset_mode=reset_mode
            )
        out.backward(seed_grad)
        assert out.data.tobytes() == saved[0].tobytes(), seed
        assert xt.grad.tobytes() == ref_gc.tobytes(), seed
        if w_rec is not None:
            assert wt.grad.tobytes() == ref_gw.tobytes(), seed


def test_infinite_threshold_takes_the_general_scan():
    """``u >= inf`` fires on an infinite potential; ``u - inf >= 0`` is
    NaN there and does not, so an infinite threshold must not take the
    lean path."""
    th, lk, rf = _params(n=3)
    th[0, 1] = np.inf
    currents = np.ones((3, 1, 3))
    currents[0, 0, 1] = np.inf
    ref_spikes = _reference_forward(currents, th, lk, rf, "zero")[0]
    out = fused.lif_sequence(Tensor(currents), th, lk, rf)
    assert out.data.tobytes() == ref_spikes.tobytes()


@pytest.mark.parametrize("reset_mode", ["zero", "subtract"])
@pytest.mark.parametrize("refractory", [0, 2])
def test_soft_mode_gradcheck(reset_mode, refractory):
    """Central differences validate the BPTT recursion in soft mode."""
    n = 4
    steps = 6
    th = np.full((1, n), 0.8)
    lk = np.full((1, n), 0.9)
    rf = np.full((1, n), refractory, dtype=np.int64)
    currents = _random_currents(steps, n=n, seed=5, scale=1.5)
    slope = 2.0

    def loss_of(c):
        xt = Tensor(c, requires_grad=True)
        out = fused.lif_sequence(
            xt, th, lk, rf, surrogate_slope=slope, reset_mode=reset_mode, soft=True
        )
        return xt, (out * out).sum() + out.mean() * 0.5

    xt, loss = loss_of(currents)
    loss.backward()
    analytic = xt.grad.copy()

    eps = 1e-6
    rng = np.random.default_rng(17)
    flat = currents.ravel()
    for idx in rng.choice(flat.size, size=12, replace=False):
        bump = np.zeros_like(flat)
        bump[idx] = eps
        _, lp = loss_of((flat + bump).reshape(currents.shape))
        _, lm = loss_of((flat - bump).reshape(currents.shape))
        numeric = (lp.item() - lm.item()) / (2.0 * eps)
        assert analytic.ravel()[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_soft_mode_gradcheck_recurrent():
    n = 4
    steps = 5
    th = np.full((1, n), 0.8)
    lk = np.full((1, n), 0.9)
    rf = np.full((1, n), 1, dtype=np.int64)
    rng = np.random.default_rng(23)
    w_rec = rng.normal(0.0, 0.5, size=(n, n))
    currents = _random_currents(steps, n=n, seed=29, scale=1.5)
    slope = 2.0

    def loss_of(c, w):
        xt = Tensor(c, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        out = fused.recurrent_lif_sequence(
            xt, wt, th, lk, rf, surrogate_slope=slope, reset_mode="zero", soft=True
        )
        return xt, wt, (out * out).sum() + out.mean() * 0.5

    xt, wt, loss = loss_of(currents, w_rec)
    loss.backward()
    g_c, g_w = xt.grad.copy(), wt.grad.copy()

    eps = 1e-6
    flat_c = currents.ravel()
    for idx in rng.choice(flat_c.size, size=6, replace=False):
        bump = np.zeros_like(flat_c)
        bump[idx] = eps
        *_, lp = loss_of((flat_c + bump).reshape(currents.shape), w_rec)
        *_, lm = loss_of((flat_c - bump).reshape(currents.shape), w_rec)
        numeric = (lp.item() - lm.item()) / (2.0 * eps)
        assert g_c.ravel()[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
    flat_w = w_rec.ravel()
    for idx in rng.choice(flat_w.size, size=6, replace=False):
        bump = np.zeros_like(flat_w)
        bump[idx] = eps
        *_, lp = loss_of(currents, (flat_w + bump).reshape(w_rec.shape))
        *_, lm = loss_of(currents, (flat_w - bump).reshape(w_rec.shape))
        numeric = (lp.item() - lm.item()) / (2.0 * eps)
        assert g_w.ravel()[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_float32_smoke():
    """float32 currents stay float32 through the kernel, forward and grad."""
    th, lk, rf = _params()
    currents = _random_currents(steps=8, seed=31).astype(np.float32)
    xt = Tensor(currents, requires_grad=True, dtype=np.float32)
    out = fused.lif_sequence(xt, th, lk, rf)
    assert out.data.dtype == np.float32
    out.sum().backward()
    assert xt.grad.dtype == np.float32
    assert np.isfinite(xt.grad).all()


def test_validation_errors():
    th, lk, rf = _params()
    c = Tensor(np.zeros((4, 1, N)))
    with pytest.raises(Exception):
        fused.lif_sequence(c, th, lk, rf, surrogate="nope")
    with pytest.raises(Exception):
        fused.lif_sequence(c, th, lk, rf, reset_mode="nope")
    with pytest.raises(Exception):
        fused.lif_sequence(Tensor(np.zeros(3)), th, lk, rf)
    with pytest.raises(Exception):
        fused.recurrent_lif_sequence(
            Tensor(np.zeros((4, 1, 2, 2))), Tensor(np.eye(4)), th, lk, rf
        )
