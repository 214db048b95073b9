"""Fused sequence-level LIF kernels with hand-written backward-through-time.

The elementary autograd path (:func:`repro.snn.neuron.lif_step_tensor`)
records ~10 tape nodes per layer per time step; for a T-step stimulus each
optimisation step therefore walks thousands of tiny Python closures.  The
kernels here collapse the whole differentiable recursion of one layer into
a *single* tape node:

- forward is a plain-numpy scan over time (same arithmetic, same order of
  operations as the per-step path, so spike trains are bit-identical).
  Under hard spikes, zero reset and a one-step refractory period it runs
  :func:`lean_lif_scan`, the in-place recursion that every production
  numpy LIF scan shares: campaign and golden scans
  (:func:`repro.snn.neuron.lif_scan_numpy`) and the recurrent layers'
  fused kernels call it too;
- backward is a hand-written BPTT scan that reproduces, expression by
  expression, the gradient the elementary tape would have produced —
  surrogate spike derivatives, refractory masking (treated as a
  non-differentiable constant, the standard BPTT-through-SNN convention),
  and both reset modes.

Synaptic input currents are state-independent, so callers precompute them
for all T steps with one matmul/conv (see ``forward_sequence_fused`` on the
layer modules); only the LIF recursion itself stays sequential.  For
recurrent layers the spike-feedback matmul is folded into the kernel.

``tests/autograd/test_fused_lif.py`` pins spikes and gradient values
against the elementary tape (``np.array_equal``: the sign of a zero
gradient entry may differ) and pins them byte for byte against the
pre-optimisation scans; the recursion algebra is additionally checked by
central differences in *soft* mode, where the Heaviside is replaced by a
sigmoid so the kernel becomes a genuinely differentiable function of its
inputs.

The update implemented (identical to ``repro.snn.neuron``)::

    active[t]  = (refractory counter == 0)
    retained   = u[t-1] * (1 - s[t-1])          # reset_mode == "zero"
               = u[t-1] - s[t-1] * threshold    # reset_mode == "subtract"
    u[t]       = retained * leak + c[t] * active[t]
    s[t]       = H(u[t] - threshold) * active[t]
    r[t]       = refractory_steps if s[t] else max(r[t-1] - 1, 0)
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.autograd.functional import SURROGATES, _surrogate_derivative
from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "lif_sequence", "recurrent_lif_sequence", "guarded", "lean_lif_scan",
    "lean_scan_applies",
]

# Observer installed by the numerics guard (repro.core.guard) while a
# guarded stage is running.  NaN input currents are otherwise *silent* in
# the scan — ``NaN >= threshold`` is False, so a poisoned forward produces
# an all-zero spike train and a perfectly finite loss — which is exactly
# the failure mode a wall-clock-bounded loop cannot afford.
_guard = None


@contextlib.contextmanager
def guarded(guard):
    """Install ``guard`` (anything with ``observe_currents(np.ndarray)``)
    as the kernels' current observer for the duration of the block."""
    global _guard
    saved = _guard
    _guard = guard
    try:
        yield
    finally:
        _guard = saved


def _observe(currents: np.ndarray) -> None:
    if _guard is not None:
        _guard.observe_currents(currents)


def _validate(currents: Tensor, surrogate: str, reset_mode: str) -> None:
    if not isinstance(currents, Tensor):
        raise ShapeError("lif_sequence expects a Tensor of input currents")
    if currents.ndim < 2:
        raise ShapeError(
            f"lif_sequence expects (T, B, *neurons) currents, got {currents.shape}"
        )
    if surrogate not in SURROGATES:
        raise ConfigurationError(
            f"unknown surrogate '{surrogate}', expected one of {SURROGATES}"
        )
    if reset_mode not in ("zero", "subtract"):
        raise ConfigurationError(
            f"reset_mode must be 'zero' or 'subtract', got {reset_mode!r}"
        )


def _soft_sigmoid(x: np.ndarray, slope: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-slope * x))


def _spike_derivative(
    x: np.ndarray, surrogate: str, slope: float, soft: bool
) -> np.ndarray:
    if soft:
        sig = _soft_sigmoid(x, slope)
        return slope * sig * (1.0 - sig)
    return _surrogate_derivative(x, surrogate, slope)


class _Scan(NamedTuple):
    """What a forward scan saves for backward."""

    spikes: np.ndarray
    potentials: np.ndarray
    #: ``u[t] - threshold`` per step; ``None`` after the lean scan, whose
    #: backward derives it from ``potentials``.
    xs: Optional[np.ndarray]
    actives: np.ndarray
    th: np.ndarray
    lk: np.ndarray


def lean_scan_applies(
    threshold, leak, refractory_steps, reset_mode: str, soft: bool = False
) -> bool:
    """Whether :func:`lean_lif_scan` reproduces the general recursion.

    With hard spikes, zero reset and a one-step refractory period, r is 1
    exactly where the neuron just fired, so ``active[t+1] == 1 - s[t]``
    (both exact {0, 1} floats) and the integer counter disappears.  A
    finite threshold > 0 makes ``u >= th`` decide exactly what
    ``(u - th >= 0) * active`` decides: ``u - th`` is exact in sign for
    finite operands, and a refractory step's potential is zero or NaN,
    which no positive threshold reaches.  A leak that is not NaN lets the
    scan decay the potential in place (see :func:`lean_lif_scan`).
    """
    th = np.asarray(threshold)
    return (
        not soft
        and reset_mode == "zero"
        and bool((np.asarray(refractory_steps) == 1).all())
        and bool(((th > 0.0) & (th < np.inf)).all())
        and not np.isnan(leak).any()
    )


def lean_lif_scan(
    currents: np.ndarray,
    state,
    threshold,
    leak,
    spikes: np.ndarray,
    feedback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    potentials: Optional[np.ndarray] = None,
    actives: Optional[np.ndarray] = None,
) -> None:
    """The in-place zero-reset, one-step-refractory LIF recursion.

    Scans ``currents`` ``(T, *shape)`` into ``spikes`` (same shape) from
    ``state`` (numpy ``potential``, ``last_spike`` and ``refractory``
    broadcasting to ``shape``).  Where :func:`lean_scan_applies` holds
    and no carried counter exceeds 1, every float equals the general
    recursion's (:func:`repro.snn.neuron.lif_step_numpy`):

    - step 0 runs the general expressions, since in a state a caller built
      ``1 - last_spike`` need not equal ``refractory == 0``;
    - from step 1 on ``active == 1 - s[t-1]``, and a refractory step's
      potential is ±0 or NaN, which no threshold > 0 reaches, so
      ``(u >= th) * active == u >= th``;
    - each potential is ``(u * active) * leak + current * active``, term
      for term (masking ``u * leak + current`` would flip the sign of some
      refractory zeros);
    - no call writes over its first operand unless the second cannot be
      NaN (``active``, a leak the gate checked): numpy runs such a call
      on a one-element array as a reduction that may swap the operands
      and return the other NaN.  The sum goes over the gated current (or
      into the kept potential block).

    Later steps are six ufunc calls into preallocated buffers.
    ``feedback`` maps the previous step's spikes to a term added to the
    step's currents before gating (a recurrent layer's spike feedback).
    ``potentials`` and ``actives`` (``(T, *shape)`` blocks), when given,
    receive every step's potential and active mask for BPTT.

    ``state`` is rebound, never written: its arrays become new ones, and
    ``last_spike`` shares no memory with ``spikes``.  ``T == 0`` leaves it
    as it is.
    """
    steps = currents.shape[0]
    if not steps:
        return
    u, last, ref = state.potential, state.last_spike, state.refractory
    dtype = currents.dtype
    one = dtype.type(1.0)
    active = (ref == 0).astype(dtype)
    current = currents[0] if feedback is None else currents[0] + feedback(last)
    gated = current * active
    p = np.add(
        u * (one - last) * leak, gated,
        out=None if potentials is None else potentials[0],
    )
    s = spikes[0]
    np.multiply(p >= threshold, active, out=s)
    if actives is not None:
        actives[0] = active
    active = np.empty_like(gated)
    # Kept potentials stay put, so the retained potential needs a buffer
    # of its own; otherwise it decays in the previous potential's buffer,
    # and the buffers of potential and gated current trade places (both
    # of the potential's dtype).
    gated = np.empty_like(p)
    retained = p if potentials is None else np.empty_like(p)
    for t in range(1, steps):
        a = active if actives is None else actives[t]
        np.subtract(one, s, out=a)
        np.multiply(p, a, out=retained)
        retained *= leak
        if feedback is None:
            np.multiply(currents[t], a, out=gated)
        else:
            np.add(currents[t], feedback(s), out=gated)
            gated *= a
        q = gated if potentials is None else potentials[t]
        np.add(retained, gated, out=q)
        s = spikes[t]
        np.greater_equal(q, threshold, out=s)
        if potentials is None:
            gated, retained = retained, q
        p = q
    state.potential = p
    # The general recursion's spike dtype is the current's.
    state.last_spike = s.astype(current.dtype)
    state.refractory = (s > 0.0).astype(ref.dtype)


def _forward_scan(
    c: np.ndarray,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    reset_mode: str,
    slope: float,
    soft: bool,
    w_rec: np.ndarray = None,
) -> _Scan:
    """Run the LIF recursion over all T steps, saving what backward needs.

    With ``w_rec`` set, the previous step's spikes feed back through the
    recurrent weights: ``current[t] = c[t] + s[t-1] @ w_rec``.
    """
    dtype = c.dtype
    steps = c.shape[0]
    th = np.asarray(threshold, dtype=dtype)
    lk = np.asarray(leak, dtype=dtype)
    spikes = np.empty_like(c)
    potentials = np.empty_like(c)
    actives = np.empty_like(c)
    if lean_scan_applies(th, lk, refractory_steps, reset_mode, soft):
        # Spikes come straight from ``u >= th``; ``u - th`` is left to
        # backward.
        shape = c.shape[1:]
        rest = SimpleNamespace(
            potential=np.zeros(shape, dtype=dtype),
            last_spike=np.zeros(shape, dtype=dtype),
            refractory=np.zeros(shape, dtype=np.int64),
        )
        lean_lif_scan(
            c, rest, th, lk, spikes,
            feedback=None if w_rec is None else (lambda s: s @ w_rec),
            potentials=potentials, actives=actives,
        )
        return _Scan(spikes, potentials, None, actives, th, lk)
    u = np.zeros(c.shape[1:], dtype=dtype)
    s = np.zeros(c.shape[1:], dtype=dtype)
    # The loop writes each step's results straight into the (T, ...)
    # blocks with ``out=`` views — same arithmetic, same order, no
    # temporary-plus-copy per step.
    xs = np.empty_like(c)
    r = np.zeros(c.shape[1:], dtype=np.int64)
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
        if soft:
            s = spikes[t]
            np.multiply(_soft_sigmoid(x, slope), active, out=s)
            fired = (x >= 0.0) & (active > 0.0)
        else:
            s = spikes[t]
            np.multiply(x >= 0.0, active, out=s, casting="unsafe")
            fired = s > 0.0
        r = np.where(fired, refractory_steps, np.maximum(r - 1, 0))
    return _Scan(spikes, potentials, xs, actives, th, lk)


def _backward_scan(
    grad: np.ndarray,
    scan: _Scan,
    reset_mode: str,
    surrogate: str,
    slope: float,
    soft: bool,
    w_rec: np.ndarray = None,
    want_w_rec_grad: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """BPTT over the saved forward scan; returns (grad_currents, grad_w_rec).

    The expression *shapes and association order* deliberately mirror the
    elementary tape (future carry accumulated before the spike-path term,
    carries summed in the tape's order) so float64 gradients match it.
    Three rewrites save passes without changing a float, because every
    ``active`` is exactly 0 or 1: the refractory mask rides in the
    surrogate (``(g * active) * rho == g * (active * rho)``, signed zeros
    included), ``g - glk * u`` stands for ``g + -(glk * u)`` (IEEE
    subtraction is addition of the negation), and the membrane adjoint
    accumulates in place.
    """
    spikes, potentials, xs, actives, th, lk = scan
    if xs is None:
        # Lean scan (zero reset, refractory 1): ``active[t] == 1 - s[t-1]``.
        xs = potentials - th
        retain = actives[1:]
    elif reset_mode == "zero":
        retain = 1.0 - spikes[:-1]
    steps = grad.shape[0]
    gc = np.empty_like(grad)
    gw = np.zeros_like(w_rec) if want_w_rec_grad else None
    # Hoist the per-step elementwise precomputations out of the scan: one
    # (T, ...) vectorised op is far cheaper than T small ones.
    rhos = _spike_derivative(xs, surrogate, slope, soft)
    rhos *= actives
    gu = None  # dL/du[t] carried from t+1 through the reset coupling
    glk = None  # dL/du[t+1] * leak: the factor of t+1's reset term
    rec_carry = None  # dL/ds[t] from t+1's recurrent matmul
    for t in range(steps - 1, -1, -1):
        # The elementary tape accumulates into s[t].grad in reverse node-
        # creation order: external grad (losses, next layer), then the
        # reset term of step t+1, then step t+1's recurrent matmul.  Sum
        # in exactly that association.
        if glk is None:
            term = grad[t] * rhos[t]
        else:
            term = glk * (potentials[t] if reset_mode == "zero" else th)
            np.subtract(grad[t], term, out=term)
            if rec_carry is not None:
                term += rec_carry
            term *= rhos[t]
        if gu is None:
            gu = term
        else:
            gu += term
        gcur = gc[t]
        np.multiply(gu, actives[t], out=gcur)
        if t > 0:
            if gw is not None:
                gw += spikes[t - 1].T @ gcur
            glk = gu * lk
            if reset_mode == "zero":
                np.multiply(glk, retain[t - 1], out=gu)
            else:
                gu = glk
            if w_rec is not None:
                rec_carry = gcur @ w_rec.T
    return gc, gw


def lif_sequence(
    currents: Tensor,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    surrogate: str = "fast_sigmoid",
    surrogate_slope: float = 5.0,
    reset_mode: str = "zero",
    soft: bool = False,
) -> Tensor:
    """Fused differentiable LIF layer over a whole (T, B, *neurons) sequence.

    Parameters
    ----------
    currents:
        Precomputed synaptic input currents for all T steps (one tape node
        upstream — a batched matmul or convolution).
    threshold / leak / refractory_steps:
        Per-neuron parameter arrays, broadcast over the batch axis.
    surrogate / surrogate_slope:
        Surrogate gradient of the firing nonlinearity (backward only).
    reset_mode:
        ``"zero"`` (hard reset) or ``"subtract"`` (soft reset).
    soft:
        Gradcheck-only mode: replaces the Heaviside with a sigmoid of the
        same slope in forward *and* backward, making the kernel a true
        differentiable function so central differences validate the BPTT
        recursion.  Never used by the simulator.

    Returns the spike sequence as a single tape node; backward accumulates
    ``dL/d currents`` for all T steps in one scan.
    """
    _validate(currents, surrogate, reset_mode)
    _observe(currents.data)
    scan = _forward_scan(
        currents.data, threshold, leak, refractory_steps, reset_mode,
        surrogate_slope, soft,
    )

    def backward(grad: np.ndarray) -> None:
        gc, _ = _backward_scan(
            grad, scan, reset_mode, surrogate, surrogate_slope, soft,
        )
        currents._accumulate(gc, owned=True)

    return currents._make(scan.spikes, (currents,), backward, "lif_sequence")


def recurrent_lif_sequence(
    input_currents: Tensor,
    recurrent_weight: Tensor,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    surrogate: str = "fast_sigmoid",
    surrogate_slope: float = 5.0,
    reset_mode: str = "zero",
    soft: bool = False,
) -> Tensor:
    """Fused differentiable recurrent-LIF layer over a (T, B, N) sequence.

    ``input_currents`` holds the feedforward currents for all T steps
    (``seq @ w_in``, one matmul); the spike feedback ``s[t-1] @ w_rec``
    stays inside the kernel because it depends on the evolving state.
    Backward produces gradients for the input currents and the recurrent
    weights in the same scan.
    """
    _validate(input_currents, surrogate, reset_mode)
    if input_currents.ndim != 3:
        raise ShapeError(
            f"recurrent_lif_sequence expects (T, B, N) currents, "
            f"got {input_currents.shape}"
        )
    _observe(input_currents.data)
    w = recurrent_weight.data
    scan = _forward_scan(
        input_currents.data, threshold, leak, refractory_steps, reset_mode,
        surrogate_slope, soft, w_rec=w,
    )

    def backward(grad: np.ndarray) -> None:
        gc, gw = _backward_scan(
            grad, scan, reset_mode, surrogate, surrogate_slope, soft,
            w_rec=w, want_w_rec_grad=recurrent_weight.requires_grad,
        )
        input_currents._accumulate(gc, owned=True)
        if gw is not None:
            recurrent_weight._accumulate(gw, owned=True)

    return input_currents._make(
        scan.spikes, (input_currents, recurrent_weight), backward,
        "recurrent_lif_sequence",
    )
