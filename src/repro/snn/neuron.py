"""Leaky Integrate-and-Fire neuron dynamics (paper Fig. 1).

The neuron integrates weighted input spikes into a membrane potential that
leaks over time, fires when the potential crosses a threshold, resets on
firing, and then ignores input for a refractory period.

Two implementations of one time step are provided:

- :func:`lif_step_tensor` — autograd-aware, used during training and input
  optimisation; the firing nonlinearity uses a surrogate gradient.
- :func:`lif_step_numpy` — plain numpy, used by the fault-simulation fast
  path; supports behavioural overrides for dead and saturated neurons.

Both implement exactly the same update:

    active  = (refractory counter == 0)
    u[t]    = leak * u[t-1] * (1 - s[t-1]) + current[t] * active
    s[t]    = H(u[t] - threshold) * active
    r[t]    = refractory_steps if s[t] else max(r[t-1] - 1, 0)

with reset-to-zero on firing.  Equality of the two paths is pinned by
tests/snn/test_path_equivalence.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd import fused
from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError

#: Values of the per-neuron behavioural mode array.
MODE_NOMINAL = 0
MODE_DEAD = 1
MODE_SATURATED = 2


@dataclass(frozen=True)
class LIFParameters:
    """Scalar defaults for a layer's LIF neurons.

    Layers expand these into per-neuron arrays so fault injection can
    perturb an individual neuron's parameters (timing-variation faults).

    Attributes
    ----------
    threshold:
        Firing threshold of the membrane potential.
    leak:
        Multiplicative decay of the potential per time step, in (0, 1].
        1.0 disables the leak (pure integrate-and-fire).
    refractory_steps:
        Number of time steps after a spike during which the neuron neither
        integrates input nor fires.
    surrogate:
        Name of the surrogate gradient for the firing nonlinearity.
    surrogate_slope:
        Sharpness of the surrogate derivative around the threshold.
    reset_mode:
        What happens to the membrane potential on firing: ``"zero"``
        (hard reset, the paper's Fig. 1 behaviour) or ``"subtract"``
        (soft reset: the threshold is subtracted, preserving residual
        charge — common in digital accumulator implementations).
    """

    threshold: float = 1.0
    leak: float = 0.9
    refractory_steps: int = 1
    surrogate: str = "fast_sigmoid"
    surrogate_slope: float = 5.0
    reset_mode: str = "zero"

    def __post_init__(self) -> None:
        if self.reset_mode not in ("zero", "subtract"):
            raise ConfigurationError(
                f"reset_mode must be 'zero' or 'subtract', got {self.reset_mode!r}"
            )
        if self.threshold <= 0.0:
            raise ConfigurationError(f"threshold must be > 0, got {self.threshold}")
        if not 0.0 < self.leak <= 1.0:
            raise ConfigurationError(f"leak must be in (0, 1], got {self.leak}")
        if self.refractory_steps < 0:
            raise ConfigurationError(
                f"refractory_steps must be >= 0, got {self.refractory_steps}"
            )
        if self.surrogate not in F.SURROGATES:
            raise ConfigurationError(
                f"unknown surrogate '{self.surrogate}', expected one of {F.SURROGATES}"
            )


@dataclass
class LIFState:
    """Mutable per-call simulation state for a layer of LIF neurons.

    ``potential`` and ``last_spike`` may be numpy arrays (fast path) or
    Tensors (autograd path); ``refractory`` is always a plain integer array
    because the refractory gate is treated as a non-differentiable constant
    in backward (the standard BPTT-through-SNN convention).
    """

    potential: object
    last_spike: object
    refractory: np.ndarray

    @classmethod
    def zeros_numpy(cls, shape: Tuple[int, ...], dtype=np.float64) -> "LIFState":
        return cls(
            potential=np.zeros(shape, dtype=dtype),
            last_spike=np.zeros(shape, dtype=dtype),
            refractory=np.zeros(shape, dtype=np.int64),
        )

    @classmethod
    def zeros_tensor(cls, shape: Tuple[int, ...]) -> "LIFState":
        return cls(
            potential=Tensor(np.zeros(shape)),
            last_spike=Tensor(np.zeros(shape)),
            refractory=np.zeros(shape, dtype=np.int64),
        )

    def copy(self) -> "LIFState":
        """Independent copy of a numpy-backed state (fast path only).

        Used by the segment-wise campaign engine to snapshot golden module
        states at segment entry and to carry per-fault states across
        segments; splitting a sequence at any step and resuming from a
        copied state is bit-identical to the unsplit run (the per-step
        update depends only on the state and the current input).
        """
        return LIFState(
            potential=np.array(self.potential, copy=True),
            last_spike=np.array(self.last_spike, copy=True),
            refractory=np.array(self.refractory, copy=True),
        )


def lif_step_tensor(
    current: Tensor,
    state: LIFState,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    surrogate: str,
    surrogate_slope: float,
    reset_mode: str = "zero",
) -> Tensor:
    """Advance one time step in autograd mode; returns the spike tensor.

    The refractory mask and the refractory counter update are computed from
    spike *values* (detached), while the membrane update and the firing
    nonlinearity stay on the tape.
    """
    active = (state.refractory == 0).astype(np.float64)
    if reset_mode == "zero":
        retained = state.potential * (1.0 - state.last_spike)
    else:  # subtract: residual charge above threshold is preserved
        retained = state.potential - state.last_spike * Tensor(threshold)
    potential = retained * Tensor(leak) + current * Tensor(active)
    spikes = F.spike(potential - Tensor(threshold), surrogate, surrogate_slope) * Tensor(active)
    state.potential = potential
    state.last_spike = spikes
    state.refractory = np.where(
        spikes.data > 0.0, refractory_steps, np.maximum(state.refractory - 1, 0)
    )
    return spikes


def lif_step_numpy(
    current: np.ndarray,
    state: LIFState,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    mode: Optional[np.ndarray] = None,
    reset_mode: str = "zero",
) -> np.ndarray:
    """Advance one time step on the fast path; returns the spike array.

    Parameters
    ----------
    mode:
        Optional behavioural override array (one of MODE_* per neuron,
        broadcast over the batch).  Dead neurons never fire; saturated
        neurons fire every step regardless of input or refractoriness.
    """
    dtype = current.dtype
    active = (state.refractory == 0).astype(dtype)
    if reset_mode == "zero":
        retained = state.potential * (1.0 - state.last_spike)
    else:
        retained = state.potential - state.last_spike * threshold
    potential = retained * leak + current * active
    spikes = (potential >= threshold).astype(dtype) * active
    if mode is not None and mode.any():
        spikes = np.where(mode == MODE_DEAD, dtype.type(0.0), spikes)
        spikes = np.where(mode == MODE_SATURATED, dtype.type(1.0), spikes)
    state.potential = potential
    state.last_spike = spikes
    state.refractory = np.where(
        spikes > 0.0, refractory_steps, np.maximum(state.refractory - 1, 0)
    )
    return spikes


def lean_scan_fits(
    currents: np.ndarray,
    state: LIFState,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    mode: Optional[np.ndarray] = None,
    reset_mode: str = "zero",
) -> bool:
    """Whether scanning ``currents`` from ``state`` may take the in-place
    recursion :func:`repro.autograd.fused.lean_lif_scan`.

    It needs at least one step, no behavioural mode, carried refractory
    counters of at most 1, hard zero reset with ``refractory_steps == 1``,
    finite thresholds > 0 and no NaN leak
    (:func:`~repro.autograd.fused.lean_scan_applies`), and a state and
    parameters that broadcast to one step's currents.
    """
    return (
        currents.shape[0] > 0
        and (mode is None or not mode.any())
        and not (state.refractory > 1).any()
        and fused.lean_scan_applies(threshold, leak, refractory_steps, reset_mode)
        and np.broadcast(
            currents[0], state.potential, state.last_spike, state.refractory,
            threshold, leak,
        ).shape == currents.shape[1:]
    )


def lif_scan_numpy(
    currents: np.ndarray,
    state: LIFState,
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory_steps: np.ndarray,
    mode: Optional[np.ndarray] = None,
    reset_mode: str = "zero",
) -> np.ndarray:
    """Scan :func:`lif_step_numpy` over pre-computed synaptic currents.

    ``currents`` has shape ``(T, ...)``; the leading axis is time.  This is
    the campaign-side counterpart of the fused training kernels: the caller
    computes all T synaptic currents in one stacked BLAS call and this scan
    only performs the (inherently sequential) membrane recurrence.  Each
    step is exactly :func:`lif_step_numpy`, so the result is bit-identical
    to the per-step path for identical inputs.

    Where :func:`lean_scan_fits` holds (the production case: zero reset,
    one-step refractory period, no fault mode) the scan runs the in-place
    recursion :func:`repro.autograd.fused.lean_lif_scan`, which generation
    shares; every other case takes the general per-step loop below.
    Either way ``state`` is rebound, never written in place.
    """
    out = np.empty_like(currents)
    if lean_scan_fits(
        currents, state, threshold, leak, refractory_steps, mode, reset_mode
    ):
        fused.lean_lif_scan(currents, state, threshold, leak, out)
        return out
    dtype = currents.dtype
    zero = dtype.type(0.0)
    one = dtype.type(1.0)
    # Hoist the behavioural-mode masks out of the scan.
    has_mode = mode is not None and bool(mode.any())
    if has_mode:
        dead = mode == MODE_DEAD
        saturated = mode == MODE_SATURATED
    subtract = reset_mode != "zero"
    potential = state.potential
    last = state.last_spike
    refractory = state.refractory
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
