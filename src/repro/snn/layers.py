"""Network modules: spiking layers, pooling, and flattening.

Every module transforms a spike sequence — shape ``(T, B, *feature_shape)``
— into another sequence.  Spiking modules (Dense/Conv/Recurrent LIF) own

- a weight :class:`~repro.autograd.tensor.Tensor` (the single source of
  truth shared by both execution paths),
- per-neuron parameter arrays (threshold / leak / refractory) so that
  timing-variation neuron faults can perturb a single neuron, and
- a per-neuron behavioural ``mode`` array for dead / saturated fault
  overrides on the fast path.

The synapse-fault site model: each *weight entry* is one fault site.  For
dense and recurrent layers that is exactly one physical synapse; for
convolutional layers a kernel entry is shared across spatial positions,
which models crossbar-style accelerators where the kernel weight is stored
once (documented in DESIGN.md §7).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd import fused
from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError, ShapeError
from repro.snn.events import EventDispatch
from repro.snn.neuron import (
    LIFParameters,
    LIFState,
    SpikeMargin,
    lif_scan_numpy,
    lif_step_numpy,
    lif_step_tensor,
)


class Module:
    """Base class for all network modules."""

    #: True for modules that contain LIF neurons (fault sites).
    has_neurons: bool = False
    #: Human-readable layer name, set by the network on registration.
    name: str = ""

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Feature shape produced for a given input feature shape."""
        raise NotImplementedError

    def init_state(self, batch: int) -> Optional[LIFState]:
        """Fresh fast-path simulation state, or ``None`` for stateless
        modules.  Passing the state of one ``run_sequence_numpy`` call into
        the next continues the simulation exactly where it stopped, which
        the segment-wise campaign engine uses to iterate a test chunk by
        chunk without ever materializing the assembled stimulus."""
        return None

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        """Fast path: map a (T, B, ...) spike array to the output sequence.

        ``state`` optionally carries the simulation state across calls
        (see :meth:`init_state`); stateless modules ignore it.
        """
        raise NotImplementedError

    def run_sequence_fused(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        """Fused fast path: precompute all T synaptic currents in one
        stacked BLAS call, then scan only the membrane recurrence.

        Spiking modules override this; stateless modules are already
        time-vectorized, so the default just delegates to
        :meth:`run_sequence_numpy`.  Outputs are bit-identical to the
        per-step path in float64 (pinned by the fused differential suite)
        and preserve the input dtype, which the float32 campaign mode
        relies on.
        """
        return self.run_sequence_numpy(seq, state=state)

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        """Autograd path: map a list over time of (B, ...) tensors."""
        raise NotImplementedError

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        """Fused autograd path: map a whole (T, B, ...) sequence tensor.

        Spiking modules implement this with the sequence-level kernels of
        :mod:`repro.autograd.fused` — one tape node per layer instead of
        ~10 per layer per time step — and precompute their synaptic input
        currents for all T steps in a single matmul/convolution.  Spike
        values and input gradients are bit-identical to
        :meth:`forward_sequence` in float64 (pinned by tests).
        """
        raise NotImplementedError

    def parameters(self) -> List[Tensor]:
        """Trainable tensors of this module."""
        return []

    @property
    def neuron_count(self) -> int:
        return 0

    @property
    def synapse_count(self) -> int:
        return 0


class SpikingModule(Module):
    """Shared machinery for modules containing LIF neurons."""

    has_neurons = True

    def __init__(self, neuron_shape: Tuple[int, ...], params: LIFParameters) -> None:
        self.params = params
        # Mutable copies: the test generator may widen the surrogate for
        # its input optimisation (TestGenConfig.surrogate_slope).
        self.surrogate = params.surrogate
        self.surrogate_slope = params.surrogate_slope
        self.neuron_shape = tuple(neuron_shape)
        self.threshold = np.full(self.neuron_shape, params.threshold)
        self.leak = np.full(self.neuron_shape, params.leak)
        self.refractory_steps = np.full(self.neuron_shape, params.refractory_steps, dtype=np.int64)
        self.mode = np.zeros(self.neuron_shape, dtype=np.int8)
        # Campaign compute precision.  float64 (the default) runs exactly
        # the historical path; float32 is entered per fault group through
        # :func:`compute_dtype_context`, which also attaches the margin
        # tracker that guards the float32 exactness gate.
        self.compute_dtype = np.dtype(np.float64)
        self._cast_cache: dict = {}
        self._margin: Optional[SpikeMargin] = None
        # Event-driven dispatcher (density-adaptive sparse currents),
        # attached per run attempt through :func:`event_dispatch_context`.
        # ``None`` (the default) runs the historical dense paths exactly.
        self._events: Optional[EventDispatch] = None

    @property
    def neuron_count(self) -> int:
        return int(np.prod(self.neuron_shape))

    def _cast(self, arr: np.ndarray, key: str) -> np.ndarray:
        """Return ``arr`` in the compute dtype, cached per attribute.

        The cache is keyed by the *identity* of the source array, so the
        campaign idiom of temporarily swapping a parameter array (faulty
        variants in, nominal back out) never serves a stale cast.  On the
        float64 path the dtype already matches and the array is returned
        as-is — zero overhead.
        """
        if arr.dtype == self.compute_dtype:
            return arr
        cached = self._cast_cache.get(key)
        if cached is not None and cached[0] is arr:
            return cached[1]
        cast = arr.astype(self.compute_dtype)
        self._cast_cache[key] = (arr, cast)
        return cast

    def _state_numpy(self, batch: int) -> LIFState:
        return LIFState.zeros_numpy(
            (batch,) + self.neuron_shape, dtype=self.compute_dtype
        )

    def init_state(self, batch: int) -> LIFState:
        return self._state_numpy(batch)

    def _state_tensor(self, batch: int) -> LIFState:
        return LIFState.zeros_tensor((batch,) + self.neuron_shape)

    def _lif_numpy(self, current: np.ndarray, state: LIFState) -> np.ndarray:
        return lif_step_numpy(
            current,
            state,
            self._cast(self.threshold, "thr"),
            self._cast(self.leak, "leak"),
            self.refractory_steps,
            self.mode,
            self.params.reset_mode,
        )

    def _lif_scan(self, currents: np.ndarray, state: LIFState) -> np.ndarray:
        return lif_scan_numpy(
            currents,
            state,
            self._cast(self.threshold, "thr"),
            self._cast(self.leak, "leak"),
            self.refractory_steps,
            self.mode,
            self.params.reset_mode,
            margin=self._margin,
        )

    def sequence_currents(self, seq: np.ndarray) -> np.ndarray:
        """All-T synaptic input currents in one stacked BLAS call.

        Only meaningful for layers whose currents do not depend on the
        layer's own state (no recurrence); :class:`RecurrentLIF` overrides
        :meth:`run_sequence_fused` directly instead.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fused current precomputation"
        )

    def run_sequence_fused(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        if state is None:
            state = self._state_numpy(seq.shape[1])
        return self._lif_scan(self.sequence_currents(seq), state)

    def _lif_tensor(self, current: Tensor, state: LIFState) -> Tensor:
        return lif_step_tensor(
            current,
            state,
            self.threshold,
            self.leak,
            self.refractory_steps,
            self.surrogate,
            self.surrogate_slope,
            self.params.reset_mode,
        )

    def _lif_sequence(self, currents: Tensor) -> Tensor:
        return fused.lif_sequence(
            currents,
            self.threshold,
            self.leak,
            self.refractory_steps,
            self.surrogate,
            self.surrogate_slope,
            self.params.reset_mode,
        )

    def run_sequence_kbatched(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        """Fast path over K weight variants at once.

        ``seq`` is a fault-major tiled sequence ``(T, K*S, *in_shape)`` and
        ``param_stacks[p]`` holds K variants of parameter ``p`` stacked on a
        leading axis.  Row ``k*S + s`` of the output is the response of
        sample ``s`` under weight variant ``k``.  Used by the batched
        synapse-fault campaign; LIF state advances for the whole K*S batch
        in one elementwise step, so per-row dynamics match the unbatched
        path exactly.  ``state`` optionally carries the K*S-batched state
        across calls (see :meth:`Module.init_state`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support K-batched execution"
        )

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        """Fused variant of :meth:`run_sequence_kbatched`.

        The entire K-batch x time block of synaptic currents is computed
        as a single stacked matmul before the membrane scan, instead of
        one broadcast GEMM per time step.  Per-(k, t) GEMM slices are the
        same shapes over the same operands as the per-step path, so the
        output is bit-identical (pinned by the fused differential suite).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fused K-batched execution"
        )

    def neuron_input_currents(
        self, seq: np.ndarray, neuron_indices: np.ndarray
    ) -> np.ndarray:
        """Input-current traces ``(T, B, K)`` of K selected neurons.

        Only meaningful for layers whose neurons are independent given the
        layer input (no lateral/recurrent coupling): there a neuron fault
        perturbs just that neuron's spike train, so campaigns can simulate
        the faulty neuron alone from its current trace and splice the
        result into the cached fault-free layer output.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support per-neuron current extraction"
        )

    def synapse_fault_targets(self, entries) -> np.ndarray:
        """Output neuron affected by each single-entry weight perturbation.

        ``entries`` are ``(parameter_index, flat_weight_index, value)``
        triples.  Only meaningful for layers where one weight feeds exactly
        one neuron (dense fan-in): there a synapse fault changes just that
        neuron's current trace, so campaigns can splice it like a neuron
        fault instead of re-running the layer with K weight variants.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support synapse-fault splicing"
        )

    def synapse_splice_currents(self, seq: np.ndarray, entries) -> np.ndarray:
        """Faulty input-current traces ``(T, B, K)`` of the neurons hit by
        K single-entry weight perturbations (see
        :meth:`synapse_fault_targets`): trace ``k`` is the affected
        neuron's current with entry ``k`` applied to its fan-in column.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support synapse-fault splicing"
        )


class DenseLIF(SpikingModule):
    """Fully-connected layer of LIF neurons.

    Weight shape is ``(in_features, out_features)``; input sequences have
    feature shape ``(in_features,)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        params: LIFParameters,
        rng: Optional[np.random.Generator] = None,
        weight_scale: float = 3.0,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("dense layer sizes must be >= 1")
        super().__init__((out_features,), params)
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        init = rng.normal(0.0, weight_scale / np.sqrt(in_features), (in_features, out_features))
        self.weight = Tensor(init, requires_grad=True)

    @property
    def synapse_count(self) -> int:
        return self.in_features * self.out_features

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"{self.name or 'DenseLIF'}: expected input shape ({self.in_features},), "
                f"got {input_shape}"
            )
        return (self.out_features,)

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        if state is None:
            state = self._state_numpy(batch)
        weight = self.weight.data
        out = np.empty((steps, batch, self.out_features))
        for t in range(steps):
            out[t] = self._lif_numpy(seq[t] @ weight, state)
        return out

    def run_sequence_kbatched(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        (weight,) = param_stacks  # (K, in, out)
        k = weight.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        if state is None:
            state = self._state_numpy(batch)
        out = np.empty((steps, batch, self.out_features))
        for t in range(steps):
            current = np.matmul(seq[t].reshape(k, s, self.in_features), weight)
            out[t] = self._lif_numpy(current.reshape(batch, self.out_features), state)
        return out

    def sequence_currents(self, seq: np.ndarray) -> np.ndarray:
        # One batched matmul for all T steps: (T, B, in) @ (in, out) runs
        # per-slice GEMMs identical to the per-step 2-D products.
        weight = self._cast(self.weight.data, "w")
        if self._events is not None:
            return self._events.dense_block(seq, weight, self.name or "dense")
        return seq @ weight

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        (weight,) = param_stacks  # (K, in, out)
        k = weight.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        if state is None:
            state = self._state_numpy(batch)
        if self._events is not None:
            currents = self._events.kbatched_block(
                seq, weight, self.name or "dense"
            )
        else:
            # (T, K, S, in) @ (K, in, out): one stacked call, per-(t, k)
            # slices identical to the per-step broadcast GEMM.
            currents = np.matmul(
                seq.reshape(steps, k, s, self.in_features), weight
            )
        return self._lif_scan(
            currents.reshape(steps, batch, self.out_features), state
        )

    def neuron_input_currents(
        self, seq: np.ndarray, neuron_indices: np.ndarray
    ) -> np.ndarray:
        cols = self.weight.data[:, neuron_indices]
        if self._events is not None:
            return self._events.dense_block(seq, cols, self.name or "dense")
        return seq @ cols

    def synapse_fault_targets(self, entries) -> np.ndarray:
        # Weight shape (in, out), row-major: flat index i*out + j hits
        # output neuron j.
        return np.array(
            [widx % self.out_features for (_pidx, widx, _value) in entries],
            dtype=np.int64,
        )

    def synapse_splice_currents(self, seq: np.ndarray, entries) -> np.ndarray:
        # Fancy indexing copies the fan-in columns, so the single-entry
        # perturbations never touch the pristine weights; the GEMM has the
        # same shape as neuron_input_currents, whose per-column dots the
        # splice equivalence suite pins against the K-batched path.
        cols = self.weight.data[:, self.synapse_fault_targets(entries)]
        for j, (_pidx, widx, value) in enumerate(entries):
            cols[widx // self.out_features, j] = value
        if self._events is not None:
            return self._events.dense_block(seq, cols, self.name or "dense")
        return seq @ cols

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        batch = seq[0].shape[0]
        state = self._state_tensor(batch)
        return [self._lif_tensor(x_t @ self.weight, state) for x_t in seq]

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        # One batched matmul for all T steps: (T, B, in) @ (in, out) runs
        # per-slice GEMMs identical to the per-step 2-D products.
        return self._lif_sequence(seq @ self.weight.astype(seq.dtype))

    def parameters(self) -> List[Tensor]:
        return [self.weight]


class RecurrentLIF(SpikingModule):
    """Recurrently-connected layer of LIF neurons.

    The layer's own spikes from the previous time step are fed back through
    a recurrent weight matrix, as in the SHD benchmark architecture.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        params: LIFParameters,
        rng: Optional[np.random.Generator] = None,
        weight_scale: float = 3.0,
        recurrent_scale: float = 0.5,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("recurrent layer sizes must be >= 1")
        super().__init__((out_features,), params)
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(
            rng.normal(0.0, weight_scale / np.sqrt(in_features), (in_features, out_features)),
            requires_grad=True,
        )
        self.recurrent_weight = Tensor(
            rng.normal(0.0, recurrent_scale / np.sqrt(out_features), (out_features, out_features)),
            requires_grad=True,
        )

    @property
    def synapse_count(self) -> int:
        return self.in_features * self.out_features + self.out_features ** 2

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"{self.name or 'RecurrentLIF'}: expected input shape "
                f"({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        if state is None:
            state = self._state_numpy(batch)
        w_in, w_rec = self.weight.data, self.recurrent_weight.data
        out = np.empty((steps, batch, self.out_features))
        # The spike feedback is exactly the state's last spike record, so a
        # carried-in state resumes the recurrence where it stopped.
        previous = np.asarray(state.last_spike)
        for t in range(steps):
            current = seq[t] @ w_in + previous @ w_rec
            previous = self._lif_numpy(current, state)
            out[t] = previous
        return out

    def run_sequence_kbatched(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        w_in, w_rec = param_stacks  # (K, in, out), (K, out, out)
        k = w_in.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        if state is None:
            state = self._state_numpy(batch)
        out = np.empty((steps, batch, self.out_features))
        previous = np.asarray(state.last_spike).reshape(k, s, self.out_features)
        for t in range(steps):
            current = np.matmul(seq[t].reshape(k, s, self.in_features), w_in)
            current += np.matmul(previous, w_rec)
            spikes = self._lif_numpy(current.reshape(batch, self.out_features), state)
            previous = spikes.reshape(k, s, self.out_features)
            out[t] = spikes
        return out

    def run_sequence_fused(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        if state is None:
            state = self._state_numpy(batch)
        w_rec = self._cast(self.recurrent_weight.data, "w_rec")
        # Feedforward currents for all T steps in one stacked matmul; the
        # state-dependent spike feedback stays a per-step GEMM, added in
        # the same order as the per-step path (ff first, feedback second).
        w_in = self._cast(self.weight.data, "w")
        if self._events is not None:
            ff = self._events.dense_block(seq, w_in, self.name or "recurrent")
        else:
            ff = seq @ w_in
        thr = self._cast(self.threshold, "thr")
        leak = self._cast(self.leak, "leak")
        out = np.empty_like(ff)
        previous = np.asarray(state.last_spike)
        for t in range(steps):
            current = ff[t] + previous @ w_rec
            previous = lif_step_numpy(
                current, state, thr, leak, self.refractory_steps,
                self.mode, self.params.reset_mode,
            )
            out[t] = previous
            if self._margin is not None:
                self._margin.observe(state.potential, thr)
        return out

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        w_in, w_rec = param_stacks  # (K, in, out), (K, out, out)
        k = w_in.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        if state is None:
            state = self._state_numpy(batch)
        # All T x K feedforward currents in one stacked GEMM.
        if self._events is not None:
            ff = self._events.kbatched_block(
                seq, w_in, self.name or "recurrent"
            ).reshape(steps, k, s, self.out_features)
        else:
            ff = np.matmul(seq.reshape(steps, k, s, self.in_features), w_in)
        thr = self._cast(self.threshold, "thr")
        leak = self._cast(self.leak, "leak")
        out = np.empty((steps, batch, self.out_features), dtype=seq.dtype)
        previous = np.asarray(state.last_spike).reshape(k, s, self.out_features)
        for t in range(steps):
            current = ff[t] + np.matmul(previous, w_rec)
            spikes = lif_step_numpy(
                current.reshape(batch, self.out_features), state,
                thr, leak, self.refractory_steps, self.mode,
                self.params.reset_mode,
            )
            if self._margin is not None:
                self._margin.observe(state.potential, thr)
            previous = spikes.reshape(k, s, self.out_features)
            out[t] = spikes
        return out

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        batch = seq[0].shape[0]
        state = self._state_tensor(batch)
        previous = Tensor(np.zeros((batch, self.out_features)))
        outputs: List[Tensor] = []
        for x_t in seq:
            current = x_t @ self.weight + previous @ self.recurrent_weight
            previous = self._lif_tensor(current, state)
            outputs.append(previous)
        return outputs

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        # Feedforward currents for all T steps in one matmul; the
        # state-dependent spike feedback stays inside the fused kernel.
        return fused.recurrent_lif_sequence(
            seq @ self.weight.astype(seq.dtype),
            self.recurrent_weight.astype(seq.dtype),
            self.threshold,
            self.leak,
            self.refractory_steps,
            self.surrogate,
            self.surrogate_slope,
            self.params.reset_mode,
        )

    def parameters(self) -> List[Tensor]:
        return [self.weight, self.recurrent_weight]


class ConvLIF(SpikingModule):
    """2-D convolutional layer of LIF neurons.

    The neuron grid is the convolution output ``(out_channels, H', W')``
    computed from the declared ``input_hw``; weights are shared across
    positions (one fault site per kernel entry).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        input_hw: Tuple[int, int],
        kernel: int,
        params: LIFParameters,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        weight_scale: float = 3.0,
    ) -> None:
        if kernel < 1 or stride < 1 or padding < 0:
            raise ConfigurationError("invalid conv geometry")
        height, width = input_hw
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ConfigurationError(
                f"conv output empty for input {input_hw}, kernel {kernel}, stride {stride}"
            )
        super().__init__((out_channels, out_h, out_w), params)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.input_hw = (height, width)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel * kernel
        self.weight = Tensor(
            rng.normal(0.0, weight_scale / np.sqrt(fan_in), (out_channels, in_channels, kernel, kernel)),
            requires_grad=True,
        )

    @property
    def synapse_count(self) -> int:
        return int(self.weight.size)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        expected = (self.in_channels,) + self.input_hw
        if input_shape != expected:
            raise ShapeError(
                f"{self.name or 'ConvLIF'}: expected input shape {expected}, got {input_shape}"
            )
        return self.neuron_shape

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """(B, C, H, W) -> contiguous (B, C*k*k, L) patch matrix."""
        return F.im2col(x, self.kernel, self.kernel, self.stride, self.padding)

    def _conv_numpy(self, x: np.ndarray) -> np.ndarray:
        """Raw-numpy im2col convolution (hot path)."""
        cols = self._im2col(x)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # matmul, not einsum: bit-identical per batch slice to the autograd
        # conv2d (same GEMM), which path-equivalence tests rely on.
        return np.matmul(w_mat, cols).reshape((x.shape[0],) + self.neuron_shape)

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        if state is None:
            state = self._state_numpy(batch)
        out = np.empty((steps, batch) + self.neuron_shape)
        for t in range(steps):
            out[t] = self._lif_numpy(self._conv_numpy(seq[t]), state)
        return out

    def run_sequence_kbatched(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        (weight,) = param_stacks  # (K, F, C, k, k)
        k = weight.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        w_mats = weight.reshape(k, self.out_channels, -1)
        if state is None:
            state = self._state_numpy(batch)
        out = np.empty((steps, batch) + self.neuron_shape)
        for t in range(steps):
            cols = self._im2col(seq[t])  # (K*S, C*k*k, L)
            # Broadcast GEMM per (instance, sample) slice — bit-identical
            # to the serial per-instance matmul in _conv_numpy.
            current = np.matmul(
                w_mats[:, None], cols.reshape((k, s) + cols.shape[1:])
            )
            out[t] = self._lif_numpy(
                current.reshape((batch,) + self.neuron_shape), state
            )
        return out

    def sequence_currents(self, seq: np.ndarray) -> np.ndarray:
        # One im2col + one GEMM over the folded (T*B) batch; each batch
        # slice multiplies the same operands as the per-step _conv_numpy
        # call, so the currents are bit-identical.
        steps, batch = seq.shape[:2]
        w_mat = self._cast(self.weight.data, "w").reshape(self.out_channels, -1)

        def compute(rows: np.ndarray) -> np.ndarray:
            currents = np.matmul(w_mat, self._im2col(rows))
            return currents.reshape((rows.shape[0],) + self.neuron_shape)

        flat = seq.reshape((steps * batch,) + seq.shape[2:])
        if self._events is not None:
            # Conv currents have no gather kernel, but the folded GEMM is
            # per-(t, b)-row independent: dispatch skips all-zero blocks
            # and all-zero rows exactly, at row granularity.
            currents = self._events.stacked_block(
                flat,
                compute,
                self.neuron_shape,
                np.result_type(seq.dtype, w_mat.dtype),
                self.name or "conv",
            )
        else:
            currents = compute(flat)
        return currents.reshape((steps, batch) + self.neuron_shape)

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        (weight,) = param_stacks  # (K, F, C, k, k)
        k = weight.shape[0]
        steps, batch = seq.shape[:2]
        s = batch // k
        w_mats = weight.reshape(k, self.out_channels, -1)
        if state is None:
            state = self._state_numpy(batch)

        def compute(sub: np.ndarray) -> np.ndarray:
            flat = sub.reshape((-1,) + sub.shape[2:])
            cols = self._im2col(flat)  # (T'*K*S, C*k*k, L)
            cols = cols.reshape((sub.shape[0], k, s) + cols.shape[1:])
            # Broadcast GEMM per (t, instance, sample) slice — the same
            # (F, C*k*k) @ (C*k*k, L) products as the per-step path.
            currents = np.matmul(w_mats[None, :, None], cols)
            return currents.reshape((sub.shape[0], batch) + self.neuron_shape)

        if self._events is not None:
            currents = self._events.stacked_block(
                seq,
                compute,
                (batch,) + self.neuron_shape,
                np.result_type(seq.dtype, w_mats.dtype),
                self.name or "conv",
            )
        else:
            currents = compute(seq)
        return self._lif_scan(currents, state)

    def neuron_input_currents(
        self, seq: np.ndarray, neuron_indices: np.ndarray
    ) -> np.ndarray:
        _, out_h, out_w = self.neuron_shape
        positions = np.asarray(neuron_indices) % (out_h * out_w)  # spatial site
        filters = np.asarray(neuron_indices) // (out_h * out_w)
        k, i, j = F._im2col_indices(
            self.in_channels, self.kernel, self.kernel, out_h, out_w, self.stride
        )
        pad = self.padding
        steps, batch = seq.shape[:2]
        i_sel, j_sel = i[:, positions], j[:, positions]
        w_sel = self.weight.data.reshape(self.out_channels, -1)[filters]  # (K, C*k*k)

        def compute(rows: np.ndarray) -> np.ndarray:
            x_pad = (
                np.pad(rows, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
                if pad
                else rows
            )
            # Gather only the K receptive fields instead of the full im2col
            # (the channel index k is position-independent: (C*kh*kw, 1)).
            patches = x_pad[:, k, i_sel, j_sel]
            return np.einsum("bkg,gk->bg", patches, w_sel)

        flat = seq.reshape((steps * batch,) + seq.shape[2:])
        if self._events is not None:
            currents = self._events.stacked_block(
                flat,
                compute,
                (len(positions),),
                np.result_type(seq.dtype, w_sel.dtype),
                self.name or "conv",
            )
        else:
            currents = compute(flat)
        return currents.reshape(steps, batch, len(positions))

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        batch = seq[0].shape[0]
        state = self._state_tensor(batch)
        return [
            self._lif_tensor(
                F.conv2d(x_t, self.weight, stride=self.stride, padding=self.padding), state
            )
            for x_t in seq
        ]

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        # One im2col convolution over the folded (T*B, C, H, W) batch; the
        # batched GEMM computes each slice exactly as the per-step call
        # does, so the currents are bit-identical.
        steps, batch = seq.shape[:2]
        flat = seq.reshape((steps * batch,) + seq.shape[2:])
        currents = F.conv2d(
            flat, self.weight.astype(seq.dtype), stride=self.stride, padding=self.padding
        )
        return self._lif_sequence(
            currents.reshape((steps, batch) + self.neuron_shape)
        )

    def parameters(self) -> List[Tensor]:
        return [self.weight]


class SumPool(Module):
    """Non-overlapping sum pooling: merges spike counts into the next layer.

    The pool has no neurons and no weights — it models fan-in wiring where
    a block of presynaptic axons converges onto the downstream synapse.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError(f"pool window must be >= 1, got {window}")
        self.window = window

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"SumPool expects (C, H, W) input, got {input_shape}")
        channels, height, width = input_shape
        if height % self.window or width % self.window:
            raise ShapeError(
                f"pool window {self.window} does not divide spatial dims {height}x{width}"
            )
        return (channels, height // self.window, width // self.window)

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch, channels, height, width = seq.shape
        window = self.window
        return seq.reshape(
            steps, batch, channels, height // window, window, width // window, window
        ).sum(axis=(4, 6))

    def run_sequence_fused(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        window = self.window
        # Accumulate the window^2 strided slices with plain ufunc adds
        # instead of a strided axis reduction — several times faster on
        # large blocks.  Pool inputs are spike counts (exact small
        # integers), so the re-association cannot change the result —
        # the differential suite pins equality with the per-step engine.
        out = seq[..., 0::window, 0::window].copy()
        for i in range(window):
            for j in range(window):
                if i or j:
                    out += seq[..., i::window, j::window]
        return out

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        return [F.sum_pool2d(x_t, self.window) for x_t in seq]

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        steps, batch, channels, height, width = seq.shape
        window = self.window
        return seq.reshape(
            steps, batch, channels, height // window, window, width // window, window
        ).sum(axis=(4, 6))


class Flatten(Module):
    """Reshape (C, H, W) features to a flat vector between conv and dense."""

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def run_sequence_numpy(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        return seq.reshape(steps, batch, -1)

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        return [x_t.reshape(x_t.shape[0], -1) for x_t in seq]

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        return seq.reshape(seq.shape[0], seq.shape[1], -1)


@contextmanager
def compute_dtype_context(
    modules: Sequence[Module],
    dtype,
    margin: Optional[SpikeMargin] = None,
):
    """Temporarily run the given modules' fast paths in ``dtype``.

    Used by the float32 campaign mode: fused runs inside the context
    allocate states, cast parameters, and emit spike arrays in ``dtype``;
    an optional :class:`SpikeMargin` is attached to every spiking module so
    the exactness gate can observe how close each firing decision came to
    the threshold.  On exit the previous dtype/margin are restored, so the
    fault-free (golden) path outside the context is untouched.
    """
    spiking = [m for m in modules if isinstance(m, SpikingModule)]
    saved = [(m.compute_dtype, m._margin) for m in spiking]
    target = np.dtype(dtype)
    for module in spiking:
        module.compute_dtype = target
        module._margin = margin
    try:
        yield
    finally:
        for module, (prev_dtype, prev_margin) in zip(spiking, saved):
            module.compute_dtype = prev_dtype
            module._margin = prev_margin


def dispatch_layer_names(modules: Sequence[Module]) -> List[str]:
    """Deterministic per-layer key order for dispatch-counter vectors.

    Both ends of a worker payload or checkpoint derive the order from the
    same network, so flattened counters always line up.
    """
    fallbacks = {DenseLIF: "dense", RecurrentLIF: "recurrent", ConvLIF: "conv"}
    names: List[str] = []
    for module in modules:
        if isinstance(module, SpikingModule):
            name = module.name or fallbacks.get(type(module), "spiking")
            if name not in names:
                names.append(name)
    return names


@contextmanager
def event_dispatch_context(
    modules: Sequence[Module],
    dispatch: Optional[EventDispatch],
    margin=None,
):
    """Attach an event-driven dispatcher to the given modules' fast paths.

    Fused current computations inside the context route through
    ``dispatch`` (density-adaptive zero/event/dense selection); ``margin``
    optionally attaches a spike-decision guard — typically a
    :class:`~repro.snn.events.LazyMargin` that only starts observing once
    a guarded gather kernel has actually run, or nothing when a float32
    :func:`compute_dtype_context` margin is already attached (its 1e-4
    guard band dominates the event gate's).  ``dispatch=None`` makes the
    context a no-op so call sites can wrap unconditionally.
    """
    if dispatch is None:
        yield
        return
    spiking = [m for m in modules if isinstance(m, SpikingModule)]
    saved = [(m._events, m._margin) for m in spiking]
    for module in spiking:
        module._events = dispatch
        if margin is not None:
            module._margin = margin
    try:
        yield
    finally:
        for module, (prev_events, prev_margin) in zip(spiking, saved):
            module._events = prev_events
            module._margin = prev_margin
