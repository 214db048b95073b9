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
    lean_scan_fits,
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
        per-step path in float64 (pinned by the fused differential suite).
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
        values are bit-identical and input gradients equal in value to
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
        # Zero-skip dispatcher for the fused current kernels, attached by
        # the campaign engines through :func:`event_dispatch_context`.
        # ``None`` (the default) runs the plain dense paths.
        self._events: Optional[EventDispatch] = None

    @property
    def neuron_count(self) -> int:
        return int(np.prod(self.neuron_shape))

    def _state_numpy(self, batch: int) -> LIFState:
        return LIFState.zeros_numpy((batch,) + self.neuron_shape)

    def init_state(self, batch: int) -> LIFState:
        return self._state_numpy(batch)

    def _state_tensor(self, batch: int) -> LIFState:
        return LIFState.zeros_tensor((batch,) + self.neuron_shape)

    def _lif_numpy(self, current: np.ndarray, state: LIFState) -> np.ndarray:
        return lif_step_numpy(
            current,
            state,
            self.threshold,
            self.leak,
            self.refractory_steps,
            self.mode,
            self.params.reset_mode,
        )

    def _lif_scan(self, currents: np.ndarray, state: LIFState) -> np.ndarray:
        return lif_scan_numpy(
            currents,
            state,
            self.threshold,
            self.leak,
            self.refractory_steps,
            self.mode,
            self.params.reset_mode,
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

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        """Fused fast path over K weight variants at once.

        ``seq`` is the module input ``(T, S, *in_shape)``, shared by all
        variants, and ``param_stacks[p]`` holds K variants of parameter
        ``p`` stacked on a leading axis.  The synaptic currents of all T
        steps and K variants are one stacked matmul that broadcasts the
        input over K, so it is never tiled, and a conv builds one patch
        matrix for all K; only the membrane recurrence is scanned per
        step.  Row ``k*S + s`` of the ``(T, K*S, ...)`` output is the
        response of sample ``s`` under weight variant ``k``.  Per-(k, t)
        GEMM slices are the same shapes over the same operands as the
        per-step path, and LIF state advances for the whole K*S batch in
        one elementwise step, so every row equals the per-step run of its
        variant bit for bit.  Used by the production engine's synapse-fault
        campaigns on layers that cannot splice them (conv, recurrent);
        ``state`` optionally carries the K*S-batched state across calls
        (see :meth:`Module.init_state`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fused K-batched execution"
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

    def sequence_currents(self, seq: np.ndarray) -> np.ndarray:
        # One batched matmul for all T steps: (T, B, in) @ (in, out) runs
        # per-slice GEMMs identical to the per-step 2-D products.
        weight = self.weight.data
        if self._events is not None:
            return self._events.dense_block(seq, weight, self.name or "dense")
        return seq @ weight

    def synapse_fault_targets(self, entries) -> np.ndarray:
        # Weight shape (in, out), row-major: flat index i*out + j hits
        # output neuron j.
        return np.array(
            [widx % self.out_features for (_pidx, widx, _value) in entries],
            dtype=np.int64,
        )

    def synapse_splice_currents(self, seq: np.ndarray, entries) -> np.ndarray:
        # A GEMM's output column depends only on its own weight column, so
        # entries with distinct target neurons share one full weight copy
        # and each reads its column of one K-batched product: exactly the
        # faulty layer's full per-step product.  Copies are assigned first
        # fit in entry order (copy c takes a target's c-th entry).
        targets = self.synapse_fault_targets(entries)
        copy_of = np.empty(len(targets), dtype=np.int64)
        taken: dict = {}
        for j, target in enumerate(targets.tolist()):
            copy_of[j] = taken.get(target, 0)
            taken[target] = copy_of[j] + 1
        copies = int(copy_of.max()) + 1 if len(targets) else 0
        weights = np.broadcast_to(
            self.weight.data, (copies,) + self.weight.data.shape
        ).copy()
        for j, (_pidx, widx, value) in enumerate(entries):
            weights[copy_of[j]].reshape(-1)[widx] = value
        steps, batch = seq.shape[:2]
        if self._events is not None:
            currents = self._events.kbatched_block(seq, weights, self.name or "dense")
        else:
            currents = np.matmul(seq[:, None], weights)
        currents = currents.reshape(steps, copies, batch, self.out_features)
        return currents[:, copy_of, :, targets].transpose(1, 2, 0)  # (T, B, K)

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
    a recurrent weight matrix, as in the SHD benchmark architecture.  The
    fused fast paths compute all T feedforward currents in one stacked
    matmul and scan the membrane recurrence with the spike feedback
    ``ff[t] + s[t-1] @ w_rec`` folded in: through the in-place recursion
    :func:`repro.autograd.fused.lean_lif_scan` where
    :func:`~repro.snn.neuron.lean_scan_fits` holds, one
    :func:`~repro.snn.neuron.lif_step_numpy` per step otherwise.
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

    def _lean_fits(self, currents: np.ndarray, state: LIFState) -> bool:
        return lean_scan_fits(
            currents, state, self.threshold, self.leak, self.refractory_steps,
            self.mode, self.params.reset_mode,
        )

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

    def run_sequence_fused(
        self, seq: np.ndarray, state: Optional[LIFState] = None
    ) -> np.ndarray:
        steps, batch = seq.shape[:2]
        if state is None:
            state = self._state_numpy(batch)
        w_rec = self.recurrent_weight.data
        # Feedforward currents for all T steps in one stacked matmul; the
        # state-dependent spike feedback stays a per-step GEMM, added in
        # the same order as the per-step path (ff first, feedback second).
        w_in = self.weight.data
        if self._events is not None:
            ff = self._events.dense_block(seq, w_in, self.name or "recurrent")
        else:
            ff = seq @ w_in
        out = np.empty_like(ff)
        if self._lean_fits(ff, state):
            fused.lean_lif_scan(
                ff, state, self.threshold, self.leak, out,
                feedback=lambda spikes: spikes @ w_rec,
            )
            return out
        previous = np.asarray(state.last_spike)
        for t in range(steps):
            current = ff[t] + previous @ w_rec
            previous = self._lif_numpy(current, state)
            out[t] = previous
        return out

    def run_sequence_kbatched_fused(
        self,
        seq: np.ndarray,
        param_stacks: Sequence[np.ndarray],
        state: Optional[LIFState] = None,
    ) -> np.ndarray:
        w_in, w_rec = param_stacks  # (K, in, out), (K, out, out)
        k = w_in.shape[0]
        steps, s = seq.shape[:2]
        batch = k * s
        if state is None:
            state = self._state_numpy(batch)
        # All T x K feedforward currents in one stacked GEMM.
        if self._events is not None:
            ff = self._events.kbatched_block(
                seq, w_in, self.name or "recurrent"
            ).reshape(steps, k, s, self.out_features)
        else:
            ff = np.matmul(seq[:, None], w_in)  # (T, K, S, out)
        out = np.empty((steps, batch, self.out_features), dtype=seq.dtype)
        ff = ff.reshape(steps, batch, self.out_features)
        if self._lean_fits(ff, state):
            fused.lean_lif_scan(
                ff, state, self.threshold, self.leak, out,
                feedback=lambda spikes: np.matmul(
                    spikes.reshape(k, s, self.out_features), w_rec
                ).reshape(batch, self.out_features),
            )
            return out
        previous = np.asarray(state.last_spike).reshape(k, s, self.out_features)
        for t in range(steps):
            current = ff[t] + np.matmul(previous, w_rec).reshape(batch, self.out_features)
            spikes = self._lif_numpy(current, state)
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

    def sequence_currents(self, seq: np.ndarray) -> np.ndarray:
        # Cache-sized im2col GEMM blocks over the folded (T*B) batch; each
        # batch slice multiplies the same operands as the per-step
        # _conv_numpy call, so the currents are bit-identical.
        steps, batch = seq.shape[:2]
        w_mat = self.weight.data.reshape(self.out_channels, -1)

        def compute(rows: np.ndarray) -> np.ndarray:
            currents = F.im2col_matmul(
                w_mat, rows, self.kernel, self.kernel, self.stride, self.padding
            )
            return currents.reshape((rows.shape[0],) + self.neuron_shape)

        flat = seq.reshape((steps * batch,) + seq.shape[2:])
        if self._events is not None:
            # The folded GEMM is per-(t, b)-row independent: dispatch
            # skips all-zero blocks and all-zero rows exactly, at row
            # granularity.
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
        steps, s = seq.shape[:2]
        batch = k * s
        w_mats = weight.reshape(k, 1, self.out_channels, -1)
        if state is None:
            state = self._state_numpy(batch)

        def compute(sub: np.ndarray) -> np.ndarray:
            # (T', 1, S) patch matrices, built once and shared by all K
            # variants, against (K, 1) weight stacks: per (t, k, s) the
            # same (F, C*k*k) @ (C*k*k, L) product as the per-step path.
            currents = F.im2col_matmul(
                w_mats, sub[:, None], self.kernel, self.kernel, self.stride, self.padding
            )
            return currents.reshape((sub.shape[0], batch) + self.neuron_shape)

        if self._events is not None:
            currents = self._events.stacked_block(
                seq,
                compute,
                (batch,) + self.neuron_shape,
                np.result_type(seq.dtype, w_mats.dtype),
                self.name or "conv",
                copies=k,
            )
        else:
            currents = compute(seq)
        return self._lif_scan(currents, state)

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
        return _window_sum(seq, self.window)

    def forward_sequence(self, seq: List[Tensor]) -> List[Tensor]:
        return [F.sum_pool2d(x_t, self.window) for x_t in seq]

    def forward_sequence_fused(self, seq: Tensor) -> Tensor:
        # One tape node: each input pixel's gradient is its pooled cell's,
        # written into the window^2 strided slots.
        window = self.window

        def backward(grad: np.ndarray) -> None:
            g = np.empty_like(seq.data)
            for i in range(window):
                for j in range(window):
                    g[..., i::window, j::window] = grad
            seq._accumulate(g, owned=True)

        return seq._make(_window_sum(seq.data, window), (seq,), backward, "sum_pool")


def _window_sum(seq: np.ndarray, window: int) -> np.ndarray:
    """Sum non-overlapping ``window``x``window`` blocks of the last two axes.

    ``window^2`` strided slice adds instead of a strided axis reduction —
    several times faster on large blocks.  Pool inputs are spike counts
    (exact small integers), so the order of the adds cannot change the
    result: it equals the per-step reshape-sum.
    """
    out = seq[..., 0::window, 0::window].copy()
    for i in range(window):
        for j in range(window):
            if i or j:
                out += seq[..., i::window, j::window]
    return out


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
    modules: Sequence[Module], dispatch: Optional[EventDispatch]
):
    """Attach a zero-skip dispatcher to the given modules' fused current
    kernels for the duration of the context.  ``dispatch=None`` makes the
    context a no-op so call sites can wrap unconditionally.
    """
    if dispatch is None:
        yield
        return
    spiking = [m for m in modules if isinstance(m, SpikingModule)]
    saved = [m._events for m in spiking]
    for module in spiking:
        module._events = dispatch
    try:
        yield
    finally:
        for module, prev_events in zip(spiking, saved):
            module._events = prev_events
