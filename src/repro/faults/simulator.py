"""Fault-simulation campaigns.

Two campaigns are provided, mirroring the paper's flow:

- :meth:`FaultSimulator.classify` labels every fault *critical* or
  *benign* by checking, for each fault, whether the top-1 prediction of any
  dataset sample changes (paper §III), and records its exact accuracy
  drop.  This reproduces Table II and is the expensive step the proposed
  test-generation algorithm avoids during optimisation.
- :meth:`FaultSimulator.detect` applies one test stimulus and marks a
  fault detected when the output spike trains differ from the fault-free
  response (Eq. 3); per-class spike-count differences are recorded for the
  Fig. 9 reproduction.

Both campaigns exploit the feedforward structure: the fault-free response
of every module is cached once, and each faulty simulation restarts at the
module containing the fault site, skipping all upstream work.  Both run
one fault-batch loop (:meth:`FaultSimulator._fault_batches`) that yields
each batch's output spikes; detection reduces them to L1 distances and
class-count deltas, labelling to top-1 flips and accuracy drops.

:class:`FaultSimulator` has two engines.  The production engine
(``fused=True``, the default) computes a layer's synaptic currents for
all time steps of a fault batch in one stacked BLAS call and scans only
the membrane recurrence.  Neuron faults of layers without lateral
coupling, and synapse faults of dense layers, are spliced into the cached
fault-free layer output without re-running the layer; the other faults
share one pass K at a time along the batch axis, with the per-neuron
parameter arrays (neuron faults) or the weight tensors (synapse faults)
lifted to a ``(K, ...)`` leading axis.  The per-step oracle
(``fused=False``) advances one time step at a time, re-runs the faulty
module for neuron faults and injects synapse faults one at a time.
Per-fault results are identical on both — the spiking nonlinearity is
applied elementwise per batch row every time step — which the
differential suites in ``tests/faults/`` pin against the oracle, bit for
bit.  For campaigns that parallelise across processes
as well, see :mod:`repro.faults.parallel`; for the segment-wise detection
engine (fault dropping, divergence-bounded propagation, bounded peak
memory), see :mod:`repro.faults.segmented` and
:meth:`FaultSimulator.detect_segmented`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultModelError
from repro.faults.injector import inject, synapse_fault_value, synapse_fault_values
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
)
from repro.snn.events import DispatchStats, EventDispatch
from repro.snn.layers import SpikingModule, event_dispatch_context
from repro.snn.network import SNN
from repro.snn.neuron import (
    MODE_DEAD,
    MODE_SATURATED,
    LIFState,
    lif_scan_numpy,
)

Fault = Union[NeuronFault, SynapseFault]
ProgressFn = Callable[[int, int], None]


@dataclass
class CampaignHealth:
    """What the worker supervisor had to do to finish a campaign.

    Attached to campaign results by :mod:`repro.faults.parallel` so
    callers can report worker crashes, hangs, retries, and fallbacks
    (serial in-process campaigns leave ``health`` as ``None``).  None of
    these events ever change the result arrays — every shard is pure, so
    a retried or fallback shard produces the same bytes — which the chaos
    suite (``tests/chaos/``) pins.
    """

    workers: int = 1
    crashes: int = 0  # worker processes that died mid-shard
    hangs: int = 0  # workers killed for missing heartbeats / shard timeout
    retries: int = 0  # shard re-executions in a fresh worker
    fallback_shards: int = 0  # shards that ran serially in the parent
    resumed_shards: int = 0  # shards restored from a campaign checkpoint
    degraded: bool = False  # pool declared unhealthy; remainder ran serially
    events: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.crashes == 0 and self.hangs == 0 and not self.degraded

    def summary(self) -> str:
        if self.clean and self.resumed_shards == 0:
            return f"healthy ({self.workers} workers)"
        parts = [f"{self.workers} workers"]
        if self.crashes:
            parts.append(f"{self.crashes} crashes")
        if self.hangs:
            parts.append(f"{self.hangs} hangs")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.fallback_shards:
            parts.append(f"{self.fallback_shards} in-process fallbacks")
        if self.resumed_shards:
            parts.append(f"{self.resumed_shards} shards resumed from checkpoint")
        if self.degraded:
            parts.append("pool degraded to serial")
        return ", ".join(parts)


@dataclass
class DetectionResult:
    """Outcome of applying one test stimulus against a fault list.

    Arrays are aligned with ``faults``.
    """

    faults: List[Fault]
    detected: np.ndarray  # bool (N_f,)
    output_l1: np.ndarray  # float (N_f,): ||O_L - O_L(f)||_1 over time and classes
    class_count_diff: np.ndarray  # float (N_f, classes): |spike-count delta| per class
    wall_time: float
    health: Optional[CampaignHealth] = None
    #: Rolling stimulus-segment chain digests (segment-wise campaigns only;
    #: see :func:`repro.faults.store.stimulus_chain`).  The parallel
    #: frontend cross-checks worker chains against the parent's, and the
    #: coverage store keys its records off them.
    segment_digests: Optional[List[str]] = None
    #: Work counters of the zero-skip current dispatch
    #: (:class:`repro.snn.events.DispatchStats` ``as_dict`` payload), or
    #: ``None`` for a result loaded from a cache that predates them.
    dispatch: Optional[Dict[str, object]] = None

    @property
    def detected_count(self) -> int:
        return int(self.detected.sum())

    def detection_rate(self) -> float:
        return float(self.detected.mean()) if len(self.faults) else 0.0


@dataclass
class ClassificationResult:
    """Critical/benign labels (and accuracy impact) for a fault list."""

    faults: List[Fault]
    critical: np.ndarray  # bool (N_f,)
    accuracy_drop: np.ndarray  # float (N_f,): nominal minus faulty accuracy
    nominal_accuracy: float
    wall_time: float
    health: Optional[CampaignHealth] = None

    @property
    def critical_count(self) -> int:
        return int(self.critical.sum())

    @property
    def benign_count(self) -> int:
        return int((~self.critical).sum())


@dataclass
class CoverageBreakdown:
    """Fault coverage split by (critical|benign) × (neuron|synapse).

    Reproduces the FC rows of Table III.  ``max_drop_undetected_*`` is the
    Table III bottom row: the worst accuracy loss a test escape can cause.
    """

    fc_critical_neuron: float
    fc_critical_synapse: float
    fc_benign_neuron: float
    fc_benign_synapse: float
    fc_overall: float
    counts: Dict[str, int]
    max_drop_undetected_neuron: float
    max_drop_undetected_synapse: float

    def rows(self) -> List[tuple]:
        """(label, value) pairs for table rendering."""
        return [
            ("FC Critical neuron faults", self.fc_critical_neuron),
            ("FC Critical synapse faults", self.fc_critical_synapse),
            ("FC Benign neuron faults", self.fc_benign_neuron),
            ("FC Benign synapse faults", self.fc_benign_synapse),
        ]


def _rate(detected: np.ndarray, mask: np.ndarray) -> float:
    """Detection rate over ``mask``; 1.0 for an empty class (nothing to miss)."""
    total = int(mask.sum())
    if total == 0:
        return 1.0
    return float(detected[mask].sum() / total)


#: Override the default progress-report cadence (faults per callback).
#: The campaign service leans on this: progress callbacks double as the
#: cooperative cancellation / chaos-kill surface, so a small interval
#: gives fine-grained cancellation latency at the cost of callback churn.
PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_INTERVAL"


def env_int(name: str, default: int, minimum: int) -> int:
    """The integer environment variable ``name``, else ``default``.  A
    value that is not an integer of at least ``minimum`` raises
    :class:`~repro.errors.FaultModelError` naming the variable."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise FaultModelError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise FaultModelError(f"{name} must be at least {minimum}, got {raw!r}")
    return value


class _ProgressTracker:
    """Rate-limited campaign progress: fires every ``interval`` faults and
    once more at completion (so short campaigns still report)."""

    def __init__(
        self,
        progress: Optional[ProgressFn],
        total: int,
        interval: Optional[int] = None,
    ):
        self.progress = progress
        self.total = total
        if interval is None:
            interval = env_int(PROGRESS_INTERVAL_ENV, 1000, minimum=1)
        self.interval = interval
        self.done = 0
        self._last_reported = -1

    def tick(self, count: int) -> None:
        before = self.done
        self.done += count
        if (
            self.progress is not None
            and self.done // self.interval > before // self.interval
        ):
            self.progress(self.done, self.total)
            self._last_reported = self.done

    def finish(self) -> None:
        if self.progress is not None and self._last_reported != self.done:
            self.progress(self.done, self.total)
            self._last_reported = self.done


def _apply_neuron_kinds(
    group: Sequence[NeuronFault],
    sites: Tuple[np.ndarray, ...],
    threshold: np.ndarray,
    leak: np.ndarray,
    refractory: np.ndarray,
    mode: np.ndarray,
    config: FaultModelConfig,
) -> None:
    """Perturb the per-neuron parameter arrays in place: fault ``group[j]``
    at site ``tuple(axis[j] for axis in sites)``.  The sites are distinct,
    so each kind's sites update in one array operation, elementwise the
    same arithmetic as one fault at a time."""
    members: Dict[NeuronFaultKind, List[int]] = {}
    for j, fault in enumerate(group):
        members.setdefault(fault.kind, []).append(j)
    for kind, rows in members.items():
        at = tuple(axis[rows] for axis in sites)
        if kind is NeuronFaultKind.DEAD:
            mode[at] = MODE_DEAD
        elif kind is NeuronFaultKind.SATURATED:
            mode[at] = MODE_SATURATED
        elif kind is NeuronFaultKind.TIMING_THRESHOLD:
            threshold[at] *= config.timing_threshold_factor
        elif kind is NeuronFaultKind.TIMING_LEAK:
            leak[at] *= config.timing_leak_factor
        elif kind is NeuronFaultKind.TIMING_REFRACTORY:
            refractory[at] += config.timing_refractory_extra
        elif kind.is_parametric:
            scale = np.array([group[j].scale for j in rows])
            offset = np.array([group[j].offset for j in rows])
            if kind is NeuronFaultKind.PARAM_THRESHOLD:
                threshold[at] = threshold[at] * scale + offset
            elif kind is NeuronFaultKind.PARAM_LEAK:
                leak[at] = leak[at] * scale + offset
            else:  # PARAM_REFRACTORY
                refractory[at] = np.maximum(np.rint(refractory[at] * scale + offset), 0)
        else:  # DELAY is handled by the golden-output transform path
            raise FaultModelError(f"unhandled neuron fault kind {kind}")


def _window_pieces(window, steps: int, offset: int = 0):
    """Split the local time range ``[0, steps)`` at the boundaries of the
    absolute activity window ``[t0, t1)``.

    Returns ``(start, stop, in_window)`` triples covering the range in
    order; ``offset`` is the absolute test time of local step 0 (nonzero
    in segment-wise campaigns).  ``window=None`` yields one faulty piece.
    """
    if window is None:
        return [(0, steps, True)]
    a = min(max(window[0] - offset, 0), steps)
    b = min(max(window[1] - offset, 0), steps)
    pieces = []
    if a > 0:
        pieces.append((0, a, False))
    if b > a:
        pieces.append((a, b, True))
    if b < steps:
        pieces.append((b, steps, False))
    return pieces


def _delayed_trace(trace: np.ndarray, delay: int, window, offset: int = 0) -> np.ndarray:
    """Apply an axonal delay to a golden spike trace ``(T, ...)``.

    In-window steps emit the trace value from ``delay`` steps earlier
    (zero before the recording starts); out-of-window steps pass the
    current value through.  ``window=None`` delays the whole trace.
    """
    steps = trace.shape[0]
    delayed = np.zeros_like(trace)
    if delay < steps:
        delayed[delay:] = trace[: steps - delay]
    if window is None:
        return delayed
    out = trace.copy()
    for a, b, in_w in _window_pieces(window, steps, offset):
        if in_w:
            out[a:b] = delayed[a:b]
    return out


def _perturbed_neuron_arrays(module, group: Sequence[NeuronFault], config: FaultModelConfig):
    """K perturbed copies of the module's per-neuron parameter arrays.

    Returns ``(threshold, leak, refractory, mode)``, each shaped
    ``(K, *neuron_shape)`` with row ``k`` carrying fault ``group[k]``.
    """
    shape = module.neuron_shape
    k = len(group)
    threshold = np.broadcast_to(module.threshold, (k,) + shape).copy()
    leak = np.broadcast_to(module.leak, (k,) + shape).copy()
    refractory = np.broadcast_to(module.refractory_steps, (k,) + shape).copy()
    mode = np.broadcast_to(module.mode, (k,) + shape).copy()
    neuron_idx = np.array([f.neuron_index for f in group], dtype=np.int64)
    sites = (np.arange(k),) + np.unravel_index(neuron_idx, shape)
    _apply_neuron_kinds(group, sites, threshold, leak, refractory, mode, config)
    return threshold, leak, refractory, mode


def _perturbed_neuron_scalars(module, group: Sequence[NeuronFault], config: FaultModelConfig):
    """Per-fault scalar LIF parameters for the splice path.

    Returns ``(neuron_idx, threshold, leak, refractory, mode)`` — all 1-D
    ``(K,)`` arrays, row ``k`` holding fault ``group[k]``'s perturbed
    parameters for its own neuron only.
    """
    neuron_idx = np.array([f.neuron_index for f in group], dtype=np.int64)
    threshold = module.threshold.reshape(-1)[neuron_idx].astype(float).copy()
    leak = module.leak.reshape(-1)[neuron_idx].astype(float).copy()
    refractory = module.refractory_steps.reshape(-1)[neuron_idx].copy()
    mode = module.mode.reshape(-1)[neuron_idx].copy()
    sites = (np.arange(len(group)),)
    _apply_neuron_kinds(group, sites, threshold, leak, refractory, mode, config)
    return neuron_idx, threshold, leak, refractory, mode


def _synapse_entries(module, group: Sequence[SynapseFault], config: FaultModelConfig):
    """Per-fault ``(parameter_index, weight_index, faulty_value)`` triples.

    The faulty value is computed from the pristine weights, exactly as the
    sequential :func:`~repro.faults.injector.inject` path does, with each
    parameter's peak magnitude and quantization scales computed once.
    """
    params = module.parameters()
    rows: Dict[int, List[int]] = {}
    for row, fault in enumerate(group):
        if fault.parameter_index >= len(params):
            raise FaultModelError(f"{fault.describe()}: parameter index out of range")
        rows.setdefault(fault.parameter_index, []).append(row)
    entries: List[Tuple[int, int, float]] = [None] * len(group)
    for pidx, members in rows.items():
        faults = [group[row] for row in members]
        values = synapse_fault_values(params[pidx].data, faults, config)
        for row, fault, value in zip(members, faults, values):
            entries[row] = (pidx, fault.weight_index, value)
    return entries


def _supports_kbatched(module) -> bool:
    """True for layers whose synapse faults the production engine runs K
    at a time: spliced (dense fan-in, see :func:`_supports_synapse_splice`)
    or over K weight copies in one fused pass (conv, recurrent)."""
    return _supports_synapse_splice(module) or (
        isinstance(module, SpikingModule)
        and type(module).run_sequence_kbatched_fused
        is not SpikingModule.run_sequence_kbatched_fused
    )


def _supports_splice(module) -> bool:
    """True for layers whose neurons are independent given the layer input
    (so a neuron fault can be simulated from its current trace alone):
    exactly the layers whose currents precompute from the input alone."""
    return (
        isinstance(module, SpikingModule)
        and type(module).sequence_currents
        is not SpikingModule.sequence_currents
    )


def _neuron_currents(currents: np.ndarray, neuron_idx: np.ndarray) -> np.ndarray:
    """``(T, K, S)`` input-current traces of K neurons, read from a module's
    full ``sequence_currents`` ``(T, S, *neuron_shape)``: the very products
    the golden run and the per-step oracle compute."""
    steps, batch = currents.shape[:2]
    picked = currents.reshape(steps, batch, -1)[:, :, neuron_idx]
    return np.ascontiguousarray(picked.transpose(0, 2, 1))


def _supports_synapse_splice(module) -> bool:
    """True for layers where one weight feeds exactly one output neuron
    (so a synapse fault perturbs a single current trace and can be
    spliced like a neuron fault instead of re-running the layer)."""
    return (
        isinstance(module, SpikingModule)
        and type(module).synapse_splice_currents
        is not SpikingModule.synapse_splice_currents
    )


class FaultSimulator:
    """Runs fault campaigns against one network, on one of two engines.

    - **Production** (``fused=True``, the default; every campaign the
      pipeline, the CLI and the service run): fused layer kernels, with
      splicing, packing and K-batching wherever a layer supports them,
      and the segment-wise engine of :meth:`detect_segmented`.
    - **Per-step oracle** (``fused=False``): per-step kernels; neuron
      faults re-run the faulty module ``neuron_batch`` rows per pass,
      synapse faults run one per pass through the reversible
      :func:`~repro.faults.injector.inject`, and delay faults use the
      golden-output transform.  It runs only the flat :meth:`detect`,
      :meth:`classify` and :meth:`accuracy_drops`; the differential
      suites and the benchmark check the production engine against it,
      bit for bit.

    Parameters
    ----------
    network:
        The (trained) SNN under test.
    config:
        Fault-model magnitudes used at injection time.
    neuron_batch:
        How many neuron-faulty instances share one pass along the batch
        axis (the per-neuron parameter and mode arrays broadcast per batch
        row).
    synapse_batch:
        How many synapse-faulty instances share one pass on the production
        engine, with the module's weight tensors lifted to a ``(K, ...)``
        leading axis.  ``None`` follows ``neuron_batch`` on the production
        engine and is 1 on the oracle, which takes no other value.
    neuron_splice:
        Follows the engine (``None`` means ``fused``); the other value is
        rejected.  It stays so that the oracle can be spelled in full,
        ``FaultSimulator(net, cfg, fused=False, synapse_batch=1,
        neuron_splice=False)``.
    fused:
        ``True`` selects the production engine, ``False`` the oracle.

    Every campaign attaches a zero-skip dispatcher to the fused current
    kernels (see :mod:`repro.snn.events`); all-zero blocks and time
    slices skip their GEMMs, bit-exactly.
    """

    def __init__(
        self,
        network: SNN,
        config: Optional[FaultModelConfig] = None,
        neuron_batch: int = 16,
        synapse_batch: Optional[int] = None,
        neuron_splice: Optional[bool] = None,
        fused: bool = True,
    ) -> None:
        self.network = network
        self.config = config or FaultModelConfig()
        self.fused = bool(fused)
        if neuron_batch < 1:
            raise FaultModelError(f"neuron_batch must be >= 1, got {neuron_batch}")
        if synapse_batch is None:
            synapse_batch = neuron_batch if self.fused else 1
        if synapse_batch < 1:
            raise FaultModelError(f"synapse_batch must be >= 1, got {synapse_batch}")
        if neuron_splice is None:
            neuron_splice = self.fused
        if bool(neuron_splice) != self.fused or (not self.fused and synapse_batch > 1):
            raise FaultModelError(
                "FaultSimulator has two engines: production (fused=True, "
                "neuron_splice=True) and the per-step oracle (fused=False, "
                f"synapse_batch=1, neuron_splice=False); got fused={fused}, "
                f"synapse_batch={synapse_batch}, neuron_splice={neuron_splice}"
            )
        self.neuron_batch = neuron_batch
        self.synapse_batch = synapse_batch

    # ------------------------------------------------------------------
    def _tail(self, start_index: int, out: np.ndarray) -> np.ndarray:
        """Propagate a faulty module's output ``(T, batch, ...)`` through
        the modules from ``start_index`` on, with this engine's kernels;
        returns flattened ``(T, batch, classes)`` spikes."""
        if start_index >= len(self.network.modules):
            return out.reshape(out.shape[0], out.shape[1], -1)
        return self.network.run_from(start_index, out, fused=self.fused)

    def _kbatched(self, module_index: int) -> bool:
        """Whether this engine runs the module's synapse faults K at a
        time (else one per pass through :func:`inject`)."""
        return self.fused and _supports_kbatched(self.network.modules[module_index])

    def _check_segment_engine(self) -> None:
        """The segment-wise engine runs on the production engine only."""
        if not self.fused:
            raise FaultModelError(
                "segment-wise detection runs on the production engine "
                "(fused=True); the per-step oracle runs only the flat "
                "detect, classify and accuracy_drops"
            )

    # ------------------------------------------------------------------
    def _batched_neuron_run(
        self,
        module_index: int,
        group: Sequence[NeuronFault],
        base_seq: np.ndarray,
        golden_out: np.ndarray,
        window=None,
        memo: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Simulate ``len(group)`` neuron-faulty instances in one pass.

        ``base_seq`` is the module's input sequence with S base batch rows
        (1 for detection, the sample count for classification), and
        ``golden_out`` the module's fault-free output for the same rows.
        Returns output spikes of shape ``(T, K, S, classes)``.

        On the production engine, when the module's neurons are
        independent given the layer input, the faulty module is not re-run
        at all: only the K faulty neurons are simulated from their
        input-current traces and their spike trains spliced into
        ``golden_out`` (see :meth:`_spliced_neuron_run`).  Otherwise the
        module re-runs on K*S rows with per-row parameter arrays.

        ``window`` is the group's shared transient activity window in
        absolute test time (``None`` = permanent): the faulty module runs
        piecewise, nominal parameters outside the window and perturbed
        inside, with LIF state carried across the boundary — bit-identical
        to switching parameters between two steps of one loop.

        ``memo`` maps module index to the module's full golden currents for
        ``base_seq``, so a campaign computes them once per module.
        """
        module = self.network.modules[module_index]
        if self.fused and _supports_splice(module):
            return self._spliced_neuron_run(
                module_index, group, base_seq, golden_out, window=window, memo=memo
            )
        shape = module.neuron_shape
        k = len(group)
        steps, s = base_seq.shape[:2]
        saved = (module.threshold, module.leak, module.refractory_steps, module.mode)
        # Per-row parameter arrays: (K, 1, *shape) broadcast over samples,
        # reshaped to (K*S, *shape) to match the tiled batch.
        threshold, leak, refractory, mode = _perturbed_neuron_arrays(
            module, group, self.config
        )

        def expand(arr: np.ndarray) -> np.ndarray:
            return (
                np.broadcast_to(arr[:, None], (k, s) + shape)
                .reshape((k * s,) + shape)
            )

        # Fault-major batch layout: row (fault_k * S + sample_s).
        tiled = np.tile(base_seq, (1, k) + (1,) * (base_seq.ndim - 2))
        faulty = (expand(threshold), expand(leak), expand(refractory), expand(mode))
        run = module.run_sequence_fused if self.fused else module.run_sequence_numpy
        state = module.init_state(k * s)
        outs = []
        try:
            for a, b, in_w in _window_pieces(window, steps):
                module.threshold, module.leak, module.refractory_steps, module.mode = (
                    faulty if in_w else saved
                )
                outs.append(run(tiled[a:b], state=state))
        finally:
            module.threshold, module.leak, module.refractory_steps, module.mode = saved
        out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)
        return self._tail(module_index + 1, out).reshape(steps, k, s, -1)

    # ------------------------------------------------------------------
    def _spliced_neuron_run(
        self,
        module_index: int,
        group: Sequence[NeuronFault],
        base_seq: np.ndarray,
        golden_out: np.ndarray,
        window=None,
        memo: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Neuron-fault simulation without re-running the faulty module.

        In a layer without lateral coupling, a neuron fault changes only
        that neuron's spike train; every other neuron reproduces the cached
        fault-free output.  So: read the K faulty neurons' input-current
        traces from the module's full golden currents, advance K tiny LIF
        simulations (same elementwise update as the full layer), splice
        the traces into K copies of the golden layer output, and resume
        the network downstream (see :meth:`_splice`).  Returns
        ``(T, K, S, classes)`` like :meth:`_batched_neuron_run`.
        """
        module = self.network.modules[module_index]
        neuron_idx, *faulty = _perturbed_neuron_scalars(module, group, self.config)
        full = None if memo is None else memo.get(module_index)
        if full is None:
            full = module.sequence_currents(base_seq)
            if memo is not None:
                memo[module_index] = full
        currents = _neuron_currents(full, neuron_idx)  # (T, K, S)
        # Per-row (K, 1) parameter columns, perturbed per fault kind.
        faulty_params = tuple(column[:, None] for column in faulty)
        return self._splice(
            module_index, neuron_idx, golden_out, window, currents, currents,
            faulty_params,
        )

    # ------------------------------------------------------------------
    def _splice(
        self,
        module_index: int,
        neuron_idx: np.ndarray,
        golden_out: np.ndarray,
        window,
        faulty: np.ndarray,
        nominal: Optional[np.ndarray],
        faulty_params=None,
    ) -> np.ndarray:
        """Scan K mini-LIFs, row ``k`` for neuron ``neuron_idx[k]``, splice
        their spike traces into K copies of the golden module output
        ``golden_out`` and resume the network downstream; returns
        ``(T, K, S, classes)``.

        Inside the fault ``window`` the scan reads the ``faulty`` currents
        ``(T, K, S)`` under ``faulty_params`` (``None``: the nominal
        parameters); outside it, the ``nominal`` currents under the
        neurons' nominal parameters."""
        module = self.network.modules[module_index]
        shape = module.neuron_shape
        steps, k, s = faulty.shape
        nominal_params = (
            module.threshold.reshape(-1)[neuron_idx].astype(float)[:, None],
            module.leak.reshape(-1)[neuron_idx].astype(float)[:, None],
            module.refractory_steps.reshape(-1)[neuron_idx][:, None],
            module.mode.reshape(-1)[neuron_idx][:, None],
        )
        if faulty_params is None:
            faulty_params = nominal_params
        state = LIFState.zeros_numpy((k, s))
        traces = np.empty((steps, k, s))
        reset_mode = module.params.reset_mode
        for a, b, in_w in _window_pieces(window, steps):
            currents, params = (
                (faulty, faulty_params) if in_w else (nominal, nominal_params)
            )
            traces[a:b] = lif_scan_numpy(currents[a:b], state, *params, reset_mode)
        n = int(np.prod(shape))
        tiled = np.broadcast_to(
            golden_out.reshape(steps, 1, s, n), (steps, k, s, n)
        ).copy()
        tiled[:, np.arange(k), :, neuron_idx] = traces.transpose(1, 0, 2)
        merged = tiled.reshape((steps, k * s) + shape)
        return self._tail(module_index + 1, merged).reshape(steps, k, s, -1)

    # ------------------------------------------------------------------
    def _spliced_synapse_run(
        self,
        module_index: int,
        group: Sequence[SynapseFault],
        base_seq: np.ndarray,
        golden_out: np.ndarray,
        window=None,
    ) -> np.ndarray:
        """Synapse-fault simulation without re-running the faulty module.

        In a layer where each weight feeds exactly one output neuron
        (dense fan-in), a single-entry synapse fault changes only that
        neuron's input-current trace; every other neuron reproduces the
        cached fault-free output.  So: read the K affected neurons' faulty
        currents from one K-batched product
        (:meth:`~repro.snn.layers.DenseLIF.synapse_splice_currents`),
        advance K tiny LIF simulations under the *nominal* neuron
        parameters, and splice the traces into the golden layer output —
        the synapse-fault analogue of :meth:`_spliced_neuron_run`.  For a
        transient group, the mini-LIF consumes the faulty currents inside
        the window and the golden currents outside, exactly as swapping
        the weight at the window boundaries does.  Returns
        ``(T, K, S, classes)`` like :meth:`_batched_synapse_run`.
        """
        module = self.network.modules[module_index]
        entries = _synapse_entries(module, group, self.config)
        neuron_idx = module.synapse_fault_targets(entries)
        faulty = module.synapse_splice_currents(base_seq, entries)  # (T, S, K)
        faulty = np.ascontiguousarray(faulty.transpose(0, 2, 1))  # (T, K, S)
        nominal = None
        if window is not None:
            nominal = _neuron_currents(module.sequence_currents(base_seq), neuron_idx)
        return self._splice(module_index, neuron_idx, golden_out, window, faulty, nominal)

    # ------------------------------------------------------------------
    def _delayed_neuron_run(
        self,
        module_index: int,
        group: Sequence[NeuronFault],
        golden_out: np.ndarray,
        window=None,
    ) -> np.ndarray:
        """Simulate DELAY faults as a transform of the golden module output.

        A delay fault is an *axonal* delay downstream of the neuron's
        local feedback tap: the neuron's internal dynamics (including any
        recurrence) are nominal, so the faulty module output equals the
        golden output with the faulty neuron's spike train time-shifted by
        ``delay`` steps (zero-filled at the start; in-window only for
        transients).  Works uniformly for every layer type.  Returns
        ``(T, K, S, classes)`` like :meth:`_batched_neuron_run`.
        """
        module = self.network.modules[module_index]
        shape = module.neuron_shape
        k = len(group)
        steps, s = golden_out.shape[:2]
        n = int(np.prod(shape))
        flat = golden_out.reshape(steps, s, n)
        tiled = np.broadcast_to(flat[:, None], (steps, k, s, n)).copy()
        for row, fault in enumerate(group):
            trace = flat[:, :, fault.neuron_index]  # (T, S)
            tiled[:, row, :, fault.neuron_index] = _delayed_trace(
                trace, fault.delay, window
            )
        merged = tiled.reshape((steps, k * s) + shape)
        return self._tail(module_index + 1, merged).reshape(steps, k, s, -1)

    # ------------------------------------------------------------------
    def _batched_synapse_run(
        self,
        module_index: int,
        group: Sequence[SynapseFault],
        base_seq: np.ndarray,
        golden_out: np.ndarray,
        window=None,
    ) -> np.ndarray:
        """Simulate ``len(group)`` synapse-faulty instances in one pass on
        the production engine.  Returns output spikes of shape
        ``(T, K, S, classes)``.

        When each of the module's weights feeds exactly one neuron, the
        module is not re-run at all (see :meth:`_spliced_synapse_run`).
        Otherwise its weight tensors are lifted to a ``(K, ...)`` leading
        axis, one perturbed copy per fault; the faulty module runs all K
        variants in one fused pass and every downstream module runs one
        pass with a K*S batch.  For a transient group (shared ``window``),
        the faulty module runs piecewise with the pristine weight stacks
        outside the window and the perturbed stacks inside, LIF state
        carried across boundaries.
        """
        module = self.network.modules[module_index]
        if _supports_synapse_splice(module):
            return self._spliced_synapse_run(
                module_index, group, base_seq, golden_out, window=window
            )
        params = module.parameters()
        k = len(group)
        steps, s = base_seq.shape[:2]
        stacks = [
            np.broadcast_to(p.data, (k,) + p.data.shape).copy() for p in params
        ]
        for row, (pidx, widx, value) in enumerate(
            _synapse_entries(module, group, self.config)
        ):
            stacks[pidx][row].reshape(-1)[widx] = value
        nominal = [np.broadcast_to(p.data, (k,) + p.data.shape) for p in params]
        state = module.init_state(k * s)
        # The K-batched kernel broadcasts the shared base input over K.
        outs = [
            module.run_sequence_kbatched_fused(
                base_seq[a:b], stacks if in_w else nominal, state=state
            )
            for a, b, in_w in _window_pieces(window, steps)
        ]
        out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)
        return self._tail(module_index + 1, out).reshape(steps, k, s, -1)

    # ------------------------------------------------------------------
    def _sequential_synapse_run(
        self, fault: SynapseFault, base_seq: np.ndarray
    ) -> np.ndarray:
        """One synapse fault per pass, the oracle's path: ``(T, S, classes)``.

        Permanent faults go through the reversible injector; transient
        faults swap the single weight entry at the window boundaries with
        LIF state carried through — bit-identical to flipping the weight
        between two steps of one loop.
        """
        module_index = fault.module_index
        if fault.window is None:
            with inject(self.network, fault, self.config):
                return self.network.run_from(module_index, base_seq)
        module = self.network.modules[module_index]
        params = module.parameters()
        if fault.parameter_index >= len(params):
            raise FaultModelError(f"{fault.describe()}: parameter index out of range")
        weights = params[fault.parameter_index].data
        faulty = synapse_fault_value(weights, fault, self.config)
        flat = weights.reshape(-1)
        previous = flat[fault.weight_index]
        steps = base_seq.shape[0]
        state = module.init_state(base_seq.shape[1])
        outs = []
        try:
            for a, b, in_w in _window_pieces(fault.window, steps):
                flat[fault.weight_index] = faulty if in_w else previous
                outs.append(module.run_sequence_numpy(base_seq[a:b], state=state))
        finally:
            flat[fault.weight_index] = previous
        return self._tail(module_index + 1, np.concatenate(outs, axis=0))

    # ------------------------------------------------------------------
    def _neuron_groups(self, faults: Sequence[Fault]) -> Dict[tuple, List[int]]:
        """Group neuron-fault indices by ``(module, family, window)``.

        ``family`` separates parameter-expressible kinds (``"param"``:
        dead/saturated/timing/parametric — simulated by perturbing the
        per-neuron arrays) from ``"delay"`` faults (simulated by the
        golden-output transform).  Windows must be uniform within a batch
        because the piecewise runs switch parameters for all rows at once.
        """
        groups: Dict[tuple, List[int]] = {}
        for idx, fault in enumerate(faults):
            if fault.is_neuron:
                family = (
                    "delay" if fault.kind is NeuronFaultKind.DELAY else "param"
                )
                key = (fault.module_index, family, fault.window)
                groups.setdefault(key, []).append(idx)
        return groups

    def _synapse_partition(self, faults: Sequence[Fault]):
        """Split synapse-fault indices into per-(module, window) K-batch
        groups (see :meth:`_kbatched`) and a one-at-a-time remainder."""
        batched: Dict[tuple, List[int]] = {}
        sequential: List[int] = []
        for idx, fault in enumerate(faults):
            if fault.is_neuron:
                continue
            if self._kbatched(fault.module_index):
                batched.setdefault((fault.module_index, fault.window), []).append(idx)
            else:
                sequential.append(idx)
        return batched, sequential

    def _golden(self, inputs: np.ndarray, golden_modules: Optional[List[np.ndarray]]):
        """The fault-free per-module outputs for ``inputs`` ``(T, S, ...)``
        (computed on this engine unless given) and the output spikes
        ``(T, S, classes)``.  A campaign over no time step or no input row
        raises :class:`~repro.errors.FaultModelError`."""
        steps, samples = inputs.shape[:2]
        if steps == 0 or samples == 0:
            raise FaultModelError(
                "campaign inputs need at least one time step and one row, "
                f"got shape {inputs.shape}"
            )
        if golden_modules is None:
            golden_modules = self.network.run_modules(inputs, fused=self.fused)
        return golden_modules, golden_modules[-1].reshape(steps, samples, -1)

    def _fault_batches(
        self,
        inputs: np.ndarray,
        faults: Sequence[Fault],
        golden_modules: List[np.ndarray],
        progress: Optional[ProgressFn],
    ):
        """The flat engine's one fault loop: yields ``(indices, out)`` per
        fault batch, ``out`` the batch's output spikes ``(T, K, S,
        classes)`` with row ``k`` for fault ``faults[indices[k]]`` over the
        S rows of ``inputs``.

        Neuron faults batch per ``(module, family, window)`` and synapse
        faults per ``(module, window)`` on the production engine; the
        oracle runs synapse faults one per pass.  A batch holds at most
        ``192 // S`` faults, so K·S rows stay bounded.  Progress ticks as
        the caller takes the next batch.
        """
        samples = inputs.shape[1]
        neuron_k = max(1, min(self.neuron_batch, 192 // samples))
        synapse_k = max(1, min(self.synapse_batch, 192 // samples))
        tracker = _ProgressTracker(progress, len(faults))
        memo: Dict[int, np.ndarray] = {}

        def upstream(module_index: int) -> np.ndarray:
            return inputs if module_index == 0 else golden_modules[module_index - 1]

        for (module_index, family, window), indices in self._neuron_groups(
            faults
        ).items():
            for lo in range(0, len(indices), neuron_k):
                batch = indices[lo : lo + neuron_k]
                group = [faults[i] for i in batch]
                if family == "delay":
                    out = self._delayed_neuron_run(
                        module_index, group, golden_modules[module_index],
                        window=window,
                    )
                else:
                    out = self._batched_neuron_run(
                        module_index, group, upstream(module_index),
                        golden_out=golden_modules[module_index], window=window,
                        memo=memo,
                    )
                yield batch, out
                tracker.tick(len(batch))

        syn_batched, syn_sequential = self._synapse_partition(faults)
        for (module_index, window), indices in syn_batched.items():
            for lo in range(0, len(indices), synapse_k):
                batch = indices[lo : lo + synapse_k]
                yield batch, self._batched_synapse_run(
                    module_index, [faults[i] for i in batch], upstream(module_index),
                    golden_out=golden_modules[module_index], window=window,
                )
                tracker.tick(len(batch))

        for idx in syn_sequential:
            fault = faults[idx]
            out = self._sequential_synapse_run(fault, upstream(fault.module_index))
            yield [idx], out[:, None]
            tracker.tick(1)
        tracker.finish()

    # ------------------------------------------------------------------
    def detect(
        self,
        stimulus: np.ndarray,
        faults: Sequence[Fault],
        progress: Optional[ProgressFn] = None,
        golden_modules: Optional[List[np.ndarray]] = None,
    ) -> DetectionResult:
        """Fault-simulate ``stimulus`` (shape (T, 1, *input_shape)) against
        ``faults`` and report which are detected (Eq. 3).

        ``golden_modules`` optionally supplies the fault-free per-module
        output sequences (as produced by :meth:`SNN.run_modules` on the
        same stimulus), so callers that run several campaigns — or
        sharded workers, see :mod:`repro.faults.parallel` — never repeat
        the upstream work.
        """
        if stimulus.ndim < 3 or stimulus.shape[1] != 1:
            raise FaultModelError(
                f"stimulus must be (T, 1, *input_shape), got {stimulus.shape}"
            )
        start = time.perf_counter()
        stats = DispatchStats()
        n_faults = len(faults)
        with event_dispatch_context(self.network.modules, EventDispatch(stats)):
            golden_modules, golden = self._golden(stimulus, golden_modules)
            golden_out = golden[:, 0]  # (T, classes)
            golden_counts = golden_out.sum(axis=0)
            detected = np.zeros(n_faults, dtype=bool)
            output_l1 = np.zeros(n_faults)
            class_diff = np.zeros((n_faults, golden_out.shape[1]))
            # Spikes are 0/1, so every sum below is a small integer and
            # equals the per-fault one bit for bit.
            for indices, out in self._fault_batches(
                stimulus, faults, golden_modules, progress
            ):
                out = out[:, :, 0]  # (T, K, classes)
                diff = np.abs(out - golden_out[:, None]).sum(axis=(0, 2))
                output_l1[indices] = diff
                detected[indices] = diff > 0
                class_diff[indices] = np.abs(out.sum(axis=0) - golden_counts)
        return DetectionResult(
            faults=list(faults),
            detected=detected,
            output_l1=output_l1,
            class_count_diff=class_diff,
            wall_time=time.perf_counter() - start,
            dispatch=stats.as_dict(),
        )

    # ------------------------------------------------------------------
    def detect_segmented(
        self,
        stimulus,
        faults: Sequence[Fault],
        progress: Optional[ProgressFn] = None,
        *,
        drop_detected: bool = True,
        store=None,
    ) -> DetectionResult:
        """Segment-wise detection campaign over a :class:`TestStimulus`.

        Iterates the stimulus one test segment (chunk + sleep gap, Eq. 7)
        at a time instead of materializing :meth:`TestStimulus.assembled`,
        carrying LIF state across segment boundaries so the ``detected``
        flags are bit-identical to :meth:`detect` on the assembled
        stimulus.  See :mod:`repro.faults.segmented` for the engine and the
        exactness argument, and :func:`repro.faults.parallel.parallel_detect_segmented`
        for the multi-process frontend.  Every segment skips downstream
        propagation for rows still bit-identical to golden and re-packs
        the surviving rows into full batches; both are exact.  Runs on the
        production engine only: the oracle raises
        :class:`~repro.errors.FaultModelError`.

        Parameters
        ----------
        drop_detected:
            Drop a fault from all later segments once detected.  The
            ``detected`` array is unchanged (detection is monotone in
            segments); ``output_l1`` / ``class_count_diff`` then only cover
            the segments up to first detection, so pass ``False`` when the
            exact Fig. 9 metrics are needed.
        store:
            Optional :class:`repro.faults.store.CoverageStore` for
            differential re-verification: cached (fault-group, segment)
            outcomes and golden segment end-states are spliced in instead
            of recomputed, and fresh ones are persisted for later runs.
            Re-running a killed campaign against its store is how it
            resumes.
        """
        from repro.faults.segmented import SegmentedDetectionCampaign

        campaign = SegmentedDetectionCampaign(
            self,
            stimulus,
            faults,
            drop_detected=drop_detected,
            progress=progress,
            store=store,
        )
        return campaign.run()

    # ------------------------------------------------------------------
    def _labelling_reference(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        golden_modules: Optional[List[np.ndarray]] = None,
    ):
        """``(golden_modules, golden_preds, nominal_accuracy)`` of a
        labelling campaign over ``inputs`` ``(T, S, *input_shape)``."""
        if inputs.ndim < 3 or inputs.shape[1] != labels.shape[0]:
            raise FaultModelError(
                f"inputs {inputs.shape} inconsistent with labels {labels.shape}"
            )
        golden_modules, golden = self._golden(inputs, golden_modules)
        golden_preds = golden.sum(axis=0).argmax(axis=1)
        return golden_modules, golden_preds, float((golden_preds == labels).mean())

    def classify(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        faults: Sequence[Fault],
        progress: Optional[ProgressFn] = None,
        golden_modules: Optional[List[np.ndarray]] = None,
    ) -> ClassificationResult:
        """Label each fault critical (flips any sample's top-1) or benign,
        and compute its exact accuracy drop (nominal minus faulty).

        ``inputs`` is a batched sample tensor ``(T, S, *input_shape)``; all
        S samples run through each faulty network in one batched pass.
        ``golden_modules`` optionally supplies precomputed fault-free
        per-module outputs for ``inputs`` (see :meth:`detect`).

        All-zero current blocks and time slices skip their GEMMs (see
        :mod:`repro.snn.events`); the counters are not reported.
        """
        labels = np.asarray(labels)
        start = time.perf_counter()
        n_faults = len(faults)
        critical = np.zeros(n_faults, dtype=bool)
        accuracy_drop = np.zeros(n_faults)
        with event_dispatch_context(self.network.modules, EventDispatch()):
            golden_modules, golden_preds, nominal_accuracy = (
                self._labelling_reference(inputs, labels, golden_modules)
            )
            for indices, out in self._fault_batches(
                inputs, faults, golden_modules, progress
            ):
                preds = out.sum(axis=0).argmax(axis=2)  # (K, S)
                critical[indices] = np.any(preds != golden_preds, axis=1)
                accuracy = (preds == labels).mean(axis=1)
                accuracy_drop[indices] = nominal_accuracy - accuracy
        return ClassificationResult(
            faults=list(faults),
            critical=critical,
            accuracy_drop=accuracy_drop,
            nominal_accuracy=nominal_accuracy,
            wall_time=time.perf_counter() - start,
        )

    def accuracy_drops(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        faults: Sequence[Fault],
    ) -> np.ndarray:
        """Exact accuracy drop (nominal minus faulty accuracy) for each
        fault: :meth:`classify`'s ``accuracy_drop``."""
        return self.classify(inputs, labels, faults).accuracy_drop

    # ------------------------------------------------------------------
    @staticmethod
    def coverage(
        detection: DetectionResult,
        classification: ClassificationResult,
    ) -> CoverageBreakdown:
        """Combine a detection campaign with fault labels into the Table III
        coverage breakdown."""
        if len(detection.faults) != len(classification.faults):
            raise FaultModelError("detection and classification fault lists differ")
        detected = detection.detected
        critical = classification.critical
        is_neuron = np.array([f.is_neuron for f in detection.faults], dtype=bool)

        undetected_critical = ~detected & critical
        drops = classification.accuracy_drop

        def max_drop(mask: np.ndarray) -> float:
            selected = drops[mask]
            return float(selected.max()) if selected.size else 0.0

        counts = {
            "critical_neuron": int((critical & is_neuron).sum()),
            "benign_neuron": int((~critical & is_neuron).sum()),
            "critical_synapse": int((critical & ~is_neuron).sum()),
            "benign_synapse": int((~critical & ~is_neuron).sum()),
        }
        return CoverageBreakdown(
            fc_critical_neuron=_rate(detected, critical & is_neuron),
            fc_critical_synapse=_rate(detected, critical & ~is_neuron),
            fc_benign_neuron=_rate(detected, ~critical & is_neuron),
            fc_benign_synapse=_rate(detected, ~critical & ~is_neuron),
            fc_overall=_rate(detected, np.ones_like(detected, dtype=bool)),
            counts=counts,
            max_drop_undetected_neuron=max_drop(undetected_critical & is_neuron),
            max_drop_undetected_synapse=max_drop(undetected_critical & ~is_neuron),
        )
