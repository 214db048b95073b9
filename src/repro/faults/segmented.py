"""Segment-wise fault-detection engine (fault dropping + divergence exit).

The assembled detection campaign (:meth:`FaultSimulator.detect`) simulates
every fault over the full test ``(T_test, ...)`` at once, so its peak
memory scales with the total test duration and every fault pays for every
time step even after it is already detected.  This engine reworks the
campaign around the test's segment structure (Eq. 7): segment ``i`` is
chunk ``i`` followed by its equal-duration sleep gap (the final chunk is
bare), and only one segment is ever materialized.

Exactness
---------
The LIF update is a per-step recurrence in ``(potential, last_spike,
refractory)``, so splitting the time loop at any step and resuming from
the carried state is bit-identical to the unsplit run — the sleep gap
*decays* the membrane state but never zeroes it, so state carry across
segment boundaries is required, not an optimisation.  Three further
transformations are applied, all exact:

- **Fault dropping** (``drop_detected``): detection is monotone in
  segments — once a fault's output diverges on some segment, the
  ``detected`` flag is final — so detected faults are dropped from all
  later segments.  ``output_l1`` / ``class_count_diff`` then only cover
  segments up to first detection; campaigns that need the exact Fig. 9
  metrics run with ``drop_detected=False`` and get every array
  bit-identical to the assembled campaign.
- **Divergence-bounded propagation** (``divergence_exit``): if the faulty
  module's segment output is bit-identical to golden *and* the fault's
  downstream state is still golden, the downstream modules would
  reproduce the golden output exactly, so the propagation is skipped and
  the segment contributes zero to every metric.  Once a fault diverges,
  its downstream modules are seeded from copies of the golden states at
  segment entry and carried privately from then on.
- **Batch compaction** (``compact_batches``): surviving faults are
  re-packed into full K-batches each segment.  Per-row results are
  independent of batch composition (the elementwise-update property the
  batched-equivalence suites pin), so compaction never changes results.

Metric accumulation across segments is also exact: spike trains are
0.0/1.0 floats, so L1 distances and per-class spike counts are
integer-valued float64 sums far below 2^53 — per-segment accumulation
equals the whole-test sum bit for bit.

Memory
------
Peak memory is one segment's tensors (longest chunk, not ``T_test``) plus
per-fault carry state: one LIF state per fault for the faulty module and,
only after divergence, one per downstream spiking module.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, FaultModelError, StoreError
from repro.faults.injector import inject, synapse_fault_value
from repro.faults.store import StoreSession, stimulus_chain
from repro.faults.model import NeuronFaultKind
from repro.faults.simulator import (
    DetectionResult,
    FLOAT32_GUARD_MARGIN,
    _perturbed_neuron_arrays,
    _perturbed_neuron_scalars,
    _ProgressTracker,
    _supports_kbatched,
    _supports_kbatched_fused,
    _supports_splice,
    _supports_synapse_splice,
    _synapse_entries,
    _window_pieces,
)
from repro.snn.events import (
    EVENT_GUARD_MARGIN,
    DispatchStats,
    EventDispatch,
    LazyMargin,
)
from repro.snn.layers import (
    SumPool,
    compute_dtype_context,
    dispatch_layer_names,
    event_dispatch_context,
)
from repro.snn.neuron import LIFState, SpikeMargin, lif_step_numpy


class _GoldenSegment:
    """One segment's fault-free run: input, per-module outputs, and copies
    of every module's state at segment *entry* (for seeding the downstream
    modules of a fault that diverges on this segment)."""

    def __init__(self, seg: np.ndarray, outputs: List[np.ndarray], entry_states: List):
        self.input = seg
        self.outputs = outputs
        self.entry_states = entry_states
        final = outputs[-1]
        self.out_flat = final.reshape(final.shape[0], -1)  # (T_seg, classes)
        self.counts = self.out_flat.sum(axis=0)

    def module_input(self, module_index: int) -> np.ndarray:
        return self.input if module_index == 0 else self.outputs[module_index - 1]


class GoldenSegmentRunner:
    """Advances the fault-free network one test segment at a time,
    snapshotting module entry states before each segment.

    ``fused=True`` routes every module through its fused fast path
    (bit-identical in float64, pinned by the fused differential suite).

    ``events`` optionally attaches an event-driven dispatcher
    (:class:`repro.snn.events.EventDispatch`) to the fused kernels for
    the duration of each segment.  The golden pass is the campaign's
    reference, so callers pass an ``exact_only`` dispatcher: sleep gaps
    and other all-zero stretches of a segment skip their GEMMs outright
    (a guaranteed bit-exact zero-current view feeds the membrane scan)
    while everything else stays on the dense kernel."""

    def __init__(self, network, fused: bool = False, events=None) -> None:
        self.network = network
        self.fused = fused
        self.events = events
        self.states = network.init_states(1)

    def run_segment(self, seg: np.ndarray) -> _GoldenSegment:
        entry = [s.copy() if s is not None else None for s in self.states]
        with event_dispatch_context(self.network.modules, self.events):
            outputs = self.network.run_modules(
                seg, states=self.states, fused=self.fused
            )
        if self.events is not None and seg.shape[0] and not seg[-1].any():
            # Trailing all-zero input step: this segment carries a sleep
            # gap whose current blocks resolve through the zero tier.
            self.events.stats.note_sleep()
        return _GoldenSegment(seg, outputs, entry)

    def skip_segments(self, stimulus, count: int) -> None:
        """Replay ``count`` segments without keeping outputs (deterministic
        golden-state reconstruction on checkpoint resume).

        The replay still benefits from the exact zero-skip tiers, but on a
        throwaway counter set: the skipped segments were already accounted
        before the checkpoint, so re-counting them here would make resumed
        stats diverge from an uninterrupted run's."""
        events = None
        if self.events is not None:
            events = EventDispatch(
                self.events.mode, self.events.threshold, exact_only=True
            )
        with event_dispatch_context(self.network.modules, events):
            for index in range(count):
                self.network.run_modules(
                    stimulus.segment(index), states=self.states, fused=self.fused
                )


class _PlainGoldenRunner:
    """Golden-runner adapter with the seek/run interface the campaign
    loop drives (the store-backed runner below shares it)."""

    def __init__(self, network, fused: bool, events=None) -> None:
        self.inner = GoldenSegmentRunner(network, fused=fused, events=events)

    def seek(self, stimulus, count: int) -> None:
        self.inner.skip_segments(stimulus, count)

    def run_segment(self, segment_index: int, seg: np.ndarray) -> _GoldenSegment:
        return self.inner.run_segment(seg)


class _SessionGoldenRunner:
    """Golden runner with cross-run (and cross-group) segment reuse
    through a coverage store.

    Maintains the invariant that the inner runner's states are the golden
    state at the entry of the next segment to run: a stored segment is
    answered from its record (outputs + end states, the current states
    becoming the entry states) without simulating; a missing segment runs
    normally and is stored for every later group, worker, and invocation.
    The golden pass always computes in float64, so records are valid
    regardless of any float32 group gating around them.
    """

    def __init__(self, session: StoreSession, network, fused: bool, events=None) -> None:
        self.session = session
        self.inner = GoldenSegmentRunner(network, fused=fused, events=events)

    def seek(self, stimulus, count: int) -> None:
        if not count:
            return
        states = self.session.load_golden_states(count - 1)
        if states is not None:
            self.inner.states = states
        else:
            self.inner.skip_segments(stimulus, count)

    def run_segment(self, segment_index: int, seg: np.ndarray) -> _GoldenSegment:
        cached = self.session.load_golden(segment_index)
        if cached is not None:
            outputs, end_states = cached
            # The runner's current state objects are this segment's entry
            # states; replacing ``states`` freezes them, so no copy is
            # needed before handing them to the segment.
            gseg = _GoldenSegment(seg, outputs, self.inner.states)
            self.inner.states = end_states
            return gseg
        gseg = self.inner.run_segment(seg)
        self.session.store_golden(segment_index, gseg.outputs, self.inner.states)
        return gseg


#: Fused-path batch width for splice/delay rows (per-row state is a few
#: scalars, so the width is bounded by call-overhead amortization, not
#: memory; module-re-running kinds keep the configured batch sizes).
_SPLICE_BATCH = 64


class _FaultGroup:
    """All faults of one (kind, module) pair, simulated K rows at a time
    with per-row state carried across segments.

    ``kind`` selects the execution path:

    - ``"splice"`` — neuron faults in layers without lateral coupling: only
      the faulty neuron's mini-LIF is advanced per row; the full module
      output is materialized (golden + spliced trace) only for rows that
      must propagate downstream — at pooled resolution when the module
      feeds a sum pool (see :meth:`_splice_materialize`).
    - ``"neuron"`` — neuron faults needing a full module re-run (recurrent
      layers, or the splice fast path disabled).
    - ``"synapse_splice"`` — synapse faults in layers where one weight
      feeds exactly one neuron (dense fan-in), on the fused path: only the
      affected neuron's mini-LIF is advanced per row, driven by faulty
      currents from one column-stacked GEMM, exactly like ``"splice"``.
    - ``"synapse_k"`` — synapse faults on modules with K-batched weight
      support.
    - ``"synapse_seq"`` — synapse faults on the sequential reference path
      (one reversible :func:`inject` per fault, batch size 1).
    - ``"delay"`` — neuron DELAY faults: the module runs nominally (the
      golden pass already did), and the faulty output is the golden output
      with the row's neuron trace time-shifted; a per-row history buffer
      carries the trace tail across segment boundaries.

    Transient groups additionally share one activity ``window`` (absolute
    test time); each segment is then run piecewise at the window
    boundaries, state carried through, so a fault may appear or vanish
    mid-segment and the result stays bit-identical to the assembled run.
    """

    def __init__(self, campaign: "SegmentedDetectionCampaign", kind: str,
                 module_index: int, indices: Sequence[int],
                 window: Optional[Tuple[int, int]] = None) -> None:
        self.campaign = campaign
        self.kind = kind
        self.module_index = module_index
        self.indices = list(indices)
        self.window = window
        simulator = campaign.simulator
        network = simulator.network
        self.module = network.modules[module_index]
        self.downstream = network.modules[module_index + 1:]
        k = len(self.indices)
        self.active = np.ones(k, dtype=bool)
        self.diverged = np.zeros(k, dtype=bool)
        # row -> per-downstream-module state dicts, only for rows that
        # have diverged and are still active (see _run_downstream).
        self.dstates: Dict[int, List[Optional[Dict[str, np.ndarray]]]] = {}
        self._down_stateful_cache: Optional[List[bool]] = None
        group_faults = [campaign.faults[i] for i in self.indices]
        shape = self.module.neuron_shape
        # Splice and delay rows carry (k, 1) scalar state and never re-run
        # the module, so the fused engine batches them far wider than the
        # module-re-running kinds: wider batches amortize the per-call
        # overhead of the mini-LIF scan, the trace compares, and the
        # downstream runs of diverged rows.  The legacy engine keeps the
        # configured batch (it is the PR 5 reference configuration).
        def _splice_batch(configured: int) -> int:
            return max(configured, _SPLICE_BATCH) if simulator.fused else configured

        if kind == "splice":
            (self.neuron_idx, self.thr, self.leak, self.refr, self.mode) = \
                _perturbed_neuron_scalars(self.module, group_faults, simulator.config)
            # Nominal scalar columns drive the mini-LIF outside a window.
            self._nominal_scalars()
            state_shape: Tuple[int, ...] = (k, 1)  # K mini-LIF rows, batch 1
            self.batch_size = _splice_batch(simulator.neuron_batch)
        elif kind == "synapse_splice":
            self.syn = _synapse_entries(self.module, group_faults, simulator.config)
            self.neuron_idx = self.module.synapse_fault_targets(self.syn)
            # Synapse faults leave the neuron parameters nominal; the fault
            # lives entirely in the current trace.
            self._nominal_scalars()
            state_shape = (k, 1)
            self.batch_size = _splice_batch(simulator.synapse_batch)
        elif kind == "delay":
            self.neuron_idx = np.array(
                [f.neuron_index for f in group_faults], dtype=np.int64
            )
            self.delays = np.array([f.delay for f in group_faults], dtype=np.int64)
            self.hist_len = int(self.delays.max())
            state_shape = (k, 1)  # no LIF state needed; keep a tiny slab
            self.batch_size = _splice_batch(simulator.neuron_batch)
        else:
            state_shape = (k,) + shape  # row axis doubles as module batch
            if kind == "neuron":
                self.params = _perturbed_neuron_arrays(
                    self.module, group_faults, simulator.config
                )
                self.batch_size = simulator.neuron_batch
            elif kind == "synapse_k":
                self.syn = _synapse_entries(self.module, group_faults, simulator.config)
                self.batch_size = simulator.synapse_batch
            else:  # synapse_seq: reversible inject(), one fault per pass
                self.batch_size = 1
        # Index of the first downstream module that _run_downstream runs.
        # Splice-style rows of a module feeding a sum pool materialize the
        # pool's output directly, so propagation starts after the pool.
        self.entry = 0
        if (
            kind in ("splice", "synapse_splice", "delay")
            and self.downstream
            and isinstance(self.downstream[0], SumPool)
        ):
            pool = self.downstream[0]
            channel, row, col = np.unravel_index(self.neuron_idx, shape)
            self.cell_idx = np.ravel_multi_index(
                (channel, row // pool.window, col // pool.window),
                pool.output_shape(shape),
            )
            self.entry = 1
        # Per-group compute precision: the campaign promotes eligible
        # groups to float32 (see SegmentedDetectionCampaign.run) and resets
        # this to float64 when rebuilding a group for a fallback re-run.
        self.dtype = np.dtype(np.float64)
        # State arrays are allocated lazily (and released when the group
        # finishes) so peak memory is bounded by the largest *single*
        # group, not the sum over all groups in the campaign.
        self._state_shape = state_shape
        self.pot: Optional[np.ndarray] = None
        self.spk: Optional[np.ndarray] = None
        self.ref: Optional[np.ndarray] = None
        self.hist: Optional[np.ndarray] = None  # (K, hist_len) delay tails
        self._initial_batches = [
            np.arange(lo, min(lo + self.batch_size, k))
            for lo in range(0, k, self.batch_size)
        ]

    # ------------------------------------------------------------------
    def _nominal_scalars(self) -> None:
        """Cache the nominal per-neuron scalar columns of ``neuron_idx``
        (mini-LIF parameters for splice rows outside a fault's window)."""
        module = self.module
        idx = self.neuron_idx
        self.nthr = module.threshold.reshape(-1)[idx].astype(float).copy()
        self.nleak = module.leak.reshape(-1)[idx].astype(float).copy()
        self.nrefr = module.refractory_steps.reshape(-1)[idx].copy()
        self.nmode = module.mode.reshape(-1)[idx].copy()

    @property
    def done(self) -> bool:
        return not self.active.any()

    def _ensure_state(self) -> None:
        if self.pot is None:
            # Splice rows advance a float64 mini-LIF even in a float32
            # group (the faulty trace stays exact by construction; only
            # the downstream propagation follows the group dtype), and
            # delay rows never integrate at all.
            state_dtype = (
                self.dtype if self.kind in ("neuron", "synapse_k") else np.float64
            )
            self.pot = np.zeros(self._state_shape, dtype=state_dtype)
            self.spk = np.zeros(self._state_shape, dtype=state_dtype)
            self.ref = np.zeros(self._state_shape, dtype=np.int64)
        if self.kind == "delay" and self.hist is None:
            self.hist = np.zeros((len(self.indices), self.hist_len))

    def release(self) -> None:
        """Free the per-row state once the group has run its last segment
        (the small ``active``/``diverged`` masks stay for bookkeeping)."""
        self.pot = self.spk = self.ref = self.hist = None
        self.dstates = {}

    def _batches(self) -> List[np.ndarray]:
        if self.campaign.compact_batches:
            rows = np.nonzero(self.active)[0]
            return [
                rows[lo : lo + self.batch_size]
                for lo in range(0, len(rows), self.batch_size)
            ]
        batches = []
        for chunk in self._initial_batches:
            sub = chunk[self.active[chunk]]
            if len(sub):
                batches.append(sub)
        return batches

    # ------------------------------------------------------------------
    # Faulty-module execution, one path per kind
    # ------------------------------------------------------------------
    def _module_state(self, rows: np.ndarray) -> LIFState:
        # Fancy indexing copies, so lif_step_numpy's attribute reassignment
        # never aliases the group arrays; _store_state scatters back.
        return LIFState(
            potential=self.pot[rows],
            last_spike=self.spk[rows],
            refractory=self.ref[rows],
        )

    def _store_state(self, rows: np.ndarray, state: LIFState) -> None:
        self.pot[rows] = state.potential
        self.spk[rows] = state.last_spike
        self.ref[rows] = state.refractory

    def _run_splice(self, rows: np.ndarray, gseg: _GoldenSegment, offset: int):
        """Advance the faulty neurons' mini-LIF rows; returns ``(same,
        materialize)`` (see :meth:`_splice_compare`)."""
        module = self.module
        seg_input = gseg.module_input(self.module_index)
        steps = seg_input.shape[0]
        idx = self.neuron_idx[rows]
        currents = module.neuron_input_currents(seg_input, idx)  # (T, 1, R)
        currents = np.ascontiguousarray(currents.transpose(0, 2, 1))  # (T, R, 1)
        state = self._module_state(rows)
        faulty = (
            self.thr[rows][:, None], self.leak[rows][:, None],
            self.refr[rows][:, None], self.mode[rows][:, None],
        )
        nominal = (
            self.nthr[rows][:, None], self.nleak[rows][:, None],
            self.nrefr[rows][:, None], self.nmode[rows][:, None],
        )
        reset_mode = module.params.reset_mode
        traces = np.empty((steps, len(rows)))
        guard = self.campaign.simulator._splice_guard(module)
        for a, b, in_window in _window_pieces(self.window, steps, offset):
            thr, leak, refr, mode = faulty if in_window else nominal
            for t in range(a, b):
                traces[t] = lif_step_numpy(
                    currents[t], state, thr, leak, refr, mode, reset_mode
                )[:, 0]
                if guard is not None:
                    guard.observe(state.potential, thr)
        self._store_state(rows, state)
        return self._splice_compare(gseg, rows, traces)

    def _splice_compare(self, gseg: _GoldenSegment, rows: np.ndarray,
                        traces: np.ndarray):
        """``(same, materialize)`` for R spliced traces ``(T, R)``: compare
        each against its golden trace; see :meth:`_splice_materialize`."""
        golden = gseg.outputs[self.module_index]
        golden_traces = golden.reshape(golden.shape[0], -1)[:, self.neuron_idx[rows]]
        same = np.array(
            [np.array_equal(traces[:, j], golden_traces[:, j])
             for j in range(traces.shape[1])]
        )
        return same, self._splice_materialize(gseg, rows, traces, golden_traces)

    def _splice_materialize(self, gseg: _GoldenSegment, rows: np.ndarray,
                            traces: np.ndarray, golden_traces: np.ndarray):
        """``materialize(positions)`` for splice-style rows: the golden
        output tiled over the selected rows, each with its faulty neuron
        trace spliced in.

        With a sum pool next (``self.entry == 1``) the tile is the golden
        *pooled* output, and each row adds ``trace - golden_trace`` at its
        neuron's pooled cell.  Spike counts are small integers, so that
        equals pooling the spliced full-resolution tile exactly, without
        building it."""
        steps = traces.shape[0]
        base = gseg.outputs[self.module_index + self.entry]
        base_flat = base.reshape(steps, -1)
        cells = (self.cell_idx if self.entry else self.neuron_idx)[rows]

        def materialize(positions: List[int]) -> np.ndarray:
            m = len(positions)
            tiled = np.broadcast_to(
                base_flat[:, None, :], (steps, m, base_flat.shape[1])
            ).copy()
            at = (slice(None), np.arange(m), cells[positions])
            if self.entry:
                tiled[at] += traces[:, positions] - golden_traces[:, positions]
            else:
                tiled[at] = traces[:, positions]
            return tiled.reshape((steps, m) + base.shape[2:])

        return materialize

    def _run_synapse_splice(self, rows: np.ndarray, gseg: _GoldenSegment,
                            offset: int):
        """Advance the synapse-faulty neurons' mini-LIF rows under nominal
        neuron parameters: faulty currents (one column-stacked GEMM over
        the perturbed fan-in columns) inside the fault window, golden
        currents outside — exactly as the K-batched path swaps weight
        stacks at the window boundaries."""
        module = self.module
        seg_input = gseg.module_input(self.module_index)
        steps = seg_input.shape[0]
        idx = self.neuron_idx[rows]
        entries = [self.syn[row] for row in rows]
        faulty = module.synapse_splice_currents(seg_input, entries)  # (T, 1, R)
        faulty = np.ascontiguousarray(faulty.transpose(0, 2, 1))  # (T, R, 1)
        nominal_cur = None
        if self.window is not None:
            nominal_cur = module.neuron_input_currents(seg_input, idx)
            nominal_cur = np.ascontiguousarray(nominal_cur.transpose(0, 2, 1))
        state = self._module_state(rows)
        params = (
            self.nthr[rows][:, None], self.nleak[rows][:, None],
            self.nrefr[rows][:, None], self.nmode[rows][:, None],
        )
        reset_mode = module.params.reset_mode
        traces = np.empty((steps, len(rows)))
        guard = self.campaign.simulator._splice_guard(module)
        for a, b, in_window in _window_pieces(self.window, steps, offset):
            currents = faulty if in_window else nominal_cur
            for t in range(a, b):
                traces[t] = lif_step_numpy(
                    currents[t], state, *params, reset_mode=reset_mode
                )[:, 0]
                if guard is not None:
                    guard.observe(state.potential, params[0])
        self._store_state(rows, state)
        return self._splice_compare(gseg, rows, traces)

    def _run_neuron(
        self, rows: np.ndarray, seg_input: np.ndarray, offset: int
    ) -> np.ndarray:
        module = self.module
        tiled = np.tile(seg_input, (1, len(rows)) + (1,) * (seg_input.ndim - 2))
        saved = (module.threshold, module.leak, module.refractory_steps, module.mode)
        threshold, leak, refractory, mode = self.params
        faulty = (threshold[rows], leak[rows], refractory[rows], mode[rows])
        state = self._module_state(rows)
        run = (
            module.run_sequence_fused
            if self.campaign.simulator.fused
            else module.run_sequence_numpy
        )
        pieces: List[np.ndarray] = []
        try:
            for a, b, in_window in _window_pieces(
                self.window, seg_input.shape[0], offset
            ):
                (module.threshold, module.leak,
                 module.refractory_steps, module.mode) = faulty if in_window else saved
                pieces.append(run(tiled[a:b], state=state))
        finally:
            module.threshold, module.leak, module.refractory_steps, module.mode = saved
        self._store_state(rows, state)
        out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        return out  # (T, R, *neuron_shape)

    def _run_synapse_k(
        self, rows: np.ndarray, seg_input: np.ndarray, offset: int
    ) -> np.ndarray:
        module = self.module
        params = module.parameters()
        # astype always copies, so this both detaches the broadcast view
        # and lands the stacks in the group's compute dtype.
        stacks = [
            np.broadcast_to(p.data, (len(rows),) + p.data.shape).astype(self.dtype)
            for p in params
        ]
        for j, row in enumerate(rows):
            pidx, widx, value = self.syn[row]
            stacks[pidx][j].reshape(-1)[widx] = value
        tiled = np.tile(seg_input, (1, len(rows)) + (1,) * (seg_input.ndim - 2))
        state = self._module_state(rows)
        run = (
            module.run_sequence_kbatched_fused
            if self.campaign.simulator.fused and _supports_kbatched_fused(module)
            else module.run_sequence_kbatched
        )
        if self.window is None:
            out = run(tiled, stacks, state=state)
        else:
            nominal = [
                np.broadcast_to(
                    p.data if p.data.dtype == self.dtype else p.data.astype(self.dtype),
                    (len(rows),) + p.data.shape,
                )
                for p in params
            ]
            pieces = [
                run(tiled[a:b], stacks if in_window else nominal, state=state)
                for a, b, in_window in _window_pieces(
                    self.window, seg_input.shape[0], offset
                )
            ]
            out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        self._store_state(rows, state)
        return out

    def _run_synapse_seq(
        self, rows: np.ndarray, seg_input: np.ndarray, offset: int
    ) -> np.ndarray:
        (row,) = rows
        fault = self.campaign.faults[self.indices[row]]
        state = self._module_state(rows)
        if fault.window is None:
            with inject(self.campaign.simulator.network, fault, self.campaign.config):
                out = self.module.run_sequence_numpy(seg_input, state=state)
        else:
            # Transient: swap the single weight at the window boundaries,
            # carrying the LIF state through each piece.
            params = self.module.parameters()
            weights = params[fault.parameter_index].data
            faulty = synapse_fault_value(weights, fault, self.campaign.config)
            flat = weights.reshape(-1)
            previous = flat[fault.weight_index]
            pieces: List[np.ndarray] = []
            try:
                for a, b, in_window in _window_pieces(
                    fault.window, seg_input.shape[0], offset
                ):
                    flat[fault.weight_index] = faulty if in_window else previous
                    pieces.append(
                        self.module.run_sequence_numpy(seg_input[a:b], state=state)
                    )
            finally:
                flat[fault.weight_index] = previous
            out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        self._store_state(rows, state)
        return out

    def _run_delay(self, rows: np.ndarray, gseg: _GoldenSegment, offset: int):
        """Delayed-output rows: the module itself runs nominally (the golden
        pass already did), so the faulty trace is the golden trace of the
        row's neuron time-shifted by its delay, with the tail of the
        previous segments carried in ``self.hist``."""
        golden = gseg.outputs[self.module_index]
        steps = golden.shape[0]
        traces = golden.reshape(steps, -1)[:, self.neuron_idx[rows]]  # (T, R)
        out = traces.copy()
        hist = self.hist
        for j, row in enumerate(rows):
            d = int(self.delays[row])
            ext = np.concatenate([hist[row, self.hist_len - d:], traces[:, j]])
            delayed = ext[:steps]
            if self.window is None:
                out[:, j] = delayed
            else:
                for a, b, in_window in _window_pieces(self.window, steps, offset):
                    if in_window:
                        out[a:b, j] = delayed[a:b]
        # Advance the history tails past this segment (active rows only —
        # dropped rows never run again, so their stale tails are harmless).
        if steps >= self.hist_len:
            hist[rows] = traces[steps - self.hist_len:].T
        else:
            for j, row in enumerate(rows):
                rolled = np.concatenate([hist[row], traces[:, j]])
                hist[row] = rolled[-self.hist_len:]
        same = np.array(
            [np.array_equal(out[:, j], traces[:, j]) for j in range(len(rows))]
        )
        return same, self._splice_materialize(gseg, rows, out, traces)

    # ------------------------------------------------------------------
    # Downstream propagation with golden-entry seeding
    # ------------------------------------------------------------------
    def _down_stateful(self) -> List[bool]:
        if self._down_stateful_cache is None:
            self._down_stateful_cache = [
                dm.init_state(1) is not None for dm in self.downstream
            ]
        return self._down_stateful_cache

    def _seed_row(self, row: int, gseg: _GoldenSegment) -> None:
        """Create a diverging row's downstream state from the golden entry
        states of this segment — until now the row's cross-section was
        bit-identical to golden, so the golden entry IS its state."""
        slots: List[Optional[Dict[str, np.ndarray]]] = []
        for dj, stateful in enumerate(self._down_stateful()):
            if not stateful:
                slots.append(None)
            else:
                entry = gseg.entry_states[self.module_index + 1 + dj]
                # astype copies; in a float32 group the golden entry state
                # is downcast once at the seed point (rounding there is the
                # same class of float32 error the margin guard bounds).
                slots.append({
                    "pot": entry.potential[0].astype(self.dtype),
                    "spk": entry.last_spike[0].astype(self.dtype),
                    "ref": entry.refractory[0].copy(),
                })
        self.dstates[row] = slots

    def _run_downstream(
        self, module_out: np.ndarray, rows: np.ndarray, gseg: _GoldenSegment
    ) -> np.ndarray:
        """Propagate ``rows``' faulty module outputs through the downstream
        modules, seeding newly diverged rows from the golden entry states.

        Downstream state is stored per diverged row (``self.dstates`` maps
        row -> per-module state dicts), not as dense ``(k, ...)`` arrays:
        only diverged-and-undropped rows need it, and with fault dropping
        those are freed the moment the fault is detected, so group memory
        stays proportional to the live divergence front."""
        for row in rows:
            if not self.diverged[row]:
                self._seed_row(int(row), gseg)
        self.diverged[rows] = True
        fused = self.campaign.simulator.fused
        current = module_out
        # Splice/delay rows materialize from the float64 golden cache, so
        # a float32 group casts once here before propagating downstream.
        if current.dtype != self.dtype:
            current = current.astype(self.dtype)
        for dj in range(self.entry, len(self.downstream)):
            dm = self.downstream[dj]
            if not self._down_stateful()[dj]:
                current = (
                    dm.run_sequence_fused(current)
                    if fused
                    else dm.run_sequence_numpy(current)
                )
                continue
            state = LIFState(
                potential=np.stack(
                    [self.dstates[int(r)][dj]["pot"] for r in rows]
                ),
                last_spike=np.stack(
                    [self.dstates[int(r)][dj]["spk"] for r in rows]
                ),
                refractory=np.stack(
                    [self.dstates[int(r)][dj]["ref"] for r in rows]
                ),
            )
            current = (
                dm.run_sequence_fused(current, state=state)
                if fused
                else dm.run_sequence_numpy(current, state=state)
            )
            pot = np.asarray(state.potential)
            spk = np.asarray(state.last_spike)
            ref = np.asarray(state.refractory)
            for j, r in enumerate(rows):
                slot = self.dstates[int(r)][dj]
                slot["pot"] = pot[j].copy()
                slot["spk"] = spk[j].copy()
                slot["ref"] = ref[j].copy()
        return current.reshape(current.shape[0], current.shape[1], -1)

    # ------------------------------------------------------------------
    def step(self, segment_index: int, gseg: _GoldenSegment) -> None:
        """Advance every active fault of this group through one segment."""
        self._ensure_state()
        campaign = self.campaign
        offset = campaign.segment_offsets[segment_index]
        has_down = bool(self.downstream)
        seg_input = gseg.module_input(self.module_index)
        if self.kind in ("neuron", "synapse_k") and seg_input.dtype != self.dtype:
            # Float32 groups drive the faulty module with float32 inputs;
            # the golden cache itself always stays float64.
            seg_input = seg_input.astype(self.dtype)
        golden_out = gseg.outputs[self.module_index]  # (T, 1, *neuron_shape)
        for rows in self._batches():
            if self.kind == "splice":
                same, materialize = self._run_splice(rows, gseg, offset)
            elif self.kind == "synapse_splice":
                same, materialize = self._run_synapse_splice(rows, gseg, offset)
            elif self.kind == "delay":
                same, materialize = self._run_delay(rows, gseg, offset)
            else:
                if self.kind == "neuron":
                    out = self._run_neuron(rows, seg_input, offset)
                elif self.kind == "synapse_k":
                    out = self._run_synapse_k(rows, seg_input, offset)
                else:
                    out = self._run_synapse_seq(rows, seg_input, offset)
                same = np.array(
                    [np.array_equal(out[:, j], golden_out[:, 0]) for j in range(len(rows))]
                )

                def materialize(positions: List[int], _out=out) -> np.ndarray:
                    return _out[:, positions]

            if campaign.divergence_exit:
                # A row may exit only while its whole cross-section is still
                # golden: module output identical this segment AND downstream
                # state untouched.  Skipped rows contribute exactly zero.
                need = [
                    j for j, row in enumerate(rows)
                    if not same[j] or (has_down and self.diverged[row])
                ]
            else:
                need = list(range(len(rows)))
            if need:
                sub = rows[np.asarray(need)]
                module_out = materialize(need)
                if has_down:
                    outs = self._run_downstream(module_out, sub, gseg)
                else:
                    outs = module_out.reshape(
                        module_out.shape[0], module_out.shape[1], -1
                    )
                for j, row in enumerate(sub):
                    campaign.record(self.indices[row], outs[:, j], gseg)
            campaign.tracker.tick(len(rows))
            if campaign.drop_detected:
                remaining = campaign.n_segments - 1 - segment_index
                for row in rows:
                    if campaign.detected[self.indices[row]] and self.active[row]:
                        self.active[row] = False
                        self.dstates.pop(int(row), None)
                        if remaining:
                            campaign.tracker.tick(remaining)

    # ------------------------------------------------------------------
    # Checkpoint support (mid-campaign partial state)
    # ------------------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        self._ensure_state()
        arrays = {
            "grp.active": self.active,
            "grp.diverged": self.diverged,
            "grp.pot": self.pot,
            "grp.spk": self.spk,
            "grp.ref": self.ref,
        }
        if self.kind == "delay":
            arrays["grp.hist"] = self.hist
        if self.dstates:
            # Sparse downstream state: the row list plus, per stateful
            # downstream module, the rows' states stacked in row order.
            drows = sorted(self.dstates)
            arrays["grp.drows"] = np.asarray(drows, dtype=np.int64)
            for dj, stateful in enumerate(self._down_stateful()):
                if not stateful:
                    continue
                for field in ("pot", "spk", "ref"):
                    arrays[f"grp.d{dj}.{field}"] = np.stack(
                        [self.dstates[row][dj][field] for row in drows]
                    )
        return arrays

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self._ensure_state()
        try:
            self.active[...] = arrays["grp.active"]
            self.diverged[...] = arrays["grp.diverged"]
            self.pot[...] = arrays["grp.pot"]
            self.spk[...] = arrays["grp.spk"]
            self.ref[...] = arrays["grp.ref"]
            if self.kind == "delay":
                self.hist[...] = arrays["grp.hist"]
            self.dstates = {}
            if "grp.drows" in arrays:
                for i, row in enumerate(arrays["grp.drows"]):
                    slots: List[Optional[Dict[str, np.ndarray]]] = []
                    for dj, stateful in enumerate(self._down_stateful()):
                        if not stateful:
                            slots.append(None)
                        else:
                            slots.append({
                                field: np.array(arrays[f"grp.d{dj}.{field}"][i])
                                for field in ("pot", "spk", "ref")
                            })
                    self.dstates[int(row)] = slots
        except (KeyError, ValueError, IndexError) as exc:
            raise CheckpointError(
                f"segment checkpoint does not match this campaign: {exc}"
            ) from exc


class SegmentedDetectionCampaign:
    """Drives the segment-wise detection campaign for one fault list.

    Groups are processed one at a time (group-outer loop); each group gets
    its own :class:`GoldenSegmentRunner`, so at most one group's segment
    tensors and golden cache are live at once and a mid-campaign
    checkpoint only carries one group's state.  The golden re-runs this
    costs (one fault-free pass per group per segment) are negligible next
    to the thousands of faulty rows each group simulates.
    """

    def __init__(
        self,
        simulator,
        stimulus,
        faults: Sequence,
        *,
        drop_detected: bool = True,
        divergence_exit: bool = True,
        compact_batches: bool = True,
        progress=None,
        tracker: Optional[_ProgressTracker] = None,
        segment_hook=None,
        resume_state=None,
        store=None,
    ) -> None:
        self.simulator = simulator
        self.stimulus = stimulus
        self.faults = list(faults)
        self.config = simulator.config
        self.drop_detected = drop_detected
        self.divergence_exit = divergence_exit
        self.compact_batches = compact_batches
        self.segment_hook = segment_hook
        self.n_segments = stimulus.num_segments
        # Prefix digests of the stimulus segments: the store keys hang off
        # them, the parallel frontend cross-checks them against worker
        # payloads, and the result carries them for downstream reuse.
        self.segment_digests = stimulus_chain(stimulus)
        self.session: Optional[StoreSession] = None
        if store is not None:
            self.session = StoreSession(
                store,
                simulator,
                stimulus,
                drop_detected=drop_detected,
                divergence_exit=divergence_exit,
                compact_batches=compact_batches,
                chain=self.segment_digests,
            )
        # Absolute test time of each segment's first step — transient
        # windows are expressed in absolute time, so the piecewise runs
        # need to know where each segment sits in the assembled test.
        durations = list(stimulus.segment_durations)
        self.segment_offsets = [0] * len(durations)
        for i in range(1, len(durations)):
            self.segment_offsets[i] = self.segment_offsets[i - 1] + durations[i - 1]
        n = len(self.faults)
        classes = simulator.network.num_classes
        self.detected = np.zeros(n, dtype=bool)
        self.output_l1 = np.zeros(n)
        # Signed per-class count deltas accumulate across segments; the
        # reported metric is their absolute value at the end.
        self.counts_delta = np.zeros((n, classes))
        self.tracker = tracker if tracker is not None else _ProgressTracker(
            progress, n * self.n_segments
        )
        self.f32_groups = 0
        self.f32_fallbacks = 0
        # Event-driven dispatch counters.  The shared set only accumulates
        # faulty-row work — exactly once per (fault, segment) — plus the
        # static sleep-segment census below; the per-group golden re-runs
        # use throwaway counters so stats stay identical whether a group's
        # golden pass ran, re-ran after a gate trip, was seeked over on
        # resume, or was answered from the coverage store.
        self.stats = (
            DispatchStats() if simulator.event_mode != "off" else None
        )
        self.layer_names = dispatch_layer_names(simulator.network.modules)
        if self.stats is not None:
            for index in range(self.n_segments):
                seg = stimulus.segment(index)
                if seg.shape[0] and not seg[-1].any():
                    self.stats.note_sleep()
        self.groups = self._build_groups()
        self._start_group = 0
        self._start_segment = 0
        self._resumed = resume_state is not None
        if resume_state is not None:
            self._restore(resume_state)

    # ------------------------------------------------------------------
    def _build_groups(self) -> List[_FaultGroup]:
        # Batched groups must share one activity window (and, for neuron
        # faults, one execution family): the piecewise segment runs swap
        # parameters for the whole batch at once.  Sequential synapse
        # groups handle per-fault windows internally (batch size 1).
        simulator = self.simulator
        network = simulator.network
        neuron_map: Dict[Tuple, List[int]] = {}
        synapse_splice_map: Dict[Tuple, List[int]] = {}
        synapse_k_map: Dict[Tuple, List[int]] = {}
        synapse_seq_map: Dict[int, List[int]] = {}
        for idx, fault in enumerate(self.faults):
            if fault.module_index >= len(network.modules):
                raise FaultModelError(f"{fault.describe()}: module index out of range")
            if fault.is_neuron:
                family = "delay" if fault.kind is NeuronFaultKind.DELAY else "param"
                key = (fault.module_index, family, fault.window)
                neuron_map.setdefault(key, []).append(idx)
            elif (
                simulator.fused
                and simulator.synapse_batch > 1
                and simulator.synapse_splice
                and _supports_synapse_splice(network.modules[fault.module_index])
            ):
                synapse_splice_map.setdefault(
                    (fault.module_index, fault.window), []
                ).append(idx)
            elif simulator.synapse_batch > 1 and _supports_kbatched(
                network.modules[fault.module_index]
            ):
                synapse_k_map.setdefault(
                    (fault.module_index, fault.window), []
                ).append(idx)
            else:
                synapse_seq_map.setdefault(fault.module_index, []).append(idx)

        def _wkey(window):
            return (-1, -1) if window is None else tuple(window)

        groups: List[_FaultGroup] = []
        for (module_index, family, window), indices in sorted(
            neuron_map.items(), key=lambda kv: (kv[0][0], kv[0][1], _wkey(kv[0][2]))
        ):
            if family == "delay":
                kind = "delay"
            else:
                module = network.modules[module_index]
                kind = (
                    "splice"
                    if simulator.neuron_splice and _supports_splice(module)
                    else "neuron"
                )
            groups.append(
                _FaultGroup(self, kind, module_index, indices, window=window)
            )
        for (module_index, window), indices in sorted(
            synapse_splice_map.items(), key=lambda kv: (kv[0][0], _wkey(kv[0][1]))
        ):
            groups.append(
                _FaultGroup(
                    self, "synapse_splice", module_index, indices, window=window
                )
            )
        for (module_index, window), indices in sorted(
            synapse_k_map.items(), key=lambda kv: (kv[0][0], _wkey(kv[0][1]))
        ):
            groups.append(
                _FaultGroup(self, "synapse_k", module_index, indices, window=window)
            )
        for module_index, indices in sorted(synapse_seq_map.items()):
            groups.append(_FaultGroup(self, "synapse_seq", module_index, indices))
        return groups

    # ------------------------------------------------------------------
    def record(self, fault_idx: int, out_flat: np.ndarray, gseg: _GoldenSegment) -> None:
        diff = np.abs(out_flat - gseg.out_flat).sum()
        self.output_l1[fault_idx] += diff
        self.counts_delta[fault_idx] += out_flat.sum(axis=0) - gseg.counts
        if diff > 0:
            self.detected[fault_idx] = True

    # ------------------------------------------------------------------
    # Float32 campaign mode (per-group, gated)
    # ------------------------------------------------------------------
    def _dtype_probe(self) -> np.ndarray:
        """Segment-wise counterpart of :meth:`FaultSimulator._dtype_probe`:
        advance a float64 and a float32 golden runner in lockstep and
        require bit-equal module outputs on *every* segment.  ``safe[m]``
        is True when every module from ``m`` on reproduced its golden
        output across the whole test."""
        network = self.simulator.network
        reference = GoldenSegmentRunner(network, fused=True)
        with compute_dtype_context(network.modules, np.float32):
            probe = GoldenSegmentRunner(network, fused=True)
        n = len(network.modules)
        equal = np.ones(n, dtype=bool)
        for index in range(self.n_segments):
            seg = self.stimulus.segment(index)
            ref_out = reference.run_segment(seg).outputs
            with compute_dtype_context(network.modules, np.float32):
                probe_out = probe.run_segment(seg.astype(np.float32)).outputs
            for m in range(n):
                equal[m] &= np.array_equal(ref_out[m], probe_out[m])
        safe = np.ones(n + 1, dtype=bool)
        for m in range(n - 1, -1, -1):
            safe[m] = safe[m + 1] and equal[m]
        return safe

    def _snapshot_group(self, group: _FaultGroup) -> Dict[str, Any]:
        idx = np.asarray(group.indices)
        return {
            "idx": idx,
            "detected": self.detected[idx].copy(),
            "l1": self.output_l1[idx].copy(),
            "counts": self.counts_delta[idx].copy(),
            "ticks": self.tracker.done,
            "dispatch": self.stats.copy() if self.stats is not None else None,
        }

    def _rollback_group(self, group_index: int, saved: Dict[str, Any]) -> None:
        """Undo a tripped float32/event attempt: restore the group's slice
        of every campaign accumulator (dispatch counters included), rewind
        the progress counter (re-fired progress values are non-strictly
        monotone across the re-run), and rebuild the group with fresh
        float64 state."""
        idx = saved["idx"]
        self.detected[idx] = saved["detected"]
        self.output_l1[idx] = saved["l1"]
        self.counts_delta[idx] = saved["counts"]
        self.tracker.done = saved["ticks"]
        if saved.get("dispatch") is not None:
            self.stats.restore(saved["dispatch"])
        old = self.groups[group_index]
        self.groups[group_index] = _FaultGroup(
            self, old.kind, old.module_index, old.indices, window=old.window
        )

    def _apply_hit(self, group: _FaultGroup, hit) -> int:
        """Splice a cached store record into the campaign accumulators and
        return the first segment index that still needs computing.

        A full hit (no carried state: the record was written at the final
        segment of its run) finishes the group outright.  A partial hit
        restores the group's mid-campaign state so the loop resumes at the
        following segment.  Either way the progress ticks are accounted as
        if the skipped segments had run, keeping tracker totals at ``k*n``
        per group."""
        idx = np.asarray(group.indices)
        arrays, meta = hit.arrays, hit.meta
        try:
            self.detected[idx] = arrays["res.detected"]
            self.output_l1[idx] = arrays["res.l1"]
            self.counts_delta[idx] = arrays["res.counts"]
        except (KeyError, ValueError) as exc:
            raise StoreError(
                f"coverage record does not match this group: {exc}"
            ) from exc
        k = len(group.indices)
        n = self.n_segments
        if not meta.get("has_state"):
            group.active[:] = False
            self.tracker.tick(k * n)
            return n
        try:
            group.restore_arrays(arrays)
        except CheckpointError as exc:
            raise StoreError(str(exc)) from exc
        live = int(group.active.sum())
        s = int(meta["segment"])
        # Live rows owe the remaining n-(s+1) segments; dropped/diverged
        # rows were already charged their full n in the record's run.
        self.tracker.tick(live * (s + 1) + (k - live) * n)
        return s + 1

    def _f32_eligible(self, group: _FaultGroup, safe_from) -> bool:
        if safe_from is None or not safe_from[group.module_index]:
            return False
        if group.kind == "synapse_seq":
            # The sequential reference path stays float64 by definition.
            return False
        if group.kind == "synapse_k" and not _supports_kbatched_fused(group.module):
            return False
        return True

    # ------------------------------------------------------------------
    def run(self) -> DetectionResult:
        start = time.perf_counter()
        simulator = self.simulator
        network = simulator.network
        modules = network.modules
        # Checkpointing (segment_hook / resume) snapshots raw group state,
        # so those campaigns stay float64: a checkpoint must never carry a
        # half-finished float32 attempt that a resume could not re-gate.
        safe_from = None
        if (
            simulator.dtype == np.float32
            and self.segment_hook is None
            and not self._resumed
        ):
            safe_from = self._dtype_probe()
        stats = self.stats
        # Guarded (gather-kernel) event attempts follow the float32
        # carve-out: a checkpoint must never carry a half-finished guarded
        # attempt that a resume could not re-gate, so hook/resumed
        # campaigns keep only the bit-exact dispatch tiers.
        event_guard_ok = (
            stats is not None
            and self.segment_hook is None
            and not self._resumed
        )
        session = self.session
        for group_index in range(self._start_group, len(self.groups)):
            group = self.groups[group_index]
            use_f32 = self._f32_eligible(group, safe_from)
            use_event = event_guard_ok
            gdigest = session.group_digest(self, group) if session is not None else None
            ckpt_segment = 0
            if group_index == self._start_group and self._start_segment:
                ckpt_segment = self._start_segment
            while True:
                group.dtype = np.dtype(np.float32 if use_f32 else np.float64)
                # Per-attempt guard wiring: a float32 attempt guards both
                # relaxations with one real SpikeMargin (its 1e-4 band
                # dominates the event gate's 1e-9); an event-only attempt
                # uses a lazy margin that only observes once a guarded
                # gather kernel has run; everything else gets the exact
                # zero/dense tiers and needs no guard at all.
                events = None
                margin = None
                if use_f32:
                    margin = SpikeMargin()
                    if stats is not None:
                        events = EventDispatch(
                            simulator.event_mode,
                            simulator.event_threshold,
                            stats=stats,
                        )
                elif use_event:
                    events = EventDispatch(
                        simulator.event_mode, simulator.event_threshold, stats=stats
                    )
                    margin = LazyMargin(events)
                elif stats is not None:
                    events = simulator._exact_dispatch(stats)
                guarded = use_f32 or use_event
                # Snapshot before any store hit is applied, so a tripped
                # guard rolls back to the pristine group (counters
                # included) and the exact re-run starts from segment zero.
                saved = self._snapshot_group(group) if guarded else None
                hit = None
                if session is not None and ckpt_segment == 0:
                    hit = session.lookup_group(self, group, gdigest, str(group.dtype))
                first_segment = ckpt_segment
                if hit is not None:
                    first_segment = self._apply_hit(group, hit)
                # The golden re-run is per (group, attempt), so it counts
                # into a throwaway set — the shared counters only ever see
                # each (fault, segment) once (resume/store stability).
                golden_events = (
                    simulator._exact_dispatch(DispatchStats())
                    if stats is not None
                    else None
                )
                if session is not None:
                    golden = _SessionGoldenRunner(
                        session, network, simulator.fused, golden_events
                    )
                else:
                    golden = _PlainGoldenRunner(
                        network, simulator.fused, golden_events
                    )
                # Guarded attempts buffer their records until the gate
                # passes; a tripped attempt must leave no trace in the
                # store (its results are discarded, not merely imprecise).
                pending = []
                if first_segment and first_segment < self.n_segments and not group.done:
                    golden.seek(self.stimulus, first_segment)
                for segment_index in range(first_segment, self.n_segments):
                    if group.done:
                        break
                    gseg = golden.run_segment(
                        segment_index, self.stimulus.segment(segment_index)
                    )
                    if use_f32:
                        # Only the faulty rows run in float32 — the golden
                        # runner above stays outside the dtype context.
                        with compute_dtype_context(modules, np.float32, margin):
                            with event_dispatch_context(modules, events):
                                group.step(segment_index, gseg)
                        if margin.min < FLOAT32_GUARD_MARGIN:
                            break  # fail fast; rolled back below
                    else:
                        with event_dispatch_context(modules, events, margin=margin):
                            group.step(segment_index, gseg)
                        if (
                            use_event
                            and events.used_event
                            and margin.min < EVENT_GUARD_MARGIN
                        ):
                            break  # fail fast; rolled back below
                    if session is not None:
                        staged = session.stage_group(self, group, gdigest, segment_index)
                        if staged is not None:
                            pending.append(staged)
                    if self.segment_hook is not None:
                        self.segment_hook(self, group_index, segment_index)
                tripped = (use_f32 and margin.min < FLOAT32_GUARD_MARGIN) or (
                    use_event
                    and events.used_event
                    and margin.min < EVENT_GUARD_MARGIN
                )
                if tripped:
                    self._rollback_group(group_index, saved)
                    group = self.groups[group_index]
                    if use_f32:
                        self.f32_fallbacks += 1
                    if stats is not None and events is not None and events.used_event:
                        stats.note_fallback()
                    use_f32 = False
                    use_event = False
                    continue
                if use_f32:
                    self.f32_groups += 1
                if session is not None:
                    for key, payload in pending:
                        session.store.put_bytes(key, payload)
                break
            group.release()
        self.tracker.finish()
        return DetectionResult(
            faults=list(self.faults),
            detected=self.detected.copy(),
            output_l1=self.output_l1.copy(),
            class_count_diff=np.abs(self.counts_delta),
            wall_time=time.perf_counter() - start,
            dtype=str(simulator.dtype),
            f32_groups=self.f32_groups,
            f32_fallbacks=self.f32_fallbacks,
            segment_digests=list(self.segment_digests),
            dispatch=stats.as_dict() if stats is not None else None,
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def export_state(
        self, group_index: int, segment_index: int
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Snapshot after (group, segment) finished, for a mid-campaign
        checkpoint.  Golden runner state is never serialized — it is
        reconstructed deterministically on resume by replaying the golden
        segments up to the restart point."""
        arrays: Dict[str, np.ndarray] = {
            "res.detected": self.detected,
            "res.l1": self.output_l1,
            "res.counts": self.counts_delta,
        }
        if self.stats is not None:
            arrays["res.dispatch"] = self.stats.to_vector(self.layer_names)
        meta: Dict[str, Any] = {
            "group": group_index,
            "segment": segment_index,
            "n_groups": len(self.groups),
            "n_segments": self.n_segments,
            "ticks": self.tracker.done,
        }
        if segment_index + 1 < self.n_segments:
            arrays.update(self.groups[group_index].export_arrays())
        return arrays, meta

    def _restore(self, state) -> None:
        arrays, meta = state
        if (
            int(meta.get("n_groups", -1)) != len(self.groups)
            or int(meta.get("n_segments", -1)) != self.n_segments
        ):
            raise CheckpointError(
                "segment checkpoint does not match this campaign "
                f"(groups {meta.get('n_groups')} vs {len(self.groups)}, "
                f"segments {meta.get('n_segments')} vs {self.n_segments})"
            )
        try:
            self.detected[...] = arrays["res.detected"]
            self.output_l1[...] = arrays["res.l1"]
            self.counts_delta[...] = arrays["res.counts"]
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"segment checkpoint does not match this campaign: {exc}"
            ) from exc
        self.tracker.done = int(meta["ticks"])
        if self.stats is not None and "res.dispatch" in arrays:
            self.stats = DispatchStats.from_vector(
                arrays["res.dispatch"], self.layer_names
            )
        group_index = int(meta["group"])
        segment_index = int(meta["segment"])
        if segment_index + 1 >= self.n_segments:
            self._start_group = group_index + 1
            self._start_segment = 0
        else:
            self._start_group = group_index
            self._start_segment = segment_index + 1
            self.groups[group_index].restore_arrays(arrays)
