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
The engine runs the production engine's fused kernels only; given the
per-step oracle (``FaultSimulator(fused=False)``),
:meth:`FaultSimulator.detect_segmented` raises.  Its reference is the
oracle's flat :meth:`FaultSimulator.detect` on the assembled stimulus,
which the differential suites compare it against bit for bit.

The LIF update is a per-step recurrence in ``(potential, last_spike,
refractory)``, so splitting the time loop at any step and resuming from
the carried state is bit-identical to the unsplit run — the sleep gap
*decays* the membrane state but never zeroes it, so state carry across
segment boundaries is required, not an optimisation.  Six further
transformations are applied, all exact:

- **Fault dropping** (``drop_detected``): detection is monotone in
  segments — once a fault's output diverges on some segment, the
  ``detected`` flag is final — so detected faults are dropped from all
  later segments.  ``output_l1`` / ``class_count_diff`` then only cover
  segments up to first detection: they equal the flat metrics on the
  stimulus cut at the end of that segment (on the whole stimulus for a
  fault never detected).  Campaigns that need the exact Fig. 9 metrics
  run with ``drop_detected=False`` and get every array bit-identical to
  the assembled campaign.
- **Divergence-bounded propagation** (always on): if the faulty module's
  segment output is bit-identical to golden *and* the fault's downstream
  state is still golden, the downstream modules would reproduce the
  golden output exactly, so the propagation is skipped and the segment
  contributes zero to every metric.  Once a fault diverges, its
  downstream modules are seeded from copies of the golden states at
  segment entry and carried privately from then on.
- **Batch compaction** (always on): surviving faults are re-packed into
  full K-batches each segment.  Per-row results are independent of batch
  composition (the elementwise-update property the batched-equivalence
  suites pin), so compaction never changes results.
- **Footprint packing**: splice-style rows of a conv layer that feeds a
  sum pool and then a conv layer change one cell of that conv's input
  each; rows whose reach in it is disjoint share one conv run, and each
  row keeps its own carried state (see :meth:`_FaultGroup._run_packed`).
- **Channel packing**: a conv synapse fault on kernel entry
  ``(f, c, i, j)`` changes only output channel ``f``, so faults on
  distinct filters share one weight copy and one LIF scan; each row keeps
  its own carried state and leaves with the golden output, its own
  channel in place (see :meth:`_FaultGroup._run_channels`).
- **Wide mini-LIFs**: splice-style rows are independent, so each group
  scans them once per segment (and window piece) over all active rows;
  comparison, materialization and propagation keep the row-order batches.

Metric accumulation across segments is also exact: spike trains are
0.0/1.0 floats, so L1 distances and per-class spike counts are
integer-valued float64 sums far below 2^53 — per-segment accumulation,
a batch of rows at a time, equals each row's whole-test sum bit for bit.

Memory
------
Peak memory is one segment's currents and spikes for one K-batch (the
longest chunk and its sleep gap, not ``T_test``) plus per-fault carry
state: one LIF state per fault for the faulty module and, only after
divergence, one per downstream spiking module.  The downstream states sit
in one slab per stateful downstream module, a slot per diverged row; a
dropped row's slot is reused, and the slabs double only when the live
divergence front outgrows them (:class:`_RowStates`).  Segments bound the
time axis but not the rows: the conv patch matrices of a segment are built
in cache-sized blocks (:func:`repro.autograd.functional.im2col_matmul`),
a K-batched synapse run reads the segment input untiled, and packed rows
hold only their footprint's conv spikes (footprint packing) or their own
channel, pooled when a sum pool follows (channel packing), between the
shared runs and their per-row tail.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultModelError, StoreError
from repro.faults.store import StoreSession, stimulus_chain
from repro.faults.model import NeuronFaultKind
from repro.faults.simulator import (
    DetectionResult,
    _perturbed_neuron_arrays,
    _perturbed_neuron_scalars,
    _ProgressTracker,
    _supports_splice,
    _supports_synapse_splice,
    _synapse_entries,
    _window_pieces,
)
from repro.snn.events import DispatchStats, EventDispatch
from repro.snn.layers import ConvLIF, SumPool, event_dispatch_context
from repro.snn.neuron import LIFState, lif_scan_numpy


class _GoldenSegment:
    """One segment's fault-free run: input, per-module outputs, and every
    module's state at segment *entry* (for seeding the downstream modules
    of a fault that diverges on this segment) and *exit* (the state of
    every neuron a packed row's fault cannot reach, see
    :meth:`_FaultGroup._run_packed` and :meth:`_FaultGroup._run_channels`)."""

    def __init__(self, seg: np.ndarray, outputs: List[np.ndarray],
                 entry_states: List, exit_states: List):
        self.input = seg
        self.outputs = outputs
        self.entry_states = entry_states
        self.exit_states = exit_states
        final = outputs[-1]
        self.out_flat = final.reshape(final.shape[0], -1)  # (T_seg, classes)
        self.counts = self.out_flat.sum(axis=0)

    def module_input(self, module_index: int) -> np.ndarray:
        return self.input if module_index == 0 else self.outputs[module_index - 1]


class GoldenSegmentRunner:
    """Advances the fault-free network one test segment at a time on the
    fused kernels, snapshotting module entry states before each segment.

    ``events`` optionally attaches a zero-skip dispatcher
    (:class:`repro.snn.events.EventDispatch`) to the fused kernels for
    the duration of each segment: sleep gaps and other all-zero stretches
    of a segment skip their GEMMs outright, bit-exactly."""

    def __init__(self, network, events=None) -> None:
        self.network = network
        self.events = events
        self.states = network.init_states(1)

    def run_segment(self, seg: np.ndarray) -> _GoldenSegment:
        entry = [s.copy() if s is not None else None for s in self.states]
        with event_dispatch_context(self.network.modules, self.events):
            outputs = self.network.run_modules(seg, states=self.states, fused=True)
        # The kernels rebind state arrays instead of writing into them, so
        # a shallow snapshot stays this segment's exit state.
        exit_states = [
            LIFState(s.potential, s.last_spike, s.refractory) if s is not None else None
            for s in self.states
        ]
        return _GoldenSegment(seg, outputs, entry, exit_states)

    def skip_segments(self, stimulus, count: int) -> None:
        """Replay ``count`` segments without keeping outputs (deterministic
        golden-state reconstruction when a store record resumes a group
        mid-test and the golden end-state record is missing).

        The replay still skips zero blocks, but on a throwaway counter
        set: golden work never counts into a campaign's dispatch stats."""
        events = EventDispatch() if self.events is not None else None
        with event_dispatch_context(self.network.modules, events):
            for index in range(count):
                self.network.run_modules(
                    stimulus.segment(index), states=self.states, fused=True
                )


class _PlainGoldenRunner:
    """Golden-runner adapter with the ``run_segment(index, seg)`` interface
    the campaign loop drives (the store-backed runner below shares it)."""

    def __init__(self, network, events=None) -> None:
        self.inner = GoldenSegmentRunner(network, events=events)

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
    """

    def __init__(self, session: StoreSession, network, events=None) -> None:
        self.session = session
        self.inner = GoldenSegmentRunner(network, events=events)

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
            gseg = _GoldenSegment(seg, outputs, self.inner.states, end_states)
            self.inner.states = end_states
            return gseg
        gseg = self.inner.run_segment(seg)
        self.session.store_golden(segment_index, gseg.outputs, self.inner.states)
        return gseg


#: Batch width for splice/delay rows: the rows compared, materialized
#: and propagated together (module-re-running kinds keep the configured
#: batch sizes).  A dense GEMM rounds a row by its place in
#: the batch, so this width fixes the downstream state that records
#: carry.  It also bounds the shared rows of one footprint-packed conv
#: run (see :meth:`_FaultGroup._run_packed`).  It no longer sets the
#: mini-LIF width: a group scans all its active rows at once.
_SPLICE_BATCH = 64

#: Kinds whose rows change one neuron's output trace without re-running
#: the faulty module.
_SPLICE_KINDS = ("splice", "synapse_splice", "delay")


class _ConvFootprints:
    """Where a change of one input cell of a conv layer can reach.

    The footprint of input location ``loc = r * W + c`` is the set of
    output positions whose receptive field holds it, in every output
    channel: ``mask[loc]`` over positions ``oh * W' + ow``.  ``pos[loc]``
    lists them, padded with position 0, and ``onehot[loc, i]`` maps slot
    ``i`` to its cell of the sum pool after the conv (``window``; the
    identity without one), all zero on padding; float32, which holds the
    small integer sums it forms exactly.  ``conflict[loc]`` is the bit set
    of locations whose footprint meets that of ``loc``."""

    def __init__(self, conv: ConvLIF, window: Optional[int]) -> None:
        channels, out_h, out_w = conv.neuron_shape
        height, width = conv.input_hw

        def covers(size_in: int, size_out: int) -> np.ndarray:
            start = np.arange(size_out) * conv.stride - conv.padding
            at = np.arange(size_in)[:, None]
            return (start <= at) & (at < start + conv.kernel)

        rows, cols = covers(height, out_h), covers(width, out_w)
        self.mask = (rows[:, None, :, None] & cols[None, :, None, :]).reshape(
            height * width, out_h * out_w
        )
        self.channels = channels
        self.locations = height * width
        sizes = self.mask.sum(axis=1)
        valid = np.arange(max(int(sizes.max()), 1)) < sizes[:, None]
        self.pos = np.zeros(valid.shape, dtype=np.int64)
        self.pos[valid] = np.nonzero(self.mask)[1]
        cell = np.arange(out_h * out_w)
        if window:
            oh, ow = np.divmod(cell, out_w)
            cell = (oh // window) * (out_w // window) + ow // window
        self.onehot = np.zeros(valid.shape + (int(cell.max()) + 1,), np.float32)
        loc, slot = np.nonzero(valid)
        self.onehot[loc, slot, cell[self.pos[loc, slot]]] = 1.0
        meets = self.mask.astype(float) @ self.mask.T.astype(float) > 0
        self.conflict = [
            int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(meets, axis=1, bitorder="little")
        ]


def _first_fit(locations: np.ndarray, conflict: List[int]) -> np.ndarray:
    """Pack index of each row, first fit in row order: a row joins the
    lowest pack that holds no row whose location conflicts with its own.
    ``conflict[loc]`` is the bit set of locations that conflict with
    ``loc``: footprints that meet (footprint packing), or the filter
    itself (channel packing)."""
    blocked: List[int] = []  # per pack: the locations its members shut out
    lowest: Dict[int, int] = {}  # per location: no lower pack can take it
    packs = np.empty(len(locations), dtype=np.int64)
    for j, loc in enumerate(locations.tolist()):
        p = lowest.get(loc, 0)
        while p < len(blocked) and blocked[p] >> loc & 1:
            p += 1
        if p == len(blocked):
            blocked.append(0)
        blocked[p] |= conflict[loc]
        lowest[loc] = packs[j] = p
    return packs


def _pack_runs(packs: np.ndarray, width: int):
    """Runs of at most ``width`` consecutive packs: per run, the rows it
    holds and each one's pack index within the run."""
    order = np.argsort(packs, kind="stable")
    ranked = packs[order]
    for lo in range(0, int(packs.max()) + 1, width):
        a, b = np.searchsorted(ranked, [lo, lo + width])
        sel = order[a:b]
        yield sel, packs[sel] - lo


#: The fields of a carried LIF state, in record order.
_FIELDS = (("pot", "potential"), ("spk", "last_spike"), ("ref", "refractory"))


class _RowStates:
    """The downstream LIF state of a group's diverged rows.

    Each stateful downstream module keeps one potential, one last-spike
    and one refractory slab (``slabs[dj]``, ``None`` for a stateless
    module), and ``slot[row]`` is a row's index into them, ``-1`` while it
    holds none.  A row takes a slot when it diverges and gives it back
    when it is dropped, so only diverged, undropped rows hold state.  The
    slabs double when the free slots run out: memory follows the live
    divergence front, never all ``k`` rows."""

    def __init__(self, modules: Sequence, rows: int) -> None:
        # Empty slabs: a batch-0 state has each module's shapes and dtypes.
        self.slabs: List[Optional[LIFState]] = [module.init_state(0) for module in modules]
        self.slot = np.full(rows, -1, dtype=np.int64)
        self.free: List[int] = []  # a stack: freed slots are reused first
        self.capacity = 0

    def _grow(self, need: int) -> None:
        capacity = max(need, 2 * self.capacity)
        for slab in self.slabs:
            if slab is None:
                continue
            # One field at a time: growing holds one old field beside the
            # new slabs, not a whole old state.
            for _key, name in _FIELDS:
                old = getattr(slab, name)
                grown = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                grown[: self.capacity] = old
                setattr(slab, name, grown)
        # New slots go under the freed ones, which are taken first.
        self.free[:0] = range(capacity - 1, self.capacity - 1, -1)
        self.capacity = capacity

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Give each of ``rows`` (holding none) a slot; returns the slots."""
        short = len(rows) - len(self.free)
        if short > 0:
            self._grow(self.capacity + short)
        cut = len(self.free) - len(rows)
        slots = np.array(self.free[cut:][::-1], dtype=np.int64)
        del self.free[cut:]
        self.slot[rows] = slots
        return slots

    def give_back(self, rows: np.ndarray) -> None:
        """Free the slots ``rows`` hold."""
        held = self.slot[rows]
        self.free.extend(held[held >= 0].tolist())
        self.slot[rows] = -1

    def gather(self, dj: int, slots: np.ndarray) -> LIFState:
        """Module ``dj``'s state of the rows at ``slots``, a copy."""
        slab = self.slabs[dj]
        return LIFState(*(getattr(slab, name)[slots] for _key, name in _FIELDS))

    def scatter(self, dj: int, slots: np.ndarray, state: LIFState) -> None:
        """Write ``state`` (``(R, ...)``, or one row to broadcast) to
        module ``dj``'s slabs at ``slots``."""
        slab = self.slabs[dj]
        for _key, name in _FIELDS:
            getattr(slab, name)[slots] = getattr(state, name)

    def export(self) -> Dict[str, np.ndarray]:
        """The held rows in row order and, per stateful module, their
        states stacked in that order (the record's ``grp.d*`` arrays)."""
        rows = np.flatnonzero(self.slot >= 0).astype(np.int64)
        if not rows.size:
            return {}
        arrays = {"grp.drows": rows}
        slots = self.slot[rows]
        for dj, slab in enumerate(self.slabs):
            if slab is not None:
                for key, name in _FIELDS:
                    arrays[f"grp.d{dj}.{key}"] = getattr(slab, name)[slots]
        return arrays

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        """Hold exactly the rows and states of an :meth:`export`."""
        self.give_back(np.flatnonzero(self.slot >= 0))
        if "grp.drows" not in arrays:
            return
        slots = self.take(np.asarray(arrays["grp.drows"], dtype=np.int64))
        for dj, slab in enumerate(self.slabs):
            if slab is not None:
                self.scatter(dj, slots, LIFState(*(
                    arrays[f"grp.d{dj}.{key}"] for key, _name in _FIELDS
                )))


class _FaultGroup:
    """All faults of one (kind, module) pair, simulated K rows at a time
    with per-row state carried across segments.

    ``kind`` selects the execution path:

    - ``"splice"`` — neuron faults in layers without lateral coupling: only
      the faulty neuron's mini-LIF is advanced per row, on the module's
      golden currents; rows that must propagate downstream enter it with
      the golden output and their neuron's trace spliced in — at pooled
      resolution when the module feeds a sum pool, and several rows per
      conv run when a conv layer follows the pool (see :meth:`_run_packed`).
    - ``"neuron"`` — neuron faults needing a full module re-run (recurrent
      layers).
    - ``"synapse_splice"`` — synapse faults in layers where one weight
      feeds exactly one neuron (dense fan-in): only the affected neuron's
      mini-LIF is advanced per row, driven by its column of one K-batched
      faulty product, exactly like ``"splice"``.
    - ``"synapse_k"`` — the other synapse faults, over K weight copies.
      Recurrent layers run one copy per row.  Conv layers run them
      channel-packed and splice-style: faults on distinct filters share
      one weight copy and one LIF scan, and each row leaves with the
      golden output, its own channel in place — at pooled resolution when
      the module feeds a sum pool (see :meth:`_run_channels`).  Their
      records are those of the per-row K-batched run byte for byte, so
      the kind keeps its name.
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
        # The campaign is passed to step() rather than kept: it holds its
        # groups, and a reference back would keep a finished campaign (its
        # store session and result arrays) alive until a cyclic collection.
        self.kind = kind
        self.module_index = module_index
        self.indices = np.asarray(indices, dtype=np.int64)
        self.window = window
        simulator = campaign.simulator
        network = simulator.network
        self.module = network.modules[module_index]
        self.downstream = network.modules[module_index + 1:]
        k = len(self.indices)
        self.active = np.ones(k, dtype=bool)
        self.diverged = np.zeros(k, dtype=bool)
        # The downstream state of diverged, undropped rows (see
        # _run_downstream), allocated with the other state arrays.
        self.down: Optional[_RowStates] = None
        group_faults = [campaign.faults[i] for i in self.indices.tolist()]
        shape = self.module.neuron_shape
        # Splice and delay rows carry (k, 1) scalar state and never re-run
        # the module, so they batch far wider than the module-re-running
        # kinds: wider batches amortize the per-call overhead of the trace
        # compares and the downstream runs of diverged rows (the mini-LIF
        # scans every active row at once).
        if kind == "splice":
            (self.neuron_idx, self.thr, self.leak, self.refr, self.mode) = \
                _perturbed_neuron_scalars(self.module, group_faults, simulator.config)
            # Nominal scalar columns drive the mini-LIF outside a window.
            self._nominal_scalars()
            state_shape: Tuple[int, ...] = (k, 1)  # K mini-LIF rows, batch 1
            self.batch_size = max(simulator.neuron_batch, _SPLICE_BATCH)
        elif kind == "synapse_splice":
            self.syn = _synapse_entries(self.module, group_faults, simulator.config)
            self.neuron_idx = self.module.synapse_fault_targets(self.syn)
            # Synapse faults leave the neuron parameters nominal; the fault
            # lives entirely in the current trace.
            self._nominal_scalars()
            state_shape = (k, 1)
            self.batch_size = max(simulator.synapse_batch, _SPLICE_BATCH)
        elif kind == "delay":
            self.neuron_idx = np.array(
                [f.neuron_index for f in group_faults], dtype=np.int64
            )
            self.delays = np.array([f.delay for f in group_faults], dtype=np.int64)
            self.hist_len = int(self.delays.max())
            state_shape = (k, 1)  # no LIF state needed; keep a tiny slab
            self.batch_size = max(simulator.neuron_batch, _SPLICE_BATCH)
        else:
            state_shape = (k,) + shape  # row axis doubles as module batch
            if kind == "neuron":
                self.params = _perturbed_neuron_arrays(
                    self.module, group_faults, simulator.config
                )
                self.batch_size = simulator.neuron_batch
            else:  # synapse_k
                self.syn = _synapse_entries(self.module, group_faults, simulator.config)
                self.batch_size = simulator.synapse_batch
        # Index of the first downstream module that _run_downstream runs.
        # Splice-style rows of a module feeding a sum pool materialize the
        # pool's output directly, so propagation starts after the pool.
        # When a conv layer follows the pool, the rows run it packed
        # (``packing``) and enter the per-row tail at ``tail``.
        self.entry = 0
        self.packing: Optional[_ConvFootprints] = None
        pooled = bool(self.downstream) and isinstance(self.downstream[0], SumPool)
        # Channel-packed conv synapse rows: each row's output channel.
        self.channel: Optional[np.ndarray] = None
        if kind == "synapse_k" and isinstance(self.module, ConvLIF):
            self.channel = np.unravel_index(
                [widx for _pidx, widx, _value in self.syn], self.module.weight.shape
            )[0]
            self.entry = int(pooled)
        if kind in _SPLICE_KINDS and pooled:
            pool = self.downstream[0]
            channel, row, col = np.unravel_index(self.neuron_idx, shape)
            self.cell_idx = np.ravel_multi_index(
                (channel, row // pool.window, col // pool.window),
                pool.output_shape(shape),
            )
            self.entry = 1
            if len(self.downstream) > 1 and isinstance(self.downstream[1], ConvLIF):
                after = self.downstream[2] if len(self.downstream) > 2 else None
                window = after.window if isinstance(after, SumPool) else None
                self.packing = _ConvFootprints(self.downstream[1], window)
                self.cell_loc = self.cell_idx % self.packing.locations
                self.tail = 3 if window else 2
        # State arrays are allocated lazily (and released when the group
        # finishes) so peak memory is bounded by the largest *single*
        # group, not the sum over all groups in the campaign.
        self._state_shape = state_shape
        self.pot: Optional[np.ndarray] = None
        self.spk: Optional[np.ndarray] = None
        self.ref: Optional[np.ndarray] = None
        self.hist: Optional[np.ndarray] = None  # (K, hist_len) delay tails

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
            self.pot = np.zeros(self._state_shape)
            self.spk = np.zeros(self._state_shape)
            self.ref = np.zeros(self._state_shape, dtype=np.int64)
        if self.kind == "delay" and self.hist is None:
            self.hist = np.zeros((len(self.indices), self.hist_len))
        if self.down is None:
            self.down = _RowStates(self.downstream, len(self.indices))

    def release(self) -> None:
        """Free the per-row state once the group has run its last segment
        (the small ``active``/``diverged`` masks stay for bookkeeping)."""
        self.pot = self.spk = self.ref = self.hist = self.down = None

    def _batches(self) -> List[np.ndarray]:
        """The active rows, compacted into full batches in row order."""
        rows = np.nonzero(self.active)[0]
        return [
            rows[lo : lo + self.batch_size]
            for lo in range(0, len(rows), self.batch_size)
        ]

    # ------------------------------------------------------------------
    # Faulty-module execution, one path per kind
    # ------------------------------------------------------------------
    def _module_state(self, rows: np.ndarray) -> LIFState:
        # Fancy indexing copies, so the LIF kernels' attribute reassignment
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

    def _mini_lif(self, rows: np.ndarray, offset: int, faulty: np.ndarray,
                  nominal: Optional[np.ndarray], faulty_params=None) -> np.ndarray:
        """Scan the rows' mini-LIFs, one scan per window piece: ``faulty``
        currents ``(T, R, 1)`` under ``faulty_params`` inside the window,
        ``nominal`` currents under the nominal scalar columns outside (and
        inside too when ``faulty_params`` is ``None``).  Returns the spike
        traces ``(T, R)``."""
        nominal_params = (
            self.nthr[rows][:, None], self.nleak[rows][:, None],
            self.nrefr[rows][:, None], self.nmode[rows][:, None],
        )
        if faulty_params is None:
            faulty_params = nominal_params
        reset_mode = self.module.params.reset_mode
        state = self._module_state(rows)
        traces = np.empty(faulty.shape)
        for a, b, in_window in _window_pieces(self.window, faulty.shape[0], offset):
            currents, params = (
                (faulty, faulty_params) if in_window else (nominal, nominal_params)
            )
            traces[a:b] = lif_scan_numpy(currents[a:b], state, *params, reset_mode)
        self._store_state(rows, state)
        return traces[:, :, 0]

    def _run_splice(self, rows: np.ndarray, gseg: _GoldenSegment, offset: int,
                    currents: np.ndarray):
        """Advance the faulty neurons' mini-LIF rows (every active row of
        the group, in one scan per window piece) on the module's golden
        currents ``(T, n)``; returns ``(same, traces, golden_traces)`` (see
        :meth:`_splice_compare`)."""
        golden = currents[:, self.neuron_idx[rows], None]  # (T, R, 1)
        faulty = (
            self.thr[rows][:, None], self.leak[rows][:, None],
            self.refr[rows][:, None], self.mode[rows][:, None],
        )
        traces = self._mini_lif(rows, offset, golden, golden, faulty)
        return self._splice_compare(gseg, rows, traces)

    def _splice_compare(self, gseg: _GoldenSegment, rows: np.ndarray,
                        traces: np.ndarray):
        """``(same, traces, golden_traces)`` for R spliced traces ``(T, R)``:
        ``same[j]`` when row ``j``'s trace equals its golden trace."""
        golden = gseg.outputs[self.module_index]
        golden_traces = golden.reshape(golden.shape[0], -1)[:, self.neuron_idx[rows]]
        return (traces == golden_traces).all(axis=0), traces, golden_traces

    def _splice_materialize(self, gseg: _GoldenSegment, rows: np.ndarray,
                            traces: np.ndarray, golden_traces: np.ndarray):
        """The golden output tiled over splice-style ``rows``, each with its
        faulty neuron trace spliced in: the rows' module output.

        With a sum pool next (``self.entry == 1``) the tile is the golden
        *pooled* output, and each row adds ``trace - golden_trace`` at its
        neuron's pooled cell.  Spike counts are small integers, so that
        equals pooling the spliced full-resolution tile exactly, without
        building it."""
        steps, m = traces.shape
        base = gseg.outputs[self.module_index + self.entry]
        base_flat = base.reshape(steps, -1)
        tiled = np.broadcast_to(
            base_flat[:, None, :], (steps, m, base_flat.shape[1])
        ).copy()
        at = (slice(None), np.arange(m))
        if self.entry:
            tiled[at + (self.cell_idx[rows],)] += traces - golden_traces
        else:
            tiled[at + (self.neuron_idx[rows],)] = traces
        return tiled.reshape((steps, m) + base.shape[2:])

    def _run_synapse_splice(self, rows: np.ndarray, gseg: _GoldenSegment,
                            offset: int, currents: Optional[np.ndarray]):
        """Advance the synapse-faulty neurons' mini-LIF rows (every active
        row of the group at once) under nominal neuron parameters: faulty
        currents (one K-batched product over full faulty weight copies)
        inside the fault window, the golden currents ``(T, n)`` outside —
        exactly as the K-batched path swaps weight stacks at the window
        boundaries."""
        seg_input = gseg.module_input(self.module_index)
        entries = [self.syn[row] for row in rows]
        faulty = self.module.synapse_splice_currents(seg_input, entries)  # (T, 1, R)
        faulty = faulty.transpose(0, 2, 1)  # (T, R, 1)
        nominal = None
        if currents is not None:
            nominal = currents[:, self.neuron_idx[rows], None]
        traces = self._mini_lif(rows, offset, faulty, nominal)
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
        pieces: List[np.ndarray] = []
        try:
            for a, b, in_window in _window_pieces(
                self.window, seg_input.shape[0], offset
            ):
                (module.threshold, module.leak,
                 module.refractory_steps, module.mode) = faulty if in_window else saved
                pieces.append(module.run_sequence_fused(tiled[a:b], state=state))
        finally:
            module.threshold, module.leak, module.refractory_steps, module.mode = saved
        self._store_state(rows, state)
        out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        return out  # (T, R, *neuron_shape)

    def _run_copies(self, rows: np.ndarray, copies: np.ndarray,
                    seg_input: np.ndarray, offset: int, state: LIFState) -> np.ndarray:
        """Run the module over full weight copies ``0..copies.max()``, each
        row's fault entry written into its copy ``copies[j]``: faulty
        copies inside the fault window, nominal ones outside, ``state``
        carried through.  Returns the output ``(T, copies, *neuron_shape)``."""
        module = self.module
        params = module.parameters()
        n = int(copies.max()) + 1
        stacks = [np.broadcast_to(p.data, (n,) + p.data.shape).copy() for p in params]
        for copy, row in zip(copies.tolist(), rows.tolist()):
            pidx, widx, value = self.syn[row]
            stacks[pidx][copy].reshape(-1)[widx] = value
        nominal = [np.broadcast_to(p.data, (n,) + p.data.shape) for p in params]
        # The K-batched kernel broadcasts the shared input over the copies.
        pieces = [
            module.run_sequence_kbatched_fused(
                seg_input[a:b], stacks if in_window else nominal, state=state
            )
            for a, b, in_window in _window_pieces(self.window, seg_input.shape[0], offset)
        ]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    def _run_synapse_k(
        self, rows: np.ndarray, seg_input: np.ndarray, offset: int
    ) -> np.ndarray:
        state = self._module_state(rows)
        out = self._run_copies(rows, np.arange(len(rows)), seg_input, offset, state)
        self._store_state(rows, state)
        return out

    def _run_channels(self, rows: np.ndarray, gseg: _GoldenSegment, offset: int):
        """Channel packing: conv synapse-fault ``rows``, many rows per
        weight copy.

        A fault on kernel entry ``(f, c, i, j)`` changes only output
        channel ``f``.  For a fixed shape, a GEMM's output row depends only
        on its own weight row and the patch matrix, and the LIF update is
        elementwise, so rows on distinct filters share one weight copy (the
        nominal weights with every member's faulty entry), entered from the
        golden entry state with each member's carried channel in place:
        one K-batched run over the copies gives every member's channel as
        if it ran alone.  Each member leaves with the golden exit state,
        its own channel from its copy.

        Rows are packed first fit in row order, with a filter conflicting
        only with itself, and the copies run ``batch_size`` at a time.
        Returns ``(same, own)``: ``same[j]`` when row ``j``'s channel
        equals its golden channel, and ``own`` ``(T, R, h, w)`` each row's
        channel at the resolution it leaves at, pooled when a sum pool
        follows (see :meth:`_channel_materialize`)."""
        golden = gseg.outputs[self.module_index][:, 0]  # (T, F, H, W)
        entry = gseg.entry_states[self.module_index]
        exit_state = gseg.exit_states[self.module_index]
        seg_input = gseg.module_input(self.module_index)
        channel = self.channel[rows]
        packs = _first_fit(channel, [1 << f for f in range(self.module.out_channels)])
        same = np.empty(len(rows), dtype=bool)
        leaves = gseg.outputs[self.module_index + self.entry]  # (T, 1, F, h, w)
        own = np.empty((leaves.shape[0], len(rows)) + leaves.shape[3:])
        for sel, copies in _pack_runs(packs, self.batch_size):
            members, ch = rows[sel], channel[sel]
            n = int(copies.max()) + 1
            tiles = []
            for golden_state, carried in (
                (entry.potential, self.pot),
                (entry.last_spike, self.spk),
                (entry.refractory, self.ref),
            ):
                tile = np.broadcast_to(golden_state, (n,) + golden_state.shape[1:]).copy()
                # The members of one copy hold distinct channels.
                tile[copies, ch] = carried[members, ch]
                tiles.append(tile)
            state = LIFState(*tiles)
            mine = self._run_copies(members, copies, seg_input, offset, state)[:, copies, ch]
            same[sel] = (mine == golden[:, ch]).all(axis=(0, 2, 3))
            if self.entry:
                mine = self.downstream[0].run_sequence_fused(mine[:, :, None])[:, :, 0]
            own[:, sel] = mine
            for carried, golden_state, after in (
                (self.pot, exit_state.potential, state.potential),
                (self.spk, exit_state.last_spike, state.last_spike),
                (self.ref, exit_state.refractory, state.refractory),
            ):
                carried[members] = golden_state
                carried[members, ch] = after[copies, ch]
        return same, own

    def _channel_materialize(self, gseg: _GoldenSegment, rows: np.ndarray,
                             own: np.ndarray) -> np.ndarray:
        """The golden output tiled over channel-packed ``rows``, each with
        its own channel ``own`` ``(T, m, h, w)`` in place: the rows' module
        output, pooled when a sum pool follows (``self.entry == 1``).
        Spike counts are small integers, so a pooled channel equals pooling
        the row's full-resolution output exactly, without building it."""
        base = gseg.outputs[self.module_index + self.entry]
        steps, m = own.shape[:2]
        tiled = np.broadcast_to(base, (steps, m) + base.shape[2:]).copy()
        tiled[:, np.arange(m), self.channel[rows]] = own
        return tiled

    def _run_delay(self, rows: np.ndarray, gseg: _GoldenSegment, offset: int):
        """Delayed-output rows: the module itself runs nominally (the golden
        pass already did), so the faulty trace is the golden trace of the
        row's neuron time-shifted by its delay, with the tail of the
        previous segments carried in ``self.hist``.  Returns ``(same,
        traces, golden_traces)`` like :meth:`_splice_compare`."""
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
        return (out == traces).all(axis=0), out, traces

    # ------------------------------------------------------------------
    # Downstream propagation with golden-entry seeding
    # ------------------------------------------------------------------
    def _seed(self, rows: np.ndarray, gseg: _GoldenSegment) -> None:
        """Give newly diverging rows a downstream slot holding the golden
        entry states of this segment — until now each such row's
        cross-section was bit-identical to golden, so the golden entry IS
        its state."""
        new = rows[~self.diverged[rows]]
        if new.size:
            slots = self.down.take(new)
            for dj, slab in enumerate(self.down.slabs):
                if slab is not None:
                    entry = gseg.entry_states[self.module_index + 1 + dj]
                    self.down.scatter(dj, slots, entry)
        self.diverged[rows] = True

    def _run_downstream(
        self, module_out: np.ndarray, rows: np.ndarray, gseg: _GoldenSegment,
        start: Optional[int] = None,
    ) -> np.ndarray:
        """Propagate ``rows``' faulty outputs through the downstream modules
        from index ``start`` (default ``self.entry``), one row per batch
        row, seeding newly diverged rows from the golden entry states.

        Downstream state lives in per-module slabs indexed by each
        diverged row's slot (:class:`_RowStates`), not in dense
        ``(k, ...)`` arrays: only diverged-and-undropped rows need it, and
        with fault dropping a row's slot is freed the moment its fault is
        detected, so group memory stays proportional to the live
        divergence front.  Each module gathers the rows' states, runs,
        and scatters them back."""
        self._seed(rows, gseg)
        slots = self.down.slot[rows]
        current = module_out
        for dj in range(self.entry if start is None else start, len(self.downstream)):
            dm = self.downstream[dj]
            if self.down.slabs[dj] is None:
                current = dm.run_sequence_fused(current)
                continue
            state = self.down.gather(dj, slots)
            current = dm.run_sequence_fused(current, state=state)
            self.down.scatter(dj, slots, state)
        return current.reshape(current.shape[0], current.shape[1], -1)

    def _run_packed(self, campaign: "SegmentedDetectionCampaign", rows: np.ndarray,
                    deltas: np.ndarray, gseg: _GoldenSegment) -> None:
        """Propagate splice-style rows of a module that feeds a sum pool and
        then a conv layer, many rows per conv run (footprint packing).

        A row changes one cell of the conv's pooled input, so it reaches
        only that cell's footprint: the conv outputs whose receptive field
        holds it.  Rows whose footprints are disjoint share one input row,
        the golden input plus each member's delta trace at its cell.  For a
        fixed shape, a GEMM's output column depends only on that column of
        the patch matrix, and the LIF update is elementwise, so one conv run
        over the shared row, entered from the golden entry state with each
        member's carried state on its footprint, computes every member's
        footprint exactly as if it ran alone.  Each member leaves with its
        own state, its footprint from the shared row and the golden exit
        state elsewhere, and its own output.

        Rows (in row order, ``deltas`` ``(T, R)`` their faulty minus golden
        traces) are packed first fit over every row the segment
        propagates, and the shared rows run ``batch_size`` at a time.  The
        per-row tail then runs in row order, ``batch_size`` rows at a time,
        exactly as it would with every row alone: a dense GEMM may round a
        row differently by its place in the batch, so the tail's batches
        must not depend on the packs.  Rows whose next spiking layer is
        dense have an unbounded footprint: they form packs of one, which
        is plainly :meth:`_run_downstream`."""
        fp = self.packing
        self._seed(rows, gseg)
        packs = _first_fit(self.cell_loc[rows], fp.conflict)
        width = self.batch_size
        # Each row's conv spikes on its footprint: (R, slots, T, channels).
        spikes = np.empty((len(rows), fp.pos.shape[1], deltas.shape[0], fp.channels), bool)
        for sel, shared in _pack_runs(packs, width):
            spikes[sel] = self._run_shared(rows[sel], deltas[:, sel], shared, gseg)
        for lo in range(0, len(rows), width):
            sub = rows[lo : lo + width]
            tile = self._footprint_tile(sub, spikes[lo : lo + width], gseg)
            outs = self._run_downstream(tile, sub, gseg, start=self.tail)
            campaign.record(self.indices[sub], outs, gseg)

    def _run_shared(self, members: np.ndarray, deltas: np.ndarray,
                    packs: np.ndarray, gseg: _GoldenSegment) -> np.ndarray:
        """One conv run over shared rows ``0..packs.max()``: stores every
        member's own conv state and returns its footprint spikes (see
        :meth:`_run_packed`)."""
        fp = self.packing
        conv = self.downstream[1]
        at = self.module_index + 2  # the conv's module index
        shared_n = int(packs.max()) + 1
        pooled = gseg.outputs[self.module_index + 1]
        steps = pooled.shape[0]
        flat = pooled.reshape(steps, -1)
        shared = np.broadcast_to(flat[:, None], (steps, shared_n, flat.shape[1])).copy()
        # The members of one pack hold distinct cells: no entry adds twice.
        shared[:, packs, self.cell_idx[members]] += deltas
        loc = self.cell_loc[members]
        reach = fp.mask[loc]  # (M, positions)
        jj, ll = np.nonzero(reach)
        slots = self.down.slot[members]
        slab = self.down.slabs[1]
        entry, exit_state = gseg.entry_states[at], gseg.exit_states[at]
        tiles = []
        for _key, name in _FIELDS:
            golden = getattr(entry, name)
            tile = np.broadcast_to(
                golden.reshape(1, fp.channels, -1), (shared_n, fp.channels, reach.shape[1])
            ).copy()
            carried = getattr(slab, name).reshape(self.down.capacity, fp.channels, -1)
            tile[packs[jj], :, ll] = carried[slots[jj], :, ll]
            tiles.append(tile.reshape((shared_n,) + conv.neuron_shape))
        state = LIFState(*tiles)
        out = conv.run_sequence_fused(
            shared.reshape((steps, shared_n) + pooled.shape[2:]), state=state
        )
        self.down.scatter(1, slots, LIFState(*(
            np.where(
                reach[:, None, :],
                np.asarray(getattr(state, name)).reshape(shared_n, fp.channels, -1)[packs],
                getattr(exit_state, name).reshape(1, fp.channels, -1),
            ).reshape((len(members),) + conv.neuron_shape)
            for _key, name in _FIELDS
        )))
        out = out.reshape(steps, shared_n, fp.channels, -1)
        return out[:, packs[:, None], :, fp.pos[loc]]  # (M, slots, T, channels)

    def _footprint_tile(self, rows: np.ndarray, spikes: np.ndarray,
                        gseg: _GoldenSegment) -> np.ndarray:
        """The tail's input for packed ``rows``: its golden input plus each
        row's conv output delta on its footprint, pooled when a sum pool
        follows the conv.  The deltas (-1, 0 or 1 per slot) are int8
        differences of the rows' spikes and the golden spikes at their
        footprint positions, scattered into pooled cells by one float32
        one-hot product over the slots; every sum is a small integer, so
        each order and width gives the same float."""
        fp = self.packing
        m, slots, steps = spikes.shape[:3]
        loc = self.cell_loc[rows]
        golden = gseg.outputs[self.module_index + 2].reshape(steps, fp.channels, -1)
        fired = np.ascontiguousarray((golden != 0.0).transpose(2, 0, 1))
        delta = spikes.view(np.int8) - fired.view(np.int8)[fp.pos[loc]]  # (m, slots, T, C)
        delta = delta.reshape(m, slots, -1).transpose(0, 2, 1).astype(np.float32)
        moved = np.matmul(delta, fp.onehot[loc]).reshape(m, steps, -1)
        base = gseg.outputs[self.module_index + self.tail]
        tile = base.reshape(steps, 1, -1) + moved.transpose(1, 0, 2)
        return tile.reshape((steps, m) + base.shape[2:])

    # ------------------------------------------------------------------
    def step(self, campaign: "SegmentedDetectionCampaign", segment_index: int,
             gseg: _GoldenSegment) -> None:
        """Advance every active fault of this group through one segment of
        ``campaign``, recording into its accumulators."""
        self._ensure_state()
        offset = campaign.segment_offsets[segment_index]
        has_down = bool(self.downstream)
        seg_input = gseg.module_input(self.module_index)
        golden_out = gseg.outputs[self.module_index]  # (T, 1, *neuron_shape)
        currents = None
        if self.kind == "splice" or (
            self.kind == "synapse_splice" and self.window is not None
        ):
            # The golden currents the faulty neurons see, once per group and
            # segment: the very products the golden run and the per-step
            # oracle compute.
            full = self.module.sequence_currents(seg_input)
            currents = full.reshape(full.shape[0], -1)
        batches = self._batches()
        if not batches:
            return
        # Splice-style and channel-packed rows run once over every active
        # row; the batches below only slice their results.
        active = np.concatenate(batches)
        if self.kind == "splice":
            wide = self._run_splice(active, gseg, offset, currents)
        elif self.kind == "synapse_splice":
            wide = self._run_synapse_splice(active, gseg, offset, currents)
        elif self.kind == "delay":
            wide = self._run_delay(active, gseg, offset)
        elif self.channel is not None:
            wide = self._run_channels(active, gseg, offset)
        packed: List[Tuple[np.ndarray, np.ndarray]] = []
        lo = 0
        for rows in batches:
            at = slice(lo, lo + len(rows))
            lo += len(rows)
            if self.kind in _SPLICE_KINDS:
                same, traces, golden_traces = wide[0][at], wide[1][:, at], wide[2][:, at]
            elif self.channel is not None:
                same, own = wide[0][at], wide[1][:, at]
            else:
                if self.kind == "neuron":
                    out = self._run_neuron(rows, seg_input, offset)
                else:
                    out = self._run_synapse_k(rows, seg_input, offset)
                same = (out == golden_out).reshape(out.shape[0], len(rows), -1).all(axis=(0, 2))
            # A row may exit only while its whole cross-section is still
            # golden: module output identical this segment AND downstream
            # state untouched.  Skipped rows contribute exactly zero.
            need = np.nonzero(~same | (has_down & self.diverged[rows]))[0]
            if need.size:
                sub = rows[need]
                if self.packing is not None:
                    packed.append((sub, traces[:, need] - golden_traces[:, need]))
                else:
                    if self.kind in _SPLICE_KINDS:
                        module_out = self._splice_materialize(
                            gseg, sub, traces[:, need], golden_traces[:, need]
                        )
                    elif self.channel is not None:
                        module_out = self._channel_materialize(gseg, sub, own[:, need])
                    else:
                        module_out = out[:, need]
                    outs = (
                        self._run_downstream(module_out, sub, gseg)
                        if has_down
                        else module_out.reshape(module_out.shape[0], len(sub), -1)
                    )
                    campaign.record(self.indices[sub], outs, gseg)
            campaign.tracker.tick(len(rows))
        if packed:
            self._run_packed(
                campaign,
                np.concatenate([rows for rows, _ in packed]),
                np.concatenate([deltas for _, deltas in packed], axis=1),
                gseg,
            )
        if campaign.drop_detected:
            dropped = active[campaign.detected[self.indices[active]]]
            self.active[dropped] = False
            self.down.give_back(dropped)
            remaining = campaign.n_segments - 1 - segment_index
            if remaining:
                for _ in range(dropped.size):
                    campaign.tracker.tick(remaining)

    # ------------------------------------------------------------------
    # Carried state of coverage-store records
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
        # Sparse downstream state: the diverged, undropped rows only.
        arrays.update(self.down.export())
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
            self.down.restore(arrays)
        except (KeyError, ValueError, IndexError) as exc:
            raise StoreError(
                f"coverage record does not match this group: {exc}"
            ) from exc


class SegmentedDetectionCampaign:
    """Drives the segment-wise detection campaign for one fault list.

    Groups are processed one at a time (group-outer loop); each group gets
    its own :class:`GoldenSegmentRunner`, so at most one group's segment
    tensors and golden cache are live at once and a coverage-store record
    only carries one group's state.  The golden re-runs this
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
        progress=None,
        store=None,
    ) -> None:
        simulator._check_segment_engine()
        self.simulator = simulator
        self.stimulus = stimulus
        self.faults = list(faults)
        self.drop_detected = drop_detected
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
        self.tracker = _ProgressTracker(progress, n * self.n_segments)
        # Dispatch counters.  The shared set only accumulates the faulty-row
        # work this run computes — once per (fault, segment); the per-group
        # golden re-runs use throwaway counters so stats stay identical
        # whether a group's golden pass ran or was answered from the
        # coverage store.
        self.stats = DispatchStats()
        self.groups = self._build_groups()

    # ------------------------------------------------------------------
    def _build_groups(self) -> List[_FaultGroup]:
        # Groups must share one activity window (and, for neuron faults,
        # one execution family): the piecewise segment runs swap
        # parameters for the whole batch at once.
        network = self.simulator.network
        neuron_map: Dict[Tuple, List[int]] = {}
        synapse_splice_map: Dict[Tuple, List[int]] = {}
        synapse_k_map: Dict[Tuple, List[int]] = {}
        synapse_maps = [
            synapse_splice_map if _supports_synapse_splice(module) else synapse_k_map
            for module in network.modules
        ]
        for idx, fault in enumerate(self.faults):
            if fault.module_index >= len(network.modules):
                raise FaultModelError(f"{fault.describe()}: module index out of range")
            if fault.is_neuron:
                family = "delay" if fault.kind is NeuronFaultKind.DELAY else "param"
                key = (fault.module_index, family, fault.window)
                neuron_map.setdefault(key, []).append(idx)
            else:
                synapse_maps[fault.module_index].setdefault(
                    (fault.module_index, fault.window), []
                ).append(idx)

        def _wkey(window):
            return (-1, -1) if window is None else tuple(window)

        groups: List[_FaultGroup] = []
        for (module_index, family, window), indices in sorted(
            neuron_map.items(), key=lambda kv: (kv[0][0], kv[0][1], _wkey(kv[0][2]))
        ):
            if family == "delay":
                kind = "delay"
            elif _supports_splice(network.modules[module_index]):
                kind = "splice"
            else:
                kind = "neuron"
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
        return groups

    # ------------------------------------------------------------------
    def record(self, fault_idx: np.ndarray, outs: np.ndarray, gseg: _GoldenSegment) -> None:
        """Accumulate one segment's metrics of distinct faults
        ``fault_idx`` from their outputs ``outs`` ``(T, R, classes)``.
        Spikes and counts are small integers, so the batched sums equal
        the per-fault ones bit for bit."""
        diff = np.abs(outs - gseg.out_flat[:, None]).sum(axis=(0, 2))
        self.output_l1[fault_idx] += diff
        self.counts_delta[fault_idx] += outs.sum(axis=0) - gseg.counts
        self.detected[fault_idx] |= diff > 0

    # ------------------------------------------------------------------
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
        group.restore_arrays(arrays)
        live = int(group.active.sum())
        s = int(meta["segment"])
        # Live rows owe the remaining n-(s+1) segments; dropped/diverged
        # rows were already charged their full n in the record's run.
        self.tracker.tick(live * (s + 1) + (k - live) * n)
        return s + 1

    # ------------------------------------------------------------------
    def run(self) -> DetectionResult:
        start = time.perf_counter()
        network = self.simulator.network
        modules = network.modules
        session = self.session
        events = EventDispatch(self.stats)
        for group in self.groups:
            first_segment = 0
            gdigest = None
            # The golden re-run is per group, so it counts into a
            # throwaway set (see the ``stats`` note in ``__init__``).
            if session is not None:
                gdigest = session.group_digest(self, group)
                hit = session.lookup_group(self, group, gdigest)
                if hit is not None:
                    first_segment = self._apply_hit(group, hit)
                golden = _SessionGoldenRunner(session, network, EventDispatch())
                if 0 < first_segment < self.n_segments and not group.done:
                    golden.seek(self.stimulus, first_segment)
            else:
                golden = _PlainGoldenRunner(network, EventDispatch())
            for segment_index in range(first_segment, self.n_segments):
                if group.done:
                    break
                gseg = golden.run_segment(
                    segment_index, self.stimulus.segment(segment_index)
                )
                with event_dispatch_context(modules, events):
                    group.step(self, segment_index, gseg)
                if session is not None:
                    session.stage_group(self, group, gdigest, segment_index)
            group.release()
        self.tracker.finish()
        return DetectionResult(
            faults=list(self.faults),
            detected=self.detected.copy(),
            output_l1=self.output_l1.copy(),
            class_count_diff=np.abs(self.counts_delta),
            wall_time=time.perf_counter() - start,
            segment_digests=list(self.segment_digests),
            dispatch=self.stats.as_dict(),
        )
