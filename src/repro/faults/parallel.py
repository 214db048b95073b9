"""Process-parallel, crash-tolerant fault campaigns.

Fault-injection campaigns are embarrassingly parallel across faults: every
fault is simulated against the same fault-free network state, and per-fault
results never interact.  This module shards a fault list across supervised
fork-based worker processes and merges the shard results back in catalog
order, so a parallel campaign is *exactly* equal — detected mask, L1
norms, criticality labels, accuracy drops — to the serial one (pinned by
``tests/faults/test_parallel_equivalence.py``), no matter how many workers
crash, hang, or get retried along the way (pinned by ``tests/chaos/``).

Design notes
------------
- The golden per-module activations are computed **once in the parent**
  before workers are forked; workers inherit them (and the network)
  through copy-on-write memory, so no worker repeats upstream work and
  nothing large crosses a pipe except per-shard result arrays.
- Shards are interleaved slices: with ``w`` workers, shard ``k`` holds
  faults ``k, k + w, k + 2w, ...`` (``(start, stop, step)``, see
  :func:`shard_bounds`), so every worker gets the same mix of fault kinds
  and layers, and the same share of the work, with no cost model.  Each
  worker returns its slice's start with a named payload, ``{field:
  array}``: the result fields of its campaign, plus ``dispatch`` (the
  zero-skip counter vector) and, for segment-wise shards, ``chain`` (the
  stimulus segment digests).  One runner, :func:`_run_campaign`, writes
  every field at the shard's slice, so the merge is order-preserving no
  matter which worker finishes first.  Determinism does not depend on
  scheduling, retries, or resume.
- **Progress**: each worker publishes how much of its shard it has done
  (faults, or (fault, segment) pairs) through a shared counter beside its
  heartbeat, and the supervisor ticks the campaign's progress from those
  counters at every poll, crediting each shard once across retries.
- **Supervision**: one forked process per shard, each with a heartbeat
  thread.  The supervisor detects crashed workers (process died without
  delivering a result) and hung workers (stale heartbeat or shard
  timeout), retries the shard in a fresh process with exponential backoff
  (bounded by ``max_retries``), and falls back to running the shard
  serially in the parent when retries are exhausted.  If total failures
  exceed the pool's ``failure_budget``, the pool is declared unhealthy and
  every remaining shard runs in-process.  Every shard is a pure function
  of its slice, so none of this changes a single result byte.  What
  happened is reported in :class:`~repro.faults.simulator.CampaignHealth`
  on the returned result.
- **Durability**: a labelling campaign (:func:`parallel_classify`) with
  ``checkpoint_path`` set cuts its catalog into ``CHECKPOINT_SHARDS``
  slices per worker and persists each completed shard's result arrays
  (atomically, digest-protected — see :mod:`repro.core.checkpoint`), so a
  killed campaign resumes with ``resume=True``: finished shards are
  restored and only the missing ones run.  Detection campaigns keep no
  checkpoint; a segment-wise one resumes by re-running against its
  coverage store.  Either way, resumed results are bit-identical to an
  uninterrupted campaign.
- Results travel from worker to parent only as a pickled spool file
  (written atomically) plus a single signal byte on a pipe, so a worker
  killed mid-delivery can never stall the parent on a torn message, and
  a campaign leaves no process or system-wide resource behind once it
  returns.
- **Segment-wise detection** (:func:`parallel_detect_segmented`) shards
  the same way but never ships a golden cache: each worker advances its
  own fault-free network one test segment at a time, so peak memory is
  bounded by the longest chunk on both sides of the fork.  Without a
  store, a crashed worker loses its whole shard, up to ``1/workers`` of
  the campaign, which its retry recomputes exactly.  With a coverage
  store, every worker writes a record after each (fault group, segment),
  so a kill mid-shard loses at most one segment of each group.
- Worker count comes from ``workers=`` or the ``REPRO_WORKERS`` environment
  variable (default 1).  With ``workers <= 1``, or on platforms without
  ``fork`` (Windows, macOS spawn-default interpreters), campaigns run
  serially in-process through the same :class:`FaultSimulator` — the
  fallback is the reference, not an approximation.  (A serial labelling
  campaign with ``checkpoint_path`` set still runs shard-by-shard
  in-process so its progress is durable.)

See ``docs/PARALLELISM.md`` for the worker model and
``docs/RESILIENCE.md`` for supervision, checkpoint, and resume semantics.
"""

from __future__ import annotations

import atexit
import ctypes
import heapq
import itertools
import math
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChaosError, FaultModelError, WorkerFailureError
from repro.faults.simulator import (
    CampaignHealth,
    ClassificationResult,
    DetectionResult,
    FaultSimulator,
    Fault,
    ProgressFn,
    _ProgressTracker,
    env_int,
)
from repro.snn.events import DispatchStats, EventDispatch
from repro.snn.layers import dispatch_layer_names, event_dispatch_context
from repro.utils import chaos

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment overrides for supervision defaults (see SupervisionConfig).
HEARTBEAT_TIMEOUT_ENV = "REPRO_HEARTBEAT_TIMEOUT"
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

# Spool directories of in-flight campaigns.  Each campaign removes its own
# directory on the way out (including abort paths — the runner closes
# its supervised-run generator explicitly); the atexit sweep only catches a
# campaign torn down so abruptly that no ``finally`` ran.
_SPOOL_DIRS: set = set()

#: Serializes fork points.  The campaign service forks shard workers from
#: a multi-threaded parent (the daemon's asyncio loop plus one executor
#: thread per running job); two threads forking concurrently can hand a
#: child a copy of internal locks (import lock, logging, allocator) held
#: mid-operation by the *other* thread, deadlocking the child.  Held only
#: around ``Process.start()`` so concurrent campaigns still overlap
#: everywhere else.
_FORK_LOCK = threading.Lock()


def _sweep_spools() -> None:  # pragma: no cover - exercised via chaos tests
    for path in list(_SPOOL_DIRS):
        shutil.rmtree(path, ignore_errors=True)
        _SPOOL_DIRS.discard(path)


atexit.register(_sweep_spools)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit ``workers``, else ``$REPRO_WORKERS``,
    else 1.  Always at least 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise FaultModelError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    return max(1, int(workers))


def fork_available() -> bool:
    """Whether the platform supports fork-based pools (required for the
    copy-on-write golden-state sharing this engine relies on)."""
    return "fork" in multiprocessing.get_all_start_methods()


#: A shard: the faults ``faults[start:stop:step]`` of a campaign.
Shard = Tuple[int, int, int]

#: Shards per worker of a checkpointed labelling campaign: a kill loses at
#: most one of them, even in a serial run.
CHECKPOINT_SHARDS = 4


def shard_bounds(n_faults: int, shards: int) -> List[Shard]:
    """``shards`` interleaved slices partitioning ``range(n_faults)``:
    shard ``k`` is ``(k, n_faults, shards)``, the faults ``k, k + shards,
    k + 2 * shards, ...``.

    A catalog lists its faults layer by layer and kind by kind, and the
    cost per fault varies a lot across them, so contiguous blocks would
    cost unevenly; interleaved slices all get the same mix.  The
    segment-wise engine shares one golden pass among all the fault groups
    of a shard, so a shard costs no more for holding a slice of every
    group.  Fewer faults than shards leave out the empty slices.
    """
    count = min(n_faults, max(1, shards))
    return [(k, n_faults, count) for k in range(count)] if n_faults > 0 else []


def _shard_name(shard: Shard) -> str:
    return "[{}:{}:{}]".format(*shard)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisionConfig:
    """Worker-supervision knobs (defaults overridable via environment).

    Attributes
    ----------
    heartbeat_interval:
        How often each worker's heartbeat thread beats.
    heartbeat_timeout:
        A worker whose last beat is older than this is declared hung and
        killed (``$REPRO_HEARTBEAT_TIMEOUT``).
    shard_timeout:
        Optional hard wall-clock cap per shard attempt, regardless of
        heartbeats (``$REPRO_SHARD_TIMEOUT``; unset means no cap).
    max_retries:
        How many times a failed shard is retried in a fresh worker before
        falling back to in-process execution (``$REPRO_MAX_RETRIES``).
    backoff_s:
        Initial retry delay; doubles on each subsequent attempt.
    failure_budget:
        Total crash+hang events after which the pool is declared
        unhealthy and all remaining shards run in-process.  ``None``
        defaults to ``max(4, 2 * workers)``.
    poll_s:
        Supervisor wake-up interval.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 30.0
    shard_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    failure_budget: Optional[int] = None
    poll_s: float = 0.05

    @classmethod
    def from_env(cls) -> "SupervisionConfig":
        """Defaults with the environment overrides applied.  A timeout
        that is not a finite positive number, or a negative retry count,
        raises :class:`~repro.errors.FaultModelError` naming the variable:
        a NaN timeout would never declare a hung worker, and a negative
        one would declare every worker hung at once."""

        def _timeout(name: str, default):
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                value = float(raw)
            except ValueError:
                raise FaultModelError(f"{name} must be a number, got {raw!r}") from None
            if not (math.isfinite(value) and value > 0):
                raise FaultModelError(
                    f"{name} must be a finite positive number of seconds, got {raw!r}"
                )
            return value

        return cls(
            heartbeat_timeout=_timeout(HEARTBEAT_TIMEOUT_ENV, cls.heartbeat_timeout),
            shard_timeout=_timeout(SHARD_TIMEOUT_ENV, None),
            max_retries=env_int(MAX_RETRIES_ENV, cls.max_retries, minimum=0),
        )

    def effective_failure_budget(self, workers: int) -> int:
        if self.failure_budget is not None:
            return self.failure_budget
        return max(4, 2 * workers)


# ----------------------------------------------------------------------
# Shard worker functions.  ``shared`` is the campaign's state dict, passed
# explicitly from the parent: forked workers receive it through Process
# args — which the fork start method inherits by memory, never pickles —
# so the golden tensors still ride copy-on-write pages, and two campaigns
# running concurrently in one process (the campaign service) can never
# see each other's state.
def _detection_payload(simulator: FaultSimulator, result: DetectionResult) -> dict:
    """A detection shard's named payload: the result arrays plus the
    flattened dispatch counters."""
    names = dispatch_layer_names(simulator.network.modules)
    return dict(
        detected=result.detected,
        output_l1=result.output_l1,
        class_count_diff=result.class_count_diff,
        dispatch=DispatchStats.from_dict(result.dispatch).to_vector(names),
    )


def _detect_shard(shard: Shard, shared: dict, progress: ProgressFn) -> dict:
    simulator: FaultSimulator = shared["simulator"]
    result = simulator.detect(
        shared["stimulus"],
        shared["faults"][slice(*shard)],
        progress=progress,
        golden_modules=shared["golden_modules"],
    )
    return _detection_payload(simulator, result)


def _detect_seg_shard(shard: Shard, shared: dict, progress: ProgressFn) -> dict:
    """Segment-wise detection shard.  No golden cache is shipped: each
    worker advances its own fault-free network segment by segment (see
    :class:`repro.faults.segmented.GoldenSegmentRunner`), so the parent
    never materializes the assembled stimulus or the full-duration golden
    activations.  The shard's stimulus chain digests ride the payload (as
    a compact ``(n, 32)`` byte array) so the parent can prove every worker
    keyed its coverage-store records off the very same segment prefixes."""
    # Deferred: repro.faults.store pulls in repro.core, which imports this
    # module back — at call time both sides are fully initialized.
    from repro.faults.store import chain_to_array

    simulator: FaultSimulator = shared["simulator"]
    result = simulator.detect_segmented(
        shared["stimulus"],
        shared["faults"][slice(*shard)],
        progress=progress,
        drop_detected=shared["drop_detected"],
        store=shared.get("store"),
    )
    payload = _detection_payload(simulator, result)
    payload["chain"] = chain_to_array(result.segment_digests)
    return payload


def _classify_shard(shard: Shard, shared: dict, progress: ProgressFn) -> dict:
    result = shared["simulator"].classify(
        shared["inputs"],
        shared["labels"],
        shared["faults"][slice(*shard)],
        progress=progress,
        golden_modules=shared["golden_modules"],
    )
    return dict(critical=result.critical, accuracy_drop=result.accuracy_drop)


def _shard_entry(worker_fn, shared, shard, attempt, heartbeat, progress, interval,
                 conn, out_path):
    """Forked worker body: beat, compute (publishing the shard's progress
    into ``progress``), deliver via spool file + signal byte.  Any
    exception is transported to the parent for re-raising."""
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(interval)

    def publish(done: int, _total: int) -> None:
        progress.value = done

    threading.Thread(target=beat, daemon=True).start()
    try:
        action = chaos.strike("shard", key=shard[0], attempt=attempt)
        if action == "crash":
            os._exit(13)
        if action == "hang":
            stop.set()  # go silent: the supervisor must notice on its own
            time.sleep(chaos.hang_seconds())
        if action == "raise":
            raise ChaosError(f"chaos raise in shard {shard[0]} attempt {attempt}")
        status = ("ok", worker_fn(shard, shared, publish))
    except BaseException as exc:  # noqa: BLE001 - transported to the parent
        try:
            pickle.dumps(exc)
            status = ("error", exc)
        except Exception:
            status = ("error", WorkerFailureError(f"{type(exc).__name__}: {exc}"))
    finally:
        stop.set()
    tmp = f"{out_path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(status, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, out_path)
    try:
        conn.send_bytes(b"K")  # single byte: atomic, can never tear
    except OSError:
        pass
    conn.close()


@dataclass
class _ShardRun:
    """One in-flight shard attempt."""

    process: multiprocessing.Process
    conn: object  # parent's receive Connection
    heartbeat: object  # RawValue('d') the worker beats into
    progress: object  # RawValue('q'): the progress units the worker has done
    shard: Shard
    attempt: int
    started: float
    out_path: str


def _launch(ctx, worker_fn, shared, shard, attempt, supervision, spool_dir) -> _ShardRun:
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    heartbeat = ctx.RawValue("d", time.monotonic())
    progress = ctx.RawValue("q", 0)
    out_path = os.path.join(spool_dir, f"shard{shard[0]}-a{attempt}.pkl")
    process = ctx.Process(
        target=_shard_entry,
        args=(worker_fn, shared, shard, attempt, heartbeat, progress,
              supervision.heartbeat_interval, send_conn, out_path),
        daemon=True,
    )
    with _FORK_LOCK:
        process.start()
    send_conn.close()  # parent keeps only the receive end
    return _ShardRun(
        process=process,
        conn=recv_conn,
        heartbeat=heartbeat,
        progress=progress,
        shard=shard,
        attempt=attempt,
        started=time.monotonic(),
        out_path=out_path,
    )


def _reap(rec: _ShardRun, kill: bool = False):
    """Collect a finished (or killed) shard attempt.

    Returns the worker's ``("ok", payload)`` / ``("error", exc)`` status,
    or ``None`` if the worker died before delivering one.
    """
    if kill and rec.process.is_alive():
        rec.process.terminate()
    rec.process.join(timeout=5.0)
    if rec.process.is_alive():
        rec.process.kill()
        rec.process.join(timeout=5.0)
    try:
        rec.conn.close()
    except OSError:
        pass
    status = None
    if not kill and os.path.exists(rec.out_path):
        try:
            with open(rec.out_path, "rb") as fh:
                status = pickle.load(fh)
        except Exception:
            status = None  # unreadable delivery == crash; the shard retries
    try:
        if os.path.exists(rec.out_path):
            os.unlink(rec.out_path)
    except OSError:
        pass
    return status


def _trim_heap() -> None:
    """Hand the parent's free heap pages back to the OS before forking.

    A forked worker starts with every page the parent has resident, heap
    memory the parent freed but glibc kept included, and that dead weight
    counts in the worker's RSS for its whole life, so a worker's peak
    would depend on whatever the parent happened to free earlier.  A
    no-op where the C library has no ``malloc_trim``.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _supervised_run(
    worker_fn,
    shared: dict,
    pending: Sequence[Shard],
    workers: int,
    supervision: SupervisionConfig,
    health: CampaignHealth,
    spool_dir: str,
    on_progress: Callable[[Shard, int], None],
) -> Iterator[Tuple[Shard, dict]]:
    """Run ``pending`` shards under supervision, yielding
    ``(shard, payload)`` as each completes (any order).

    Crashed and hung workers are retried with backoff; shards whose
    retries are exhausted — or every remaining shard, once the failure
    budget is blown — run serially in the parent.  A worker-reported
    exception (deterministic library error) is re-raised immediately.
    At every poll, ``on_progress(shard, done)`` receives each running
    worker's published progress (an attempt counts from zero), and an
    in-process shard reports its own as it goes.
    """
    ctx = multiprocessing.get_context("fork")
    # Resolve the workers' deferred imports (see _detect_seg_shard) in the
    # parent *before* forking: a child forked while another thread holds
    # the import machinery's lock would deadlock inside the deferred
    # import.  Once imported here, the children inherit the ready module.
    import repro.faults.store  # noqa: F401
    _trim_heap()

    ticket = itertools.count()
    queue: List[tuple] = [(0.0, next(ticket), shard, 0) for shard in pending]
    heapq.heapify(queue)
    running: dict = {}  # conn -> _ShardRun
    fallback: List[Shard] = []
    failures = 0
    degraded = False
    budget = supervision.effective_failure_budget(workers)

    def on_failure(rec: _ShardRun, kind: str) -> None:
        nonlocal failures, degraded
        failures += 1
        if kind == "crash":
            health.crashes += 1
        else:
            health.hangs += 1
        health.events.append(f"shard {_shard_name(rec.shard)} attempt {rec.attempt} {kind}")
        if failures >= budget and not degraded:
            degraded = True
            health.degraded = True
            health.events.append(
                f"pool unhealthy after {failures} failures; "
                "running remaining shards in-process"
            )
            while queue:
                _, _, shard, _ = heapq.heappop(queue)
                fallback.append(shard)
                health.fallback_shards += 1
        next_attempt = rec.attempt + 1
        if degraded or next_attempt > supervision.max_retries:
            fallback.append(rec.shard)
            health.fallback_shards += 1
            health.events.append(
                f"shard {_shard_name(rec.shard)} falling back to in-process execution"
            )
        else:
            health.retries += 1
            delay = supervision.backoff_s * (2 ** rec.attempt)
            heapq.heappush(
                queue, (time.monotonic() + delay, next(ticket), rec.shard, next_attempt)
            )

    def handle_status(rec: _ShardRun, status):
        if status is None:
            on_failure(rec, "crash")
            return None
        if status[0] == "ok":
            return status[1]
        exc = status[1]
        if isinstance(exc, BaseException):
            raise exc
        raise WorkerFailureError(str(exc))

    try:
        while queue or running:
            now = time.monotonic()
            while (
                queue
                and not degraded
                and len(running) < workers
                and queue[0][0] <= now
            ):
                _, _, shard, attempt = heapq.heappop(queue)
                rec = _launch(ctx, worker_fn, shared, shard, attempt,
                              supervision, spool_dir)
                running[rec.conn] = rec
            if not running:
                if queue:  # backoff delay before the next retry is due
                    time.sleep(max(0.0, min(supervision.poll_s, queue[0][0] - now)))
                continue
            ready = mp_connection.wait(list(running), timeout=supervision.poll_s)
            for conn in ready:
                rec = running.pop(conn)
                payload = handle_status(rec, _reap(rec))
                if payload is not None:
                    yield rec.shard, payload
            for rec in list(running.values()):
                on_progress(rec.shard, rec.progress.value)
            now = time.monotonic()
            for conn, rec in list(running.items()):
                beat_age = now - rec.heartbeat.value
                shard_age = now - rec.started
                if beat_age > supervision.heartbeat_timeout or (
                    supervision.shard_timeout is not None
                    and shard_age > supervision.shard_timeout
                ):
                    running.pop(conn)
                    _reap(rec, kill=True)
                    on_failure(rec, "hang")
                elif not rec.process.is_alive() and not conn.poll():
                    # Died without signalling; the spool file may still
                    # hold a completed delivery (killed between replace
                    # and signal), which _reap picks up.
                    running.pop(conn)
                    payload = handle_status(rec, _reap(rec))
                    if payload is not None:
                        yield rec.shard, payload
    finally:
        for rec in running.values():
            _reap(rec, kill=True)
    for shard in fallback:
        yield shard, _run_in_process(worker_fn, shard, shared, on_progress)


def _run_in_process(worker_fn, shard: Shard, shared: dict, on_progress) -> dict:
    """Run ``shard`` in this process, reporting its progress as it goes."""
    return worker_fn(shard, shared, lambda done, _total: on_progress(shard, done))


# ----------------------------------------------------------------------
def _prepare_checkpoint(
    checkpoint_path: Optional[str],
    resume: bool,
    simulator: FaultSimulator,
    faults: Sequence[Fault],
    data: Sequence[np.ndarray],
    workers: int,
):
    """Load-or-create the labelling checkpoint (``None`` without a path).
    A new one cuts the catalog into ``CHECKPOINT_SHARDS`` slices per
    worker; a resumed one keeps its own shards."""
    if checkpoint_path is None:
        return None
    from repro.core.checkpoint import CampaignCheckpoint, campaign_fingerprint

    fingerprint = campaign_fingerprint(simulator.network, faults, *data)
    if resume and os.path.exists(checkpoint_path):
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        checkpoint.validate("classify", fingerprint, checkpoint_path)
        return checkpoint
    return CampaignCheckpoint(
        kind="classify",
        fingerprint=fingerprint,
        n_faults=len(faults),
        bounds=shard_bounds(len(faults), CHECKPOINT_SHARDS * workers),
    )


#: The labelling checkpoint's per-shard arrays, in their stored order.
_CHECKPOINT_FIELDS = ("critical", "accuracy_drop")


def _run_campaign(
    worker_fn,
    shared: dict,
    workers: int,
    progress: Optional[ProgressFn],
    supervision: Optional[SupervisionConfig],
    *,
    use_pool: bool = True,
    units: int = 1,
    stats: Optional[DispatchStats] = None,
    chain: Optional[np.ndarray] = None,
    checkpoint=None,
    checkpoint_path: Optional[str] = None,
) -> Tuple[Dict[str, np.ndarray], CampaignHealth]:
    """Shard ``shared["faults"]``, run the shards and merge their named
    payloads; returns ``(fields, health)``.

    The shards are one interleaved slice per worker (see
    :func:`shard_bounds`), or a ``checkpoint``'s own.  Checkpointed shards
    merge first; the rest run on the supervised pool or, without
    ``use_pool``, in-process, and each finished shard is persisted when a
    ``checkpoint`` is attached.  Every payload field is written at its
    shard's slice of an array shaped after the first shard's, so the merge
    is in catalog order whichever shard finishes first.  Two names are not
    result fields: ``dispatch`` vectors sum into ``stats``, and a shard
    whose ``chain`` differs from the parent's ``chain`` is refused before
    any of it merges.

    Progress counts ``units`` per fault: 1 for flat campaigns, the segment
    count for segment-wise ones, whose progress is counted in (fault,
    segment) pairs.  It ticks as the shards report theirs, live, and a
    shard's remainder ticks when it merges.  A retry reports from zero
    again, so a shard ticks only past its highest report: each shard is
    credited once, whatever its retries, and the total ends at
    ``n_faults * units``.

    ``shared`` (the campaign's state dict) travels to workers through
    Process args — inherited by memory under fork, never pickled — so
    concurrent campaigns in one process stay fully isolated.
    """
    n_faults = len(shared["faults"])
    health = CampaignHealth(workers=workers if use_pool else 1)
    supervision = supervision or SupervisionConfig.from_env()
    shards = (
        checkpoint.bounds if checkpoint is not None else shard_bounds(n_faults, workers)
    )
    layer_names = dispatch_layer_names(shared["simulator"].network.modules)
    tracker = _ProgressTracker(progress, n_faults * units)
    credited: Dict[int, int] = {}  # per shard start: the units ticked
    fields: Dict[str, np.ndarray] = {}

    def credit(shard: Shard, done: int) -> None:
        gain = done - credited.get(shard[0], 0)
        if gain > 0:
            credited[shard[0]] = done
            tracker.tick(gain)

    def merge(shard: Shard, payload: Dict[str, np.ndarray]) -> None:
        if chain is not None and not np.array_equal(np.asarray(payload["chain"]), chain):
            raise WorkerFailureError(
                f"shard {_shard_name(shard)} reported segment chain digests "
                "that do not match the parent's stimulus"
            )
        for name, value in payload.items():
            if name == "dispatch":
                stats.merge(DispatchStats.from_vector(value, layer_names))
            elif name != "chain":
                if name not in fields:
                    fields[name] = np.zeros(
                        (n_faults,) + value.shape[1:], dtype=value.dtype
                    )
                fields[name][slice(*shard)] = value
        credit(shard, len(range(*shard)) * units)

    def complete(shard: Shard, payload: Dict[str, np.ndarray]) -> None:
        if checkpoint is not None:
            checkpoint.add(shard[0], tuple(payload[name] for name in _CHECKPOINT_FIELDS))
            checkpoint.save(checkpoint_path)
        merge(shard, payload)

    pending = list(shards)
    if checkpoint is not None and checkpoint.shards:
        health.resumed_shards = len(checkpoint.shards)
        health.events.append(
            f"resumed {len(checkpoint.shards)} completed shards from checkpoint"
        )
        for shard in shards:
            if shard[0] in checkpoint.shards:
                merge(shard, dict(zip(_CHECKPOINT_FIELDS, checkpoint.shards[shard[0]])))
        pending = checkpoint.pending()
    if use_pool and pending:
        spool_dir = tempfile.mkdtemp(prefix="repro-shards-")
        _SPOOL_DIRS.add(spool_dir)
        runs = _supervised_run(
            worker_fn, shared, pending, workers, supervision, health, spool_dir, credit
        )
        try:
            for shard, payload in runs:
                complete(shard, payload)
        finally:
            # Closing the generator reaps its workers *now*, even when a
            # merge aborts, instead of whenever it is garbage collected.
            runs.close()
            shutil.rmtree(spool_dir, ignore_errors=True)
            _SPOOL_DIRS.discard(spool_dir)
    else:
        for shard in pending:
            if chaos.strike("shard", key=shard[0], attempt=0) == "raise":
                raise ChaosError(f"chaos raise in in-process shard {_shard_name(shard)}")
            complete(shard, _run_in_process(worker_fn, shard, shared, credit))
    tracker.finish()
    return fields, health


def parallel_detect(
    simulator: FaultSimulator,
    stimulus: np.ndarray,
    faults: Sequence[Fault],
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    *,
    supervision: Optional[SupervisionConfig] = None,
) -> DetectionResult:
    """:meth:`FaultSimulator.detect` sharded across supervised processes.

    Results are merged in fault order and are exactly equal to the serial
    campaign — under worker crashes, hangs, retries and fallback alike.
    Runs the in-process simulator when the effective worker count is 1 or
    fork is unavailable.
    """
    workers = resolve_workers(workers)
    if len(faults) == 0 or workers <= 1 or not fork_available():
        return simulator.detect(stimulus, faults, progress=progress)
    start = time.perf_counter()
    # Mirror the serial engine's accounting: the parent computes the
    # shared golden reference once under zero-skip dispatch, and the
    # per-shard counters (faulty-row work only) merge on top of it.
    stats = DispatchStats()
    with event_dispatch_context(simulator.network.modules, EventDispatch(stats)):
        golden_modules, _ = simulator._golden(stimulus, None)
    shared = dict(
        simulator=simulator,
        stimulus=stimulus,
        faults=list(faults),
        golden_modules=golden_modules,
    )
    fields, health = _run_campaign(
        _detect_shard, shared, workers, progress, supervision, stats=stats
    )
    return DetectionResult(
        faults=list(faults),
        wall_time=time.perf_counter() - start,
        health=health,
        dispatch=stats.as_dict(),
        **fields,
    )


def parallel_detect_segmented(
    simulator: FaultSimulator,
    stimulus,
    faults: Sequence[Fault],
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    *,
    drop_detected: bool = True,
    supervision: Optional[SupervisionConfig] = None,
    store=None,
) -> DetectionResult:
    """:meth:`FaultSimulator.detect_segmented` sharded across supervised
    processes.

    ``stimulus`` is a :class:`~repro.core.testset.TestStimulus`; neither
    the parent nor any worker ever materializes ``assembled()`` or the
    full-duration golden activations — peak memory scales with the longest
    chunk, not the total test duration.  The ``detected`` mask is exactly
    equal to :func:`parallel_detect` on the assembled stimulus; with
    ``drop_detected=False`` every metric array is (pinned by
    ``tests/faults/test_segmented_equivalence.py``).

    With ``store`` set (a :class:`repro.faults.store.CoverageStore`), every
    worker records and reuses per-(fault-group, segment) outcomes and
    golden segment end-states through the shared on-disk store; the parent
    verifies each shard's stimulus chain digests against its own before
    merging, so a worker keyed against a different stimulus can never
    splice results silently.  The store is also how a killed campaign
    resumes: re-running it against the same store skips every finished
    (fault group, segment), so ``dispatch`` then counts only the work the
    re-run computed.  Runs on the production engine only: the per-step
    oracle raises :class:`~repro.errors.FaultModelError` before forking.
    """
    from repro.faults.store import (  # deferred; see _detect_seg_shard
        chain_from_array,
        chain_to_array,
        stimulus_chain,
    )

    simulator._check_segment_engine()  # before any work or fork
    workers = resolve_workers(workers)
    if len(faults) == 0 or workers <= 1 or not fork_available():
        return simulator.detect_segmented(
            stimulus,
            faults,
            progress=progress,
            drop_detected=drop_detected,
            store=store,
        )
    start = time.perf_counter()
    # The chain the parent expects every shard to report.
    expected_chain = chain_to_array(stimulus_chain(stimulus))
    stats = DispatchStats()
    shared = dict(
        simulator=simulator,
        stimulus=stimulus,
        faults=list(faults),
        drop_detected=bool(drop_detected),
        store=store,
    )
    fields, health = _run_campaign(
        _detect_seg_shard, shared, workers, progress, supervision,
        units=stimulus.num_segments, stats=stats, chain=expected_chain,
    )
    return DetectionResult(
        faults=list(faults),
        wall_time=time.perf_counter() - start,
        health=health,
        segment_digests=chain_from_array(expected_chain),
        dispatch=stats.as_dict(),
        **fields,
    )


def parallel_classify(
    simulator: FaultSimulator,
    inputs: np.ndarray,
    labels: np.ndarray,
    faults: Sequence[Fault],
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    *,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    supervision: Optional[SupervisionConfig] = None,
) -> ClassificationResult:
    """:meth:`FaultSimulator.classify` sharded across supervised processes.

    The parent runs the fault-free network over ``inputs`` once, on the
    simulator's engine, and the forked shards share those outputs.
    Labels and accuracy drops are exactly those of the serial campaign,
    whatever the sharding, retries or resume.  With ``checkpoint_path``
    set, each finished shard's ``critical`` and ``accuracy_drop`` arrays
    are persisted in that order, even when the campaign runs serially.
    """
    workers = resolve_workers(workers)
    use_pool = workers > 1 and fork_available()
    if len(faults) == 0 or (not use_pool and checkpoint_path is None):
        return simulator.classify(inputs, labels, faults, progress=progress)
    start = time.perf_counter()
    labels = np.asarray(labels)
    golden_modules, _, nominal_accuracy = simulator._labelling_reference(
        inputs, labels
    )
    shared = dict(
        simulator=simulator,
        inputs=inputs,
        labels=labels,
        faults=list(faults),
        golden_modules=golden_modules,
    )
    checkpoint = _prepare_checkpoint(
        checkpoint_path, resume, simulator, faults, (inputs, labels), workers
    )
    fields, health = _run_campaign(
        _classify_shard, shared, workers, progress, supervision,
        use_pool=use_pool, checkpoint=checkpoint, checkpoint_path=checkpoint_path,
    )
    return ClassificationResult(
        faults=list(faults),
        nominal_accuracy=nominal_accuracy,
        wall_time=time.perf_counter() - start,
        health=health,
        **fields,
    )
