"""Job execution for the campaign service.

One job runs in one worker thread of the daemon (the campaign engines
block; their forked worker pools do the parallel work).  The runner wires
three service concerns into the existing engines without touching their
semantics:

- **Cancellation** — a :class:`CancelToken` is checked at every campaign
  progress tick and generation log line; when set, the runner raises
  :class:`~repro.errors.JobCancelledError` *from inside the engine*, so
  the engines' own ``finally`` blocks release worker processes and
  spool directories (the exact paths pinned by
  ``tests/chaos/test_worker_failures.py``, including the service's
  cancel-mid-shard scenario).
- **Durability** — a verify job runs against the daemon's coverage store,
  which holds a record for every finished (fault group, segment), and a
  generate job checkpoints to its durable progress file with
  ``resume=True``; so a re-dispatched job (after a daemon kill, or a
  retried dispatch) continues from its last finished (fault group,
  segment) or generator iteration bit-identically.
- **Determinism** — results are persisted in the deterministic checkpoint
  container with a content digest, so "the restarted daemon produced the
  same answer" is a byte comparison.

The ``service-kill`` chaos site fires at every progress tick: action
``crash`` ``os._exit``\\ s the daemon mid-job (the chaos-resume scenario),
``raise`` fails the job with :class:`~repro.errors.ChaosError`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.checkpoint import serialize_checkpoint, atomic_write_bytes
from repro.core.coverage import verify_coverage
from repro.errors import JobCancelledError, ServiceError
from repro.service.jobs import JobRecord, JobStore, load_campaign_bundle
from repro.utils import chaos

#: Per-job deadline default (seconds of running wall-clock);
#: unset/empty = no deadline.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: One counter per daemon process: the deterministic key sequence of the
#: ``service-kill`` chaos site across every job it runs.
_KILL_TICKS = itertools.count()


def default_job_timeout() -> Optional[float]:
    raw = os.environ.get(JOB_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ServiceError(
            f"{JOB_TIMEOUT_ENV} must be a number, got {raw!r}", code="bad-config"
        ) from None
    return value if value > 0 else None


@dataclass
class CancelToken:
    """Cooperative cancellation flag shared between the event loop (which
    sets it) and the runner thread (which polls it at progress ticks)."""

    _event: threading.Event = field(default_factory=threading.Event)
    reason: str = ""
    #: Graceful-shutdown cancellations requeue the job (its coverage store
    #: or generator checkpoint resumes it under the next daemon) instead
    #: of ending it.
    requeue: bool = False

    def cancel(self, reason: str = "cancelled", requeue: bool = False) -> None:
        self.reason = reason
        self.requeue = requeue
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise JobCancelledError(self.reason or "job cancelled")


class _Deadline:
    """Running-wall-clock deadline, folded into the same cancel token so
    expiry takes the exact cancellation path (resources released, store
    records and generator checkpoint kept for a later resubmit)."""

    def __init__(self, token: CancelToken, timeout_s: Optional[float]) -> None:
        self.token = token
        self.timeout_s = timeout_s
        self.started = time.monotonic()

    def check(self) -> None:
        if (
            self.timeout_s is not None
            and time.monotonic() - self.started > self.timeout_s
        ):
            self.token.cancel(
                f"deadline exceeded ({self.timeout_s:g}s)"
            )


def _tick(token: CancelToken, deadline: _Deadline) -> None:
    """One cooperative checkpoint: chaos, deadline, cancellation."""
    action = chaos.strike("service-kill", key=next(_KILL_TICKS))
    if action == "crash":
        # The daemon dies abruptly mid-job — exactly what the resume
        # scenario needs.  Store records and checkpoints already on disk
        # survive.
        os._exit(21)
    if action in ("raise", "hang"):
        from repro.errors import ChaosError

        raise ChaosError("chaos raise at service-kill")
    deadline.check()
    token.raise_if_cancelled()


@dataclass
class JobOutcome:
    """What a finished job hands back to the daemon."""

    summary: Dict[str, Any]
    result_digest: str
    #: The campaign's :class:`CampaignHealth` (``None`` for generation
    #: jobs) — the scheduler folds its crash/hang counts into the shared
    #: worker budget.
    health: Any = None


def _save_result(store: JobStore, job_id: str, arrays, meta) -> str:
    """Persist the deterministic result container; returns its content
    digest (SHA-256 over the container bytes, which are themselves a pure
    function of the arrays + meta)."""
    payload = serialize_checkpoint(arrays, meta)
    atomic_write_bytes(
        str(store.result_path(job_id)),
        payload,
        chaos_site="service-result",
        description="job result",
    )
    return hashlib.sha256(payload).hexdigest()


# ----------------------------------------------------------------------
def run_job(
    record: JobRecord,
    store: JobStore,
    workers: int,
    token: CancelToken,
    emit: Optional[Callable[[int, int], None]] = None,
    store_dir=None,
) -> JobOutcome:
    """Execute one job to completion in the calling thread.

    ``workers`` is the scheduler's lease for this attempt.  ``emit`` (if
    given) receives every (done, total) progress tick — the daemon
    forwards them to watchers.  ``store_dir`` is the coverage store verify
    jobs run against and resume from.  Raises :class:`JobCancelledError` on
    cancellation/deadline, :class:`ServiceError` for unusable bundles, or
    whatever the engine raised.
    """
    spec = record.spec
    bundle = load_campaign_bundle(spec.params.get("bundle"))
    if bundle.get("kind") != spec.kind:
        raise ServiceError(
            f"job {spec.id} is kind {spec.kind!r} but its bundle is "
            f"{bundle.get('kind')!r}",
            code="bad-bundle",
        )
    timeout_s = spec.timeout_s
    if timeout_s is None:
        timeout_s = default_job_timeout()
    else:
        # submit() validates at admission; this guards records that
        # reached disk some other way (hand-edited, older daemons) so a
        # bad value fails the job typed instead of as a TypeError at the
        # first progress tick.
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError):
            raise ServiceError(
                f"job {spec.id} has a non-numeric timeout_s "
                f"{spec.timeout_s!r}",
                code="bad-request",
            ) from None
        if timeout_s <= 0:
            timeout_s = None
    deadline = _Deadline(token, timeout_s)
    if spec.kind == "verify":
        return _run_verify(record, store, bundle, workers, token, deadline, emit,
                           store_dir)
    return _run_generate(record, store, bundle, token, deadline, emit)


def _run_verify(
    record, store, bundle, workers, token, deadline, emit, store_dir
) -> JobOutcome:
    spec = record.spec
    try:
        network = bundle["network"]
        stimulus = bundle["stimulus"]
        faults = bundle["faults"]
    except KeyError as exc:
        raise ServiceError(
            f"verify bundle for job {spec.id} is missing {exc}", code="bad-bundle"
        ) from None
    # A ``segmented`` key from older bundles is ignored: verification has
    # one engine.
    options = dict(bundle.get("options") or {})

    def progress(done: int, total: int) -> None:
        if emit is not None:
            emit(done, total)
        _tick(token, deadline)

    start = time.perf_counter()
    detection, _ = verify_coverage(
        network,
        stimulus,
        faults,
        bundle.get("fault_config"),
        progress=progress,
        workers=workers,
        exact_metrics=bool(options.get("exact_metrics", True)),
        store=store_dir,
    )
    arrays = {
        "detected": detection.detected,
        "output_l1": detection.output_l1,
        "class_count_diff": detection.class_count_diff,
    }
    meta = {"kind": "service-verify", "job": spec.id, "n_faults": len(faults)}
    digest = _save_result(store, spec.id, arrays, meta)
    health = detection.health
    summary = {
        "n_faults": len(faults),
        "detected": int(detection.detected.sum()),
        "detection_rate": float(detection.detected.mean()) if len(faults) else 0.0,
        "wall_time_s": time.perf_counter() - start,
        "workers": workers,
        "result_digest": digest,
    }
    if health is not None:
        summary["health"] = {
            "crashes": health.crashes,
            "hangs": health.hangs,
            "degraded": health.degraded,
        }
    return JobOutcome(summary=summary, result_digest=digest, health=health)


def _run_generate(record, store, bundle, token, deadline, emit) -> JobOutcome:
    from repro.core.generator import TestGenerator

    spec = record.spec
    try:
        network = bundle["network"]
        config = bundle["config"]
    except KeyError as exc:
        raise ServiceError(
            f"generate bundle for job {spec.id} is missing {exc}", code="bad-bundle"
        ) from None
    seed = int(bundle.get("seed", 0))

    iteration = itertools.count(1)

    def log(message: str) -> None:
        # The generation loop has no progress callback; its per-event log
        # stream is the cooperative cancellation surface (one check per
        # iteration/stage event, plus the checkpoint cadence for resume).
        if emit is not None:
            emit(next(iteration), 0)
        _tick(token, deadline)

    start = time.perf_counter()
    generator = TestGenerator(
        network,
        config,
        np.random.default_rng(seed),
        log=log,
        checkpoint_path=str(store.progress_path(spec.id)),
        resume=True,
    )
    result = generator.generate()
    arrays = {
        f"chunk{idx:04d}": chunk.astype(np.uint8)
        for idx, chunk in enumerate(result.stimulus.chunks)
    }
    meta = {
        "kind": "service-generate",
        "job": spec.id,
        "num_chunks": result.num_chunks,
        "t_in_min": int(result.t_in_min),
        "activated_fraction": float(result.activated_fraction),
    }
    digest = _save_result(store, spec.id, arrays, meta)
    summary = {
        "num_chunks": result.num_chunks,
        "t_in_min": int(result.t_in_min),
        "duration_steps": int(result.stimulus.duration_steps),
        "activated_fraction": float(result.activated_fraction),
        "wall_time_s": time.perf_counter() - start,
        "result_digest": digest,
    }
    return JobOutcome(summary=summary, result_digest=digest)
