"""The campaign daemon: an asyncio event loop around the job machinery.

Architecture — one process, three layers:

- **Protocol layer** (``_handle_client``): one asyncio task per
  connection, reading line-delimited JSON frames (size-capped by the
  stream limit) and writing responses.  Protocol errors are typed
  frames, never silent closes; an oversized line gets a
  ``frame-too-large`` error before the connection drops.
- **Control plane** (the ``CampaignService`` methods): admission control
  (bounded queue depth, per-client in-flight caps → typed rejections),
  a priority heap of queued jobs, a dispatcher that starts jobs while
  capacity lasts, cancellation, and watch-event fan-out.  Everything in
  this layer runs on the event loop, so no locks.
- **Data plane** (:mod:`repro.service.runner` in a thread pool): the
  campaign engines block for minutes, so each running job owns one
  executor thread; its forked supervised workers do the heavy lifting.
  Progress crosses back to the loop via ``call_soon_threadsafe``.

Durability: job records transition on disk (atomic writes) *before*
side effects, so a daemon killed at any instant restarts into a
consistent table — ``RUNNING`` records are re-queued and resume
bit-identically: verify jobs from the coverage store, generate jobs from
their generator checkpoints.

Chaos sites (``REPRO_CHAOS``): ``service-accept`` fires per accepted
connection (``raise`` → connection refused/closed), ``service-dispatch``
per job dispatch (``raise`` → the job fails typed), and ``service-kill``
per progress tick inside the runner (``crash`` → daemon ``os._exit`` —
the kill-restart-resume scenario of
``tests/chaos/test_service_resume.py``).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import util as mp_util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.errors import ChaosError, JobCancelledError, ServiceError
from repro.service.jobs import JobRecord, JobSpec, JobState, JobStore
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    error_frame,
    max_frame_bytes,
)
from repro.service.runner import CancelToken, default_job_timeout, run_job
from repro.service.scheduler import WorkerLeases
from repro.utils import chaos

#: Maximum number of *queued* jobs before submissions bounce
#: (``queue-full``); running jobs don't count.
QUEUE_DEPTH_ENV = "REPRO_SERVICE_QUEUE_DEPTH"
DEFAULT_QUEUE_DEPTH = 16

#: Per-client cap on jobs that are queued or running (``client-cap``).
DEFAULT_CLIENT_CAP = 8

#: Jobs running concurrently (each on one executor thread).
DEFAULT_MAX_JOBS = 4


def _close_listener_after_fork(service: "CampaignService") -> None:
    """Runs in every child the daemon forks (campaign shard workers).

    A forked worker inherits every parent fd, including the daemon's
    listening socket.  If the daemon dies abruptly (``service-kill``
    chaos, OOM kill) while workers are mid-shard, the orphaned workers
    would keep the dead daemon's listener alive: clients connect into a
    backlog nobody will ever accept and see a connection reset only when
    the orphan finally exits — racing the restarted daemon's fresh
    socket at the same path.  Closing the inherited listener immediately
    in the child keeps the listening socket's lifetime exactly the
    daemon's own.
    """
    server = service._server
    if server is None:
        return
    for sock in server.sockets or ():
        try:
            os.close(sock.fileno())
        except (OSError, ValueError):
            pass


def _admit_int(value: Any, name: str) -> int:
    """Coerce one submit-payload field to ``int`` or raise the typed
    bad-request rejection the protocol contract promises."""
    if isinstance(value, bool):
        raise ServiceError(
            f"{name} must be an integer, got {value!r}", code="bad-request"
        )
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"{name} must be an integer, got {value!r}", code="bad-request"
        ) from None


def _admit_float(value: Any, name: str) -> float:
    if isinstance(value, bool):
        raise ServiceError(
            f"{name} must be a number, got {value!r}", code="bad-request"
        )
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"{name} must be a number, got {value!r}", code="bad-request"
        ) from None


def default_queue_depth() -> int:
    raw = os.environ.get(QUEUE_DEPTH_ENV, "").strip()
    if not raw:
        return DEFAULT_QUEUE_DEPTH
    try:
        value = int(raw)
    except ValueError:
        raise ServiceError(
            f"{QUEUE_DEPTH_ENV} must be an integer, got {raw!r}", code="bad-config"
        ) from None
    return max(1, value)


@dataclass
class ServiceConfig:
    """Daemon knobs.  Exactly one of ``socket_path`` (unix) or ``port``
    (TCP on ``host``) selects the listener."""

    state_dir: str
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    workers: Optional[int] = None
    max_jobs: int = DEFAULT_MAX_JOBS
    queue_depth: Optional[int] = None
    client_cap: int = DEFAULT_CLIENT_CAP
    job_timeout_s: Optional[float] = None
    #: Coverage-store directory verify jobs run against and resume from
    #: after a kill or requeue (``None`` = ``<state_dir>/coverage_store``).
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.store_dir is None:
            self.store_dir = os.path.join(self.state_dir, "coverage_store")
        if self.queue_depth is None:
            self.queue_depth = default_queue_depth()
        if self.job_timeout_s is None:
            self.job_timeout_s = default_job_timeout()
        if (self.socket_path is None) == (self.port is None):
            raise ServiceError(
                "configure exactly one of socket_path or port", code="bad-config"
            )


@dataclass
class _Running:
    """Loop-side handle on one dispatched job."""

    record: JobRecord
    token: CancelToken
    lease: int
    task: "asyncio.Task" = None  # type: ignore[assignment]


class CampaignService:
    """The daemon.  Construct, then ``await serve()`` (runs until
    :meth:`request_shutdown`), or drive :meth:`start` / :meth:`stop`
    directly from tests."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(config.state_dir)
        self.leases = WorkerLeases(config.workers)
        self.records: Dict[str, JobRecord] = {}
        self._queue: List[tuple] = []  # (priority, seq, job_id)
        self._seq = itertools.count()
        self._running: Dict[str, _Running] = {}
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._accepts = itertools.count()
        self._dispatches = itertools.count()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_jobs), thread_name_prefix="repro-job"
        )
        self._wake: "asyncio.Event" = None  # type: ignore[assignment]
        self._shutdown: "asyncio.Event" = None  # type: ignore[assignment]
        self._server: "asyncio.AbstractServer" = None  # type: ignore[assignment]
        self._dispatcher: "asyncio.Task" = None  # type: ignore[assignment]
        self._recover()

    # ------------------------------------------------------------------
    # Durability: recovery and state transitions
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-queue every non-terminal job found on disk.  ``RUNNING``
        records mean the previous daemon died mid-job; their store records
        and generator checkpoints are intact, so they go back to
        ``QUEUED`` and resume where they left off."""
        self.records = self.store.load_all()
        for record in self.records.values():
            if record.state.terminal:
                continue
            if record.state is JobState.RUNNING:
                record.state = JobState.QUEUED
                self.store.save(record)
            heapq.heappush(
                self._queue, (record.spec.priority, next(self._seq), record.spec.id)
            )

    def _transition(self, record: JobRecord, state: JobState, error=None) -> None:
        record.state = state
        record.error = None if error is None else str(error)
        self.store.save(record)
        self._publish(record.spec.id, {"event": "state", "state": state.value})
        if state.terminal:
            self._publish_end(record)

    # ------------------------------------------------------------------
    # Watch-event fan-out
    # ------------------------------------------------------------------
    def _publish(self, job_id: str, event: Dict[str, Any]) -> None:
        frame = {"ok": True, "id": job_id}
        frame.update(event)
        for queue in self._watchers.get(job_id, []):
            queue.put_nowait(frame)

    def _publish_end(self, record: JobRecord) -> None:
        job_id = record.spec.id
        self._publish(
            job_id,
            {
                "event": "end",
                "state": record.state.value,
                "error": record.error,
                "summary": record.summary,
            },
        )
        for queue in self._watchers.pop(job_id, []):
            queue.put_nowait(None)  # sentinel: stream over

    def _progress(self, job_id: str, done: int, total: int) -> None:
        # Called on the loop (via call_soon_threadsafe from the runner
        # thread).  Progress is ephemeral — kept in memory and streamed,
        # persisted only at state transitions; the coverage store or the
        # generator checkpoint is the durable progress.
        record = self.records.get(job_id)
        if record is not None:
            record.done, record.total = int(done), int(total)
        self._publish(job_id, {"event": "progress", "done": int(done),
                               "total": int(total)})

    # ------------------------------------------------------------------
    # Admission and dispatch
    # ------------------------------------------------------------------
    def _queued_count(self) -> int:
        return sum(
            1
            for r in self.records.values()
            if r.state is JobState.QUEUED
        )

    def _client_load(self, client: str) -> int:
        return sum(
            1
            for r in self.records.values()
            if r.spec.client == client and not r.state.terminal
        )

    def submit(self, payload: Dict[str, Any]) -> JobRecord:
        """Admit one job or raise a typed rejection (backpressure)."""
        client = str(payload.get("client") or "anonymous")
        if self._queued_count() >= self.config.queue_depth:
            raise ServiceError(
                f"queue is full ({self.config.queue_depth} jobs); retry later",
                code="queue-full",
            )
        if self._client_load(client) >= self.config.client_cap:
            raise ServiceError(
                f"client {client!r} already has {self.config.client_cap} "
                "jobs in flight",
                code="client-cap",
            )
        bundle = payload.get("bundle")
        if not bundle or not isinstance(bundle, str):
            raise ServiceError("submit needs a bundle path", code="bad-request")
        if not Path(bundle).is_file():
            raise ServiceError(f"bundle {bundle} does not exist", code="bad-request")
        # Validate the numeric fields at admission: a malformed value must
        # bounce the request typed, never reach the dispatcher or runner
        # (where it would kill the dispatch loop or fail the job with an
        # internal traceback).
        priority = _admit_int(payload.get("priority", 0), "priority")
        workers = payload.get("workers")
        if workers is not None:
            workers = _admit_int(workers, "workers")
            if workers < 1:
                raise ServiceError(
                    f"workers must be >= 1, got {workers}", code="bad-request"
                )
        timeout_s = payload.get("timeout_s")
        if timeout_s is None:
            timeout_s = self.config.job_timeout_s
        else:
            timeout_s = _admit_float(timeout_s, "timeout_s")
            if timeout_s <= 0:
                raise ServiceError(
                    f"timeout_s must be positive, got {timeout_s:g}",
                    code="bad-request",
                )
        spec = JobSpec(
            id=self.store.next_id(),
            client=client,
            kind=str(payload.get("kind", "verify")),
            params={"bundle": str(bundle)},
            priority=priority,
            timeout_s=timeout_s,
            workers=workers,
        )
        record = JobRecord(spec=spec)
        self.store.save(record)  # durable before visible
        self.records[spec.id] = record
        heapq.heappush(self._queue, (spec.priority, next(self._seq), spec.id))
        if self._wake is not None:
            self._wake.set()
        return record

    async def _dispatch_loop(self) -> None:
        self._wake = asyncio.Event()
        while True:
            self._wake.clear()
            while self._queue and len(self._running) < self.config.max_jobs:
                _, _, job_id = heapq.heappop(self._queue)
                record = self.records.get(job_id)
                if record is None or record.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                try:
                    self._start_job(record)
                except Exception as exc:  # noqa: BLE001 - job failure must
                    # not kill the dispatcher task (which would silently
                    # halt all dispatch daemon-wide).
                    try:
                        self._transition(record, JobState.FAILED, error=exc)
                    except Exception:
                        # Even persisting the failure failed (e.g. disk
                        # full): record it in memory and keep dispatching.
                        record.state = JobState.FAILED
                        record.error = str(exc)
                        self._publish_end(record)
            await self._wake.wait()

    def _start_job(self, record: JobRecord) -> None:
        job_id = record.spec.id
        try:
            action = chaos.strike("service-dispatch", key=next(self._dispatches))
            if action in ("raise", "crash"):
                raise ChaosError(f"chaos {action} dispatching {job_id}")
        except ChaosError as exc:
            self._transition(record, JobState.FAILED, error=exc)
            return
        record.attempts += 1
        self._transition(record, JobState.RUNNING)
        token = CancelToken()
        lease = self.leases.lease(record.spec.workers)
        handle = _Running(record=record, token=token, lease=lease)
        handle.task = asyncio.get_event_loop().create_task(
            self._run_job(handle)
        )
        self._running[job_id] = handle

    async def _run_job(self, handle: _Running) -> None:
        record = handle.record
        job_id = record.spec.id
        loop = asyncio.get_event_loop()

        def emit(done: int, total: int) -> None:
            loop.call_soon_threadsafe(self._progress, job_id, done, total)

        health = None
        try:
            outcome = await loop.run_in_executor(
                self._executor,
                run_job,
                record,
                self.store,
                handle.lease,
                handle.token,
                emit,
                self.config.store_dir,
            )
            health = outcome.health
            record.summary = outcome.summary
            self._transition(record, JobState.DONE)
        except JobCancelledError as exc:
            if handle.token.requeue:
                # Graceful shutdown: back to QUEUED with its store records
                # or checkpoint intact — the next daemon resumes it.
                self._transition(record, JobState.QUEUED)
            else:
                self._transition(record, JobState.CANCELLED, error=exc)
        except asyncio.CancelledError:
            handle.token.cancel("daemon shutting down", requeue=True)
            raise
        except Exception as exc:  # noqa: BLE001 - job failure, not daemon failure
            self._transition(record, JobState.FAILED, error=exc)
        finally:
            self.leases.release(handle.lease, health=health)
            self._running.pop(job_id, None)
            if self._wake is not None:
                self._wake.set()

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise ServiceError(f"no such job {job_id}", code="no-such-job")
        if record.state.terminal:
            return record
        if record.state is JobState.RUNNING:
            handle = self._running.get(job_id)
            if handle is not None:
                # Cooperative: the runner notices at its next progress
                # tick and unwinds through every engine finally block.
                handle.token.cancel(reason)
            return record
        # Still queued: terminal immediately (the dispatcher skips
        # non-QUEUED heap entries).
        self._transition(record, JobState.CANCELLED, error=reason)
        return record

    # ------------------------------------------------------------------
    # Protocol layer
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            action = chaos.strike("service-accept", key=next(self._accepts))
            if action in ("raise", "crash"):
                writer.close()
                return
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Line exceeded the stream limit: report and drop the
                    # connection (the stream can no longer be framed).
                    writer.write(
                        encode_frame(
                            error_frame(
                                ServiceError(
                                    "frame exceeds size limit",
                                    code="frame-too-large",
                                )
                            )
                        )
                    )
                    await writer.drain()
                    return
                if not line:
                    return  # client closed
                try:
                    request = decode_frame(line)
                except ServiceError as exc:
                    writer.write(encode_frame(error_frame(exc)))
                    await writer.drain()
                    continue
                await self._handle_request(request, writer)
                if request.get("op") == "shutdown":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_request(self, request: Dict[str, Any], writer) -> None:
        op = request.get("op")
        try:
            if op == "watch":
                await self._op_watch(request, writer)
                return
            response = self._dispatch_op(op, request)
        except ServiceError as exc:
            response = error_frame(exc)
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            response = error_frame(exc, code="internal")
        writer.write(encode_frame(response))
        await writer.drain()

    def _dispatch_op(self, op, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {"ok": True, "pong": True, "pool": self.leases.snapshot(),
                    "jobs": {"queued": self._queued_count(),
                             "running": len(self._running)}}
        if op == "submit":
            record = self.submit(request)
            return {"ok": True, "id": record.spec.id,
                    "state": record.state.value}
        if op == "status":
            record = self._require_job(request)
            frame = {"ok": True, "job": record.to_json()}
            frame["pool"] = self.leases.snapshot()
            return frame
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [
                    {"id": r.spec.id, "client": r.spec.client,
                     "kind": r.spec.kind, "state": r.state.value,
                     "done": r.done, "total": r.total}
                    for _, r in sorted(self.records.items())
                ],
            }
        if op == "cancel":
            record = self.cancel(
                str(request.get("id", "")),
                reason=str(request.get("reason") or "cancelled by client"),
            )
            return {"ok": True, "id": record.spec.id, "state": record.state.value}
        if op == "result":
            record = self._require_job(request)
            if record.state is not JobState.DONE:
                raise ServiceError(
                    f"job {record.spec.id} is {record.state.value}, not done",
                    code="not-done",
                )
            return {
                "ok": True,
                "id": record.spec.id,
                "summary": record.summary,
                "result_path": str(self.store.result_path(record.spec.id)),
            }
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "stopping": True}
        raise ServiceError(f"unknown op {op!r}", code="bad-request")

    def _require_job(self, request: Dict[str, Any]) -> JobRecord:
        job_id = str(request.get("id", ""))
        record = self.records.get(job_id)
        if record is None:
            raise ServiceError(f"no such job {job_id}", code="no-such-job")
        return record

    async def _op_watch(self, request: Dict[str, Any], writer) -> None:
        """Stream state/progress/end events for one job until terminal."""
        record = self._require_job(request)
        writer.write(encode_frame({"ok": True, "id": record.spec.id,
                                   "event": "state",
                                   "state": record.state.value}))
        await writer.drain()
        if record.state.terminal:
            writer.write(encode_frame({"ok": True, "id": record.spec.id,
                                       "event": "end",
                                       "state": record.state.value,
                                       "error": record.error,
                                       "summary": record.summary}))
            await writer.drain()
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(record.spec.id, []).append(queue)
        try:
            while True:
                frame = await queue.get()
                if frame is None:
                    return
                writer.write(encode_frame(frame))
                await writer.drain()
        finally:
            listeners = self._watchers.get(record.spec.id)
            if listeners is not None and queue in listeners:
                listeners.remove(queue)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._dispatcher = asyncio.get_event_loop().create_task(
            self._dispatch_loop()
        )
        limit = max_frame_bytes()
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()  # stale socket from a killed daemon
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path), limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port, limit=limit,
            )
        # Shard workers forked from here on must not inherit the
        # listener (see _close_listener_after_fork).  The registry holds
        # the service weakly, so stopped services don't accumulate.
        mp_util.register_after_fork(self, _close_listener_after_fork)

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve(self) -> None:
        """Run until :meth:`request_shutdown` (the ``shutdown`` op or a
        signal handler)."""
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        # Dispatcher first: requeued in-flight jobs must wait for the
        # next daemon, not restart under the one that is shutting down.
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        for handle in list(self._running.values()):
            handle.token.cancel("daemon shutting down", requeue=True)
        tasks = [h.task for h in self._running.values() if h.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self.config.socket_path is not None:
            try:
                Path(self.config.socket_path).unlink()
            except OSError:
                pass
