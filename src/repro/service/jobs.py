"""Durable job records and campaign bundles for the service.

A *job* is one unit of long-running work the daemon owns on behalf of a
client: a coverage-verification campaign or a test-generation run.  Jobs
must survive the daemon itself dying, so every job is two files in the
service state directory:

- ``jobs/<id>.json`` — the :class:`JobSpec` plus current
  :class:`JobState`, written atomically on every transition.  On restart
  the daemon re-queues every job that was ``QUEUED`` or ``RUNNING``.
- ``jobs/<id>.progress.ckpt`` — a generate job's durable progress (the
  :class:`~repro.core.checkpoint.GeneratorCheckpoint` the generator
  writes).  Verify jobs write none: their progress is the records they
  leave in the daemon's coverage store.  A re-queued job resumes from
  either, so the restarted run recomputes only the missing work and its
  result arrays are bit-identical to an uninterrupted run.

Results land in ``jobs/<id>.result.ckpt`` (the deterministic checkpoint
container), so two daemons that ran the same job — or one daemon killed
and restarted halfway — produce byte-identical result files.

A *campaign bundle* is the self-contained input artifact a client
submits: network, stimulus/faults (verify) or generator config + seed
(generate), pickled and wrapped in a magic header.  Bundles are inputs,
not shared state — the daemon only ever reads them — and they ride the
protocol by *path*, never by value.  Submitting a bundle is a statement
of trust in the file (pickle executes arbitrary code when loaded); the
daemon is a local-trust service, see ``docs/SERVICE.md``.
"""

from __future__ import annotations

import enum
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.checkpoint import atomic_write_bytes
from repro.errors import ServiceError

#: Leading bytes of every campaign bundle.
BUNDLE_MAGIC = b"REPRO-BUNDLE-1\n"

JOB_KINDS = ("verify", "generate")


class JobState(str, enum.Enum):
    """Job lifecycle: ``QUEUED → RUNNING → {DONE, FAILED, CANCELLED}``.

    ``RUNNING`` jobs found on disk at daemon startup were interrupted by
    a crash; they transition back to ``QUEUED`` (with the campaign
    checkpoint intact) rather than to a terminal state.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobSpec:
    """Everything needed to (re)run one job, JSON-serializable.

    ``priority`` sorts the queue (lower runs first, FIFO within a
    priority).  ``timeout_s`` is the per-job deadline measured in
    *running* wall-clock; ``None`` defers to the daemon's default.
    ``workers`` is the job's requested lease from the shared pool budget
    (``None`` = as many as the scheduler will grant).
    """

    id: str
    client: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    timeout_s: Optional[float] = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r} (expected one of {JOB_KINDS})",
                code="bad-request",
            )


@dataclass
class JobRecord:
    """A spec plus its current state — the unit of durability."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    #: How many times the daemon (re)started this job, counting the
    #: initial dispatch; crash-resumed jobs have ``attempts > 1``.
    attempts: int = 0
    #: Last streamed progress, for ``status`` on a running job.
    done: int = 0
    total: int = 0
    #: Summary metrics filled in at completion (detection rate etc.).
    summary: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.spec.id,
            "client": self.spec.client,
            "kind": self.spec.kind,
            "params": self.spec.params,
            "priority": self.spec.priority,
            "timeout_s": self.spec.timeout_s,
            "workers": self.spec.workers,
            "state": self.state.value,
            "error": self.error,
            "attempts": self.attempts,
            "done": self.done,
            "total": self.total,
            "summary": self.summary,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobRecord":
        try:
            spec = JobSpec(
                id=str(payload["id"]),
                client=str(payload["client"]),
                kind=str(payload["kind"]),
                params=dict(payload.get("params") or {}),
                priority=int(payload.get("priority", 0)),
                timeout_s=payload.get("timeout_s"),
                workers=payload.get("workers"),
            )
            return cls(
                spec=spec,
                state=JobState(payload["state"]),
                error=payload.get("error"),
                attempts=int(payload.get("attempts", 0)),
                done=int(payload.get("done", 0)),
                total=int(payload.get("total", 0)),
                summary=dict(payload.get("summary") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed job record: {exc}", code="bad-record"
            ) from exc


# ----------------------------------------------------------------------
class JobStore:
    """The on-disk job table under ``<state_dir>/jobs/``.

    Writes are atomic (temp + ``os.replace``) so a daemon killed
    mid-transition leaves either the old record or the new one.  Job ids
    are a monotonically increasing sequence persisted implicitly in the
    filenames, so a restarted daemon never reuses an id.
    """

    def __init__(self, state_dir) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def progress_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.progress.ckpt"

    def result_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.result.ckpt"

    # ------------------------------------------------------------------
    def next_id(self) -> str:
        highest = 0
        for path in self.jobs_dir.glob("j*.json"):
            try:
                highest = max(highest, int(path.stem[1:]))
            except ValueError:
                continue
        return f"j{highest + 1:06d}"

    def save(self, record: JobRecord) -> None:
        payload = json.dumps(
            record.to_json(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        atomic_write_bytes(
            str(self.record_path(record.spec.id)),
            payload,
            chaos_site="service-record",
            description="job record",
        )

    def load(self, job_id: str) -> Optional[JobRecord]:
        path = self.record_path(job_id)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise ServiceError(f"{path}: unreadable job record: {exc}") from exc
        try:
            return JobRecord.from_json(json.loads(payload.decode("utf-8")))
        except ValueError as exc:
            raise ServiceError(f"{path}: corrupt job record: {exc}") from exc

    def load_all(self) -> Dict[str, JobRecord]:
        records = {}
        for path in sorted(self.jobs_dir.glob("j*.json")):
            record = self.load(path.stem)
            if record is not None:
                records[record.spec.id] = record
        return records


# ----------------------------------------------------------------------
# Campaign bundles
# ----------------------------------------------------------------------
def save_campaign_bundle(path, payload: Dict[str, Any]) -> Path:
    """Write a campaign bundle: ``payload`` must carry ``kind`` plus the
    objects that job kind's runner expects (see :mod:`repro.service.runner`).

    Verify bundles: ``network``, ``stimulus`` (:class:`TestStimulus`),
    ``faults``, optional ``fault_config`` and engine ``options``.
    Generate bundles: ``network``, ``config`` (:class:`TestGenConfig`),
    ``seed``.
    """
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"bundle kind must be one of {JOB_KINDS}, got {kind!r}",
            code="bad-bundle",
        )
    data = BUNDLE_MAGIC + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(
        str(path), data, chaos_site="service-bundle", description="campaign bundle"
    )
    return Path(path)


def load_campaign_bundle(path) -> Dict[str, Any]:
    """Load and validate a bundle written by :func:`save_campaign_bundle`.

    Any structural problem — missing file, bad magic, torn pickle, wrong
    payload shape — raises :class:`ServiceError` (``code="bad-bundle"``)
    so the job fails with a typed, reportable error instead of an
    arbitrary unpickling traceback.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ServiceError(f"bundle {path} does not exist", code="bad-bundle") from None
    except OSError as exc:
        raise ServiceError(f"bundle {path} unreadable: {exc}", code="bad-bundle") from exc
    if not data.startswith(BUNDLE_MAGIC):
        raise ServiceError(
            f"bundle {path} is not a repro campaign bundle (bad magic)",
            code="bad-bundle",
        )
    try:
        payload = pickle.load(io.BytesIO(data[len(BUNDLE_MAGIC):]))
    except Exception as exc:  # torn/corrupt pickles raise a zoo of types
        raise ServiceError(f"bundle {path} corrupt: {exc}", code="bad-bundle") from exc
    if not isinstance(payload, dict) or payload.get("kind") not in JOB_KINDS:
        raise ServiceError(
            f"bundle {path} holds no recognizable campaign payload",
            code="bad-bundle",
        )
    return payload
