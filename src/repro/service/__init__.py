"""Resilient campaign service: a stdlib-only asyncio daemon that runs
many fault campaigns for many clients.

The repo historically ran one generation or campaign per process; the
service turns that machinery into a long-running daemon (``repro serve``)
speaking a line-delimited JSON protocol over a unix or TCP socket, with

- a priority job queue with admission control and backpressure (bounded
  queue depth and per-client in-flight caps produce typed rejections
  instead of unbounded memory growth),
- per-job streaming progress events (``repro watch``),
- cooperative cancellation (``repro cancel``) and per-job deadlines that
  release every worker process and spool directory on the way out,
- a scheduler that leases workers from one shared supervised-pool budget
  across jobs instead of spawning one full pool per campaign, shrinking
  the budget gracefully when workers keep failing, and
- crash-resume: every job is durable (spec + campaign progress
  checkpoint), so a killed daemon restarted on the same state directory
  resumes every in-flight job to bit-identical results
  (``tests/chaos/test_service_resume.py``).

See ``docs/SERVICE.md`` for the protocol and job lifecycle.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.jobs import (
    JobState,
    load_campaign_bundle,
    save_campaign_bundle,
)
from repro.service.protocol import MAX_FRAME_ENV, decode_frame, encode_frame

__all__ = [
    "CampaignService",
    "ServiceConfig",
    "ServiceClient",
    "JobState",
    "save_campaign_bundle",
    "load_campaign_bundle",
    "encode_frame",
    "decode_frame",
    "MAX_FRAME_ENV",
]
