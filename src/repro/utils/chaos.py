"""Deterministic chaos/crash injection for resilience testing.

The resilience guarantees of the parallel campaign engine and the
checkpointed generation loop (``docs/RESILIENCE.md``) are themselves
testable only if failures can be injected *deterministically*: the chaos
tests in ``tests/chaos/`` must be able to say "the worker handling the
shard starting at fault 12 crashes on its first attempt" and get exactly
that, every run.

A :class:`ChaosPolicy` is a list of :class:`ChaosEvent` triggers.  Code
under test calls :func:`strike` at named *sites* with a ``(key, attempt)``
coordinate; the policy decides which action (if any) fires there.  With no
policy installed — the production default — :func:`strike` is a cheap
``None`` and no site does anything.

Sites currently instrumented:

- ``shard`` — a campaign worker, keyed by the shard's starting fault
  index, ``attempt`` counting supervisor retries.  Actions: ``crash``
  (``os._exit`` in a forked worker), ``hang`` (stop heartbeating and
  sleep), ``raise`` (raise :class:`~repro.errors.ChaosError`).  In-process
  execution honours only ``raise`` — crashing or hanging the parent would
  take the test runner down with it.
- ``checkpoint-write`` — inside :func:`repro.core.checkpoint.save_checkpoint`,
  keyed by checkpoint sequence.  ``kill-write`` tears the temp file and
  raises mid-write (the atomic-replace guarantee keeps the previous
  checkpoint intact); ``raise``/``crash`` fail before writing.
- ``generator-iteration`` — after the generation loop checkpoints an
  iteration, keyed by iteration index.  ``crash``/``raise`` raise.
- ``store-write`` — inside :meth:`repro.faults.store.CoverageStore.put_bytes`,
  keyed by a per-store running write counter (each forked worker counts
  from its parent's value).  ``kill-write`` tears the temp file and
  raises (the atomic replace keeps any previous record intact);
  ``raise``/``crash`` fail before writing.  Re-running the campaign
  against the same store must rebuild a bit-identical store tree
  (``tests/chaos/test_store_resume.py``) and resume to results identical
  to an uninterrupted run (``tests/chaos/test_segment_resume.py``,
  ``tests/chaos/test_transient_resume.py``).
- ``service-accept`` — in the campaign daemon, once per accepted client
  connection, keyed by a running accept counter.  ``raise``/``crash``
  close the connection before any frame is read (clients retry with
  backoff).
- ``service-dispatch`` — in the daemon's dispatcher, once per job
  dispatch, keyed by a running dispatch counter.  ``raise``/``crash``
  fail that job with a typed error instead of starting it.
- ``service-kill`` — at every job progress tick in the daemon's runner,
  keyed by a per-process running tick counter across all jobs.  ``crash``
  ``os._exit``\\ s the whole daemon mid-job — the kill-restart-resume
  scenario of ``tests/chaos/test_service_resume.py`` — while ``raise``
  fails the job and leaves the daemon up.

Policies install programmatically (:func:`install` / the
:func:`installed` context manager) — forked workers inherit the installed
policy through copy-on-write memory — or via the ``REPRO_CHAOS``
environment variable using the same spec syntax, e.g.::

    REPRO_CHAOS="crash@shard:*#0,hang@shard:12#1,kill-write@checkpoint-write:3"

``key`` and ``attempt`` accept ``*`` (match any); ``#attempt`` defaults
to ``*`` when omitted.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ChaosError, ConfigurationError

#: Environment variable holding a policy spec (workers inherit it).
CHAOS_ENV = "REPRO_CHAOS"

VALID_ACTIONS = ("crash", "hang", "raise", "kill-write")


@dataclass(frozen=True)
class ChaosEvent:
    """One trigger: fire ``action`` at ``site`` for matching coordinates.

    ``key``/``attempt`` of ``None`` match any value.
    """

    action: str
    site: str
    key: Optional[int] = None
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in VALID_ACTIONS:
            raise ConfigurationError(
                f"chaos action must be one of {VALID_ACTIONS}, got {self.action!r}"
            )

    def matches(self, site: str, key: int, attempt: int) -> bool:
        return (
            self.site == site
            and (self.key is None or self.key == key)
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass(frozen=True)
class ChaosPolicy:
    """An ordered set of events; the first match at a site wins."""

    events: Tuple[ChaosEvent, ...] = ()
    #: How long a ``hang`` action sleeps (the supervisor is expected to
    #: kill the worker long before this elapses).
    hang_seconds: float = 600.0

    def strike(self, site: str, key: int = 0, attempt: int = 0) -> Optional[str]:
        for event in self.events:
            if event.matches(site, key, attempt):
                return event.action
        return None

    @classmethod
    def parse(cls, spec: str, hang_seconds: float = 600.0) -> "ChaosPolicy":
        """Parse ``action@site:key[#attempt]`` terms separated by commas."""
        events = []
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            try:
                action, _, rest = term.partition("@")
                site_key, _, attempt_s = rest.partition("#")
                site, _, key_s = site_key.partition(":")
                if not action or not site:
                    raise ValueError("empty action or site")
                key = None if key_s in ("", "*") else int(key_s)
                attempt = None if attempt_s in ("", "*") else int(attempt_s)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos term {term!r} (want action@site:key[#attempt]): {exc}"
                ) from exc
            events.append(ChaosEvent(action=action, site=site, key=key, attempt=attempt))
        return cls(events=tuple(events), hang_seconds=hang_seconds)


_installed: Optional[ChaosPolicy] = None
_lock = threading.Lock()
_env_cache: Tuple[Optional[str], Optional[ChaosPolicy]] = (None, None)


def install(policy: Optional[ChaosPolicy]) -> None:
    """Install a process-wide policy (``None`` uninstalls).  Forked
    campaign workers inherit it through copy-on-write memory."""
    global _installed
    with _lock:
        _installed = policy


def uninstall() -> None:
    install(None)


@contextmanager
def installed(policy: ChaosPolicy):
    """Scope a policy to a ``with`` block (test helper)."""
    install(policy)
    try:
        yield policy
    finally:
        uninstall()


def active_policy() -> Optional[ChaosPolicy]:
    """The programmatically-installed policy, else one parsed from
    ``$REPRO_CHAOS`` (cached per spec string), else ``None``."""
    global _env_cache
    if _installed is not None:
        return _installed
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    cached_spec, cached_policy = _env_cache
    if cached_spec != spec:
        _env_cache = (spec, ChaosPolicy.parse(spec))
    return _env_cache[1]


def strike(site: str, key: int = 0, attempt: int = 0) -> Optional[str]:
    """The action to take at ``(site, key, attempt)``, or ``None``.

    Sites execute the returned action themselves — crash semantics differ
    between a forked worker and in-process code.
    """
    policy = active_policy()
    if policy is None:
        return None
    return policy.strike(site, key, attempt)


def hang_seconds() -> float:
    policy = active_policy()
    return policy.hang_seconds if policy is not None else 600.0


def raise_if_struck(site: str, key: int = 0, attempt: int = 0) -> None:
    """In-process sites: any matching action raises :class:`ChaosError`
    (a parent process cannot ``os._exit`` or hang without killing the
    host — the typed error is the in-process stand-in for both)."""
    action = strike(site, key, attempt)
    if action is not None:
        raise ChaosError(f"chaos {action} at {site}:{key}#{attempt}")
