"""Daemon contracts: bit-identical campaign execution, admission control,
cancellation, deadlines, event streams, and wire-level robustness.

The daemon runs in a background thread of the test process (so its forked
campaign workers and monkeypatched seams are shared); clients talk to it
over its real unix socket.
"""

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.errors import JobCancelledError, ServiceError
from repro.service.protocol import MAX_FRAME_ENV, decode_frame
import repro.service.daemon as daemon_mod

from tests.service.conftest import assert_result_matches


def _blocking_runner(started, release):
    """A stand-in for run_job that parks until cancelled (or released),
    recording dispatch order — full control over daemon occupancy."""

    def run_job(record, store, workers, token, emit=None, store_dir=None):
        started.append(record.spec.id)
        while not token.cancelled:
            if release.is_set():
                from repro.service.runner import JobOutcome

                return JobOutcome(summary={"blocked": True}, result_digest="")
            time.sleep(0.005)
        raise JobCancelledError(token.reason)

    return run_job


class TestExecution:
    def test_single_job_bit_identical(self, daemon, service_campaign,
                                      verify_bundle):
        harness = daemon()
        client = harness.client()
        job_id = client.submit(verify_bundle)
        job = client.wait(job_id, deadline_s=120)
        assert job["state"] == "done"
        result = client.result(job_id)
        assert_result_matches(result["result_path"], service_campaign["serial"])

    def test_eight_concurrent_clients_bit_identical(
        self, daemon, service_campaign, verify_bundle
    ):
        """The acceptance bar: 8 campaigns through one daemon, each from
        its own client, all bit-identical to the serial reference."""
        harness = daemon(max_jobs=4, client_cap=8, queue_depth=16)

        def one(index):
            client = harness.client(name=f"client{index}")
            job_id = client.submit(verify_bundle)
            job = client.wait(job_id, deadline_s=300)
            return job_id, job

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(one, range(8)))
        assert len({job_id for job_id, _ in outcomes}) == 8
        reader = harness.client()
        for job_id, job in outcomes:
            assert job["state"] == "done", (job_id, job.get("error"))
            result = reader.result(job_id)
            assert_result_matches(
                result["result_path"], service_campaign["serial"]
            )

    def test_verify_job_progress_lives_in_the_state_store(
        self, daemon, service_campaign, verify_bundle
    ):
        """Without ``store_dir`` a verify job runs against
        ``<state>/coverage_store`` — the records a requeued job resumes
        from — and writes no progress checkpoint of its own."""
        from repro.faults.store import CoverageStore

        harness = daemon()
        client = harness.client()
        job_id = client.submit(verify_bundle)
        assert client.wait(job_id, deadline_s=120)["state"] == "done"
        store = CoverageStore(harness.config.store_dir)
        assert store.root == Path(harness.state_dir) / "coverage_store"
        assert store.stat()["records"] > 0
        assert not harness.service.store.progress_path(job_id).exists()

    def test_legacy_segmented_bundle_option_is_ignored(
        self, daemon, service_campaign, tmp_path
    ):
        """Bundles written while verification had an assembled mode carry
        ``options["segmented"]``; they still load and run the one engine."""
        from repro.service import save_campaign_bundle

        bundle = tmp_path / "legacy.bundle"
        save_campaign_bundle(
            bundle,
            {
                "kind": "verify",
                "network": service_campaign["network"],
                "stimulus": service_campaign["stimulus"],
                "faults": service_campaign["faults"],
                "fault_config": service_campaign["config"],
                "options": {"segmented": False, "exact_metrics": True},
            },
        )
        client = daemon().client()
        job_id = client.submit(str(bundle))
        assert client.wait(job_id, deadline_s=120)["state"] == "done"
        assert_result_matches(
            client.result(job_id)["result_path"], service_campaign["serial"]
        )

    def test_generate_job_runs(self, daemon, service_campaign, tmp_path):
        from repro.core.config import TestGenConfig
        from repro.service import save_campaign_bundle

        bundle = tmp_path / "generate.bundle"
        save_campaign_bundle(
            bundle,
            {
                "kind": "generate",
                "network": service_campaign["network"],
                "config": TestGenConfig(
                    t_in_min=6,
                    steps_stage1=12,
                    steps_stage2=6,
                    max_iterations=2,
                    stall_iterations=2,
                    time_limit_s=600.0,
                ),
                "seed": 7,
            },
        )
        harness = daemon()
        client = harness.client()
        job_id = client.submit(str(bundle), kind="generate")
        job = client.wait(job_id, deadline_s=300)
        assert job["state"] == "done", job.get("error")
        assert job["summary"]["num_chunks"] >= 1


class TestAdmissionControl:
    def test_queue_full_rejection(self, daemon, verify_bundle, monkeypatch):
        started, release = [], threading.Event()
        monkeypatch.setattr(
            daemon_mod, "run_job", _blocking_runner(started, release)
        )
        harness = daemon(max_jobs=1, queue_depth=1, client_cap=8)
        client = harness.client()
        running = client.submit(verify_bundle)  # occupies the one slot
        _wait_for(lambda: started, "first job dispatch")
        queued = client.submit(verify_bundle)  # fills the queue
        with pytest.raises(ServiceError) as err:
            client.submit(verify_bundle)
        assert err.value.code == "queue-full"
        release.set()
        assert client.wait(running, deadline_s=30)["state"] == "done"
        assert client.wait(queued, deadline_s=30)["state"] == "done"

    def test_client_cap_rejection(self, daemon, verify_bundle, monkeypatch):
        started, release = [], threading.Event()
        monkeypatch.setattr(
            daemon_mod, "run_job", _blocking_runner(started, release)
        )
        harness = daemon(max_jobs=1, queue_depth=8, client_cap=1)
        greedy = harness.client(name="greedy")
        job = greedy.submit(verify_bundle)
        with pytest.raises(ServiceError) as err:
            greedy.submit(verify_bundle)
        assert err.value.code == "client-cap"
        # Another client is unaffected by the greedy one's cap.
        other = harness.client(name="other").submit(verify_bundle)
        release.set()
        assert greedy.wait(job, deadline_s=30)["state"] == "done"
        assert greedy.wait(other, deadline_s=30)["state"] == "done"

    def test_priority_orders_dispatch(self, daemon, verify_bundle, monkeypatch):
        started, release = [], threading.Event()
        monkeypatch.setattr(
            daemon_mod, "run_job", _blocking_runner(started, release)
        )
        harness = daemon(max_jobs=1, queue_depth=8)
        client = harness.client()
        filler = client.submit(verify_bundle)
        _wait_for(lambda: started, "filler dispatch")
        low = client.submit(verify_bundle, priority=5)
        high = client.submit(verify_bundle, priority=0)
        client.cancel(filler)
        _wait_for(lambda: len(started) >= 2, "second dispatch")
        assert started[1] == high
        release.set()
        client.wait(low, deadline_s=30)
        assert client.status(filler)["state"] == "cancelled"


class TestAdmissionValidation:
    """Malformed numeric submit fields must bounce typed at admission —
    never be admitted and then kill the dispatcher or the runner."""

    def _submit_raw(self, harness, verify_bundle, **fields):
        payload = {"op": "submit", "client": "bad", "bundle": verify_bundle}
        payload.update(fields)
        return harness.client().request(payload)

    @pytest.mark.parametrize(
        "fields",
        [
            {"workers": "lots"},
            {"workers": 0},
            {"workers": True},
            {"priority": "urgent"},
            {"timeout_s": "soon"},
            {"timeout_s": -1},
        ],
        ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()),
    )
    def test_malformed_field_rejected(self, daemon, verify_bundle, fields):
        harness = daemon()
        with pytest.raises(ServiceError) as err:
            self._submit_raw(harness, verify_bundle, **fields)
        assert err.value.code == "bad-request"

    def test_daemon_still_dispatches_after_bad_submit(
        self, daemon, verify_bundle
    ):
        """The original failure mode: a non-numeric workers value was
        admitted and the ValueError killed the dispatch loop, so the
        daemon accepted jobs but never ran another one."""
        harness = daemon()
        with pytest.raises(ServiceError):
            self._submit_raw(harness, verify_bundle, workers="lots")
        client = harness.client()
        job_id = client.submit(verify_bundle)
        assert client.wait(job_id, deadline_s=120)["state"] == "done"

    def test_dispatch_failure_fails_job_not_dispatcher(
        self, daemon, verify_bundle, monkeypatch
    ):
        """A per-job dispatch error (here: the lease call blowing up)
        fails that job; the dispatcher survives to run the next one."""
        harness = daemon(max_jobs=1)
        original = harness.service.leases.lease
        blown = []

        def flaky_lease(want=None):
            if not blown:
                blown.append(True)
                raise RuntimeError("lease exploded")
            return original(want)

        monkeypatch.setattr(harness.service.leases, "lease", flaky_lease)
        client = harness.client()
        first = client.submit(verify_bundle)
        job = client.wait(first, deadline_s=30)
        assert job["state"] == "failed"
        assert "lease exploded" in job["error"]
        second = client.submit(verify_bundle)
        assert client.wait(second, deadline_s=120)["state"] == "done"

    def test_runner_rejects_nonnumeric_timeout_from_record(
        self, verify_bundle, tmp_path
    ):
        """Defense in depth: a record that reached disk with a bad
        timeout (older daemon, hand edit) fails typed at job start, not
        with a TypeError at the first progress tick."""
        from repro.service.jobs import JobRecord, JobSpec, JobStore
        from repro.service.runner import CancelToken, run_job

        store = JobStore(tmp_path / "runner-state")
        spec = JobSpec(
            id="j000001", client="t", kind="verify",
            params={"bundle": verify_bundle}, timeout_s="soon",
        )
        with pytest.raises(ServiceError) as err:
            run_job(JobRecord(spec=spec), store, 1, CancelToken())
        assert err.value.code == "bad-request"


class TestCancellation:
    def test_cancel_queued_job(self, daemon, verify_bundle, monkeypatch):
        started, release = [], threading.Event()
        monkeypatch.setattr(
            daemon_mod, "run_job", _blocking_runner(started, release)
        )
        harness = daemon(max_jobs=1)
        client = harness.client()
        running = client.submit(verify_bundle)
        queued = client.submit(verify_bundle)
        assert client.cancel(queued) in ("queued", "cancelled")
        assert client.wait(queued, deadline_s=10)["state"] == "cancelled"
        release.set()
        assert client.wait(running, deadline_s=30)["state"] == "done"
        assert started == [running]  # the cancelled job never dispatched

    def test_cancel_running_campaign(self, daemon, verify_bundle, monkeypatch):
        """Cancelling a live campaign: the token trips at a progress tick
        inside the real engine and the job ends CANCELLED."""
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "1")
        harness = daemon(workers=1)
        client = harness.client()
        job_id = client.submit(verify_bundle)
        _wait_for(
            lambda: client.status(job_id)["state"] in ("running", "done"),
            "job start",
        )
        client.cancel(job_id, reason="operator said stop")
        job = client.wait(job_id, deadline_s=60)
        # A fast campaign may legitimately finish before the token trips.
        assert job["state"] in ("cancelled", "done")
        if job["state"] == "cancelled":
            assert "operator said stop" in job["error"]

    def test_deadline_cancels_job(self, daemon, verify_bundle, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "1")
        harness = daemon(workers=1)
        client = harness.client()
        job_id = client.submit(verify_bundle, timeout_s=1e-6)
        job = client.wait(job_id, deadline_s=60)
        assert job["state"] == "cancelled"
        assert "deadline" in job["error"]


class TestRestart:
    def test_graceful_shutdown_requeues_and_next_daemon_finishes(
        self, tmp_path, service_campaign, verify_bundle, monkeypatch
    ):
        from tests.service.conftest import DaemonHarness

        started, release = [], threading.Event()
        monkeypatch.setattr(
            daemon_mod, "run_job", _blocking_runner(started, release)
        )
        first = DaemonHarness(tmp_path, max_jobs=1).start()
        client = first.client()
        job_id = client.submit(verify_bundle)
        _wait_for(lambda: started, "job dispatch")
        first.stop()  # graceful: the in-flight job goes back to QUEUED
        record = first.service.store.load(job_id)
        assert record.state.value == "queued"

        monkeypatch.undo()  # the real runner for the second daemon
        second = DaemonHarness(tmp_path, max_jobs=1).start()
        try:
            job = second.client().wait(job_id, deadline_s=120)
            assert job["state"] == "done"
            assert job["attempts"] == 2
            result = second.client().result(job_id)
            assert_result_matches(
                result["result_path"], service_campaign["serial"]
            )
        finally:
            second.stop()


class TestWire:
    def _raw(self, harness, payload, read_n=1):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(harness.socket_path)
        try:
            sock.sendall(payload)
            frames = []
            with sock.makefile("rb") as fh:
                for _ in range(read_n):
                    line = fh.readline()
                    if not line:
                        break
                    frames.append(decode_frame(line))
            return frames
        finally:
            sock.close()

    def test_malformed_frame_gets_typed_error(self, daemon):
        harness = daemon()
        frames = self._raw(harness, b"this is not json\n")
        assert frames and frames[0]["ok"] is False
        assert frames[0]["error"]["code"] == "bad-frame"

    def test_connection_survives_malformed_frame(self, daemon):
        harness = daemon()
        frames = self._raw(
            harness, b"garbage\n" + b'{"op":"ping"}\n', read_n=2
        )
        assert frames[0]["error"]["code"] == "bad-frame"
        assert frames[1]["ok"] is True and frames[1]["pong"] is True

    def test_oversized_frame_rejected_and_closed(self, daemon, monkeypatch):
        monkeypatch.setenv(MAX_FRAME_ENV, "1024")
        harness = daemon()  # started under the small limit
        frames = self._raw(
            harness, b'{"op":"ping","pad":"' + b"x" * 4096 + b'"}\n'
        )
        assert frames and frames[0]["error"]["code"] == "frame-too-large"

    def test_unknown_op_rejected(self, daemon):
        harness = daemon()
        with pytest.raises(ServiceError) as err:
            harness.client().request({"op": "frobnicate"})
        assert err.value.code == "bad-request"

    def test_unknown_job_rejected(self, daemon):
        harness = daemon()
        with pytest.raises(ServiceError) as err:
            harness.client().status("j999999")
        assert err.value.code == "no-such-job"

    def test_submit_missing_bundle_rejected(self, daemon, tmp_path):
        harness = daemon()
        with pytest.raises(ServiceError) as err:
            harness.client().submit(str(tmp_path / "nope.bundle"))
        assert err.value.code == "bad-request"


def _probe_fd(fd, queue):
    import os

    try:
        os.fstat(fd)
        queue.put("open")
    except OSError:
        queue.put("closed")


class TestForkHygiene:
    def test_forked_children_close_inherited_listener(self, daemon):
        """Forked campaign workers must not inherit the daemon's
        listening socket: an orphaned worker outliving a crashed daemon
        would otherwise hold the dead listener open, and clients racing
        the restart would connect into a backlog nobody accepts."""
        import multiprocessing

        from repro.faults.parallel import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        harness = daemon()
        fd = harness.service._server.sockets[0].fileno()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        probe = ctx.Process(target=_probe_fd, args=(fd, queue))
        probe.start()
        probe.join(timeout=10)
        assert queue.get() == "closed"
        # The parent's own listener is untouched.
        assert harness.client().ping()["pong"] is True


class TestWatch:
    def test_watch_streams_progress_to_end(
        self, daemon, verify_bundle, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "1")
        harness = daemon(workers=1)
        client = harness.client()
        job_id = client.submit(verify_bundle)
        events = list(client.watch(job_id))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "state"
        assert kinds[-1] == "end"
        assert events[-1]["state"] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "expected at least one progress event"
        assert progress[-1]["done"] == progress[-1]["total"]

    def test_watch_terminal_job_replays_end(self, daemon, verify_bundle):
        harness = daemon()
        client = harness.client()
        job_id = client.submit(verify_bundle)
        client.wait(job_id, deadline_s=120)
        events = list(client.watch(job_id))
        assert [e["event"] for e in events] == ["state", "end"]
        assert events[-1]["state"] == "done"


def _wait_for(condition, what, deadline_s=30.0):
    start = time.monotonic()
    while not condition():
        if time.monotonic() - start > deadline_s:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)
