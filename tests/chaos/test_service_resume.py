"""Chaos suite: kill the campaign daemon mid-job, restart it, and prove
every in-flight job resumes to a bit-identical result.

The daemon runs as a real subprocess (``python -m repro.cli serve``) so
``os._exit`` at the ``service-kill`` chaos site takes down the actual
process — sockets, executor threads, forked workers and all — exactly
like a crash or OOM kill would.  The daemons run without ``--store``, so
verify jobs use ``<state>/coverage_store``.  The restarted daemon finds
the job records (``RUNNING`` → re-queued) and the store records the
killed jobs wrote, and finishes the jobs without recomputing completed
(fault group, segment) work.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.checkpoint import deserialize_checkpoint
from repro.errors import ServiceError
from repro.faults.parallel import fork_available
from repro.service import ServiceClient, save_campaign_bundle

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture()
def service_state(tmp_path, service_campaign_data):
    """Bundle + daemon state/socket paths for one scenario."""
    bundle = tmp_path / "verify.bundle"
    save_campaign_bundle(
        bundle,
        {
            "kind": "verify",
            "network": service_campaign_data["network"],
            "stimulus": service_campaign_data["stimulus"],
            "faults": service_campaign_data["faults"],
            "fault_config": service_campaign_data["config"],
            "options": {"exact_metrics": True},
        },
    )
    return {
        "bundle": str(bundle),
        "state": str(tmp_path / "state"),
        "socket": str(tmp_path / "svc.sock"),
    }


@pytest.fixture(scope="session")
def service_campaign_data():
    from repro.core.coverage import verify_coverage
    from repro.core.testset import TestStimulus
    from repro.faults.catalog import build_catalog
    from repro.faults.model import FaultModelConfig
    from repro.snn.builder import DenseSpec, NetworkSpec, build_network
    from repro.snn.neuron import LIFParameters

    spec = NetworkSpec(
        name="svcchaos",
        input_shape=(12,),
        layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    net = build_network(spec, np.random.default_rng(0))
    config = FaultModelConfig()
    catalog = build_catalog(net, config)
    faults = (catalog.neuron_faults[::3] + catalog.synapse_faults[::7])[:60]
    rng = np.random.default_rng(1)
    chunks = [(rng.random((6, 1, 12)) > 0.6).astype(float) for _ in range(3)]
    stimulus = TestStimulus(chunks=chunks, input_shape=(12,))
    serial, _ = verify_coverage(net, stimulus, faults, config, exact_metrics=True)
    return {
        "network": net,
        "config": config,
        "faults": faults,
        "stimulus": stimulus,
        "serial": serial,
    }


def _spawn_daemon(paths, extra_env=None, workers=2, max_jobs=2):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    # Fine-grained progress ticks: the service-kill site fires per tick.
    env["REPRO_PROGRESS_INTERVAL"] = "1"
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", paths["socket"],
            "--state", paths["state"],
            "--workers", str(workers),
            "--max-jobs", str(max_jobs),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def _stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _client(paths, name="chaos"):
    # Generous retries: the client must ride out the daemon being dead
    # between kill and restart.
    return ServiceClient(
        socket_path=paths["socket"], client=name, retries=8, backoff_s=0.1
    )


def _assert_job_matches(job, state_dir, serial):
    path = os.path.join(state_dir, "jobs", f"{job['id']}.result.ckpt")
    with open(path, "rb") as fh:
        arrays, _ = deserialize_checkpoint(fh.read())
    assert np.array_equal(arrays["detected"], serial.detected)
    assert np.array_equal(arrays["output_l1"], serial.output_l1)
    assert np.array_equal(arrays["class_count_diff"], serial.class_count_diff)


class TestKillRestartResume:
    def test_daemon_killed_mid_job_resumes_bit_identically(
        self, service_state, service_campaign_data
    ):
        """Two in-flight jobs, daemon ``os._exit``s at a mid-campaign
        progress tick, a clean daemon restarts on the same state: both
        jobs finish with results bit-identical to the serial run."""
        # Kill at the 5th progress tick across the daemon's jobs —
        # mid-campaign, after some store records were already written.
        proc = _spawn_daemon(
            service_state, extra_env={"REPRO_CHAOS": "crash@service-kill:5"}
        )
        client = _client(service_state)
        # The chaos kill can race either submit's response (the job
        # record is saved and dispatched before the response bytes are
        # flushed, and the kill fires at a progress tick); the record is
        # either durably there or not there at all — the restarted
        # daemon's job table is the truth.
        job_a = None
        try:
            job_a = client.submit(service_state["bundle"])
            client.submit(service_state["bundle"])
        except ServiceError:
            pass
        proc.wait(timeout=120)
        assert proc.returncode == 21, (
            f"daemon should have chaos-crashed, got {proc.returncode}: "
            f"{proc.stdout.read().decode(errors='replace')[-2000:]}"
        )

        restarted = _spawn_daemon(service_state)
        try:
            job_ids = [j["id"] for j in client.jobs()]
            # returncode 21 proves a job was running, so the table
            # cannot be empty even if both submit responses were lost.
            assert job_ids
            if job_a is not None:
                assert job_a in job_ids
            for job_id in job_ids:
                job = client.wait(job_id, deadline_s=180)
                assert job["state"] == "done", (job_id, job.get("error"))
                _assert_job_matches(
                    job, service_state["state"], service_campaign_data["serial"]
                )
            # At least one job must have lived through the crash (the
            # chaos tick only fires inside a running job).
            attempts = [client.status(j)["attempts"] for j in job_ids]
            assert max(attempts) >= 2, attempts
        finally:
            _stop_daemon(restarted)

    def test_sigterm_requeues_and_restart_finishes(
        self, service_state, service_campaign_data
    ):
        """Graceful SIGTERM mid-job: the job is requeued (not cancelled)
        and the next daemon finishes it bit-identically."""
        proc = _spawn_daemon(service_state, workers=1, max_jobs=1)
        client = _client(service_state)
        job_id = client.submit(service_state["bundle"])
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            state = client.status(job_id)["state"]
            if state in ("running", "done"):
                break
            time.sleep(0.05)
        _stop_daemon(proc)

        restarted = _spawn_daemon(service_state)
        try:
            job = client.wait(job_id, deadline_s=180)
            assert job["state"] == "done", job.get("error")
            _assert_job_matches(
                job, service_state["state"], service_campaign_data["serial"]
            )
        finally:
            _stop_daemon(restarted)

    def test_chaos_dispatch_fails_job_typed(self, service_state):
        """A ``service-dispatch`` strike fails exactly that job with a
        typed error; the daemon stays up and later jobs run."""
        proc = _spawn_daemon(
            service_state, extra_env={"REPRO_CHAOS": "raise@service-dispatch:0"}
        )
        client = _client(service_state)
        try:
            first = client.submit(service_state["bundle"])
            job = client.wait(first, deadline_s=120)
            assert job["state"] == "failed"
            assert "chaos" in job["error"]
            second = client.submit(service_state["bundle"])
            assert client.wait(second, deadline_s=120)["state"] == "done"
        finally:
            _stop_daemon(proc)

    def test_chaos_accept_drops_connection_typed(self, service_state):
        """A ``service-accept`` strike closes the struck connection
        before any frame is served — the client sees a typed error, and
        the daemon keeps serving subsequent connections."""
        proc = _spawn_daemon(
            service_state, extra_env={"REPRO_CHAOS": "raise@service-accept:0"}
        )
        client = _client(service_state)
        try:
            with pytest.raises(ServiceError):
                client.ping()  # first accepted connection is struck
            assert client.ping()["pong"] is True
        finally:
            _stop_daemon(proc)
