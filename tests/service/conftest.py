"""Shared fixtures for the campaign-service suite: one small campaign,
its serial reference result, and a daemon running in a background thread.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.coverage import verify_coverage
from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.service import ServiceClient, save_campaign_bundle
from repro.service.daemon import CampaignService, ServiceConfig
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters


@pytest.fixture(scope="session")
def service_campaign():
    """A small verify campaign plus the serial reference every service
    execution must reproduce bit-identically."""
    spec = NetworkSpec(
        name="svc",
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


@pytest.fixture()
def verify_bundle(service_campaign, tmp_path):
    """One bundle file for the shared campaign."""
    path = tmp_path / "verify.bundle"
    save_campaign_bundle(
        path,
        {
            "kind": "verify",
            "network": service_campaign["network"],
            "stimulus": service_campaign["stimulus"],
            "faults": service_campaign["faults"],
            "fault_config": service_campaign["config"],
            "options": {"exact_metrics": True},
        },
    )
    return str(path)


class DaemonHarness:
    """A daemon on a unix socket in a background thread, plus client
    factories.  ``stop()`` is idempotent."""

    def __init__(self, tmp_path, **config_overrides):
        self.state_dir = str(tmp_path / "state")
        self.socket_path = str(tmp_path / "svc.sock")
        kwargs = {"workers": 2, "max_jobs": 2}
        kwargs.update(config_overrides)
        self.config = ServiceConfig(
            state_dir=self.state_dir, socket_path=self.socket_path, **kwargs
        )
        self.service = CampaignService(self.config)
        self._thread = None

    def start(self):
        started = threading.Event()

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def main():
                await self.service.start()
                started.set()
                await self.service._shutdown.wait()
                await self.service.stop()

            loop.run_until_complete(main())
            loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(10), "daemon did not start"
        return self

    def client(self, name="test", **kwargs):
        return ServiceClient(socket_path=self.socket_path, client=name, **kwargs)

    def stop(self):
        if self._thread is None or not self._thread.is_alive():
            return
        try:
            self.client().shutdown()
        except Exception:
            self.service.request_shutdown()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "daemon did not stop"


@pytest.fixture()
def daemon(tmp_path):
    harnesses = []

    def factory(**config_overrides):
        harness = DaemonHarness(tmp_path, **config_overrides).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()


def assert_result_matches(result_path, serial):
    """The job's persisted result container vs the serial reference."""
    from repro.core.checkpoint import deserialize_checkpoint

    with open(result_path, "rb") as fh:
        arrays, _ = deserialize_checkpoint(fh.read())
    assert np.array_equal(arrays["detected"], serial.detected)
    assert np.array_equal(arrays["output_l1"], serial.output_l1)
    assert np.array_equal(arrays["class_count_diff"], serial.class_count_diff)
