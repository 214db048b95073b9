"""Chaos scenario: a campaign killed mid-store-write must leave the
coverage store consistent, and simply re-running it against the same
store must converge to a bit-identical store tree and detection mask.

The ``store-write`` chaos site fires inside
:meth:`repro.faults.store.CoverageStore.put_bytes`, keyed by the store's
running write counter.  ``kill-write`` tears the temp file and raises at
the worst moment — half a record on disk, campaign torn down.  The
atomic-replace contract means the torn temp is never visible as a
record; the content-addressed first-writer-wins contract means the
retry rebuilds exactly the records the uninterrupted run would have
written, byte for byte.

A second scenario pins staleness rejection: records written under one
option fingerprint or one network are invisible to campaigns running
under another, and a record corrupted on disk raises ``StoreError``
instead of splicing garbage.  A third kills a process that forked a
shard worker while one of its threads held the store's write mutex: the
orphaned worker must not keep the store locked.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.core.testset import TestStimulus
from repro.errors import ChaosError, StoreError
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import fork_available
from repro.faults.simulator import FaultSimulator
from repro.faults.store import CoverageStore, fcntl
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters
from repro.utils import chaos


@pytest.fixture(scope="module")
def store_campaign():
    spec = NetworkSpec(
        name="store-chaos",
        input_shape=(12,),
        layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    net = build_network(spec, np.random.default_rng(0))
    config = FaultModelConfig()
    catalog = build_catalog(net, config)
    faults = (catalog.neuron_faults[::3] + catalog.synapse_faults[::7])[:60]
    rng = np.random.default_rng(1)
    chunks = [(rng.random((d, 1, 12)) > 0.6).astype(float) for d in (4, 3, 5)]
    stimulus = TestStimulus(chunks=chunks, input_shape=(12,))
    simulator = FaultSimulator(net, config)
    return {
        "net": net,
        "config": config,
        "simulator": simulator,
        "faults": faults,
        "stimulus": stimulus,
    }


def _record_tree(store: CoverageStore):
    """Relative path -> bytes for every committed record."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in store._records()
    }


@pytest.mark.parametrize("strike_at", [0, 4])
def test_kill_mid_store_write_then_rerun_converges(
    store_campaign, tmp_path, strike_at
):
    simulator = store_campaign["simulator"]
    stimulus = store_campaign["stimulus"]
    faults = store_campaign["faults"]

    clean = CoverageStore(tmp_path / "clean")
    reference = simulator.detect_segmented(stimulus, faults, store=clean)

    torn = CoverageStore(tmp_path / "torn")
    with chaos.installed(chaos.ChaosPolicy.parse(f"kill-write@store-write:{strike_at}")):
        with pytest.raises(ChaosError):
            simulator.detect_segmented(stimulus, faults, store=torn)
    # The torn temp file must not be visible as a record, and earlier
    # committed records must survive the crash intact.
    assert torn.stat()["stale_tmp"] == 1
    for relative, payload in _record_tree(torn).items():
        assert _record_tree(clean)[relative] == payload

    # Resume is simply re-running against the same store: no checkpoint
    # interplay, the content-addressed keys carry all the state.
    resumed = simulator.detect_segmented(stimulus, faults, store=torn)
    assert np.array_equal(resumed.detected, reference.detected)
    assert np.array_equal(resumed.output_l1, reference.output_l1)
    assert np.array_equal(resumed.class_count_diff, reference.class_count_diff)
    assert _record_tree(torn) == _record_tree(clean), (
        "rerun after a torn write must rebuild a bit-identical store tree"
    )
    # GC sweeps the orphaned temp file without touching live records.
    torn.gc()
    assert torn.stat()["stale_tmp"] == 0
    assert _record_tree(torn) == _record_tree(clean)


def test_stale_store_under_changed_options_is_never_reused(
    store_campaign, tmp_path
):
    simulator = store_campaign["simulator"]
    stimulus = store_campaign["stimulus"]
    faults = store_campaign["faults"]
    store = CoverageStore(tmp_path / "stale")
    simulator.detect_segmented(stimulus, faults, store=store)
    records = store.stat()["records"]

    # Changed engine options — a different option fingerprint — must miss
    # every group record and write its own.
    cold = simulator.detect_segmented(stimulus, faults, drop_detected=False)
    warm = simulator.detect_segmented(
        stimulus, faults, drop_detected=False, store=store
    )
    assert store.stat()["records"] > records
    assert np.array_equal(warm.detected, cold.detected)
    assert np.array_equal(warm.output_l1, cold.output_l1)

    # A different network (same topology, perturbed weights) shares no
    # records either — lookups miss, nothing raises, results stay exact.
    other_net = build_network(
        NetworkSpec(
            name="store-chaos",
            input_shape=(12,),
            layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
            lif=LIFParameters(leak=0.9, refractory_steps=1),
        ),
        np.random.default_rng(7),
    )
    other_sim = FaultSimulator(other_net, store_campaign["config"])
    other_catalog = build_catalog(other_net, store_campaign["config"])
    other_faults = (
        other_catalog.neuron_faults[::3] + other_catalog.synapse_faults[::7]
    )[:60]
    other_cold = other_sim.detect_segmented(stimulus, other_faults)
    before = store.stat()["records"]
    other_warm = other_sim.detect_segmented(stimulus, other_faults, store=store)
    assert store.stat()["records"] > before
    assert np.array_equal(other_warm.detected, other_cold.detected)


def test_corrupted_record_raises_instead_of_splicing(store_campaign, tmp_path):
    simulator = store_campaign["simulator"]
    stimulus = store_campaign["stimulus"]
    faults = store_campaign["faults"]
    store = CoverageStore(tmp_path / "corrupt")
    simulator.detect_segmented(stimulus, faults, store=store)
    for path in store._records():
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
    with pytest.raises(StoreError):
        simulator.detect_segmented(stimulus, faults, store=store)


# A thread holds the store's write mutex while the process forks a shard
# worker the way a pooled campaign does, reports the worker's pid, and is
# killed.
_HOLD_FORK_DIE = """
import os, signal, sys, tempfile, threading, time
from repro.faults import parallel
from repro.faults.store import CoverageStore

store = CoverageStore(sys.argv[1])
held = threading.Event()

def hold():
    with store._write_mutex():
        held.set()
        time.sleep(120)

def sleeping_shard(bounds, shared):
    time.sleep(120)

threading.Thread(target=hold, daemon=True).start()
held.wait()
run = parallel._launch(
    parallel.multiprocessing.get_context("fork"), sleeping_shard, {}, (0, 1), 0,
    parallel.SupervisionConfig(), tempfile.mkdtemp(),
)
print(run.process.pid, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(
    fcntl is None or not fork_available(), reason="needs fcntl and fork"
)
def test_dead_parent_leaves_the_store_lockable(tmp_path):
    """The campaign service forks shard workers while another job's
    thread may be writing a record.  If the service then dies, the
    orphaned workers must not hold its lock on ``root/.lock``: the store
    becomes lockable as soon as the parent is gone, while the worker
    still runs.  Runs in a fresh interpreter in its own session, whose
    process group is killed at the end."""
    root = tmp_path / "store"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLD_FORK_DIE, str(root)],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        worker = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == -signal.SIGKILL
        os.kill(worker, 0)  # the orphaned worker is still alive
        deadline = time.monotonic() + 5.0
        with open(root / ".lock", "a+b") as fh:
            while True:
                try:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        pytest.fail("the orphaned worker keeps the store locked")
                    time.sleep(0.05)
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
