"""Chaos suite: campaigns must survive worker crashes, hangs, and
mid-write kills with results bit-identical to the serial reference.

Every scenario installs a deterministic :mod:`repro.utils.chaos` policy,
runs the supervised parallel engine, and compares field-by-field with
``np.array_equal`` — no tolerances.  The health report on the result must
also account for what happened (crashes seen, retries issued, fallbacks
taken), so silent recovery paths cannot rot.

Workers return results through pickled spool files in a per-campaign
temporary directory.  Every exit path out of a campaign (clean finish,
worker crash and retry, deterministic worker error, ``KeyboardInterrupt``
in the parent, a service cancel) must remove that directory, and a
finished campaign must leave no child process behind.
"""

import glob
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import repro
from repro.core.checkpoint import CampaignCheckpoint, load_checkpoint
from repro.core.testset import TestStimulus
from repro.errors import ChaosError, CheckpointError, FaultModelError, JobCancelledError
from repro.faults import parallel as parallel_mod
from repro.faults.parallel import (
    SupervisionConfig,
    fork_available,
    parallel_classify,
    parallel_detect,
)
from repro.faults.simulator import _ProgressTracker
from repro.faults.store import CoverageStore
from repro.utils import chaos

from tests.chaos.conftest import assert_classify_equal, assert_detect_equal

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

WORKERS = 4


def _policy(spec):
    # Short hang so a leaked hung worker cannot outlive the test run even
    # if supervision were broken.
    return chaos.installed(chaos.ChaosPolicy.parse(spec, hang_seconds=30.0))


def _spool_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-shards-*")))


def _classify(campaign, workers, path, resume=False, supervision=None):
    """The labelling campaign with a shard checkpoint at ``path``."""
    return parallel_classify(
        campaign["simulator"],
        campaign["inputs"],
        campaign["labels"],
        campaign["faults"],
        workers=workers,
        checkpoint_path=str(path),
        resume=resume,
        supervision=supervision,
    )


class TestCrashRecovery:
    def test_crash_mid_shard_is_retried(self, chaos_campaign, tight_supervision):
        """Every shard's first attempt dies; retries must restore the
        exact serial result."""
        with _policy("crash@shard:*#0"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.crashes > 0
        assert result.health.retries + result.health.fallback_shards > 0
        assert not result.health.clean
        assert result.health.events  # what happened is reported

    def test_single_crash_result_identical(self, chaos_campaign, tight_supervision):
        with _policy("crash@shard:0#0"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.crashes == 1
        assert result.health.retries == 1

    def test_persistent_crash_falls_back_in_process(
        self, chaos_campaign, tight_supervision
    ):
        """A shard that crashes on every attempt exhausts its retries and
        runs serially in the parent — still bit-identical."""
        with _policy("crash@shard:0"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.fallback_shards >= 1
        assert result.health.crashes >= tight_supervision.max_retries + 1

    def test_failure_budget_degrades_pool_to_serial(
        self, chaos_campaign, tight_supervision
    ):
        """Once total failures blow the budget, the pool is declared
        unhealthy and every remaining shard runs in-process."""
        supervision = SupervisionConfig(
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
            max_retries=2,
            backoff_s=0.01,
            poll_s=0.02,
            failure_budget=3,
        )
        with _policy("crash@shard:*"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.degraded
        assert "degraded" in result.health.summary()

    def test_classify_crash_recovery(self, chaos_campaign, tight_supervision):
        with _policy("crash@shard:*#0"):
            result = parallel_classify(
                chaos_campaign["simulator"],
                chaos_campaign["inputs"],
                chaos_campaign["labels"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_classify_equal(chaos_campaign["classify"], result)
        assert result.health.crashes > 0


class TestHangRecovery:
    def test_hung_worker_is_killed_and_retried(
        self, chaos_campaign, tight_supervision
    ):
        """A worker that stops heartbeating past the timeout is killed and
        its shard re-run; the result must not change."""
        with _policy("hang@shard:0#0"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.hangs == 1
        assert result.health.retries == 1


class TestWorkerErrors:
    def test_worker_exception_reraised_and_no_spool_leak(
        self, chaos_campaign, tight_supervision
    ):
        """A deterministic library error in a worker is not retried — it
        re-raises in the parent — and the abort path must not leak spool
        directories (campaign state now travels per-call, so there is no
        module-global to leak)."""
        with _policy("raise@shard:0#0"):
            with pytest.raises(ChaosError):
                parallel_detect(
                    chaos_campaign["simulator"],
                    chaos_campaign["stimulus"],
                    chaos_campaign["faults"],
                    workers=WORKERS,
                    supervision=tight_supervision,
                )
        assert not parallel_mod._SPOOL_DIRS

    def test_in_process_raise_cleans_up_too(self, chaos_campaign, tmp_path):
        """The sharded in-process path (serial labelling + checkpoint)
        also aborts cleanly when a shard raises."""
        with _policy("raise@shard:0#0"):
            with pytest.raises(ChaosError):
                _classify(chaos_campaign, 1, tmp_path / "campaign.ckpt")
        assert not parallel_mod._SPOOL_DIRS


#: Body of ``test_campaigns_leave_no_child_process``: two pooled campaigns,
#: then this process's children as ``/proc`` lists them, one per task.
_NO_CHILD_SCRIPT = """
import glob, os
import numpy as np
from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.parallel import parallel_classify, parallel_detect_segmented
from repro.faults.simulator import FaultSimulator
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters

spec = NetworkSpec(
    name="children", input_shape=(12,),
    layers=(DenseSpec(out_features=10), DenseSpec(out_features=4)),
    lif=LIFParameters(leak=0.9, refractory_steps=1),
)
net = build_network(spec, np.random.default_rng(0))
config = FaultModelConfig()
faults = build_catalog(net, config).faults[::5]
rng = np.random.default_rng(1)
stimulus = TestStimulus(
    chunks=[(rng.random((d, 1, 12)) > 0.6).astype(float) for d in (4, 3)],
    input_shape=(12,),
)
inputs = (rng.random((8, 4, 12)) > 0.6).astype(float)
labels = rng.integers(0, 4, size=4)
simulator = FaultSimulator(net, config)
parallel_detect_segmented(simulator, stimulus, faults, workers=2)
parallel_classify(simulator, inputs, labels, faults, workers=2)
print("campaigns done")
children = []
for path in sorted(glob.glob(f"/proc/{os.getpid()}/task/*/children")):
    with open(path) as fh:
        children += fh.read().split()
print("children:", *children)
"""


class TestSpoolLifecycle:
    def test_transport_exact_and_released(self, chaos_campaign):
        """A clean pooled campaign matches the serial reference exactly
        and leaves no spool directory behind."""
        spools_before = _spool_dirs()
        result = parallel_detect(
            chaos_campaign["simulator"],
            chaos_campaign["stimulus"],
            chaos_campaign["faults"],
            workers=WORKERS,
        )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    def test_classify_transport_exact_and_released(self, chaos_campaign):
        spools_before = _spool_dirs()
        result = parallel_classify(
            chaos_campaign["simulator"],
            chaos_campaign["inputs"],
            chaos_campaign["labels"],
            chaos_campaign["faults"],
            workers=WORKERS,
        )
        assert_classify_equal(chaos_campaign["classify"], result)
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    def test_crash_retry_overwrites_partial_writes(
        self, chaos_campaign, tight_supervision
    ):
        """Every shard's first attempt dies mid-write; retries rewrite the
        shard's spool file whole, so the merged result is still exact and
        the spool directory is removed."""
        spools_before = _spool_dirs()
        with _policy("crash@shard:*#0"):
            result = parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
            )
        assert_detect_equal(chaos_campaign["detect"], result)
        assert result.health.crashes > 0
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    def test_worker_error_releases_spool(self, chaos_campaign, tight_supervision):
        """A deterministic worker error aborts the campaign mid-merge;
        the abort path must remove the spool dir (regression: an exception
        raised while the merge generator was suspended used to leave the
        spool dir to ``atexit``)."""
        spools_before = _spool_dirs()
        with _policy("raise@shard:0#0"):
            with pytest.raises(ChaosError):
                parallel_detect(
                    chaos_campaign["simulator"],
                    chaos_campaign["stimulus"],
                    chaos_campaign["faults"],
                    workers=WORKERS,
                    supervision=tight_supervision,
                )
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    def test_keyboard_interrupt_releases_everything(
        self, chaos_campaign, tight_supervision, monkeypatch
    ):
        """Ctrl-C in the parent mid-campaign: spool dir removed, campaign
        state cleared."""
        # Per-fault progress so the interrupt lands after the first
        # completed shard, not at campaign end.
        monkeypatch.setattr(
            parallel_mod,
            "_ProgressTracker",
            lambda progress, total: _ProgressTracker(progress, total, interval=1),
        )

        def interrupt(done, total):
            raise KeyboardInterrupt

        spools_before = _spool_dirs()
        with pytest.raises(KeyboardInterrupt):
            parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
                progress=interrupt,
            )
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    def test_service_cancel_mid_shard_releases_everything(
        self, chaos_campaign, tight_supervision, monkeypatch
    ):
        """The campaign service's cancellation path: a ``CancelToken``
        trips inside a progress callback mid-shard, the engine unwinds
        through :class:`~repro.errors.JobCancelledError`, and no spool
        directory survives — a daemon-side cancel must free every worker
        resource, not just mark the job cancelled."""
        from repro.service.runner import CancelToken

        monkeypatch.setattr(
            parallel_mod,
            "_ProgressTracker",
            lambda progress, total: _ProgressTracker(progress, total, interval=1),
        )
        token = CancelToken()

        def progress(done, total):
            # Cancel as soon as the first shard lands, mid-campaign.
            token.cancel("daemon-side cancel")
            token.raise_if_cancelled()

        spools_before = _spool_dirs()
        with pytest.raises(JobCancelledError):
            parallel_detect(
                chaos_campaign["simulator"],
                chaos_campaign["stimulus"],
                chaos_campaign["faults"],
                workers=WORKERS,
                supervision=tight_supervision,
                progress=progress,
            )
        assert _spool_dirs() <= spools_before
        assert not parallel_mod._SPOOL_DIRS

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    def test_campaigns_leave_no_child_process(self):
        """After a 2-worker segment-wise detection campaign and a 2-worker
        labelling campaign return, their interpreter has no child process
        left: every worker is reaped and no helper process outlives the
        campaign.  Runs in a fresh interpreter so that no process an
        earlier test started counts."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _NO_CHILD_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "campaigns done", proc.stdout
        assert lines[1:] == ["children:"], proc.stdout


class TestCheckpointedCampaigns:
    """Labelling campaigns checkpoint per shard (verification resumes
    through its coverage store instead; see test_segment_resume.py)."""

    def test_crash_during_checkpoint_write_keeps_previous(
        self, chaos_campaign, tmp_path
    ):
        """Killing the process mid-checkpoint-write (torn temp file) must
        leave the previous checkpoint intact and loadable."""
        path = tmp_path / "campaign.ckpt"
        with _policy("kill-write@checkpoint-write:3"):
            with pytest.raises(ChaosError):
                # Serial sharded execution checkpoints after every shard
                # (chaos key = shards completed); the write of the third
                # shard's checkpoint tears mid-file.
                _classify(chaos_campaign, 1, path)
        # The checkpoint from the 2nd shard survived and is valid.
        checkpoint = CampaignCheckpoint.load(str(path))
        assert len(checkpoint.shards) == 2
        # The torn temp file must never be confused for a checkpoint.
        for leftover in path.parent.glob("*.tmp.*"):
            with pytest.raises(CheckpointError):
                load_checkpoint(str(leftover))

    def test_resume_after_kill_is_bit_identical(self, chaos_campaign, tmp_path):
        path = tmp_path / "campaign.ckpt"
        with _policy("kill-write@checkpoint-write:3"):
            with pytest.raises(ChaosError):
                _classify(chaos_campaign, 1, path)
        result = _classify(chaos_campaign, 1, path, resume=True)
        assert_classify_equal(chaos_campaign["classify"], result)
        assert result.health.resumed_shards == 2

    def test_parallel_resume_with_different_worker_count(
        self, chaos_campaign, tight_supervision, tmp_path
    ):
        """A campaign checkpointed under one worker count resumes under
        another: the shard partition comes from the checkpoint, results
        stay exact."""
        path = tmp_path / "campaign.ckpt"
        full = _classify(
            chaos_campaign, WORKERS, path, supervision=tight_supervision
        )
        assert_classify_equal(chaos_campaign["classify"], full)
        checkpoint = CampaignCheckpoint.load(str(path))
        for lo in list(checkpoint.shards)[::2]:
            del checkpoint.shards[lo]
        checkpoint.save(str(path))
        resumed = _classify(
            chaos_campaign, 2, path, resume=True, supervision=tight_supervision
        )
        assert_classify_equal(chaos_campaign["classify"], resumed)
        assert resumed.health.resumed_shards > 0

    def test_resume_refuses_foreign_campaign(self, chaos_campaign, tmp_path):
        """A checkpoint from different data must be rejected, not merged."""
        path = tmp_path / "campaign.ckpt"
        _classify(chaos_campaign, 1, path)
        with pytest.raises(CheckpointError):
            parallel_classify(
                chaos_campaign["simulator"],
                1.0 - chaos_campaign["inputs"],
                chaos_campaign["labels"],
                chaos_campaign["faults"],
                workers=1,
                checkpoint_path=str(path),
                resume=True,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_stores_critical_then_drops(
        self, chaos_campaign, tmp_path, workers
    ):
        """Each shard's stored arrays are ``a0`` the bool labels and ``a1``
        the float drops, the layout older checkpoints resume from."""
        path = tmp_path / "classify.ckpt"
        _classify(chaos_campaign, workers, path)
        arrays, meta = load_checkpoint(str(path))
        reference = chaos_campaign["classify"]
        assert len(meta["bounds"]) > 1
        for lo, hi in meta["bounds"]:
            assert meta["shard_counts"][str(lo)] == 2
            critical, drops = arrays[f"s{lo:09d}a0"], arrays[f"s{lo:09d}a1"]
            assert critical.dtype == np.bool_ and drops.dtype == np.float64
            assert critical.tobytes() == reference.critical[lo:hi].tobytes()
            assert drops.tobytes() == reference.accuracy_drop[lo:hi].tobytes()

    def test_classify_checkpoint_resume(self, chaos_campaign, tmp_path):
        path = tmp_path / "classify.ckpt"
        full = _classify(chaos_campaign, 1, path)
        assert_classify_equal(chaos_campaign["classify"], full)
        checkpoint = CampaignCheckpoint.load(str(path))
        assert checkpoint.kind == "classify"
        for lo in list(checkpoint.shards)[1::2]:
            del checkpoint.shards[lo]
        checkpoint.save(str(path))
        resumed = _classify(chaos_campaign, 1, path, resume=True)
        assert_classify_equal(chaos_campaign["classify"], resumed)


class TestEnvironmentConfig:
    def test_chaos_env_spec_parsing(self):
        policy = chaos.ChaosPolicy.parse("crash@shard:*#0,hang@shard:12#1")
        assert policy.strike("shard", key=5, attempt=0) == "crash"
        assert policy.strike("shard", key=12, attempt=1) == "hang"
        assert policy.strike("shard", key=12, attempt=2) is None
        assert policy.strike("checkpoint-write", key=0, attempt=0) is None

    def test_supervision_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "90")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        supervision = SupervisionConfig.from_env()
        assert supervision.heartbeat_timeout == 2.5
        assert supervision.shard_timeout == 90.0
        assert supervision.max_retries == 5
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        assert SupervisionConfig.from_env().max_retries == 0

    @pytest.mark.parametrize("name", ["REPRO_HEARTBEAT_TIMEOUT", "REPRO_SHARD_TIMEOUT"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1"])
    def test_timeout_must_be_finite_and_positive(self, monkeypatch, name, raw):
        """A NaN heartbeat timeout would never declare a hung worker, so
        the campaign would wait forever; a negative shard timeout would
        declare every shard hung at once and degrade the pool to serial."""
        monkeypatch.setenv(name, raw)
        with pytest.raises(FaultModelError, match=name):
            SupervisionConfig.from_env()

    @pytest.mark.parametrize("raw", ["-1", "-3"])
    def test_negative_retries_rejected(self, monkeypatch, raw):
        """A negative retry count would send every failed shard straight
        to the in-process fallback."""
        monkeypatch.setenv("REPRO_MAX_RETRIES", raw)
        with pytest.raises(FaultModelError, match="REPRO_MAX_RETRIES"):
            SupervisionConfig.from_env()

    @pytest.mark.parametrize(
        "name", ["REPRO_HEARTBEAT_TIMEOUT", "REPRO_SHARD_TIMEOUT", "REPRO_MAX_RETRIES"]
    )
    def test_non_numbers_rejected(self, monkeypatch, name):
        monkeypatch.setenv(name, "soon")
        with pytest.raises(FaultModelError, match=name):
            SupervisionConfig.from_env()

    @pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-5"])
    def test_progress_interval_must_be_a_positive_integer(
        self, chaos_campaign, monkeypatch, raw
    ):
        """A malformed interval used to become 1000, and 0 or a negative
        one silently became 1."""
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", raw)
        with pytest.raises(FaultModelError, match="REPRO_PROGRESS_INTERVAL"):
            chaos_campaign["simulator"].detect(
                chaos_campaign["stimulus"], chaos_campaign["faults"]
            )

    @pytest.mark.parametrize("raw", ["lots", "1.5", "-1"])
    def test_golden_cap_must_be_a_non_negative_integer(
        self, chaos_campaign, monkeypatch, tmp_path, raw
    ):
        """``lots`` used to raise a bare ``ValueError``, and a negative cap
        silently disabled golden records."""
        monkeypatch.setenv("REPRO_STORE_GOLDEN_MAX", raw)
        stimulus = TestStimulus(
            chunks=[chaos_campaign["stimulus"][:4], chaos_campaign["stimulus"][4:]],
            input_shape=(12,),
        )
        with pytest.raises(FaultModelError, match="REPRO_STORE_GOLDEN_MAX"):
            chaos_campaign["simulator"].detect_segmented(
                stimulus, chaos_campaign["faults"], store=CoverageStore(tmp_path)
            )

    def test_golden_cap_of_zero_disables_golden_records(
        self, chaos_campaign, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_STORE_GOLDEN_MAX", "0")
        stimulus = TestStimulus(
            chunks=[chaos_campaign["stimulus"][:4], chaos_campaign["stimulus"][4:]],
            input_shape=(12,),
        )
        store = CoverageStore(tmp_path)
        chaos_campaign["simulator"].detect_segmented(
            stimulus, chaos_campaign["faults"], store=store
        )
        kinds = {
            load_checkpoint(str(path))[1]["kind"] for path in store._records()
        }
        assert kinds == {"cov-group"}

    def test_env_policy_reaches_strike(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "raise@shard:7")
        assert chaos.strike("shard", key=7, attempt=0) == "raise"
        assert chaos.strike("shard", key=8, attempt=0) is None
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert chaos.strike("shard", key=7, attempt=0) is None
