"""Chaos suite: campaigns must survive worker crashes, hangs, and
mid-write kills with results bit-identical to the serial reference.

Every scenario installs a deterministic :mod:`repro.utils.chaos` policy,
runs the supervised parallel engine, and compares field-by-field with
``np.array_equal`` — no tolerances.  The health report on the result must
also account for what happened (crashes seen, retries issued, fallbacks
taken), so silent recovery paths cannot rot.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CampaignCheckpoint, load_checkpoint
from repro.errors import ChaosError, CheckpointError
from repro.faults import parallel as parallel_mod
from repro.faults.parallel import (
    SupervisionConfig,
    fork_available,
    parallel_classify,
    parallel_detect,
)
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

    def test_env_policy_reaches_strike(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "raise@shard:7")
        assert chaos.strike("shard", key=7, attempt=0) == "raise"
        assert chaos.strike("shard", key=8, attempt=0) is None
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert chaos.strike("shard", key=7, attempt=0) is None
