"""Exception hierarchy for the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """An array or tensor had an incompatible shape."""


class GradientError(ReproError):
    """Backward pass invoked in an invalid state (e.g. no grad required)."""


class ConfigurationError(ReproError):
    """A configuration object or parameter combination is invalid."""


class FaultModelError(ReproError):
    """A fault descriptor is malformed or targets a nonexistent site."""


class InjectionError(ReproError):
    """Fault injection or removal failed (e.g. double injection)."""


class DatasetError(ReproError):
    """A dataset was asked for something it cannot provide."""


class TrainingError(ReproError):
    """Training diverged or was misconfigured."""


class TestGenerationError(ReproError):
    """The test-generation algorithm hit an unrecoverable state."""


class NumericsError(ReproError):
    """The numerics guard detected a non-finite or divergent value (NaN,
    Inf, overflow, runaway loss) that the active policy could not — or was
    configured not to — recover from."""


class ArtifactError(ReproError):
    """A loaded artifact (stimulus archive, packed test) failed validation:
    non-finite or non-binary stimulus values, torn payloads, or malformed
    metadata."""


class CheckpointError(ReproError):
    """A checkpoint file is missing, truncated, corrupt, or does not match
    the run being resumed."""


class StoreError(ReproError):
    """A coverage-store record is corrupt, torn, keyed inconsistently, or
    does not match the campaign that looked it up.  A *missing* record is
    never an error — only a record that exists but cannot be trusted."""


class ServiceError(ReproError):
    """A campaign-service request could not be honoured: malformed or
    oversized protocol frame, unknown operation, admission rejection
    (queue full, per-client cap), or an unusable job/bundle.  Carries a
    machine-readable ``code`` alongside the message."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class JobCancelledError(ReproError):
    """A service job was cancelled cooperatively (client ``repro cancel``,
    deadline expiry, or daemon shutdown).  Raised from inside the
    campaign's progress ticks so every resource-releasing ``finally``
    block — spool dirs, worker processes — runs on the way out."""


class WorkerFailureError(ReproError):
    """A campaign worker process failed in a way the supervisor could not
    recover from (or reported an error it could not transport)."""


class ChaosError(ReproError):
    """Raised by the chaos harness to simulate a crash at an injection
    site (never raised outside chaos testing)."""
