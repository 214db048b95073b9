"""Final test assembly (paper Eqs. 7–8).

The test is the concatenation of the per-iteration input chunks
interleaved with zero "sleep" inputs whose duration equals the preceding
chunk — the sleep lets the membrane state decay before the next chunk so
chunks behave as they did during optimisation:

    I = { I¹, 0¹, I², 0², ..., 0^{d-1}, I^d }           (Eq. 7)
    T_test = Σ_{j=1}^{d-1} 2 T_j  +  T_d                 (Eq. 8)
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ArtifactError, CheckpointError, TestGenerationError


def validate_stimulus_chunks(chunks: List[np.ndarray], source: str) -> None:
    """Validate loaded stimulus chunks: every value must be finite and
    binary (exactly 0.0 or 1.0).

    Generated chunks satisfy this by construction (``param.hard()``
    thresholds logits), so any violation in a loaded artifact means the
    file was corrupted or hand-edited — raising
    :class:`~repro.errors.ArtifactError` here stops the bad stimulus
    before it poisons a fault campaign or coverage measurement.
    """
    for idx, chunk in enumerate(chunks):
        binary = (chunk == 0.0) | (chunk == 1.0)
        if not binary.all():
            if not np.isfinite(chunk).all():
                raise ArtifactError(
                    f"{source}: chunk {idx} holds non-finite values"
                )
            raise ArtifactError(
                f"{source}: chunk {idx} holds non-binary values "
                f"(range [{chunk.min():g}, {chunk.max():g}])"
            )


@dataclass
class TestStimulus:
    """The generated compact test stimulus.

    Attributes
    ----------
    chunks:
        Per-iteration binary inputs, each shaped ``(T_j, 1, *input_shape)``.
    input_shape:
        The network's input feature shape.
    """

    chunks: List[np.ndarray]
    input_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.chunks:
            raise TestGenerationError("test stimulus needs at least one chunk")
        for idx, chunk in enumerate(self.chunks):
            if chunk.ndim < 3 or chunk.shape[1] != 1 or tuple(chunk.shape[2:]) != tuple(self.input_shape):
                raise TestGenerationError(
                    f"chunk {idx} has shape {chunk.shape}, expected "
                    f"(T, 1, {self.input_shape})"
                )

    @property
    def chunk_durations(self) -> List[int]:
        return [int(c.shape[0]) for c in self.chunks]

    @property
    def duration_steps(self) -> int:
        """T_test (Eq. 8): all chunks plus a sleep gap after each non-final
        chunk equal to that chunk's duration."""
        durations = self.chunk_durations
        return int(sum(2 * d for d in durations[:-1]) + durations[-1])

    def duration_samples(self, sample_steps: int) -> float:
        """Test duration expressed in dataset samples (Table III row 2)."""
        if sample_steps < 1:
            raise TestGenerationError(f"sample_steps must be >= 1, got {sample_steps}")
        return self.duration_steps / sample_steps

    @property
    def num_segments(self) -> int:
        """Number of test segments: one per chunk (each non-final segment
        is the chunk followed by its equal-duration sleep gap)."""
        return len(self.chunks)

    @property
    def segment_durations(self) -> List[int]:
        """Step count of each segment: ``2 T_j`` for non-final chunks
        (chunk + sleep), ``T_d`` for the last.  Sums to ``duration_steps``."""
        durations = self.chunk_durations
        return [2 * d for d in durations[:-1]] + [durations[-1]]

    def segment(self, index: int) -> np.ndarray:
        """Segment ``index`` of the assembled stimulus (Eq. 7): the chunk
        followed by its zero sleep gap (the final chunk has none).

        Concatenating all segments reproduces :meth:`assembled` exactly,
        but only one segment is ever materialized — the segment-wise
        campaign engine iterates these so peak memory scales with the
        longest chunk, not the total test duration.
        """
        if not 0 <= index < len(self.chunks):
            raise TestGenerationError(
                f"segment index {index} out of range [0, {len(self.chunks)})"
            )
        chunk = self.chunks[index]
        if index == len(self.chunks) - 1:
            return chunk
        return np.concatenate([chunk, np.zeros_like(chunk)], axis=0)

    def iter_segments(self):
        """Yield the segments in order (see :meth:`segment`)."""
        for index in range(len(self.chunks)):
            yield self.segment(index)

    def assembled(self) -> np.ndarray:
        """The full stimulus (Eq. 7): shape ``(T_test, 1, *input_shape)``."""
        pieces: List[np.ndarray] = []
        for chunk in self.chunks[:-1]:
            pieces.append(chunk)
            pieces.append(np.zeros_like(chunk))
        pieces.append(self.chunks[-1])
        return np.concatenate(pieces, axis=0)

    def storage_bits(self) -> int:
        """On-chip storage if chunks are bit-packed (the sleep gaps cost
        nothing — only a duration counter)."""
        return int(sum(int(np.prod(c.shape)) for c in self.chunks))

    def save(self, path: str) -> None:
        """Persist chunks to ``.npz`` (bit-efficient uint8, written
        atomically — a crash mid-save never leaves a torn artifact)."""
        from repro.core.checkpoint import atomic_npz_save

        arrays = {f"chunk{idx}": chunk.astype(np.uint8) for idx, chunk in enumerate(self.chunks)}
        atomic_npz_save(path, **arrays)

    @classmethod
    def load(cls, path: str, input_shape: Tuple[int, ...]) -> "TestStimulus":
        """Load chunks saved by :meth:`save`.

        Raises :class:`~repro.errors.CheckpointError` if the file is
        missing, truncated, or not a stimulus archive, and
        :class:`~repro.errors.ArtifactError` if it loads but holds
        non-finite or non-binary stimulus values.
        """
        try:
            with np.load(path) as data:
                chunks = [
                    data[f"chunk{idx}"].astype(np.float64)
                    for idx in range(len(data.files))
                ]
        except FileNotFoundError:
            raise CheckpointError(f"stimulus archive {path} does not exist") from None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"stimulus archive {path} unreadable or corrupt: {exc}"
            ) from exc
        validate_stimulus_chunks(chunks, str(path))
        return cls(chunks=chunks, input_shape=tuple(input_shape))
