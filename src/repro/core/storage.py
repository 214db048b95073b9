"""On-chip test storage and golden-signature checking.

The paper's in-field use case: "the compact test set can be stored
on-chip, taking up a small memory space, for in-field testing."  This
module provides the storage model:

- :class:`StoredTest` bit-packs the stimulus chunks (1 bit per
  input-channel-step; the sleep gaps cost only a counter), stores the
  expected output response, and checks a device's response against it.
- The signature can be the full golden output spike trains (exact, larger)
  or a compact per-class spike-count vector (smaller, still detects any
  count-visible corruption).
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.testset import TestStimulus, validate_stimulus_chunks
from repro.errors import ArtifactError, TestGenerationError
from repro.snn.network import SNN


def pack_stimulus(stimulus: TestStimulus) -> Tuple[List[bytes], List[Tuple[int, ...]]]:
    """Bit-pack each chunk to bytes; returns (payloads, original shapes)."""
    payloads, shapes = [], []
    for chunk in stimulus.chunks:
        bits = np.packbits(chunk.astype(np.uint8).reshape(-1))
        payloads.append(bits.tobytes())
        shapes.append(tuple(chunk.shape))
    return payloads, shapes


def unpack_stimulus(
    payloads: List[bytes], shapes: List[Tuple[int, ...]], input_shape: Tuple[int, ...]
) -> TestStimulus:
    """Inverse of :func:`pack_stimulus`.

    Raises :class:`~repro.errors.ArtifactError` when a payload is torn —
    shorter than its recorded shape requires — so a truncated on-chip
    artifact fails loudly instead of replaying a partial stimulus.
    """
    chunks = []
    for idx, (payload, shape) in enumerate(zip(payloads, shapes)):
        count = int(np.prod(shape))
        raw = np.frombuffer(payload, dtype=np.uint8)
        if raw.size * 8 < count:
            raise ArtifactError(
                f"packed chunk {idx} is torn: {raw.size} bytes cannot hold "
                f"{count} bits for shape {tuple(shape)}"
            )
        bits = np.unpackbits(raw, count=count)
        chunks.append(bits.reshape(shape).astype(np.float64))
    validate_stimulus_chunks(chunks, "packed stimulus")
    return TestStimulus(chunks=chunks, input_shape=tuple(input_shape))


@dataclass
class StoredTest:
    """The on-chip artifact: packed stimulus + golden response.

    Attributes
    ----------
    payloads / shapes:
        Bit-packed chunks and their original shapes.
    input_shape:
        Network input feature shape.
    golden_counts:
        Per-class golden spike counts (compact signature).
    golden_digest:
        SHA-256 of the full golden output spike trains (exact signature).
    """

    payloads: List[bytes]
    shapes: List[Tuple[int, ...]]
    input_shape: Tuple[int, ...]
    golden_counts: np.ndarray
    golden_digest: str

    @classmethod
    def build(cls, network: SNN, stimulus: TestStimulus) -> "StoredTest":
        """Record the golden response of ``network`` for ``stimulus``."""
        payloads, shapes = pack_stimulus(stimulus)
        golden = network.run(stimulus.assembled())
        return cls(
            payloads=payloads,
            shapes=shapes,
            input_shape=tuple(network.input_shape),
            golden_counts=golden.sum(axis=0)[0],
            golden_digest=_digest(golden),
        )

    @property
    def stimulus(self) -> TestStimulus:
        return unpack_stimulus(self.payloads, self.shapes, self.input_shape)

    @property
    def storage_bytes(self) -> int:
        """Total on-chip bytes: packed chunks + count signature + digest."""
        return (
            sum(len(p) for p in self.payloads)
            + self.golden_counts.size * 2  # 16-bit counters
            + 32  # SHA-256
        )

    def check(self, network: SNN, exact: bool = True) -> bool:
        """Replay the test on ``network`` and compare signatures.

        ``exact=True`` compares the full output spike trains (via digest);
        ``exact=False`` compares only per-class spike counts — cheaper
        on-chip, but blind to count-preserving timing shifts.
        """
        response = network.run(self.stimulus.assembled())
        if exact:
            return _digest(response) == self.golden_digest
        return bool(np.array_equal(response.sum(axis=0)[0], self.golden_counts))

    def save(self, path: str) -> None:
        """Persist to ``.npz`` (written atomically — a crash mid-save never
        leaves a torn artifact)."""
        from repro.core.checkpoint import atomic_npz_save

        arrays = {
            "golden_counts": self.golden_counts,
            "input_shape": np.array(self.input_shape, dtype=np.int64),
            "digest": np.frombuffer(bytes.fromhex(self.golden_digest), dtype=np.uint8),
        }
        for idx, (payload, shape) in enumerate(zip(self.payloads, self.shapes)):
            arrays[f"payload{idx}"] = np.frombuffer(payload, dtype=np.uint8)
            arrays[f"shape{idx}"] = np.array(shape, dtype=np.int64)
        atomic_npz_save(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "StoredTest":
        """Load an artifact saved by :meth:`save`.

        Raises :class:`~repro.errors.CheckpointError` if the file is
        missing, truncated, or not an ``.npz`` archive, and
        :class:`~repro.errors.TestGenerationError` if it is a valid archive
        that holds no packed chunks.
        """
        from repro.errors import CheckpointError

        try:
            with np.load(path) as data:
                count = sum(1 for name in data.files if name.startswith("payload"))
                if count == 0:
                    raise TestGenerationError(f"{path} holds no packed chunks")
                payloads = [data[f"payload{i}"].tobytes() for i in range(count)]
                shapes = [tuple(int(v) for v in data[f"shape{i}"]) for i in range(count)]
                return cls(
                    payloads=payloads,
                    shapes=shapes,
                    input_shape=tuple(int(v) for v in data["input_shape"]),
                    golden_counts=data["golden_counts"],
                    golden_digest=data["digest"].tobytes().hex(),
                )
        except FileNotFoundError:
            raise CheckpointError(f"stored test {path} does not exist") from None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"stored test {path} unreadable or corrupt: {exc}"
            ) from exc


def _digest(output: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(output.astype(np.uint8))).hexdigest()
