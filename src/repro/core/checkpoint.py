"""Durable, deterministic checkpoints for long-running work.

Both the fault-simulation campaigns and the test-generation loop are
long-running by construction (the paper budgets hours for generation and
the final campaign sweeps the whole fault catalog), so a worker crash or
preemption must not discard completed work.  This module provides the
persistence layer behind ``--resume``:

- a self-contained binary container (:func:`save_checkpoint` /
  :func:`load_checkpoint`) whose serialized bytes are a pure function of
  its contents — no timestamps, no dict-ordering dependence — and which is
  written atomically (temp file + ``os.replace``) and digest-protected, so
  a crash mid-write leaves the previous checkpoint intact and any
  truncated or corrupt file raises a typed
  :class:`~repro.errors.CheckpointError` instead of garbage results;
- :class:`GeneratorCheckpoint` — per-iteration
  :class:`~repro.core.generator.TestGenerator` state (RNG state, adopted
  chunks, activation sets, iteration reports, elapsed budget), enough to
  resume a killed generation bit-identically;
- :class:`CampaignCheckpoint` — per-completed-shard results of the
  labelling campaign (:func:`repro.faults.parallel.parallel_classify`).
  Verification campaigns need none: they resume by re-running against
  their coverage store (:mod:`repro.faults.store`).

Checkpoints embed a fingerprint of the network/config/fault-list they
belong to; resuming against mismatched state raises
:class:`~repro.errors.CheckpointError` rather than silently merging
incompatible results.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ChaosError
from repro.utils import chaos

#: Leading bytes of every checkpoint container (version-bearing).
MAGIC = b"REPRO-CKPT-1\n"
#: Trailing SHA-256 digest length.
_DIGEST_LEN = 32
_HEADER_LEN_BYTES = 8


def _jsonify(value: Any) -> Any:
    """Recursively convert numpy scalars so metadata is JSON-serializable."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def serialize_checkpoint(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> bytes:
    """Serialize ``arrays`` + ``meta`` to deterministic container bytes.

    Layout: ``MAGIC | u64le header length | header JSON | raw array bytes
    (sorted by name, C order) | SHA-256 of everything preceding``.  The
    same contents always produce the same bytes, so checkpoints can be
    compared and deduplicated by digest.
    """
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        blob = arr.tobytes()
        entries.append(
            {
                "name": str(name),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
    header = json.dumps(
        {"meta": _jsonify(dict(meta)), "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    body = b"".join(
        [MAGIC, len(header).to_bytes(_HEADER_LEN_BYTES, "little"), header, *blobs]
    )
    return body + hashlib.sha256(body).digest()


def deserialize_checkpoint(
    payload: bytes, source: str = "<bytes>"
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Inverse of :func:`serialize_checkpoint`; raises
    :class:`CheckpointError` on any structural or integrity failure."""
    floor = len(MAGIC) + _HEADER_LEN_BYTES + _DIGEST_LEN
    if len(payload) < floor:
        raise CheckpointError(f"{source}: truncated checkpoint ({len(payload)} bytes)")
    if not payload.startswith(MAGIC):
        raise CheckpointError(f"{source}: not a repro checkpoint (bad magic)")
    body, digest = payload[:-_DIGEST_LEN], payload[-_DIGEST_LEN:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{source}: checkpoint digest mismatch (corrupt file)")
    header_len = int.from_bytes(
        payload[len(MAGIC) : len(MAGIC) + _HEADER_LEN_BYTES], "little"
    )
    header_start = len(MAGIC) + _HEADER_LEN_BYTES
    if header_start + header_len > len(body):
        raise CheckpointError(f"{source}: checkpoint header exceeds file size")
    try:
        header = json.loads(body[header_start : header_start + header_len])
        entries = header["arrays"]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{source}: malformed checkpoint header: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    offset = header_start + header_len
    for entry in entries:
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(v) for v in entry["shape"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{source}: malformed array entry: {exc}") from exc
        end = offset + nbytes
        if end > len(body):
            raise CheckpointError(f"{source}: array {name!r} exceeds file size")
        try:
            arrays[name] = (
                np.frombuffer(body[offset:end], dtype=dtype).reshape(shape).copy()
            )
        except ValueError as exc:
            raise CheckpointError(f"{source}: array {name!r} unreadable: {exc}") from exc
        offset = end
    if offset != len(body):
        raise CheckpointError(f"{source}: {len(body) - offset} trailing bytes")
    return arrays, meta


def atomic_write_bytes(
    path: str,
    payload: bytes,
    *,
    chaos_site: str = "checkpoint-write",
    chaos_key: int = 0,
    description: str = "checkpoint",
) -> None:
    """Write ``payload`` to ``path`` atomically: sibling temp file, fsync,
    ``os.replace``.  A crash at any point (exercised through the named
    chaos site) leaves either the old file or the new one — never a torn
    one; a ``kill-write`` strike tears the *temp* file and raises, which
    is exactly the on-disk state a mid-write kill would leave."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    action = chaos.strike(chaos_site, key=chaos_key)
    try:
        if action == "kill-write":
            # Simulate the process dying mid-write: leave a torn temp file
            # behind; the real file at ``path`` must stay intact.
            tmp.write_bytes(payload[: max(1, len(payload) // 2)])
            raise ChaosError(f"chaos kill-write during {description} {target.name}")
        if action in ("crash", "raise"):
            raise ChaosError(f"chaos {action} before {description} {target.name}")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        if action is None and tmp.exists():  # failed normal write: clean up
            try:
                tmp.unlink()
            except OSError:
                pass


def save_checkpoint(
    path: str,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
    chaos_key: int = 0,
) -> None:
    """Atomically persist a checkpoint: serialize, write a sibling temp
    file, fsync, then ``os.replace`` over ``path``.  A crash at any point
    (exercised by the ``checkpoint-write`` chaos site) leaves either the
    old checkpoint or the new one — never a torn file.
    """
    atomic_write_bytes(
        path,
        serialize_checkpoint(arrays, meta),
        chaos_site="checkpoint-write",
        chaos_key=chaos_key,
        description="checkpoint",
    )


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` if the file is missing, truncated,
    corrupt, or not a checkpoint container.
    """
    try:
        payload = Path(path).read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist") from None
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} unreadable: {exc}") from exc
    return deserialize_checkpoint(payload, source=str(path))


def atomic_npz_save(path: str, **arrays: np.ndarray) -> None:
    """``np.savez`` with crash-safe semantics: write a sibling temp file,
    then ``os.replace`` it over ``path`` (used for final artifacts whose
    format predates the checkpoint container)."""
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
def network_digest(network) -> str:
    """SHA-256 over the network's parameter arrays (sorted by name)."""
    h = hashlib.sha256()
    for name in sorted(network.state_dict()):
        value = np.ascontiguousarray(network.state_dict()[name])
        h.update(name.encode("utf-8"))
        h.update(str(value.dtype).encode("utf-8"))
        h.update(value.tobytes())
    return h.hexdigest()


def campaign_fingerprint(network, faults: Sequence, *data: np.ndarray) -> str:
    """Identity of one campaign: network parameters, fault list (by
    descriptor), and the stimulus/input/label arrays it runs against."""
    h = hashlib.sha256()
    h.update(network_digest(network).encode("ascii"))
    for fault in faults:
        h.update(fault.describe().encode("utf-8"))
        h.update(b"\n")
    for arr in data:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode("ascii"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def generator_fingerprint(network, config) -> str:
    """Identity of one generation run: network parameters + the full
    algorithm configuration (resume requires both unchanged)."""
    h = hashlib.sha256()
    h.update(network_digest(network).encode("ascii"))
    h.update(repr(config).encode("utf-8"))
    return h.hexdigest()


# ----------------------------------------------------------------------
@dataclass
class GeneratorCheckpoint:
    """Per-iteration :class:`~repro.core.generator.TestGenerator` state.

    Holds everything the Fig. 2 loop needs to continue bit-identically:
    the adopted chunks so far, per-layer activation sets, per-iteration
    reports, the RNG bit-generator state *after* the checkpointed
    iteration, and the wall-clock budget already consumed.
    """

    fingerprint: str
    t_in_min: int
    elapsed_s: float
    rng_state: Dict[str, Any]
    chunks: List[np.ndarray] = field(default_factory=list)
    activated: List[np.ndarray] = field(default_factory=list)
    reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Serialized :class:`~repro.core.guard.GenerationHealth` (``to_meta``
    #: form) at checkpoint time; ``None`` for checkpoints written before
    #: health reporting existed (resume then restarts the report).
    health: Optional[Dict[str, Any]] = None

    @property
    def iterations_done(self) -> int:
        return len(self.reports)

    def save(self, path: str) -> None:
        arrays: Dict[str, np.ndarray] = {}
        for idx, chunk in enumerate(self.chunks):
            arrays[f"chunk{idx:04d}"] = chunk.astype(np.uint8)
        for idx, mask in enumerate(self.activated):
            arrays[f"act{idx:03d}"] = np.asarray(mask, dtype=bool)
        meta = {
            "kind": "generator",
            "fingerprint": self.fingerprint,
            "t_in_min": int(self.t_in_min),
            "elapsed_s": float(self.elapsed_s),
            "rng_state": self.rng_state,
            "num_chunks": len(self.chunks),
            "num_layers": len(self.activated),
            "reports": self.reports,
            "health": self.health,
        }
        save_checkpoint(path, arrays, meta, chaos_key=self.iterations_done)

    @classmethod
    def load(cls, path: str, dtype=np.float64) -> "GeneratorCheckpoint":
        """Load; ``dtype`` is the stimulus dtype to restore chunks to (they
        are stored as uint8 — chunk values are binary, so any float dtype
        round-trips exactly)."""
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "generator":
            raise CheckpointError(
                f"{path}: expected a generator checkpoint, got {meta.get('kind')!r}"
            )
        try:
            chunks = [
                arrays[f"chunk{idx:04d}"].astype(dtype)
                for idx in range(int(meta["num_chunks"]))
            ]
            activated = [
                arrays[f"act{idx:03d}"].astype(bool)
                for idx in range(int(meta["num_layers"]))
            ]
            return cls(
                fingerprint=meta["fingerprint"],
                t_in_min=int(meta["t_in_min"]),
                elapsed_s=float(meta["elapsed_s"]),
                rng_state=meta["rng_state"],
                chunks=chunks,
                activated=activated,
                reports=list(meta["reports"]),
                health=meta.get("health"),
            )
        except KeyError as exc:
            raise CheckpointError(f"{path}: incomplete generator checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
@dataclass
class CampaignCheckpoint:
    """Per-completed-shard results of one labelling campaign.

    ``bounds`` is the shard partition, each shard the slice ``(start,
    stop, step)`` of the fault list it covers, and ``shards`` maps each
    completed shard's ``start`` to its result arrays (in the worker
    payload's array order).  The partition is stored so a resume only runs
    the missing shards, under the checkpoint's own partition whatever the
    worker count.  A checkpoint that stores ``[lo, hi]`` pairs, as
    contiguous partitions once were, loads them as step-1 slices.

    Only labelling (kind ``"classify"``) checkpoints: verification
    resumes by re-running against its coverage store
    (:mod:`repro.faults.store`), whose records already carry every
    finished (fault group, segment).
    """

    kind: str  # "classify"
    fingerprint: str
    n_faults: int
    bounds: List[Tuple[int, int, int]]
    shards: Dict[int, Tuple[np.ndarray, ...]] = field(default_factory=dict)

    def add(self, lo: int, payload_arrays: Tuple[np.ndarray, ...]) -> None:
        self.shards[int(lo)] = tuple(np.asarray(a) for a in payload_arrays)

    def pending(self) -> List[Tuple[int, int, int]]:
        return [shard for shard in self.bounds if shard[0] not in self.shards]

    def save(self, path: str) -> None:
        arrays: Dict[str, np.ndarray] = {}
        counts: Dict[str, int] = {}
        for lo, payload in self.shards.items():
            counts[str(lo)] = len(payload)
            for j, arr in enumerate(payload):
                arrays[f"s{lo:09d}a{j}"] = arr
        meta = {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "n_faults": int(self.n_faults),
            "bounds": [[int(v) for v in shard] for shard in self.bounds],
            "shard_counts": counts,
        }
        save_checkpoint(path, arrays, meta, chaos_key=len(self.shards))

    @classmethod
    def load(cls, path: str) -> "CampaignCheckpoint":
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "classify":
            raise CheckpointError(
                f"{path}: expected a campaign checkpoint, got {meta.get('kind')!r}"
            )
        try:
            bounds = []
            for shard in meta["bounds"]:
                if len(shard) == 2:  # a contiguous [lo, hi] block
                    shard = [*shard, 1]
                start, stop, step = (int(v) for v in shard)
                bounds.append((start, stop, step))
            shards = {
                int(lo): tuple(
                    arrays[f"s{int(lo):09d}a{j}"] for j in range(int(count))
                )
                for lo, count in meta["shard_counts"].items()
            }
            return cls(
                kind=meta["kind"],
                fingerprint=meta["fingerprint"],
                n_faults=int(meta["n_faults"]),
                bounds=bounds,
                shards=shards,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: incomplete campaign checkpoint: {exc}") from exc

    def validate(self, kind: str, fingerprint: str, path: str) -> None:
        """Refuse to resume against a different campaign.

        The shard partition itself is *not* validated: a resume adopts the
        checkpoint's own shards, so the campaign can be resumed with a
        different worker count (shard boundaries never affect results —
        pinned by the parallel-equivalence suite).
        """
        if self.kind != kind:
            raise CheckpointError(f"{path}: checkpoint kind {self.kind!r} != {kind!r}")
        if self.fingerprint != fingerprint:
            raise CheckpointError(
                f"{path}: checkpoint belongs to a different campaign "
                "(network, faults, or data changed since it was written)"
            )
