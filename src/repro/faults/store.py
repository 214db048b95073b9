"""Persistent, content-addressed coverage store for differential re-verification.

`verify_coverage` historically recomputed every (fault, segment) pair
from scratch on every invocation, even when only one appended iteration
or a few new catalog entries changed.  This module adds the persistence
layer that makes re-verification differential: an on-disk database of
per-(fault-group, segment) campaign records and per-segment golden
(fault-free) module activations, keyed so that any change to the network,
the fault model options, the fault list, or the stimulus *prefix*
automatically invalidates exactly the affected records and nothing else.

Key schema
----------
Everything is content-addressed through three fingerprints:

- the **stimulus chain**: a rolling SHA-256 over the test's segments.
  ``chain[i]`` hashes chunk ``0..i`` (as uint8 — stimulus values are
  binary, so the uint8 round-trip is exact) plus a per-segment flag for
  whether the segment carries a sleep gap (the final chunk is bare,
  Eq. 7).  Two tests share ``chain[i]`` iff their first ``i+1`` segments
  are bit-identical *as segments* — which is exactly the condition under
  which the carried LIF state at the segment boundary is bit-identical.
  Appending a chunk changes the previously-final segment (bare → chunk +
  sleep), so ``chain`` diverges at position ``n_old - 1``, and a warm
  re-verify resumes from the deepest surviving prefix record.
- the **base fingerprint**: network parameter digest + fault model config
  + the campaign options that change what the engine records
  (the drop flag, the engine revision).
- the **group digest**: a fault group's execution kind, module, transient
  window, and the ``describe()`` string of every member fault.

A *group record* at key ``sha256("group" | base | gdigest | chain[i])``
holds the group's detection/L1/class-count rows after segment ``i`` plus
(for non-final segments) the full carried group state; a *golden record*
at ``sha256("golden" | network | "fused=1" | chain[i])`` holds segment
``i``'s fault-free per-module outputs and end states, shared across every
campaign on the same network regardless of fault options.

Records reuse the :mod:`repro.core.checkpoint` container (atomic
temp-file + ``os.replace`` writes, digest-verified loads, byte-
deterministic serialization), so identical computations produce
byte-identical records no matter which engine or worker wrote them, and
concurrent writers racing on one key are benign.  A corrupt or torn
record raises :class:`~repro.errors.StoreError` — it is never silently
treated as a hit.  Missing records are always just misses.

Because a group record is written as soon as its segment finishes, the
store is also how a killed verification resumes: re-running the same
campaign against the same store splices every finished (fault group,
segment) back in and recomputes only the rest.

See ``docs/COVERAGE_STORE.md`` for the invalidation rules and GC policy.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

try:  # POSIX only; the store degrades to lock-free atomic writes elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from repro.core.checkpoint import (
    atomic_write_bytes,
    deserialize_checkpoint,
    network_digest,
    serialize_checkpoint,
)
from repro.errors import CheckpointError, StoreError
from repro.faults.simulator import env_int
from repro.snn.neuron import LIFState

#: Golden records larger than this many serialized bytes are not stored
#: (``REPRO_STORE_GOLDEN_MAX``; 0 disables golden storage entirely).
GOLDEN_MAX_ENV = "REPRO_STORE_GOLDEN_MAX"
_GOLDEN_MAX_DEFAULT = 64 * 2**20

_RECORD_SUFFIX = ".rec"

#: Lock files this process holds open in :meth:`CoverageStore._write_mutex`,
#: and the lock that keeps a fork out of the moments they are opened and
#: closed, so that every forked child closes its copies of them.
_LOCK_FILES: set = set()
_LOCK_FILES_GATE = threading.Lock()


def _close_inherited_locks() -> None:
    """Fork hook, child side.  An ``flock`` belongs to the open file
    description that parent and child share after a fork, so a child
    that kept its copy of a lock file a parent thread held would keep the
    store locked once the parent died.  Closing the copy leaves the
    parent's lock in place: an ``flock`` ends when it is unlocked or when
    every descriptor of its file description is closed."""
    for fh in _LOCK_FILES:
        fh.close()
    _LOCK_FILES.clear()
    _LOCK_FILES_GATE.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_LOCK_FILES_GATE.acquire,
        after_in_parent=_LOCK_FILES_GATE.release,
        after_in_child=_close_inherited_locks,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def stimulus_chain(stimulus) -> List[str]:
    """Rolling prefix digests of a :class:`~repro.core.testset.TestStimulus`.

    ``chain[i]`` identifies the byte content of segments ``0..i`` — chunk
    values (exact through uint8; stimulus chunks are binary 0.0/1.0) and
    whether each segment carries its equal-duration sleep gap.  Identical
    prefixes imply bit-identical simulation state at the boundary, which
    is the exactness contract every store splice relies on.
    """
    h = hashlib.sha256()
    digests: List[str] = []
    n = stimulus.num_segments
    for index, chunk in enumerate(stimulus.chunks):
        data = np.ascontiguousarray(chunk).astype(np.uint8)
        h.update(str(data.shape).encode("ascii"))
        h.update(data.tobytes())
        h.update(b"|sleep:1" if index + 1 < n else b"|sleep:0")
        digests.append(h.copy().hexdigest())
    return digests


def chain_to_array(digests: Iterable[str]) -> np.ndarray:
    """Pack hex chain digests into a ``(n, 32)`` uint8 array (the form the
    parallel shard payloads carry)."""
    rows = [np.frombuffer(bytes.fromhex(d), dtype=np.uint8) for d in digests]
    if not rows:
        return np.zeros((0, 32), dtype=np.uint8)
    return np.stack(rows)


def chain_from_array(array: np.ndarray) -> List[str]:
    """Inverse of :func:`chain_to_array`."""
    return [bytes(bytearray(row)).hex() for row in np.asarray(array, dtype=np.uint8)]


#: Revision of the engine that computes a record's carried group state.
#: It is bumped whenever that state changes in value for the same inputs,
#: so records of an older engine miss instead of resuming from state this
#: engine would not carry.  Revision 2: splice mini-LIFs integrate the
#: module's full golden products (their potentials changed in the last bit).
ENGINE_REVISION = 2


def options_token(drop_detected: bool) -> str:
    """The campaign options folded into the base fingerprint: everything
    that changes what a record *contains* (which metrics are exact, the
    engine revision).  Batch widths are excluded deliberately — per-row
    spike trains are independent of batch composition (pinned by the
    batched-equivalence suites), and the execution-path splits they cause
    are captured per group by its ``kind``.  ``div=1,comp=1,fused=1``
    record that the engine always exits on divergence, compacts its
    batches and runs the fused kernels (the segment-wise engine runs on
    the production engine only); they stay in the token so that stores
    written while those were options keep their keys."""
    return (
        f"drop={int(bool(drop_detected))},div=1,comp=1,"
        f"fused=1,engine={ENGINE_REVISION}"
    )


def base_fingerprint(network_fp: str, config, options: str) -> str:
    """Identity of everything a group record depends on besides the group
    itself and the stimulus prefix."""
    h = hashlib.sha256()
    h.update(network_fp.encode("ascii"))
    h.update(b"|")
    h.update(repr(config).encode("utf-8"))
    h.update(b"|")
    h.update(options.encode("ascii"))
    return h.hexdigest()


@dataclass
class _GroupHit:
    """One usable group record: the deepest surviving prefix match."""

    segment: int
    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]


# ----------------------------------------------------------------------
class CoverageStore:
    """On-disk coverage database rooted at ``root``.

    Records live at ``root/objects/<key[:2]>/<key>.rec`` in the
    deterministic checkpoint container format.  The store is safe for
    concurrent writers on distinct *or identical* keys: writes are atomic
    (temp + ``os.replace``), byte-deterministic, and ``put`` skips keys
    that already exist.  ``hits``/``misses``/``writes`` count this
    process's traffic only (forked campaign workers keep their own).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._write_count = 0  # chaos-site key for the store-write site

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}{_RECORD_SUFFIX}"

    @contextmanager
    def _write_mutex(self):
        """Cross-process mutex over store mutations (``fcntl`` lockfile at
        ``root/.lock``).

        Individual record writes were already safe lock-free (atomic
        rename, first-writer-wins, byte-deterministic content); the mutex
        exists for *mixed* mutations — a ``gc()`` sweeping temp files and
        evicting records while campaign workers or service jobs in other
        processes are mid-write.  Under the lock, GC never deletes a temp
        file a live writer is about to rename, and a writer never
        re-creates a record GC believes it has evicted.  A process forked
        while a thread holds the mutex does not inherit it (see
        :func:`_close_inherited_locks`).  On platforms without ``fcntl``
        the store falls back to its lock-free behavior.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.root / ".lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with _LOCK_FILES_GATE:
            fh = open(lock_path, "a+b")
            _LOCK_FILES.add(fh)
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            with _LOCK_FILES_GATE:
                _LOCK_FILES.discard(fh)
                fh.close()

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Load a record, or ``None`` if it does not exist.

        A record that exists but cannot be trusted — unreadable, torn,
        digest-mismatched, or keyed inconsistently — raises
        :class:`StoreError` rather than degrading to a miss: a silent
        wrong hit would splice garbage into a campaign.
        """
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            raise StoreError(f"{path}: unreadable store record: {exc}") from exc
        try:
            arrays, meta = deserialize_checkpoint(payload, source=str(path))
        except CheckpointError as exc:
            raise StoreError(f"{path}: corrupt store record: {exc}") from exc
        if meta.get("key") != key:
            raise StoreError(
                f"{path}: record is keyed as {meta.get('key')!r}, not {key!r}"
            )
        self.hits += 1
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        return arrays, meta

    def put(
        self, key: str, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> bool:
        """Serialize and store a record under ``key`` (no-op when the key
        already exists — identical computations produce identical bytes,
        so the first writer wins and every writer agrees)."""
        stamped = dict(meta)
        stamped["key"] = key
        return self.put_bytes(key, serialize_checkpoint(arrays, stamped))

    def put_bytes(self, key: str, payload: bytes) -> bool:
        """Store pre-serialized record bytes (no-op when the key exists)."""
        path = self._path(key)
        if path.exists():
            return False
        chaos_key = self._write_count
        self._write_count += 1
        with self._write_mutex():
            if path.exists():  # raced another writer under the lock
                return False
            atomic_write_bytes(
                str(path),
                payload,
                chaos_site="store-write",
                chaos_key=chaos_key,
                description="store record",
            )
        self.writes += 1
        return True

    # ------------------------------------------------------------------
    def _records(self) -> List[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob(f"*/*{_RECORD_SUFFIX}"))

    def stat(self) -> Dict[str, Any]:
        """Record count and total size (plus stale temp files awaiting GC)."""
        records = self._records()
        total = 0
        for path in records:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        objects = self.root / "objects"
        stale = len(list(objects.glob("*/*.tmp.*"))) if objects.is_dir() else 0
        return {
            "root": str(self.root),
            "records": len(records),
            "bytes": total,
            "stale_tmp": stale,
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        pinned: Iterable[str] = (),
    ) -> Dict[str, int]:
        """Evict records by age then LRU until the store fits ``max_bytes``.

        ``pinned`` keys (e.g. every record a live test set still
        references — a :class:`StoreSession`'s ``touched`` set) are never
        evicted.  Orphaned ``*.tmp.*`` files from torn writes are always
        swept.  The whole sweep runs under the cross-process write mutex,
        so GC is safe to run while campaign workers or service jobs in
        other processes are writing (their in-flight temp files are
        either renamed before the lock is granted or recreated after).
        """
        with self._write_mutex():
            return self._gc_locked(max_bytes, max_age_s, pinned)

    def _gc_locked(
        self,
        max_bytes: Optional[int],
        max_age_s: Optional[float],
        pinned: Iterable[str],
    ) -> Dict[str, int]:
        pinned = set(pinned)
        removed = 0
        freed = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for tmp in objects.glob("*/*.tmp.*"):
                try:
                    freed += tmp.stat().st_size
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        entries = []  # (mtime, size, key, path)
        total = 0
        for path in self._records():
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path.stem, path))
            total += info.st_size
        now = time.time()

        def _evict(entry) -> None:
            nonlocal removed, freed, total
            _, size, _, path = entry
            try:
                path.unlink()
            except OSError:
                return
            removed += 1
            freed += size
            total -= size

        survivors = []
        for entry in entries:
            mtime, _, key, _ = entry
            if (
                max_age_s is not None
                and now - mtime > max_age_s
                and key not in pinned
            ):
                _evict(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None and total > max_bytes:
            for entry in sorted(survivors):  # oldest mtime first
                if total <= max_bytes:
                    break
                if entry[2] in pinned:
                    continue
                _evict(entry)
        return {"removed": removed, "freed_bytes": freed, "kept_bytes": total}


# ----------------------------------------------------------------------
class StoreSession:
    """One campaign's view of a :class:`CoverageStore`.

    Binds the store to a (simulator, stimulus, options) triple: computes
    the stimulus chain and base fingerprint once, tracks every key the
    campaign touched (``touched`` — the GC pin set for a live test set),
    and mediates group-record lookup/staging and golden-record reuse for
    the segmented engine.  Sessions hold no mutable campaign state, so a
    session built in the parent is safely inherited by forked workers
    (each fork keeps its own hit/write counters and the golden end states
    its seeks read, see :meth:`load_golden_states`).
    """

    def __init__(
        self,
        store: CoverageStore,
        simulator,
        stimulus,
        *,
        drop_detected: bool,
        chain: Optional[List[str]] = None,
    ) -> None:
        self.store = store
        self.simulator = simulator
        self.chain = list(chain) if chain is not None else stimulus_chain(stimulus)
        self.network_fp = network_digest(simulator.network)
        self.options = options_token(drop_detected)
        self.base_fp = base_fingerprint(self.network_fp, simulator.config, self.options)
        self.touched: set = set()
        self.golden_max = env_int(GOLDEN_MAX_ENV, _GOLDEN_MAX_DEFAULT, minimum=0)
        self._golden_ends: Dict[int, List[Optional[LIFState]]] = {}

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def group_digest(self, campaign, group) -> str:
        """Identity of one fault group: execution kind, module, transient
        window, and every member fault's descriptor (the same trust base
        as ``campaign_fingerprint``)."""
        h = hashlib.sha256()
        window = "-" if group.window is None else f"{group.window[0]}:{group.window[1]}"
        h.update(f"{group.kind}|m{group.module_index}|w{window}".encode("ascii"))
        for index in group.indices:
            h.update(b"\n")
            h.update(campaign.faults[index].describe().encode("utf-8"))
        return h.hexdigest()

    def group_key(self, gdigest: str, segment_index: int) -> str:
        return hashlib.sha256(
            f"group|{self.base_fp}|{gdigest}|{self.chain[segment_index]}".encode("ascii")
        ).hexdigest()

    def golden_key(self, segment_index: int) -> str:
        # Golden records depend only on the network and the stimulus
        # prefix — never on fault options — so every campaign and every
        # worker shares them.  ``fused=1`` keeps the keys of stores written
        # while the segment-wise engine also ran per-step kernels.
        return hashlib.sha256(
            f"golden|{self.network_fp}|fused=1|"
            f"{self.chain[segment_index]}".encode("ascii")
        ).hexdigest()

    # ------------------------------------------------------------------
    # Group records
    # ------------------------------------------------------------------
    def lookup_group(self, campaign, group, gdigest: str) -> Optional[_GroupHit]:
        """The deepest surviving record for this group, scanning from the
        last segment down.  A full-test record (``has_state=False`` at the
        final segment) finishes the group outright; a mid-test record
        resumes it from the following segment."""
        n = campaign.n_segments
        k = len(group.indices)
        for segment in range(n - 1, -1, -1):
            key = self.group_key(gdigest, segment)
            record = self.store.get(key)
            if record is None:
                continue
            arrays, meta = record
            if (
                meta.get("kind") != "cov-group"
                or int(meta.get("k", -1)) != k
                or meta.get("group_kind") != group.kind
            ):
                raise StoreError(
                    f"store record {key} does not match its group "
                    f"(kind {meta.get('group_kind')!r} vs {group.kind!r}, "
                    f"k {meta.get('k')} vs {k})"
                )
            if not meta.get("has_state") and segment + 1 < n:
                # Final-segment record of a shorter test: results are
                # complete there but no state was kept to resume from.
                continue
            self.touched.add(key)
            return _GroupHit(segment=segment, arrays=arrays, meta=meta)
        return None

    def stage_group(
        self, campaign, group, gdigest: str, segment_index: int
    ) -> None:
        """Write the record for ``group`` after ``segment_index`` (a no-op
        when it already exists on disk).  Called as soon as the segment
        finishes: the group state mutates in place on the next one.
        """
        key = self.group_key(gdigest, segment_index)
        self.touched.add(key)
        if self.store.has(key):
            return
        has_state = segment_index + 1 < campaign.n_segments
        idx = np.asarray(group.indices)
        arrays: Dict[str, np.ndarray] = {
            "res.detected": campaign.detected[idx],
            "res.l1": campaign.output_l1[idx],
            "res.counts": campaign.counts_delta[idx],
        }
        if has_state:
            arrays.update(group.export_arrays())
        meta = {
            "kind": "cov-group",
            "key": key,
            "k": len(group.indices),
            "segment": int(segment_index),
            "group_kind": group.kind,
            "module": int(group.module_index),
            "has_state": bool(has_state),
        }
        self.store.put_bytes(key, serialize_checkpoint(arrays, meta))

    # ------------------------------------------------------------------
    # Golden records
    # ------------------------------------------------------------------
    def _golden_states(self, arrays, key: str) -> List[Optional[LIFState]]:
        states: List[Optional[LIFState]] = []
        for m, template in enumerate(self.simulator.network.init_states(1)):
            if template is None:
                states.append(None)
                continue
            try:
                states.append(
                    LIFState(
                        potential=arrays[f"st{m}.pot"],
                        last_spike=arrays[f"st{m}.spk"],
                        refractory=arrays[f"st{m}.ref"],
                    )
                )
            except KeyError as exc:
                raise StoreError(f"golden record {key} is incomplete: {exc}") from exc
        return states

    def _load_golden_record(self, segment_index: int):
        key = self.golden_key(segment_index)
        record = self.store.get(key)
        if record is None:
            return None, key
        arrays, meta = record
        if meta.get("kind") != "cov-golden":
            raise StoreError(f"record {key} has kind {meta.get('kind')!r}, not golden")
        self.touched.add(key)
        return arrays, key

    def load_golden(self, segment_index: int):
        """Segment ``segment_index``'s fault-free per-module outputs and
        end states, or ``None`` if not stored."""
        arrays, key = self._load_golden_record(segment_index)
        if arrays is None:
            return None
        modules = self.simulator.network.modules
        try:
            outputs = [arrays[f"out{m}"] for m in range(len(modules))]
        except KeyError as exc:
            raise StoreError(f"golden record {key} is incomplete: {exc}") from exc
        return outputs, self._golden_states(arrays, key)

    def load_golden_states(self, segment_index: int):
        """Just the end states of segment ``segment_index`` (the golden
        entry states of the next segment), or ``None``.

        Every fault group that resumes after the segment seeks to it, so
        the states of the first read are kept for the session, and every
        call gets fresh state objects over the same arrays: the kernels
        rebind the attributes of the states they advance and never write
        their arrays."""
        states = self._golden_ends.get(segment_index)
        if states is None:
            arrays, key = self._load_golden_record(segment_index)
            if arrays is None:
                return None
            states = self._golden_ends[segment_index] = self._golden_states(arrays, key)
        return [
            None if state is None
            else LIFState(state.potential, state.last_spike, state.refractory)
            for state in states
        ]

    def store_golden(self, segment_index: int, outputs, states) -> None:
        key = self.golden_key(segment_index)
        self.touched.add(key)
        if self.store.has(key):
            return
        arrays: Dict[str, np.ndarray] = {}
        for m, out in enumerate(outputs):
            arrays[f"out{m}"] = np.asarray(out)
        for m, state in enumerate(states):
            if state is None:
                continue
            arrays[f"st{m}.pot"] = np.asarray(state.potential)
            arrays[f"st{m}.spk"] = np.asarray(state.last_spike)
            arrays[f"st{m}.ref"] = np.asarray(state.refractory)
        meta = {
            "kind": "cov-golden",
            "key": key,
            "segment": int(segment_index),
            "modules": len(outputs),
        }
        payload = serialize_checkpoint(arrays, meta)
        if len(payload) > self.golden_max:
            return  # size-capped: recompute instead of bloating the store
        self.store.put_bytes(key, payload)
