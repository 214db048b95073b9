"""Property tests for the coverage store's trust base.

The differential re-verification guarantee rests on four properties the
hypothesis suites below pin directly, independent of any campaign:

- **fingerprint injectivity** — perturbing the stimulus (any bit of any
  chunk), the campaign options, the fault-model options, or the network
  weights changes the relevant fingerprint, so stale records can never be
  looked up under the new identity;
- **byte-determinism** — the same record content serializes to the same
  bytes, so first-writer-wins dedup across engines and workers is sound;
- **typed corruption errors** — a record that exists but cannot be
  trusted (torn, bit-flipped, mis-keyed) raises ``StoreError``, never a
  silent hit or a silent miss;
- **GC pinning** — eviction never removes a record a live test set still
  references.
"""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import deserialize_checkpoint, network_digest
from repro.core.testset import TestStimulus
from repro.errors import StoreError
from repro.faults import store as store_module
from repro.faults.catalog import build_catalog
from repro.faults.model import FaultModelConfig
from repro.faults.simulator import FaultSimulator
from repro.faults.store import (
    CoverageStore,
    base_fingerprint,
    chain_from_array,
    chain_to_array,
    options_token,
    stimulus_chain,
)
from repro.snn.builder import DenseSpec, NetworkSpec, build_network
from repro.snn.neuron import LIFParameters

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _stimulus_from_seed(durations, seed, density=0.5):
    rng = np.random.default_rng(seed)
    chunks = [
        (rng.random((d, 1, 3)) < density).astype(float) for d in durations
    ]
    return TestStimulus(chunks=chunks, input_shape=(3,))


# ----------------------------------------------------------------------
# Fingerprint injectivity
# ----------------------------------------------------------------------
@SETTINGS
@given(
    durations=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_chain_diverges_exactly_at_the_flipped_segment(durations, seed, data):
    stimulus = _stimulus_from_seed(durations, seed)
    chunk_index = data.draw(st.integers(0, len(durations) - 1))
    chunk = stimulus.chunks[chunk_index]
    flat = chunk.reshape(-1).copy()
    bit = data.draw(st.integers(0, flat.size - 1))
    flat[bit] = 1.0 - flat[bit]
    edited_chunks = list(stimulus.chunks)
    edited_chunks[chunk_index] = flat.reshape(chunk.shape)
    edited = TestStimulus(chunks=edited_chunks, input_shape=(3,))
    before, after = stimulus_chain(stimulus), stimulus_chain(edited)
    assert before[:chunk_index] == after[:chunk_index]
    assert all(
        before[i] != after[i] for i in range(chunk_index, len(durations))
    ), "a flipped bit must invalidate its segment and every later prefix"


@SETTINGS
@given(
    durations=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_appending_a_chunk_invalidates_the_previously_final_segment(durations, seed):
    stimulus = _stimulus_from_seed(durations, seed)
    extended = TestStimulus(
        chunks=list(stimulus.chunks) + [_stimulus_from_seed([2], seed + 1).chunks[0]],
        input_shape=(3,),
    )
    before, after = stimulus_chain(stimulus), stimulus_chain(extended)
    n = len(durations)
    # The old final segment gains a sleep gap, so its digest must change —
    # resuming carried state across a bare-vs-sleeping segment is unsound.
    assert before[: n - 1] == after[: n - 1]
    assert before[n - 1] != after[n - 1]


@SETTINGS
@given(
    digests=st.lists(
        st.binary(min_size=32, max_size=32).map(bytes.hex), max_size=6
    )
)
def test_chain_array_round_trip(digests):
    assert chain_from_array(chain_to_array(digests)) == digests


def test_options_token_injective_over_the_full_grid():
    """One token per drop flag, spelled exactly as stores written while
    divergence exit, compaction and the fused path were options keyed
    them (``div=1,comp=1,fused=1``), so those stores keep serving every
    record."""
    tokens = {drop: options_token(drop) for drop in (True, False)}
    assert tokens == {
        True: "drop=1,div=1,comp=1,fused=1,engine=2",
        False: "drop=0,div=1,comp=1,fused=1,engine=2",
    }


def test_group_records_of_another_engine_revision_miss(tmp_path, monkeypatch):
    """A record whose carried state another engine revision computed is
    never resumed from: the revision is part of the options token, so a
    re-run writes every group record anew, while the golden records, which
    no revision changes, still hit."""
    def kinds(store):
        counts = {}
        for path in store._records():
            kind = deserialize_checkpoint(path.read_bytes())[1]["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    net = build_network(
        NetworkSpec(
            name="rev", input_shape=(3,),
            layers=(DenseSpec(out_features=4), DenseSpec(out_features=2)),
            lif=LIFParameters(leak=0.9),
        ),
        np.random.default_rng(0),
    )
    config = FaultModelConfig()
    simulator = FaultSimulator(net, config)
    faults = build_catalog(net, config).faults
    stimulus = _stimulus_from_seed((3, 2, 4), 1)
    root = tmp_path / "store"
    revision = store_module.ENGINE_REVISION
    monkeypatch.setattr(store_module, "ENGINE_REVISION", revision - 1)
    simulator.detect_segmented(stimulus, faults, store=CoverageStore(root))
    before = kinds(CoverageStore(root))
    monkeypatch.setattr(store_module, "ENGINE_REVISION", revision)
    current = CoverageStore(root)
    simulator.detect_segmented(stimulus, faults, store=current)
    assert before["cov-group"] > 0 and before["cov-golden"] > 0
    assert current.writes == before["cov-group"]
    assert kinds(current) == {
        "cov-group": 2 * before["cov-group"], "cov-golden": before["cov-golden"]
    }


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_base_fingerprint_tracks_weights_and_config(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(
        name="fp", input_shape=(4,),
        layers=(DenseSpec(out_features=3), DenseSpec(out_features=2)),
        lif=LIFParameters(leak=0.9),
    )
    net = build_network(spec, rng)
    config = FaultModelConfig()
    options = options_token(True)
    fp = base_fingerprint(network_digest(net), config, options)
    # One weight element perturbed in the smallest representable way.
    module = net.modules[rng.integers(len(net.modules))]
    flat = module.weight.data.reshape(-1)
    index = rng.integers(flat.size)
    flat[index] = np.nextafter(flat[index], np.inf)
    assert base_fingerprint(network_digest(net), config, options) != fp
    # A fault-model option change separates fingerprints too.
    other = dataclasses.replace(
        config, saturation_multiplier=config.saturation_multiplier * 2
    )
    assert base_fingerprint(network_digest(net), other, options) != base_fingerprint(
        network_digest(net), config, options
    )


# ----------------------------------------------------------------------
# Round-trip byte-determinism
# ----------------------------------------------------------------------
ARRAY_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["f8", "f4", "i8", "u1", "?"]),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=4,
)


def _arrays_from_spec(spec):
    arrays = {}
    for j, (dtype, shape, seed) in enumerate(spec):
        rng = np.random.default_rng(seed)
        data = rng.random(tuple(shape))
        arrays[f"a{j}"] = (data > 0.5) if dtype == "?" else (data * 100).astype(dtype)
    return arrays


@SETTINGS
@given(spec=ARRAY_STRATEGY, key_seed=st.integers(0, 2**32 - 1))
def test_put_get_round_trip_and_byte_determinism(spec, key_seed):
    arrays = _arrays_from_spec(spec)
    key = f"{key_seed:064x}"
    meta = {"kind": "prop", "n": len(arrays)}
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        first, second = CoverageStore(a), CoverageStore(b)
        assert first.put(key, arrays, meta)
        assert second.put(key, arrays, meta)
        loaded, loaded_meta = first.get(key)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype
            assert np.array_equal(loaded[name], arrays[name])
        assert loaded_meta["kind"] == "prop" and loaded_meta["key"] == key
        bytes_a = first._path(key).read_bytes()
        bytes_b = second._path(key).read_bytes()
        assert bytes_a == bytes_b, "same record must serialize byte-identically"
        # Re-putting an existing key is a no-op for every writer.
        assert not first.put(key, arrays, meta)


# ----------------------------------------------------------------------
# Corruption is typed, never silent
# ----------------------------------------------------------------------
@SETTINGS
@given(
    spec=ARRAY_STRATEGY,
    flip=st.integers(0, 2**16),
    truncate=st.booleans(),
)
def test_corrupt_and_torn_records_raise_store_error(spec, flip, truncate):
    arrays = _arrays_from_spec(spec)
    key = "c" * 64
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root)
        store.put(key, arrays, {"kind": "prop"})
        path = store._path(key)
        payload = path.read_bytes()
        if truncate:
            damaged = payload[: max(1, len(payload) // 2)]  # torn write
        else:
            position = flip % len(payload)
            damaged = (
                payload[:position]
                + bytes([payload[position] ^ 0x40])
                + payload[position + 1 :]
            )
        path.write_bytes(damaged)
        hits_before = store.hits
        with pytest.raises(StoreError):
            store.get(key)
        assert store.hits == hits_before, "corruption must never count as a hit"


def test_record_filed_under_the_wrong_key_raises():
    arrays = {"a": np.arange(3.0)}
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root)
        store.put("a" * 64, arrays, {"kind": "prop"})
        wrong = store._path("b" * 64)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(store._path("a" * 64).read_bytes())
        with pytest.raises(StoreError, match="keyed as"):
            store.get("b" * 64)


def test_missing_record_is_a_miss_not_an_error():
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root)
        assert store.get("f" * 64) is None
        assert store.misses == 1


# ----------------------------------------------------------------------
# GC
# ----------------------------------------------------------------------
@SETTINGS
@given(
    count=st.integers(1, 12),
    pinned_mask=st.integers(0, 2**12 - 1),
)
def test_gc_never_evicts_pinned_records(count, pinned_mask):
    keys = [f"{i:064x}" for i in range(count)]
    pinned = {k for i, k in enumerate(keys) if pinned_mask >> i & 1}
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root)
        for i, key in enumerate(keys):
            store.put(key, {"a": np.full(8, float(i))}, {"kind": "prop"})
        store.gc(max_bytes=0, max_age_s=0.0, pinned=pinned)
        survivors = {path.stem for path in store._records()}
        assert survivors == pinned, (
            "max_bytes=0 + max_age=0 must evict exactly the unpinned records"
        )
        for key in pinned:
            arrays, _ = store.get(key)
            assert np.array_equal(arrays["a"], np.full(8, float(keys.index(key))))


def test_gc_sweeps_torn_temp_files():
    with tempfile.TemporaryDirectory() as root:
        store = CoverageStore(root)
        store.put("a" * 64, {"a": np.zeros(4)}, {"kind": "prop"})
        shard = store._path("a" * 64).parent
        (shard / ("a" * 64 + ".rec.tmp.123")).write_bytes(b"torn")
        assert store.stat()["stale_tmp"] == 1
        swept = store.gc()
        assert swept["removed"] == 1
        assert store.stat() == {
            "root": str(store.root), "records": 1,
            "bytes": store.stat()["bytes"], "stale_tmp": 0,
        }
        assert store.get("a" * 64) is not None
