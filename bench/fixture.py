"""Trained-network fixtures stored as text.

A fixture is ``fixtures/<bench>-<scale>.json``: every float64 parameter
of the trained network as base64 of its little-endian bytes, with its
shape, plus a sha256 digest over all of them.  The loader recomputes the
digest and raises on a mismatch, so a damaged fixture can never be
measured silently.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
#: The pipeline seed the fixtures were trained at.
PIPELINE_SEED = 0


class FixtureError(RuntimeError):
    """A fixture file is missing, malformed, or fails its digest."""


def fixture_path(bench: str, scale: str = "small") -> Path:
    return FIXTURE_DIR / f"{bench}-{scale}.json"


def params_digest(state: Dict[str, np.ndarray]) -> str:
    """sha256 over every parameter's name, shape and float64 bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name], dtype="<f8")
        digest.update(name.encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def encode(state: Dict[str, np.ndarray], **meta) -> dict:
    """The JSON document for a network ``state_dict`` plus metadata."""
    params = {
        name: {
            "shape": list(value.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(value, dtype="<f8").tobytes()
            ).decode("ascii"),
        }
        for name, value in sorted(state.items())
    }
    return {**meta, "params": params, "sha256": params_digest(state)}


def decode(document: dict, source: str = "fixture") -> Dict[str, np.ndarray]:
    """The ``state_dict`` held by ``document``; raises
    :class:`FixtureError` if it does not match its digest."""
    try:
        state = {
            name: np.frombuffer(
                base64.b64decode(entry["data"], validate=True), dtype="<f8"
            ).reshape(entry["shape"]).astype(np.float64)
            for name, entry in document["params"].items()
        }
        expected = document["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"{source}: malformed fixture ({exc})") from exc
    actual = params_digest(state)
    if actual != expected:
        raise FixtureError(
            f"{source}: parameter digest {actual[:12]} does not match the "
            f"recorded {expected[:12]}"
        )
    return state


def load_network(bench: str, scale: str = "small") -> Tuple[object, object]:
    """``(definition, network)`` for a trained fixture, built through the
    public benchmark definitions and ``SNN.load_state_dict``."""
    from repro.experiments.benchmarks import get_benchmark
    from repro.snn.builder import build_network
    from repro.utils.seeding import SeedSequenceFactory

    path = fixture_path(bench, scale)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FixtureError(f"{path}: unreadable fixture ({exc})") from exc
    definition = get_benchmark(bench, scale)
    network = build_network(
        definition.spec, SeedSequenceFactory(PIPELINE_SEED).rng("weights")
    )
    network.load_state_dict(decode(document, str(path)))
    return definition, network
