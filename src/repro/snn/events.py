"""Zero-skip dispatch for the fused campaign current kernels.

Test stimuli are short spike trains that are typically 90-99% zeros, and
every sleep gap is all zero, yet the fused engines compute synaptic
currents as stacked GEMMs over those binary matrices.  An
:class:`EventDispatch` attached to the spiking modules (via
:func:`repro.snn.layers.event_dispatch_context`) routes every current
block through one of two paths, per (layer, kernel call):

``zero``
    The block carries no spikes at all (sleep gaps): the current is an
    exact all-zero array and no GEMM runs.
``dense``
    The usual stacked BLAS call, run only over the time slices that
    carry a spike; the all-zero slices are filled with exact zeros.
    Stacked matmuls evaluate leading-axis slices independently, so
    dropping empty slices is bit-identical to the full call (pinned by
    the differential suites).

Both paths are bit-exact by construction, so no guard is needed and the
campaign engines always attach a dispatcher.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

_GLOBAL_FIELDS = ("cells", "spikes", "dense_blocks", "zero_blocks", "zero_slices")
_LAYER_FIELDS = ("spikes", "dense_blocks", "zero_blocks")
_CELLS, _SPIKES, _DENSE, _ZERO, _SLICES = range(5)
_L_SPIKES, _L_DENSE, _L_ZERO = range(3)


class DispatchStats:
    """Counters of the work one campaign's current blocks did.

    Global scalars plus a per-layer ``(spikes, dense, zero)`` breakdown.
    Counters are plain int64 vectors so they can travel in worker
    payloads and checkpoints (:meth:`to_vector` / :meth:`from_vector`)
    and merge across shards by summation.
    """

    __slots__ = ("g", "layers")

    def __init__(self) -> None:
        self.g = np.zeros(len(_GLOBAL_FIELDS), dtype=np.int64)
        self.layers: Dict[str, np.ndarray] = {}

    def layer(self, name: str) -> np.ndarray:
        arr = self.layers.get(name)
        if arr is None:
            arr = np.zeros(len(_LAYER_FIELDS), dtype=np.int64)
            self.layers[name] = arr
        return arr

    def merge(self, other: "DispatchStats") -> None:
        self.g += other.g
        for name, arr in other.layers.items():
            self.layer(name)
            self.layers[name] = self.layers[name] + arr

    @property
    def density(self) -> float:
        cells = int(self.g[_CELLS])
        return float(self.g[_SPIKES]) / cells if cells else 0.0

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            name: int(value) for name, value in zip(_GLOBAL_FIELDS, self.g)
        }
        out["density"] = self.density
        out["layers"] = {
            name: {
                field: int(value) for field, value in zip(_LAYER_FIELDS, arr)
            }
            for name, arr in sorted(self.layers.items())
        }
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DispatchStats":
        """Inverse of :meth:`as_dict` (payload/cache round-trips)."""
        stats = cls()
        for index, name in enumerate(_GLOBAL_FIELDS):
            stats.g[index] = int(payload.get(name, 0))
        for name, fields in dict(payload.get("layers", {})).items():
            arr = stats.layer(str(name))
            for index, field in enumerate(_LAYER_FIELDS):
                arr[index] = int(fields.get(field, 0))
        return stats

    def summary(self) -> str:
        """One-line human summary for verbose campaign logs."""
        g = self.g
        return (
            f"density {self.density:.2%}, "
            f"blocks {int(g[_DENSE])} dense / {int(g[_ZERO])} zero, "
            f"{int(g[_SLICES])} zero slices skipped"
        )

    @staticmethod
    def vector_size(layer_count: int) -> int:
        """Length of :meth:`to_vector` for ``layer_count`` layers."""
        return len(_GLOBAL_FIELDS) + len(_LAYER_FIELDS) * layer_count

    def to_vector(self, layer_names: Sequence[str]) -> np.ndarray:
        """Flatten to int64 for payload/checkpoint transport.

        ``layer_names`` fixes the per-layer ordering; both producer and
        consumer derive it from the same network, so the layout matches.
        """
        parts = [self.g]
        for name in layer_names:
            arr = self.layers.get(name)
            parts.append(
                arr if arr is not None else np.zeros(len(_LAYER_FIELDS), np.int64)
            )
        return np.concatenate(parts).astype(np.int64, copy=False)

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, layer_names: Sequence[str]
    ) -> "DispatchStats":
        vector = np.asarray(vector, dtype=np.int64).ravel()
        expected = cls.vector_size(len(layer_names))
        if vector.size != expected:
            raise ConfigurationError(
                f"dispatch counter vector has {vector.size} entries, expected {expected}"
            )
        stats = cls()
        stats.g = vector[: len(_GLOBAL_FIELDS)].copy()
        offset = len(_GLOBAL_FIELDS)
        for name in layer_names:
            chunk = vector[offset : offset + len(_LAYER_FIELDS)]
            if chunk.any():
                stats.layers[name] = chunk.copy()
            offset += len(_LAYER_FIELDS)
        return stats


class EventDispatch:
    """Zero-skip dispatcher for current blocks.

    One instance is attached to every spiking module of a network for the
    duration of a run; blocks route through :meth:`dense_block`,
    :meth:`kbatched_block`, or :meth:`stacked_block`, which skip all-zero
    blocks and time slices and count the work into a shared
    :class:`DispatchStats`.
    """

    __slots__ = ("stats",)

    def __init__(self, stats: Optional[DispatchStats] = None) -> None:
        self.stats = stats if stats is not None else DispatchStats()

    def _skip_zero_slices(
        self,
        seq: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
        feature_shape: Tuple[int, ...],
        dtype,
        name: str,
        copies: int = 1,
    ) -> np.ndarray:
        """``compute(seq)`` with its all-zero leading-axis slices skipped.

        ``compute`` must evaluate each leading-axis slice independently,
        so running it on the active subset and scattering into zeros is
        bit-identical to the full call.  A K-batched block serves
        ``copies`` = K fault rows per input row and counts the cells and
        spikes of all of them.
        """
        steps = seq.shape[0]
        step_nnz = np.count_nonzero(seq.reshape(steps, -1), axis=1)
        nnz = int(step_nnz.sum()) * copies
        stats = self.stats
        layer = stats.layer(name)
        stats.g[_CELLS] += seq.size * copies
        stats.g[_SPIKES] += nnz
        layer[_L_SPIKES] += nnz
        if nnz == 0:
            stats.g[_ZERO] += 1
            layer[_L_ZERO] += 1
            return np.zeros((steps,) + tuple(feature_shape), dtype=dtype)
        stats.g[_DENSE] += 1
        layer[_L_DENSE] += 1
        active = np.flatnonzero(step_nnz)
        if active.size == steps:
            return compute(seq)
        stats.g[_SLICES] += steps - active.size
        out = np.zeros((steps,) + tuple(feature_shape), dtype=dtype)
        out[active] = compute(seq[active])
        return out

    # -- dense (in, out) weights -------------------------------------

    def dense_block(self, seq: np.ndarray, weight: np.ndarray, name: str) -> np.ndarray:
        """Currents for ``seq @ weight`` with ``seq`` of shape (T, B, in)."""
        return self._skip_zero_slices(
            seq,
            lambda sub: sub @ weight,
            seq.shape[1:-1] + (weight.shape[1],),
            np.result_type(seq.dtype, weight.dtype),
            name,
        )

    # -- K weight variants (K, in, out) over a shared (T, S, in) seq --

    def kbatched_block(
        self, seq: np.ndarray, weights: np.ndarray, name: str
    ) -> np.ndarray:
        """Currents ``(T, K*S, out)`` of K dense weight variants (the
        dense synapse-splice currents and the recurrent K-batched
        feedforward currents): per (t, k) the ``(S, in) @ weights[k]``
        product, as one stacked matmul that broadcasts the shared input
        over K."""
        k, _, out_features = weights.shape
        batch = k * seq.shape[1]

        def compute(sub: np.ndarray) -> np.ndarray:
            panel = np.matmul(sub[:, None], weights)  # (T', K, S, out)
            return panel.reshape(sub.shape[0], batch, out_features)

        return self._skip_zero_slices(
            seq,
            compute,
            (batch, out_features),
            np.result_type(seq.dtype, weights.dtype),
            name,
            copies=k,
        )

    # -- generic stacked computations (conv im2col, patch gathers) -----

    def stacked_block(
        self,
        seq: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
        feature_shape: Tuple[int, ...],
        dtype,
        name: str,
        copies: int = 1,
    ) -> np.ndarray:
        """Zero-skip dispatch for per-time-slice independent computations
        (the conv im2col GEMMs and receptive-field gathers); ``copies``
        as in :meth:`_skip_zero_slices`."""
        return self._skip_zero_slices(
            seq, compute, feature_shape, dtype, name, copies=copies
        )
