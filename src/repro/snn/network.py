"""The SNN container: an ordered stack of modules with two execution paths.

Terminology follows Section IV-A of the paper: the network has L spiking
layers; ``O^{l}`` is the spike-train record of layer ``l`` and ``O^{L}``
the output layer's record.  The container also exposes the module-level
machinery needed by the fault-simulation fast path: per-module execution
(:meth:`SNN.run_modules`) and resumption from an intermediate module
(:meth:`SNN.run_from`), which lets a campaign skip every module upstream of
the fault site.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, stack
from repro.errors import ArtifactError, ConfigurationError, ShapeError
from repro.snn.layers import Module, SpikingModule


@dataclass
class ForwardRecord:
    """Spike recordings from an autograd-mode forward pass.

    Attributes
    ----------
    layer_spikes:
        One entry per *spiking* module, in network order.  On the
        elementary path each entry is a list over time of
        ``(B, *neuron_shape)`` tensors; on the fused path it is a single
        ``(T, B, *neuron_shape)`` sequence tensor.
    layer_names:
        Names of the spiking modules, aligned with ``layer_spikes``.
    """

    layer_spikes: List[object]
    layer_names: List[str]

    @property
    def output(self) -> object:
        """Spike trains of the output layer (list over time, or the
        (T, B, ...) sequence tensor on the fused path — both index and
        iterate over time)."""
        return self.layer_spikes[-1]

    @property
    def batch_size(self) -> int:
        """Batch dimension of the recorded pass (no tape nodes created)."""
        entry = self.layer_spikes[0]
        if isinstance(entry, Tensor):
            return entry.shape[1]
        return entry[0].shape[0]

    def stacked(self, layer: int) -> Tensor:
        """Layer ``layer``'s spike trains as one (T, B, ...) tensor.

        On the fused path this is the recorded sequence tensor itself (the
        same tape node on every call); on the elementary path the per-step
        tensors are stacked, which adds a tape node per call.
        """
        entry = self.layer_spikes[layer]
        if isinstance(entry, Tensor):
            return entry
        return stack(entry, axis=0)

    def stacked_output(self) -> Tensor:
        return self.stacked(len(self.layer_spikes) - 1)


class SNN:
    """A feedforward (optionally recurrent-layer) spiking neural network.

    Parameters
    ----------
    modules:
        Ordered modules; shapes are validated at construction.
    input_shape:
        Feature shape of the input spike tensor, e.g. ``(2, 16, 16)`` for a
        two-polarity DVS input or ``(128,)`` for audio channels.
    name:
        Benchmark name used in reports.
    """

    def __init__(self, modules: Sequence[Module], input_shape: Tuple[int, ...], name: str = "snn") -> None:
        if not modules:
            raise ConfigurationError("network needs at least one module")
        self.name = name
        self.input_shape = tuple(input_shape)
        self.modules: List[Module] = list(modules)
        shape = self.input_shape
        for idx, module in enumerate(self.modules):
            module.name = f"{idx}:{type(module).__name__}"
            shape = module.output_shape(shape)  # raises ShapeError on mismatch
        self.output_shape = shape
        if not self.modules[-1].has_neurons:
            raise ConfigurationError("the last module must be a spiking layer")
        self.spiking_indices: List[int] = [
            i for i, m in enumerate(self.modules) if m.has_neurons
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spiking_modules(self) -> List[SpikingModule]:
        return [self.modules[i] for i in self.spiking_indices]

    @property
    def num_layers(self) -> int:
        """Number of spiking layers (the paper's L)."""
        return len(self.spiking_indices)

    @property
    def num_classes(self) -> int:
        return int(np.prod(self.modules[-1].neuron_shape))

    @property
    def neuron_count(self) -> int:
        return sum(m.neuron_count for m in self.modules)

    @property
    def synapse_count(self) -> int:
        return sum(m.synapse_count for m in self.modules)

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def describe(self) -> str:
        """One line per module: name, neuron and synapse counts."""
        lines = [f"SNN '{self.name}': input {self.input_shape}"]
        for module in self.modules:
            lines.append(
                f"  {module.name:<24} neurons={module.neuron_count:<7} "
                f"synapses={module.synapse_count}"
            )
        lines.append(
            f"  total neurons={self.neuron_count}, synapses={self.synapse_count}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Autograd path
    # ------------------------------------------------------------------
    def forward(self, seq: List[Tensor]) -> ForwardRecord:
        """Run in autograd mode and record every spiking layer.

        Parameters
        ----------
        seq:
            List over time of input tensors shaped ``(B, *input_shape)``.
        """
        self._check_feature_shape(tuple(seq[0].shape[1:]))
        records: List[List[Tensor]] = []
        names: List[str] = []
        current = seq
        for module in self.modules:
            current = module.forward_sequence(current)
            if module.has_neurons:
                records.append(current)
                names.append(module.name)
        return ForwardRecord(layer_spikes=records, layer_names=names)

    def forward_fused(self, seq: Tensor) -> ForwardRecord:
        """Run the fused autograd path and record every spiking layer.

        Parameters
        ----------
        seq:
            A single ``(T, B, *input_shape)`` sequence tensor.  Each layer
            contributes one tape node (plus its current precomputation)
            instead of ~10 per time step; spike values are bit-identical
            and input gradients equal in value to :meth:`forward` in
            float64.
        """
        self._check_feature_shape(tuple(seq.shape[2:]))
        records: List[Tensor] = []
        names: List[str] = []
        current = seq
        for module in self.modules:
            current = module.forward_sequence_fused(current)
            if module.has_neurons:
                records.append(current)
                names.append(module.name)
        return ForwardRecord(layer_spikes=records, layer_names=names)

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def run(self, seq: np.ndarray) -> np.ndarray:
        """Fast inference: input ``(T, B, *input_shape)`` → output spikes
        ``(T, B, num_classes)`` (flattened class axis)."""
        self._check_feature_shape(tuple(seq.shape[2:]))
        current = seq
        for module in self.modules:
            current = module.run_sequence_numpy(current)
        return current.reshape(current.shape[0], current.shape[1], -1)

    def run_modules(
        self, seq: np.ndarray, states: Optional[List] = None, fused: bool = False
    ) -> List[np.ndarray]:
        """Fast inference returning every module's output sequence.

        Used to build the golden per-module cache that lets fault
        simulation start at the fault site's module.  ``states`` optionally
        carries one simulation state per module (see
        :meth:`~repro.snn.layers.Module.init_state`) so the segment-wise
        campaign engine can advance the fault-free network one test segment
        at a time.  ``fused=True`` routes each module through its fused
        fast path (one stacked BLAS call per layer; bit-identical in
        float64).
        """
        self._check_feature_shape(tuple(seq.shape[2:]))
        if states is not None and len(states) != len(self.modules):
            raise ConfigurationError(
                f"states list has {len(states)} entries for {len(self.modules)} modules"
            )
        outputs: List[np.ndarray] = []
        current = seq
        for idx, module in enumerate(self.modules):
            state = None if states is None else states[idx]
            if fused:
                current = module.run_sequence_fused(current, state=state)
            else:
                current = module.run_sequence_numpy(current, state=state)
            outputs.append(current)
        return outputs

    def init_states(self, batch: int) -> List:
        """Fresh per-module fast-path states (``None`` for stateless
        modules), for threading through :meth:`run_modules`."""
        return [module.init_state(batch) for module in self.modules]

    def run_from(
        self, module_index: int, seq: np.ndarray, fused: bool = False
    ) -> np.ndarray:
        """Resume fast inference at ``module_index`` given that module's
        *input* sequence; returns flattened output spikes.  ``fused=True``
        uses the fused per-module fast path.
        """
        if not 0 <= module_index < len(self.modules):
            raise ConfigurationError(
                f"module_index {module_index} out of range [0, {len(self.modules)})"
            )
        current = seq
        for module in self.modules[module_index:]:
            if fused:
                current = module.run_sequence_fused(current)
            else:
                current = module.run_sequence_numpy(current)
        return current.reshape(current.shape[0], current.shape[1], -1)

    def run_spiking_layers(self, seq: np.ndarray) -> List[np.ndarray]:
        """Fast inference returning each spiking layer's (T, B, N) record."""
        return self._spiking_records(self.run_modules(seq))

    def _spiking_records(self, outputs: List[np.ndarray]) -> List[np.ndarray]:
        """Each spiking layer's (T, B, N) record from :meth:`run_modules`
        outputs."""
        records = []
        for idx in self.spiking_indices:
            out = outputs[idx]
            records.append(out.reshape(out.shape[0], out.shape[1], -1))
        return records

    def predict(self, seq: np.ndarray) -> np.ndarray:
        """Top-1 prediction per batch element: argmax of output spike counts."""
        counts = self.run(seq).sum(axis=0)  # (B, classes)
        return counts.argmax(axis=1)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All trainable weights keyed by module name."""
        state: Dict[str, np.ndarray] = {}
        for module in self.modules:
            for pidx, param in enumerate(module.parameters()):
                state[f"{module.name}.param{pidx}"] = param.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load weights saved by :meth:`state_dict`; shapes must match."""
        for module in self.modules:
            for pidx, param in enumerate(module.parameters()):
                key = f"{module.name}.param{pidx}"
                if key not in state:
                    raise ConfigurationError(f"missing parameter '{key}' in state dict")
                value = np.asarray(state[key])
                if value.shape != param.data.shape:
                    raise ShapeError(
                        f"parameter '{key}': shape {value.shape} != {param.data.shape}"
                    )
                param.data[...] = value

    def save(self, path: str) -> None:
        """Persist weights to an ``.npz`` file."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load weights from an ``.npz`` file produced by :meth:`save`.

        A torn or unreadable archive raises
        :class:`~repro.errors.ArtifactError` naming the file."""
        try:
            with np.load(path) as data:
                state = {k: data[k] for k in data.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ArtifactError(f"weights file {path} is unreadable: {exc}") from exc
        self.load_state_dict(state)

    # ------------------------------------------------------------------
    def _check_feature_shape(self, shape: Tuple[int, ...]) -> None:
        if shape != self.input_shape:
            raise ShapeError(
                f"network '{self.name}' expects input feature shape "
                f"{self.input_shape}, got {shape}"
            )
