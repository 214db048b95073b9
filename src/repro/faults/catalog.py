"""Enumeration of the fault list for a network.

The catalog expands every (site, kind) combination allowed by the
:class:`~repro.faults.model.FaultModelConfig`, optionally subsampling sites
per kind to keep campaign sizes tractable.  Sampling is seeded and
reported, so experiment results remain reproducible.

Beyond the paper's permanent kinds, the config can enumerate:

- parametric neuron faults (``PARAM_*`` kinds × the configured
  scale/offset magnitudes),
- delay faults (``DELAY`` × ``delay_steps``),
- multi-bit weight-memory bit-flips (``bitflip_bits``),
- time-windowed transients (``transient_*_kinds`` × ``transient_windows``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultModelError
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.snn.network import SNN

Fault = Union[NeuronFault, SynapseFault]


@dataclass
class FaultCatalog:
    """The enumerated fault list for one network.

    Attributes
    ----------
    neuron_faults / synapse_faults:
        Descriptor lists in deterministic order.
    config:
        The fault-model configuration used for enumeration.
    """

    neuron_faults: List[NeuronFault]
    synapse_faults: List[SynapseFault]
    config: FaultModelConfig

    @property
    def faults(self) -> List[Fault]:
        """All faults, neurons first."""
        return list(self.neuron_faults) + list(self.synapse_faults)

    def __len__(self) -> int:
        return len(self.neuron_faults) + len(self.synapse_faults)

    def summary(self) -> str:
        transient = sum(1 for f in self.faults if f.window is not None)
        text = (
            f"FaultCatalog: {len(self.neuron_faults)} neuron faults, "
            f"{len(self.synapse_faults)} synapse faults"
        )
        if transient:
            text += f" ({transient} transient)"
        return text


def validate_faults(
    network: SNN,
    faults: Sequence[Fault],
    config: Optional[FaultModelConfig] = None,
    duration_steps: Optional[int] = None,
) -> None:
    """Check that every descriptor targets a site that exists in ``network``.

    Catalogs built by :func:`build_catalog` are valid by construction;
    this guards descriptors loaded from disk or built by hand (e.g. a
    fault list replayed against a differently-shaped network), raising
    :class:`~repro.errors.FaultModelError` before a campaign burns hours
    simulating — or silently mis-indexing — a nonexistent site.

    With ``config`` given, BITFLIP bit positions must lie below the
    configured ``weight_bits`` word width.  With ``duration_steps`` given,
    transient windows must start inside the test (``t0 < duration``) —
    a window at or beyond the test's end can never activate, so the
    descriptor is certainly a mistake.
    """
    # Per-module sizes are read once, and a message is formatted only for
    # the first descriptor that fails.
    neurons, weights = {}, {}
    for i in network.spiking_indices:
        module = network.modules[int(i)]
        neurons[int(i)] = module.neuron_count
        weights[int(i)] = [int(p.size) for p in module.parameters()]
    bits = None if config is None else config.weight_bits
    for idx, fault in enumerate(faults):
        problem = _site_problem(fault, neurons, weights, bits)
        if (
            problem is None
            and duration_steps is not None
            and fault.window is not None
            and fault.window[0] >= duration_steps
        ):
            problem = (
                f"has window [{fault.window[0]}, {fault.window[1]}), which "
                f"never activates within the {duration_steps}-step test"
            )
        if problem is not None:
            raise FaultModelError(f"fault {idx} ({fault.describe()}) {problem}")


def _site_problem(fault: Fault, neurons, weights, bits: Optional[int]) -> Optional[str]:
    """Why ``fault`` names no site of the network (``neurons`` and
    ``weights`` hold each spiking module's neuron count and parameter
    sizes), or ``None``."""
    m = fault.module_index
    if m not in neurons:
        return f"targets module {m}, which is not a spiking module of this network"
    if fault.is_neuron:
        if fault.neuron_index >= neurons[m]:
            return (
                f"targets neuron {fault.neuron_index}, but module {m} has "
                f"{neurons[m]} neurons"
            )
        return None
    sizes = weights[m]
    if fault.parameter_index >= len(sizes):
        return (
            f"targets parameter {fault.parameter_index}, but module {m} has "
            f"{len(sizes)} parameters"
        )
    if fault.weight_index >= sizes[fault.parameter_index]:
        return (
            f"targets weight {fault.weight_index}, but the parameter holds "
            f"{sizes[fault.parameter_index]} weights"
        )
    if bits is not None and fault.bit is not None and fault.bit >= bits:
        return (
            f"flips bit {fault.bit}, but the configured weight word is only "
            f"{bits} bits wide"
        )
    return None


def _sample_indices(
    count: int, fraction: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Deterministically subsample ``fraction`` of range(count)."""
    if fraction >= 1.0:
        return np.arange(count)
    if rng is None:
        raise FaultModelError("sampling fraction < 1 requires an rng")
    keep = max(1, int(round(count * fraction)))
    return np.sort(rng.choice(count, size=keep, replace=False))


def _neuron_variants(
    kind: NeuronFaultKind, config: FaultModelConfig
) -> Iterator[dict]:
    """Per-kind keyword variants (magnitudes) for neuron-fault descriptors."""
    if kind is NeuronFaultKind.PARAM_THRESHOLD:
        for scale in config.parametric_threshold_scales:
            yield {"scale": scale}
    elif kind is NeuronFaultKind.PARAM_LEAK:
        for scale in config.parametric_leak_scales:
            yield {"scale": scale}
    elif kind is NeuronFaultKind.PARAM_REFRACTORY:
        for offset in config.parametric_refractory_offsets:
            yield {"offset": float(offset)}
    elif kind is NeuronFaultKind.DELAY:
        for steps in config.delay_steps:
            yield {"delay": int(steps)}
    else:
        yield {}


def _bit_choices(
    config: FaultModelConfig, rng: Optional[np.random.Generator]
) -> Tuple[int, ...]:
    """Bit positions enumerated per BITFLIP site."""
    if config.bitflip_bits is not None:
        return tuple(config.bitflip_bits)
    if config.bitflip_bit is not None:
        return (config.bitflip_bit,)
    if rng is not None:
        return (int(rng.integers(0, config.weight_bits)),)
    return (min(6, config.weight_bits - 1),)


def build_catalog(
    network: SNN,
    config: Optional[FaultModelConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> FaultCatalog:
    """Enumerate the fault list of ``network`` under ``config``.

    Neuron faults: every spiking neuron × every configured neuron kind
    (× every magnitude variant for parametric/delay kinds).
    Synapse faults: every weight entry × every configured synapse kind
    (× every listed bit for BITFLIP).
    Transient faults: every site × every ``transient_*`` kind × every
    window in ``transient_windows``, appended after the permanent faults.
    With ``sample_fraction < 1`` a seeded random subset of sites is drawn
    independently per (module, kind).
    """
    config = config or FaultModelConfig()
    neuron_faults: List[NeuronFault] = []
    synapse_faults: List[SynapseFault] = []

    neuron_plan = [(kind, None) for kind in config.neuron_kinds]
    neuron_plan += [
        (kind, tuple(window))
        for window in config.transient_windows
        for kind in config.transient_neuron_kinds
    ]
    synapse_plan = [(kind, None) for kind in config.synapse_kinds]
    synapse_plan += [
        (kind, tuple(window))
        for window in config.transient_windows
        for kind in config.transient_synapse_kinds
    ]

    for module_index in network.spiking_indices:
        module = network.modules[module_index]
        n = module.neuron_count
        for kind, window in neuron_plan:
            for kwargs in _neuron_variants(kind, config):
                for neuron in _sample_indices(n, config.neuron_sample_fraction, rng):
                    neuron_faults.append(
                        NeuronFault(
                            module_index, int(neuron), kind, window=window, **kwargs
                        )
                    )
        for parameter_index, param in enumerate(module.parameters()):
            size = int(param.size)
            for kind, window in synapse_plan:
                for widx in _sample_indices(size, config.synapse_sample_fraction, rng):
                    if kind is SynapseFaultKind.BITFLIP:
                        for bit in _bit_choices(config, rng):
                            synapse_faults.append(
                                SynapseFault(
                                    module_index, parameter_index, int(widx),
                                    kind, bit=bit, window=window,
                                )
                            )
                    else:
                        synapse_faults.append(
                            SynapseFault(
                                module_index, parameter_index, int(widx),
                                kind, window=window,
                            )
                        )
    return FaultCatalog(neuron_faults, synapse_faults, config)
