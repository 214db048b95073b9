"""Reversible fault injection.

:func:`inject` is a context manager that applies one fault descriptor to a
concrete network, yields, and restores the exact pre-injection state on
exit — including on exception.  Injection mutates only fast-path state
(weight arrays, per-neuron parameter arrays, behavioural mode arrays), so
it composes with :meth:`repro.snn.network.SNN.run_from` for layer-skip
fault simulation.
"""

from __future__ import annotations

import contextlib
from typing import List, Sequence, Union

import numpy as np

from repro.errors import InjectionError
from repro.faults.bitflip import bitflip_value, peak_scale, truncate_to_grid
from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.snn.neuron import MODE_DEAD, MODE_NOMINAL, MODE_SATURATED
from repro.snn.network import SNN

Fault = Union[NeuronFault, SynapseFault]


def _spiking_module(network: SNN, fault: Fault):
    if fault.module_index >= len(network.modules):
        raise InjectionError(f"{fault.describe()}: module index out of range")
    module = network.modules[fault.module_index]
    if not module.has_neurons:
        raise InjectionError(f"{fault.describe()}: module has no neurons")
    return module


@contextlib.contextmanager
def inject(network: SNN, fault: Fault, config: FaultModelConfig):
    """Apply ``fault`` to ``network`` for the duration of the block.

    Timing-variation magnitudes and saturation levels come from ``config``.
    The context yields the module index at which simulation must restart
    (everything upstream is unaffected by the fault).

    Only *permanent* faults expressible as a static parameter/weight
    mutation can be injected this way; time-windowed transients and DELAY
    faults need the windowed simulator paths
    (:class:`~repro.faults.simulator.FaultSimulator`).
    """
    if fault.window is not None:
        raise InjectionError(
            f"{fault.describe()}: transient faults cannot be injected "
            "statically; use the windowed simulator paths"
        )
    if isinstance(fault, NeuronFault) and fault.kind is NeuronFaultKind.DELAY:
        raise InjectionError(
            f"{fault.describe()}: delay faults are not a parameter mutation; "
            "use the simulator's delayed-output path"
        )
    module = _spiking_module(network, fault)
    if isinstance(fault, NeuronFault):
        restore = _apply_neuron_fault(module, fault, config)
    else:
        restore = _apply_synapse_fault(module, fault, config)
    try:
        yield fault.module_index
    finally:
        restore()


def _apply_neuron_fault(module, fault: NeuronFault, config: FaultModelConfig):
    idx = np.unravel_index(fault.neuron_index, module.neuron_shape)
    kind = fault.kind
    if kind in (NeuronFaultKind.DEAD, NeuronFaultKind.SATURATED):
        previous = module.mode[idx]
        if previous != MODE_NOMINAL:
            raise InjectionError(f"{fault.describe()}: site already faulty")
        module.mode[idx] = MODE_DEAD if kind is NeuronFaultKind.DEAD else MODE_SATURATED

        def restore():
            module.mode[idx] = previous

        return restore
    if kind is NeuronFaultKind.TIMING_THRESHOLD:
        previous = module.threshold[idx]
        module.threshold[idx] = previous * config.timing_threshold_factor

        def restore():
            module.threshold[idx] = previous

        return restore
    if kind is NeuronFaultKind.TIMING_LEAK:
        previous = module.leak[idx]
        module.leak[idx] = previous * config.timing_leak_factor

        def restore():
            module.leak[idx] = previous

        return restore
    if kind is NeuronFaultKind.TIMING_REFRACTORY:
        previous = module.refractory_steps[idx]
        module.refractory_steps[idx] = previous + config.timing_refractory_extra

        def restore():
            module.refractory_steps[idx] = previous

        return restore
    if kind is NeuronFaultKind.PARAM_THRESHOLD:
        previous = module.threshold[idx]
        module.threshold[idx] = previous * fault.scale + fault.offset

        def restore():
            module.threshold[idx] = previous

        return restore
    if kind is NeuronFaultKind.PARAM_LEAK:
        previous = module.leak[idx]
        module.leak[idx] = previous * fault.scale + fault.offset

        def restore():
            module.leak[idx] = previous

        return restore
    if kind is NeuronFaultKind.PARAM_REFRACTORY:
        previous = module.refractory_steps[idx]
        module.refractory_steps[idx] = max(
            0, int(np.rint(previous * fault.scale + fault.offset))
        )

        def restore():
            module.refractory_steps[idx] = previous

        return restore
    raise InjectionError(f"unhandled neuron fault kind {kind}")


def synapse_fault_value(
    weights: np.ndarray, fault: SynapseFault, config: FaultModelConfig
) -> float:
    """Faulty value of the targeted weight entry, given the *pristine*
    weight tensor.

    Shared by the sequential :func:`inject` path and the batched
    synapse-fault simulation (through :func:`synapse_fault_values`), so
    both campaigns perturb the weight identically by construction.
    """
    return synapse_fault_values(weights, [fault], config)[0]


def synapse_fault_values(
    weights: np.ndarray, faults: Sequence[SynapseFault], config: FaultModelConfig
) -> List[float]:
    """:func:`synapse_fault_value` of each of ``faults``, all on the
    pristine tensor ``weights``.  The tensor's largest magnitude and its
    quantization scales are computed once, on the first fault that needs
    them, and give the same floats a per-fault computation gives."""
    flat = weights.reshape(-1)
    peak = None
    values: List[float] = []
    for fault in faults:
        if fault.weight_index >= flat.size:
            raise InjectionError(f"{fault.describe()}: weight index out of range")
        kind = fault.kind
        if kind is SynapseFaultKind.DEAD:
            values.append(0.0)
            continue
        if peak is None:
            peak = float(np.abs(weights).max())
            scale = peak_scale(peak, config.weight_bits)
            if config.datapath_bits is not None:
                grid = peak_scale(peak, config.datapath_bits)
        if kind is SynapseFaultKind.SATURATED_POSITIVE:
            values.append(config.saturation_multiplier * peak)
        elif kind is SynapseFaultKind.SATURATED_NEGATIVE:
            values.append(-config.saturation_multiplier * peak)
        elif kind is SynapseFaultKind.BITFLIP:
            value = bitflip_value(
                float(flat[fault.weight_index]), fault.bit, scale, config.weight_bits
            )
            if config.datapath_bits is not None:
                # The datapath reads the stored word through a narrower
                # truncation grid: sub-resolution flips snap back onto the
                # nominal value (the collapse equivalence class).
                value = truncate_to_grid(value, grid, config.datapath_bits)
            values.append(value)
        else:
            raise InjectionError(f"unhandled synapse fault kind {kind}")
    return values


def _apply_synapse_fault(module, fault: SynapseFault, config: FaultModelConfig):
    params = module.parameters()
    if fault.parameter_index >= len(params):
        raise InjectionError(f"{fault.describe()}: parameter index out of range")
    weights = params[fault.parameter_index].data
    faulty = synapse_fault_value(weights, fault, config)
    flat = weights.reshape(-1)
    previous = flat[fault.weight_index]
    flat[fault.weight_index] = faulty

    def restore():
        flat[fault.weight_index] = previous

    return restore
