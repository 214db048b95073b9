"""Fault descriptors and the fault-model configuration.

A fault descriptor is an immutable value object naming a *site* (module +
index within the module), a *kind*, and optionally the fault's magnitude
(parametric scale/offset, delay length, bit position) and a *time window*
during which it is active.  Descriptors carry no network references —
they can be pickled, hashed, and listed in catalogs; the injector and
simulator resolve them against a concrete network.

Fault families
--------------
Beyond the paper's behavioural kinds (neuron dead/saturated plus the
three timing variations, synapse dead/saturated/bit-flip), the model
covers the SpikeFI-style extended taxonomy:

- **parametric neuron faults** (``PARAM_THRESHOLD`` / ``PARAM_LEAK`` /
  ``PARAM_REFRACTORY``): the neuron parameter becomes
  ``value * scale + offset`` with a per-fault magnitude, generalising the
  fixed-factor timing kinds;
- **delay faults** (``DELAY``): the neuron's output spike train is
  delayed by ``delay`` steps on its way downstream (an axonal delay —
  the neuron's internal dynamics, including any recurrent feedback, are
  unaffected);
- **transient (time-windowed) faults**: any neuron or synapse fault may
  carry a half-open window ``[t0, t1)`` in absolute test-time steps;
  outside the window the site behaves nominally.  A permanent fault is
  the ``window=None`` special case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import FaultModelError

#: Upper bound on the stored word width of a synapse weight.  Descriptor
#: bit positions are validated against this loose cap at construction and
#: against the configured ``weight_bits`` in ``validate_faults``.
MAX_WEIGHT_BITS = 32


class NeuronFaultKind(enum.Enum):
    """Behavioural neuron fault classes.

    The first five are the paper's §III kinds; ``PARAM_*`` and ``DELAY``
    extend them to the SpikeFI parametric/timing taxonomy.
    """

    DEAD = "dead"
    SATURATED = "saturated"
    TIMING_THRESHOLD = "timing_threshold"
    TIMING_LEAK = "timing_leak"
    TIMING_REFRACTORY = "timing_refractory"
    PARAM_THRESHOLD = "param_threshold"
    PARAM_LEAK = "param_leak"
    PARAM_REFRACTORY = "param_refractory"
    DELAY = "delay"

    @property
    def is_timing(self) -> bool:
        return self in (
            NeuronFaultKind.TIMING_THRESHOLD,
            NeuronFaultKind.TIMING_LEAK,
            NeuronFaultKind.TIMING_REFRACTORY,
        )

    @property
    def is_parametric(self) -> bool:
        return self in (
            NeuronFaultKind.PARAM_THRESHOLD,
            NeuronFaultKind.PARAM_LEAK,
            NeuronFaultKind.PARAM_REFRACTORY,
        )


#: The paper's original five neuron fault kinds — the default catalog.
CLASSIC_NEURON_KINDS: Tuple[NeuronFaultKind, ...] = (
    NeuronFaultKind.DEAD,
    NeuronFaultKind.SATURATED,
    NeuronFaultKind.TIMING_THRESHOLD,
    NeuronFaultKind.TIMING_LEAK,
    NeuronFaultKind.TIMING_REFRACTORY,
)


class SynapseFaultKind(enum.Enum):
    """Behavioural synapse fault classes (paper §III, synapse faults a–c)."""

    DEAD = "dead"
    SATURATED_POSITIVE = "saturated_positive"
    SATURATED_NEGATIVE = "saturated_negative"
    BITFLIP = "bitflip"


def _normalized_window(window, owner) -> Optional[Tuple[int, int]]:
    """Validate and canonicalise a ``[t0, t1)`` activity window."""
    if window is None:
        return None
    try:
        t0, t1 = window
    except (TypeError, ValueError):
        raise FaultModelError(f"window must be a (t0, t1) pair in {owner}")
    t0, t1 = int(t0), int(t1)
    if t0 < 0 or t1 <= t0:
        raise FaultModelError(
            f"window must satisfy 0 <= t0 < t1, got [{t0}, {t1}) in {owner}"
        )
    return (t0, t1)


@dataclass(frozen=True)
class NeuronFault:
    """A fault at one neuron.

    Attributes
    ----------
    module_index:
        Index of the spiking module in the network's module list.
    neuron_index:
        Flat index of the neuron within the module's neuron array.
    kind:
        Which behavioural fault.
    scale / offset:
        For ``PARAM_*`` kinds, the faulty parameter value is
        ``nominal * scale + offset`` (refractory is additionally rounded
        and clamped at zero).  Must stay at their defaults (1, 0) for all
        other kinds.
    delay:
        For ``DELAY`` faults, the number of steps the neuron's output
        spike train is delayed (>= 1).
    window:
        Optional half-open ``[t0, t1)`` activity window in absolute
        test-time steps; ``None`` means the fault is permanent.
    """

    module_index: int
    neuron_index: int
    kind: NeuronFaultKind
    scale: float = 1.0
    offset: float = 0.0
    delay: int = 0
    window: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.module_index < 0 or self.neuron_index < 0:
            raise FaultModelError(f"negative site index in {self}")
        if self.kind.is_parametric:
            if not (abs(self.scale) < float("inf") and abs(self.offset) < float("inf")):
                raise FaultModelError(f"non-finite parametric magnitude in {self}")
        elif self.scale != 1.0 or self.offset != 0.0:
            raise FaultModelError(
                f"scale/offset only apply to PARAM_* kinds, got {self}"
            )
        if self.kind is NeuronFaultKind.DELAY:
            if self.delay < 1:
                raise FaultModelError(f"DELAY fault needs delay >= 1, got {self.delay}")
        elif self.delay != 0:
            raise FaultModelError(f"delay set on non-DELAY fault {self}")
        object.__setattr__(self, "window", _normalized_window(self.window, self))

    @property
    def is_neuron(self) -> bool:
        return True

    def describe(self) -> str:
        base = f"neuron[{self.module_index}][{self.neuron_index}]:{self.kind.value}"
        if self.kind.is_parametric:
            base += f":s{self.scale!r}:o{self.offset!r}"
        if self.kind is NeuronFaultKind.DELAY:
            base += f":d{self.delay}"
        if self.window is not None:
            base += f":w{self.window[0]}-{self.window[1]}"
        return base


@dataclass(frozen=True)
class SynapseFault:
    """A fault at one synapse (weight entry).

    Attributes
    ----------
    module_index:
        Index of the spiking module owning the weight.
    parameter_index:
        0 for the feedforward weight, 1 for a recurrent weight.
    weight_index:
        Flat index into the weight array.
    kind:
        Which behavioural fault.
    bit:
        For BITFLIP faults, the bit position (0 = LSB, ``weight_bits - 1``
        = sign bit) of the fixed-point representation that flips.  The
        word width is a property of the fault-model configuration
        (``FaultModelConfig.weight_bits``, default 8); descriptors accept
        any position below :data:`MAX_WEIGHT_BITS` and
        ``validate_faults`` enforces the configured width.
    window:
        Optional half-open ``[t0, t1)`` activity window in absolute
        test-time steps; ``None`` means the fault is permanent.
    """

    module_index: int
    parameter_index: int
    weight_index: int
    kind: SynapseFaultKind
    bit: Optional[int] = None
    window: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.module_index < 0 or self.weight_index < 0:
            raise FaultModelError(f"negative site index in {self}")
        if self.parameter_index not in (0, 1):
            raise FaultModelError(f"parameter_index must be 0 or 1 in {self}")
        if self.kind is SynapseFaultKind.BITFLIP:
            if self.bit is None or not 0 <= self.bit < MAX_WEIGHT_BITS:
                raise FaultModelError(
                    f"BITFLIP fault needs bit in [0, {MAX_WEIGHT_BITS - 1}], "
                    f"got {self.bit}"
                )
        elif self.bit is not None:
            raise FaultModelError(f"bit set on non-BITFLIP fault {self}")
        object.__setattr__(self, "window", _normalized_window(self.window, self))

    @property
    def is_neuron(self) -> bool:
        return False

    def describe(self) -> str:
        suffix = f":b{self.bit}" if self.bit is not None else ""
        if self.window is not None:
            suffix += f":w{self.window[0]}-{self.window[1]}"
        return (
            f"synapse[{self.module_index}][p{self.parameter_index}]"
            f"[{self.weight_index}]:{self.kind.value}{suffix}"
        )


@dataclass(frozen=True)
class FaultModelConfig:
    """Parameters of the behavioural fault model.

    The paper leaves magnitudes unspecified; defaults here follow the
    conventions of the SpikeFI / SpikingJET fault-injection frameworks and
    are recorded in DESIGN.md §7.

    Attributes
    ----------
    neuron_kinds / synapse_kinds:
        Which fault classes to enumerate permanently (the default keeps
        the paper's five neuron kinds; add ``PARAM_*`` / ``DELAY`` to
        grow the catalog).
    timing_threshold_factor:
        Multiplier applied to the faulty neuron's threshold (> 1 delays
        spikes, < 1 advances them).
    timing_leak_factor:
        Multiplier applied to the faulty neuron's leak constant.
    timing_refractory_extra:
        Extra refractory steps added to the faulty neuron.
    saturation_multiplier:
        Saturated-synapse weight magnitude as a multiple of the layer's
        maximum absolute weight.
    bitflip_bit:
        Fixed bit position for BITFLIP faults; None samples a position per
        fault from the catalog RNG.
    bitflip_bits:
        When set, BITFLIP faults are enumerated at *every* listed bit
        position per weight (overrides ``bitflip_bit``).
    weight_bits:
        Stored word width of a synapse weight in bits (symmetric signed
        fixed point).  Bit positions must lie below it.
    datapath_bits:
        When set, the accelerator datapath truncates weights to this
        narrower width: faulty weight values are snapped to the coarser
        ``datapath_bits`` grid, so flips of sufficiently low storage bits
        become observationally equivalent to no fault at all (the
        sub-resolution equivalence class used by fault collapsing).
    parametric_threshold_scales / parametric_leak_scales:
        Scale factors enumerated for PARAM_THRESHOLD / PARAM_LEAK faults
        when those kinds are listed.
    parametric_refractory_offsets:
        Additive offsets (in steps) enumerated for PARAM_REFRACTORY.
    delay_steps:
        Delay lengths enumerated for DELAY faults.
    transient_windows:
        ``[t0, t1)`` windows enumerated for transient faults; combined
        with every kind in ``transient_neuron_kinds`` /
        ``transient_synapse_kinds``.
    transient_neuron_kinds / transient_synapse_kinds:
        Kinds enumerated as time-windowed transients (each site × each
        window).  Empty tuples disable transient enumeration.
    neuron_sample_fraction / synapse_sample_fraction:
        Fraction of sites enumerated per kind (1.0 = exhaustive).  Sampling
        keeps CPU campaigns tractable for the larger benchmarks and is the
        documented substitute for the paper's multi-day GPU campaigns.
    """

    neuron_kinds: Tuple[NeuronFaultKind, ...] = CLASSIC_NEURON_KINDS
    synapse_kinds: Tuple[SynapseFaultKind, ...] = tuple(SynapseFaultKind)
    timing_threshold_factor: float = 1.75
    timing_leak_factor: float = 0.6
    timing_refractory_extra: int = 2
    saturation_multiplier: float = 2.0
    bitflip_bit: Optional[int] = 6
    bitflip_bits: Optional[Tuple[int, ...]] = None
    weight_bits: int = 8
    datapath_bits: Optional[int] = None
    parametric_threshold_scales: Tuple[float, ...] = (0.5, 2.0)
    parametric_leak_scales: Tuple[float, ...] = (0.5, 1.1)
    parametric_refractory_offsets: Tuple[int, ...] = (1, 3)
    delay_steps: Tuple[int, ...] = (1, 2)
    transient_windows: Tuple[Tuple[int, int], ...] = ()
    transient_neuron_kinds: Tuple[NeuronFaultKind, ...] = ()
    transient_synapse_kinds: Tuple[SynapseFaultKind, ...] = ()
    neuron_sample_fraction: float = 1.0
    synapse_sample_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.timing_threshold_factor <= 0:
            raise FaultModelError("timing_threshold_factor must be positive")
        if not 0.0 < self.timing_leak_factor <= 1.0:
            raise FaultModelError("timing_leak_factor must be in (0, 1]")
        if self.timing_refractory_extra < 0:
            raise FaultModelError("timing_refractory_extra must be >= 0")
        if self.saturation_multiplier <= 0:
            raise FaultModelError("saturation_multiplier must be positive")
        if not 2 <= self.weight_bits <= MAX_WEIGHT_BITS:
            raise FaultModelError(
                f"weight_bits must be in [2, {MAX_WEIGHT_BITS}]"
            )
        if self.datapath_bits is not None and not (
            2 <= self.datapath_bits <= self.weight_bits
        ):
            raise FaultModelError("datapath_bits must be in [2, weight_bits]")
        if self.bitflip_bit is not None and not (
            0 <= self.bitflip_bit < self.weight_bits
        ):
            raise FaultModelError(
                f"bitflip_bit must be in [0, {self.weight_bits - 1}]"
            )
        if self.bitflip_bits is not None:
            if not self.bitflip_bits:
                raise FaultModelError("bitflip_bits must be None or non-empty")
            for bit in self.bitflip_bits:
                if not 0 <= bit < self.weight_bits:
                    raise FaultModelError(
                        f"bitflip_bits entries must be in [0, {self.weight_bits - 1}]"
                    )
        for scale in self.parametric_threshold_scales + self.parametric_leak_scales:
            if not 0.0 < scale < float("inf"):
                raise FaultModelError("parametric scales must be positive and finite")
        for extra in self.parametric_refractory_offsets:
            if extra == 0:
                raise FaultModelError(
                    "parametric_refractory_offsets must not contain 0 (a no-op)"
                )
        for steps in self.delay_steps:
            if steps < 1:
                raise FaultModelError("delay_steps entries must be >= 1")
        for window in self.transient_windows:
            _normalized_window(window, "transient_windows")
        if (
            self.transient_neuron_kinds or self.transient_synapse_kinds
        ) and not self.transient_windows:
            raise FaultModelError(
                "transient kinds configured without transient_windows"
            )
        for fraction in (self.neuron_sample_fraction, self.synapse_sample_fraction):
            if not 0.0 < fraction <= 1.0:
                raise FaultModelError("sample fractions must be in (0, 1]")
