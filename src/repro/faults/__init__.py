"""Behavioural fault modelling and simulation for SNN hardware (paper §III).

Fault models
------------
Neuron faults: *saturated* (fires every step), *dead* (never fires), and
*timing variation* (perturbed threshold / leak / refractory period, which
shifts the output spike train in time).

Synapse faults: *dead* (weight forced to 0), *positively / negatively
saturated* (weight forced to a large-magnitude outlier), and *bit-flip*
(one bit of the 8-bit fixed-point stored weight flips).

A fault is *detected* by a test input if it changes the output spike trains
(Eq. 3); it is *critical* if it changes the top-1 prediction for at least
one sample of the dataset, otherwise *benign*.
"""

from repro.faults.model import (
    FaultModelConfig,
    NeuronFault,
    NeuronFaultKind,
    SynapseFault,
    SynapseFaultKind,
)
from repro.faults.bitflip import flip_bit, int8_scale, quantize_int8, bitflip_value
from repro.faults.catalog import FaultCatalog, build_catalog
from repro.faults.collapse import CollapsedCatalog, collapse_catalog
from repro.faults.injector import inject, synapse_fault_value
from repro.faults.diagnosis import FaultDictionary, observed_signature
from repro.faults.sensitivity import (
    SensitivityCurve,
    SensitivityPoint,
    sweep_timing_fault,
)
from repro.faults.simulator import (
    ClassificationResult,
    CoverageBreakdown,
    DetectionResult,
    FaultSimulator,
)
from repro.faults.parallel import (
    parallel_classify,
    parallel_detect,
    parallel_detect_segmented,
    resolve_workers,
)
from repro.faults.segmented import GoldenSegmentRunner, SegmentedDetectionCampaign
from repro.faults.store import CoverageStore, StoreSession, stimulus_chain

__all__ = [
    "NeuronFault",
    "NeuronFaultKind",
    "SynapseFault",
    "SynapseFaultKind",
    "FaultModelConfig",
    "quantize_int8",
    "int8_scale",
    "flip_bit",
    "bitflip_value",
    "FaultCatalog",
    "build_catalog",
    "CollapsedCatalog",
    "collapse_catalog",
    "inject",
    "synapse_fault_value",
    "SensitivityCurve",
    "SensitivityPoint",
    "sweep_timing_fault",
    "FaultDictionary",
    "observed_signature",
    "FaultSimulator",
    "DetectionResult",
    "ClassificationResult",
    "CoverageBreakdown",
    "parallel_detect",
    "parallel_detect_segmented",
    "parallel_classify",
    "resolve_workers",
    "GoldenSegmentRunner",
    "SegmentedDetectionCampaign",
    "CoverageStore",
    "StoreSession",
    "stimulus_chain",
]
