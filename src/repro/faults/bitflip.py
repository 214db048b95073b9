"""Fixed-point weight quantization and bit-flip arithmetic.

Digital SNN accelerators commonly store synapse weights as signed
fixed-point values (8-bit by default here).  A memory bit-flip therefore
perturbs the weight by a power-of-two multiple of the layer's
quantization step.  The paper's "perturbed value, for example induced by
a bit-flip" synapse fault is modelled here:

- the layer's weights define a symmetric scale
  (``max |w| / (2**(bits-1) - 1)``);
- a weight is quantized to a ``bits``-wide two's-complement code;
- one bit of the stored code flips;
- the faulty real-valued weight is the dequantized flipped code.

When the accelerator datapath is narrower than the weight store
(``datapath_bits < weight_bits``), the dequantized value is additionally
snapped to the datapath grid (:func:`truncate_to_grid`): flips of
storage bits below the datapath resolution then round back to the
original value and are observationally no-ops — the equivalence class
exploited by fault collapsing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultModelError


def quant_scale(weights: np.ndarray, bits: int = 8) -> float:
    """Symmetric per-tensor quantization scale: max|w| maps to the most
    positive ``bits``-wide code (±127 for int8)."""
    return peak_scale(float(np.abs(weights).max()), bits)


def peak_scale(peak: float, bits: int) -> float:
    """:func:`quant_scale` of a tensor whose largest magnitude is ``peak``."""
    if bits < 2:
        raise FaultModelError(f"word width must be >= 2 bits, got {bits}")
    top = float(2 ** (bits - 1) - 1)
    if peak == 0.0:
        return 1.0 / top  # degenerate all-zero layer; any scale works
    return peak / top


def int8_scale(weights: np.ndarray) -> float:
    """Symmetric per-tensor int8 quantization scale (max|w| maps to ±127)."""
    return quant_scale(weights, 8)


def quantize_code(value: float, scale: float, bits: int = 8) -> int:
    """Quantize a real weight to a signed ``bits``-wide code."""
    if scale <= 0.0:
        raise FaultModelError(f"quantization scale must be positive, got {scale}")
    if bits < 2:
        raise FaultModelError(f"word width must be >= 2 bits, got {bits}")
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return int(np.clip(np.round(value / scale), low, high))


def quantize_int8(value: float, scale: float) -> int:
    """Quantize a real weight to a signed 8-bit code."""
    return quantize_code(value, scale, 8)


def flip_bit(code: int, bit: int, bits: int = 8) -> int:
    """Flip one bit of a ``bits``-wide two's-complement code."""
    if not 0 <= bit < bits:
        raise FaultModelError(f"bit must be in [0, {bits - 1}], got {bit}")
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    if not low <= code <= high:
        raise FaultModelError(f"code must fit {bits} bits, got {code}")
    mask = (1 << bits) - 1
    unsigned = code & mask
    flipped = unsigned ^ (1 << bit)
    return flipped - (1 << bits) if flipped > high else flipped


def truncate_to_grid(value: float, scale: float, bits: int) -> float:
    """Snap a real weight to a ``bits``-wide datapath grid of step
    ``scale`` (the :func:`quant_scale` of the weights at that width)."""
    return quantize_code(value, scale, bits) * scale


def bitflip_value(value: float, bit: int, scale: float, bits: int = 8) -> float:
    """Real-valued weight after flipping ``bit`` of its stored code."""
    return flip_bit(quantize_code(value, scale, bits), bit, bits) * scale
