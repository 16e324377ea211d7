"""Frozen synthesis oracle: the background phase and the noise field as they
stood while the phase coefficients, the per-slice drift and the field's
centre could still be set.

The library now fixes all three. ``oracle_phase`` takes the coefficients
and drift explicitly and ``oracle_noise_field`` takes the centre, with the
formulas, float operations and order of that code, so that the library's
outputs can be checked byte for byte against them at the values it fixes.
"""

from __future__ import annotations

import math

import numpy as np

# the schedule the library fixes: a quadratic polynomial over normalized
# [-1, 1] coordinates, plus a linear drift per slice index
PHASE_COEFFS = (0.3, 0.5, -0.4, 0.25, 0.15, -0.2)
PHASE_DRIFT = (0.03, 0.05, -0.04)


def oracle_phase(width: int, height: int, slice_index: int, coefficients,
                 drift) -> np.ndarray:
    """The background phase polynomial, wrapped into (-pi, pi]."""
    u = np.linspace(-1.0, 1.0, width)[None, :]
    v = np.linspace(-1.0, 1.0, height)[:, None]
    c00, c10, c01, c20, c11, c02 = coefficients
    d0, d1, d2 = drift
    phi = (c00 + c10 * u + c01 * v + c20 * u * u + c11 * u * v
           + c02 * v * v + slice_index * (d0 + d1 * u + d2 * v))
    return math.pi - np.mod(math.pi - phi, 2.0 * math.pi)


def oracle_complex_slice(magnitude: np.ndarray, slice_index: int,
                         coefficients, drift):
    """Noise-free (real, imag) arrays of `magnitude` under that phase."""
    height, width = magnitude.shape
    phi = oracle_phase(width, height, slice_index, coefficients, drift)
    return magnitude * np.cos(phi), magnitude * np.sin(phi)


def oracle_noise_field(width: int, height: int, center, spread,
                       peak_sigma: float) -> np.ndarray:
    """A 2D Gaussian sigma bump peaking at `center` (x, y), of width
    `spread` (None: min(width, height) / 4)."""
    cx, cy = center
    if spread is None:
        spread = min(width, height) / 4.0
    x = np.arange(width, dtype=np.float64) - float(cx)
    y = np.arange(height, dtype=np.float64) - float(cy)
    with np.errstate(over="ignore"):
        rsq = x[None, :] ** 2 + y[:, None] ** 2
        return peak_sigma * np.exp(-rsq / (2.0 * spread * spread))
