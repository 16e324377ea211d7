"""Deterministic synthetic test images.

The benchmark suites run at desk scale on generated data: piecewise
constant mosaics for the depth/noise studies, photograph-like mixtures
for the curve benchmarks, and an elliptical brain-like magnitude volume
(signed values spanning roughly -3000..3000) for the complex-slice
comparison. Everything is a pure function of its seed / slice index.
"""

from __future__ import annotations

import numpy as np

from .raster import Raster

__all__ = ["piecewise_mosaic", "bsd_style", "brain_slice"]


def piecewise_mosaic(width: int = 128, height: int = 128, regions: int = 24,
                     seed: int = 0) -> Raster:
    """Voronoi mosaic: `regions` flat cells with random values in 20..235.

    Cells are convex, so every region is connected; region size scales
    with width*height/regions.
    """
    rng = np.random.default_rng(seed)
    sx = rng.uniform(0, width, regions)
    sy = rng.uniform(0, height, regions)
    values = rng.uniform(20.0, 235.0, regions)
    xs = np.arange(width)[None, :, None]
    ys = np.arange(height)[:, None, None]
    dist = (xs - sx[None, None, :]) ** 2 + (ys - sy[None, None, :]) ** 2
    cell = np.argmin(dist, axis=2)
    return Raster(values[cell], range_hint=(0.0, 255.0))


def bsd_style(width: int = 128, height: int = 128, seed: int = 0) -> Raster:
    """Photograph-like 8-bit image: smooth shading, a few flat objects with
    sharp edges, and mild fine texture."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, width)[None, :]
    y = np.linspace(0.0, 1.0, height)[:, None]

    phase = rng.uniform(0, 2 * np.pi, 4)
    freq = rng.uniform(1.0, 3.0, 4)
    img = 120.0 + 45.0 * np.sin(2 * np.pi * freq[0] * x + phase[0]) \
        + 35.0 * np.cos(2 * np.pi * freq[1] * y + phase[1]) \
        + 20.0 * np.sin(2 * np.pi * (freq[2] * x + freq[3] * y) + phase[2])

    for _ in range(4):
        cx, cy = rng.uniform(0.15, 0.85, 2)
        rx, ry = rng.uniform(0.06, 0.22, 2)
        level = rng.uniform(30.0, 225.0)
        mask = ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1.0
        img = np.where(mask, level, img)

    texture = rng.normal(0.0, 2.0, (height, width))
    return Raster(np.clip(img + texture, 0.0, 255.0), range_hint=(0.0, 255.0))


def brain_slice(width: int = 96, height: int = 96, slice_index: int = 0) -> Raster:
    """Brain-like magnitude slice with values spanning about -3000..3000.

    Slice geometry shrinks and shifts gradually with the slice index the
    way neighbouring anatomical slices do.
    """
    x = np.linspace(-1.0, 1.0, width)[None, :]
    y = np.linspace(-1.0, 1.0, height)[:, None]
    s = slice_index

    scale = 1.0 - 0.02 * s
    img = np.full((height, width), -3000.0)

    def ellipse(cx, cy, rx, ry):
        return ((x - cx) / (rx * scale)) ** 2 + ((y - cy) / (ry * scale)) ** 2 <= 1.0

    img = np.where(ellipse(0.0, 0.0, 0.82, 0.9), 2800.0, img)        # skull
    img = np.where(ellipse(0.0, 0.0, 0.72, 0.8), 500.0, img)         # csf rim
    img = np.where(ellipse(0.0, 0.0, 0.62, 0.7), 1800.0, img)        # grey matter
    img = np.where(ellipse(0.0, -0.05, 0.45, 0.52), 2400.0, img)     # white matter
    img = np.where(ellipse(-0.22 + 0.01 * s, 0.12, 0.14, 0.2), 900.0, img)
    img = np.where(ellipse(0.22 - 0.01 * s, 0.12, 0.14, 0.2), 900.0, img)
    img = np.where(ellipse(0.0, 0.34, 0.1, 0.08 + 0.004 * s), -1200.0, img)
    return Raster(img, range_hint=(-3000.0, 3000.0))
