"""MAE and SSIM quality scores.

SSIM uses the common defaults: 11x11 Gaussian window with sigma 1.5,
C1 = (0.01 L)^2, C2 = (0.03 L)^2, mirror boundaries. The dynamic range L
is explicit because the benchmark mixes 8-bit data (L=255) with signed
MRI slices (L=6000). Scores are computed on real-valued pixels, not on
clamped 8-bit exports. The window is a separable numpy correlation,
bit-identical to scipy.ndimage.correlate1d in its 'reflect' mode.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, overflow_is_config_error, require_positive
from .raster import Raster

__all__ = ["mae", "ssim", "ssim_constants"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _check_dims(a: Raster, b: Raster) -> None:
    if a.data.shape != b.data.shape:
        raise ConfigError(
            f"rasters differ in shape: {a.data.shape} vs {b.data.shape}")


def mae(a: Raster, b: Raster) -> float:
    """Mean absolute error; ConfigError where it overflows."""
    _check_dims(a, b)
    with overflow_is_config_error("the MAE of these images"):
        return float(np.abs(a.data - b.data).mean())


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _correlate_rows(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Correlate every column of `img` with the symmetric, odd-length
    `taps`, mirror-padded with the edge sample repeated (scipy's 'reflect',
    numpy's 'symmetric'; the mirror repeats where the taps outreach the
    image). The taps are added in scipy's order, centre first and then each
    mirrored pair from the outermost in, so the sums round alike."""
    half = taps.size // 2
    n = img.shape[0]
    source = np.arange(-half, n + half) % (2 * n)
    padded = img.take(np.where(source < n, source, 2 * n - 1 - source), axis=0)
    out = padded[half:half + n] * taps[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(padded[half - j:half - j + n], padded[half + j:half + j + n],
               out=pair)
        pair *= taps[half - j]
        out += pair
    return out


def _window_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable window mean: the taps along axis 0, then along axis 1.

    The result is C-ordered: the score's mean sums in memory order, so a
    transposed layout would round its sum differently."""
    return np.ascontiguousarray(
        _correlate_rows(_correlate_rows(img, taps).T, taps).T)


def ssim_constants(dynamic_range: float) -> tuple[float, float]:
    """SSIM's (C1, C2) for the dynamic range L; ConfigError unless L is
    positive and finite and so is C1 * C2, which the score multiplies."""
    require_positive(dynamic_range=dynamic_range)
    try:
        c1, c2 = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
    except OverflowError:
        c1 = c2 = math.inf
    if math.isinf(c1 * c2):
        raise ConfigError(f"dynamic range {dynamic_range} is too large for "
                          f"finite SSIM constants")
    return c1, c2


def ssim(a: Raster, b: Raster, dynamic_range: float) -> float:
    """Mean local structural similarity over the full image; ConfigError
    where its products overflow."""
    _check_dims(a, b)
    c1, c2 = ssim_constants(dynamic_range)
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    x = a.data
    y = b.data
    with overflow_is_config_error("the SSIM of these images"):
        mu_x = _window_mean(x, taps)
        mu_y = _window_mean(y, taps)
        var_x = _window_mean(x * x, taps) - mu_x * mu_x
        var_y = _window_mean(y * y, taps) - mu_y * mu_y
        cov = _window_mean(x * y, taps) - mu_x * mu_y
        score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2))
    return float(score.mean())
