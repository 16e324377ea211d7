"""MAE and SSIM quality scores.

SSIM uses the common defaults: 11x11 Gaussian window with sigma 1.5,
C1 = (0.01 L)^2, C2 = (0.03 L)^2, mirror boundaries. The dynamic range L
is explicit because the benchmark mixes 8-bit data (L=255) with signed
MRI slices (L=6000). Scores are computed on real-valued pixels, not on
clamped 8-bit exports. The window is a separable numpy correlation,
bit-identical to scipy.ndimage.correlate1d in its 'reflect' mode.

SSIM runs over row strips of about ``_STRIP_PIXELS`` pixels, each read
with a mirrored halo of half a window above and below, so its window
means and score terms stay strip-sized; only the score map is as large as
the image. Every pixel gets the float operations of a whole-image pass,
in the same order, and the score is the mean of the whole map, so it is
the same number.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, overflow_is_config_error, require_positive
from .raster import Raster

__all__ = ["mae", "ssim", "ssim_constants"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5

# Pixels per SSIM row strip (at least one row): its window means and score
# terms stay in cache.
_STRIP_PIXELS = 8192


def _check_dims(a: Raster, b: Raster) -> None:
    if a.data.shape != b.data.shape:
        raise ConfigError(
            f"rasters differ in shape: {a.data.shape} vs {b.data.shape}")


def mae(a: Raster, b: Raster) -> float:
    """Mean absolute error; ConfigError where it overflows."""
    _check_dims(a, b)
    with overflow_is_config_error("the MAE of these images"):
        diff = np.subtract(a.data, b.data)
        return float(np.abs(diff, out=diff).mean())


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _mirrored(n: int, start: int, stop: int, half: int) -> np.ndarray:
    """Indices along an axis of length ``n`` of the positions ``start -
    half`` to ``stop + half``, mirrored with the edge sample repeated
    (scipy's 'reflect', numpy's 'symmetric'); the mirror repeats where
    ``half`` outreaches the axis."""
    source = np.arange(start - half, stop + half) % (2 * n)
    return np.where(source < n, source, 2 * n - 1 - source)


def _correlate_rows(img: np.ndarray, taps: np.ndarray,
                    rows: np.ndarray) -> np.ndarray:
    """Correlate every column of ``img`` with the symmetric, odd-length
    ``taps``. ``rows`` are the rows of ``img`` that the windows read, in
    order: each output row's source row, with half the taps' length more
    on each side (see :func:`_mirrored`). The taps are added in scipy's
    order, centre first and then each mirrored pair from the outermost
    in, so the sums round alike."""
    half = taps.size // 2
    n = rows.size - 2 * half
    padded = img.take(rows, axis=0)
    out = padded[half:half + n] * taps[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(padded[half - j:half - j + n], padded[half + j:half + j + n],
               out=pair)
        pair *= taps[half - j]
        out += pair
    return out


def _window_mean(img: np.ndarray, taps: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Separable window mean, C-ordered as the score map that SSIM
    averages is: the taps along axis 0 over ``rows``, which
    :func:`_correlate_rows` reads, then along axis 1."""
    columns = _mirrored(img.shape[1], 0, img.shape[1], taps.size // 2)
    return np.ascontiguousarray(_correlate_rows(
        _correlate_rows(img, taps, rows).T, taps, columns).T)


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
    where its products overflow.

    The score map is filled one row strip at a time: each strip reads the
    rows its windows reach, mirrored at the image edges, and the squares
    and product of the two images are taken on those rows alone."""
    _check_dims(a, b)
    c1, c2 = ssim_constants(dynamic_range)
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    half = taps.size // 2
    height, width = a.data.shape
    strip = max(1, _STRIP_PIXELS // width)
    score = np.empty((height, width))
    with overflow_is_config_error("the SSIM of these images"):
        for top in range(0, height, strip):
            bottom = min(top + strip, height)
            rows = _mirrored(height, top, bottom, half)
            reach = slice(rows.min(), rows.max() + 1)
            x, y = a.data[reach], b.data[reach]
            rows -= reach.start
            mu_x = _window_mean(x, taps, rows)
            mu_y = _window_mean(y, taps, rows)
            var_x = _window_mean(x * x, taps, rows) - mu_x * mu_x
            var_y = _window_mean(y * y, taps, rows) - mu_y * mu_y
            cov = _window_mean(x * y, taps, rows) - mu_x * mu_y
            np.divide((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2),
                      (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2),
                      out=score[top:bottom])
    return float(score.mean())
