"""MAE / SSIM scoring."""

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from mkfilter import ConfigError, Raster, mae, ssim
from mkfilter.metrics import SSIM_SIGMA, SSIM_WINDOW, _gaussian_taps, _window_mean


def rand_raster(rng, lo=0.0, hi=255.0, shape=(24, 24)):
    return Raster(rng.uniform(lo, hi, shape))


# ---------------------------------------------------------------------------
# MAE


def test_mae_identical_is_zero():
    r = Raster(np.arange(16.0).reshape(4, 4))
    assert mae(r, r) == 0.0


def test_mae_direct_arithmetic():
    a = Raster(np.array([[0.0, 255.0]]))
    b = Raster(np.array([[255.0, 0.0]]))
    assert mae(a, b) == 255.0


def test_mae_symmetry_and_axioms():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b, c = (rand_raster(rng, shape=(8, 8)) for _ in range(3))
        assert mae(a, b) == mae(b, a)
        assert mae(a, b) >= 0.0
        assert mae(a, a) == 0.0
        assert mae(a, c) <= mae(a, b) + mae(b, c) + 1e-12


def test_mae_dimension_mismatch():
    with pytest.raises(ConfigError):
        mae(Raster(np.zeros((2, 2))), Raster(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# SSIM


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (5, 3), (24, 24),
                                   (128, 128)])
def test_window_mean_matches_scipy_reflect_correlation(shape):
    # shapes below the half-window repeat the mirror
    rng = np.random.default_rng(sum(shape))
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    for img in (rng.uniform(0.0, 255.0, shape), rng.uniform(-1e6, 1e6, shape)):
        expected = correlate1d(correlate1d(img, taps, axis=0, mode="reflect"),
                               taps, axis=1, mode="reflect")
        got = _window_mean(img, taps)
        assert np.array_equal(got, expected)
        # SSIM's mean sums in memory order, so the layout must match too
        assert got.flags.c_contiguous


def test_ssim_self_is_one():
    rng = np.random.default_rng(22)
    r = rand_raster(rng)
    assert ssim(r, r, 255.0) == 1.0


def test_ssim_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, b = rand_raster(rng), rand_raster(rng)
        s_ab = ssim(a, b, 255.0)
        s_ba = ssim(b, a, 255.0)
        assert s_ab == pytest.approx(s_ba, abs=1e-12)
        assert -1.0 <= s_ab <= 1.0


def test_ssim_constant_pair_matches_closed_form():
    # constants have zero variance everywhere, so only the luminance term
    # survives: (2*c*(c+d) + C1) / (c^2 + (c+d)^2 + C1)
    c, d, dynamic_range = 100.0, 30.0, 255.0
    c1 = (0.01 * dynamic_range) ** 2
    expected = (2.0 * c * (c + d) + c1) / (c * c + (c + d) ** 2 + c1)
    got = ssim(Raster(np.full((32, 32), c)), Raster(np.full((32, 32), c + d)),
               dynamic_range)
    assert got == pytest.approx(expected, rel=1e-9)


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(24)
    clean = Raster(np.tile(np.linspace(0, 255, 32), (32, 1)))
    slightly = Raster(clean.data + rng.normal(0, 5, (32, 32)))
    badly = Raster(clean.data + rng.normal(0, 60, (32, 32)))
    assert ssim(clean, badly, 255.0) < ssim(clean, slightly, 255.0) < 1.0


def test_ssim_respects_dynamic_range_argument():
    rng = np.random.default_rng(25)
    a = Raster(rng.uniform(-3000, 3000, (24, 24)))
    b = Raster(a.data + rng.normal(0, 150, (24, 24)))
    wide = ssim(a, b, 6000.0)
    narrow = ssim(a, b, 255.0)
    assert wide != narrow  # the constants scale with L
    assert -1.0 <= wide <= 1.0


def test_ssim_validation():
    with pytest.raises(ConfigError):
        ssim(Raster(np.zeros((2, 2))), Raster(np.zeros((3, 2))), 255.0)
    with pytest.raises(ConfigError):
        ssim(Raster(np.zeros((2, 2))), Raster(np.zeros((2, 2))), 0.0)
