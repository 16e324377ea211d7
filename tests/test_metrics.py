"""MAE / SSIM scoring."""

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from mkfilter import ConfigError, Raster, mae, metrics, ssim
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


def scipy_ssim(x, y, dynamic_range):
    """The whole-image SSIM: scipy's 'reflect' correlation for every window
    mean, the score expression of :func:`ssim`, and its ``.mean()``."""
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)

    def window(img):
        return correlate1d(correlate1d(img, taps, axis=0, mode="reflect"),
                           taps, axis=1, mode="reflect")

    c1, c2 = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
    mu_x, mu_y = window(x), window(y)
    var_x = window(x * x) - mu_x * mu_x
    var_y = window(y * y) - mu_y * mu_y
    cov = window(x * y) - mu_x * mu_y
    score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2))
    return float(score.mean())


# a strip of the default size is this many rows of a 64 px wide image
STRIP_ROWS = metrics._STRIP_PIXELS // 64


@pytest.mark.parametrize("shape", [
    (1, 1), (1, 300), (300, 1), (STRIP_ROWS - 1, 64), (STRIP_ROWS, 64),
    (STRIP_ROWS + 1, 64), (300, 57), (256, 256)])
@pytest.mark.parametrize("strip_pixels", [1, 200, metrics._STRIP_PIXELS])
@pytest.mark.parametrize("dynamic_range", [255.0, 6000.0])
def test_ssim_matches_the_whole_image_scipy_reference(
        monkeypatch, shape, strip_pixels, dynamic_range):
    # strips of one row, of a few rows and of the default size give the
    # whole-image score to the last bit
    rng = np.random.default_rng(sum(shape))
    low = 0.0 if dynamic_range == 255.0 else -dynamic_range / 2
    x = rng.uniform(low, low + dynamic_range, shape)
    y = x + rng.normal(0.0, dynamic_range / 20, shape)
    monkeypatch.setattr(metrics, "_STRIP_PIXELS", strip_pixels)
    got = ssim(Raster(x), Raster(y), dynamic_range)
    assert got == scipy_ssim(x, y, dynamic_range)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ssim_overflow_in_the_last_strip_is_a_config_error(monkeypatch):
    # three strips of 8 rows; the windows of the first two reach 5 rows
    # past them, so only the last strip squares the 1e200 row
    x = np.full((24, 8), 100.0)
    x[-1] = 1e200
    monkeypatch.setattr(metrics, "_STRIP_PIXELS", 64)
    with pytest.raises(ConfigError, match="overflow"):
        ssim(Raster(x), Raster(np.full((24, 8), 100.0)), 255.0)
