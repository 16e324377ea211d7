"""TV / curvature-filter / bilateral baselines."""

import numpy as np
import pytest

from mkfilter import (BfParams, CfParams, ConfigError, Raster, TvParams,
                      bf_denoise, cf_gaussian_denoise, tv_denoise,
                      tv_denoise_trace, weighted_mean_filter)
from mkfilter.baselines import rof_energy, write_energy_csv


def noisy_fixture(seed=0, size=32, sigma=25.0):
    rng = np.random.default_rng(seed)
    clean = np.zeros((size, size))
    clean[:, size // 2:] = 180.0
    return clean, clean + rng.normal(0, sigma, clean.shape)


# ---------------------------------------------------------------------------
# TV


def test_tv_defaults_match_benchmark_protocol():
    assert TvParams() == TvParams(lam=1.25, iters=100, step=0.1)


def test_tv_constant_image_unchanged():
    img = Raster(np.full((12, 12), 77.0))
    assert np.allclose(tv_denoise(img).data, 77.0, atol=1e-9)


def test_tv_huge_lambda_is_identity_like():
    _, noisy = noisy_fixture()
    out = tv_denoise(Raster(noisy), TvParams(lam=1e9, iters=100, step=0.1))
    assert np.abs(out.data - noisy).max() < 1e-3


def test_tv_energy_trace_non_increasing():
    _, noisy = noisy_fixture()
    out, trace = tv_denoise_trace(Raster(noisy),
                                  TvParams(lam=1.25, iters=100, step=0.1))
    assert trace.size == 101
    assert np.diff(trace).max() <= 1e-9
    assert trace[-1] < trace[0]
    assert trace[-1] == pytest.approx(rof_energy(out.data, noisy, 1.25))


def test_tv_actually_reduces_energy_of_noise():
    clean, noisy = noisy_fixture(sigma=25.0)
    # weak-but-real smoothing at the benchmark lambda
    out = tv_denoise(Raster(noisy))
    assert np.abs(out.data - clean).mean() < np.abs(noisy - clean).mean()


def test_tv_deterministic():
    _, noisy = noisy_fixture(seed=3)
    a = tv_denoise(Raster(noisy)).data
    b = tv_denoise(Raster(noisy)).data
    assert np.array_equal(a, b)


def test_tv_param_validation():
    with pytest.raises(ConfigError):
        TvParams(lam=0.0)
    with pytest.raises(ConfigError):
        TvParams(iters=0)
    with pytest.raises(ConfigError):
        TvParams(step=-0.1)


def test_energy_csv(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv([3.0, 2.0, 1.5], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,energy"
    assert lines[1].startswith("0,") and lines[3].startswith("2,")


# ---------------------------------------------------------------------------
# curvature filter


def test_cf_defaults_match_benchmark_protocol():
    assert CfParams() == CfParams(iters=10)


def test_cf_constant_fixed_point():
    img = Raster(np.full((9, 7), 13.0))
    assert np.array_equal(cf_gaussian_denoise(img, CfParams(iters=3)).data,
                          img.data)


def test_cf_plane_fixed_point():
    x, y = np.meshgrid(np.arange(11, dtype=float), np.arange(8, dtype=float))
    for a, b, c in ((3.0, -2.0, 5.0), (0.25, 0.75, -40.0)):
        plane = a * x + b * y + c
        out = cf_gaussian_denoise(Raster(plane), CfParams(iters=4)).data
        assert np.abs(out - plane).max() < 1e-9


def test_cf_impulse_decays_then_stays():
    # hand oracle on the 5x5 impulse: all eight projection candidates at the
    # impulse equal -A while every neighbour keeps a zero candidate, so one
    # iteration removes the spike entirely and the result is a fixed point
    img = np.zeros((5, 5))
    img[2, 2] = 40.0
    magnitudes = [40.0]
    current = Raster(img)
    for _ in range(3):
        current = cf_gaussian_denoise(current, CfParams(iters=1))
        magnitudes.append(abs(float(current.data[2, 2])))
    assert magnitudes[1] == 0.0
    assert magnitudes[2] == magnitudes[3] == 0.0
    assert np.abs(current.data).max() == 0.0


def test_cf_reduces_noise():
    clean, noisy = noisy_fixture(seed=5)
    out = cf_gaussian_denoise(Raster(noisy), CfParams(iters=10))
    assert np.abs(out.data - clean).mean() < np.abs(noisy - clean).mean()


def test_cf_deterministic():
    _, noisy = noisy_fixture(seed=7)
    a = cf_gaussian_denoise(Raster(noisy)).data
    b = cf_gaussian_denoise(Raster(noisy)).data
    assert np.array_equal(a, b)


def test_cf_param_validation():
    with pytest.raises(ConfigError):
        CfParams(iters=0)


# ---------------------------------------------------------------------------
# bilateral baseline (delegation)


def test_bf_defaults_match_benchmark_protocol():
    assert BfParams() == BfParams(h_x=3.0, h_I=57.0, radius=5)


def test_bf_denoise_delegates_to_engine():
    rng = np.random.default_rng(9)
    img = Raster(rng.uniform(0, 255, (14, 14)))
    p = BfParams(h_x=3.0, h_I=57.0, radius=5)
    assert np.array_equal(bf_denoise(img, p).data,
                          weighted_mean_filter(img, p, 5).data)


def test_bf_alternate_settings_run():
    rng = np.random.default_rng(11)
    img = Raster(rng.uniform(0, 255, (10, 10)))
    for p in (BfParams(h_x=3.0, h_I=5.0, radius=5),
              BfParams(h_x=3.0, h_I=57.0, radius=2)):
        out = bf_denoise(img, p)
        assert out.data.shape == img.data.shape
