"""TV / curvature-filter / bilateral baselines."""

import numpy as np
import pytest

from mkfilter import (BfParams, CfParams, ConfigError, Raster, TvParams,
                      bf_denoise, cf_gaussian_denoise, tv_denoise,
                      tv_denoise_trace, weighted_mean_filter)
from mkfilter.baselines import TV_EPSILON, write_energy_csv
from mkfilter.errors import overflow_is_config_error


def noisy_fixture(seed=0, size=32, sigma=25.0):
    rng = np.random.default_rng(seed)
    clean = np.zeros((size, size))
    clean[:, size // 2:] = 180.0
    return clean, clean + rng.normal(0, sigma, clean.shape)


# ---------------------------------------------------------------------------
# TV


def rof_energy(u, observed, lam):
    """Smoothed ROF energy: the sum of |grad u| plus (lam/2) times the
    squared residual. Forward differences; the mirror boundary makes each
    row's last x-difference and the last row's y-difference zero."""
    gx = np.zeros_like(u)
    gx[:, :-1] = np.diff(u, axis=1)
    gy = np.zeros_like(u)
    gy[:-1] = np.diff(u, axis=0)
    tv = np.sqrt(gx * gx + gy * gy + TV_EPSILON * TV_EPSILON).sum()
    return float(tv + 0.5 * lam * np.square(u - observed).sum())


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


def reference_tv(values, lam, iters, step):
    """The ROF descent recomputing u's gradient state on every iteration,
    from fresh arrays, the form the reused state replaced. Also returns how
    many iterations halved the step and how many stayed stationary."""
    observed = np.array(values, dtype=np.float64)

    def gradient_norm(u):
        gx, gy = np.zeros_like(u), np.zeros_like(u)
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1] = u[1:] - u[:-1]
        return gx, gy, np.sqrt(gx * gx + gy * gy + TV_EPSILON * TV_EPSILON)

    def energy(u):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(gradient_norm(u)[2].sum()
                         + 0.5 * lam * np.square(u - observed).sum())

    u = observed.copy()
    step = min(step, 1.0 / lam)
    trace = [energy(u)]
    halved = stationary = 0
    for _ in range(iters):
        with overflow_is_config_error("the TV gradient norm"):
            gx, gy, norm = gradient_norm(u)
        px, py = gx / norm, gy / norm
        grad = -px - py
        grad[:, 1:] += px[:, :-1]
        grad[1:, :] += py[:-1, :]
        grad += lam * (u - observed)
        candidate = u - step * grad
        e = energy(candidate)
        halved += e > trace[-1]
        for _ in range(60):
            if e <= trace[-1]:
                break
            step *= 0.5
            candidate = u - step * grad
            e = energy(candidate)
        if e <= trace[-1]:
            u = candidate
            trace.append(e)
        else:
            stationary += 1
            trace.append(trace[-1])
    return u, np.array(trace), halved, stationary


# odd and even sides, rows shorter and longer than the columns, and a
# 127 x 130 plane whose rows and phase planes are all ragged
REFERENCE_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 3), (3, 2), (2, 9), (3, 3),
                    (5, 7), (7, 4), (128, 128), (127, 130)]


def reference_inputs(shape):
    """Two normal draws, and three tie-heavy ones: small integers, half of
    them zeros of either sign, make candidates and differences of equal
    magnitude common, with opposite signs as often as not, so a changed
    tie rule or a lost signed zero shows in the result."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    inputs = [rng.normal(0.3 * scale, scale, shape) for scale in (255.0, 1e6)]
    for high in (1, 2, 5):
        ties = rng.integers(-high, high + 1, shape).astype(np.float64)
        ties[rng.random(shape) < 0.25] = 0.0
        ties[rng.random(shape) < 0.25] = -0.0
        inputs.append(ties)
    return inputs


def assert_same_tv(values, lam, iters, step):
    """tv_denoise_trace gives reference_tv's raster, signed zeros included,
    and trace; returns the reference's halved and stationary counts."""
    got, trace = tv_denoise_trace(Raster(values),
                                  TvParams(lam=lam, iters=iters, step=step))
    want, want_trace, halved, stationary = reference_tv(values, lam, iters,
                                                        step)
    assert np.array_equal(got.data, want)
    assert np.array_equal(np.signbit(got.data), np.signbit(want))
    assert np.array_equal(trace, want_trace)
    return halved, stationary


@pytest.mark.parametrize("shape", REFERENCE_SHAPES)
def test_tv_matches_recomputing_reference(shape):
    halved = stationary = 0
    for values in reference_inputs(shape):
        # the benchmark's lam and step; a step of 15 that the halving cuts;
        # a step of 1e30 that 60 halvings leave too long, so the first
        # iteration stays stationary and a later one resumes the halving
        for lam, iters, step in ((1.25, 20, 0.1), (0.05, 8, 15.0),
                                 (1e-30, 6, 1e30)):
            h, s = assert_same_tv(values, lam, iters, step)
            halved += h
            stationary += s
    # a single pixel has a zero gradient, so every step is accepted whole
    assert (halved > 0 and stationary > 0) == (shape != (1, 1))


def test_tv_row_wrap_difference_is_dropped():
    # the flat x-difference from each row's last pixel to the next row's
    # first is the largest in the image, and must not leak into either
    values = np.array([[0.0, 1.0, 2.0, 900.0],
                       [-900.0, -1.0, 0.0, 1.0],
                       [2.0, -0.0, 1.0, 3.0]])
    assert np.abs(np.diff(values.ravel())).argmax() in (3, 7)
    for lam, iters, step in ((1.25, 20, 0.1), (1e-30, 6, 1e30)):
        assert_same_tv(values, lam, iters, step)
    # near the float64 maximum the wrap's difference overflows; so does the
    # square of a real difference, and both forms raise the same error
    values = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(ConfigError) as want:
        reference_tv(values, 1.25, 1, 0.1)
    with pytest.raises(ConfigError) as got:
        tv_denoise_trace(Raster(values), TvParams(iters=1))
    assert str(got.value) == str(want.value)


def test_tv_gradient_overflow_is_the_same_config_error():
    # one iteration: the overflow must be reported by the first one
    values = np.array([[-1e308, 1e308, -1e308], [1e308, -1e308, 1e308]])
    with pytest.raises(ConfigError) as want:
        reference_tv(values, 1.25, 1, 0.1)
    with pytest.raises(ConfigError) as got:
        tv_denoise_trace(Raster(values), TvParams(iters=1))
    assert str(got.value) == str(want.value)
    assert str(got.value) == ("the TV gradient norm overflows the float64 "
                              "range")


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


def reference_cf(values, iters):
    """The curvature filter with a fresh odd-reflect pad and a stacked
    candidate array on every pass, the form the work buffers replaced."""
    u = np.array(values, dtype=np.float64)
    height, width = u.shape
    for _ in range(iters):
        for oy, ox in ((0, 0), (1, 1), (0, 1), (1, 0)):
            p = np.pad(u, 1, mode="reflect", reflect_type="odd")
            yc = slice(1 + oy, 1 + height, 2)
            xc = slice(1 + ox, 1 + width, 2)
            yn = slice(yc.start - 1, yc.stop - 1, 2)
            ys = slice(yc.start + 1, yc.stop + 1, 2)
            xw = slice(xc.start - 1, xc.stop - 1, 2)
            xe = slice(xc.start + 1, xc.stop + 1, 2)
            c, n, s = p[yc, xc], p[yn, xc], p[ys, xc]
            w, e = p[yc, xw], p[yc, xe]
            nw, ne, sw, se = p[yn, xw], p[yn, xe], p[ys, xw], p[ys, xe]
            candidates = np.stack([
                0.5 * (n + s) - c, 0.5 * (w + e) - c,
                0.5 * (nw + se) - c, 0.5 * (ne + sw) - c,
                n + w - nw - c, n + e - ne - c,
                w + s - sw - c, e + s - se - c,
            ])
            pick = np.argmin(np.abs(candidates), axis=0)
            u[oy::2, ox::2] += np.take_along_axis(candidates, pick[None],
                                                  axis=0)[0]
    return u


@pytest.mark.parametrize("shape", REFERENCE_SHAPES)
def test_cf_matches_fresh_pad_reference(shape):
    # a length-1 side is where np.pad's odd reflection copies the edge; the
    # tie-heavy inputs show which of the tied planes the filter picks
    for values in reference_inputs(shape):
        for iters in (1, 3, 10):
            got = cf_gaussian_denoise(Raster(values), CfParams(iters=iters))
            want = reference_cf(values, iters)
            assert np.array_equal(got.data, want)
            assert np.array_equal(np.signbit(got.data), np.signbit(want))


def test_cf_overflow_only_outside_the_image_is_not_an_error():
    # the first column's odd reflection is 2 * 0.6e308 - 0.2e308 = 1e308 on
    # every row. Between two plane rows, a pass also computes candidates
    # for the reflected column, whose line through its neighbours above and
    # below adds 1e308 to 1e308 and overflows; no real pixel's candidate or
    # update does, and every column is constant, so the image is a fixed
    # point
    values = np.full((6, 5), 0.2e308)
    values[:, 0] = 0.6e308
    want = reference_cf(values, 2)
    assert np.array_equal(want, values)
    got = cf_gaussian_denoise(Raster(values), CfParams(iters=2))
    assert np.array_equal(got.data, want)
    # where a real pixel's candidate overflows too, both raise
    values = values.copy()
    values[2, 2] = -1.7e308
    with pytest.raises(ConfigError) as want:
        with overflow_is_config_error("the curvature filter update"):
            reference_cf(values, 1)
    with pytest.raises(ConfigError) as got:
        cf_gaussian_denoise(Raster(values), CfParams(iters=1))
    assert str(got.value) == str(want.value)


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
