"""Noise synthesis and complex-slice generation."""

import math

import numpy as np
import pytest

from mkfilter import (ConfigError, NoiseSpec, PhaseSpec, Raster,
                      add_integral_noise, add_spatial_noise, apply_noise,
                      make_noise_field, parse_noise_spec, phase_map,
                      synthesize_complex_slice)

from synthesis_oracle import (PHASE_COEFFS, PHASE_DRIFT, oracle_complex_slice,
                              oracle_noise_field, oracle_phase)


def normalized_level(level: float) -> float:
    """Noise level normalized by the squared 8-bit range (255^2), the
    convention the noise module's levels follow."""
    return level / 65025.0


def flat(value=0.0, size=256):
    return Raster(np.full((size, size), value))


# ---------------------------------------------------------------------------
# integral noise


def test_normalized_level_against_eight_bit_range():
    assert normalized_level(1000.0) == pytest.approx(1000.0 / 65025.0)
    assert normalized_level(1000.0) == pytest.approx(0.015379, abs=1e-6)


def test_integral_noise_deterministic_per_seed():
    img = flat(100.0, 64)
    a = add_integral_noise(img, 250.0, seed=42).data
    b = add_integral_noise(img, 250.0, seed=42).data
    c = add_integral_noise(img, 250.0, seed=43).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_integral_noise_variance_calibration():
    img = flat(0.0, 256)
    for level in (10.0, 250.0, 1000.0):
        noise = add_integral_noise(img, level, seed=7).data
        assert abs(noise.var() / level - 1.0) < 0.05
        # zero mean within 3 sigma / sqrt(n)
        assert abs(noise.mean()) < 3.0 * math.sqrt(level) / 256.0


def test_integral_noise_rejects_bad_level():
    with pytest.raises(ConfigError):
        add_integral_noise(flat(), -1.0, seed=0)


def test_noise_is_unclamped():
    noisy = add_integral_noise(flat(0.0, 64), 1000.0, seed=1).data
    assert noisy.min() < 0.0  # negative excursions survive


# ---------------------------------------------------------------------------
# spatial field


def test_field_peak_at_center_is_exact():
    field = make_noise_field(256, 256).data
    assert field[128, 128] == 500.0
    assert field.max() == 500.0


def test_field_one_spread_point():
    spread = 20.0
    field = make_noise_field(101, 101, spread=spread, peak_sigma=500.0).data
    assert field[50, 50 + 20] == pytest.approx(500.0 * math.exp(-0.5))
    assert field[50, 50 + 20] == pytest.approx(303.265, abs=1e-3)


def test_field_radially_symmetric():
    field = make_noise_field(81, 81, spread=15.0).data
    assert field[40, 52] == field[40, 28] == field[52, 40] == field[28, 40]


def test_spatial_noise_zero_field_is_identity():
    img = flat(55.0, 32)
    zero = Raster(np.zeros((32, 32)), range_hint=(0.0, 0.0))
    assert np.array_equal(add_spatial_noise(img, zero, seed=3).data, img.data)


def test_spatial_noise_constant_field_matches_integral_statistics():
    sigma = 12.0
    spatial = add_spatial_noise(flat(0.0, 256),
                                Raster(np.full((256, 256), sigma)),
                                seed=11).data
    assert abs(spatial.var() / sigma ** 2 - 1.0) < 0.05
    assert abs(spatial.mean()) < 3.0 * sigma / 256.0


def test_spatial_noise_tracks_field_per_block():
    field = make_noise_field(128, 128, peak_sigma=500.0)
    noisy = add_spatial_noise(flat(0.0, 128), field, seed=13).data
    for by in range(2):
        for bx in range(2):
            block = noisy[by * 64:(by + 1) * 64, bx * 64:(bx + 1) * 64]
            sigma_block = field.data[by * 64:(by + 1) * 64,
                                     bx * 64:(bx + 1) * 64]
            expected = math.sqrt(float((sigma_block ** 2).mean()))
            assert abs(block.std() / expected - 1.0) < 0.10


def test_spatial_noise_dimension_mismatch():
    with pytest.raises(ConfigError):
        add_spatial_noise(flat(0.0, 16), make_noise_field(8, 8), seed=0)


# ---------------------------------------------------------------------------
# complex slices


def test_magnitude_reconstruction_identity():
    rng = np.random.default_rng(17)
    mag = Raster(rng.uniform(0, 3000, (40, 40)))
    for index in range(5):
        pair = synthesize_complex_slice(mag, PhaseSpec(slice_index=index))
        back = np.hypot(pair.real.data, pair.imag.data)
        assert np.abs(back - mag.data).max() < 1e-10


def test_phase_wrapped_into_half_open_interval():
    spec = PhaseSpec(slice_index=40)  # drift pushes the polynomial past pi
    phi = phase_map(64, 64, spec)
    assert phi.max() <= math.pi
    assert phi.min() > -math.pi


def test_default_phase_schedule_drifts_smoothly():
    previous = None
    for index in range(10):
        phi = phase_map(96, 96, PhaseSpec(slice_index=index))
        if previous is not None:
            assert np.abs(phi - previous).max() < math.pi / 8.0
        previous = phi
    # and the maps do change from slice to slice
    first = phase_map(96, 96, PhaseSpec(slice_index=0))
    assert np.abs(first - previous).max() > 0.1


# ---------------------------------------------------------------------------
# the centred field and the one phase schedule against the frozen oracle

# one pixel, odd and even sides, square and not
ORACLE_SIZES = [(1, 1), (1, 6), (7, 5), (8, 6), (33, 32), (64, 64)]


@pytest.mark.parametrize("width,height", ORACLE_SIZES)
@pytest.mark.parametrize("spread", [None, 3.0, 1e-154],
                         ids=["auto", "3", "tiny"])
def test_noise_field_matches_the_frozen_oracle(width, height, spread):
    got = make_noise_field(width, height, spread=spread, peak_sigma=300.0)
    want = oracle_noise_field(width, height, (width // 2, height // 2),
                              spread, peak_sigma=300.0)
    assert got.data.tobytes() == want.tobytes()
    assert got.range_hint == (0.0, 300.0)
    # and through a `field:` spec
    clean = Raster(np.zeros((height, width)))
    noisy = apply_noise(clean, NoiseSpec("spatial-field", 300.0, 4,
                                         spread=spread))
    draws = np.random.default_rng(4).standard_normal((height, width))
    assert noisy.data.tobytes() == (clean.data + want * draws).tobytes()


@pytest.mark.parametrize("width,height", ORACLE_SIZES)
def test_complex_slice_matches_the_frozen_oracle(width, height):
    magnitude = np.random.default_rng(width * 100 + height).uniform(
        0.0, 3000.0, (height, width))
    for index in range(41):
        pair = synthesize_complex_slice(Raster(magnitude), PhaseSpec(index))
        real, imag = oracle_complex_slice(magnitude, index, PHASE_COEFFS,
                                          PHASE_DRIFT)
        assert pair.real.data.tobytes() == real.tobytes()
        assert pair.imag.data.tobytes() == imag.tobytes()
        assert phase_map(width, height, PhaseSpec(index)).tobytes() == \
            oracle_phase(width, height, index, PHASE_COEFFS,
                         PHASE_DRIFT).tobytes()


# ---------------------------------------------------------------------------
# spec strings


def test_parse_integral_spec():
    spec = parse_noise_spec("integral:level=1000,seed=42")
    assert (spec.kind, spec.level, spec.seed) == ("integral", 1000.0, 42)
    assert spec.describe() == "integral:level=1000"


def test_parse_field_spec():
    spec = parse_noise_spec("field:peak=500,spread=auto,seed=42")
    assert (spec.kind, spec.level, spec.seed) == ("spatial-field", 500.0, 42)
    assert spec.spread is None
    assert spec.describe() == "field:peak=500,spread=auto"


def test_field_spec_with_a_spread_round_trips():
    spec = parse_noise_spec("field:peak=300,spread=12,seed=3")
    assert spec.spread == 12.0
    assert spec.describe() == "field:peak=300,spread=12"
    assert parse_noise_spec(spec.describe() + ",seed=3") == spec


def test_parse_rejects_garbage():
    for bad in ("gaussian:level=1", "integral:seed=1", "integral:level=1,x=2",
                "integral:level=abc", "field:peak=0"):
        with pytest.raises(ConfigError):
            parse_noise_spec(bad)


@pytest.mark.parametrize("bad", [
    "field:spread=abc",       # was a ValueError from float()
    "field:cx=3",             # the field always peaks on the centre pixel
    "field:cy=3",
    "field:cx=a,cy=2",
    "field:cx=1,cy=1",
    # a repeated key, which would silently take its last value
    "integral:level=4,level=9,seed=1,seed=2",
    "integral:level=4,level=9",
    "field:spread=auto,spread=3",
    "field:peak=5,seed=1,seed=1",
    "integral:level=nan",
    "integral:level=inf",
    "field:peak=nan",
    "field:spread=nan",
    "integral:level=5,seed=-1",
])
def test_parse_rejects_bad_values_as_config_errors(bad):
    with pytest.raises(ConfigError):
        parse_noise_spec(bad)


def test_apply_noise_dispatch():
    img = flat(10.0, 64)
    a = apply_noise(img, parse_noise_spec("integral:level=100,seed=5"))
    b = add_integral_noise(img, 100.0, seed=5)
    assert np.array_equal(a.data, b.data)
    c = apply_noise(img, parse_noise_spec("field:peak=50,spread=auto,seed=5"))
    field = make_noise_field(64, 64, peak_sigma=50.0)
    d = add_spatial_noise(img, field, seed=5)
    assert np.array_equal(c.data, d.data)
