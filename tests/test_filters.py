"""Weight formulas and the weighted-mean engine against brute-force sums."""

import csv
import dataclasses
import io
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkfilter import (BfParams, ClusterConfig, ConfigError, KernelField,
                      Raster, add_integral_noise, bf_denoise,
                      build_cluster_tree, contextual_gain, filters, mae,
                      mkf_denoise, mkf_filter, ssim, weighted_mean_filter)
from mkfilter.clustering import BIN_WIDTH, EM_TOL, NEIGHBORHOOD
from mkfilter.filters import write_kernel_csv
from mkfilter.phantoms import bsd_style

# ---------------------------------------------------------------------------
# oracle: per-pixel direct sums built on the scalar weight functions


class Coordinate(NamedTuple):
    """Pixel position: x is the column index, y the row index."""

    x: int
    y: int


def bf_weight(center: Coordinate, neighbor: Coordinate,
              center_value: float, neighbor_value: float,
              p: BfParams) -> float:
    """Bilateral weight: spatial Gaussian times range Gaussian, in (0, 1]."""
    spatial = (center.x - neighbor.x) ** 2 + (center.y - neighbor.y) ** 2
    ranged = (center_value - neighbor_value) ** 2
    return math.exp(-spatial / (2.0 * p.h_x ** 2) - ranged / (2.0 * p.h_I ** 2))


def mkf_weight(center: Coordinate, neighbor: Coordinate,
               center_value: float, neighbor_value: float,
               h_x: float, delta: float, psi: float) -> float:
    """Multi-kernel weight; psi rescales the squared range distance, so the
    effective range bandwidth is delta / sqrt(psi)."""
    spatial = (center.x - neighbor.x) ** 2 + (center.y - neighbor.y) ** 2
    ranged = (center_value - neighbor_value) ** 2
    return math.exp(-spatial / (2.0 * h_x ** 2) - ranged * psi / (2.0 * delta ** 2))


def brute_force_filter(values, h_x, radius, field=None, bf=None):
    """O(n * window^2) reference filter; `field` selects multi-kernel mode."""
    height, width = values.shape
    padded = np.pad(values, radius, mode="symmetric")
    out = np.empty_like(values)
    for y in range(height):
        for x in range(width):
            center = Coordinate(x, y)
            center_value = values[y, x]
            if field is not None:  # looked up here, not through field.rows
                row = list(field.ids).index(field.leaf_map[y, x])
                delta, psi = field.delta[row], field.psi[row]
            num = den = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    neighbor = Coordinate(x + dx, y + dy)
                    value = padded[y + radius + dy, x + radius + dx]
                    if field is not None:
                        w = mkf_weight(center, neighbor, center_value, value,
                                       h_x, delta, psi)
                    else:
                        w = bf_weight(center, neighbor, center_value, value, bf)
                    num += w * value
                    den += w
            out[y, x] = num / den
    return out


def reference_window_mean(values, h_x, radius, delta, psi):
    """The whole-image engine the row strips replaced: one pass per window
    offset over full-size temporaries, with `delta`/`psi` scalars
    (bilateral) or per-pixel maps keyed by the center pixel."""
    height, width = values.shape
    padded = np.pad(values, radius, mode="symmetric")
    inv_space = 1.0 / (2.0 * h_x * h_x)
    with np.errstate(over="ignore"):
        inv_range = psi / (2.0 * np.asarray(delta, dtype=np.float64) ** 2)
    zero_range = inv_range == 0
    any_zero_range = bool(zero_range.any())
    num = np.zeros_like(values)
    den = np.zeros_like(values)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = padded[radius + dy:radius + dy + height,
                             radius + dx:radius + dx + width]
            with np.errstate(over="ignore", invalid="ignore"):
                ranged = (values - shifted) ** 2 * inv_range
                if any_zero_range:
                    ranged[zero_range] = 0.0
                w = np.exp(-(dx * dx + dy * dy) * inv_space - ranged)
            num += w * shifted
            den += w
    return num / den


def records_field(records, leaf_map):
    """The KernelField whose columns hold {leaf id: (delta, psi)} by id;
    ConfigError unless the field reads those ids from its leaf map."""
    ids = sorted(records)
    delta, psi = np.reshape([records[i] for i in ids], (len(ids), 2)).T
    field = KernelField(leaf_map, delta, psi)
    if field.ids.tolist() != ids:
        raise ConfigError(f"the leaf map gives ids {field.ids.tolist()}, "
                          f"not {ids}")
    return field


def uniform_field(shape, delta, psi):
    return records_field({0: (delta, psi)}, np.zeros(shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# pointwise weights


def test_bf_weight_at_center_is_one():
    p = BfParams(h_x=3.0, h_I=57.0, radius=5)
    c = Coordinate(4, 7)
    assert bf_weight(c, c, 123.0, 123.0, p) == 1.0


def test_bf_weight_unit_range_distance():
    p = BfParams(h_x=3.0, h_I=57.0, radius=5)
    w = bf_weight(Coordinate(0, 0), Coordinate(0, 0), 0.0, 57.0, p)
    assert w == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_bf_weight_matches_generalized_distance_form():
    # the kernel is a Gaussian of the Euclidean distance in the joint
    # (intensity / h_I, position / h_x) space
    rng = np.random.default_rng(5)
    p = BfParams(h_x=2.5, h_I=31.0, radius=5)
    for _ in range(50):
        cx, cy, nx, ny = rng.integers(-8, 8, 4)
        ci, ni = rng.uniform(0, 255, 2)
        direct = bf_weight(Coordinate(cx, cy), Coordinate(nx, ny), ci, ni, p)
        dist_sq = ((ci - ni) / p.h_I) ** 2 + ((cx - nx) / p.h_x) ** 2 \
            + ((cy - ny) / p.h_x) ** 2
        assert direct == pytest.approx(math.exp(-0.5 * dist_sq), rel=1e-12)


def test_contextual_gain_values():
    assert contextual_gain(10.0, 20.0) == 0.25
    assert contextual_gain(7.5, 7.5) == 1.0
    assert contextual_gain(20.0, 10.0) == 4.0  # passed through unclamped


def test_mkf_weight_reduces_to_bf_with_unit_gain():
    rng = np.random.default_rng(6)
    for _ in range(50):
        cx, cy, nx, ny = rng.integers(-8, 8, 4)
        ci, ni = rng.uniform(0, 255, 2)
        delta = rng.uniform(1.0, 80.0)
        p = BfParams(h_x=3.0, h_I=delta, radius=5)
        assert mkf_weight(Coordinate(cx, cy), Coordinate(nx, ny), ci, ni,
                          3.0, delta, 1.0) == \
            pytest.approx(bf_weight(Coordinate(cx, cy), Coordinate(nx, ny),
                                    ci, ni, p), rel=1e-13)


def test_mkf_weight_known_values():
    c, n = Coordinate(0, 0), Coordinate(0, 0)
    assert mkf_weight(c, n, 0.0, 10.0, 3.0, 10.0, 1.0) == \
        pytest.approx(math.exp(-0.5), abs=1e-12)
    assert mkf_weight(c, n, 0.0, 10.0, 3.0, 10.0, 0.25) == \
        pytest.approx(math.exp(-0.125), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6),
       st.floats(-150, 150), st.floats(-150, 150),
       st.floats(20, 100), st.floats(0.05, 2))
def test_mkf_weight_in_unit_interval(dx, dy, ci, ni, delta, psi):
    w = mkf_weight(Coordinate(0, 0), Coordinate(dx, dy), ci, ni,
                   3.0, delta, psi)
    assert 0.0 < w <= 1.0


def test_mkf_weight_extreme_arguments_underflow_cleanly():
    # a tight kernel over a huge intensity gap underflows to exactly 0.0,
    # never to a negative or >1 value
    w = mkf_weight(Coordinate(0, 0), Coordinate(1, 0), -3000.0, 3000.0,
                   3.0, 1.0, 4.0)
    assert w == 0.0


# ---------------------------------------------------------------------------
# engine


def test_constant_image_is_fixed_point():
    img = Raster(np.full((9, 11), 42.0))
    p = BfParams(h_x=3.0, h_I=10.0, radius=3)
    assert np.allclose(bf_denoise(img, p).data, 42.0, atol=1e-12)


def test_three_pixel_row_with_huge_bandwidths():
    img = Raster(np.array([[0.0, 255.0, 0.0]]))
    p = BfParams(h_x=1e9, h_I=1e9, radius=1)
    out = bf_denoise(img, p).data
    assert out == pytest.approx(np.full((1, 3), 85.0), abs=1e-6)


def test_engine_matches_brute_force_bf():
    cases = []
    rng = np.random.default_rng(9)
    for _ in range(4):
        cases.append((rng.uniform(0, 255, (9, 7)),
                      BfParams(h_x=2.0, h_I=20.0, radius=2), 1e-10))
    rng = np.random.default_rng(8)
    for _ in range(5):
        cases.append((rng.uniform(0, 255, (10, 10)),
                      BfParams(h_x=2.0, h_I=25.0, radius=2), 1e-12))
    for values, p, bound in cases:
        got = bf_denoise(Raster(values), p).data
        ref = brute_force_filter(values, p.h_x, 2, bf=p)
        assert np.max(np.abs(got - ref)) < bound


def test_engine_matches_brute_force_mkf():
    cases = []
    rng = np.random.default_rng(10)
    for _ in range(4):
        values = rng.uniform(0, 255, (8, 8))
        leaf_map = rng.integers(0, 3, size=(8, 8)).astype(np.int64)
        records = {k: (rng.uniform(2, 50), rng.uniform(0.1, 2.0))
                   for k in range(3)}
        cases.append((values, records_field(records, leaf_map), 1e-10))
    rng = np.random.default_rng(18)
    values = rng.uniform(0, 255, (10, 10))
    leaf_map = rng.integers(0, 3, (10, 10)).astype(np.int64)
    cases.append((values, records_field({0: (10.0, 0.5), 1: (30.0, 1.0),
                                         2: (50.0, 2.0)}, leaf_map), 1e-12))
    for values, field, bound in cases:
        got = weighted_mean_filter(Raster(values), field, 2, 3.0).data
        ref = brute_force_filter(values, 3.0, 2, field=field)
        assert np.max(np.abs(got - ref)) < bound


def strip_cases():
    """(values, h_x, radius, BfParams or KernelField) engine cases: thin,
    odd and wide shapes, a radius beyond a side, steps that overflow, and
    a leaf whose delta gives a zero range factor in only the lower rows."""
    rng = np.random.default_rng(41)
    shaped = [((1, 1), r) for r in (1, 2, 3)]
    shaped += [(shape, r) for shape in ((1, 9), (9, 1), (7, 13), (33, 5))
               for r in (1, 2, 3)]
    shaped += [((9, 1), 12), ((7, 13), 15), ((1, 20000), 2),
               ((256, 256), 2)]
    for k, (shape, radius) in enumerate(shaped):
        scale = 1e300 if k % 3 == 2 else 255.0
        values = rng.uniform(-scale, scale, shape)
        h_x = float(rng.uniform(1, 4))
        h_i = 1e200 if k % 4 == 3 else float(rng.uniform(5, 80))
        yield values, h_x, radius, BfParams(h_x, h_i, radius)
        leaf_map = rng.integers(0, 2, shape)
        lower = np.arange(shape[0]) >= shape[0] // 2
        leaf_map[lower] = np.where(rng.random((lower.sum(), shape[1])) < 0.5,
                                   2, leaf_map[lower])
        ids = np.unique(leaf_map)
        delta = np.where(ids == 2, 1e200, rng.uniform(2, 60, ids.size))
        yield values, h_x, radius, KernelField(leaf_map, delta,
                                               rng.uniform(0.1, 2.0, ids.size))


@pytest.mark.parametrize("budget", ["one-row", "partial", "default"])
def test_strip_engine_matches_whole_image_reference(monkeypatch, budget):
    for values, h_x, radius, kernel in strip_cases():
        width = values.shape[1]
        # one-row strips; strips of 5 rows, so most heights leave a
        # shorter last strip
        strip = {"one-row": 1, "partial": 5 * width + 2,
                 "default": filters._STRIP_ELEMENTS}[budget]
        monkeypatch.setattr(filters, "_STRIP_ELEMENTS", strip)
        if isinstance(kernel, BfParams):
            # scalar delta and psi: the oracle of a one-leaf field
            got = bf_denoise(Raster(values), kernel).data
            delta, psi = kernel.h_I, 1.0
        else:
            got = weighted_mean_filter(Raster(values), kernel, radius,
                                       h_x).data
            delta, psi = kernel.delta[kernel.rows], kernel.psi[kernel.rows]
        want = reference_window_mean(values, h_x, radius, delta, psi)
        assert np.array_equal(got, want), (values.shape, radius, kernel)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_engine_sum_overflow_is_a_config_error(monkeypatch):
    # the last row's values near the float64 maximum weigh about 14 times
    # themselves in its windows, so only the last one-row strip overflows
    values = np.full((6, 5), 1.0)
    values[-1] = 1.5e307
    monkeypatch.setattr(filters, "_STRIP_ELEMENTS", 1)
    with pytest.raises(ConfigError, match="overflow"):
        bf_denoise(Raster(values), BfParams())


def test_offsets_whose_spatial_weight_underflows_change_nothing():
    # at h_x 3 the spatial weight exp(-d^2 / 18) is exactly 0 beyond a
    # distance of about 115.8 px, so radius 150 gives radius 116's output
    values = np.random.default_rng(44).uniform(0, 255, (8, 8))
    near, far = (bf_denoise(Raster(values), BfParams(3.0, 20.0, radius)).data
                 for radius in (116, 150))
    assert np.array_equal(near, far)


def test_engine_peak_memory_stays_below_four_images():
    # whole-image temporaries per window offset would take about ten
    # image sizes at 512 px
    rng = np.random.default_rng(43)
    values = rng.uniform(0, 255, (512, 512))
    field = records_field({k: (rng.uniform(2, 60), rng.uniform(0.1, 2.0))
                           for k in range(8)}, rng.integers(0, 8, (512, 512)))
    image = Raster(values)
    tracemalloc.start()
    try:
        weighted_mean_filter(image, field, 5, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * values.nbytes


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during ``call()``,
    its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def noisy_phantom(px: int) -> Raster:
    return add_integral_noise(bsd_style(px, px, seed=3), 1000.0, 11)


@pytest.mark.parametrize("px, depth, images",
                         [(256, 2, 8), (512, 7, 23), (16, 2000, 100)])
def test_tree_peak_memory_stays_within_its_budget(px, depth, images):
    # whole-image temporaries kept across the connectivity pass, and the
    # node rows copied twice, took 16.1 and 39.0 image sizes; a stored
    # label map per level took 9.1, 26.7 and 2182
    image = noisy_phantom(px)
    peak = traced_peak(
        lambda: build_cluster_tree(image, ClusterConfig(max_depth=depth)))
    assert peak < images * image.data.nbytes


def test_ssim_peak_memory_stays_below_four_images():
    # whole-image window means and score terms took 9.0 image sizes
    noisy = noisy_phantom(256)
    clean = bsd_style(256, 256, seed=3)
    assert traced_peak(lambda: ssim(clean, noisy, 255.0)) \
        < 4 * clean.data.nbytes


def test_mae_peak_memory_stays_below_one_and_a_half_images():
    # the difference and its absolute value took 2.0 image sizes
    noisy = noisy_phantom(256)
    clean = bsd_style(256, 256, seed=3)
    assert traced_peak(lambda: mae(clean, noisy)) < 1.5 * clean.data.nbytes


def test_output_is_window_convex_combination():
    rng = np.random.default_rng(12)
    values = rng.uniform(-100, 100, (12, 12))
    out = bf_denoise(Raster(values), BfParams(3, 30, 3)).data
    padded = np.pad(values, 3, mode="symmetric")
    for y in range(12):
        for x in range(12):
            window = padded[y:y + 7, x:x + 7]
            assert window.min() - 1e-9 <= out[y, x] <= window.max() + 1e-9


def test_bf_shift_equivariance_away_from_borders():
    rng = np.random.default_rng(13)
    big = rng.uniform(0, 255, (13, 13))
    a, b = Raster(big[:12, :12]), Raster(big[1:, 1:])
    p = BfParams(h_x=2.0, h_I=30.0, radius=2)
    fa = bf_denoise(a, p).data
    fb = bf_denoise(b, p).data
    # windows that never touch padding in either image see identical content
    assert np.allclose(fa[3:10, 3:10], fb[2:9, 2:9], atol=1e-12)


def test_bf_intensity_offset_equivariance():
    rng = np.random.default_rng(14)
    values = rng.uniform(0, 255, (10, 10))
    p = BfParams(h_x=2.0, h_I=25.0, radius=2)
    base = bf_denoise(Raster(values), p).data
    shifted = bf_denoise(Raster(values + 60.0), p).data
    assert np.max(np.abs(shifted - (base + 60.0))) < 1e-9


def test_single_leaf_field_reproduces_bf():
    rng = np.random.default_rng(15)
    values = rng.uniform(0, 255, (10, 10))
    delta, psi = 30.0, 0.25
    field = uniform_field((10, 10), delta, psi)
    via_mkf = weighted_mean_filter(Raster(values), field, 2, 3.0).data
    h_i = delta / math.sqrt(psi)
    via_bf = bf_denoise(Raster(values),
                        BfParams(h_x=3.0, h_I=h_i, radius=2)).data
    assert np.max(np.abs(via_mkf - via_bf)) < 1e-12


def test_param_validation():
    with pytest.raises(ConfigError):
        BfParams(h_x=0.0, h_I=1.0, radius=1)
    with pytest.raises(ConfigError):
        BfParams(h_x=1.0, h_I=1.0, radius=0)
    zeros = np.zeros((2, 2), dtype=np.int64)
    for records, leaf_map in [
            ({0: (0.0, 1.0)}, zeros),
            ({0: (math.nan, 1.0)}, zeros),
            ({0: (1.0, math.inf)}, zeros),
            ({0: (1.0, 1.0)}, zeros + 1),           # unknown leaf id
            ({0: (1.0, 1.0), 5: (1.0, 1.0)}, zeros),  # id with no pixels
            ({-1: (1.0, 1.0)}, zeros - 1),          # negative leaf id
            ({-1: (1.0, 1.0), 0: (2.0, 1.0)}, np.array([[-1, 0]])),
            ({0: (1.0, 1.0), 2: (1.0, 1.0)}, np.array([[0, 2]])),  # a gap
            ({0: (1.0, 1.0)}, zeros + 0.0),         # a float leaf map
            ({0: (1.0, 1.0)}, zeros + math.nan),    # a map of nan
            ({0: (1.0, 1.0)}, zeros.astype(np.uint64)),  # a uint64 map
            ({}, zeros)]:
        with pytest.raises(ConfigError):
            records_field(records, leaf_map)
    with pytest.raises(ConfigError):
        weighted_mean_filter(Raster(np.zeros((3, 3))),
                             uniform_field((3, 3), 57.0, 1.0), 0, 3.0)


@pytest.mark.parametrize("h_x", [0.0, 1e-200, math.nan, -1.0, math.inf])
def test_spatial_bandwidth_is_checked_before_filtering(h_x):
    # unchecked, 0 and 1e-200 divide by zero in the engine, nan reads as an
    # overflow, and -1 and inf filter; every entry checks h_x as BfParams does
    image = Raster(np.random.default_rng(45).uniform(0, 255, (12, 12)))
    cfg = ClusterConfig(max_depth=2, max_cluster=10, min_cluster=4)
    tree = build_cluster_tree(image, cfg)
    for run in (lambda: mkf_denoise(image, cfg, h_x=h_x, radius=2),
                lambda: mkf_filter(image, tree, h_x=h_x, radius=2),
                lambda: weighted_mean_filter(
                    image, uniform_field((12, 12), 30.0, 1.0), 2, h_x)):
        with pytest.raises(ConfigError, match="h_x"):
            run()


def test_kernel_field_rows_start_at_the_first_id():
    """A leaf-id range need not start at 0: the last level of a tree
    starts after every shallower level's ids."""
    leaf_map = np.array([[7, 8, 8], [9, 9, 7]])
    field = records_field({7: (1.0, 1.0), 8: (2.0, 1.0), 9: (3.0, 0.5)},
                          leaf_map)
    assert field.rows.tolist() == [[0, 1, 1], [2, 2, 0]]
    assert field.delta[field.rows].tolist() == [[1.0, 2.0, 2.0],
                                                [3.0, 3.0, 1.0]]
    leaf_map = np.array([[6, 5], [7, 5]])
    field = KernelField(leaf_map, [1.0, 2.0, 3.0], [1.0, 1.0, 0.5])
    assert field.ids.tolist() == [5, 6, 7]
    assert field.rows.tolist() == (leaf_map - 5).tolist()


# ---------------------------------------------------------------------------
# full multi-kernel pipeline


def test_mkf_default_configuration_pins():
    # the benchmark defaults the comparison study runs with
    assert ClusterConfig() == ClusterConfig(max_depth=2, max_cluster=20,
                                            min_cluster=9)
    # the settings a cut cannot vary are constants of every tree
    assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
        "max_depth", "max_cluster", "min_cluster"]
    assert (NEIGHBORHOOD, BIN_WIDTH, EM_TOL) == (8, 1.0, 1e-4)
    assert BfParams() == BfParams(h_x=3.0, h_I=57.0, radius=5)


def test_mkf_preserves_region_boundary():
    # two flat regions, tiny noise only away from the boundary; the filter
    # must flatten the noise without dragging the boundary columns
    img = np.zeros((8, 8))
    img[:, 4:] = 200.0
    noise_mask = np.zeros((8, 8), dtype=bool)
    noise_mask[1:7, 1] = noise_mask[1:7, 6] = True
    noisy = img.copy()
    noisy[1:7, 1] += [3.0, -3.0, 3.0, -3.0, 3.0, -3.0]
    noisy[1:7, 6] += [-3.0, 3.0, -3.0, 3.0, -3.0, 3.0]
    cfg = ClusterConfig(max_depth=2, max_cluster=4, min_cluster=3)
    result = mkf_denoise(Raster(noisy), cfg, h_x=3.0, radius=2)
    ref = brute_force_filter(noisy, 3.0, 2, field=result.field)
    assert np.max(np.abs(result.raster.data - ref)) < 1e-10
    change = np.abs(result.raster.data - noisy)
    boundary_change = change[:, 3:5].mean()   # noise-free, edge-adjacent
    interior_change = change[noise_mask].mean()
    assert boundary_change < interior_change


def test_mkf_denoise_returns_inspectable_intermediates():
    rng = np.random.default_rng(16)
    img = Raster(rng.integers(0, 256, (12, 12)).astype(float))
    result = mkf_denoise(img, ClusterConfig(max_depth=2, max_cluster=10,
                                            min_cluster=4), h_x=3.0, radius=2)
    assert result.tree.depth == 2
    assert np.array_equal(np.unique(result.field.leaf_map), result.field.ids)
    assert np.all(result.field.delta >= 1.0) and np.all(result.field.psi > 0.0)


def test_write_kernel_csv_matches_csv_module_rows(tmp_path):
    rng = np.random.default_rng(21)
    img = Raster(rng.integers(0, 256, (9, 13)).astype(float))
    field = mkf_denoise(img, ClusterConfig(max_depth=3, max_cluster=10,
                                           min_cluster=4), radius=2).field
    assert len(field.ids) > 1
    path = tmp_path / "k.csv"
    write_kernel_csv(field, path)

    # one csv.writer row per pixel, row-major
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "y", "cluster_id", "delta", "psi"])
    for y in range(9):
        for x in range(13):
            cluster = int(field.leaf_map[y, x])
            row = field.ids.tolist().index(cluster)
            writer.writerow([x, y, cluster, repr(float(field.delta[row])),
                             repr(float(field.psi[row]))])
    assert path.read_bytes() == expected.getvalue().encode("ascii")
