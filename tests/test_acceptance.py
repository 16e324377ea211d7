"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Absolute benchmark numbers are implementation-specific (grayscale
conversion, RNG, TV/CF discretizations are pinned here, not by the
original protocol), so the comparative criteria check orderings and
properties, not absolute values.
"""

import time

import numpy as np

from test_bench_cli import replay_row
from test_clustering import _check_tree_invariants
from test_filters import brute_force_filter, records_field, uniform_field

from mkfilter import (BfParams, CfParams, ClusterConfig, MkfRule,
                      Raster, TvParams, add_integral_noise, add_spatial_noise,
                      bf_denoise, build_cluster_tree, build_histogram,
                      cf_gaussian_denoise, em_similarity_cluster,
                      initial_gauss_pair, make_noise_field, mae, mkf_denoise,
                      ssim, synthesize_complex_slice,
                      tv_denoise, weighted_mean_filter)
from mkfilter.bench import (bench_complex_slices, bench_integral, derive_seed,
                            parse_filter_spec, read_rows_csv, write_rows_csv)
from mkfilter.noise import PhaseSpec
from mkfilter.phantoms import brain_slice, bsd_style, piecewise_mosaic


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_engine_matches_brute_force():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for case in range(50):
        h, w = rng.integers(4, 17, 2)
        radius = int(rng.integers(1, 4))
        values = rng.uniform(0, 255, (h, w))
        if case % 2 == 0:
            p = BfParams(h_x=float(rng.uniform(1, 5)),
                         h_I=float(rng.uniform(5, 80)), radius=radius)
            got = weighted_mean_filter(Raster(values), p, radius).data
            ref = brute_force_filter(values, p.h_x, radius, bf=p)
        else:
            n_leaves = int(rng.integers(1, 4))
            leaf_map = rng.integers(0, n_leaves, (h, w)).astype(np.int64)
            records = {k: (float(rng.uniform(2, 60)),
                           float(rng.uniform(0.1, 2.0)))
                       for k in range(n_leaves)}
            field = records_field(records, leaf_map)
            h_x = float(rng.uniform(1, 5))
            got = weighted_mean_filter(Raster(values), MkfRule(field, h_x),
                                       radius).data
            ref = brute_force_filter(values, h_x, radius, field=field)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"50 rasters, max |engine - brute force| = {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_identity_suite():
    worst = 0.0
    constant = Raster(np.full((20, 20), 81.0))
    outputs = {
        "bf": bf_denoise(constant, BfParams(3, 57, 5)).data,
        "mkf": mkf_denoise(constant, ClusterConfig(), 3.0, 5).raster.data,
        "tv": tv_denoise(constant, TvParams()).data,
        "cf": cf_gaussian_denoise(constant, CfParams()).data,
    }
    for data in outputs.values():
        worst = max(worst, float(np.abs(data - 81.0).max()))
    x, y = np.meshgrid(np.arange(16, dtype=float), np.arange(12, dtype=float))
    ramp = 2.5 * x - 1.75 * y + 10.0
    cf_ramp = cf_gaussian_denoise(Raster(ramp), CfParams()).data
    worst = max(worst, float(np.abs(cf_ramp - ramp).max()))
    report(2, worst < 1e-9,
           f"constants (bf/mkf/tv/cf) + CF ramp, max deviation = {worst:.2e}")


def test_criterion_03_clustering_invariants():
    rng = np.random.default_rng(103)
    cfg = ClusterConfig(max_depth=3, max_cluster=20, min_cluster=9)
    ll_slack_ok = True
    for _ in range(100):
        values = rng.integers(0, 256, (32, 32)).astype(float)
        tree = build_cluster_tree(Raster(values), cfg)
        _check_tree_invariants(tree, cfg, 32 * 32)
        hist = build_histogram(values, 1.0)
        result = em_similarity_cluster(
            hist, initial_gauss_pair(float(values.max()), 1.0), 1e-4)
        if result.log_likelihood.size > 1:
            ll_slack_ok &= bool(np.diff(result.log_likelihood).min() > -1e-9)
    report(3, ll_slack_ok,
           "100 rasters: partition/refinement/connectivity hold, "
           "EM log-likelihood non-decreasing")


def test_criterion_04_mkf_reduces_to_bf():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        h, w = rng.integers(6, 20, 2)
        values = rng.uniform(0, 255, (h, w))
        h_i = float(rng.uniform(5, 70))
        h_x = float(rng.uniform(1, 5))
        radius = int(rng.integers(1, 4))
        bf = weighted_mean_filter(Raster(values),
                                  BfParams(h_x, h_i, radius), radius).data
        field = uniform_field((h, w), h_i, 1.0)
        mk = weighted_mean_filter(Raster(values), MkfRule(field, h_x),
                                  radius).data
        worst = max(worst, float(np.max(np.abs(bf - mk))))
    report(4, worst < 1e-12,
           f"20 rasters, psi=1, delta=h_I: max |mkf - bf| = {worst:.2e}")


def test_criterion_05_depth_noise_ordering():
    started = time.perf_counter()
    means = {}
    for level in (10.0, 1000.0):
        for depth in (2, 7):
            scores = []
            for i in range(10):
                clean = piecewise_mosaic(128, 128, seed=i)
                noisy = add_integral_noise(clean, level,
                                           seed=derive_seed(105, i, int(level)))
                cfg = ClusterConfig(max_depth=depth, max_cluster=20)
                out = mkf_denoise(noisy, cfg, h_x=3.0, radius=5).raster
                scores.append(mae(clean, out))
            means[(level, depth)] = float(np.mean(scores))
    elapsed = time.perf_counter() - started
    low_ok = means[(10.0, 7)] < means[(10.0, 2)]
    high_ok = means[(1000.0, 7)] > means[(1000.0, 2)]
    report(5, low_ok and high_ok and elapsed < 300.0,
           f"level 10: depth7 {means[(10.0, 7)]:.3f} < depth2 "
           f"{means[(10.0, 2)]:.3f}; level 1000: depth7 "
           f"{means[(1000.0, 7)]:.3f} > depth2 {means[(1000.0, 2)]:.3f}; "
           f"{elapsed:.0f}s")


def test_criterion_06_headline_complex_comparison():
    started = time.perf_counter()
    filters = {
        "bf": lambda r: bf_denoise(r, BfParams(h_x=3.0, h_I=57.0, radius=2)),
        "tv": lambda r: tv_denoise(r, TvParams(lam=1.25, iters=100, step=0.1)),
        "cf": lambda r: cf_gaussian_denoise(r, CfParams(iters=10)),
        "mkf": lambda r: mkf_denoise(r, ClusterConfig(), h_x=3.0,
                                     radius=2).raster,
    }
    sums = {(c, f): [] for c in ("real", "imag") for f in filters}
    for index in range(10):
        magnitude = brain_slice(96, 96, slice_index=index)
        pair = synthesize_complex_slice(magnitude, PhaseSpec(index))
        field = make_noise_field(96, 96, peak_sigma=500.0)
        for component, clean in (("real", pair.real), ("imag", pair.imag)):
            noisy = add_spatial_noise(clean, field,
                                      seed=derive_seed(106, index, component))
            for name, fn in filters.items():
                out = fn(noisy)
                sums[(component, name)].append(
                    (mae(clean, out), ssim(clean, out, 6000.0)))
    elapsed = time.perf_counter() - started
    ok = True
    lines = []
    for component in ("real", "imag"):
        stats = {name: (np.mean([v[0] for v in sums[(component, name)]]),
                        np.mean([v[1] for v in sums[(component, name)]]))
                 for name in filters}
        for baseline in ("bf", "tv", "cf"):
            ok &= stats["mkf"][0] < stats[baseline][0]
            ok &= stats["mkf"][1] > stats[baseline][1]
        lines.append(
            f"{component}: " + " ".join(
                f"{n}={stats[n][0]:.1f}/{stats[n][1]:.3f}" for n in
                ("mkf", "bf", "tv", "cf")))
    report(6, ok and elapsed < 600.0,
           f"mean MAE/SSIM {'; '.join(lines)}; {elapsed:.0f}s")


def test_criterion_07_curve_flatness():
    levels = np.arange(10.0, 1001.0, 50.0)
    curves = {"mkf": [], "bf": []}
    for level in levels:
        mk_scores, bf_scores = [], []
        for i in range(5):
            clean = bsd_style(96, 96, seed=i)
            noisy = add_integral_noise(clean, float(level),
                                       seed=derive_seed(107, i, int(level)))
            mk_scores.append(mae(clean, mkf_denoise(
                noisy, ClusterConfig(), 3.0, 5).raster))
            bf_scores.append(mae(clean, bf_denoise(
                noisy, BfParams(3.0, 57.0, 5))))
        curves["mkf"].append(float(np.mean(mk_scores)))
        curves["bf"].append(float(np.mean(bf_scores)))

    def normalized_residual(ys):
        ys = np.asarray(ys)
        fit = np.polyval(np.polyfit(levels, ys, 1), levels)
        return float(np.sqrt(np.mean((ys - fit) ** 2)) / (ys.max() - ys.min()))

    r_mkf = normalized_residual(curves["mkf"])
    r_bf = normalized_residual(curves["bf"])
    report(7, r_mkf < r_bf,
           f"normalized line-fit residual: mkf(depth2) {r_mkf:.4f} < "
           f"bf(h_I=57) {r_bf:.4f}")


def test_criterion_08_metric_sanity():
    rng = np.random.default_rng(108)
    started = time.perf_counter()
    axioms = True
    for _ in range(1000):
        a, b, c = (Raster(rng.uniform(0, 255, (8, 8))) for _ in range(3))
        d_ab, d_ba = mae(a, b), mae(b, a)
        axioms &= d_ab == d_ba and d_ab >= 0.0 and mae(a, a) == 0.0
        axioms &= mae(a, c) <= d_ab + mae(b, c) + 1e-12
    ssim_ok = True
    for _ in range(1000):
        a = Raster(rng.uniform(0, 255, (12, 12)))
        b = Raster(rng.uniform(0, 255, (12, 12)))
        ssim_ok &= ssim(a, a, 255.0) == 1.0
        ssim_ok &= abs(ssim(a, b, 255.0)) <= 1.0
    elapsed = time.perf_counter() - started
    report(8, axioms and ssim_ok and elapsed < 5.0,
           f"1000 mae triples + 1000 ssim pairs in {elapsed:.1f}s")


def test_criterion_09_noise_calibration():
    zeros = Raster(np.zeros((256, 256)))
    worst_rel = 0.0
    for level in (10.0, 250.0, 1000.0):
        noise = add_integral_noise(zeros, level, seed=109).data
        worst_rel = max(worst_rel, abs(float(noise.var()) / level - 1.0))
    field = make_noise_field(256, 256, peak_sigma=500.0)
    peak_exact = float(field.data[128, 128]) == 500.0 \
        and float(field.data.max()) == 500.0
    report(9, worst_rel < 0.05 and peak_exact,
           f"variance within {worst_rel * 100:.2f}% of requested; "
           f"field peak == 500 exactly")


def test_criterion_10_row_determinism(tmp_path):
    clean_images = [(f"img{i}", bsd_style(48, 48, seed=i)) for i in range(2)]
    specs = [parse_filter_spec("bf:radius=2"),
             parse_filter_spec("mkf:radius=2")]
    rows = bench_integral(clean_images, (10.0, 1000.0), specs, seed=110)
    slices = [(f"s{i}", brain_slice(32, 32, slice_index=i)) for i in range(2)]
    rows += bench_complex_slices(
        slices, [parse_filter_spec("cf:iters=3")],
        seed=110, peak_sigma=300.0)
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    back = read_rows_csv(path)

    clean_of = dict(clean_images)
    for i, (name, magnitude) in enumerate(slices):
        pair = synthesize_complex_slice(magnitude, PhaseSpec(i))
        clean_of[(name, "real")] = pair.real
        clean_of[(name, "imag")] = pair.imag

    worst = 0.0
    for row in back:
        if row.component == "gray":
            clean, dynamic_range = clean_of[row.image], 255.0
        else:
            clean, dynamic_range = clean_of[(row.image, row.component)], 6000.0
        mae_again, ssim_again = replay_row(clean, row, dynamic_range)
        worst = max(worst, abs(mae_again - row.mae),
                    abs(ssim_again - row.ssim))
    report(10, worst < 1e-12,
           f"{len(back)} CSV rows replayed, max metric drift = {worst:.2e}")
