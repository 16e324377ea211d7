"""Benchmark harness rows, CSV/SVG emission, and the CLI surface."""

import dataclasses
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from tree_oracle import reference_tree

from mkfilter import (ClusterConfig, Raster, bench, build_cluster_tree,
                      build_kernel_field, filters, load_f64_raster,
                      load_pgm, save_f64_raster, save_pgm)
from mkfilter.bench import (CSV_HEADER, bench_complex_slices, bench_integral,
                            derive_seed,
                            parse_filter_spec, read_rows_csv,
                            sweep_depth, write_rows_csv)
from mkfilter.charts import line_chart
from mkfilter.cli import main
from mkfilter.noise import NoiseSpec, apply_noise, parse_noise_spec
from mkfilter.phantoms import brain_slice, bsd_style, piecewise_mosaic


# ---------------------------------------------------------------------------
# filter specs and seeds


def test_parse_filter_spec_defaults_and_overrides():
    spec = parse_filter_spec("bf:hi=5")
    assert spec.params["hi"] == 5.0 and spec.params["hx"] == 3.0
    assert spec.canonical() == "hi=5,hx=3,radius=5"
    assert spec.label() == "bf:hi=5"
    assert parse_filter_spec("mkf").label() == "mkf"
    assert parse_filter_spec("tv:lam=2,iters=50").params["iters"] == 50


def test_parse_filter_spec_rejects_unknown():
    from mkfilter import ConfigError
    for bad in ("median", "bf:sigma=3", "mkf:depth=abc", "bf:hx=nan",
                "mkf:depth=1", "tv:iters=0", "bf:hi=1e-200",
                # a repeated key, which would silently take its last value
                "bf:hi=5,hi=7", "mkf:depth=2,radius=2,depth=2"):
        with pytest.raises(ConfigError):
            parse_filter_spec(bad)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, "img1", 10)
    assert a == derive_seed(42, "img1", 10)
    assert a != derive_seed(42, "img1", 20)
    assert a != derive_seed(43, "img1", 10)
    assert 0 <= a < 2 ** 64


# ---------------------------------------------------------------------------
# rows


def small_image(seed=0):
    return Raster(piecewise_mosaic(24, 24, regions=6, seed=seed).data)


def run_case(image_id, clean, spec, noise, dynamic_range, component="gray"):
    """The row of a one-spec cell: noise, filter and score once."""
    return bench._run_cell(image_id, clean, noise, [spec], dynamic_range,
                           component)[0]


def test_run_case_row_fields():
    noise = NoiseSpec(kind="integral", level=100.0, seed=7)
    row = run_case("img0", small_image(), parse_filter_spec("bf:radius=2"),
                   noise, 255.0)
    assert row.image == "img0" and row.filter == "bf"
    assert row.noise == "integral:level=100" and row.seed == 7
    assert row.component == "gray"
    assert row.mae > 0 and -1 <= row.ssim <= 1 and row.ms > 0


def replay_row(clean, row, dynamic_range):
    """Re-run one CSV row from its recorded provenance: (mae, ssim)."""
    noise_spec = parse_noise_spec(f"{row.noise},seed={row.seed}")
    filter_spec = parse_filter_spec(f"{row.filter}:{row.params}")
    fresh = run_case(row.image, clean, filter_spec, noise_spec,
                     dynamic_range, row.component)
    return fresh.mae, fresh.ssim


def test_replay_row_reproduces_metrics():
    clean = small_image(3)
    integral = NoiseSpec(kind="integral", level=200.0, seed=11)
    # values that `:g` would round to 6 significant digits
    field = NoiseSpec(kind="spatial-field", level=200.123456789, seed=11,
                      spread=7.123456789)
    rows = [run_case("img3", clean, parse_filter_spec(text), noise, 255.0)
            for text, noise in (("mkf:radius=2", integral),
                                ("bf:hi=57.123456789,radius=2", integral),
                                ("bf:radius=2", field))]
    rows += sweep_depth("img3", clean, depths=(2,), sizes=(20,),
                        levels=(200.0,), seed=5, h_x=2.123456789, radius=2)
    assert "hx=2.123456789" in rows[-1].params
    for row in rows:
        mae_again, ssim_again = replay_row(clean, row, 255.0)
        assert abs(mae_again - row.mae) < 1e-12
        assert abs(ssim_again - row.ssim) < 1e-12
    # too slow to run; its digest must still parse back to the same spec
    spec = parse_filter_spec("cf:iters=1234567")
    assert spec.canonical() == "iters=1234567"
    assert parse_filter_spec(f"cf:{spec.canonical()}") == spec


def test_sweep_depth_grid_shape_and_shared_noise():
    rows = sweep_depth("fix", small_image(), depths=(2, 3), sizes=(10, 20),
                       levels=(10.0, 1000.0), seed=5, radius=2)
    assert len(rows) == 2 * 2 * 2
    by_level = {}
    for row in rows:
        by_level.setdefault(row.noise, set()).add(row.seed)
    # every cell at one level was corrupted by the same realization
    assert all(len(seeds) == 1 for seeds in by_level.values())
    assert len(by_level) == 2


def count_calls(monkeypatch, calls, module, name):
    """Count the calls of `module.name` into `calls[name]`."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_sweep_depth_default_grid_has_240_rows(monkeypatch):
    # 6 depths x 20 sizes x 2 levels, from one tree per level
    calls = {"build_cluster_tree": 0}
    count_calls(monkeypatch, calls, filters, "build_cluster_tree")
    rows = sweep_depth("fix", Raster(piecewise_mosaic(16, 16, regions=5,
                                                      seed=4).data),
                       seed=1, radius=2)
    assert len(rows) == 240
    depths = {row.params for row in rows}
    assert len(depths) == 6 * 20
    assert calls == {"build_cluster_tree": 2}


def _without_ms(rows):
    return [dataclasses.replace(row, ms=0.0) for row in rows]


def test_sweep_depth_rows_match_per_case_path():
    clean = small_image()
    depths, sizes, levels = (2, 3, 5), (20, 60), (10.0, 1000.0)
    rows = sweep_depth("fix", clean, depths=depths, sizes=sizes,
                       levels=levels, seed=5, radius=2)
    # one fresh run_case per (level, depth, size), in that order
    expected = []
    for level in levels:
        noise = NoiseSpec(kind="integral", level=level,
                          seed=derive_seed(5, "fix", int(level)))
        for depth in depths:
            for size in sizes:
                spec = parse_filter_spec(
                    f"mkf:depth={depth},max_cluster={size},radius=2")
                expected.append(run_case("fix", clean, spec, noise, 255.0))
    assert _without_ms(rows) == _without_ms(expected)
    assert all(row.ms > 0 for row in rows)


def test_bench_integral_rows_match_per_case_run_case():
    images = [("a", small_image(1)), ("b", small_image(2))]
    levels = (10.0, 1000.0)
    specs = [parse_filter_spec(text) for text in (
        "bf", "mkf:depth=2", "mkf:depth=7", "mkf:depth=4,max_cluster=60")]
    rows = bench_integral(images, levels, specs, seed=3)
    expected = [run_case(image_id, clean, spec,
                         NoiseSpec(kind="integral", level=level,
                                   seed=derive_seed(3, image_id, int(level))),
                         255.0)
                for image_id, clean in images for level in levels
                for spec in specs]
    assert _without_ms(rows) == _without_ms(expected)
    assert all(row.ms > 0 for row in rows)


@pytest.mark.parametrize("layout", ["integral", "slices", "sweep"])
def test_each_cell_is_noised_once_with_one_tree(monkeypatch, layout):
    calls = {"apply_noise": 0, "build_cluster_tree": 0}
    count_calls(monkeypatch, calls, bench, "apply_noise")
    count_calls(monkeypatch, calls, filters, "build_cluster_tree")
    # two depths and two sizes: cuts of one tree
    specs = [parse_filter_spec(text) for text in (
        "bf:radius=2", "mkf:depth=2,radius=2", "mkf:depth=3,radius=2",
        "mkf:depth=2,max_cluster=60,radius=2")]
    if layout == "integral":
        rows = bench_integral([("a", small_image(1)), ("b", small_image(2))],
                              (10.0, 100.0), specs, seed=1)
    elif layout == "slices":
        rows = bench_complex_slices(
            [(f"s{i}", brain_slice(24, 24, slice_index=i)) for i in range(2)],
            specs, seed=1, peak_sigma=200.0)
    else:  # one cell per level
        rows = sweep_depth("fix", small_image(), depths=(2, 3),
                           sizes=(20, 60), levels=(10.0, 1000.0, 5000.0),
                           seed=1, radius=2)
    cells = len({(row.image, row.component, row.noise) for row in rows})
    assert calls == {"apply_noise": cells, "build_cluster_tree": cells}


def record_passes(monkeypatch) -> list:
    """Record each engine pass as (radius, fields) from now on."""
    passes = []
    window_mean = filters._window_mean

    def recorded(values, h_x, radius, factors):
        passes.append((radius, len(factors)))
        return window_mean(values, h_x, radius, factors)
    monkeypatch.setattr(filters, "_window_mean", recorded)
    return passes


@pytest.mark.parametrize("per_pass", [28, 3])
def test_a_cell_filters_each_distinct_factor_map_once(monkeypatch, per_pass):
    # 24 px: the default strip budget takes 28 fields a pass, a budget of
    # three images' pixels 3
    if per_pass == 3:
        monkeypatch.setattr(filters, "_STRIP_ELEMENTS", 3 * 24 * 24)
    assert filters._fields_per_pass(24 * 24) == per_pass
    clean, depths, sizes = small_image(), range(2, 8), (20, 100)
    noise = NoiseSpec(kind="integral", level=10.0,
                      seed=derive_seed(5, "fix", 10))
    noisy = apply_noise(clean, noise)
    maps = set()
    for depth in depths:
        for size in sizes:
            field = build_kernel_field(build_cluster_tree(
                noisy, ClusterConfig(max_depth=depth, max_cluster=size)))
            maps.add(field.factor_map().tobytes())
    passes = record_passes(monkeypatch)
    rows = sweep_depth("fix", clean, depths=depths, sizes=sizes,
                       levels=(10.0,), seed=5, radius=2)
    # 10 distinct maps of 12: a repeated map runs no pass
    assert len(maps) == 10 and len(rows) == 12
    assert [fields for _, fields in passes] == [
        min(per_pass, len(maps) - start)
        for start in range(0, len(maps), per_pass)]
    expected = [run_case("fix", clean, parse_filter_spec(
        f"mkf:depth={depth},max_cluster={size},radius=2"), noise, 255.0)
        for depth in depths for size in sizes]
    assert _without_ms(rows) == _without_ms(expected)


def test_mkf_specs_at_two_radii_run_separate_passes(monkeypatch):
    clean = small_image(1)
    noise = NoiseSpec(kind="integral", level=100.0, seed=3)
    specs = [parse_filter_spec(text) for text in (
        "mkf:depth=2", "mkf:depth=3", "bf:radius=2", "mkf:depth=2,radius=2",
        "mkf:depth=4,radius=2", "mkf:depth=4")]
    passes = record_passes(monkeypatch)
    rows = bench._run_cell("a", clean, noise, specs, 255.0)
    # the bf row's own pass; then a pass per run of one radius, at the
    # first mkf spec of another radius and at the end of the cell
    assert passes == [(2, 1), (5, 2), (2, 2), (5, 1)]
    expected = [run_case("a", clean, spec, noise, 255.0) for spec in specs]
    assert _without_ms(rows) == _without_ms(expected)


def test_ms_holds_filter_time_and_no_scoring(monkeypatch):
    slow = 0.2
    ssim, window_mean = bench.ssim, filters._window_mean

    def slowed_ssim(*args):
        time.sleep(slow)
        return ssim(*args)

    def slowed_pass(*args):
        time.sleep(slow)
        return window_mean(*args)
    monkeypatch.setattr(bench, "ssim", slowed_ssim)
    monkeypatch.setattr(filters, "_window_mean", slowed_pass)
    specs = [parse_filter_spec(text) for text in (
        "bf:radius=2", "mkf:depth=2,radius=2", "mkf:depth=3,radius=2",
        "mkf:depth=3,max_cluster=60,radius=2")]
    ms = [row.ms / 1e3 for row in bench._run_cell(
        "a", small_image(1), NoiseSpec(kind="integral", level=100.0, seed=3),
        specs, 255.0)]
    # the bf row's pass, and the one shared mkf pass on its first row;
    # each scored row's slowed SSIM shows in no row
    assert slow <= ms[0] < 2 * slow and slow <= ms[1] < 2 * slow
    assert max(ms[2:]) < slow


def test_a_cell_peak_memory_stays_within_its_budget():
    # 24 mkf specs at one level on a 128 px phantom, one field a pass: a
    # field kept past its pass, or across the next cut, raised the peak
    # to 35.9 image sizes; a cell filtered one spec at a time took 34.6
    clean = bsd_style(128, 128, seed=3)
    tracemalloc.start()
    try:
        sweep_depth("p", clean, depths=range(2, 8), sizes=(20, 60, 100, 140),
                    levels=(1000.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34 * clean.data.nbytes


def test_bench_integral_row_count():
    images = [("a", small_image(1)), ("b", small_image(2))]
    specs = [parse_filter_spec("bf:radius=2"), parse_filter_spec("cf:iters=2")]
    rows = bench_integral(images, (10.0, 50.0), specs, seed=1)
    assert len(rows) == 2 * 2 * 2
    # same (image, level) cell shares the noise seed across filters
    seeds = {(r.image, r.noise): set() for r in rows}
    for r in rows:
        seeds[(r.image, r.noise)].add(r.seed)
    assert all(len(s) == 1 for s in seeds.values())


def test_bench_complex_slices_layout():
    slices = [(f"s{i}", brain_slice(32, 32, slice_index=i)) for i in range(2)]
    specs = [parse_filter_spec("bf:radius=2"), parse_filter_spec("tv:iters=3")]
    rows = bench_complex_slices(slices, specs, seed=9, peak_sigma=200.0)
    assert len(rows) == 2 * 2 * 2  # slices x components x filters
    assert {r.component for r in rows} == {"real", "imag"}
    # real and imaginary parts use distinct noise realizations
    re_seed = {r.seed for r in rows if r.component == "real"}
    im_seed = {r.seed for r in rows if r.component == "imag"}
    assert re_seed.isdisjoint(im_seed)


def test_csv_round_trip_and_header(tmp_path):
    rows = sweep_depth("fix", small_image(), depths=(2,), sizes=(10,),
                       levels=(10.0,), seed=5, radius=2)
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == ",".join(CSV_HEADER)
    back = read_rows_csv(path)
    assert back[0].mae == rows[0].mae and back[0].ssim == rows[0].ssim
    assert back[0].params == rows[0].params


# ---------------------------------------------------------------------------
# SVG


def test_line_chart_is_pure_and_contains_series():
    series = {"bf": [(0.0, 1.0), (1.0, 2.0)], "mkf": [(0.0, 0.5), (1.0, 0.7)]}
    a = line_chart(series, "t", "x", "y")
    b = line_chart(series, "t", "x", "y")
    assert a == b
    assert a.count("<polyline") == 2
    assert "bf" in a and "mkf" in a and a.startswith("<svg")


@pytest.mark.parametrize("point", [(1.0, 1e17), (1e17, 1.0)])
def test_line_chart_single_point_beyond_two_to_the_53(point):
    # x + 1 rounds back to x there, which left the axis span empty
    svg = line_chart({"a": [point]}, "t", "x", "y")
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "inf" not in svg


# ---------------------------------------------------------------------------
# CLI


def write_test_pgm(path, seed=0):
    save_pgm(small_image(seed), path)


def test_cli_denoise_each_filter(tmp_path):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    for args in (["--filter", "bf", "--radius", "2"],
                 ["--filter", "mkf", "--depth", "2", "--max-cluster", "20",
                  "--hx", "3", "--radius", "2"],
                 ["--filter", "tv", "--iters", "5"],
                 ["--filter", "cf", "--iters", "2"]):
        out = tmp_path / f"out_{args[1]}.pgm"
        assert main(["denoise", str(src), str(out)] + args) == 0
        assert load_pgm(out).data.shape == (24, 24)


def test_cli_denoise_dumps(tmp_path):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    tree = tmp_path / "tree.txt"
    kernels = tmp_path / "k.csv"
    code = main(["denoise", str(src), str(tmp_path / "o.pgm"), "--filter",
                 "mkf", "--radius", "2", "--dump-tree", str(tree),
                 "--dump-kernels", str(kernels)])
    assert code == 0
    first = tree.read_text().splitlines()[0].split()
    assert len(first) == 7 and first[0] == "0" and first[1] == "0"
    header = kernels.read_text().splitlines()[0]
    assert header == "x,y,cluster_id,delta,psi"


def test_cli_denoise_mkfr_output_preserves_reals(tmp_path):
    src = tmp_path / "in.mkfr"
    save_f64_raster(Raster(np.random.default_rng(0).uniform(-3000, 3000,
                                                            (16, 16))), src)
    out = tmp_path / "out.mkfr"
    assert main(["denoise", str(src), str(out), "--filter", "cf",
                 "--iters", "1"]) == 0
    assert load_f64_raster(out).data.dtype == np.float64


def test_cli_cluster_exports(tmp_path):
    """Every dumped level map is the per-cluster oracle's, on a phantom
    whose last split is at level 2, so that levels 3 and 4 repeat its
    clusters under new ids."""
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    labels = tmp_path / "labels"
    tree = tmp_path / "tree.txt"
    assert main(["cluster", str(src), "--depth", "4", "--dump-tree",
                 str(tree), "--dump-labels", str(labels)]) == 0
    want = reference_tree(load_pgm(src).data, ClusterConfig(max_depth=4)).levels
    for copy in (3, 4):  # a copy shifts its level's ids by one constant
        assert np.unique(want[copy] - want[copy - 1]).size == 1
    exported = sorted(labels.glob("*.mkfr"))
    assert [p.name for p in exported] == [f"labels_{t:02d}.mkfr"
                                          for t in range(5)]
    for path, level in zip(exported, want):
        assert np.array_equal(load_f64_raster(path).data,
                              level.astype(np.float64))


def test_cli_noise_and_metrics(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    noisy = tmp_path / "noisy.mkfr"
    assert main(["noise", str(src), str(noisy), "--noise",
                 "integral:level=100,seed=4"]) == 0
    assert main(["metrics", str(src), str(noisy)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("mae=") and " ssim=" in line


def test_cli_sweep_depth(tmp_path):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    out_dir = tmp_path / "out"
    assert main(["sweep-depth", str(src), "--depths", "2,3", "--sizes",
                 "10,20", "--levels", "10,1000", "--radius", "2",
                 "--out-dir", str(out_dir)]) == 0
    rows = read_rows_csv(out_dir / "sweep_depth.csv")
    assert len(rows) == 8


def test_cli_bench_bsd(tmp_path):
    dataset = tmp_path / "data"
    dataset.mkdir()
    for i in range(2):
        write_test_pgm(dataset / f"img{i}.pgm", seed=i)
    out_dir = tmp_path / "out"
    assert main(["bench-bsd", str(dataset), "--levels", "10,500",
                 "--filters", "bf:radius=2", "cf:iters=2",
                 "--out-dir", str(out_dir)]) == 0
    rows = read_rows_csv(out_dir / "bsd.csv")
    assert len(rows) == 2 * 2 * 2
    for metric in ("mae", "ssim"):
        svg = (out_dir / f"bsd_{metric}.svg").read_text()
        assert svg.count("<polyline") == 2


@pytest.mark.parametrize("level", ["1e17", "9007199254740992"])
def test_cli_bench_bsd_single_level_beyond_two_to_the_53(tmp_path, level):
    dataset = tmp_path / "data"
    dataset.mkdir()
    write_test_pgm(dataset / "img0.pgm")
    out_dir = tmp_path / "out"
    assert main(["bench-bsd", str(dataset), "--levels", level,
                 "--filters", "bf:radius=2", "--out-dir", str(out_dir)]) == 0
    for metric in ("mae", "ssim"):
        assert (out_dir / f"bsd_{metric}.svg").read_text().count(
            "<polyline") == 1


def test_cli_bench_brainweb(tmp_path):
    volume = tmp_path / "vol"
    volume.mkdir()
    for i in range(2):
        save_f64_raster(brain_slice(24, 24, slice_index=i),
                        volume / f"slice_{i:03d}.mkfr")
    out_dir = tmp_path / "out"
    assert main(["bench-brainweb", str(volume), "--filters", "bf:radius=2",
                 "tv:iters=3", "--peak", "200", "--out-dir",
                 str(out_dir)]) == 0
    rows = read_rows_csv(out_dir / "brainweb.csv")
    assert len(rows) == 2 * 2 * 2
    svg = (out_dir / "brainweb_mae.svg").read_text()
    assert svg.count("<polyline") == 4  # 2 filters x 2 components


def test_cli_empty_dataset_dir_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench-bsd", str(empty), "--levels", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: bad-arguments:")
    assert main(["bench-brainweb", str(empty)]) == 2


def test_cli_exit_codes(tmp_path, capsys):
    # missing input file -> 1 with a machine-parsable reason
    assert main(["denoise", str(tmp_path / "absent.pgm"),
                 str(tmp_path / "o.pgm"), "--filter", "bf"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # corrupt file -> 1
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    assert main(["denoise", str(bad), str(tmp_path / "o.pgm"),
                 "--filter", "bf"]) == 1
    assert capsys.readouterr().err.startswith("error: format:")
    # unknown filter id -> argparse exits 2
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    with pytest.raises(SystemExit) as exc:
        main(["denoise", str(src), str(tmp_path / "o.pgm"),
              "--filter", "median"])
    assert exc.value.code == 2
    capsys.readouterr()  # drop argparse's usage text
    # bad noise spec -> 2
    assert main(["noise", str(src), str(tmp_path / "n.pgm"), "--noise",
                 "integral:oops=1"]) == 2
    assert capsys.readouterr().err.startswith("error: bad-arguments:")


@pytest.mark.parametrize("bad", [["--levels", "10,x"], ["--levels", "10:x:1"],
                                 ["--seed", "-1"], ["--levels", "-10"],
                                 ["--levels", "nan"], ["--levels", "inf"],
                                 ["--levels", "10.5"]])
def test_cli_sweep_depth_bad_levels_or_seed_exit_two(tmp_path, capsys, bad):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    assert main(["sweep-depth", str(src), "--depths", "2:2:1", "--sizes", "20",
                 *bad, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad-arguments:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--filter", "bf", "--dump-energy", "dump.csv"],
    ["--filter", "tv", "--dump-tree", "dump.csv"],
    ["--filter", "cf", "--dump-kernels", "dump.csv"],
    ["--filter", "bf", "--lam", "2"],
    ["--filter", "tv", "--depth", "3"],
    ["--filter", "mkf", "--hi", "5"],
], ids=lambda flags: "-".join(f.lstrip("-") for f in flags[1:]
                             if f != "dump.csv"))
def test_cli_denoise_rejects_flags_the_filter_does_not_take(tmp_path, capsys,
                                                            flags):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    flags = [str(tmp_path / f) if f == "dump.csv" else f for f in flags]
    assert main(["denoise", str(src), str(tmp_path / "out.pgm"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad-arguments:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


def write_test_volume(volume, slices=2):
    volume.mkdir()
    for i in range(slices):
        save_f64_raster(brain_slice(24, 24, slice_index=i),
                        volume / f"slice_{i:03d}.mkfr")


def assert_one_error_line(capsys, category="bad-arguments"):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}:") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [
    ["--spread", "abc"],
    ["--spread", "1,2"],
    ["--spread", "nan"],
    ["--spread", "0"],
], ids=lambda bad: "-".join(bad).lstrip("-"))
def test_cli_bench_brainweb_bad_numbers_exit_two(tmp_path, capsys, bad):
    write_test_volume(tmp_path / "vol")
    out_dir = tmp_path / "out"
    assert main(["bench-brainweb", str(tmp_path / "vol"), "--filters",
                 "cf:iters=1", *bad, "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys)
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["sweep-depth", "bench-bsd",
                                     "bench-brainweb"])
def test_cli_batch_commands_reject_the_removed_threads_flag(tmp_path, capsys,
                                                           command):
    # batch cells run one after another: --threads is an unknown flag
    write_test_pgm(tmp_path / "in.pgm")
    write_test_volume(tmp_path / "vol")
    source = {"sweep-depth": tmp_path / "in.pgm", "bench-bsd": tmp_path,
              "bench-brainweb": tmp_path / "vol"}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, str(source), "--threads", "2",
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    # the noise field always peaks on the centre pixel
    ["noise", "{pgm}", "{out}", "--noise", "field:cx=1,cy=1"],
    ["noise", "{pgm}", "{out}", "--noise", "field:peak=300,cx=5"],
    # the background phase always follows the one built-in schedule
    ["bench-brainweb", "{vol}", "--phase-coeffs", "0,0,0,0,0,0"],
    ["bench-brainweb", "{vol}", "--phase-drift", "0,0,0"],
    ["bench-brainweb", "{vol}", "--phase-drift", "a,b,c"],
    ["bench-brainweb", "{vol}", "--phase-coeffs", "1,2,3,4,5,nan"],
    ["bench-brainweb", "{vol}", "--phase-coeffs", ",".join(["1e308"] * 6)],
    # every tree is 8-connected, with bins of width 1 and EM tolerance 1e-4
    ["denoise", "{pgm}", "{out}", "--filter", "mkf", "--neigh", "4"],
    ["denoise", "{pgm}", "{out}", "--filter", "mkf", "--bin-width", "2"],
    ["denoise", "{pgm}", "{out}", "--filter", "mkf", "--tol", "0.01"],
    ["cluster", "{pgm}", "--neigh", "4"],
    ["cluster", "{pgm}", "--bin-width", "2"],
    ["cluster", "{pgm}", "--tol", "0.01"],
    ["bench-bsd", "{dir}", "--filters", "mkf:neigh=4"],
    ["bench-bsd", "{dir}", "--filters", "mkf:bin_width=2"],
    ["bench-brainweb", "{vol}", "--filters", "mkf:tol=0.01"],
], ids=lambda command: "-".join(a.lstrip("-") for a in command
                                if not a.startswith("{")))
def test_cli_rejects_the_removed_inputs(tmp_path, capsys, command):
    write_test_pgm(tmp_path / "in.pgm")
    write_test_volume(tmp_path / "vol")
    paths = {"{pgm}": tmp_path / "in.pgm", "{vol}": tmp_path / "vol",
             "{dir}": tmp_path, "{out}": tmp_path / "out.mkfr"}
    argv = [str(paths.get(a, a)) for a in command]
    try:  # argparse exits on an unknown flag itself
        code = main([*argv, "--out-dir", str(tmp_path / "out")]
                    if command[0].startswith("bench") else argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert_one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm", "vol"]


@pytest.mark.parametrize("command", [
    ["bench-brainweb", "{vol}", "--filters", "cf:iters=1", "--peak", "nan"],
    ["bench-brainweb", "{vol}", "--filters", "cf:iters=1", "--range", "nan"],
    ["noise", "{pgm}", "{out}", "--noise", "integral:level=nan"],
    ["denoise", "{pgm}", "{out}", "--filter", "bf", "--hx", "nan"],
    ["denoise", "{pgm}", "{out}", "--filter", "bf", "--hi", "inf"],
    ["denoise", "{pgm}", "{out}", "--filter", "bf", "--hx", "1e-300"],
    ["denoise", "{pgm}", "{out}", "--filter", "mkf", "--hx", "1e-300"],
    ["denoise", "{pgm}", "{out}", "--filter", "bf", "--hi", "1e-200"],
    ["denoise", "{pgm}", "{out}", "--filter", "tv", "--lam", "nan"],
    ["metrics", "{pgm}", "{pgm}", "--range", "nan"],
    ["sweep-depth", "{pgm}", "--depths", "2", "--sizes", "20", "--hx", "nan"],
    # a spread whose square underflows; a range whose SSIM constants overflow
    ["noise", "{pgm}", "{out}", "--noise", "field:spread=1e-300"],
    ["bench-brainweb", "{vol}", "--filters", "cf:iters=1", "--spread",
     "1e-300"],
    ["metrics", "{pgm}", "{pgm}", "--range", "1e200"],
    # noise beyond the float64 range; SSIM products beyond it
    ["noise", "{pgm}", "{out}", "--noise", "field:peak=1e308,seed=1"],
    ["bench-brainweb", "{vol}", "--filters", "bf:radius=2", "cf:iters=1",
     "--peak", "1e308"],
    ["bench-brainweb", "{vol}", "--filters", "bf:radius=2", "cf:iters=1",
     "--peak", "1e200"],
    ["bench-brainweb", "{vol}", "--filters", "bf:radius=2", "cf:iters=1",
     "--peak", "1e150"],
    ["bench-brainweb", "{vol}", "--filters", "tv:iters=3", "--peak", "1e300"],
    # a range width whose 2 h^2 overflows; TV and CF arithmetic beyond the
    # float64 range on noise that stays within it
    ["bench-brainweb", "{vol}", "--filters", "bf:hi=1e200,radius=2",
     "--peak", "1e200"],
    ["bench-brainweb", "{vol}", "--filters", "cf:iters=1", "--peak", "6e307"],
    ["bench-brainweb", "{vol}", "--filters", "tv:iters=2", "--peak", "7e307"],
    # a repeated spec key, which would silently take its last value
    ["noise", "{pgm}", "{out}", "--noise",
     "integral:level=4,level=9,seed=1,seed=2"],
    ["noise", "{pgm}", "{out}", "--noise", "field:peak=300,peak=300"],
    ["bench-bsd", "{dir}", "--levels", "10", "--filters", "bf:hi=5,hi=7"],
    ["bench-brainweb", "{vol}", "--filters", "tv:iters=2,iters=3"],
], ids=lambda command: "-".join(a.lstrip("-") for a in command
                                if not a.startswith("{")))
# a RuntimeWarning would print a second line on stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_rejects_non_finite_and_non_positive_parameters(tmp_path, capsys,
                                                            command):
    write_test_pgm(tmp_path / "in.pgm")
    write_test_volume(tmp_path / "vol")
    paths = {"{pgm}": tmp_path / "in.pgm", "{vol}": tmp_path / "vol",
             "{dir}": tmp_path, "{out}": tmp_path / "out.pgm"}
    argv = [str(paths.get(a, a)) for a in command]
    if command[0] not in ("denoise", "noise", "metrics", "cluster"):
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert_one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm", "vol"]


@pytest.mark.parametrize("command", [
    ["denoise", "{pgm}", "{out}", "--filter", "bf", "--radius", "100000000"],
    ["sweep-depth", "{pgm}", "--depths", "2", "--sizes", "20", "--radius",
     "100000000", "--out-dir", "{dir}"],
], ids=lambda command: command[0])
def test_cli_window_beyond_memory_is_one_error_line(tmp_path, capsys,
                                                    command):
    # the padded copy of a 24 px image at this radius needs about 284 PiB
    write_test_pgm(tmp_path / "in.pgm")
    paths = {"{pgm}": tmp_path / "in.pgm", "{out}": tmp_path / "out.pgm",
             "{dir}": tmp_path / "out"}
    assert main([str(paths.get(a, a)) for a in command]) == 1
    assert_one_error_line(capsys, "memory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


@pytest.mark.parametrize("command", [
    ["denoise", "{pgm}", "{out}", "--filter", "mkf", "--depth", "{depth}"],
    ["cluster", "{pgm}", "--depth", "{depth}"],
    ["sweep-depth", "{pgm}", "--depths", "{depth}", "--sizes", "20",
     "--levels", "10", "--out-dir", "{dir}"],
    ["bench-bsd", "{dir}", "--filters", "mkf:depth={depth}", "--levels", "10",
     "--out-dir", "{dir}"],
], ids=lambda command: command[0])
def test_cli_depth_beyond_memory_fails_at_once(tmp_path, src_env, command):
    # the level maps of a 24 px image at this depth are larger than numpy
    # can address; building them level by level would run for ever
    write_test_pgm(tmp_path / "in.pgm")
    paths = {"{pgm}": str(tmp_path / "in.pgm"),
             "{out}": str(tmp_path / "out.pgm"), "{dir}": str(tmp_path)}
    argv = [paths.get(a, a).replace("{depth}", "99999999999999999999")
            for a in command]
    proc = subprocess.run([sys.executable, "-m", "mkfilter.cli", *argv],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: memory: the level maps")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["bench-bsd", "bench-brainweb"])
def test_cli_bench_rejects_filter_specs_before_reading_inputs(tmp_path, capsys,
                                                            command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "bad.pgm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    (data / "bad.mkfr").write_bytes(b"MKFR\x01")
    assert main([command, str(data), "--filters", "bf:hx=nan",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_bench_brainweb_rejects_range_before_reading_inputs(tmp_path,
                                                               capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "bad.mkfr").write_bytes(b"MKFR\x01")
    assert main(["bench-brainweb", str(data), "--filters", "cf:iters=1",
                 "--range", "1e200", "--out-dir", str(tmp_path / "out")]) == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", [
    (["noise", "missing.pgm", "o.mkfr", "--noise", "bogus:level=1"], "bogus"),
    (["metrics", "missing.pgm", "missing2.pgm", "--range", "nan"], "range"),
    (["sweep-depth", "missing.pgm", "--hx", "nan"], "h_x"),
    (["sweep-depth", "missing.pgm", "--depths", "1"], "max_depth"),
    (["sweep-depth", "missing.pgm", "--sizes", "5"], "max_cluster"),
    (["sweep-depth", "missing.pgm", "--levels", "0"], "level"),
    (["sweep-depth", "missing.pgm", "--levels", "10,0"], "level"),
    (["sweep-depth", "missing.pgm", "--seed", "-1"], "seed"),
    (["bench-bsd", "missing_dir", "--levels", "0"], "level"),
    (["bench-bsd", "missing_dir", "--seed", "-1"], "seed"),
    (["bench-brainweb", "missing_dir", "--peak", "0"], "peak"),
    (["bench-brainweb", "missing_dir", "--peak", "nan"], "peak"),
    (["bench-brainweb", "missing_dir", "--peak", "inf"], "peak"),
    (["bench-brainweb", "missing_dir", "--seed", "-1"], "seed"),
], ids=lambda value: "-".join(a.lstrip("-") for a in value
                              if not a.startswith("missing") and "." not in a)
                     if isinstance(value, list) else value)
def test_cli_checks_arguments_before_reading_inputs(tmp_path, capsys,
                                                    command, name):
    # the inputs do not exist: reading one first would be an io error, and
    # a batch command would name the missing dataset
    argv = [str(tmp_path / a) if a.startswith("missing") or "." in a else a
            for a in command]
    if command[0] in ("sweep-depth", "bench-bsd", "bench-brainweb"):
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad-arguments:") and err.count("\n") == 1
    assert name in err.partition(":")[2].partition(":")[2]
    assert not any(tmp_path.iterdir())



def test_cli_metrics_non_finite_mkfr_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "nan.mkfr"
    path.write_bytes(b"MKFR" + (1).to_bytes(4, "little") * 2
                     + np.array([np.nan]).astype("<f8").tobytes())
    assert main(["metrics", str(path), str(path)]) == 1
    assert_one_error_line(capsys, "format")


def test_benchmark_tracer_sees_every_filter(tmp_path):
    """The benchmark's tracer wraps filters by module attribute; every
    filter the CLI runs must still pass through a wrapped name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer_module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracer_module.__dict__)
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    volume = tmp_path / "vol"
    volume.mkdir()
    save_f64_raster(brain_slice(24, 24, slice_index=0),
                    volume / "slice_000.mkfr")
    runs = {"bf": (["--radius", "2"], {"filters.window"}),
            "mkf": (["--radius", "2"], {"clustering.tree",
                                        "filters.kernel_field",
                                        "filters.window"}),
            "tv": (["--iters", "2"], {"baselines.tv"}),
            "cf": (["--iters", "2"], {"baselines.cf"})}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        seen = {}
        for name, (flags, _) in runs.items():
            del tracer.spans[:]
            assert main(["denoise", str(src), str(tmp_path / f"{name}.pgm"),
                         "--filter", name, *flags]) == 0
            seen[name] = {s["name"] for s in tracer.spans} - {
                "raster.io", tracer_module.PROBE}
        del tracer.spans[:]
        assert main(["bench-brainweb", str(volume), "--filters", "tv:iters=2",
                     "cf:iters=1", "--out-dir", str(tmp_path / "out")]) == 0
        brainweb = {s["name"] for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert seen == {name: spans for name, (_, spans) in runs.items()}
    assert {"baselines.tv", "baselines.cf"} <= brainweb


def test_console_script_wiring(tmp_path, src_env):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    proc = subprocess.run(
        [sys.executable, "-m", "mkfilter.cli", "metrics", str(src), str(src)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("mae=0.0")
