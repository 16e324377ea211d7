"""Benchmark harness rows, CSV/SVG emission, and the CLI surface."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from mkfilter import Raster, load_f64_raster, load_pgm, save_f64_raster, save_pgm
from mkfilter.bench import (CSV_HEADER, apply_filter,
                            bench_complex_slices, bench_integral, derive_seed,
                            parse_filter_spec, read_rows_csv, replay_row,
                            run_case, sweep_depth, write_rows_csv)
from mkfilter.charts import line_chart
from mkfilter.cli import main
from mkfilter.noise import NoiseSpec, PhaseSpec
from mkfilter.phantoms import brain_slice, piecewise_mosaic


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
    for bad in ("median", "bf:sigma=3", "mkf:depth=abc"):
        with pytest.raises(ConfigError):
            parse_filter_spec(bad)


def test_apply_filter_dispatches_each_id():
    rng = np.random.default_rng(0)
    img = Raster(rng.uniform(0, 255, (16, 16)))
    for text in ("bf:radius=2", "mkf:radius=2,max_cluster=30", "tv:iters=5",
                 "cf:iters=2"):
        out = apply_filter(img, parse_filter_spec(text))
        assert out.data.shape == img.data.shape


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


def test_run_case_row_fields():
    noise = NoiseSpec(kind="integral", level=100.0, seed=7)
    row = run_case("img0", small_image(), parse_filter_spec("bf:radius=2"),
                   noise, 255.0)
    assert row.image == "img0" and row.filter == "bf"
    assert row.noise == "integral:level=100" and row.seed == 7
    assert row.component == "gray"
    assert row.mae > 0 and -1 <= row.ssim <= 1 and row.ms > 0


def test_replay_row_reproduces_metrics():
    clean = small_image(3)
    noise = NoiseSpec(kind="integral", level=200.0, seed=11)
    row = run_case("img3", clean, parse_filter_spec("mkf:radius=2"), noise,
                   255.0)
    mae_again, ssim_again = replay_row(clean, row, 255.0)
    assert abs(mae_again - row.mae) < 1e-12
    assert abs(ssim_again - row.ssim) < 1e-12


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


def test_sweep_depth_default_grid_has_240_rows():
    # 6 depths x 20 sizes x 2 levels
    rows = sweep_depth("fix", Raster(piecewise_mosaic(16, 16, regions=5,
                                                      seed=4).data),
                       seed=1, radius=2)
    assert len(rows) == 240
    depths = {row.params for row in rows}
    assert len(depths) == 6 * 20


def _without_ms(rows):
    return [dataclasses.replace(row, ms=0.0) for row in rows]


def test_sweep_depth_rows_match_per_case_path_and_threads():
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
    threaded = sweep_depth("fix", clean, depths=depths, sizes=sizes,
                           levels=levels, seed=5, radius=2, threads=2)
    assert _without_ms(threaded) == _without_ms(rows)


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
    rows = bench_complex_slices(slices, specs,
                                phase_for_slice=lambda i: PhaseSpec(i),
                                seed=9, peak_sigma=200.0)
    assert len(rows) == 2 * 2 * 2  # slices x components x filters
    assert {r.component for r in rows} == {"real", "imag"}
    # real and imaginary parts use distinct noise realizations
    re_seed = {r.seed for r in rows if r.component == "real"}
    im_seed = {r.seed for r in rows if r.component == "imag"}
    assert re_seed.isdisjoint(im_seed)


def test_threaded_rows_match_sequential():
    images = [("a", small_image(1))]
    specs = [parse_filter_spec("bf:radius=2")]
    seq = bench_integral(images, (10.0, 20.0, 30.0), specs, seed=2, threads=1)
    par = bench_integral(images, (10.0, 20.0, 30.0), specs, seed=2, threads=4)
    for r1, r2 in zip(seq, par):
        assert (r1.image, r1.noise, r1.seed) == (r2.image, r2.noise, r2.seed)
        assert r1.mae == r2.mae and r1.ssim == r2.ssim


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


# ---------------------------------------------------------------------------
# CLI


def write_test_pgm(path, seed=0, size=24):
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
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    labels = tmp_path / "labels"
    tree = tmp_path / "tree.txt"
    assert main(["cluster", str(src), "--depth", "2", "--dump-tree",
                 str(tree), "--dump-labels", str(labels)]) == 0
    exported = sorted(labels.glob("*.mkfr"))
    assert len(exported) == 3  # levels 0..2
    level0 = load_f64_raster(exported[0])
    assert np.unique(level0.data).size == 1


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


def test_cli_bench_brainweb_custom_phase_schedule(tmp_path):
    volume = tmp_path / "vol"
    volume.mkdir()
    save_f64_raster(brain_slice(24, 24, slice_index=0),
                    volume / "slice_000.mkfr")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["bench-brainweb", str(volume), "--filters", "cf:iters=1",
            "--peak", "100"]
    assert main(base + ["--out-dir", str(out_a)]) == 0
    assert main(base + ["--phase-coeffs", "0,0,0,0,0,0", "--phase-drift",
                        "0,0,0", "--out-dir", str(out_b)]) == 0
    rows_a = read_rows_csv(out_a / "brainweb.csv")
    rows_b = read_rows_csv(out_b / "brainweb.csv")
    # flat phase puts everything in the real part, so the scores move
    assert rows_a[0].mae != rows_b[0].mae
    # malformed schedule -> bad arguments
    assert main(base + ["--phase-coeffs", "1,2", "--out-dir",
                        str(tmp_path / "c")]) == 2


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


def test_console_script_wiring(tmp_path):
    src = tmp_path / "in.pgm"
    write_test_pgm(src)
    proc = subprocess.run(
        [sys.executable, "-m", "mkfilter.cli", "metrics", str(src), str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("mae=0.0")
