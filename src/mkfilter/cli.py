"""Command-line surface.

Subcommands: denoise, cluster, noise, metrics, sweep-depth, bench-bsd,
bench-brainweb. Exit codes: 0 success, 1 I/O or file-format failure,
2 bad arguments; failures print one machine-parsable `error: ...` line on
stderr. Shared flags --seed / --threads / --out-dir apply to the batch
subcommands.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bench
from .baselines import write_energy_csv
from .clustering import ClusterConfig, build_cluster_tree, write_tree_dump
from .errors import ConfigError, FormatError
from .filters import mkf_denoise, write_kernel_csv
from .metrics import mae, ssim
from .noise import PhaseSpec, parse_noise_spec, apply_noise
from .raster import Raster, load_f64_raster, load_pgm, save_f64_raster, save_pgm
from .charts import line_chart

_FILTER_CHOICES = ("bf", "mkf", "tv", "cf")
_BSD_DEFAULT_FILTERS = ("bf:hi=57", "bf:hi=5", "mkf:depth=2", "mkf:depth=7")
_BRAINWEB_DEFAULT_FILTERS = ("bf:hi=57,radius=2", "mkf:depth=2,radius=2",
                             "tv", "cf")


def load_raster_any(path) -> Raster:
    """Load a PGM or MKFR file, sniffing the magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:4] == b"MKFR":
        return load_f64_raster(path)
    return load_pgm(path)


def save_raster_any(r: Raster, path) -> None:
    """PGM for .pgm outputs (clamped 8-bit), MKFR otherwise (lossless)."""
    if str(path).lower().endswith(".pgm"):
        save_pgm(r, path)
    else:
        save_f64_raster(r, path)


def _parse_levels(text: str) -> list[float]:
    """Parse `lo:hi:step` (inclusive) or a comma list of levels.

    Entries must be non-negative integers (written as integers or as
    floats): levels, depths and sizes all feed integer seeds or counts, and
    a fractional level would share its seed with its integer part.
    """
    parts = text.split(":") if ":" in text else text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected numbers, got {text!r}") from None
    if not all(math.isfinite(v) and v >= 0 and v == int(v) for v in values):
        raise ConfigError(f"expected non-negative integers, got {text!r}")
    if ":" in text:
        if len(values) != 3:
            raise ConfigError(f"levels must be lo:hi:step, got {text!r}")
        lo, hi, step = values
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad level range {text!r}")
        return list(np.arange(lo, hi + step / 2, step))
    return values


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all derived noise realizations")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for independent cases")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for CSV/SVG outputs")


def _cluster_config(args) -> ClusterConfig:
    return ClusterConfig(max_depth=args.depth, max_cluster=args.max_cluster,
                         min_cluster=args.min_cluster, neighborhood=args.neigh,
                         bin_width=args.bin_width, em_tol=args.tol)


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--max-cluster", type=int, default=20)
    parser.add_argument("--min-cluster", type=int, default=9)
    parser.add_argument("--neigh", type=int, choices=(4, 8), default=8)
    parser.add_argument("--bin-width", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=1e-4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkfilter",
        description="Multi-kernel filtering, baselines, and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="filter one image")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--filter", required=True, choices=_FILTER_CHOICES)
    p.add_argument("--hx", type=float, default=3.0)
    p.add_argument("--hi", type=float, default=57.0)
    p.add_argument("--radius", type=int, default=5)
    _add_cluster_flags(p)
    p.add_argument("--lam", type=float, default=1.25)
    p.add_argument("--iters", type=int, default=None,
                   help="iterations for tv (default 100) or cf (default 10)")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--dump-tree", type=Path, default=None)
    p.add_argument("--dump-kernels", type=Path, default=None)
    p.add_argument("--dump-energy", type=Path, default=None,
                   help="tv only: per-iteration energy CSV")

    p = sub.add_parser("cluster", help="build and export the context tree")
    p.add_argument("input", type=Path)
    _add_cluster_flags(p)
    p.add_argument("--dump-tree", type=Path, default=None)
    p.add_argument("--dump-labels", type=Path, default=None,
                   help="directory for per-level label maps (MKFR)")

    p = sub.add_parser("noise", help="corrupt an image with synthetic noise")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--noise", required=True,
                   help="e.g. integral:level=1000,seed=42 or "
                        "field:peak=500,spread=auto,seed=42")

    p = sub.add_parser("metrics", help="score a restored image")
    p.add_argument("reference", type=Path)
    p.add_argument("candidate", type=Path)
    p.add_argument("--range", type=float, default=255.0, dest="dynamic_range")

    p = sub.add_parser("sweep-depth",
                       help="tree-depth / cluster-size study on one image")
    p.add_argument("input", type=Path)
    p.add_argument("--depths", default="2:7:1")
    p.add_argument("--sizes", default="10:200:10")
    p.add_argument("--levels", default="10,1000")
    p.add_argument("--hx", type=float, default=3.0)
    p.add_argument("--radius", type=int, default=5)
    _shared_flags(p)

    p = sub.add_parser("bench-bsd",
                       help="integral-noise benchmark over a PGM directory")
    p.add_argument("dataset", type=Path)
    p.add_argument("--levels", default="10:1000:10")
    p.add_argument("--filters", nargs="+", default=list(_BSD_DEFAULT_FILTERS))
    _shared_flags(p)

    p = sub.add_parser("bench-brainweb",
                       help="spatially-varying-noise benchmark over an MKFR "
                            "volume directory")
    p.add_argument("volume", type=Path)
    p.add_argument("--filters", nargs="+",
                   default=list(_BRAINWEB_DEFAULT_FILTERS))
    p.add_argument("--peak", type=float, default=500.0)
    p.add_argument("--spread", default="auto")
    p.add_argument("--range", type=float, default=6000.0, dest="dynamic_range")
    p.add_argument("--phase-coeffs", default=None,
                   help="six comma-separated quadratic phase coefficients")
    p.add_argument("--phase-drift", default=None,
                   help="three comma-separated per-slice drift coefficients")
    _shared_flags(p)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_denoise(args) -> int:
    image = load_raster_any(args.input)
    if args.filter == "bf":
        spec = bench.FilterSpec("bf", {"hi": args.hi, "hx": args.hx,
                                       "radius": args.radius})
        out = bench.apply_filter(image, spec)
    elif args.filter == "mkf":
        result = mkf_denoise(image, _cluster_config(args), h_x=args.hx,
                             radius=args.radius)
        out = result.raster
        if args.dump_tree:
            write_tree_dump(result.tree, args.dump_tree)
        if args.dump_kernels:
            write_kernel_csv(result.field, args.dump_kernels)
    elif args.filter == "tv":
        from .baselines import TvParams, tv_denoise_trace
        iters = 100 if args.iters is None else args.iters
        out, trace = tv_denoise_trace(
            image, TvParams(lam=args.lam, iters=iters, step=args.step))
        if args.dump_energy:
            write_energy_csv(trace, args.dump_energy)
    else:
        from .baselines import CfParams, cf_gaussian_denoise
        iters = 10 if args.iters is None else args.iters
        out = cf_gaussian_denoise(image, CfParams(iters=iters))
    if args.filter != "mkf" and (args.dump_tree or args.dump_kernels):
        raise ConfigError("--dump-tree/--dump-kernels apply to --filter mkf")
    save_raster_any(out, args.output)
    return 0


def _cmd_cluster(args) -> int:
    image = load_raster_any(args.input)
    tree = build_cluster_tree(image, _cluster_config(args))
    if args.dump_tree:
        write_tree_dump(tree, args.dump_tree)
    if args.dump_labels:
        args.dump_labels.mkdir(parents=True, exist_ok=True)
        for level, label_map in enumerate(tree.levels):
            out = Raster(label_map.astype(np.float64),
                         range_hint=(0.0, float(label_map.max())))
            save_f64_raster(out, args.dump_labels / f"labels_{level:02d}.mkfr")
    print(f"nodes={len(tree.nodes)} depth={tree.depth} "
          f"leaves={len(tree.leaves())}")
    return 0


def _cmd_noise(args) -> int:
    image = load_raster_any(args.input)
    spec = parse_noise_spec(args.noise)
    save_raster_any(apply_noise(image, spec), args.output)
    return 0


def _cmd_metrics(args) -> int:
    ref = load_raster_any(args.reference)
    cand = load_raster_any(args.candidate)
    print(f"mae={mae(ref, cand)!r} "
          f"ssim={ssim(ref, cand, args.dynamic_range)!r}")
    return 0


def _int_range(text: str) -> list[int]:
    return [int(v) for v in _parse_levels(text)]


def _cmd_sweep_depth(args) -> int:
    image = load_raster_any(args.input)
    rows = bench.sweep_depth(
        args.input.stem, image,
        depths=_int_range(args.depths),
        sizes=_int_range(args.sizes),
        levels=_parse_levels(args.levels),
        seed=args.seed, h_x=args.hx, radius=args.radius,
        threads=args.threads)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_rows_csv(rows, args.out_dir / "sweep_depth.csv")
    return 0


def _label_of(row: bench.ResultRow) -> str:
    return bench.parse_filter_spec(f"{row.filter}:{row.params}").label()


def _mean_series(rows, x_of, value_of, key_of):
    """Group rows, average values sharing (key, x), and sort by x."""
    acc: dict[str, dict[float, list[float]]] = {}
    for row in rows:
        acc.setdefault(key_of(row), {}).setdefault(x_of(row), []).append(
            value_of(row))
    return {
        key: sorted((x, sum(vals) / len(vals)) for x, vals in by_x.items())
        for key, by_x in acc.items()
    }


def _noise_level(row: bench.ResultRow) -> float:
    spec = parse_noise_spec(f"{row.noise},seed=0")
    return spec.level


def _cmd_bench_bsd(args) -> int:
    paths = sorted(args.dataset.glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm images found in {args.dataset}")
    images = [(p.stem, load_pgm(p)) for p in paths]
    specs = [bench.parse_filter_spec(s) for s in args.filters]
    rows = bench.bench_integral(images, _parse_levels(args.levels), specs,
                                seed=args.seed, threads=args.threads)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_rows_csv(rows, args.out_dir / "bsd.csv")
    for metric, value_of in (("mae", lambda r: r.mae), ("ssim", lambda r: r.ssim)):
        series = _mean_series(rows, _noise_level, value_of, _label_of)
        svg = line_chart(series, f"mean {metric.upper()} vs noise level",
                         "noise level", metric.upper())
        (args.out_dir / f"bsd_{metric}.svg").write_text(svg, encoding="utf-8")
    return 0


def _parse_coeffs(text: str, count: int, what: str) -> tuple:
    values = tuple(float(v) for v in text.split(","))
    if len(values) != count:
        raise ConfigError(f"{what} needs {count} comma-separated values, "
                          f"got {text!r}")
    return values


def _cmd_bench_brainweb(args) -> int:
    paths = sorted(args.volume.glob("*.mkfr"))
    if not paths:
        raise ConfigError(f"no .mkfr slices found in {args.volume}")
    slices = [(p.stem, load_f64_raster(p)) for p in paths]
    specs = [bench.parse_filter_spec(s) for s in args.filters]
    spread = None if args.spread == "auto" else float(args.spread)
    phase_extra = {}
    if args.phase_coeffs is not None:
        phase_extra["coefficients"] = _parse_coeffs(args.phase_coeffs, 6,
                                                    "--phase-coeffs")
    if args.phase_drift is not None:
        phase_extra["drift"] = _parse_coeffs(args.phase_drift, 3,
                                             "--phase-drift")
    rows = bench.bench_complex_slices(
        slices, specs,
        phase_for_slice=lambda i: PhaseSpec(slice_index=i, **phase_extra),
        seed=args.seed, peak_sigma=args.peak, spread=spread,
        dynamic_range=args.dynamic_range, threads=args.threads)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_rows_csv(rows, args.out_dir / "brainweb.csv")
    index_of = {name: i for i, (name, _) in enumerate(slices)}
    for metric, value_of in (("mae", lambda r: r.mae), ("ssim", lambda r: r.ssim)):
        series = _mean_series(
            rows, lambda r: float(index_of[r.image]), value_of,
            lambda r: f"{_label_of(r)}/{r.component}")
        svg = line_chart(series, f"{metric.upper()} per slice",
                         "slice", metric.upper())
        (args.out_dir / f"brainweb_{metric}.svg").write_text(
            svg, encoding="utf-8")
    return 0


_COMMANDS = {
    "denoise": _cmd_denoise,
    "cluster": _cmd_cluster,
    "noise": _cmd_noise,
    "metrics": _cmd_metrics,
    "sweep-depth": _cmd_sweep_depth,
    "bench-bsd": _cmd_bench_bsd,
    "bench-brainweb": _cmd_bench_brainweb,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: bad-arguments: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
