"""Command-line surface.

Subcommands: denoise, cluster, noise, metrics, sweep-depth, bench-bsd,
bench-brainweb. Exit codes: 0 success, 1 I/O or file-format failure,
2 bad arguments; failures print one machine-parsable `error: ...` line on
stderr. Shared flags --seed / --out-dir apply to the batch subcommands,
which run their cells one after another.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bench
from .clustering import ClusterConfig, build_cluster_tree, write_tree_dump
from .errors import ConfigError, FormatError, require_positive
from .filters import BfParams
from .metrics import mae, ssim, ssim_constants
from .noise import (DEFAULT_PEAK_SIGMA, NoiseSpec, apply_noise,
                    format_number, parse_noise_spec)
from .raster import Raster, load_f64_raster, load_pgm, save_f64_raster, save_pgm
from .charts import line_chart

_BSD_DEFAULT_FILTERS = ("bf:hi=57", "bf:hi=5", "mkf:depth=2", "mkf:depth=7")
_BRAINWEB_DEFAULT_FILTERS = ("bf:hi=57,radius=2", "mkf:depth=2,radius=2",
                             "tv", "cf")
# the filter flags: registry parameters first, then the dumps
_PARAM_FLAGS = tuple(dict.fromkeys(
    key for entry in bench.FILTERS.values() for key in entry.keys))
_DUMP_FLAGS = tuple(name for entry in bench.FILTERS.values()
                    for name in entry.dumps)
_TREE_FLAGS = tuple(key for key, (cls, _) in bench.FILTERS["mkf"].keys.items()
                    if cls is ClusterConfig)


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
        if (hi - lo) / step >= 100_000:  # the list is allocated whole
            raise ConfigError(f"level range {text!r} has over 100000 entries")
        return list(np.arange(lo, hi + step / 2, step))
    return values


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all derived noise realizations")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for CSV/SVG outputs")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_filter_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag per registry parameter (typed like its default) or dump
    (a path). A flag left out is absent from the parsed namespace."""
    for name in names:
        defaults = {fid: entry.defaults()[name]
                    for fid, entry in bench.FILTERS.items() if name in entry.keys}
        text = ", ".join(f"{format_number(value)} ({fid})"
                         for fid, value in defaults.items())
        parser.add_argument(
            _flag(name), default=argparse.SUPPRESS,
            type=type(next(iter(defaults.values()))) if defaults else Path,
            help=f"default {text}" if text else None)


def _given(args, names) -> dict:
    """The flags among `names` that the command line set."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as the one `error: bad-arguments:`
    line every failure prints, in place of argparse's usage text."""

    def error(self, message):
        self.exit(2, f"error: bad-arguments: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        if [] in vars(parsed).values():  # argparse's reading of `--flag=--`
            self.error("a flag was given '--' for its value")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mkfilter",
        description="Multi-kernel filtering, baselines, and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="filter one image")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--filter", required=True, choices=tuple(bench.FILTERS))
    _add_filter_flags(p, _PARAM_FLAGS + _DUMP_FLAGS)

    p = sub.add_parser("cluster", help="build and export the context tree")
    p.add_argument("input", type=Path)
    _add_filter_flags(p, _TREE_FLAGS)
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
    for name in _GRID:
        p.add_argument(_flag(name), default=argparse.SUPPRESS)
    _add_filter_flags(p, ("hx", "radius"))
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
    p.add_argument("--peak", type=float, default=DEFAULT_PEAK_SIGMA)
    p.add_argument("--spread", default="auto")
    p.add_argument("--range", type=float, default=bench.BRAINWEB_RANGE,
                   dest="dynamic_range")
    _shared_flags(p)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_denoise(args) -> int:
    entry = bench.FILTERS[args.filter]
    given = _given(args, _PARAM_FLAGS + _DUMP_FLAGS)
    stray = [_flag(name) for name in given
             if name not in entry.keys and name not in entry.dumps]
    if stray:
        raise ConfigError(f"--filter {args.filter} does not take "
                          f"{', '.join(stray)}")
    spec = bench.filter_spec(args.filter, {key: given[key] for key in entry.keys
                                           if key in given})
    params = spec.build()  # the dataclasses check their values here
    result = entry.run(load_raster_any(args.input), params)
    save_raster_any(result[0], args.output)
    for name, write in entry.dumps.items():
        if name in given:
            write(result, given[name])
    return 0


def _cmd_cluster(args) -> int:
    cfg = bench.filter_spec("mkf", _given(args, _TREE_FLAGS)).build()[ClusterConfig]
    tree = build_cluster_tree(load_raster_any(args.input), cfg)
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
    spec = parse_noise_spec(args.noise)
    image = load_raster_any(args.input)
    save_raster_any(apply_noise(image, spec), args.output)
    return 0


def _cmd_metrics(args) -> int:
    ssim_constants(args.dynamic_range)  # a bad --range fails before any read
    ref = load_raster_any(args.reference)
    cand = load_raster_any(args.candidate)
    print(f"mae={mae(ref, cand)!r} "
          f"ssim={ssim(ref, cand, args.dynamic_range)!r}")
    return 0


# sweep-depth's grid flags and their parsers, which check each depth and
# size as a tree config takes it, and each level as a noise spec does,
# before any read; a flag left out takes bench.sweep_depth's default
_GRID = {"depths": lambda text: [ClusterConfig(max_depth=int(v)).max_depth
                                 for v in _parse_levels(text)],
         "sizes": lambda text: [ClusterConfig(max_cluster=int(v)).max_cluster
                                for v in _parse_levels(text)],
         "levels": lambda text: [NoiseSpec("integral", v, seed=0).level
                                 for v in _parse_levels(text)]}


def _cmd_sweep_depth(args) -> int:
    bench.derive_seed(args.seed)  # a negative --seed fails before any read
    spatial = bench.filter_spec(
        "mkf", _given(args, ("hx", "radius"))).build()[BfParams]
    grid = {name: _GRID[name](text)
            for name, text in _given(args, _GRID).items()}
    image = load_raster_any(args.input)
    rows = bench.sweep_depth(args.input.stem, image, **grid, seed=args.seed,
                             h_x=spatial.h_x, radius=spatial.radius)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_rows_csv(rows, args.out_dir / "sweep_depth.csv")
    return 0


def _label_of(row: bench.ResultRow) -> str:
    return bench.parse_filter_spec(f"{row.filter}:{row.params}").label()


def _write_bench(rows, out_dir: Path, name: str, title: str, x_label: str,
                 key_of, x_of) -> None:
    """`name`.csv with the rows, and per metric the chart `name`_<metric>.svg
    of the means over rows sharing (key, x), sorted by x."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_rows_csv(rows, out_dir / f"{name}.csv")
    groups: dict = {}
    for row in rows:
        groups.setdefault(key_of(row), {}).setdefault(x_of(row), []).append(row)
    for metric in ("mae", "ssim"):
        series = {key: sorted((x, sum(getattr(r, metric) for r in group)
                               / len(group)) for x, group in by_x.items())
                  for key, by_x in groups.items()}
        svg = line_chart(series, title.format(metric.upper()), x_label,
                         metric.upper())
        (out_dir / f"{name}_{metric}.svg").write_text(svg, encoding="utf-8")


def _cmd_bench_bsd(args) -> int:
    specs = [bench.parse_filter_spec(s) for s in args.filters]
    levels = _GRID["levels"](args.levels)
    bench.derive_seed(args.seed)  # a negative --seed fails before any read
    paths = sorted(args.dataset.glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm images found in {args.dataset}")
    images = [(p.stem, load_pgm(p)) for p in paths]
    rows = bench.bench_integral(images, levels, specs, seed=args.seed)
    _write_bench(rows, args.out_dir, "bsd", "mean {} vs noise level",
                 "noise level", _label_of,
                 lambda r: parse_noise_spec(f"{r.noise},seed=0").level)
    return 0


def _parse_spread(text: str) -> float | None:
    """`--spread`: the `field:` noise spec's `spread=` value, `auto` (None)
    or a width, checked before any read. A comma, which would start a
    second spec item, is a bad argument."""
    if "," in text:
        raise ConfigError(f"bad --spread {text!r}")
    return parse_noise_spec(f"field:spread={text}").spread


def _cmd_bench_brainweb(args) -> int:
    specs = [bench.parse_filter_spec(s) for s in args.filters]
    ssim_constants(args.dynamic_range)  # a bad --range fails before any read
    spread = _parse_spread(args.spread)
    require_positive(peak=args.peak)
    bench.derive_seed(args.seed)
    paths = sorted(args.volume.glob("*.mkfr"))
    if not paths:
        raise ConfigError(f"no .mkfr slices found in {args.volume}")
    slices = [(p.stem, load_f64_raster(p)) for p in paths]
    rows = bench.bench_complex_slices(
        slices, specs, seed=args.seed, peak_sigma=args.peak, spread=spread,
        dynamic_range=args.dynamic_range)
    index_of = {name: i for i, (name, _) in enumerate(slices)}
    _write_bench(rows, args.out_dir, "brainweb", "{} per slice", "slice",
                 lambda r: f"{_label_of(r)}/{r.component}",
                 lambda r: float(index_of[r.image]))
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
    except MemoryError as exc:  # e.g. a window radius far beyond the image
        print(f"error: memory: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
