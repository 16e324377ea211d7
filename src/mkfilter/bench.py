"""Batch experiment harness: noise sweeps, filter comparisons, CSV rows.

Every run row carries its full provenance (filter id, canonical parameter
string, noise descriptor, derived seed), so any row can be re-executed to
the same mae/ssim. Per-row seeds are derived from the master seed and the
row key through numpy's SeedSequence, which makes results independent of
worker count and execution order.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import bf_denoise, cf_gaussian_denoise, tv_denoise
from .baselines import CfParams, TvParams
from . import filters
from .clustering import ClusterConfig
from .errors import ConfigError
from .filters import BfParams, mkf_denoise, mkf_filter
from .metrics import mae, ssim
from .noise import NoiseSpec, apply_noise, parse_noise_spec
from .raster import Raster

__all__ = [
    "FilterSpec",
    "ResultRow",
    "CSV_HEADER",
    "parse_filter_spec",
    "apply_filter",
    "derive_seed",
    "run_case",
    "sweep_depth",
    "bench_integral",
    "bench_complex_slices",
    "write_rows_csv",
    "read_rows_csv",
]

CSV_HEADER = ["image", "filter", "params", "noise", "seed", "component",
              "mae", "ssim", "ms"]

_FILTER_DEFAULTS = {
    "bf": {"hi": 57.0, "hx": 3.0, "radius": 5},
    "mkf": {"depth": 2, "max_cluster": 20, "min_cluster": 9, "neigh": 8,
            "bin_width": 1.0, "tol": 1e-4, "hx": 3.0, "radius": 5},
    "tv": {"lam": 1.25, "iters": 100, "step": 0.1},
    "cf": {"iters": 10},
}
_INT_PARAMS = {"radius", "depth", "max_cluster", "min_cluster", "neigh", "iters"}


@dataclass(frozen=True)
class FilterSpec:
    """A filter id plus its full parameter set."""

    name: str
    params: dict

    def canonical(self) -> str:
        """Stable parameter digest, e.g. `depth=2,hx=3,radius=5`."""
        return ",".join(f"{k}={self.params[k]:g}" for k in sorted(self.params))

    def label(self) -> str:
        """Short legend label: the non-default parameters only."""
        defaults = _FILTER_DEFAULTS[self.name]
        diff = [f"{k}={self.params[k]:g}" for k in sorted(self.params)
                if self.params[k] != defaults[k]]
        return self.name if not diff else f"{self.name}:{','.join(diff)}"


@dataclass(frozen=True)
class ResultRow:
    image: str
    filter: str
    params: str
    noise: str
    seed: int
    component: str
    mae: float
    ssim: float
    ms: float


def parse_filter_spec(text: str) -> FilterSpec:
    """Parse `bf:hi=57,hx=3` style strings; unset parameters take the
    benchmark defaults."""
    name, _, body = text.partition(":")
    if name not in _FILTER_DEFAULTS:
        raise ConfigError(f"unknown filter {name!r} in {text!r}")
    params = dict(_FILTER_DEFAULTS[name])
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in params:
                raise ConfigError(f"bad filter option {item!r} in {text!r}")
            try:
                params[key] = int(value) if key in _INT_PARAMS else float(value)
            except ValueError:
                raise ConfigError(f"bad value for {key!r} in {text!r}") from None
    return FilterSpec(name=name, params=params)


def _mkf_config(p: dict) -> ClusterConfig:
    return ClusterConfig(max_depth=p["depth"], max_cluster=p["max_cluster"],
                         min_cluster=p["min_cluster"], neighborhood=p["neigh"],
                         bin_width=p["bin_width"], em_tol=p["tol"])


def apply_filter(image: Raster, spec: FilterSpec) -> Raster:
    p = spec.params
    if spec.name == "bf":
        return bf_denoise(image, BfParams(h_x=p["hx"], h_I=p["hi"],
                                          radius=p["radius"]))
    if spec.name == "mkf":
        return mkf_denoise(image, _mkf_config(p), h_x=p["hx"],
                           radius=p["radius"]).raster
    if spec.name == "tv":
        return tv_denoise(image, TvParams(lam=p["lam"], iters=p["iters"],
                                          step=p["step"]))
    if spec.name == "cf":
        return cf_gaussian_denoise(image, CfParams(iters=p["iters"]))
    raise ConfigError(f"unknown filter {spec.name!r}")


def derive_seed(master: int, *key) -> int:
    """Stable 64-bit seed from the master seed and a row key."""
    if int(master) < 0:
        raise ConfigError(f"seed must be non-negative, got {master}")
    entropy = [int(master)]
    for part in key:
        if isinstance(part, str):
            entropy.append(int.from_bytes(part.encode("utf-8"), "big"))
        else:
            entropy.append(int(part))
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def run_case(image_id: str, clean: Raster, filter_spec: FilterSpec,
             noise_spec: NoiseSpec, dynamic_range: float,
             component: str = "gray") -> ResultRow:
    """Noise the clean raster, filter it, and score against the clean one."""
    noisy = apply_noise(clean, noise_spec)
    started = time.perf_counter()
    restored = apply_filter(noisy, filter_spec)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return _score_row(image_id, clean, restored, filter_spec, noise_spec,
                      dynamic_range, component, elapsed_ms)


def _score_row(image_id: str, clean: Raster, restored: Raster,
               filter_spec: FilterSpec, noise_spec: NoiseSpec,
               dynamic_range: float, component: str,
               elapsed_ms: float) -> ResultRow:
    return ResultRow(
        image=image_id,
        filter=filter_spec.name,
        params=filter_spec.canonical(),
        noise=noise_spec.describe(),
        seed=noise_spec.seed,
        component=component,
        mae=mae(clean, restored),
        ssim=ssim(clean, restored, dynamic_range),
        ms=elapsed_ms,
    )


def replay_row(clean: Raster, row: ResultRow,
               dynamic_range: float) -> tuple[float, float]:
    """Re-run one CSV row from its recorded provenance."""
    noise_spec = parse_noise_spec(f"{row.noise},seed={row.seed}")
    filter_spec = parse_filter_spec(f"{row.filter}:{row.params}")
    fresh = run_case(row.image, clean, filter_spec, noise_spec,
                     dynamic_range, row.component)
    return fresh.mae, fresh.ssim


def _pmap(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiment layouts


def sweep_depth(image_id: str, clean: Raster,
                depths=range(2, 8),
                sizes=range(10, 201, 10),
                levels=(10.0, 1000.0),
                seed: int = 0, h_x: float = 3.0, radius: int = 5,
                threads: int = 1) -> list[ResultRow]:
    """Tree-depth / cluster-size grid under two noise levels.

    The per-level seed depends only on (seed, level), so every (depth,
    size) cell at one level filters the identical noise realization.
    Rows come level by level, then depth by depth, then size by size.

    The unit of work is one (level, size) group: the noise is applied once
    and the context tree is built once, at the deepest depth; every depth's
    row filters with that tree truncated to its depth, which is the tree a
    fresh build at that depth gives. A row's ``ms`` is its own kernel field
    and filter time; the deepest row also carries the shared tree build,
    so a group's ``ms`` add up to the time the group took.
    """
    depths, sizes, levels = list(depths), list(sizes), list(levels)
    groups = [(NoiseSpec(kind="integral", level=float(level),
                         seed=derive_seed(seed, image_id, int(level))), size)
              for level in levels for size in sizes]
    done = _pmap(
        lambda group: _sweep_group(image_id, clean, depths, group[1],
                                   group[0], h_x, radius),
        groups, threads)
    n = len(sizes)
    return [done[lv * n + sz][d] for lv in range(len(levels))
            for d in range(len(depths)) for sz in range(n)]


def _sweep_group(image_id: str, clean: Raster, depths: list, size: int,
                 noise: NoiseSpec, h_x: float, radius: int) -> list[ResultRow]:
    """One row per depth for one (noise level, cluster size) group."""
    if not depths:
        return []
    specs = [parse_filter_spec(f"mkf:depth={depth},max_cluster={size},"
                               f"hx={h_x:g},radius={radius}")
             for depth in depths]
    deepest = depths.index(max(depths))
    noisy = apply_noise(clean, noise)
    started = time.perf_counter()
    # looked up on the filters module, as mkf_denoise does, so that
    # wrappers installed there (the benchmark tracer's) see the build
    tree = filters.build_cluster_tree(noisy,
                                      _mkf_config(specs[deepest].params))
    tree_ms = (time.perf_counter() - started) * 1e3
    rows = []
    for index, spec in enumerate(specs):
        p = spec.params
        started = time.perf_counter()
        restored = mkf_filter(noisy, tree.truncated(p["depth"]),
                              h_x=p["hx"], radius=p["radius"]).raster
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if index == deepest:
            elapsed_ms += tree_ms
        rows.append(_score_row(image_id, clean, restored, spec, noise, 255.0,
                               "gray", elapsed_ms))
    return rows


def bench_integral(images: list[tuple[str, Raster]],
                   levels,
                   filter_specs: list[FilterSpec],
                   seed: int = 0,
                   dynamic_range: float = 255.0,
                   threads: int = 1) -> list[ResultRow]:
    """Per-level scoring of each filter across a set of grayscale images.

    All filters at one (image, level) cell share the identical noise
    realization.
    """
    cases = []
    for image_id, clean in images:
        for level in levels:
            noise = NoiseSpec(kind="integral", level=float(level),
                              seed=derive_seed(seed, image_id, int(level)))
            for spec in filter_specs:
                cases.append((image_id, clean, spec, noise))
    return _pmap(
        lambda c: run_case(c[0], c[1], c[2], c[3], dynamic_range),
        cases, threads)


def bench_complex_slices(slices: list[tuple[str, Raster]],
                         filter_specs: list[FilterSpec],
                         phase_for_slice,
                         seed: int = 0,
                         peak_sigma: float = 500.0,
                         spread: float | None = None,
                         dynamic_range: float = 6000.0,
                         threads: int = 1) -> list[ResultRow]:
    """Complex-slice comparison: each magnitude slice is split into
    real/imaginary components under its background phase, corrupted by the
    spatially-varying field, and the components are filtered independently."""
    from .noise import synthesize_complex_slice

    cases = []
    for index, (slice_id, magnitude) in enumerate(slices):
        pair = synthesize_complex_slice(magnitude, phase_for_slice(index))
        for component, clean in (("real", pair.real), ("imag", pair.imag)):
            noise = NoiseSpec(kind="spatial-field", level=peak_sigma,
                              spread=spread,
                              seed=derive_seed(seed, slice_id, component))
            for spec in filter_specs:
                cases.append((slice_id, clean, spec, noise, component))
    return _pmap(
        lambda c: run_case(c[0], c[1], c[2], c[3], dynamic_range, c[4]),
        cases, threads)


# ---------------------------------------------------------------------------
# CSV


def write_rows_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.image, r.filter, r.params, r.noise, r.seed,
                             r.component, repr(r.mae), repr(r.ssim),
                             f"{r.ms:.3f}"])


def read_rows_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {reader.fieldnames}")
        for rec in reader:
            rows.append(ResultRow(
                image=rec["image"], filter=rec["filter"], params=rec["params"],
                noise=rec["noise"], seed=int(rec["seed"]),
                component=rec["component"], mae=float(rec["mae"]),
                ssim=float(rec["ssim"]), ms=float(rec["ms"])))
    return rows
