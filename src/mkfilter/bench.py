"""Batch experiment harness: noise sweeps, filter comparisons, CSV rows.

Every run row carries its full provenance (filter id, canonical parameter
string, noise descriptor, derived seed), so any row can be re-executed to
the same mae/ssim. Per-row seeds are derived from the master seed and the
row key through numpy's SeedSequence, which makes results independent of
execution order. The cells of a layout run one after another, in order.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, filters
from .baselines import (CfParams, TvParams, bf_denoise, cf_gaussian_denoise,
                        write_energy_csv)
# unused here, but the benchmark tracer wraps the name bench.tv_denoise
from .baselines import tv_denoise  # noqa: F401
from .clustering import ClusterConfig, write_tree_dump
from .errors import ConfigError
from .filters import BfParams, mkf_denoise, write_kernel_csv
from .metrics import mae, ssim
from .noise import (DEFAULT_PEAK_SIGMA, NoiseSpec, apply_noise, format_number,
                    parse_spec)
from .raster import Raster

__all__ = [
    "FILTERS",
    "FilterSpec",
    "ResultRow",
    "CSV_HEADER",
    "filter_spec",
    "parse_filter_spec",
    "derive_seed",
    "sweep_depth",
    "bench_integral",
    "bench_complex_slices",
    "write_rows_csv",
    "read_rows_csv",
]

CSV_HEADER = ["image", "filter", "params", "noise", "seed", "component",
              "mae", "ssim", "ms"]

# SSIM's dynamic range for BrainWeb-style slices of -3000..3000
BRAINWEB_RANGE = 6000.0


class Filter(NamedTuple):
    """One filter: ``keys`` maps each spec key to its (params dataclass,
    field name), whose default and type the key takes; ``run(image,
    params)`` takes the built dataclasses by class and returns a tuple that
    starts with the filtered raster; ``dumps`` maps a dump name to its
    writer ``(that tuple, path)``.
    """

    keys: dict
    run: Callable
    dumps: dict

    def defaults(self) -> dict:
        return {key: getattr(cls, field)
                for key, (cls, field) in self.keys.items()}


def _fields(cls, **fields) -> dict:
    return {key: (cls, field) for key, field in fields.items()}


# The run functions look the filters up when they are called, so wrappers
# installed on the modules afterwards (the benchmark tracer's) see each run.
FILTERS = {
    "bf": Filter(_fields(BfParams, hx="h_x", hi="h_I", radius="radius"),
                 lambda image, p: (bf_denoise(image, p[BfParams]),), {}),
    "mkf": Filter(
        {**_fields(ClusterConfig, depth="max_depth", max_cluster="max_cluster",
                   min_cluster="min_cluster"),
         # the bilateral filter's spatial kernel
         **_fields(BfParams, hx="h_x", radius="radius")},
        lambda image, p: mkf_denoise(image, p[ClusterConfig], p[BfParams].h_x,
                                     p[BfParams].radius),
        {"dump_tree": lambda result, path: write_tree_dump(result.tree, path),
         "dump_kernels": lambda result, path: write_kernel_csv(result.field,
                                                               path)}),
    "tv": Filter(_fields(TvParams, lam="lam", iters="iters", step="step"),
                 lambda image, p: baselines.tv_denoise_trace(image,
                                                             p[TvParams]),
                 {"dump_energy": lambda result, path: write_energy_csv(
                     result[1], path)}),
    "cf": Filter(_fields(CfParams, iters="iters"),
                 lambda image, p: (cf_gaussian_denoise(image, p[CfParams]),),
                 {}),
}


@dataclass(frozen=True)
class FilterSpec:
    """A filter id plus its full parameter set."""

    name: str
    params: dict

    def canonical(self) -> str:
        """Stable parameter digest, e.g. `depth=2,hx=3,radius=5`."""
        return ",".join(f"{k}={format_number(self.params[k])}"
                        for k in sorted(self.params))

    def label(self) -> str:
        """Short legend label: the non-default parameters only."""
        defaults = FILTERS[self.name].defaults()
        diff = FilterSpec(self.name, {k: v for k, v in self.params.items()
                                      if v != defaults[k]}).canonical()
        return f"{self.name}:{diff}" if diff else self.name

    def build(self) -> dict:
        """The filter's params dataclasses, keyed by class."""
        fields: dict = {}
        for key, (cls, field) in FILTERS[self.name].keys.items():
            fields.setdefault(cls, {})[field] = self.params[key]
        return {cls: cls(**values) for cls, values in fields.items()}


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


def filter_spec(name: str, given: dict) -> FilterSpec:
    """Filter `name` with the `given` parameters; the rest take their
    defaults."""
    return FilterSpec(name=name, params={**FILTERS[name].defaults(), **given})


def parse_filter_spec(text: str) -> FilterSpec:
    """Parse `bf:hi=57,hx=3` style strings with `noise.parse_spec`: a value
    takes the type of its key's default, and an unset key the default.
    The params dataclasses check the values here, so a bad value fails
    before any input is read."""
    name, given = parse_spec(text, "filter", {
        known: {key: type(value) for key, value in entry.defaults().items()}
        for known, entry in FILTERS.items()})
    spec = filter_spec(name, given)
    spec.build()
    return spec


def derive_seed(master: int, *key) -> int:
    """Stable 64-bit seed from the master seed and a row key, independent
    of execution order."""
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


def _run_cell(image_id: str, clean: Raster, noise: NoiseSpec, specs: list,
              dynamic_range: float, component: str = "gray"
              ) -> list[ResultRow]:
    """Noise the clean raster once, filter the noisy one with every spec
    and score each result against the clean one: one cell, every layout's
    unit, its rows in spec order, tagged `image_id` and `component`.

    The mkf specs filter with their own cuts of one tree (see
    ``ClusterTree.cut``), built at their deepest depth and smallest
    ``max_cluster`` with ``min_cluster`` 1. A cut's factor map (see
    ``KernelField.factor_map``), with ``h_x`` and the radius, fixes its
    raster: a spec whose key repeats an earlier one reuses that raster's
    scores, and new maps of one ``(h_x, radius)`` are stacked and
    filtered together, in engine passes of as many maps as one pass
    takes. A row's ``ms`` is its own filter time without noise and
    scoring, cut and factor map included; the first
    mkf row's also holds the tree build, and the first row of a pass the
    pass, so a cell's ``ms`` add up to the time its filters took.
    """
    # imported here: hashlib loads OpenSSL, about 3 ms of every import
    # of the package
    import hashlib

    noisy = apply_noise(clean, noise)
    built = [spec.build() for spec in specs]
    configs = [p[ClusterConfig] for p in built if ClusterConfig in p]
    per_pass = filters._fields_per_pass(noisy.data.size)
    scores, ms = [None] * len(specs), [0.0] * len(specs)
    # scored: every filtered key's scores; pending: the next pass's factor
    # maps by key, each with its rows, all of one (h_x, radius)
    tree, scored, pending = None, {}, {}

    def score(restored):
        return mae(clean, restored), ssim(clean, restored, dynamic_range)

    def run_pass():
        # BfParams checked h_x and the radius, and the maps come from the
        # tree built on `noisy`, so the engine takes them as they are
        keys, indexes = list(pending), [rows for _, rows in pending.values()]
        maps = np.stack([factor_map for factor_map, _ in pending.values()])
        pending.clear()
        h_x, radius, _ = keys[0]
        started = time.perf_counter()
        stacked = filters._window_mean(noisy.data, h_x, radius, maps)
        ms[indexes[0][0]] += (time.perf_counter() - started) * 1e3
        for key, rows, data in zip(keys, indexes, stacked):
            scored[key] = score(noisy.with_data(data))
            for index in rows:
                scores[index] = scored[key]

    for index, (spec, params) in enumerate(zip(specs, built)):
        started = time.perf_counter()
        cfg = params.get(ClusterConfig)
        if cfg is None:
            restored = FILTERS[spec.name].run(noisy, params)[0]
            ms[index] = (time.perf_counter() - started) * 1e3
            scores[index] = score(restored)
            continue
        # built at the first mkf spec, on the filters module as in
        # mkf_denoise, so that the benchmark tracer's wrappers see it
        tree = tree or filters.build_cluster_tree(noisy, ClusterConfig(
            max(c.max_depth for c in configs),
            min(c.max_cluster for c in configs), min_cluster=1))
        factor_map = filters.build_kernel_field(tree.cut(cfg)).factor_map()
        key = (params[BfParams].h_x, params[BfParams].radius,
               hashlib.sha256(factor_map).digest())
        ms[index] = (time.perf_counter() - started) * 1e3
        if key in scored:
            scores[index] = scored[key]
        elif key in pending:
            pending[key][1].append(index)
        else:
            if pending and key[:2] != next(iter(pending))[:2]:
                run_pass()
            pending[key] = (factor_map, [index])
            if len(pending) == per_pass:
                run_pass()
        # the next cut's working memory does not hold this map
        del factor_map
    if pending:
        run_pass()
    return [ResultRow(image_id, spec.name, spec.canonical(), noise.describe(),
                      noise.seed, component, *scores[index], ms[index])
            for index, spec in enumerate(specs)]


# ---------------------------------------------------------------------------
# experiment layouts


def sweep_depth(image_id: str, clean: Raster,
                depths=range(2, 8),
                sizes=range(10, 201, 10),
                levels=(10.0, 1000.0),
                seed: int = 0, h_x: float = BfParams.h_x,
                radius: int = BfParams.radius) -> list[ResultRow]:
    """Tree-depth / cluster-size grid under two noise levels.

    The integral benchmark on one image: one cell per level, so every
    (depth, size) pair at a level filters the same noise realization with
    a cut of one tree. Rows come level by level, then depth by depth, then
    size by size.
    """
    sizes = list(sizes)
    specs = [filter_spec("mkf", {"depth": depth, "max_cluster": size,
                                 "hx": h_x, "radius": radius})
             for depth in depths for size in sizes]
    return bench_integral([(image_id, clean)], levels, specs, seed=seed)


def bench_integral(images: list[tuple[str, Raster]],
                   levels,
                   filter_specs: list[FilterSpec],
                   seed: int = 0) -> list[ResultRow]:
    """Per-level scoring of each filter across a set of 8-bit grayscale
    images (SSIM's dynamic range 255), one cell per (image, level), one
    cell after another: all filters share its noise realization."""
    rows = []
    for image_id, clean in images:
        for level in levels:
            noise = NoiseSpec(kind="integral", level=float(level),
                              seed=derive_seed(seed, image_id, int(level)))
            rows += _run_cell(image_id, clean, noise, filter_specs, 255.0)
    return rows


def bench_complex_slices(slices: list[tuple[str, Raster]],
                         filter_specs: list[FilterSpec],
                         seed: int = 0,
                         peak_sigma: float = DEFAULT_PEAK_SIGMA,
                         spread: float | None = None,
                         dynamic_range: float = BRAINWEB_RANGE
                         ) -> list[ResultRow]:
    """Complex-slice comparison: each magnitude slice is split into
    real/imaginary components under its background phase, corrupted by the
    spatially-varying field, and the components are filtered independently,
    one cell per (slice, component), one cell after another."""
    from .noise import PhaseSpec, synthesize_complex_slice

    rows = []
    for index, (slice_id, magnitude) in enumerate(slices):
        pair = synthesize_complex_slice(magnitude, PhaseSpec(index))
        for component, clean in (("real", pair.real), ("imag", pair.imag)):
            noise = NoiseSpec(kind="spatial-field", level=peak_sigma,
                              spread=spread,
                              seed=derive_seed(seed, slice_id, component))
            rows += _run_cell(slice_id, clean, noise, filter_specs,
                              dynamic_range, component)
    return rows


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
