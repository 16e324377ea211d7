"""Spans around the calls into each mkfilter module, recorded from outside.

Modules bind imported names at import time, so a function is wrapped in
every module namespace that a caller looks it up from (``TARGETS``). Each
span records its name, start, end, parent span and case id; spans stay in
memory until the run writes them out. Counts are read from the objects the
calls return (``EmResult``, ``ClusterTree``, rasters, row lists) or from
their arguments, never from inside the library.

A call into a layer that is already the innermost open span (``tv_denoise``
calling ``tv_denoise_trace``) is passed straight through, so every span is
one call into its layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

from mkfilter.clustering import EM_MAX_ITERATIONS, proximity_cluster

# (span name, module, attribute); a name wrapped in several modules is one
# layer seen from several callers
TARGETS = [
    ("clustering.em", "mkfilter.clustering", "em_similarity_cluster"),
    ("clustering.tree", "mkfilter.filters", "build_cluster_tree"),
    ("clustering.tree", "mkfilter.cli", "build_cluster_tree"),
    ("filters.kernel_field", "mkfilter.filters", "build_kernel_field"),
    ("filters.window", "mkfilter.filters", "weighted_mean_filter"),
    ("filters.window", "mkfilter.baselines", "weighted_mean_filter"),
    ("baselines.tv", "mkfilter.bench", "tv_denoise"),
    ("baselines.tv", "mkfilter.baselines", "tv_denoise_trace"),
    ("baselines.cf", "mkfilter.bench", "cf_gaussian_denoise"),
    ("baselines.cf", "mkfilter.baselines", "cf_gaussian_denoise"),
    ("metrics.mae", "mkfilter.bench", "mae"),
    ("metrics.ssim", "mkfilter.bench", "ssim"),
    ("noise.apply", "mkfilter.bench", "apply_noise"),
    ("noise.complex", "mkfilter.noise", "synthesize_complex_slice"),
    ("raster.io", "mkfilter.cli", "load_pgm"),
    ("raster.io", "mkfilter.cli", "save_pgm"),
    ("raster.io", "mkfilter.cli", "load_f64_raster"),
    ("raster.io", "mkfilter.cli", "save_f64_raster"),
    ("charts", "mkfilter.cli", "line_chart"),
    ("bench", "mkfilter.bench", "sweep_depth"),
    ("bench", "mkfilter.bench", "bench_integral"),
    ("bench", "mkfilter.bench", "bench_complex_slices"),
    ("bench", "mkfilter.bench", "write_rows_csv"),
]

PROBE = "clustering.proximity"


def _em_counts(args, kwargs, result):
    cap = kwargs.get("max_iterations",
                     args[4] if len(args) > 4 else EM_MAX_ITERATIONS)
    iterations = len(result.log_likelihood)
    split = (not result.degenerate
             and int(result.labels.min()) != int(result.labels.max()))
    return {"iterations": iterations, "cap_hits": int(iterations >= cap),
            "splits": int(split)}


def _tree_counts(args, kwargs, result):
    return {"nodes": len(result.nodes), "leaves": len(result.leaves())}


def _window_counts(args, kwargs, result):
    radius = kwargs.get("radius", args[2] if len(args) > 2 else None)
    height, width = result.data.shape
    return {"taps": height * width * (2 * radius + 1) ** 2}


def _io_counts(args, kwargs, result):
    # loads take (path,), saves take (raster, path)
    path = args[-1] if args else next(iter(kwargs.values()))
    return {"bytes": os.path.getsize(path)}


def _row_counts(args, kwargs, result):
    return {"rows": len(result)} if isinstance(result, list) else {}


COUNTERS = {
    "clustering.em": _em_counts,
    "clustering.tree": _tree_counts,
    "filters.window": _window_counts,
    "raster.io": _io_counts,
    "bench": _row_counts,
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped names in and out so untraced passes run the plain library."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self.case = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "case": self.case, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.update(count(args, kwargs, result))
            if name == "clustering.tree":
                self._probe_proximity(args, kwargs, result)
            return result

        return wrapper

    def _probe_proximity(self, args, kwargs, tree):
        """Time the connectivity pass alone on the finished tree's deepest
        label map. The probe is extra work: its span is subtracted from its
        parents' self time and from the traced pass wall time."""
        cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
        self.run(PROBE, proximity_cluster, tree.levels[-1], cfg.neighborhood)

    # -- installation ------------------------------------------------------

    def install(self):
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _duration(span):
    return span["end"] - span["start"]


def pass_layers(spans: list[dict], scale: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (one entry per name in
    the benchmark's ``per_layer`` list, except ``trace.overhead_s``).
    Times are multiplied by ``scale``, the pass's speed scale."""
    by_name: dict[str, list[dict]] = {}
    child_s: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_s[span["parent"]] = (child_s.get(span["parent"], 0.0)
                                       + _duration(span))

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name):
        return scale * sum(_duration(s) for s in by_name.get(name, []))

    def self_s(name):
        return scale * sum(_duration(s) - child_s.get(s["id"], 0.0)
                           for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    em_calls = calls("clustering.em")
    window_s = busy("filters.window")
    return {
        "clustering.em.calls": em_calls,
        "clustering.em.s": busy("clustering.em"),
        "clustering.em.iterations": total("clustering.em", "iterations"),
        "clustering.em.cap_hits": total("clustering.em", "cap_hits"),
        "clustering.em.split_ratio": (total("clustering.em", "splits") / em_calls
                                      if em_calls else 0.0),
        "clustering.tree.calls": calls("clustering.tree"),
        "clustering.tree.s": busy("clustering.tree"),
        "clustering.tree.self_s": self_s("clustering.tree"),
        "clustering.proximity.s": busy(PROBE),
        "clustering.nodes": total("clustering.tree", "nodes"),
        "clustering.leaves": total("clustering.tree", "leaves"),
        "filters.kernel_field.s": busy("filters.kernel_field"),
        "filters.window.calls": calls("filters.window"),
        "filters.window.s": window_s,
        "filters.window.taps": total("filters.window", "taps"),
        "filters.window.taps_per_s": (total("filters.window", "taps") / window_s
                                      if window_s else 0.0),
        "baselines.tv.calls": calls("baselines.tv"),
        "baselines.tv.s": busy("baselines.tv"),
        "baselines.cf.calls": calls("baselines.cf"),
        "baselines.cf.s": busy("baselines.cf"),
        "metrics.ssim.calls": calls("metrics.ssim"),
        "metrics.ssim.s": busy("metrics.ssim"),
        "metrics.mae.s": busy("metrics.mae"),
        "noise.apply.calls": calls("noise.apply"),
        "noise.apply.s": busy("noise.apply"),
        "noise.complex.s": busy("noise.complex"),
        "raster.io.calls": calls("raster.io"),
        "raster.io.s": busy("raster.io"),
        "raster.io.bytes": total("raster.io", "bytes"),
        "bench.rows": total("bench", "rows"),
        "bench.self_s": self_s("bench"),
        "charts.s": busy("charts"),
        "cli.self_s": self_s("cli"),
    }


COUNT_METRICS = ("clustering.em.calls", "clustering.em.iterations",
                 "clustering.em.cap_hits", "clustering.em.split_ratio",
                 "clustering.tree.calls", "clustering.nodes",
                 "clustering.leaves", "filters.window.calls",
                 "filters.window.taps", "baselines.tv.calls",
                 "baselines.cf.calls", "metrics.ssim.calls",
                 "noise.apply.calls", "raster.io.calls", "raster.io.bytes",
                 "bench.rows")


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median of each timing over the traced passes; counts must agree
    exactly between passes. Returns the metrics and any count mismatches."""
    out = {}
    mismatches = []
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                mismatches.append(f"{key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, mismatches


def probe_seconds(spans: list[dict]) -> float:
    return sum(_duration(s) for s in spans if s["name"] == PROBE)
