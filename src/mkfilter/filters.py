"""Weighted-mean filtering: classic bilateral and the multi-kernel variant.

Both filters share one engine: each output pixel is the weighted mean of
its (2*radius+1)^2 window under a spatial Gaussian times a range Gaussian,
with symmetric mirror padding at the borders. The bilateral filter uses a
single, manually chosen range bandwidth. The multi-kernel filter replaces
it with per-cluster bandwidths read from a context tree: a leaf cluster
contributes its own intensity deviation, rescaled by the contextual gain
of its ancestors, so the effective bandwidth is delta / sqrt(psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import ClusterConfig, ClusterTree, build_cluster_tree
from .errors import ConfigError, require_positive
from .raster import Coordinate, Raster

__all__ = [
    "BfParams",
    "KernelField",
    "MkfResult",
    "bf_weight",
    "mkf_weight",
    "contextual_gain",
    "weighted_mean_filter",
    "build_kernel_field",
    "mkf_denoise",
    "mkf_filter",
    "write_kernel_csv",
]


@dataclass(frozen=True)
class BfParams:
    """Bilateral kernel parameters: spatial conduction h_x, range
    bandwidth h_I, window radius."""

    h_x: float = 3.0
    h_I: float = 57.0
    radius: int = 5

    def __post_init__(self) -> None:
        require_positive(h_x=self.h_x, h_I=self.h_I)
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")


@dataclass(frozen=True)
class KernelField:
    """Per-leaf-cluster range-kernel parameters plus the pixel->leaf map.

    ``records`` maps a leaf cluster id to its (delta, psi); ``leaf_map``
    assigns every pixel a leaf id present in ``records``.
    """

    records: dict[int, tuple[float, float]]
    leaf_map: np.ndarray

    def __post_init__(self) -> None:
        for cluster, (delta, psi) in self.records.items():
            if delta <= 0 or psi <= 0:
                raise ConfigError(
                    f"cluster {cluster} has non-positive delta/psi "
                    f"({delta}, {psi})")
        ids = np.unique(self.leaf_map)
        missing = [int(i) for i in ids if int(i) not in self.records]
        if missing:
            raise ConfigError(f"leaf map references unknown clusters {missing}")

    def parameter_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense per-pixel (delta, psi) arrays for the filter engine."""
        top = int(self.leaf_map.max()) + 1
        delta_of = np.ones(top)
        psi_of = np.ones(top)
        for cluster, (delta, psi) in self.records.items():
            delta_of[cluster] = delta
            psi_of[cluster] = psi
        return delta_of[self.leaf_map], psi_of[self.leaf_map]


class MkfRule(NamedTuple):
    """Weight rule binding a kernel field to a spatial bandwidth."""

    field: KernelField
    h_x: float


class MkfResult(NamedTuple):
    raster: Raster
    tree: ClusterTree
    field: KernelField


# ---------------------------------------------------------------------------
# pointwise weights (the engine below evaluates the same formulas in bulk)


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


def contextual_gain(delta_parent, delta_grandparent):
    """Squared ratio of the two ancestor deviations, for floats or arrays.

    With the usual coarse-to-fine deviation decay this is < 1 and widens
    the leaf kernel; values > 1 are arithmetically possible and are passed
    through unclamped. The square is one correctly rounded product, the
    same for a float and for an array element.
    """
    ratio = delta_parent / delta_grandparent
    return ratio * ratio


# ---------------------------------------------------------------------------
# engine


def _window_mean(values: np.ndarray, h_x: float, radius: int,
                 delta, psi) -> np.ndarray:
    """Direct weighted-mean form, vectorized one window offset at a time.

    `delta`/`psi` may be scalars (bilateral) or per-pixel arrays keyed by
    the center pixel (multi-kernel).
    """
    height, width = values.shape
    padded = np.pad(values, radius, mode="symmetric")
    inv_space = 1.0 / (2.0 * h_x * h_x)
    inv_range = psi / (2.0 * np.asarray(delta, dtype=np.float64) ** 2)
    num = np.zeros_like(values)
    den = np.zeros_like(values)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = padded[radius + dy:radius + dy + height,
                             radius + dx:radius + dx + width]
            w = np.exp(-(dx * dx + dy * dy) * inv_space
                       - (values - shifted) ** 2 * inv_range)
            num += w * shifted
            den += w
    return num / den


def weighted_mean_filter(image: Raster, weight_rule, radius: int) -> Raster:
    """Run the filter engine over `image`.

    `weight_rule` is either :class:`BfParams` (single range bandwidth) or
    an :class:`MkfRule` (per-cluster bandwidths; parameters are looked up
    by the center pixel's leaf cluster).
    """
    if radius < 1:
        raise ConfigError(f"radius must be >= 1, got {radius}")
    if isinstance(weight_rule, BfParams):
        delta, psi = weight_rule.h_I, 1.0
    elif isinstance(weight_rule, MkfRule):
        if weight_rule.field.leaf_map.shape != image.data.shape:
            raise ConfigError("kernel field was built for a different image size")
        delta, psi = weight_rule.field.parameter_maps()
    else:
        raise ConfigError(
            f"unsupported weight rule {type(weight_rule).__name__}")
    return image.with_data(_window_mean(image.data, weight_rule.h_x, radius,
                                        delta, psi))


# ---------------------------------------------------------------------------
# multi-kernel pipeline


def build_kernel_field(tree: ClusterTree) -> KernelField:
    """Every leaf's (delta, psi), for all leaves in whole-array steps.

    A leaf defers to its nearest eligible ancestor (the root at last). With
    deviations floored at ``tree.sigma_floor``, delta is that node's own
    deviation and psi the contextual gain of its parent and grandparent,
    or of itself and its parent at level 1 or 2 (1 at the root).
    """
    nodes, parent = tree.nodes, tree.nodes["parent"]
    leaves = node = tree.leaves()
    for _ in range(tree.depth):  # one gather per level climbed
        up = ~nodes["eligible"][node] & (parent[node] >= 0)
        if not up.any():
            break
        node = np.where(up, parent[node], node)
    deviation = np.maximum(nodes["delta"], tree.sigma_floor)
    level = nodes["level"][node]
    above = np.where(level > 0, parent[node], node)
    triple = level > 2
    psi = contextual_gain(np.where(triple, deviation[above], deviation[node]),
                          deviation[np.where(triple, parent[above], above)])
    records = dict(zip(leaves.tolist(),
                       zip(deviation[node].tolist(), psi.tolist())))
    return KernelField(records=records, leaf_map=tree.levels[tree.depth])


def mkf_denoise(image: Raster, cfg: ClusterConfig, h_x: float = BfParams.h_x,
                radius: int = BfParams.radius) -> MkfResult:
    """Full multi-kernel pipeline: context tree, kernel field, filter.

    Returns the filtered raster together with the intermediates so they
    can be inspected or dumped.
    """
    return mkf_filter(image, build_cluster_tree(image, cfg), h_x, radius)


def mkf_filter(image: Raster, tree: ClusterTree, h_x: float = BfParams.h_x,
               radius: int = BfParams.radius) -> MkfResult:
    """The multi-kernel pipeline after the tree: kernel field and filter,
    for a context tree built from `image` (or truncated from one)."""
    field = build_kernel_field(tree)
    out = weighted_mean_filter(image, MkfRule(field, h_x), radius)
    return MkfResult(out, tree, field)


def write_kernel_csv(field: KernelField, path) -> None:
    """Per-pixel kernel dump: rows `x,y,cluster_id,delta,psi`, in the
    `csv` module's default dialect (CRLF line ends, nothing to quote).

    Each leaf's row suffix is formatted once; the per-pixel rows are
    whole-array concatenations of object (str) arrays.
    """
    suffix = np.empty(max(field.records) + 1, dtype=object)
    for cluster, (delta, psi) in field.records.items():
        suffix[cluster] = f"{cluster},{delta!r},{psi!r}\r\n"
    height, width = field.leaf_map.shape
    xs = np.array([f"{x}," for x in range(width)], dtype=object)
    ys = np.array([f"{y}," for y in range(height)], dtype=object)
    rows = xs[None, :] + ys[:, None] + suffix[field.leaf_map]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("x,y,cluster_id,delta,psi\r\n")
        fh.write("".join(rows.ravel().tolist()))
