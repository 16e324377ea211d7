"""Weighted-mean filtering: classic bilateral and the multi-kernel variant.

Both filters share one engine: each output pixel is the weighted mean of
its (2*radius+1)^2 window under a spatial Gaussian times a range Gaussian,
with symmetric mirror padding at the borders. The bilateral filter uses a
single, manually chosen range bandwidth. The multi-kernel filter replaces
it with per-cluster bandwidths read from a context tree: a leaf cluster
contributes its own intensity deviation, rescaled by the contextual gain
of its ancestors, so the effective bandwidth is delta / sqrt(psi).

The engine takes only a kernel field. The bilateral filter is its
one-leaf case: every pixel maps to one leaf with delta = h_I and psi = 1.
The engine computes the range factor psi / (2 delta^2) once per leaf,
runs every window offset whose spatial weight is not 0 over row strips
of about ``_STRIP_ELEMENTS`` pixels, so its five work buffers stay in
cache, and gathers the factors by each strip's center pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import BIN_WIDTH, ClusterConfig, ClusterTree, build_cluster_tree
from .errors import ConfigError, require_addressable, require_bandwidth
from .raster import Raster

__all__ = [
    "BfParams",
    "KernelField",
    "MkfResult",
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
        require_bandwidth(h_x=self.h_x, h_I=self.h_I)
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")


class KernelField:
    """Range-kernel parameters in leaf columns, plus the pixel->leaf map.

    Row k of ``delta``/``psi`` belongs to leaf ``ids[k]``. The ids come
    from the leaf map: one per row of ``delta``, consecutive from the map's
    smallest id, which must be non-negative (a tree's leaves are the last
    rows of its node table). The map, of integers that int64 holds, must
    use every id and no other; ``rows`` gives each of its pixels its row,
    ``leaf_map - ids[0]``. delta and psi are positive and finite.
    """

    def __init__(self, leaf_map, delta, psi):
        self.leaf_map = np.asarray(leaf_map)
        self.delta, self.psi = np.asarray(delta, float), np.asarray(psi, float)
        if not np.all((self.delta > 0, self.delta < np.inf,
                       self.psi > 0, self.psi < np.inf)):
            raise ConfigError("delta and psi must be positive and finite")
        # the map's kind first: a float map's minimum is no leaf id
        ints = (self.leaf_map.size
                and np.can_cast(self.leaf_map.dtype, np.int64))
        first = int(self.leaf_map.min()) if ints else -1
        self.ids = np.arange(first, first + self.delta.size, dtype=np.int64)
        self.rows = self.leaf_map - np.int64(first)
        if not (ints and first >= 0 and self.rows.max() == self.ids.size - 1
                and np.bincount(self.rows.ravel()).all()):
            raise ConfigError("the leaf map must use every leaf id and no other")


class MkfResult(NamedTuple):
    raster: Raster
    tree: ClusterTree
    field: KernelField


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


# Pixels per row strip of the window engine: each of its five float64
# strip buffers is 128 KiB, so a strip's working set stays in L2.
_STRIP_ELEMENTS = 16384


def _window_mean(values: np.ndarray, h_x: float, radius: int,
                 factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Direct weighted-mean form, one window offset at a time over row strips.

    `factor` holds the range factor psi / (2 delta^2) of each leaf, which
    `rows` gathers by the center pixel. Each strip of about
    ``_STRIP_ELEMENTS`` pixels runs every offset into five strip buffers,
    so each output pixel sums the same terms in the same order as a
    whole-image pass would. Offsets
    whose spatial weight underflows to 0 would add only zeros and are
    skipped, so a radius beyond that distance gives the same output.
    """
    height, width = values.shape
    require_addressable("the padded image", height + 2 * radius,
                        width + 2 * radius)
    padded = np.pad(values, radius, mode="symmetric")
    inv_space = 1.0 / (2.0 * h_x * h_x)
    square = np.arange(-radius, radius + 1) ** 2
    with np.errstate(over="ignore"):  # a huge step's weight is exp(-inf) = 0
        space = -(square[:, None] + square[None, :]) * inv_space
    # the range term is >= 0, so where exp(space) is 0 every weight is 0
    # and the offset would add only zeros: skip it. Kept offsets, as
    # (row, column) of the padded image, in row-major order.
    ys, xs = np.nonzero(np.exp(space) > 0)
    offsets = list(zip(ys.tolist(), xs.tolist(), space[ys, xs].tolist()))
    strip = max(1, _STRIP_ELEMENTS // width)
    buffers = np.empty((5, min(strip, height), width))
    out = np.empty_like(values)
    # a huge step overflows to a zero weight; a sum that overflows leaves
    # a non-finite output, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(0, height, strip):
            bottom = min(top + strip, height)
            ranged, w, num, den, gathered = buffers[:, :bottom - top]
            center = values[top:bottom]
            # rows are in range by construction; "clip" lets take write into
            # the buffer directly, where "raise" would buffer the output
            scale = np.take(factor, rows[top:bottom], mode="clip",
                            out=gathered)
            # a zero factor stays a zero range term even where the squared
            # step overflows to inf (inf * 0 is nan)
            zero_range = scale == 0
            any_zero_range = bool(np.any(zero_range))
            num.fill(0.0)
            den.fill(0.0)
            for y, x, space in offsets:
                shifted = padded[top + y:bottom + y, x:x + width]
                np.subtract(center, shifted, out=ranged)
                np.square(ranged, out=ranged)
                np.multiply(ranged, scale, out=ranged)
                if any_zero_range:
                    ranged[zero_range] = 0.0
                np.subtract(space, ranged, out=ranged)
                np.exp(ranged, out=w)
                num += np.multiply(w, shifted, out=ranged)
                den += w
            np.divide(num, den, out=out[top:bottom])
    if not np.isfinite(out).all():
        raise ConfigError("filtered values overflow the float64 range")
    return out


def weighted_mean_filter(image: Raster, field: KernelField, radius: int,
                         h_x: float) -> Raster:
    """Run the filter engine over `image` with the range kernels of
    `field` (each leaf's range factor is computed once and looked up by
    the center pixel's leaf) and the spatial bandwidth `h_x`."""
    require_bandwidth(h_x=h_x)
    if radius < 1:
        raise ConfigError(f"radius must be >= 1, got {radius}")
    if field.leaf_map.shape != image.data.shape:
        raise ConfigError("kernel field was built for a different image size")
    with np.errstate(over="ignore"):  # a huge delta gives a zero factor
        factor = field.psi / (2.0 * field.delta ** 2)
    return image.with_data(_window_mean(image.data, h_x, radius, factor,
                                        field.rows))


# ---------------------------------------------------------------------------
# multi-kernel pipeline


def build_kernel_field(tree: ClusterTree) -> KernelField:
    """Every leaf's (delta, psi), for all leaves in whole-array steps.

    A leaf defers to its nearest eligible ancestor (the root at last): one
    of more than ``tree.config.min_cluster`` pixels. With deviations
    floored at ``BIN_WIDTH``, delta is that node's own deviation and psi
    the contextual gain of its parent and grandparent, or of itself and
    its parent at level 1 or 2 (1 at the root).
    """
    nodes, parent, size = tree.nodes, tree.nodes["parent"], tree.nodes["size"]
    node = tree.leaves()
    for _ in range(tree.depth):  # one gather per level climbed
        up = (size[node] <= tree.config.min_cluster) & (parent[node] >= 0)
        if not up.any():
            break
        node = np.where(up, parent[node], node)
    deviation = np.maximum(nodes["delta"], BIN_WIDTH)
    level = nodes["level"][node]
    above = np.where(level > 0, parent[node], node)
    triple = level > 2
    psi = contextual_gain(np.where(triple, deviation[above], deviation[node]),
                          deviation[np.where(triple, parent[above], above)])
    return KernelField(tree.leaf_map, deviation[node], psi)


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
    for a context tree built from `image` (or cut from one)."""
    field = build_kernel_field(tree)
    out = weighted_mean_filter(image, field, radius, h_x)
    return MkfResult(out, tree, field)


def write_kernel_csv(field: KernelField, path) -> None:
    """Per-pixel kernel dump: rows `x,y,cluster_id,delta,psi`, in the
    `csv` module's default dialect (CRLF line ends, nothing to quote).

    Each leaf's row suffix is formatted once, in one pass over the
    columns; the per-pixel rows are whole-array concatenations of object
    (str) arrays, with the suffixes gathered by each pixel's row.
    """
    columns = zip(field.ids.tolist(), field.delta.tolist(), field.psi.tolist())
    suffix = np.array([f"{cluster},{delta!r},{psi!r}\r\n"
                       for cluster, delta, psi in columns], dtype=object)
    height, width = field.leaf_map.shape
    xs = np.array([f"{x}," for x in range(width)], dtype=object)
    ys = np.array([f"{y}," for y in range(height)], dtype=object)
    lines = xs[None, :] + ys[:, None] + suffix[field.rows]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("x,y,cluster_id,delta,psi\r\n")
        fh.write("".join(lines.ravel().tolist()))
