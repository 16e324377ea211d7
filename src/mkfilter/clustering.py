"""Hierarchical image-context clustering.

An image is split top-down into a tree of intensity-coherent, spatially
connected clusters. Each round applies two stages:

1. similarity clustering: a two-component 1D Gaussian mixture is fitted
   (EM over the intensity histogram) and every pixel is hard-assigned to
   the more probable component;
2. proximity clustering: spatially disconnected groups of same-labelled
   pixels are separated into their own clusters.

Clusters that are already small enough, or whose intensities cannot be
split, are carried down unchanged, so every level's label map partitions
the image and level t refines level t-1. The finished tree doubles as the
per-pixel "context": a leaf's own deviation plus those of its ancestors
drive the range kernels in :mod:`mkfilter.filters`.

A level is built in whole-array numpy steps, not one cluster at a time:
one histogram pass keyed by (cluster, bin), one segmented EM over the
histograms of all splittable clusters, one union-find connectivity pass
over the image and one ``np.bincount`` pass for the node statistics.
``build_histogram``, ``em_similarity_cluster`` and ``proximity_cluster``
are the one-cluster cases of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .raster import Raster

__all__ = [
    "GaussComponent",
    "GaussPair",
    "Histogram",
    "ClusterConfig",
    "ClusterNode",
    "ClusterTree",
    "EmResult",
    "build_histogram",
    "initial_gauss_pair",
    "em_similarity_cluster",
    "proximity_cluster",
    "build_cluster_tree",
    "context_of",
    "write_tree_dump",
]

EM_MAX_ITERATIONS = 500

_OFFSETS_4 = ((0, 1), (0, -1), (1, 0), (-1, 0))
_OFFSETS_8 = _OFFSETS_4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class GaussComponent:
    mu: float
    sigma: float
    weight: float


@dataclass(frozen=True)
class GaussPair:
    """Parameters of a two-component 1D Gaussian mixture."""

    theta1: GaussComponent
    theta2: GaussComponent


@dataclass(frozen=True)
class Histogram:
    """Weighted intensity bins; centers carry the mass of their members."""

    centers: np.ndarray
    counts: np.ndarray
    base: float
    bin_width: float


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for tree construction.

    max_depth        deepest clustering round (level 0 is the whole image)
    max_cluster      clusters larger than this keep splitting
    min_cluster      clusters at or below this defer statistics to an ancestor
    neighborhood     4- or 8-connectivity for the proximity stage
    bin_width        intensity histogram precision; doubles as the sigma floor
    em_tol           EM stops when no parameter moves more than this
    """

    max_depth: int = 2
    max_cluster: int = 20
    min_cluster: int = 9
    neighborhood: int = 8
    bin_width: float = 1.0
    em_tol: float = 1e-4

    def validate(self) -> None:
        if self.max_depth < 2:
            raise ConfigError(f"max_depth must be >= 2, got {self.max_depth}")
        if self.min_cluster < 1:
            raise ConfigError(f"min_cluster must be >= 1, got {self.min_cluster}")
        if self.max_cluster <= self.min_cluster:
            raise ConfigError(
                f"max_cluster ({self.max_cluster}) must exceed "
                f"min_cluster ({self.min_cluster})"
            )
        if self.neighborhood not in (4, 8):
            raise ConfigError(f"neighborhood must be 4 or 8, got {self.neighborhood}")
        if self.bin_width <= 0:
            raise ConfigError(f"bin_width must be positive, got {self.bin_width}")
        if self.em_tol <= 0:
            raise ConfigError(f"em_tol must be positive, got {self.em_tol}")


@dataclass
class ClusterNode:
    id: int
    level: int
    mu: float
    delta: float
    size: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    eligible: bool = True


@dataclass
class ClusterTree:
    """Cluster hierarchy plus one label map per level.

    ``levels[t]`` assigns every pixel the id of its level-t cluster, so
    each map partitions the image. ``sigma_floor`` is the lower bound
    applied to deviations whenever they feed a kernel (a zero sample
    deviation would otherwise collapse the range kernel).
    ``em_iterations`` holds the iteration count of every EM fit made while
    building the tree, level by level and by cluster id within a level;
    a single-bin cluster counts 0, and a fit that stopped at
    ``EM_MAX_ITERATIONS`` counts that many. ``level_fits[t - 1]`` is the
    number of those fits made while building level t.
    """

    nodes: dict[int, ClusterNode]
    levels: list[np.ndarray]
    depth: int
    sigma_floor: float
    em_iterations: tuple[int, ...] = ()
    level_fits: tuple[int, ...] = ()

    def node(self, node_id: int) -> ClusterNode:
        return self.nodes[node_id]

    def truncated(self, depth: int) -> "ClusterTree":
        """The tree :func:`build_cluster_tree` gives at ``max_depth=depth``.

        Levels are built one after another and ``max_depth`` only stops the
        loop, so a shallower tree is an exact prefix of a deeper one: the
        same level maps, node ids, statistics and EM fits. The level-`depth`
        nodes become leaves (fresh copies with no children); shallower nodes
        are shared with this tree.
        """
        if not 2 <= depth <= self.depth:
            raise ConfigError(
                f"truncation depth must be in [2, {self.depth}], got {depth}")
        if depth == self.depth:
            return self
        nodes = {}
        for node_id, node in self.nodes.items():
            if node.level < depth:
                nodes[node_id] = node
            elif node.level == depth:
                nodes[node_id] = replace(node, children=[])
        return ClusterTree(
            nodes=nodes, levels=self.levels[:depth + 1], depth=depth,
            sigma_floor=self.sigma_floor,
            em_iterations=self.em_iterations[:sum(self.level_fits[:depth])],
            level_fits=self.level_fits[:depth])

    def leaves(self) -> list[ClusterNode]:
        return [n for n in self.nodes.values() if not n.children]


@dataclass(frozen=True)
class EmResult:
    pair: GaussPair
    labels: np.ndarray  # per-bin hard labels, 0 -> theta1, 1 -> theta2
    degenerate: bool
    log_likelihood: np.ndarray  # one entry per EM iteration


# ---------------------------------------------------------------------------
# similarity clustering


def _segment_histograms(values: np.ndarray, segment: np.ndarray,
                        n_segments: int, bin_width: float):
    """Bin each segment's values into width-`bin_width` bins anchored at
    floor(min/bin_width)*bin_width of that segment.

    The occupied bins of all segments are laid out back to back, segment
    by segment and ascending within a segment; every segment must be
    non-empty. Returns ``(centers, counts, starts, bases, inverse)``:
    segment s owns the bins from ``starts[s]`` to the next start, and
    ``inverse`` gives each value's bin.
    """
    lowest = np.full(n_segments, np.inf)
    np.minimum.at(lowest, segment, values)
    bases = np.floor(lowest / bin_width) * bin_width
    bins = np.floor((values - bases[segment]) / bin_width).astype(np.int64)
    order = np.lexsort((bins, segment))
    seg_sorted, bins_sorted = segment[order], bins[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = ((seg_sorted[1:] != seg_sorted[:-1])
                 | (bins_sorted[1:] != bins_sorted[:-1]))
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    heads = np.flatnonzero(first)
    counts = np.diff(np.append(heads, values.size)).astype(np.float64)
    bin_segment = seg_sorted[heads]
    centers = bases[bin_segment] + (bins_sorted[heads] + 0.5) * bin_width
    starts = np.searchsorted(bin_segment, np.arange(n_segments))
    return centers, counts, starts, bases, inverse


def build_histogram(pixels, bin_width: float) -> Histogram:
    """Bin intensities into width-`bin_width` bins anchored at
    floor(min/bin_width)*bin_width; weights are member counts."""
    values = np.asarray(pixels, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("histogram needs at least one pixel")
    centers, counts, _, bases, _ = _segment_histograms(
        values, np.zeros(values.size, dtype=np.int64), 1, bin_width)
    return Histogram(centers=centers, counts=counts, base=float(bases[0]),
                     bin_width=bin_width)


def initial_gauss_pair(i_max: float, sigma_floor: float) -> GaussPair:
    """EM starting point: means at one and two thirds of the maximal
    intensity, deviations at the maximal intensity, equal weights."""
    sigma = max(abs(i_max), sigma_floor)
    return GaussPair(
        GaussComponent(mu=i_max / 3.0, sigma=sigma, weight=0.5),
        GaussComponent(mu=2.0 * i_max / 3.0, sigma=sigma, weight=0.5),
    )


@dataclass(frozen=True)
class _SegmentFits:
    """Per-segment results of :func:`_segmented_em`."""

    theta: np.ndarray              # (mu, sigma, weight) x component x segment
    labels: np.ndarray             # per bin, 0 -> first component
    degenerate: np.ndarray         # per segment: a single bin
    log_likelihood: list[np.ndarray]  # per segment, one entry per iteration


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _segmented_em(x, n, starts, theta, tol: float, sigma_floor: float,
                  max_iterations: int) -> _SegmentFits:
    """Fit one two-component mixture per histogram segment, all segments in
    the same whole-array steps.

    ``x``/``n`` hold the bin centers and counts of every segment back to
    back, segment s starting at ``starts[s]``; ``theta`` holds the starting
    (mu, sigma, weight), shape (3, 2, segments). A segment leaves the
    active set when its parameters move less than ``tol``, when a
    component loses all support (its parameters then stay as they were),
    or at the iteration cap; the active layout is rebuilt only then. Each
    segment runs exactly the steps of a fit on its own histogram.
    """
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    n_bins = np.diff(np.append(starts, x.size))
    n_seg = n_bins.size
    theta = np.array(theta, dtype=np.float64)
    theta[1] = np.maximum(theta[1], sigma_floor)
    degenerate = n_bins == 1
    theta[2][:, degenerate] = [[1.0], [0.0]]
    bin_seg = np.repeat(np.arange(n_seg), n_bins)
    labels = np.zeros(x.size, dtype=np.int64)
    trace_seg: list[np.ndarray] = []
    trace_ll: list[np.ndarray] = []

    active = np.flatnonzero(~degenerate)
    iteration = 0
    # zero weights give log(0) = -inf cleanly; a segment whose component
    # lost all mass divides by zero, and its new parameters are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.size and iteration < max_iterations:
            # layout of the active segments' bins, rebuilt when one finishes
            bins = np.flatnonzero(np.isin(bin_seg, active))
            local = np.repeat(np.arange(active.size), n_bins[active])
            local_starts = np.append(0, np.cumsum(n_bins[active])[:-1])
            xa, na = x[bins], n[bins]
            total = np.add.reduceat(na, local_starts)
            th = theta[:, :, active]
            while True:
                iteration += 1
                # E step in log space, per bin with its segment's parameters
                const = np.log(th[2]) - np.log(th[1]) - _HALF_LOG_2PI
                mu_b, sigma_b = th[:2].take(local, axis=2)
                log_p = (const.take(local, axis=1)
                         - 0.5 * ((xa - mu_b) / sigma_b) ** 2)
                top = np.maximum(log_p[0], log_p[1])
                spread = np.exp(log_p - top)
                log_norm = top + np.log(spread[0] + spread[1])
                resp = np.exp(log_p - log_norm)
                trace_seg.append(active)
                trace_ll.append(np.add.reduceat(na * log_norm, local_starts))

                # M step, the deviation clamped at the floor
                n_resp = na * resp
                mass = np.add.reduceat(n_resp, local_starts, axis=1)
                new = np.empty_like(th)
                np.divide(np.add.reduceat(n_resp * xa, local_starts, axis=1),
                          mass, out=new[0])
                var = np.add.reduceat(
                    n_resp * (xa - new[0].take(local, axis=1)) ** 2,
                    local_starts, axis=1) / mass
                np.maximum(np.sqrt(var), sigma_floor, out=new[1])
                np.divide(mass, total, out=new[2])
                shift = np.abs(new - th).reshape(6, -1).max(axis=0)
                lost = np.minimum(mass[0], mass[1]) <= 0.0
                done = lost | (shift < tol)
                if np.count_nonzero(lost):
                    new[:, :, lost] = th[:, :, lost]
                th = new
                if iteration == max_iterations:
                    done[:] = True
                if np.count_nonzero(done):
                    break
            theta[:, :, active] = th
            finished = done[local]
            labels[bins[finished]] = np.where(
                resp[0, finished] >= resp[1, finished], 0, 1)
            active = active[~done]

    return _SegmentFits(theta, labels, degenerate,
                        _split_traces(trace_seg, trace_ll, n_seg))


def _split_traces(trace_seg, trace_ll, n_seg) -> list[np.ndarray]:
    """Regroup per-iteration log-likelihood rows into one trace per segment."""
    if not trace_seg:
        return [np.empty(0) for _ in range(n_seg)]
    seg = np.concatenate(trace_seg)
    order = np.argsort(seg, kind="stable")
    bounds = np.cumsum(np.bincount(seg, minlength=n_seg))[:-1]
    return np.split(np.concatenate(trace_ll)[order], bounds)


def em_similarity_cluster(
    hist: Histogram,
    init: GaussPair,
    tol: float,
    sigma_floor: float | None = None,
    max_iterations: int = EM_MAX_ITERATIONS,
) -> EmResult:
    """Fit a two-component mixture to the histogram and hard-label each bin.

    This is the one-histogram case of the segmented EM that
    :func:`build_cluster_tree` runs over a whole level. The M-step clamps
    each deviation at ``sigma_floor`` (default: the bin width); because the
    clamp is the constrained maximizer of the expected complete-data
    log-likelihood, the recorded log-likelihood sequence is
    non-decreasing. Ties in the posterior go to the first component. A
    single-bin histogram cannot be split and yields a degenerate result
    with all mass on the first component.
    """
    if sigma_floor is None:
        sigma_floor = hist.bin_width
    theta = [[[init.theta1.mu], [init.theta2.mu]],
             [[init.theta1.sigma], [init.theta2.sigma]],
             [[init.theta1.weight], [init.theta2.weight]]]
    fits = _segmented_em(hist.centers, hist.counts, np.zeros(1, dtype=np.int64),
                         theta, tol, sigma_floor, max_iterations)
    pair = GaussPair(*(GaussComponent(*fits.theta[:, c, 0].tolist())
                       for c in (0, 1)))
    return EmResult(pair, fits.labels, bool(fits.degenerate[0]),
                    fits.log_likelihood[0])


# ---------------------------------------------------------------------------
# proximity clustering


def _region_roots(keys: np.ndarray, neighborhood: int) -> np.ndarray:
    """Each pixel's region root: the flat index of the first pixel, in
    row-major order, of its maximal connected region of equal ``keys``.

    Union-find in whole-array steps: every root is hooked onto the smallest
    root it shares an equal-key edge with, then pointers jump until each
    pixel points at its root; this repeats until no edge joins two roots.
    Roots only ever move to smaller indices, so the surviving root of a
    region is its smallest index, i.e. its first pixel.
    """
    height, width = keys.shape
    index = np.arange(keys.size, dtype=np.int32).reshape(height, width)
    steps = ((0, 1), (1, 0)) + (((1, 1), (1, -1)) if neighborhood == 8 else ())
    heads, tails = [], []
    for dy, dx in steps:  # edges towards later pixels, one direction at a time
        a = (slice(0, height - dy), slice(max(0, -dx), width - max(0, dx)))
        b = (slice(dy, height), slice(max(0, dx), width - max(0, -dx)))
        equal = keys[a] == keys[b]
        heads.append(index[a][equal])
        tails.append(index[b][equal])
    head, tail = np.concatenate(heads), np.concatenate(tails)
    root = index.ravel()
    while True:
        root_head, root_tail = root[head], root[tail]
        apart = root_head != root_tail
        if not apart.any():
            return root
        # edges inside one tree stay inside it; drop them
        head, tail = head[apart], tail[apart]
        root_head, root_tail = root_head[apart], root_tail[apart]
        np.minimum.at(root, np.maximum(root_head, root_tail),
                      np.minimum(root_head, root_tail))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _rank_roots(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Region label of each pixel (regions numbered by their first pixel in
    row-major order) and the flat index of each region's first pixel."""
    is_root = root == np.arange(root.size)
    return (np.cumsum(is_root) - 1)[root], np.flatnonzero(is_root)


def proximity_cluster(labels: np.ndarray, neighborhood: int) -> np.ndarray:
    """Give each maximal connected region of same-labelled pixels its own
    fresh label. The output refines the input partition, never merges.

    Fresh labels are issued in row-major order of each region's first
    pixel, so the result is deterministic.
    """
    if neighborhood not in (4, 8):
        raise ConfigError(f"neighborhood must be 4 or 8, got {neighborhood}")
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ConfigError(f"label map must be 2D, got shape {labels.shape}")
    region, _ = _rank_roots(_region_roots(labels, neighborhood))
    return region.reshape(labels.shape)


# ---------------------------------------------------------------------------
# tree construction


def _node_stats(values: np.ndarray, label: np.ndarray, count: int):
    """Size, mean and (population) deviation of each label's pixels."""
    size = np.bincount(label, minlength=count)
    mean = np.bincount(label, weights=values, minlength=count) / size
    dev = values - mean[label]
    delta = np.sqrt(np.bincount(label, weights=dev * dev, minlength=count) / size)
    return size, mean, delta


def _split_sides(values: np.ndarray, label: np.ndarray, splittable: np.ndarray,
                 cfg: ClusterConfig) -> tuple[np.ndarray, list[int]]:
    """EM component (0/1) of every pixel within its cluster, for all
    splittable clusters of a level in one histogram pass and one segmented
    EM; 0 for pixels of clusters carried down whole. Also returns each
    fit's iteration count, by cluster."""
    side = np.zeros(values.size, dtype=np.int64)
    members = np.flatnonzero(splittable[label])
    if members.size == 0:
        return side, []
    segment = (np.cumsum(splittable) - 1)[label[members]]
    n_seg = int(np.count_nonzero(splittable))
    pix = values[members]
    centers, counts, starts, _, inverse = _segment_histograms(
        pix, segment, n_seg, cfg.bin_width)
    i_max = np.full(n_seg, -np.inf)
    np.maximum.at(i_max, segment, pix)
    sigma = np.maximum(np.abs(i_max), cfg.bin_width)
    theta = [[i_max / 3.0, 2.0 * i_max / 3.0], [sigma, sigma],
             np.full((2, n_seg), 0.5)]  # initial_gauss_pair, per segment
    fits = _segmented_em(centers, counts, starts, theta, cfg.em_tol,
                         cfg.bin_width, EM_MAX_ITERATIONS)
    # a degenerate or one-sided fit gives all its pixels one side, which
    # leaves the cluster whole
    side[members] = fits.labels[inverse]
    return side, [trace.size for trace in fits.log_likelihood]


def build_cluster_tree(image: Raster, cfg: ClusterConfig) -> ClusterTree:
    """Grow the full context tree for one image.

    Level 0 is a single root cluster. At each subsequent level every
    cluster larger than ``cfg.max_cluster`` is split by EM + connectivity;
    everything else is carried down as a single child, so all leaves end
    at level ``cfg.max_depth`` and every level map partitions the image.
    Node statistics are the sample mean/deviation of the node's own pixels.

    Each level is processed as a whole: one histogram pass and one
    segmented EM over all splittable clusters, one connectivity pass over
    the image, one statistics pass. Node ids are issued level by level, in
    row-major order of each cluster's first pixel.
    """
    cfg.validate()
    height, width = image.data.shape
    flat = image.data.ravel()

    nodes: dict[int, ClusterNode] = {}
    em_iterations: list[int] = []
    level_fits: list[int] = []
    levels = []

    def add_level(level, label, count, parents):
        """Create the level's nodes from its level-local pixel labels."""
        first_id = len(nodes)
        size, mean, delta = _node_stats(flat, label, count)
        for node_id, s, mu, dev, parent in zip(
                range(first_id, first_id + count), size.tolist(),
                mean.tolist(), delta.tolist(), parents):
            nodes[node_id] = ClusterNode(
                id=node_id, level=level, mu=mu, delta=dev, size=s,
                parent=parent, eligible=s > cfg.min_cluster)
            if parent is not None:
                nodes[parent].children.append(node_id)
        label_map = (label + first_id).reshape(height, width)
        label_map.flags.writeable = False
        levels.append(label_map)
        return size

    label = np.zeros(flat.size, dtype=np.int64)
    size = add_level(0, label, 1, [None])
    for level in range(1, cfg.max_depth + 1):
        side, fit_iterations = _split_sides(flat, label,
                                            size > cfg.max_cluster, cfg)
        em_iterations += fit_iterations
        level_fits.append(len(fit_iterations))
        keys = (label * 2 + side).reshape(height, width)
        label, first_pixel = _rank_roots(_region_roots(keys, cfg.neighborhood))
        parents = levels[-1].ravel()[first_pixel].tolist()
        size = add_level(level, label, first_pixel.size, parents)

    return ClusterTree(nodes=nodes, levels=levels, depth=cfg.max_depth,
                       sigma_floor=cfg.bin_width,
                       em_iterations=tuple(em_iterations),
                       level_fits=tuple(level_fits))


# ---------------------------------------------------------------------------
# context queries


def _effective(tree: ClusterTree, node: ClusterNode) -> ClusterNode:
    """Nearest eligible node on the ancestor chain (the root as last resort).

    Ancestors never shrink, so everything above the first eligible node is
    eligible too.
    """
    while not node.eligible and node.parent is not None:
        node = tree.nodes[node.parent]
    return node


def context_of(tree: ClusterTree, leaf_id: int):
    """Deviation context of a leaf: (own, parent, grandparent), floored.

    Ineligible leaves inherit statistics and context from their nearest
    eligible ancestor. Leaves whose (effective) level is 2 or whose chain
    has no grandparent get the two-element fallback (own, parent); the
    contextual gain is then computed from that pair instead.
    """
    if leaf_id not in tree.nodes:
        raise KeyError(f"unknown leaf id {leaf_id}")
    node = _effective(tree, tree.nodes[leaf_id])
    floor = tree.sigma_floor
    d_own = max(node.delta, floor)
    if node.parent is None:
        return (d_own, d_own)
    parent = tree.nodes[node.parent]
    d_parent = max(parent.delta, floor)
    if node.level <= 2 or parent.parent is None:
        return (d_own, d_parent)
    grandparent = tree.nodes[parent.parent]
    return (d_own, d_parent, max(grandparent.delta, floor))


def write_tree_dump(tree: ClusterTree, path) -> None:
    """One node per line: `id level parent size mu delta eligible`."""
    with open(path, "w", encoding="ascii") as fh:
        for node_id in sorted(tree.nodes):
            n = tree.nodes[node_id]
            parent = -1 if n.parent is None else n.parent
            fh.write(f"{n.id} {n.level} {parent} {n.size} "
                     f"{n.mu:.17g} {n.delta:.17g} {int(n.eligible)}\n")
